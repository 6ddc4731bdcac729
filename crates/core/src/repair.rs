//! Incremental repair: patch a built [`Scheme`] after a batch of
//! [`GraphDelta`]s instead of rebuilding it from scratch.
//!
//! ## Strategy (see DESIGN.md §"Churn & incremental repair")
//!
//! A repair runs the assembler a fresh build runs
//! ([`Scheme::assemble`]) on the mutated graph, with the old scheme's
//! center trees as its [`Prior`]. A build is the same call with no
//! prior: it reuses nothing. The one reuse rule below is the only
//! difference between the two. The build's cost is wildly skewed: at
//! 50k nodes the per-center tree pipeline is ~96% of assembly, while
//! classification, S budgets, membership, `b(u,i)`, and cover trees are
//! a few percent combined. So the cheap phases carry no reuse logic:
//! the assembler recomputes them in full, which makes their output
//! bit-identical to a rebuild by construction. Only the center trees
//! are reused:
//!
//! * a tree `T(c)` is reused iff every changed edge sits strictly
//!   outside its radius `r` (the largest new member distance) on both
//!   the old and new graph (`prox(c) > r`, where `prox` is the distance
//!   from `c` to the nearest changed-edge endpoint), and its old record
//!   is the tree a fresh build over the new members makes: rooted at
//!   `c`, every member a node at depth `d(v, c)`, every non-root leaf a
//!   member. Under those conditions the bounded run sees the same ball
//!   and picks the same parents, the members close under them to the
//!   old node set, and the Lemma 4 scheme, seeded by `c` alone, encodes
//!   to the stored bytes. The rule reads only the record, the new
//!   members and the two proximity arrays — never the landmark
//!   hierarchy — so it holds whatever hierarchy the mutated graph
//!   verifies, and a scheme loaded from a snapshot repairs
//!   incrementally too.
//!
//! Every `b(u,i)` is derived from its center's tree, kept or built
//! fresh, and every dense scale's cover is built, exactly as a build
//! does. So `repair ≡ rebuild` holds byte for byte: every snapshot
//! section but `META`, and every [`crate::BuildStats`] field but the
//! phase timings (asserted across families and `k` by
//! `tests/repair_parity.rs`).
//!
//! ## Residue case
//!
//! A batch that leaves the graph disconnected is *deferred*: the scheme
//! is left untouched (stale), and the caller accumulates deltas until
//! connectivity returns — `core::churn` leans on this for
//! node-leave/join epochs.

use graphkit::{
    apply_deltas, delta_impact, dijkstra, Cost, DeltaImpact, GraphDelta, NodeId, INFINITY,
};
use treeroute::laing::ErtRead;
use treeroute::LabeledRead;

use crate::center_store::{CenterStore, Records};
use crate::scheme::{Parts, Scheme};

/// Why repair rebuilt the scheme from scratch. No repair returns
/// [`RepairOutcome::RebuiltFull`] any more: every repair runs the
/// assembler with the old center trees as its prior, whatever landmark
/// hierarchy the mutated graph verifies. Kept so callers that match on
/// the variant still compile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// Re-verifying the seeded landmark hierarchy on the mutated graph
    /// selected a different landmark set. Never returned: the tree
    /// rule does not read the hierarchy.
    HierarchyChanged,
}

/// Why repair touched nothing at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeferReason {
    /// The mutated graph is disconnected — the Theorem 1 scheme is
    /// only defined on connected graphs. The scheme is unchanged (its
    /// routes are now stale); accumulate further deltas and repair
    /// again once connectivity returns.
    Disconnected,
}

/// Patch statistics for a successful incremental repair.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Distinct edges changed by the delta batch.
    pub changed_edges: usize,
    /// Nodes whose distance vector changed (`graphkit::delta_impact`).
    pub dirty_nodes: usize,
    /// Distinct centers after repair.
    pub centers_total: usize,
    /// Center trees rebuilt (members or nearby edges changed).
    pub trees_rebuilt: usize,
    /// Center trees reused bit-identically.
    pub trees_reused: usize,
    /// Dense scales whose covers were built: every scale, as in a
    /// fresh build.
    pub scales_rebuilt: usize,
    /// Dense scales whose covers were reused: always 0, since covers
    /// are rebuilt. Kept for callers that still read it.
    pub scales_reused: usize,
    /// Sparse `(u, i)` pairs whose `b(u,i)` was derived: every pair
    /// whose center tree is in the store, as in a fresh build.
    pub b_recomputed: usize,
    /// Wall-clock seconds for the whole repair.
    pub seconds: f64,
}

/// What [`Scheme::repair`] did.
#[derive(Clone, Debug)]
pub enum RepairOutcome {
    /// The scheme was patched in place — bit-identical to a fresh
    /// build on the mutated graph.
    Repaired(RepairReport),
    /// A full rebuild. No repair returns this any more (see
    /// [`RebuildReason`]); kept so callers that match on it still
    /// compile.
    RebuiltFull {
        /// Which residue case fired.
        reason: RebuildReason,
        /// Wall-clock seconds for the rebuild.
        seconds: f64,
    },
    /// The scheme was left untouched and is now stale.
    Deferred {
        /// Why nothing could be done yet.
        reason: DeferReason,
    },
}

impl Scheme {
    /// Apply `deltas` to the underlying graph and bring the scheme up
    /// to date, reusing every center tree the batch provably left
    /// untouched. On return (except [`RepairOutcome::Deferred`]) the
    /// scheme equals a fresh build on the mutated graph. A loaded
    /// scheme ([`Scheme::load`], [`Scheme::load_lazy`]) repairs
    /// incrementally too, and every repaired scheme holds its center
    /// trees resident.
    ///
    /// Panics on malformed deltas (failing a missing edge, restoring a
    /// present one — see [`GraphDelta`]): delta bookkeeping is the
    /// caller's contract, not a recoverable condition.
    pub fn repair(&mut self, deltas: &[GraphDelta]) -> RepairOutcome {
        let t0 = std::time::Instant::now();
        if deltas.is_empty() {
            return RepairOutcome::Repaired(RepairReport {
                centers_total: self.stats.num_center_trees,
                trees_reused: self.stats.num_center_trees,
                seconds: t0.elapsed().as_secs_f64(),
                ..Default::default()
            });
        }
        let g2 = apply_deltas(&self.g, deltas);
        if dijkstra(&g2, NodeId(0)).dist.contains(&INFINITY) {
            return RepairOutcome::Deferred { reason: DeferReason::Disconnected };
        }
        let impact = delta_impact(&self.g, &g2, deltas);
        let mut changed: Vec<(NodeId, NodeId)> = deltas
            .iter()
            .map(|d| {
                let (u, v) = d.endpoints();
                (u.min(v), u.max(v))
            })
            .collect();
        changed.sort_unstable();
        changed.dedup();
        let (changed_edges, dirty_nodes) = (changed.len(), impact.dirty_nodes.len());
        let params = self.params;
        let parts = Parts::compute(&g2, &params);
        let prior = Prior { store: &mut self.center_store, impact };
        let (scheme, report) = Scheme::assemble(g2, params, parts, Some(prior));
        *self = scheme;
        let seconds = t0.elapsed().as_secs_f64();
        RepairOutcome::Repaired(RepairReport { changed_edges, dirty_nodes, seconds, ..report })
    }
}

/// The center trees of the scheme under repair and what the delta
/// batch changed: the input that turns the assembler's fresh build into
/// a repair.
pub(crate) struct Prior<'a> {
    store: &'a mut CenterStore,
    impact: DeltaImpact,
}

impl Prior<'_> {
    /// The reuse rule: `T(c)` is kept iff every changed edge lies
    /// strictly outside the radius of `mem` on both graphs, and `c`'s
    /// old record reads and is the tree a fresh build over `mem` makes.
    pub(crate) fn keeps_tree(&self, c: u32, mem: &[(u32, Cost)]) -> bool {
        let r = mem.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let far = |prox: &[Cost]| prox.get(c as usize).is_some_and(|&p| p > r);
        far(&self.impact.old_prox)
            && far(&self.impact.new_prox)
            && self.store.with_tree(c, |ert| is_tree_over(ert.labeled(), c, mem)).unwrap_or(false)
    }

    /// Move the `kept` centers' records out of the old store as bytes —
    /// the stored record of an identical tree is the fresh encoding, and
    /// that store is about to be replaced, so repair holds no tree
    /// twice. A kept record that can no longer be read is dropped:
    /// routes through that center fall through to their next level
    /// (degraded delivery, no panic).
    pub(crate) fn carry_trees(&mut self, kept: &[u32]) -> Records {
        kept.iter().filter_map(|&c| Some((c, self.store.take_record(c).ok()?))).collect()
    }
}

/// Is `tree`, the old record of center `c`, the tree a fresh build over
/// `mem` (`(v, d(v, c))`, `v` ascending) makes, given that no changed
/// edge lies within `mem`'s radius? Yes iff its root is `c`, every
/// member is a node at depth `d(v, c)`, and every non-root leaf is a
/// member (the proof is in DESIGN.md §"Churn & incremental repair").
/// Sorts the tree's nodes by host id and merges them with `mem`: no
/// n-length table, and no host id read off the record indexes one.
fn is_tree_over(tree: &impl LabeledRead, c: u32, mem: &[(u32, Cost)]) -> bool {
    if tree.host(0) != Some(c) {
        return false;
    }
    // (host id, depth, non-root leaf) per node. Parents precede their
    // children, so one forward pass finds the depths and clears every
    // parent's leaf flag.
    let size = tree.size();
    let mut nodes: Vec<(u32, Cost, bool)> = Vec::with_capacity(size);
    for t in 0..size as u32 {
        let depth = match tree.parent(t).and_then(|p| nodes.get_mut(p as usize)) {
            Some(parent) => {
                parent.2 = false;
                parent.1.saturating_add(tree.parent_weight(t))
            }
            None => 0,
        };
        nodes.push((tree.host(t).unwrap_or(u32::MAX), depth, t != 0));
    }
    nodes.sort_unstable();
    let mut mem = mem.iter().peekable();
    let mut prev = None;
    for &(v, depth, leaf) in &nodes {
        if prev == Some(v) {
            return false; // a host twice is no tree
        }
        prev = Some(v);
        match mem.next_if(|&&(m, _)| m == v) {
            Some(&(_, d)) if d != depth => return false,
            None if leaf => return false,
            _ => {}
        }
    }
    // A member that is no node stops the merge, so it is left over.
    mem.next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeParams;
    use crate::BuildStats;
    use graphkit::gen::Family;
    use graphkit::wire::{xxh64, SnapshotReader};
    use graphkit::Tree;
    use sim::{pairs, Router};
    use treeroute::LabeledTree;

    /// Node 0 is the root; nodes 1, 2, 3 hang below `parents` at
    /// weights 3, 4, 2.
    fn tree(hosts: [u32; 4], parents: [u32; 4]) -> LabeledTree {
        LabeledTree::new(Tree::from_parents(hosts.to_vec(), parents.to_vec(), vec![0, 3, 4, 2]))
    }

    #[test]
    fn record_rule_checks_root_members_depths_and_leaves() {
        // Root 5 with children 2 (depth 3) and 9 (depth 4); 7 below 2
        // (depth 5). Leaves 7 and 9, inner node 2.
        let t = tree([5, 2, 9, 7], [u32::MAX, 0, 0, 1]);
        let full = [(2, 3), (5, 0), (7, 5), (9, 4)];
        // The tree over its own members, or over just its leaves: the
        // closure under parents is the same node set.
        assert!(is_tree_over(&t, 5, &full));
        assert!(is_tree_over(&t, 5, &[(7, 5), (9, 4)]));
        assert!(!is_tree_over(&t, 2, &full), "root is not the center");
        assert!(!is_tree_over(&t, 5, &[(2, 3), (7, 5)]), "leaf 9 is no member");
        assert!(!is_tree_over(&t, 5, &[(7, 6), (9, 4)]), "7 at the wrong depth");
        for extra in [1, 8, 11] {
            let mut mem = vec![(7, 5), (9, 4), (extra, 1)];
            mem.sort_unstable();
            assert!(!is_tree_over(&t, 5, &mem), "member {extra} is no node");
        }
        // A path 5 - 9 - 8 - 7 over its one leaf, then with host 9 twice.
        let chain = [u32::MAX, 0, 1, 2];
        assert!(is_tree_over(&tree([5, 9, 8, 7], chain), 5, &[(7, 9)]));
        let twice = tree([5, 9, 9, 7], chain);
        assert!(!is_tree_over(&twice, 5, &[(7, 9)]), "host 9 twice");
    }

    /// What a scheme shows of itself: every snapshot section but META
    /// (which holds the phase timings), every build stat but the
    /// timings, the storage bits, the header bound and 250 routes.
    fn observed(scheme: &Scheme, tag: &str) -> Vec<String> {
        let path = std::env::temp_dir()
            .join(format!("agm-repair-hierarchy-{tag}-{}.bin", std::process::id()));
        scheme.save(&path).expect("save");
        let sr = SnapshotReader::open(&path).expect("open snapshot");
        let mut out: Vec<String> = (2..=9)
            .map(|id| format!("section {id}: {:016x}", xxh64(&sr.section(id).expect("section"))))
            .collect();
        drop(sr);
        let _ = std::fs::remove_file(&path);
        let stats = BuildStats { phase_seconds: vec![], ..scheme.stats().clone() };
        out.push(format!("{stats:?}"));
        let n = scheme.graph().n();
        let bits: Vec<u64> = (0..n as u32).map(|v| scheme.storage_bits(NodeId(v))).collect();
        out.push(format!("storage {bits:?}, header {}", scheme.header_bits_bound()));
        for (s, t) in pairs::sample(n, 250, 0x41E7) {
            let tr = scheme.route(s, t);
            out.push(format!("{s}->{t}: {} {} {:?}", tr.delivered, tr.cost, tr.path));
        }
        out
    }

    /// The tree rule never reads the landmark hierarchy, so a repair
    /// needs no fallback when the mutated graph verifies another one.
    /// No natural batch changes it (none of 652 probed did), so this
    /// test forces it: the prefix of the mutated graph is sampled under
    /// other hierarchy seeds (with `params` unchanged), and assembling
    /// on it with the old trees as prior must equal assembling with no
    /// prior — while the prior still supplies trees.
    #[test]
    fn repair_under_another_hierarchy_equals_a_fresh_assemble() {
        let mut reused = 0;
        for fam in [Family::Geometric, Family::PrefAttach] {
            let g0 = fam.generate(110, 0x9E9A);
            // An empty batch and a one-edge failure that keeps the graph
            // connected.
            let (u, v, _) = g0
                .all_edges()
                .find(|&(u, v, _)| {
                    let g = apply_deltas(&g0, &[GraphDelta::EdgeFail { u, v }]);
                    !dijkstra(&g, NodeId(0)).dist.contains(&INFINITY)
                })
                .expect("a non-bridge edge");
            for batch in [vec![], vec![GraphDelta::EdgeFail { u, v }]] {
                let g1 = apply_deltas(&g0, &batch);
                for k in [2usize, 3] {
                    let params = SchemeParams::new(k, 0x9E9A);
                    for seed in 1..=3u64 {
                        let label =
                            format!("{} k={k} |batch|={} seed {seed}", fam.label(), batch.len());
                        let parts = || Parts::compute(&g1, &SchemeParams { seed, ..params });
                        let mut old = Scheme::build_on_demand(g0.clone(), params);
                        let impact = delta_impact(&g0, &g1, &batch);
                        let prior = Prior { store: &mut old.center_store, impact };
                        let (repaired, report) =
                            Scheme::assemble(g1.clone(), params, parts(), Some(prior));
                        let fresh = Scheme::assemble(g1.clone(), params, parts(), None).0;
                        assert_ne!(
                            repaired.hierarchy().levels(),
                            old.hierarchy().levels(),
                            "{label}: the hierarchy did not change"
                        );
                        let (got, want) = (observed(&repaired, "got"), observed(&fresh, "want"));
                        for (got, want) in got.iter().zip(&want) {
                            assert_eq!(got, want, "{label}");
                        }
                        reused += report.trees_reused;
                    }
                }
            }
        }
        assert!(reused > 0, "no prior supplied a tree");
    }
}
