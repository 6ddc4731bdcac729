//! Incremental repair: patch a built [`Scheme`] after a batch of
//! [`GraphDelta`]s instead of rebuilding it from scratch.
//!
//! ## Strategy (see DESIGN.md §"Churn & incremental repair")
//!
//! A repair runs the assembler a fresh build runs
//! ([`Scheme::assemble`]) on the mutated graph, with the old scheme as
//! its [`Prior`]. A build is the same call with no prior: it reuses
//! nothing. The reuse rules below are the only difference between the
//! two. The build's cost is wildly skewed: at 50k nodes the per-center
//! tree pipeline is ~96% of assembly, while classification, S budgets,
//! membership, `b(u,i)`, and cover trees are a few percent combined.
//! So the cheap phases carry no reuse logic: the assembler recomputes
//! them in full, which makes their output bit-identical to a rebuild by
//! construction. Only the expensive artifacts have reuse rules, one
//! [`Prior`] method each:
//!
//! * **center trees** — a tree `T(c)` is reused iff every changed edge
//!   sits strictly outside its radius `r` (the largest new member
//!   distance) on both the old and new graph (`prox(c) > r`, where
//!   `prox` is the distance from `c` to the nearest changed-edge
//!   endpoint), and its old record is the tree a fresh build over the
//!   new members makes: rooted at `c`, every member a node at depth
//!   `d(v, c)`, every non-root leaf a member. Under those conditions
//!   the bounded run sees the same ball and picks the same parents,
//!   the members close under them to the old node set, and the Lemma 4
//!   scheme, seeded by `c` alone, encodes to the stored bytes. The rule
//!   reads only the record, so a scheme loaded from a snapshot repairs
//!   incrementally too;
//! * **cover trees** — a dense scale's whole cover collection is
//!   reused iff its extended-range member set is unchanged and no
//!   changed edge has both endpoints inside it (the cover's searches
//!   relax only edges with both endpoints in the member set, so they
//!   see the same graph, and the deterministic cover construction is
//!   identical);
//! * **`b(u,i)`** — copied from the old plans when `u`'s distance
//!   vector is unchanged and its center's tree was reused (same scope,
//!   same tree ⇒ same bounded-search level), recomputed otherwise.
//!
//! Change detection is exact, not heuristic: `graphkit::delta_impact`
//! compares per-endpoint distance columns on the two final graphs,
//! and a node outside its dirty set provably has its *entire*
//! distance vector unchanged — hence the same decomposition row,
//! landmark lists, centers, and sorted positions. This is what makes
//! `repair ≡ rebuild` hold byte for byte (every snapshot section but
//! `META`, asserted across families and `k` by `tests/repair_parity.rs`).
//!
//! ## Residue cases
//!
//! Repair declines in a few documented situations instead of risking
//! a wrong patch: a delta batch after which the seeded hierarchy
//! re-verification picks a different landmark set runs the assembler
//! with no prior (a full rebuild) and says so. A batch that leaves the
//! graph disconnected is *deferred*: the scheme is left untouched
//! (stale), and the caller accumulates deltas until connectivity
//! returns — `core::churn` leans on this for node-leave/join epochs.

use decomposition::Decomposition;
use graphkit::{
    apply_deltas, delta_impact, dijkstra, Cost, DeltaImpact, GraphDelta, NodeId, INFINITY,
};
use treeroute::cover_router::CoverScale;
use treeroute::laing::ErtRead;
use treeroute::LabeledRead;

use crate::center_store::Records;
use crate::scheme::{LevelPlan, Parts, Scheme};

/// Why repair declined to patch and rebuilt the scheme from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// Re-verifying the seeded landmark hierarchy on the mutated graph
    /// selected a different landmark set (a different sampling attempt
    /// passed Claims 1–2), so every center assignment is suspect and
    /// reuse potential is nil.
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
    /// Nodes whose distance vector changed (the exact invalidation
    /// set; everything outside it kept its build state verbatim).
    pub dirty_nodes: usize,
    /// Distinct centers after repair.
    pub centers_total: usize,
    /// Center trees rebuilt (members or nearby edges changed).
    pub trees_rebuilt: usize,
    /// Center trees reused bit-identically.
    pub trees_reused: usize,
    /// Centers that exist now but not before.
    pub centers_added: usize,
    /// Centers that existed before but not now.
    pub centers_removed: usize,
    /// Dense scales whose cover collections were rebuilt.
    pub scales_rebuilt: usize,
    /// Dense scales whose cover collections were reused.
    pub scales_reused: usize,
    /// Sparse `(u, i)` pairs whose `b(u,i)` was re-derived (the rest
    /// copied over; Lemma 3 counters in [`crate::BuildStats`] reflect
    /// only these re-verified pairs after a repair).
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
    /// A residue case forced a full rebuild (the scheme is still
    /// correct and current — just not incrementally so).
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
    /// to date, reusing every center tree and cover collection the
    /// batch provably left untouched. On return (except
    /// [`RepairOutcome::Deferred`]) the scheme routes exactly like a
    /// fresh build on the mutated graph. A loaded scheme
    /// ([`Scheme::load`], [`Scheme::load_lazy`]) repairs incrementally
    /// too, and every repaired scheme holds its center trees resident.
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
                scales_reused: self.stats.num_scales,
                seconds: t0.elapsed().as_secs_f64(),
                ..Default::default()
            });
        }
        let g2 = apply_deltas(&self.g, deltas);
        if dijkstra(&g2, NodeId(0)).dist.contains(&INFINITY) {
            return RepairOutcome::Deferred { reason: DeferReason::Disconnected };
        }
        let params = self.params;
        let parts = Parts::compute(&g2, &params);
        if parts.hier.levels() != self.hier.levels() {
            *self = Scheme::assemble(g2, params, parts, None).0;
            let reason = RebuildReason::HierarchyChanged;
            return RepairOutcome::RebuiltFull { reason, seconds: t0.elapsed().as_secs_f64() };
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
        let prior = Prior { old: self, impact, changed };
        let (scheme, report) = Scheme::assemble(g2, params, parts, Some(prior));
        *self = scheme;
        let seconds = t0.elapsed().as_secs_f64();
        RepairOutcome::Repaired(RepairReport { changed_edges, dirty_nodes, seconds, ..report })
    }
}

/// The scheme under repair and what the delta batch changed: the input
/// that turns the assembler's fresh build into a repair. Each method is
/// one reuse rule from the module docs.
pub(crate) struct Prior<'a> {
    old: &'a mut Scheme,
    impact: DeltaImpact,
    /// Distinct changed edges as ordered endpoint pairs, ascending.
    changed: Vec<(NodeId, NodeId)>,
}

impl Prior<'_> {
    /// Center-tree rule: `T(c)` is kept iff every changed edge lies
    /// strictly outside the radius of `mem` on both graphs, and `c`'s
    /// old record reads and is the tree a fresh build over `mem` makes.
    pub(crate) fn keeps_tree(&self, c: u32, mem: &[(u32, Cost)]) -> bool {
        let r = mem.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let far = |prox: &[Cost]| prox.get(c as usize).is_some_and(|&p| p > r);
        far(&self.impact.old_prox)
            && far(&self.impact.new_prox)
            && self
                .old
                .center_store
                .with_tree(c, |ert| is_tree_over(ert.labeled(), c, mem))
                .unwrap_or(false)
    }

    /// Move the `kept` centers' records out of the old store as bytes —
    /// the stored record of an identical tree is the fresh encoding, and
    /// that store is about to be replaced, so repair holds no tree
    /// twice. A kept record that can no longer be read is dropped:
    /// routes through that center fall through to their next level
    /// (degraded delivery, no panic). Counts the centers added and
    /// removed against the new `centers`.
    pub(crate) fn carry_trees(
        &mut self,
        centers: &[u32],
        kept: &[u32],
        report: &mut RepairReport,
    ) -> Records {
        let store = &mut self.old.center_store;
        let old: Vec<u32> = store.centers().collect();
        report.centers_added = centers.iter().filter(|c| old.binary_search(c).is_err()).count();
        report.centers_removed = old.iter().filter(|c| centers.binary_search(c).is_err()).count();
        kept.iter().filter_map(|&c| Some((c, store.take_record(c).ok()?))).collect()
    }

    /// `b(u,i)` rule: the old plan's `b` and source index carry over iff
    /// `u`'s distance vector is unchanged (same scope, same center) and
    /// that center's tree was kept (same search levels).
    pub(crate) fn kept_plan(
        &self,
        (u, i): (usize, usize),
        fresh: LevelPlan,
        tree_kept: bool,
    ) -> Option<LevelPlan> {
        (tree_kept && !self.impact.dirty[u]).then(|| {
            let old = self.old.plans[u][i];
            debug_assert_eq!((old.center, old.a), (fresh.center, fresh.a));
            old
        })
    }

    /// Cover rule: scale `s`'s old collection carries over iff its
    /// extended-range member set is unchanged (clean nodes keep their
    /// decomposition row; dirty ones are checked) and no changed edge
    /// has both endpoints in it. The cover is built in the host graph
    /// but relaxes only edges with both endpoints in the member set, so
    /// then it sees the same edges, and the deterministic construction
    /// seeded by (s, tree index) is identical. The kept cover is moved
    /// out of the old scheme.
    pub(crate) fn take_cover(&mut self, s: u32, dec: &Decomposition) -> Option<CoverScale> {
        let old = &self.old.dec;
        let same_members =
            self.impact.dirty_nodes.iter().all(|&v| {
                old.in_extended_range(NodeId(v), s) == dec.in_extended_range(NodeId(v), s)
            });
        let untouched = self
            .changed
            .iter()
            .all(|&(p, q)| !(dec.in_extended_range(p, s) && dec.in_extended_range(q, s)));
        if !(same_members && untouched) {
            return None;
        }
        let at = self.old.scale_covers.binary_search_by_key(&s, |&(scale, _)| scale).ok()?;
        Some(self.old.scale_covers.remove(at).1)
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
    use graphkit::Tree;
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
}
