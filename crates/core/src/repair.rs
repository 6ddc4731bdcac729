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
//! * **center trees** — a tree `T(c)` is reused iff `c` was a center
//!   before, its member list `(v, d(v, c))` is unchanged, and every
//!   changed edge sits strictly outside the tree's Dijkstra radius
//!   `R(c)` on both the old and new graph
//!   (`prox(c) > R(c)`, where `prox` is the distance from `c` to the
//!   nearest changed-edge endpoint). Under those conditions the
//!   bounded run never relaxes a changed edge, so the fresh tree —
//!   and its Lemma 4 scheme, seeded by `c` alone — is bit-identical
//!   to the stored one;
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
//! a wrong patch: a scheme without retained
//! [`crate::SchemeParams::repairable`] state, or a delta batch after
//! which the seeded hierarchy re-verification picks a different
//! landmark set — each runs the assembler with no prior (a full
//! rebuild) and says so. A batch that leaves the graph
//! disconnected is *deferred*: the scheme is left untouched (stale),
//! and the caller accumulates deltas until connectivity returns —
//! `core::churn` leans on this for node-leave/join epochs.

use std::collections::HashMap;

use decomposition::Decomposition;
use graphkit::bits::bits_for_node;
use graphkit::{
    apply_deltas, delta_impact, dijkstra, Cost, DeltaImpact, GraphDelta, NodeId, INFINITY,
};

use treeroute::cover_router::CoverScale;

use crate::scheme::{index_and_bits, LevelPlan, Parts, RepairState, Scheme};

/// Why repair declined to patch and rebuilt the scheme from scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// The scheme carries no repair state — built without
    /// [`crate::SchemeParams::repairable`] or loaded from a snapshot (which
    /// never serializes it). The rebuild turns `repairable` on, so
    /// subsequent repairs are incremental.
    NotPrepared,
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
    /// fresh build on the mutated graph.
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
        // Rebuilds keep (or gain) repair state so the *next* repair
        // can be incremental.
        let mut params = self.params;
        params.repairable = true;
        let parts = Parts::compute(&g2, &params);
        let state = match self.repair_state.take() {
            Some(state) if parts.hier.levels() == self.hier.levels() => state,
            state => {
                let reason = match state {
                    None => RebuildReason::NotPrepared,
                    Some(_) => RebuildReason::HierarchyChanged,
                };
                *self = Scheme::assemble(g2, params, parts, None).0;
                return RepairOutcome::RebuiltFull { reason, seconds: t0.elapsed().as_secs_f64() };
            }
        };
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
        let prior = Prior { old: self, state, impact, changed };
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
    state: RepairState,
    impact: DeltaImpact,
    /// Distinct changed edges as ordered endpoint pairs, ascending.
    changed: Vec<(NodeId, NodeId)>,
}

/// What the kept center trees bring to the new scheme.
#[derive(Default)]
pub(crate) struct Carried {
    /// The kept trees' records, moved out of the old store.
    pub(crate) records: Vec<(u32, Box<[u8]>)>,
    /// Per-node landmark bits of the kept trees (empty: none).
    pub(crate) landmark_bits: Vec<u64>,
    /// Largest routing label per kept tree.
    pub(crate) labels: HashMap<u32, u64>,
}

impl Prior<'_> {
    /// Center-tree rule: `T(c)` is kept iff `c` was a center with the
    /// same member list, and every changed edge lies strictly outside
    /// the tree's radius on both graphs.
    pub(crate) fn keeps_tree(&self, c: u32, mem: &[(u32, Cost)]) -> bool {
        let same_members = self
            .state
            .centers
            .binary_search(&c)
            .is_ok_and(|oci| self.state.members.members(oci) == mem);
        same_members && {
            let r = mem.iter().map(|&(_, d)| d).max().unwrap_or(0);
            self.impact.old_prox[c as usize] > r && self.impact.new_prox[c as usize] > r
        }
    }

    /// Carry the kept trees over: the stored record of an identical tree
    /// is the fresh encoding, so each kept record moves out of the old
    /// store as bytes (that store is about to be replaced, so repair
    /// holds no tree twice). The old storage accounting carries over
    /// minus every tree the repair retires — a center gone, or rebuilt
    /// — read off its old record. `kept` is aligned with the new
    /// `centers`. Counts the centers added and removed.
    pub(crate) fn carry_trees(
        &mut self,
        centers: &[u32],
        kept: &[bool],
        report: &mut RepairReport,
    ) -> Carried {
        let id_bits = bits_for_node(self.old.g.n());
        let mut landmark_bits = std::mem::take(&mut self.old.landmark_bits);
        let mut labels = std::mem::take(&mut self.state.center_labels);
        let mut records = Vec::new();
        for &c in &self.state.centers {
            let now = centers.binary_search(&c);
            if now.is_ok_and(|ci| kept[ci]) {
                // A kept record that can no longer be read is dropped:
                // routes through that center fall through to their next
                // level (degraded delivery, no panic).
                if let Ok(bytes) = self.old.center_store.take_record(c) {
                    records.push((c, bytes));
                }
                continue;
            }
            report.centers_removed += usize::from(now.is_err());
            // An unreadable old record leaves that center's old bits in
            // place: the storage stats over-count (conservative),
            // routing is unaffected.
            if let Ok((_, bits, _)) =
                self.old.center_store.with_tree(c, |t| index_and_bits(t, id_bits))
            {
                for (gid, b) in bits {
                    landmark_bits[gid as usize] -= b;
                }
            }
            labels.remove(&c);
        }
        report.centers_added =
            centers.iter().filter(|c| self.state.centers.binary_search(c).is_err()).count();
        Carried { records, landmark_bits, labels }
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
