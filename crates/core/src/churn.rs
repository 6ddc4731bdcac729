//! Churn workloads: a deterministic, seeded schedule of graph
//! mutations (edge failures/restores, weight changes, node
//! leave/join) applied between serve/evaluate batches, plus the epoch
//! driver that measures how the scheme degrades while stale and
//! recovers through [`Scheme::repair`].
//!
//! ## Epoch protocol
//!
//! Each epoch: **mutate → measure stale → repair → measure repaired.**
//!
//! 1. the epoch's [`GraphDelta`] batch is applied to the live graph
//!    `G_now` (the driver owns it; the builder's canonicalisation
//!    makes `G_now` identical to the graph the scheme holds after a
//!    successful repair);
//! 2. the *stale* scheme — still answering from its pre-mutation
//!    structures — is measured by replaying its paths on `G_now`
//!    ([`sim::ReplayRouter`]): paths crossing a failed edge truncate
//!    to undelivered, surviving paths are re-costed at current
//!    weights, and pairs with no finite baseline count as failures
//!    (the lenient evaluator's churn guard);
//! 3. [`Scheme::repair`] is called with every delta accumulated since
//!    the last successful repair. While a node is departed the graph
//!    is disconnected, repair defers, and the batch keeps
//!    accumulating — the stale measurements in those epochs are the
//!    interesting data;
//! 4. if repair succeeded (incrementally or by documented fallback),
//!    the repaired scheme is measured on the same workload.
//!
//! Node semantics are edge-backed: *leave* fails every live edge at
//! the node (isolating it — the paper's scheme is defined on
//! connected graphs, so repair defers until the member set is whole
//! again), *join* restores the still-failed incident edges whose
//! other endpoint is alive. Node 0 never leaves: it anchors the
//! connectivity probe and keeps "everyone else left and came back"
//! schedules meaningful.

use std::collections::BTreeMap;

use graphkit::{
    apply_deltas, dijkstra, Graph, GraphDelta, NodeId, OnDemandTruth, Weight, INFINITY,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim::{evaluate_parallel_lenient, pairs, ReplayRouter, StretchStats};

use crate::repair::RepairOutcome;
use crate::scheme::{Scheme, SchemeParams};

/// Per-epoch event quotas for the seeded schedule. Quotas are
/// *attempts*: an event that would violate `keep_connected`, or has
/// no eligible target (nothing failed to restore, nobody departed to
/// rejoin), is skipped and counted.
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Schedule RNG seed (the workload seed is derived per epoch).
    pub seed: u64,
    /// Number of mutate→repair epochs.
    pub epochs: usize,
    /// Live edges to fail per epoch.
    pub edge_fails: usize,
    /// Previously-failed edges to restore per epoch (at a freshly
    /// drawn weight — a restored link rarely comes back identical).
    pub edge_restores: usize,
    /// Live edges whose weight is re-drawn per epoch.
    pub weight_changes: usize,
    /// Nodes departing per epoch (all live incident edges fail).
    pub node_leaves: usize,
    /// Departed nodes rejoining per epoch (FIFO).
    pub node_joins: usize,
    /// Skip any event that would disconnect the *live* part of the
    /// graph (departed nodes are expected islands), so an edge-only
    /// schedule can repair every epoch.
    pub keep_connected: bool,
}

impl ChurnConfig {
    /// An edge-only schedule (no membership churn): every epoch stays
    /// connected, so every epoch repairs incrementally.
    pub fn edges_only(seed: u64, epochs: usize, fails: usize, reweights: usize) -> Self {
        ChurnConfig {
            seed,
            epochs,
            edge_fails: fails,
            edge_restores: fails.div_ceil(2),
            weight_changes: reweights,
            node_leaves: 0,
            node_joins: 0,
            keep_connected: true,
        }
    }
}

/// One epoch of the schedule: the delta batch plus how it decomposes
/// into events (for tables; the driver only consumes `deltas`).
#[derive(Clone, Debug, Default)]
pub struct EpochPlan {
    /// The batch, in event order.
    pub deltas: Vec<GraphDelta>,
    /// Single-edge failures.
    pub fails: usize,
    /// Restores of previously failed edges.
    pub restores: usize,
    /// Weight re-draws.
    pub reweights: usize,
    /// Node departures (each contributes its degree in failures).
    pub leaves: usize,
    /// Node rejoins (each contributes restores).
    pub joins: usize,
}

/// A fully materialised churn schedule over a starting graph.
#[derive(Clone, Debug)]
pub struct ChurnPlan {
    /// Per-epoch batches.
    pub epochs: Vec<EpochPlan>,
    /// Events skipped because they would have disconnected the live
    /// part (only under [`ChurnConfig::keep_connected`]).
    pub skipped_disconnecting: usize,
}

/// Is the live (non-departed) part of `g` connected? BFS over live
/// nodes from the lowest-id live node; departed islands are ignored.
fn live_connected(g: &Graph, departed: &[bool]) -> bool {
    let n = g.n();
    let Some(root) = (0..n).find(|&v| !departed[v]) else {
        return true;
    };
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([root as u32]);
    seen[root] = true;
    let mut reached = 1;
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(NodeId(u)) {
            if !seen[v as usize] && !departed[v as usize] {
                seen[v as usize] = true;
                reached += 1;
                queue.push_back(v);
            }
        }
    }
    reached == (0..n).filter(|&v| !departed[v]).count()
}

impl ChurnPlan {
    /// Materialise the schedule: a stateful walk over `g0` tracking
    /// live/failed edges and departures, drawing targets from the
    /// seeded RNG. Deterministic in `(g0, cfg)`.
    pub fn generate(g0: &Graph, cfg: &ChurnConfig) -> ChurnPlan {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut g_now = g0.clone();
        // Failed edges remember their last weight only for bookkeeping;
        // restores draw a fresh weight near it.
        let mut failed: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
        let mut departed = vec![false; g0.n()];
        let mut departed_fifo: Vec<u32> = Vec::new();
        let mut skipped = 0usize;
        let mut epochs = Vec::with_capacity(cfg.epochs);

        for _ in 0..cfg.epochs {
            let mut plan = EpochPlan::default();

            // Rejoins first (FIFO): only nodes departed in *earlier*
            // epochs are eligible, bringing back their still-failed
            // incident edges whose other endpoint is alive.
            for _ in 0..cfg.node_joins {
                let Some(&v) = departed_fifo.first() else { break };
                departed_fifo.remove(0);
                departed[v as usize] = false;
                let back: Vec<GraphDelta> = failed
                    .iter()
                    .filter(|(&(a, b), _)| {
                        (a == v || b == v) && !departed[a as usize] && !departed[b as usize]
                    })
                    .map(|(&(a, b), &w)| GraphDelta::EdgeRestore {
                        u: NodeId(a),
                        v: NodeId(b),
                        w: redraw_weight(&mut rng, w),
                    })
                    .collect();
                for d in &back {
                    let (u, vv) = d.endpoints();
                    failed.remove(&(u.0, vv.0));
                }
                g_now = apply_deltas(&g_now, &back);
                plan.deltas.extend(back);
                plan.joins += 1;
            }

            // Departures (after rejoins, so a node is down for at
            // least one full epoch and the deferred-repair path is
            // actually exercised).
            for _ in 0..cfg.node_leaves {
                let candidates: Vec<u32> = (1..g_now.n() as u32)
                    .filter(|&v| !departed[v as usize] && g_now.degree(NodeId(v)) > 0)
                    .collect();
                let Some(&v) = pick(&mut rng, &candidates) else { continue };
                let cut: Vec<(u32, u32, Weight)> =
                    g_now.edges_of(NodeId(v)).map(|(u, w)| (v.min(u.0), v.max(u.0), w)).collect();
                let deltas: Vec<GraphDelta> = cut
                    .iter()
                    .map(|&(a, b, _)| GraphDelta::EdgeFail { u: NodeId(a), v: NodeId(b) })
                    .collect();
                let g_next = apply_deltas(&g_now, &deltas);
                let mut departed_next = departed.clone();
                departed_next[v as usize] = true;
                if cfg.keep_connected && !live_connected(&g_next, &departed_next) {
                    skipped += 1;
                    continue;
                }
                for &(a, b, w) in &cut {
                    failed.insert((a, b), w);
                }
                departed = departed_next;
                departed_fifo.push(v);
                g_now = g_next;
                plan.deltas.extend(deltas);
                plan.leaves += 1;
            }

            // Single-edge failures.
            for _ in 0..cfg.edge_fails {
                let edges: Vec<_> = g_now.all_edges().collect();
                let Some(&(u, v, w)) = pick(&mut rng, &edges) else { continue };
                let delta = GraphDelta::EdgeFail { u, v };
                let g_next = apply_deltas(&g_now, std::slice::from_ref(&delta));
                if cfg.keep_connected && !live_connected(&g_next, &departed) {
                    skipped += 1;
                    continue;
                }
                failed.insert((u.0.min(v.0), u.0.max(v.0)), w);
                g_now = g_next;
                plan.deltas.push(delta);
                plan.fails += 1;
            }

            // Restores of previously failed edges (both endpoints alive).
            for _ in 0..cfg.edge_restores {
                let candidates: Vec<((u32, u32), Weight)> = failed
                    .iter()
                    .filter(|(&(a, b), _)| !departed[a as usize] && !departed[b as usize])
                    .map(|(&e, &w)| (e, w))
                    .collect();
                let Some(&((a, b), w)) = pick(&mut rng, &candidates) else { continue };
                failed.remove(&(a, b));
                let delta = GraphDelta::EdgeRestore {
                    u: NodeId(a),
                    v: NodeId(b),
                    w: redraw_weight(&mut rng, w),
                };
                g_now = apply_deltas(&g_now, std::slice::from_ref(&delta));
                plan.deltas.push(delta);
                plan.restores += 1;
            }

            // Weight re-draws on live edges.
            for _ in 0..cfg.weight_changes {
                let edges: Vec<_> = g_now.all_edges().collect();
                let Some(&(u, v, w)) = pick(&mut rng, &edges) else { continue };
                let w2 = redraw_weight(&mut rng, w);
                if w2 == w {
                    continue;
                }
                let delta = GraphDelta::SetWeight { u, v, w: w2 };
                g_now = apply_deltas(&g_now, std::slice::from_ref(&delta));
                plan.deltas.push(delta);
                plan.reweights += 1;
            }

            epochs.push(plan);
        }
        ChurnPlan { epochs, skipped_disconnecting: skipped }
    }
}

fn pick<'a, T>(rng: &mut SmallRng, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

/// A fresh weight "near" `w`: uniform in `[⌈w/2⌉, 2w]`, clamped to be
/// positive — scale-respecting for both unit-ish and 2⁴⁰-scale
/// weights, and never zero (the scheme requires positive weights).
fn redraw_weight(rng: &mut SmallRng, w: Weight) -> Weight {
    let lo = w.div_ceil(2).max(1);
    let hi = w.saturating_mul(2).max(lo);
    rng.gen_range(lo..=hi)
}

/// One epoch's measurements.
#[derive(Clone, Debug)]
pub struct EpochRow {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Deltas applied this epoch.
    pub batch_deltas: usize,
    /// Deltas outstanding after this epoch's repair attempt (nonzero
    /// only while repair is deferred on a disconnected graph).
    pub pending_deltas: usize,
    /// The stale scheme replayed on the mutated graph.
    pub pre: StretchStats,
    /// What repair did with the accumulated batch.
    pub outcome: RepairOutcome,
    /// The repaired scheme on the same workload (`None` while
    /// deferred).
    pub post: Option<StretchStats>,
}

impl EpochRow {
    /// Delivered fraction of the pre-repair (stale) measurement.
    pub fn pre_delivery_rate(&self) -> f64 {
        delivery_rate(&self.pre)
    }

    /// Delivered fraction after repair, if repair ran.
    pub fn post_delivery_rate(&self) -> Option<f64> {
        self.post.as_ref().map(delivery_rate)
    }
}

fn delivery_rate(s: &StretchStats) -> f64 {
    if s.pairs == 0 {
        return 1.0;
    }
    (s.pairs - s.failures) as f64 / s.pairs as f64
}

/// Drive a scheme through a churn plan: per epoch, mutate the live
/// graph, measure the stale scheme via path replay, repair with every
/// outstanding delta, and (when repair ran) measure the repaired
/// scheme on the same workload. The scheme is built on-demand from
/// `params`; every repair reads what it reuses off the scheme itself.
pub fn run_churn(
    g0: &Graph,
    params: SchemeParams,
    plan: &ChurnPlan,
    pairs_per_epoch: usize,
    workload_seed: u64,
    threads: usize,
) -> Vec<EpochRow> {
    let mut scheme = Scheme::build_on_demand(g0.clone(), params);
    let mut g_now = g0.clone();
    let mut pending: Vec<GraphDelta> = Vec::new();
    let mut rows = Vec::with_capacity(plan.epochs.len());
    for (epoch, ep) in plan.epochs.iter().enumerate() {
        g_now = apply_deltas(&g_now, &ep.deltas);
        pending.extend(ep.deltas.iter().cloned());

        let workload = pairs::sample(g_now.n(), pairs_per_epoch, workload_seed ^ epoch as u64);
        let mut truth = OnDemandTruth::new(&g_now);
        truth.prefetch_pairs(&workload, threads);
        let replay = ReplayRouter::new(&scheme, &g_now);
        let pre = evaluate_parallel_lenient(&g_now, &truth, &replay, &workload, threads);

        let outcome = scheme.repair(&pending);
        let post = if matches!(outcome, RepairOutcome::Deferred { .. }) {
            None
        } else {
            pending.clear();
            debug_assert!(
                dijkstra(&g_now, NodeId(0)).dist.iter().all(|&x| x != INFINITY),
                "repair ran on a disconnected graph"
            );
            Some(evaluate_parallel_lenient(&g_now, &truth, &scheme, &workload, threads))
        };
        rows.push(EpochRow {
            epoch,
            batch_deltas: ep.deltas.len(),
            pending_deltas: pending.len(),
            pre,
            outcome,
            post,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::Family;

    #[test]
    fn plan_is_deterministic_and_connectivity_safe() {
        let g = Family::Geometric.generate(120, 0xC0);
        let cfg = ChurnConfig::edges_only(0xC1, 4, 3, 4);
        let a = ChurnPlan::generate(&g, &cfg);
        let b = ChurnPlan::generate(&g, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.epochs.len(), 4);
        // Replaying the whole schedule keeps the graph connected.
        let mut g_now = g.clone();
        for ep in &a.epochs {
            assert!(!ep.deltas.is_empty());
            g_now = apply_deltas(&g_now, &ep.deltas);
            assert!(dijkstra(&g_now, NodeId(0)).dist.iter().all(|&x| x != INFINITY));
        }
    }

    #[test]
    fn edge_only_churn_repairs_every_epoch() {
        let g = Family::Geometric.generate(130, 0xC2);
        let cfg = ChurnConfig::edges_only(0xC3, 3, 2, 3);
        let plan = ChurnPlan::generate(&g, &cfg);
        let rows = run_churn(&g, SchemeParams::new(2, 0xC2), &plan, 150, 0xC4, 2);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                matches!(row.outcome, RepairOutcome::Repaired(_)),
                "epoch {}: {:?}",
                row.epoch,
                row.outcome
            );
            assert_eq!(row.pending_deltas, 0);
            // The repaired scheme delivers everything (Theorem 1 on the
            // current graph); the stale scheme may drop pairs.
            let post = row.post.as_ref().expect("repair ran");
            assert_eq!(post.failures, 0, "epoch {}", row.epoch);
            assert!(row.pre_delivery_rate() <= 1.0 + 1e-12);
            assert!(post.max_stretch >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn node_leave_defers_until_rejoin() {
        // Hand-crafted two-epoch plan: node 17 leaves (all incident
        // edges fail -> graph disconnected -> repair must defer and
        // the stale scheme serves on), then rejoins at +1 weights.
        let g = Family::Geometric.generate(110, 0xC5);
        let v = NodeId(17);
        let cut: Vec<(u32, u32, graphkit::Weight)> =
            g.edges_of(v).map(|(u, w)| (v.0.min(u.0), v.0.max(u.0), w)).collect();
        assert!(!cut.is_empty());
        let fails: Vec<GraphDelta> = cut
            .iter()
            .map(|&(a, b, _)| GraphDelta::EdgeFail { u: NodeId(a), v: NodeId(b) })
            .collect();
        let backs: Vec<GraphDelta> = cut
            .iter()
            .map(|&(a, b, w)| GraphDelta::EdgeRestore { u: NodeId(a), v: NodeId(b), w: w + 1 })
            .collect();
        let plan = ChurnPlan {
            epochs: vec![
                EpochPlan { deltas: fails, leaves: 1, ..Default::default() },
                EpochPlan { deltas: backs, joins: 1, ..Default::default() },
            ],
            skipped_disconnecting: 0,
        };
        let rows = run_churn(&g, SchemeParams::new(2, 0xC5), &plan, 120, 0xC7, 2);
        assert!(matches!(rows[0].outcome, RepairOutcome::Deferred { .. }));
        assert!(rows[0].post.is_none());
        assert_eq!(rows[0].pending_deltas, rows[0].batch_deltas);
        // Pairs involving the departed node fail; the rest survive on
        // the stale structures (finite aggregates, no panic).
        assert!(rows[0].pre.max_stretch.is_finite());
        assert!(!matches!(rows[1].outcome, RepairOutcome::Deferred { .. }));
        assert_eq!(rows[1].pending_deltas, 0);
        assert_eq!(rows[1].post.as_ref().unwrap().failures, 0);
    }

    #[test]
    fn generated_leave_join_schedules_are_well_formed() {
        // Quota-driven leave/join generation: deltas must stay
        // apply-able in sequence (apply_deltas is strict: double
        // fails, restores of live edges, etc. all panic), joins only
        // target nodes from earlier epochs, and the live part stays
        // connected throughout.
        let g = Family::Geometric.generate(120, 0xC8);
        let cfg = ChurnConfig {
            seed: 0xC9,
            epochs: 5,
            edge_fails: 2,
            edge_restores: 1,
            weight_changes: 2,
            node_leaves: 1,
            node_joins: 1,
            keep_connected: true,
        };
        let plan = ChurnPlan::generate(&g, &cfg);
        let leaves: usize = plan.epochs.iter().map(|e| e.leaves).sum();
        let joins: usize = plan.epochs.iter().map(|e| e.joins).sum();
        assert!(leaves > 0, "schedule never drops a node");
        assert!(joins > 0, "schedule never rejoins a node");
        assert_eq!(plan.epochs[0].joins, 0, "nobody to rejoin in epoch 0");
        let mut g_now = g.clone();
        for ep in &plan.epochs {
            g_now = apply_deltas(&g_now, &ep.deltas); // strict-mode panics would fail here
        }
    }
}
