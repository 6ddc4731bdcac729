//! Repair ≡ rebuild, bit for bit: after any delta batch,
//! `Scheme::repair` must leave the scheme indistinguishable — routed
//! paths, costs, per-node storage accounting, and every saved snapshot
//! section but META — from a scheme built from scratch on the mutated
//! graph. This is the load-bearing guarantee behind `core::churn`
//! (CLAIMS.md "incremental repair").

use std::sync::atomic::{AtomicU64, Ordering};

use graphkit::gen::Family;
use graphkit::wire::SnapshotReader;
use graphkit::{apply_deltas, dijkstra, Graph, GraphDelta, NodeId, INFINITY};
use routing_core::{RepairOutcome, Scheme, SchemeParams};
use sim::{pairs, Router};

/// Every snapshot section but META (id 1): META holds the phase
/// timings and, after a repair, Lemma 3 counts over only the pairs the
/// repair re-verified, so it legitimately differs.
const SECTIONS: [(u32, &str); 8] = [
    (2, "GRAPH"),
    (3, "DECOMPOSITION"),
    (4, "HIERARCHY"),
    (5, "PLANS"),
    (6, "LANDMARK_BITS"),
    (7, "CENTER_DIR"),
    (8, "CENTER_TREES"),
    (9, "SCALE_COVERS"),
];

static SEQ: AtomicU64 = AtomicU64::new(0);

/// The compared sections of `scheme`'s snapshot, in [`SECTIONS`] order.
fn saved_sections(scheme: &Scheme) -> Vec<Vec<u8>> {
    let seq = SEQ.fetch_add(1, Ordering::SeqCst);
    let path =
        std::env::temp_dir().join(format!("agm-repair-parity-{}-{seq}.bin", std::process::id()));
    scheme.save(&path).expect("save");
    let sr = SnapshotReader::open(&path).expect("open snapshot");
    let sections = SECTIONS.iter().map(|&(id, _)| sr.section(id).expect("section")).collect();
    let _ = std::fs::remove_file(&path);
    sections
}

fn connected(g: &Graph) -> bool {
    dijkstra(g, NodeId(0)).dist.iter().all(|&x| x != INFINITY)
}

/// A deterministic, connectivity-preserving, *localized* delta mix:
/// starting at edge index `start` (wrapping), fail up to `fails`
/// edges (skipping any whose removal would disconnect) and nudge the
/// weights of the next `nudges` edges by ±1. Consecutive edges in
/// `all_edges` order share endpoints, so the whole batch perturbs one
/// neighborhood — trees rooted far from it must survive repair.
fn delta_mix(g: &Graph, fails: usize, nudges: usize, start: usize) -> Vec<GraphDelta> {
    let edges: Vec<_> = g.all_edges().collect();
    let mut deltas = Vec::new();
    let mut failed = 0;
    let mut nudged = 0;
    for j in 0..edges.len() {
        let (u, v, w) = edges[(start + j) % edges.len()];
        if failed < fails {
            let mut trial = deltas.clone();
            trial.push(GraphDelta::EdgeFail { u, v });
            if connected(&apply_deltas(g, &trial)) {
                deltas = trial;
                failed += 1;
            }
        } else if nudged < nudges {
            // ±1 only: a large decrease shortens paths graph-wide and
            // would dirty every node, leaving nothing to reuse.
            let w2 = if nudged % 2 == 0 { w + 1 } else { w.saturating_sub(1).max(1) };
            if w2 != w {
                deltas.push(GraphDelta::SetWeight { u, v, w: w2 });
                nudged += 1;
            }
        } else {
            break;
        }
    }
    deltas
}

/// Every restore for the `EdgeFail`s inside `deltas`, at fresh weights.
fn restores(g: &Graph, deltas: &[GraphDelta]) -> Vec<GraphDelta> {
    deltas
        .iter()
        .filter_map(|d| match *d {
            GraphDelta::EdgeFail { u, v } => {
                let w = g.edge_weight(u, v).expect("failed edge existed");
                Some(GraphDelta::EdgeRestore { u, v, w: w + 3 })
            }
            _ => None,
        })
        .collect()
}

fn assert_same_scheme(label: &str, got: &Scheme, want: &Scheme, n: usize, pair_seed: u64) {
    for v in (0..n as u32).map(NodeId) {
        assert_eq!(got.storage_bits(v), want.storage_bits(v), "{label}: storage at {v}");
    }
    assert_eq!(got.header_bits_bound(), want.header_bits_bound(), "{label}: header bound");
    let gs = got.stats();
    let ws = want.stats();
    assert_eq!(gs.num_center_trees, ws.num_center_trees, "{label}: center trees");
    assert_eq!(gs.total_members, ws.total_members, "{label}: members");
    assert_eq!(gs.num_scales, ws.num_scales, "{label}: scales");
    assert_eq!(gs.num_cover_trees, ws.num_cover_trees, "{label}: cover trees");
    assert_eq!(gs.s_budgets, ws.s_budgets, "{label}: S budgets");
    // Every plan's source index, every center record, every cover
    // store and the landmark bits — what sampled routes can miss.
    for ((got, want), (_, name)) in
        saved_sections(got).iter().zip(saved_sections(want)).zip(SECTIONS)
    {
        assert!(*got == want, "{label}: snapshot section {name} differs");
    }
    for (s, t) in pairs::sample(n, 250, pair_seed) {
        let ta = got.route(s, t);
        let tb = want.route(s, t);
        assert_eq!(
            (ta.delivered, ta.cost, &ta.path),
            (tb.delivered, tb.cost, &tb.path),
            "{label}: {s}->{t}"
        );
    }
}

/// Family × k, two repair rounds each (fail+reweigh, then
/// restore+reweigh) — every round compared against a from-scratch
/// build of the mutated graph.
#[test]
fn repair_matches_fresh_build_bit_for_bit() {
    // Reuse is only demanded where the topology has locality: in the
    // small-world pref-attach family a single hub-adjacent edge dirties
    // nearly every distance vector, and a full rebuild is the *correct*
    // repair — parity still must hold there.
    for (fam, expect_reuse) in
        [(Family::Geometric, true), (Family::ExpRing, true), (Family::PrefAttach, false)]
    {
        let g0 = fam.generate(110, 0x9E9A);
        for k in [1usize, 2, 3] {
            let label = format!("{} k={k}", fam.label());
            let params = SchemeParams::new(k, 0x9E9A).with_repair();
            let mut scheme = Scheme::build_on_demand(g0.clone(), params);

            let m = g0.m();
            let batch1 = delta_mix(&g0, 2, 3, m / 2);
            assert!(!batch1.is_empty(), "{label}: empty first batch");
            let g1 = apply_deltas(&g0, &batch1);
            match scheme.repair(&batch1) {
                RepairOutcome::Repaired(r) => {
                    // k = 1 is the degenerate full-table regime: every
                    // level-0 tree spans (nearly) all of V, so any dirty
                    // node forces a near-total rebuild. Reuse is only a
                    // meaningful guarantee at k >= 2 (sublinear trees).
                    assert!(
                        k == 1 || !expect_reuse || r.trees_reused > 0,
                        "{label}: no trees reused ({r:?})"
                    );
                }
                other => panic!("{label}: round 1 not Repaired: {other:?}"),
            }
            let fresh1 = Scheme::build_on_demand(g1.clone(), params);
            assert_same_scheme(&label, &scheme, &fresh1, g1.n(), 0x9E9B);

            let mut batch2 = restores(&g0, &batch1);
            let touched: Vec<_> = batch2.iter().map(|d| d.endpoints()).collect();
            batch2.extend(delta_mix(&g1, 0, 3, m / 3).into_iter().filter(|d| {
                matches!(d, GraphDelta::SetWeight { .. }) && !touched.contains(&d.endpoints())
            }));
            let g2 = apply_deltas(&g1, &batch2);
            match scheme.repair(&batch2) {
                RepairOutcome::Repaired(r) => {
                    assert!(
                        k == 1 || !expect_reuse || r.trees_reused > 0,
                        "{label}: round 2 no trees reused"
                    )
                }
                other => panic!("{label}: round 2 not Repaired: {other:?}"),
            }
            let fresh2 = Scheme::build_on_demand(g2.clone(), params);
            assert_same_scheme(&label, &scheme, &fresh2, g2.n(), 0x9E9C);
        }
    }
}

/// An empty batch is a no-op that reuses everything.
#[test]
fn empty_batch_reuses_everything() {
    let g = Family::Geometric.generate(100, 0xE0);
    let mut scheme = Scheme::build_on_demand(g, SchemeParams::new(2, 0xE0).with_repair());
    let trees = scheme.stats().num_center_trees;
    match scheme.repair(&[]) {
        RepairOutcome::Repaired(r) => {
            assert_eq!(r.trees_reused, trees);
            assert_eq!(r.trees_rebuilt, 0);
            assert_eq!(r.dirty_nodes, 0);
        }
        other => panic!("empty batch: {other:?}"),
    }
}

/// Without retained repair state the first repair falls back to a full
/// rebuild — and flips `repairable` on, so the next one is incremental.
#[test]
fn unprepared_scheme_rebuilds_then_repairs() {
    let g0 = Family::PrefAttach.generate(100, 0xE1);
    let mut scheme = Scheme::build_on_demand(g0.clone(), SchemeParams::new(2, 0xE1));
    let batch1 = delta_mix(&g0, 3, 4, g0.m() / 2);
    let g1 = apply_deltas(&g0, &batch1);
    match scheme.repair(&batch1) {
        RepairOutcome::RebuiltFull { reason, .. } => {
            assert_eq!(reason, routing_core::RebuildReason::NotPrepared)
        }
        other => panic!("expected NotPrepared rebuild, got {other:?}"),
    }
    let batch2 = restores(&g0, &batch1);
    let g2 = apply_deltas(&g1, &batch2);
    assert!(matches!(scheme.repair(&batch2), RepairOutcome::Repaired(_)));
    let fresh = Scheme::build_on_demand(g2.clone(), SchemeParams::new(2, 0xE1).with_repair());
    assert_same_scheme("unprepared-then-repair", &scheme, &fresh, g2.n(), 0xE2);
}

/// A batch that disconnects the graph is deferred: the scheme stays
/// exactly as it was (stale but self-consistent), and repairing again
/// with the accumulated batch — once connectivity is back — succeeds.
#[test]
fn disconnecting_batch_defers_until_connectivity_returns() {
    let g0 = Family::Geometric.generate(100, 0xE3);
    let params = SchemeParams::new(2, 0xE3).with_repair();
    let mut scheme = Scheme::build_on_demand(g0.clone(), params);

    // Isolate node 0: fail every incident edge.
    let mut pending: Vec<GraphDelta> = g0
        .all_edges()
        .filter(|&(u, v, _)| u == NodeId(0) || v == NodeId(0))
        .map(|(u, v, _)| GraphDelta::EdgeFail { u, v })
        .collect();
    assert!(!pending.is_empty());
    let before: Vec<_> =
        pairs::sample(g0.n(), 100, 0xE4).iter().map(|&(s, t)| scheme.route(s, t)).collect();
    assert!(matches!(
        scheme.repair(&pending),
        RepairOutcome::Deferred { reason: routing_core::DeferReason::Disconnected }
    ));
    // Untouched: identical routes on the (stale) structures.
    for (&(s, t), old) in pairs::sample(g0.n(), 100, 0xE4).iter().zip(&before) {
        assert_eq!(&scheme.route(s, t), old, "{s}->{t} changed under Deferred");
    }

    // Reconnect node 0 by restoring one failed edge; repair the
    // accumulated batch and compare against a fresh build.
    let (u, v) = pending[0].endpoints();
    let w = g0.edge_weight(u, v).expect("edge existed") + 1;
    pending.push(GraphDelta::EdgeRestore { u, v, w });
    let g2 = apply_deltas(&g0, &pending);
    assert!(connected(&g2));
    match scheme.repair(&pending) {
        RepairOutcome::Repaired(_) => {}
        other => panic!("accumulated repair: {other:?}"),
    }
    let fresh = Scheme::build_on_demand(g2.clone(), params);
    assert_same_scheme("defer-then-repair", &scheme, &fresh, g2.n(), 0xE5);
}
