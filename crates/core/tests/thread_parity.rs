//! Thread-count independence of the parallel construction pipeline:
//! every phase merges its chunks in deterministic order, so a build
//! under any `set_max_threads` cap is bit-identical to the sequential
//! one — same per-node storage breakdowns, same diagnostics, same
//! routed walks. A repair runs the same assembler plus two passes of
//! its own (the tree-reuse check and the kept-record index), so it is
//! held to the same standard.
//!
//! `set_max_threads` is process-global, so this lives in its own
//! integration-test binary and runs as a single test function.

use graphkit::gen::Family;
use graphkit::metrics::set_max_threads;
use graphkit::{apply_deltas, dijkstra, Graph, GraphDelta, NodeId, INFINITY};
use routing_core::{RepairOutcome, RepairReport, Scheme, SchemeParams};
use sim::{pairs, Router};

fn assert_identical(a: &Scheme, b: &Scheme, label: &str) {
    let n = a.graph().n();
    assert_eq!(a.stats().s_budgets, b.stats().s_budgets, "{label}: budgets");
    assert_eq!(a.stats().lemma3_checked, b.stats().lemma3_checked, "{label}: checked");
    assert_eq!(a.stats().lemma3_violations, b.stats().lemma3_violations, "{label}: violations");
    assert_eq!(a.stats().num_center_trees, b.stats().num_center_trees, "{label}: trees");
    assert_eq!(a.stats().total_members, b.stats().total_members, "{label}: members");
    assert_eq!(a.stats().num_cover_trees, b.stats().num_cover_trees, "{label}: covers");
    for v in a.graph().nodes() {
        let x = a.storage_breakdown(v);
        let y = b.storage_breakdown(v);
        assert_eq!(x.plans_bits, y.plans_bits, "{label}: plans bits at {v}");
        assert_eq!(x.landmark_bits, y.landmark_bits, "{label}: landmark bits at {v}");
        assert_eq!(x.cover_bits, y.cover_bits, "{label}: cover bits at {v}");
    }
    assert_eq!(a.header_bits_bound(), b.header_bits_bound(), "{label}: headers");
    for (s, t) in pairs::sample(n, 250, 0x7E57) {
        let ta = a.route(s, t);
        let tb = b.route(s, t);
        assert_eq!(ta.delivered, tb.delivered, "{label}: {s}->{t}");
        assert_eq!(ta.cost, tb.cost, "{label}: {s}->{t}");
        assert_eq!(ta.path, tb.path, "{label}: {s}->{t}");
    }
}

/// A localized, connectivity-safe batch in the style of
/// `repair_parity.rs`'s `delta_mix`: from edge m/2 on, fail the first
/// edge whose loss keeps the graph connected, then nudge the weights of
/// the next three edges by +1.
fn delta_batch(g: &Graph) -> Vec<GraphDelta> {
    let edges: Vec<_> = g.all_edges().collect();
    let m = edges.len();
    let connected =
        |d: &[GraphDelta]| !dijkstra(&apply_deltas(g, d), NodeId(0)).dist.contains(&INFINITY);
    let at = (m / 2..m / 2 + m)
        .find(|&j| {
            let (u, v, _) = edges[j % m];
            connected(&[GraphDelta::EdgeFail { u, v }])
        })
        .expect("an edge whose loss keeps the graph connected");
    let (u, v, _) = edges[at % m];
    let mut batch = vec![GraphDelta::EdgeFail { u, v }];
    for j in at + 1..at + 4 {
        let (u, v, w) = edges[j % m];
        batch.push(GraphDelta::SetWeight { u, v, w: w + 1 });
    }
    batch
}

/// Every count a repair reports (all but its wall-clock seconds).
fn counts(r: &RepairReport) -> [usize; 10] {
    [
        r.changed_edges,
        r.dirty_nodes,
        r.centers_total,
        r.trees_rebuilt,
        r.trees_reused,
        r.centers_added,
        r.centers_removed,
        r.scales_rebuilt,
        r.scales_reused,
        r.b_recomputed,
    ]
}

#[test]
fn builds_are_bit_identical_at_any_thread_count() {
    // 1 vs 4 vs 7: single-chunk, even split, and a count that leaves a
    // ragged final chunk (the merge-order edge case).
    let mut reused = 0;
    for fam in [Family::Geometric, Family::ExpRing, Family::PrefAttach] {
        let g = fam.generate(140, 0x5eed);
        let batch = delta_batch(&g);
        for k in [2usize, 3] {
            let params = SchemeParams::new(k, 0x5eed);
            let mut built = Vec::new();
            for threads in [1usize, 4, 7] {
                set_max_threads(threads);
                built.push((threads, Scheme::build_on_demand(g.clone(), params)));
            }
            for (threads, par) in &built[1..] {
                assert_identical(&built[0].1, par, &format!("{} k={k} x{threads}", fam.label()));
            }
            // Repair every build at the cap it was built at.
            let mut runs = Vec::new();
            for (threads, mut scheme) in built {
                set_max_threads(threads);
                let report = match scheme.repair(&batch) {
                    RepairOutcome::Repaired(r) => r,
                    other => panic!("{} k={k} x{threads}: not Repaired: {other:?}", fam.label()),
                };
                runs.push((threads, scheme, counts(&report)));
            }
            set_max_threads(0);
            let (_, seq, seq_counts) = &runs[0];
            for (threads, par, par_counts) in &runs[1..] {
                let label = format!("{} k={k} repaired x{threads}", fam.label());
                assert_identical(seq, par, &label);
                assert_eq!(seq_counts, par_counts, "{label}: repair report");
            }
            reused += seq_counts[4];
        }
    }
    // The reuse check and the kept-record index ran on real work.
    assert!(reused > 0, "no repair reused a tree");
}
