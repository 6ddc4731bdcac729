//! Thread-count independence of the parallel construction pipeline:
//! every phase merges its chunks in deterministic order, so a build
//! under any `set_max_threads` cap is bit-identical to the sequential
//! one — same per-node storage breakdowns, same diagnostics, same
//! routed walks.
//!
//! `set_max_threads` is process-global, so this lives in its own
//! integration-test binary and runs as a single test function.

use graphkit::gen::Family;
use graphkit::metrics::set_max_threads;
use routing_core::{Scheme, SchemeParams};
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

#[test]
fn builds_are_bit_identical_at_any_thread_count() {
    // 1 vs 4 vs 7: single-chunk, even split, and a count that leaves a
    // ragged final chunk (the merge-order edge case).
    for fam in [Family::Geometric, Family::ExpRing, Family::PrefAttach] {
        let g = fam.generate(140, 0x5eed);
        for k in [2usize, 3] {
            let params = SchemeParams::new(k, 0x5eed);
            set_max_threads(1);
            let seq = Scheme::build_on_demand(g.clone(), params);
            for threads in [4usize, 7] {
                set_max_threads(threads);
                let par = Scheme::build_on_demand(g.clone(), params);
                assert_identical(&seq, &par, &format!("{} k={k} x{threads}", fam.label()));
            }
            set_max_threads(0);
        }
    }
}
