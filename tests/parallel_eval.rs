//! The parallel evaluation engine's contract on the tier-1 workloads:
//! `evaluate_parallel` must be bit-identical to sequential `evaluate`
//! for the real scheme and the baselines, with dense and on-demand
//! ground truth, at any thread count.

use compact_routing::prelude::*;
use graphkit::metrics::apsp;

fn assert_identical(a: &StretchStats, b: &StretchStats, ctx: &str) {
    assert_eq!(a.pairs, b.pairs, "{ctx}: pairs");
    assert_eq!(a.failures, b.failures, "{ctx}: failures");
    assert_eq!(a.max_stretch.to_bits(), b.max_stretch.to_bits(), "{ctx}: max");
    assert_eq!(a.mean_stretch.to_bits(), b.mean_stretch.to_bits(), "{ctx}: mean");
    assert_eq!(a.p50_stretch.to_bits(), b.p50_stretch.to_bits(), "{ctx}: p50");
    assert_eq!(a.p99_stretch.to_bits(), b.p99_stretch.to_bits(), "{ctx}: p99");
    assert_eq!(a.mean_hops.to_bits(), b.mean_hops.to_bits(), "{ctx}: hops");
}

#[test]
fn scheme_parallel_eval_bit_identical_across_families() {
    for (fam, n) in [(Family::Geometric, 100), (Family::ExpRing, 64)] {
        let g = fam.generate(n, 0xE0);
        let d = apsp(&g);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 0xE0));
        let workload = pairs::all(g.n());
        let seq = evaluate(&g, &d, &scheme, &workload);
        for threads in [1, 2, 5, 16] {
            let par = evaluate_parallel(&g, &d, &scheme, &workload, threads);
            assert_identical(&seq, &par, &format!("{} threads={threads}", fam.label()));
        }
        // On-demand truth: same bits without the dense matrix.
        let mut truth = OnDemandTruth::with_capacity(&g, 8);
        truth.prefetch_pairs(&workload, 3);
        let lazy = evaluate_parallel(&g, &truth, &scheme, &workload, 3);
        assert_identical(&seq, &lazy, &format!("{} ondemand", fam.label()));
    }
}

#[test]
fn baseline_parallel_eval_bit_identical() {
    let g = Family::ErdosRenyi.generate(90, 0xE1);
    let d = apsp(&g);
    let workload = pairs::sample(g.n(), 1500, 0xE1);
    let routers: Vec<Box<dyn Router + Sync>> = vec![
        Box::new(ShortestPathTables::build(g.clone())),
        Box::new(HierarchicalScheme::build(g.clone(), 2, 0xE1)),
        Box::new(LandmarkChaining::build_with_matrix(g.clone(), &d, 2, 0xE1)),
        Box::new(TzLabeled::build_with_matrix(g.clone(), &d, 2, 0xE1)),
    ];
    for r in routers {
        let seq = evaluate(&g, &d, r.as_ref(), &workload);
        let par = evaluate_parallel(&g, &d, r.as_ref(), &workload, 4);
        assert_identical(&seq, &par, r.name());
    }
}

#[test]
fn lenient_parallel_eval_bit_identical_on_ablation() {
    // The ablation configuration that actually produces failures: the
    // lenient engines must agree on those too.
    let g = Family::ExpRing.generate(64, 0xE2);
    let d = apsp(&g);
    let params = SchemeParams::new(3, 0xE2).with_force_mode(ForceMode::AllDense);
    let scheme = Scheme::build_on_demand(g.clone(), params);
    let workload = pairs::all(g.n());
    let seq = evaluate_lenient(&g, &d, &scheme, &workload);
    let par = evaluate_parallel_lenient(&g, &d, &scheme, &workload, 3);
    assert_identical(&seq, &par, "all-dense ablation");
    assert!(seq.failures > 0, "ablation should fail deliveries on exp-ring");
}
