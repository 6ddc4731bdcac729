//! Seed robustness: the guarantees must hold for *every* random seed,
//! not just the ones the other tests happen to use — the construction
//! verifies its randomized pieces (hierarchy, hashes) per instance, so
//! a bad draw must be repaired internally, never surfaced.

use compact_routing::prelude::*;
use graphkit::metrics::apsp;

#[test]
fn ten_seeds_geometric() {
    let g = Family::Geometric.generate(90, 0x5EED);
    let d = apsp(&g);
    let workload = pairs::all(g.n());
    for seed in 0..10u64 {
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, seed));
        assert_eq!(scheme.stats().lemma3_violations, 0, "seed {seed}");
        let stats = evaluate(&g, &d, &scheme, &workload);
        assert_eq!(stats.failures, 0, "seed {seed}");
        assert!(stats.max_stretch <= 36.0, "seed {seed}: {}", stats.max_stretch);
    }
}

#[test]
fn ten_seeds_exp_ring() {
    let g = Family::ExpRing.generate(60, 0x5EED);
    let d = apsp(&g);
    let workload = pairs::all(g.n());
    for seed in 100..110u64 {
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, seed));
        let stats = evaluate(&g, &d, &scheme, &workload);
        assert_eq!(stats.failures, 0, "seed {seed}");
        assert!(stats.max_stretch <= 24.0, "seed {seed}: {}", stats.max_stretch);
    }
}

#[test]
fn seeds_change_structure_not_guarantees() {
    // Different seeds give genuinely different hierarchies (the sanity
    // check that the seed is actually threaded through) while both
    // deliver everything.
    let g = Family::ErdosRenyi.generate(80, 0x5EED);
    let a = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 1));
    let b = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 2));
    let differs = pairs::sample(g.n(), 200, 9).iter().any(|&(s, t)| a.route(s, t) != b.route(s, t));
    assert!(differs, "two seeds produced identical routing — seed unused?");
}
