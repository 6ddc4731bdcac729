//! Property-based tests over the whole pipeline: random graphs and
//! parameters in, paper invariants out. These complement the per-crate
//! proptest suites by crossing crate boundaries.

use compact_routing::prelude::*;
use graphkit::metrics::apsp;
use proptest::prelude::*;

/// Strategy: a connected random graph (tree backbone + extra edges)
/// with 10–60 nodes and weights 1..=2^w for w ≤ 20.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (10usize..60, 0u32..20, any::<u64>(), 0.0f64..0.15).prop_map(|(n, wexp, seed, p)| {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        // lint:allow(no-raw-octave-shift): wexp < 20 by the strategy range above, so the shift cannot overflow
        let dist = graphkit::gen::WeightDist::UniformInt { lo: 1, hi: 1u64 << wexp };
        graphkit::gen::erdos_renyi(n, p, dist, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The scheme delivers every message on every random graph, along
    /// physically valid walks, with bounded stretch.
    #[test]
    fn scheme_always_delivers(g in arb_graph(), k in 1usize..4, seed in any::<u64>()) {
        let d = apsp(&g);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, seed));
        let stats = evaluate(&g, &d, &scheme, &pairs::all(g.n()));
        prop_assert_eq!(stats.failures, 0);
        prop_assert!(stats.max_stretch <= (12 * k.max(2)) as f64,
            "stretch {} at k={}", stats.max_stretch, k);
    }

    /// Decomposition invariants hold on arbitrary graphs: monotone
    /// ranges, |R(u)| = O(k), Lemma 2 everywhere.
    #[test]
    fn decomposition_invariants(g in arb_graph(), k in 1usize..5) {
        let d = apsp(&g);
        let dec = decomposition::Decomposition::build(&d, k);
        for v in 0..g.n() as u32 {
            let v = NodeId(v);
            prop_assert_eq!(dec.a(v, 0), 0);
            for i in 0..k {
                prop_assert!(dec.a(v, i) <= dec.a(v, i + 1));
            }
            prop_assert!(dec.extended_range_set(v).len() <= 6 * (k + 1));
        }
        let rep = decomposition::verify_lemma2(&d, &dec);
        prop_assert_eq!(rep.violations, 0);
    }

    /// Cover invariants hold on arbitrary graphs and radii.
    #[test]
    fn cover_invariants(g in arb_graph(), k in 1usize..4, rho_shift in 0u32..6) {
        let d = apsp(&g);
        let rho = (d.diameter() >> rho_shift).max(1);
        let cover = covers::build_cover(&g, k, rho);
        let rep = covers::verify_cover(&g, &cover);
        prop_assert!(rep.ok(),
            "cover violated: {:?} (rho={}, k={})", rep, rho, k);
    }

    /// The trivial baseline is exact on arbitrary graphs — validating
    /// the simulator's ground truth path reconstruction.
    #[test]
    fn trivial_tables_exact(g in arb_graph()) {
        let d = apsp(&g);
        let r = ShortestPathTables::build(g.clone());
        let stats = evaluate(&g, &d, &r, &pairs::all(g.n()));
        prop_assert!(stats.max_stretch <= 1.0 + 1e-12);
    }
}
