//! Component parity of the matrix-free construction: the scheme
//! `Scheme::build_on_demand` builds must carry exactly the
//! decomposition and landmark hierarchy the dense references compute
//! from the APSP matrix (`Decomposition::build`,
//! `LandmarkHierarchy::sample_verified`), verify Lemma 3 everywhere,
//! and deliver sampled routes as valid walks within stretch 12k — on
//! random weighted graphs across the aspect-ratio range and on the
//! generator families. The S requirement table, the `E(u, i)` regions
//! and the centers are checked against their matrix definitions in
//! `src/s_requirement_oracle.rs`.

use decomposition::Decomposition;
use graphkit::gen::WeightDist;
use graphkit::metrics::apsp;
use graphkit::{DistMatrix, Graph};
use landmarks::LandmarkHierarchy;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing_core::{Scheme, SchemeParams};
use sim::{pairs, validate_trace, Router};

fn arb_connected() -> impl Strategy<Value = (graphkit::Graph, usize, u64)> {
    (20usize..90, 1usize..4, any::<u64>(), 0u32..30).prop_map(|(n, k, seed, wexp)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Random tree backbone (connected by construction) + extras;
        // power-of-two weights sweep Δ up to 2^30.
        let mut g =
            graphkit::gen::random_tree(n, WeightDist::PowerOfTwo { max_exp: wexp }, &mut rng);
        if n >= 30 {
            g = graphkit::gen::erdos_renyi(
                n,
                0.08,
                WeightDist::PowerOfTwo { max_exp: wexp },
                &mut rng,
            );
        }
        (g, k, seed)
    })
}

/// Build on demand and check the four component properties.
fn check_components(g: &Graph, d: &DistMatrix, params: SchemeParams, pair_seed: u64, tag: &str) {
    let k = params.k;
    let scheme = Scheme::build_on_demand(g.clone(), params);

    let dec = Decomposition::build(d, k);
    let got = scheme.decomposition();
    assert_eq!(got.log_delta(), dec.log_delta(), "{tag}: log Δ");
    for u in g.nodes() {
        for i in 0..=k {
            assert_eq!(got.a(u, i), dec.a(u, i), "{tag}: a({u}, {i})");
        }
    }

    let hier = LandmarkHierarchy::sample_verified(d, k, params.seed, params.landmark_attempts);
    assert_eq!(scheme.hierarchy().levels(), hier.levels(), "{tag}: landmark levels");

    assert_eq!(scheme.stats().lemma3_violations, 0, "{tag}: Lemma 3 violations");

    let bound = 12 * k as u64;
    for (s, t) in pairs::sample(g.n(), 200, pair_seed) {
        let trace = scheme.route(s, t);
        assert!(trace.delivered, "{tag}: {s}->{t} undelivered");
        if let Err(e) = validate_trace(g, s, t, &trace) {
            panic!("{tag}: {s}->{t} invalid walk: {e:?}");
        }
        let opt = d.d(s, t);
        assert!(trace.cost <= bound * opt, "{tag}: {s}->{t} cost {} > 12k·{opt}", trace.cost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The matrix-free scheme's components equal the matrix-built
    /// references on random graphs with Δ up to 2^30.
    #[test]
    fn on_demand_scheme_matches_matrix_build((g, k, seed) in arb_connected()) {
        let d = apsp(&g);
        if !d.connected() { return Ok(()); }
        check_components(&g, &d, SchemeParams::new(k, seed ^ 0xABCD), seed ^ 0x77, "random");
    }
}

#[test]
fn on_demand_matches_on_families() {
    use graphkit::gen::Family;
    for fam in [Family::Geometric, Family::ExpRing, Family::PrefAttach, Family::Grid] {
        let g = fam.generate(100, 0xFEED);
        let d = apsp(&g);
        for k in [1usize, 2, 3] {
            let tag = format!("{} k={k}", fam.label());
            check_components(&g, &d, SchemeParams::new(k, 0xFEED), 5, &tag);
        }
    }
}

#[test]
#[should_panic(expected = "connected")]
fn on_demand_rejects_disconnected() {
    let g = graphkit::graph_from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
    let _ = Scheme::build_on_demand(g, SchemeParams::new(2, 1));
}
