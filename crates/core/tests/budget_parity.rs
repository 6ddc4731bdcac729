//! Per-node S budgets: the per-node mode must stay a correct routing
//! scheme with no more storage than the global one. (The requirement
//! table both modes read is checked against a brute-force oracle in
//! `src/s_requirement_oracle.rs`.)

use graphkit::gen::WeightDist;
use graphkit::metrics::apsp;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing_core::{SBudgetMode, Scheme, SchemeParams};
use sim::{pairs, validate_trace, Router};

fn arb_connected() -> impl Strategy<Value = (graphkit::Graph, usize, u64)> {
    (20usize..90, 1usize..4, any::<u64>(), 0u32..30).prop_map(|(n, k, seed, wexp)| {
        let mut rng = SmallRng::seed_from_u64(seed);
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Genuinely per-node budgets: still a valid scheme (all sampled
    /// pairs delivered over physical walks, zero Lemma 3 violations),
    /// and never more total landmark storage than the global budgets.
    #[test]
    fn per_node_budgets_stay_correct_and_no_larger((g, k, seed) in arb_connected()) {
        let d = apsp(&g);
        if !d.connected() { return Ok(()); }
        let params = SchemeParams::new(k, seed ^ 0xB1D);
        let global = Scheme::build_on_demand(g.clone(), params);
        let tuned =
            Scheme::build_on_demand(g.clone(), params.with_s_budget_mode(SBudgetMode::PerNode));
        prop_assert_eq!(tuned.stats().lemma3_violations, 0);
        // Per-node requirements are pointwise ≤ the global level max,
        // so membership (and hence landmark storage) can only shrink.
        prop_assert!(tuned.stats().total_members <= global.stats().total_members);
        let lm_global: u64 = g.nodes().map(|v| global.storage_breakdown(v).landmark_bits).sum();
        let lm_tuned: u64 = g.nodes().map(|v| tuned.storage_breakdown(v).landmark_bits).sum();
        prop_assert!(
            lm_tuned <= lm_global,
            "per-node landmark bits {} exceed global {}", lm_tuned, lm_global
        );
        for (s, t) in pairs::sample(g.n(), 200, seed ^ 0x44) {
            let trace = tuned.route(s, t);
            prop_assert!(trace.delivered, "{}->{} undelivered", s, t);
            prop_assert!(validate_trace(&g, s, t, &trace).is_ok(), "{}->{} invalid walk", s, t);
        }
    }
}
