//! Spill-store parity: a scheme whose center trees were streamed to
//! the spill file and reloaded at route time must behave identically
//! to the all-resident scheme — the wire round-trip preserves the
//! Lemma 4 machinery bit for bit.

use graphkit::gen::Family;
use graphkit::metrics::apsp;
use routing_core::{SBudgetMode, Scheme, SchemeParams};
use sim::{evaluate, pairs, Router};

#[test]
fn spilled_scheme_routes_identically() {
    for fam in [Family::Geometric, Family::ExpRing, Family::PrefAttach] {
        let g = fam.generate(130, 0x5111);
        let d = apsp(&g);
        for k in [1usize, 2, 3] {
            let params = SchemeParams::new(k, 0x5111);
            let resident = Scheme::build_with_matrix(g.clone(), &d, params);
            let spilled = Scheme::build_with_matrix(g.clone(), &d, params.with_spill());
            assert_eq!(
                resident.stats().total_members,
                spilled.stats().total_members,
                "{} k={k}",
                fam.label()
            );
            // Storage accounting never touches the store, so it must
            // be identical however the trees are held.
            for v in g.nodes() {
                assert_eq!(
                    resident.storage_bits(v),
                    spilled.storage_bits(v),
                    "{} k={k} at {v}",
                    fam.label()
                );
            }
            assert_eq!(resident.header_bits_bound(), spilled.header_bits_bound());
            for (s, t) in pairs::sample(g.n(), 250, 0x5112) {
                let ta = resident.route(s, t);
                let tb = spilled.route(s, t);
                assert_eq!(ta.delivered, tb.delivered, "{} k={k} {s}->{t}", fam.label());
                assert_eq!(ta.cost, tb.cost, "{} k={k} {s}->{t}", fam.label());
                assert_eq!(ta.path, tb.path, "{} k={k} {s}->{t}", fam.label());
            }
        }
    }
}

#[test]
fn spilled_scheme_survives_parallel_evaluation() {
    // A spilled store serves each fetch with one positional read into
    // a per-thread buffer; hammer it from the parallel evaluator and
    // check the aggregate stats match the sequential engine bit for bit.
    let g = Family::Geometric.generate(120, 0x5113);
    let d = apsp(&g);
    let scheme =
        Scheme::build_with_matrix(g.clone(), &d, SchemeParams::new(3, 0x5113).with_spill());
    let workload = pairs::sample(g.n(), 400, 0x5114);
    let seq = evaluate(&g, &d, &scheme, &workload);
    let par = scheme.evaluate(&d, &workload, 4);
    assert_eq!(seq.pairs, par.pairs);
    assert_eq!(seq.failures, 0);
    assert_eq!(seq.failures, par.failures);
    assert_eq!(seq.max_stretch.to_bits(), par.max_stretch.to_bits());
    assert_eq!(seq.mean_stretch.to_bits(), par.mean_stretch.to_bits());
}

#[test]
fn spill_composes_with_on_demand_and_per_node_budgets() {
    // The full matrix-free stack: on-demand build, per-node budgets,
    // spilled trees — against the plain resident dense build.
    let g = Family::ExpRing.generate(100, 0x5115);
    let d = apsp(&g);
    let base = SchemeParams::new(2, 0x5115).with_s_budget_mode(SBudgetMode::PerNode);
    let resident = Scheme::build_with_matrix(g.clone(), &d, base);
    let spilled_od = Scheme::build_on_demand(g.clone(), base.with_spill());
    for v in g.nodes() {
        assert_eq!(resident.storage_bits(v), spilled_od.storage_bits(v), "at {v}");
    }
    for (s, t) in pairs::sample(g.n(), 250, 0x5116) {
        let ta = resident.route(s, t);
        let tb = spilled_od.route(s, t);
        assert_eq!((ta.delivered, ta.cost, ta.path), (tb.delivered, tb.cost, tb.path), "{s}->{t}");
    }
}
