//! End-to-end integration: the full Theorem 1 pipeline across crates —
//! generators → APSP → decomposition → landmarks → covers → scheme →
//! simulator — on every workload family.

use compact_routing::prelude::*;
use graphkit::metrics::apsp;

/// Build and fully exercise the scheme on one instance.
fn exercise(fam: Family, n: usize, k: usize, seed: u64) -> (sim::StretchStats, f64) {
    let g = fam.generate(n, seed);
    let d = apsp(&g);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, seed));
    assert_eq!(scheme.stats().lemma3_violations, 0, "{} k={k}", fam.label());
    let stats = evaluate(&g, &d, &scheme, &pairs::all(g.n()));
    let audit = StorageAudit::collect(&scheme, g.n());
    (stats, audit.mean_bits())
}

#[test]
fn every_family_end_to_end_k3() {
    for fam in Family::ALL {
        let (stats, _) = exercise(fam, 80, 3, 0xE2E);
        assert_eq!(stats.failures, 0, "{}", fam.label());
        assert!(
            stats.max_stretch <= 36.0,
            "{}: stretch {} above the 12k envelope",
            fam.label(),
            stats.max_stretch
        );
    }
}

#[test]
fn stretch_envelope_grows_mildly_with_k() {
    // The O(k) claim as a trend: going k=2 -> k=4 must not blow the
    // max stretch past the linear envelope on any family.
    for fam in [Family::Geometric, Family::Grid] {
        let (s2, b2) = exercise(fam, 100, 2, 0xAB);
        let (s4, b4) = exercise(fam, 100, 4, 0xAB);
        assert!(s2.max_stretch <= 24.0, "{}", fam.label());
        assert!(s4.max_stretch <= 48.0, "{}", fam.label());
        // And the space side of the trade-off: k=4 must not cost more
        // storage than k=2 on the same instance (up to 1.5x noise).
        assert!(b4 <= 1.5 * b2, "{}: storage did not shrink with k: {b2} -> {b4}", fam.label());
    }
}

#[test]
fn beats_exponential_baseline_on_worst_stretch() {
    // The paper's improvement: at matched k, our worst-case stretch is
    // below the landmark-chaining baseline's on metric-ish graphs.
    let g = Family::Geometric.generate(150, 0xCD);
    let d = apsp(&g);
    let k = 3;
    let ours = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 1));
    let chain = baselines::LandmarkChaining::build_with_matrix(g.clone(), &d, k, 1);
    let workload = pairs::all(g.n());
    let so = evaluate(&g, &d, &ours, &workload);
    let sc = evaluate(&g, &d, &chain, &workload);
    assert!(
        so.max_stretch < sc.max_stretch,
        "ours {} vs chaining {}",
        so.max_stretch,
        sc.max_stretch
    );
}

#[test]
fn storage_grows_sublinearly_in_n() {
    // At laptop n the scheme's polylog constants dwarf the trivial
    // n·log n table (see EXPERIMENTS.md); the honest compactness claim
    // is the growth *rate*: quadrupling n must grow our tables far
    // slower than the trivial ones (measured: ~n^{0.5} vs ~n·log n,
    // crossover extrapolates to n ≈ 10^5).
    let mut means = Vec::new();
    for n in [128usize, 512] {
        let g = Family::Geometric.generate(n, 0xEF);
        let ours = Scheme::build_on_demand(g.clone(), SchemeParams::new(4, 2));
        means.push(StorageAudit::collect(&ours, g.n()).mean_bits());
    }
    let ours_growth = means[1] / means[0];
    let trivial_growth = (511.0 * 9.0) / (127.0 * 7.0); // (n-1)·ceil(log n)
    assert!(
        ours_growth < trivial_growth / 1.6,
        "compact growth {ours_growth:.2}x vs trivial {trivial_growth:.2}x over 4x n"
    );
}

#[test]
fn labeled_baseline_is_better_but_cheats() {
    // TZ (labeled) may beat us on stretch — that is the expected gap
    // between the models; sanity-check both deliver everywhere.
    let g = Family::ErdosRenyi.generate(120, 0x11);
    let d = apsp(&g);
    let ours = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 3));
    let tz = baselines::TzLabeled::build_with_matrix(g.clone(), &d, 3, 3);
    let w = pairs::all(g.n());
    assert_eq!(evaluate(&g, &d, &ours, &w).failures, 0);
    assert_eq!(evaluate(&g, &d, &tz, &w).failures, 0);
}

#[test]
fn hierarchical_baseline_matches_on_stretch_but_pays_log_delta() {
    let g = Family::ExpRing.generate(48, 0x12);
    let d = apsp(&g);
    let ours = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 4));
    let hier = baselines::HierarchicalScheme::build(g.clone(), 2, 4);
    let w = pairs::all(g.n());
    assert_eq!(evaluate(&g, &d, &ours, &w).failures, 0);
    assert_eq!(evaluate(&g, &d, &hier, &w).failures, 0);
    // log Δ ≈ 40 scales on this instance.
    assert!(hier.num_scales() >= 30, "scales {}", hier.num_scales());
}

#[test]
fn ablations_expose_both_failure_modes() {
    let g = Family::ExpRing.generate(80, 0x13);
    let d = apsp(&g);
    let w = pairs::all(g.n());
    let combined = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 5));
    assert_eq!(sim::evaluate_lenient(&g, &d, &combined, &w).failures, 0);
    let dense_only = Scheme::build_on_demand(
        g.clone(),
        SchemeParams::new(3, 5).with_force_mode(ForceMode::AllDense),
    );
    let df = sim::evaluate_lenient(&g, &d, &dense_only, &w).failures;
    assert!(df > 0, "dense-only should fail on a sparse graph");
}
