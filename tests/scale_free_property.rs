//! The scale-free property as an integration test: sweep the aspect
//! ratio over 36 octaves and check our storage stays within a constant
//! band while the log Δ baseline provably grows.

use compact_routing::prelude::*;
use graphkit::metrics::apsp;

/// Mean bits/node of our scheme and the hierarchical baseline on a
/// ring whose weights span 2^e, averaged over seeds for stability.
fn storage_at_exponent(e: u32, k: usize) -> (f64, f64, usize) {
    let n = 48;
    let mut ours_total = 0.0;
    let mut hier_total = 0.0;
    let mut scales = 0;
    let seeds = [1u64, 2, 3];
    for &s in &seeds {
        let g =
            if e == 0 { graphkit::gen::ring(n, 1) } else { graphkit::gen::exponential_ring(n, e) };
        let d = apsp(&g);
        let ours = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, s));
        let hier = HierarchicalScheme::build(g.clone(), k, s);
        ours_total += StorageAudit::collect(&ours, n).mean_bits();
        hier_total += StorageAudit::collect(&hier, n).mean_bits();
        scales = hier.num_scales();
        // Both must still deliver everything at this Δ.
        assert_eq!(evaluate(&g, &d, &ours, &pairs::all(n)).failures, 0);
    }
    (ours_total / seeds.len() as f64, hier_total / seeds.len() as f64, scales)
}

#[test]
fn storage_flat_in_delta_ours_growing_for_hierarchical() {
    let (ours_lo, hier_lo, scales_lo) = storage_at_exponent(4, 2);
    let (ours_hi, hier_hi, scales_hi) = storage_at_exponent(40, 2);
    // The baseline's scale count must track log Δ…
    assert!(scales_hi >= scales_lo + 30, "{scales_lo} -> {scales_hi}");
    // …and its storage must grow substantially.
    assert!(
        hier_hi > 1.5 * hier_lo,
        "hierarchical should grow with Δ: {hier_lo:.0} -> {hier_hi:.0}"
    );
    // Ours must stay within a constant band across 36 octaves of Δ.
    let ratio = ours_hi.max(ours_lo) / ours_hi.min(ours_lo);
    assert!(ratio < 4.0, "scale-free storage drifted {ratio:.2}x: {ours_lo:.0} -> {ours_hi:.0}");
}

#[test]
fn extended_ranges_stay_o_k_at_any_delta() {
    // The mechanism behind the flat line: |R(u)| ≤ 6(k+1) regardless
    // of Δ, so cover participation never scales with the metric.
    for e in [4u32, 40] {
        let g = graphkit::gen::exponential_ring(64, e);
        let d = apsp(&g);
        for k in [2usize, 4] {
            let dec = decomposition::Decomposition::build(&d, k);
            for v in 0..64u32 {
                let r = dec.extended_range_set(NodeId(v)).len();
                assert!(r <= 6 * (k + 1), "e={e} k={k}: |R| = {r}");
            }
        }
    }
}

#[test]
fn star_chain_workload_also_scale_free() {
    // A different extreme-Δ shape: star clusters at every scale.
    let g = graphkit::gen::exponential_star_chain(8, 5, 5);
    let d = apsp(&g);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 7));
    let stats = evaluate(&g, &d, &scheme, &pairs::all(g.n()));
    assert_eq!(stats.failures, 0);
    assert!(stats.max_stretch <= 36.0, "stretch {}", stats.max_stretch);
}
