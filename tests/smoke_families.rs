//! Workspace smoke test: every workload family × every k in 1..=3
//! builds a Theorem 1 scheme that delivers on a sampled pair set,
//! along physically valid walks (validated by `sim::evaluate`).
//!
//! This is the breadth pass: small instances, all code paths from
//! generator through decomposition, landmarks, covers, tree routing,
//! and the phase router. Depth (stretch envelopes, storage bounds,
//! aspect-ratio independence) lives in the dedicated suites.

use compact_routing::prelude::*;
use graphkit::metrics::apsp;

#[test]
fn every_family_delivers_at_k_1_to_3() {
    for fam in Family::ALL {
        let g = fam.generate(72, 1706);
        let d = apsp(&g);
        assert!(d.connected(), "{}: generator must return a connected graph", fam.label());
        let workload = pairs::sample(g.n(), 200, 7);
        for k in 1..=3usize {
            let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 1706));
            let stats = evaluate(&g, &d, &scheme, &workload);
            assert_eq!(
                stats.failures,
                0,
                "{} at k={k}: {} of {} sampled pairs undelivered",
                fam.label(),
                stats.failures,
                stats.pairs
            );
            // Theorem 1 promises stretch O(k); the measured envelope
            // across the suites is 12k (see src/lib.rs quickstart).
            // k=1 shares the k=2 hierarchy depth, hence max(2).
            let envelope = (12 * k.max(2)) as f64;
            assert!(
                stats.max_stretch <= envelope,
                "{} at k={k}: max stretch {} exceeds envelope {envelope}",
                fam.label(),
                stats.max_stretch
            );
        }
    }
}

#[test]
fn storage_audit_is_finite_and_positive() {
    // A thin storage sanity check riding the same build: every node
    // must account > 0 bits and the audit must agree with the scheme's
    // own breakdown on totals.
    let g = Family::Geometric.generate(72, 1706);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 1706));
    let audit = StorageAudit::collect(&scheme, g.n());
    assert_eq!(audit.per_node_bits.len(), g.n());
    assert!(audit.per_node_bits.iter().all(|&b| b > 0), "zero-bit node in storage audit");
    assert!(audit.max_bits() >= audit.mean_bits() as u64);
}
