#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # routing-core — the scale-free name-independent routing scheme
//!
//! The primary contribution of *"On Space-Stretch Trade-Offs: Upper
//! Bounds"* (Abraham–Gavoille–Malkhi, SPAA 2006), assembled from the
//! substrate crates:
//!
//! * [`decomposition`] classifies each node's `k` neighborhood levels
//!   as *dense* or *sparse* (Definitions 1–2);
//! * sparse levels route through landmark trees
//!   ([`landmarks`] + [`treeroute::laing`], Lemmas 3–4, 10–11);
//! * dense levels route through sparse cover trees
//!   ([`covers`] + [`treeroute::cover_router`], Lemmas 2, 6–9);
//! * the phase router ([`Scheme::route_message`]) expands through
//!   `A(u, 0), …, A(u, k−1)` until the destination is found (§3.7),
//!   achieving stretch `O(k)` with storage independent of the aspect
//!   ratio Δ — the *scale-free* property.
//!
//! ```no_run
//! use graphkit::gen::Family;
//! use routing_core::{Scheme, SchemeParams};
//! use sim::Router;
//!
//! let g = Family::Geometric.generate(200, 7);
//! let scheme = Scheme::build_on_demand(g, SchemeParams::new(3, 42));
//! let trace = scheme.route(graphkit::NodeId(0), graphkit::NodeId(123));
//! assert!(trace.delivered);
//! ```

pub mod bench_record;
mod center_store;
pub mod churn;
pub mod directed;
mod repair;
mod scheme;
pub mod serve;
mod snapshot;

#[cfg(test)]
mod s_requirement_oracle;

pub use directed::{validate_directed_trace, DirectedScheme};
pub use repair::{DeferReason, RebuildReason, RepairOutcome, RepairReport};
pub use scheme::{BuildStats, ForceMode, Scheme, SchemeParams, StorageBreakdown};
pub use serve::{serve_batch, ServeReport};

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::Family;
    use graphkit::metrics::apsp;
    use graphkit::NodeId;
    use sim::{evaluate, pairs, validate_trace, Router, StorageAudit};

    /// Route all pairs, validating every trace, and return the stats.
    fn full_check(fam: Family, n: usize, k: usize, seed: u64) -> sim::StretchStats {
        let g = fam.generate(n, seed);
        let d = apsp(&g);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, seed));
        assert_eq!(
            scheme.stats().lemma3_violations,
            0,
            "{} k={k}: Lemma 3 violated during build",
            fam.label()
        );
        let stats = evaluate(&g, &d, &scheme, &pairs::all(n));
        assert_eq!(stats.failures, 0, "{} k={k}: undelivered pairs", fam.label());
        stats
    }

    #[test]
    fn delivers_all_pairs_geometric_k2() {
        let stats = full_check(Family::Geometric, 120, 2, 1);
        assert!(stats.max_stretch >= 1.0);
    }

    #[test]
    fn delivers_all_pairs_er_k3() {
        full_check(Family::ErdosRenyi, 120, 3, 2);
    }

    #[test]
    fn delivers_all_pairs_grid_k2() {
        full_check(Family::Grid, 100, 2, 3);
    }

    #[test]
    fn delivers_all_pairs_ring_k3() {
        full_check(Family::Ring, 90, 3, 4);
    }

    #[test]
    fn delivers_all_pairs_pref_attach_k2() {
        full_check(Family::PrefAttach, 110, 2, 5);
    }

    #[test]
    fn delivers_on_huge_aspect_ratio_k3() {
        // The scale-free headline: Δ ≈ 2^40 must not break anything.
        full_check(Family::ExpRing, 80, 3, 6);
        full_check(Family::ExpTree, 80, 3, 7);
    }

    #[test]
    fn k1_degenerates_to_near_optimal() {
        // k = 1: every level-0 tree's root directory holds everything;
        // stretch should be exactly 1 (root == source).
        let stats = full_check(Family::Geometric, 60, 1, 8);
        assert!(
            stats.max_stretch < 1.0 + 1e-9,
            "k=1 should be shortest-path, got {}",
            stats.max_stretch
        );
    }

    #[test]
    fn stretch_is_linear_in_k() {
        // O(k) stretch with an explicit constant: measured max stretch
        // must stay below 12k on every family (the analysis constant is
        // larger; 12k is the empirical envelope with margin ~2x).
        for (fam, n) in [(Family::Geometric, 100), (Family::ErdosRenyi, 100)] {
            for k in [2usize, 3, 4] {
                let stats = full_check(fam, n, k, 9);
                assert!(
                    stats.max_stretch <= (12 * k) as f64,
                    "{} k={k}: stretch {} exceeds 12k",
                    fam.label(),
                    stats.max_stretch
                );
            }
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let g = Family::Grid.generate(49, 10);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 10));
        let t = scheme.route(NodeId(5), NodeId(5));
        assert!(t.delivered);
        assert_eq!(t.cost, 0);
        assert_eq!(t.hops(), 0);
    }

    #[test]
    fn traces_are_physical_walks() {
        let g = Family::PrefAttach.generate(90, 11);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 11));
        for &(s, t) in pairs::sample(g.n(), 200, 12).iter() {
            let trace = scheme.route(s, t);
            validate_trace(&g, s, t, &trace).expect("invalid trace");
        }
    }

    #[test]
    fn storage_accounted_and_bounded() {
        let g = Family::Geometric.generate(150, 13);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 13));
        let audit = StorageAudit::collect(&scheme, g.n());
        assert!(audit.max_bits() > 0);
        // Theorem 1 bound (Lemma 11 exponent form) with constant 64.
        assert!(
            (audit.max_bits() as f64) <= scheme.theorem1_bound(),
            "max {} > bound {}",
            audit.max_bits(),
            scheme.theorem1_bound()
        );
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        // Scheme::evaluate (the parallel engine) must agree bit-for-bit
        // with sim::evaluate, with dense and on-demand truth alike.
        let g = Family::Geometric.generate(110, 21);
        let d = apsp(&g);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 21));
        let workload = pairs::sample(g.n(), 400, 22);
        let seq = evaluate(&g, &d, &scheme, &workload);
        let mut truth = graphkit::OnDemandTruth::new(&g);
        truth.prefetch_pairs(&workload, 3);
        for par in [scheme.evaluate(&d, &workload, 3), scheme.evaluate(&truth, &workload, 3)] {
            assert_eq!(seq.pairs, par.pairs);
            assert_eq!(seq.failures, par.failures);
            assert_eq!(seq.max_stretch.to_bits(), par.max_stretch.to_bits());
            assert_eq!(seq.mean_stretch.to_bits(), par.mean_stretch.to_bits());
            assert_eq!(seq.p50_stretch.to_bits(), par.p50_stretch.to_bits());
            assert_eq!(seq.p99_stretch.to_bits(), par.p99_stretch.to_bits());
            assert_eq!(seq.mean_hops.to_bits(), par.mean_hops.to_bits());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = Family::ErdosRenyi.generate(80, 14);
        let a = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 99));
        let b = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 99));
        for &(s, t) in pairs::sample(g.n(), 100, 15).iter() {
            assert_eq!(a.route(s, t), b.route(s, t));
        }
    }

    #[test]
    fn build_stats_populated() {
        let g = Family::Geometric.generate(100, 16);
        let scheme = Scheme::build_on_demand(g, SchemeParams::new(3, 16));
        let st = scheme.stats();
        assert!(st.num_center_trees > 0, "no landmark trees built");
        assert_eq!(st.s_budgets.len(), 3);
        assert!(st.lemma3_checked > 0);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn rejects_disconnected_graphs() {
        let g = graphkit::graph_from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        Scheme::build_on_demand(g, SchemeParams::new(2, 17));
    }
}

#[cfg(test)]
mod header_tests {
    use super::*;
    use graphkit::gen::Family;

    #[test]
    fn headers_are_polylog() {
        // The paper's Õ(1)-bit header claim: O(log² n) with a small
        // constant, across families and k.
        for fam in [Family::Geometric, Family::ExpRing] {
            for (n, k) in [(100usize, 2usize), (200, 3)] {
                let g = fam.generate(n, 0x4d);
                let scheme = Scheme::build_on_demand(g, SchemeParams::new(k, 0x4d));
                let logn = (n as f64).log2();
                let bound = (8.0 * logn * logn) as u64;
                let got = scheme.header_bits_bound();
                assert!(
                    got <= bound,
                    "{} n={n} k={k}: header {got} bits > 8·log²n = {bound}",
                    fam.label()
                );
            }
        }
    }
}
