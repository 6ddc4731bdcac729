//! B2 — the aspect-ratio-dependent hierarchical scheme
//! (Awerbuch–Peleg \[10\] with the tree-routing of AGM DISC'04 \[3\]).
//!
//! Tree covers at *every* geometric scale `2^0, 2^1, …, 2^{⌈log Δ⌉}`
//! over the full graph; routing tries scales in increasing order until
//! the destination's home-ball scale is reached. Stretch is `O(k)`
//! (with \[3\]'s cover router), but every node stores state at **all**
//! `⌈log Δ⌉` scales — the `log Δ` memory factor that makes the scheme
//! *not* scale-free. Experiment SF plots exactly this divergence
//! against the paper's scheme.

use graphkit::bits::bits_for_node;
use graphkit::ids::ceil_log2;
use graphkit::{Graph, NodeId};
use sim::{RouteTrace, Router};
use treeroute::cover_router::CoverScale;

/// The log Δ-storage hierarchical scheme.
pub struct HierarchicalScheme {
    g: Graph,
    k: usize,
    scales: Vec<CoverScale>,
    /// `φ(T, v)` summed over every cover tree containing `v`, at every
    /// scale.
    cover_bits: Vec<u64>,
}

impl HierarchicalScheme {
    /// Build covers at all scales `0..=⌈log₂ diam⌉`.
    pub fn build(g: Graph, k: usize, seed: u64) -> Self {
        let d = graphkit::apsp(&g);
        assert!(d.connected(), "hierarchical scheme requires a connected graph");
        let max_scale = ceil_log2(d.diameter().max(1)).max(1);
        let sigma = graphkit::ids::nth_root_ceil(g.n() as u64, k as u32).max(2);
        let scales: Vec<CoverScale> = (0..=max_scale)
            .map(|s| {
                let cover = covers::build_cover(&g, k, graphkit::ids::octave_radius(s));
                CoverScale::new(cover.trees, cover.home, sigma, seed, s)
            })
            .collect();
        let mut cover_bits = vec![0; g.n()];
        for scale in &scales {
            scale.add_node_bits(&mut cover_bits, 0);
        }
        HierarchicalScheme { g, k, scales, cover_bits }
    }

    /// Number of scales (= `⌈log₂ Δ⌉ + 1`), the storage multiplier.
    pub fn num_scales(&self) -> usize {
        self.scales.len()
    }

    /// The trade-off parameter k.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Router for HierarchicalScheme {
    fn route(&self, src: NodeId, dst: NodeId) -> RouteTrace {
        if src == dst {
            return RouteTrace::trivial(src);
        }
        let mut path = vec![src];
        let mut cost = 0;
        for scale in &self.scales {
            let outcome = scale.route(src, dst, &mut path);
            cost += outcome.cost();
            if outcome.is_found() {
                return RouteTrace { path, cost, delivered: true };
            }
            debug_assert_eq!(*path.last().unwrap(), src);
        }
        RouteTrace { path, cost, delivered: false }
    }

    fn name(&self) -> &str {
        "awerbuch-peleg-hierarchical"
    }

    fn node_storage_bits(&self, v: NodeId) -> u64 {
        // A home-root pointer at every scale, plus φ(T, v) for every
        // cover tree containing v.
        self.scales.len() as u64 * bits_for_node(self.g.n()) + self.cover_bits[v.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::Family;
    use graphkit::metrics::apsp;
    use sim::{evaluate, pairs, StorageAudit};

    #[test]
    fn delivers_all_pairs() {
        let g = Family::Geometric.generate(80, 40);
        let d = apsp(&g);
        let r = HierarchicalScheme::build(g.clone(), 2, 40);
        let stats = evaluate(&g, &d, &r, &pairs::all(g.n()));
        assert_eq!(stats.failures, 0);
        // Stretch O(k): generous envelope.
        assert!(stats.max_stretch <= 30.0, "stretch {}", stats.max_stretch);
    }

    #[test]
    fn storage_grows_with_aspect_ratio() {
        // Same node count, wildly different Δ: storage per node must
        // grow by at least 2x (it has ~10x the scales).
        let small = Family::Ring.generate(48, 41); // Δ = n/2
        let big = Family::ExpRing.generate(48, 41); // Δ ≈ 2^40
        let rs = HierarchicalScheme::build(small.clone(), 2, 41);
        let rb = HierarchicalScheme::build(big.clone(), 2, 41);
        assert!(rb.num_scales() >= rs.num_scales() + 10);
        let asmall = StorageAudit::collect(&rs, small.n());
        let abig = StorageAudit::collect(&rb, big.n());
        assert!(
            abig.mean_bits() > 2.0 * asmall.mean_bits(),
            "log Δ growth not visible: {} vs {}",
            abig.mean_bits(),
            asmall.mean_bits()
        );
    }

    #[test]
    fn delivers_on_exp_ring() {
        let g = Family::ExpRing.generate(40, 42);
        let d = apsp(&g);
        let r = HierarchicalScheme::build(g.clone(), 3, 42);
        let stats = evaluate(&g, &d, &r, &pairs::all(g.n()));
        assert_eq!(stats.failures, 0);
    }
}
