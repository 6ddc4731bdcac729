#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # landmarks — the low-discrepancy landmark hierarchy (§2.3)
//!
//! Nested landmark sets `V = C₀ ⊇ C₁ ⊇ … ⊇ C_k = ∅`: each `C_i`
//! keeps every element of `C_{i−1}` independently with probability
//! `(n / ln n)^{−1/k}`. A node in `C_j \ C_{j+1}` has *rank* `j`.
//!
//! Two properties make the sparse-level strategy work, and both are
//! *verified per instance* rather than trusted w.h.p. (our effective
//! substitute for the paper's derandomization by conditional
//! probabilities — see DESIGN.md):
//!
//! * **Claim 1** (hitting): every ball `B(u, 2^i)` with
//!   `|B| ≥ 4 (ln n)^{(k−j)/k} n^{j/k}` intersects `C_j`;
//! * **Claim 2** (sparsity): every ball with
//!   `|B| < 4 (ln n)^{(k−j−1)/k} n^{(j+2)/k}` satisfies
//!   `|B ∩ C_j| ≤ 16 n^{2/k} ln n`.
//!
//! The crate also provides the derived per-node queries the scheme
//! needs: `S(u,i)` (the `16 n^{2/k} log n` closest members of `C_i`),
//! `m(u, r)` (highest rank inside a ball), and `c(u, r)` (the center:
//! closest node of that highest rank).

use graphkit::{DistMatrix, Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub mod claims;
pub mod distances;

pub use claims::{verify_claims, verify_claims_on_demand, ClaimReport};
pub use distances::LandmarkDistances;

/// Nested landmark sets with per-node ranks.
#[derive(Clone, Debug)]
pub struct LandmarkHierarchy {
    k: usize,
    n: usize,
    /// `rank[v]` = the unique `j` with `v ∈ C_j \ C_{j+1}`.
    rank: Vec<u8>,
    /// `levels[i]` = sorted members of `C_i`, for `i ∈ 0..k`.
    levels: Vec<Vec<u32>>,
}

impl LandmarkHierarchy {
    /// Random hierarchy per §2.3: survival probability
    /// `(n / ln n)^{−1/k}` per level.
    pub fn sample(n: usize, k: usize, seed: u64) -> Self {
        assert!(n >= 2 && k >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = survival_probability(n, k);
        let mut rank = vec![0u8; n];
        let mut levels: Vec<Vec<u32>> = Vec::with_capacity(k);
        levels.push((0..n as u32).collect()); // C_0 = V
        for i in 1..k {
            let prev = &levels[i - 1];
            let next: Vec<u32> = prev.iter().copied().filter(|_| rng.gen_bool(p)).collect();
            for &v in &next {
                rank[v as usize] = i as u8;
            }
            levels.push(next);
        }
        LandmarkHierarchy { k, n, rank, levels }
    }

    /// Sample, verify Claims 1–2 against the graph's ball family, and
    /// re-seed until they hold (up to `attempts`); returns the first
    /// verified hierarchy or the one with fewest violations.
    pub fn sample_verified(d: &DistMatrix, k: usize, seed: u64, attempts: u32) -> Self {
        let n = d.n();
        let mut best: Option<(usize, Self)> = None;
        for a in 0..attempts.max(1) as u64 {
            let h = Self::sample(n, k, seed.wrapping_add(a.wrapping_mul(0x5851_f42d)));
            let report = verify_claims(d, &h);
            let violations = report.claim1_violations + report.claim2_violations;
            if violations == 0 {
                return h;
            }
            if best.as_ref().is_none_or(|(bv, _)| violations < *bv) {
                best = Some((violations, h));
            }
        }
        // attempts ≥ 1 via max(1), so `best` is Some here; the total
        // fallback (fresh base-seed sample) keeps this panic-free.
        best.map(|(_, h)| h).unwrap_or_else(|| Self::sample(n, k, seed))
    }

    /// Matrix-free [`LandmarkHierarchy::sample_verified`]: the same
    /// seed sequence and the same selection rule (first attempt whose
    /// Claims 1–2 hold, otherwise fewest violations), but verified
    /// through [`verify_claims_on_demand`] over landmark-distance
    /// columns instead of a dense matrix. Returns the chosen hierarchy
    /// *with* its columns so the scheme build can reuse the landmark
    /// Dijkstras. `diameter` must be exact (see
    /// [`graphkit::diameter_matrix_free`]).
    pub fn sample_verified_on_demand(
        g: &Graph,
        k: usize,
        seed: u64,
        attempts: u32,
        diameter: u64,
    ) -> (Self, LandmarkDistances) {
        let n = g.n();
        let mut best: Option<(usize, Self, LandmarkDistances)> = None;
        for a in 0..attempts.max(1) as u64 {
            let h = Self::sample(n, k, seed.wrapping_add(a.wrapping_mul(0x5851_f42d)));
            let ld = LandmarkDistances::build(g, &h);
            let report = verify_claims_on_demand(g, &h, &ld, diameter);
            let violations = report.claim1_violations + report.claim2_violations;
            if violations == 0 {
                return (h, ld);
            }
            if best.as_ref().is_none_or(|(bv, _, _)| violations < *bv) {
                best = Some((violations, h, ld));
            }
        }
        // Same shape as sample_verified: attempts ≥ 1 makes `best`
        // Some; the fallback stays total without a panic.
        match best {
            Some((_, h, ld)) => (h, ld),
            None => {
                let h = Self::sample(n, k, seed);
                let ld = LandmarkDistances::build(g, &h);
                (h, ld)
            }
        }
    }

    /// Build from explicit levels: `levels\[0\]` must be all of `V`,
    /// and each level must be a subset of the previous. The entry point
    /// for deserialized levels, so malformed input surfaces as an error
    /// rather than a panic.
    pub fn try_from_levels(n: usize, k: usize, levels: Vec<Vec<u32>>) -> Result<Self, String> {
        if levels.len() != k {
            return Err(format!("expected {k} levels, got {}", levels.len()));
        }
        if levels.first().is_none_or(|l| l.len() != n) {
            return Err("C_0 must be V".to_string());
        }
        let mut rank = vec![0u8; n];
        for (i, pair) in levels.windows(2).enumerate() {
            let [prev_level, level] = pair else { continue };
            let prev: std::collections::HashSet<u32> = prev_level.iter().copied().collect();
            for &v in level {
                match rank.get_mut(v as usize) {
                    Some(r) if prev.contains(&v) => *r = (i + 1) as u8,
                    _ => return Err("levels must be nested".to_string()),
                }
            }
        }
        let levels: Vec<Vec<u32>> = levels
            .into_iter()
            .map(|mut l| {
                l.sort_unstable();
                l
            })
            .collect();
        if !levels.first().is_some_and(|l| l.iter().copied().eq(0..n as u32)) {
            return Err("C_0 must be V".to_string());
        }
        Ok(LandmarkHierarchy { k, n, rank, levels })
    }

    /// The raw levels `C_0, …, C_{k−1}` (snapshot serialization reads
    /// these; reload through [`LandmarkHierarchy::try_from_levels`]).
    pub fn levels(&self) -> &[Vec<u32>] {
        &self.levels
    }

    /// The parameter `k` (note `C_k = ∅` implicitly).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rank of `v`: the unique `j` with `v ∈ C_j \ C_{j+1}`.
    pub fn rank(&self, v: NodeId) -> usize {
        self.rank[v.idx()] as usize
    }

    /// Members of `C_i` (sorted). `C_i = ∅` for `i ≥ k`.
    pub fn level(&self, i: usize) -> &[u32] {
        if i >= self.k {
            &[]
        } else {
            &self.levels[i]
        }
    }

    /// Is `v ∈ C_i`?
    pub fn in_level(&self, v: NodeId, i: usize) -> bool {
        i < self.k && self.rank[v.idx()] as usize >= i
    }

    /// `S(u, i) = N(u, 16 n^{2/k} log n, C_i)`: the nearby landmarks of
    /// level `i`, ordered by `(distance, id)`. Unreachable landmarks
    /// (infinite rows, which arise on disconnected inputs and from
    /// partial on-demand rows) are never members — a huge budget must
    /// not rank them as real neighbors.
    pub fn s_set(&self, d: &DistMatrix, u: NodeId, i: usize) -> Vec<u32> {
        let budget = self.s_budget();
        let row = d.row(u);
        let mut members: Vec<(u64, u32)> = self
            .level(i)
            .iter()
            .map(|&v| (row[v as usize], v))
            .filter(|&(dist, _)| dist != graphkit::INFINITY)
            .collect();
        members.sort_unstable();
        members.truncate(budget);
        members.into_iter().map(|(_, v)| v).collect()
    }

    /// The union `S(u) = ∪_i S(u, i)` (deduplicated, sorted by id).
    pub fn s_union(&self, d: &DistMatrix, u: NodeId) -> Vec<u32> {
        let mut all: Vec<u32> = (0..self.k).flat_map(|i| self.s_set(d, u, i)).collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The `16 n^{2/k} log n` budget of `S(u, i)`.
    pub fn s_budget(&self) -> usize {
        let n = self.n as f64;
        let k = self.k as f64;
        ((16.0 * n.powf(2.0 / k) * n.ln()).ceil() as usize).max(1)
    }

    /// `m(u, r)` — the highest rank present in `B(u, r)`. Unreachable
    /// nodes are filtered explicitly: a saturated radius (see
    /// [`graphkit::octave_radius`]) may reach `INFINITY − 1`, and an
    /// `INFINITY` row entry must not smuggle an unreachable landmark's
    /// rank into the ball.
    pub fn max_rank_in_ball(&self, d: &DistMatrix, u: NodeId, r: u64) -> usize {
        let row = d.row(u);
        row.iter()
            .enumerate()
            .filter(|&(_, &dist)| dist != graphkit::INFINITY && dist <= r)
            .map(|(v, _)| self.rank[v] as usize)
            .max()
            .unwrap_or(0)
    }

    /// `c(u, r)` — the center: the closest node to `u` (ties by id)
    /// among the *reachable* part of `C_{m(u,r)}` (the rank witness in
    /// the ball guarantees one exists).
    pub fn center(&self, d: &DistMatrix, u: NodeId, r: u64) -> NodeId {
        let m = self.max_rank_in_ball(d, u, r);
        let row = d.row(u);
        let best = self
            .level(m)
            .iter()
            .copied()
            .filter(|&v| row[v as usize] != graphkit::INFINITY)
            .min_by_key(|&v| (row[v as usize], v))
            .expect("C_m has a reachable member: the rank-m witness inside B(u,r)");
        NodeId(best)
    }

    /// Survival probability used by the sampler (exposed for tests).
    pub fn survival_probability(&self) -> f64 {
        survival_probability(self.n, self.k)
    }
}

/// `(n / ln n)^{−1/k}`, clamped into `(0, 1]`.
pub fn survival_probability(n: usize, k: usize) -> f64 {
    let n = n as f64;
    let base = (n / n.ln()).max(1.0);
    base.powf(-1.0 / k as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::Family;
    use graphkit::metrics::apsp;

    #[test]
    fn levels_are_nested_and_ranked() {
        let h = LandmarkHierarchy::sample(500, 3, 1);
        assert_eq!(h.level(0).len(), 500);
        for i in 1..3 {
            for &v in h.level(i) {
                assert!(h.in_level(NodeId(v), i - 1), "nesting violated at level {i}");
                assert!(h.rank(NodeId(v)) >= i);
            }
        }
        assert!(h.level(3).is_empty());
        assert!(h.level(99).is_empty());
        // Every rank-j node appears in exactly levels 0..=j.
        for v in 0..500u32 {
            let r = h.rank(NodeId(v));
            for i in 0..3 {
                assert_eq!(h.in_level(NodeId(v), i), i <= r);
            }
        }
    }

    #[test]
    fn level_sizes_shrink_geometrically() {
        let h = LandmarkHierarchy::sample(2000, 4, 2);
        for i in 1..4 {
            assert!(h.level(i).len() < h.level(i - 1).len(), "level {i} did not shrink");
        }
        // Expected size of C_1 ≈ n * p; allow 3x slack both ways.
        let expect = 2000.0 * survival_probability(2000, 4);
        let got = h.level(1).len() as f64;
        assert!(got > expect / 3.0 && got < expect * 3.0, "C_1 size {got} vs {expect}");
    }

    #[test]
    fn k1_has_only_c0() {
        let h = LandmarkHierarchy::sample(50, 1, 3);
        assert_eq!(h.level(0).len(), 50);
        assert!(h.level(1).is_empty());
        for v in 0..50u32 {
            assert_eq!(h.rank(NodeId(v)), 0);
        }
    }

    #[test]
    fn s_set_is_closest_members() {
        let g = Family::Grid.generate(100, 4);
        let d = apsp(&g);
        let h = LandmarkHierarchy::sample(g.n(), 2, 5);
        let u = NodeId(0);
        let s = h.s_set(&d, u, 1);
        assert!(!s.is_empty());
        assert!(s.len() <= h.s_budget());
        let row = d.row(u);
        let far = s.iter().map(|&v| row[v as usize]).max().unwrap();
        for &v in &s {
            assert!(h.in_level(NodeId(v), 1));
        }
        if s.len() == h.s_budget() {
            for &v in h.level(1) {
                if !s.contains(&v) {
                    assert!(row[v as usize] >= far);
                }
            }
        }
    }

    #[test]
    fn s_union_covers_all_levels() {
        let g = Family::ErdosRenyi.generate(120, 6);
        let d = apsp(&g);
        let h = LandmarkHierarchy::sample(g.n(), 3, 7);
        let u = NodeId(3);
        let union = h.s_union(&d, u);
        for i in 0..3 {
            for v in h.s_set(&d, u, i) {
                assert!(union.binary_search(&v).is_ok());
            }
        }
    }

    #[test]
    fn center_is_closest_of_max_rank() {
        let g = Family::Geometric.generate(150, 8);
        let d = apsp(&g);
        let h = LandmarkHierarchy::sample(g.n(), 3, 9);
        let u = NodeId(10);
        let r = d.diameter() / 4;
        let m = h.max_rank_in_ball(&d, u, r);
        let c = h.center(&d, u, r);
        assert_eq!(h.rank(c), m);
        for &v in h.level(m) {
            assert!(d.d(u, c) <= d.d(u, NodeId(v)));
        }
    }

    #[test]
    fn max_rank_in_radius_zero_ball_is_own_rank() {
        let g = Family::Ring.generate(60, 10);
        let d = apsp(&g);
        let h = LandmarkHierarchy::sample(g.n(), 2, 11);
        for v in 0..60u32 {
            let u = NodeId(v);
            assert_eq!(h.max_rank_in_ball(&d, u, 0), h.rank(u));
        }
    }

    #[test]
    fn disconnected_input_filters_unreachable_landmarks() {
        // Two components; every rank-1 landmark lives in the right one.
        let g = graphkit::graph_from_edges(
            8,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1)],
        );
        let d = apsp(&g);
        let h =
            LandmarkHierarchy::try_from_levels(8, 2, vec![(0..8).collect(), vec![5, 6]]).unwrap();
        let u = NodeId(0);
        // Huge radius (as a saturated octave produces): unreachable
        // landmarks must not be ranked into the ball…
        let r = u64::MAX - 1;
        assert_eq!(h.max_rank_in_ball(&d, u, r), 0);
        // …nor become S-set members…
        assert!(h.s_set(&d, u, 1).is_empty());
        assert_eq!(h.s_union(&d, u), h.s_set(&d, u, 0));
        for &v in &h.s_union(&d, u) {
            assert_ne!(d.d(u, NodeId(v)), graphkit::INFINITY);
        }
        // …nor centers: with m = 0 the center collapses to u itself.
        assert_eq!(h.center(&d, u, r), u);
        // From the landmark side everything still works.
        assert_eq!(h.max_rank_in_ball(&d, NodeId(4), r), 1);
        assert_eq!(h.center(&d, NodeId(4), r), NodeId(5));
    }

    #[test]
    fn from_levels_roundtrip() {
        let levels = vec![vec![0, 1, 2, 3, 4], vec![1, 3], vec![3]];
        let h = LandmarkHierarchy::try_from_levels(5, 3, levels).unwrap();
        assert_eq!(h.rank(NodeId(3)), 2);
        assert_eq!(h.rank(NodeId(1)), 1);
        assert_eq!(h.rank(NodeId(0)), 0);
        assert_eq!(h.level(2), &[3]);
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn from_levels_rejects_non_nested() {
        let levels = vec![vec![0, 1, 2], vec![1], vec![2]];
        LandmarkHierarchy::try_from_levels(3, 3, levels).unwrap();
    }

    #[test]
    fn survival_probability_sane() {
        let p = survival_probability(1000, 2);
        assert!(p > 0.0 && p < 1.0);
        // Larger k → larger survival probability (shallower decay).
        assert!(survival_probability(1000, 4) > survival_probability(1000, 2));
    }

    #[test]
    fn sampling_deterministic_in_seed() {
        let a = LandmarkHierarchy::sample(300, 3, 42);
        let b = LandmarkHierarchy::sample(300, 3, 42);
        for i in 0..3 {
            assert_eq!(a.level(i), b.level(i));
        }
    }
}
