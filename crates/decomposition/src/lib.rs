#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # decomposition — sparse/dense neighborhood decomposition (§2)
//!
//! The paper's central device (Definition 1): around every node `u`,
//! a series of balls `A(u,0) = {u} ⊆ A(u,1) ⊆ … ⊆ A(u,k)` where each
//! ball has at least `n^{1/k}` times the nodes of the previous one
//! *and* at least twice its radius; the radius exponents are the
//! *ranges* `a(u,i)` (so `A(u,i) = B(u, 2^{a(u,i)})`).
//!
//! A level `i` is **dense** when the `n^{1/k}`-fold growth happened
//! within 3 octaves (`a(u,i+1) ≤ a(u,i)+3`), otherwise **sparse**
//! (Definition 2). Dense levels are handled with cover trees over the
//! subgraphs `G_i`, sparse levels with landmark trees; this split is
//! what removes the aspect ratio from the storage bound, because each
//! node's *extended range set* `R(u)` — the scales where it
//! participates in covers — has only `O(k)` members regardless of Δ.
//!
//! This crate computes the ranges, classifies levels, materializes
//! `L(u)`, `R(u)`, `F(u,i) = B(u, 2^{a(u,i)−1})` and
//! `E(u,i) = B(u, 2^{a(u,i+1)}/6)`, and verifies Lemma 2's dense-
//! neighborhood property per instance.

use graphkit::ids::{ceil_log2, octave_radius};
use graphkit::{Cost, DijkstraScratch, DistMatrix, Graph, NodeId};

/// The per-graph decomposition: all ranges `a(u, i)` plus the derived
/// range sets.
#[derive(Clone, Debug)]
pub struct Decomposition {
    k: usize,
    n: usize,
    /// `ranges[u * (k+1) + i] = a(u, i)` (radius exponents).
    ranges: Vec<u32>,
    /// `⌈log₂ Δ⌉` — the cap used when a ball cannot grow further.
    log_delta: u32,
}

impl Decomposition {
    /// Compute all ranges from a distance matrix. Parallel over nodes.
    ///
    /// Two engineering choices relative to the paper's Definition 1
    /// (both documented in DESIGN.md §"Substitutions"):
    ///
    /// * the cap is `⌈log₂ Δ⌉ + 3` rather than `⌈log₂ Δ⌉`, so
    ///   `2^cap ≥ 8Δ` and the top ball `B(u, 2^cap/6)` provably contains
    ///   the whole component;
    /// * `a(u, k)` is *forced* to the cap. This closes the coverage gap
    ///   at the last level: level `k−1` is then either sparse with
    ///   `E(u, k−1) = B(u, 2^cap/6) = V`, or dense with
    ///   `a(u, k−1) ≥ cap−3`, in which case the scale-`a(u,k−1)` cover
    ///   tree spans the component (every node's `R(v)` contains
    ///   `[cap−4, cap+1]` because `cap ∈ L(v)` for all `v`).
    pub fn build(d: &DistMatrix, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let n = d.n();
        assert!(n >= 2);
        let log_delta = ceil_log2(d.diameter().max(1)).max(1) + 3;
        let width = k + 1;
        // merge: per-node range rows, flattened in chunk (= node id) order.
        let ranges: Vec<u32> = graphkit::metrics::par_chunks(n, |nodes| {
            let mut out = vec![0u32; nodes.len() * width];
            for (row_out, u) in out.chunks_mut(width).zip(nodes) {
                compute_ranges(d, NodeId(u as u32), k, log_delta, row_out);
            }
            out
        })
        .into_iter()
        .flatten()
        .collect();
        Decomposition { k, n, ranges, log_delta }
    }

    /// Compute all ranges without a distance matrix: one
    /// radius/size-bounded Dijkstra per level per node instead of a
    /// dense row. Computes the exact diameter first (matrix-free, via
    /// [`graphkit::diameter_matrix_free`]); pass a precomputed value
    /// through [`Decomposition::build_on_demand_with_diameter`] to
    /// reuse it. Identical output to [`Decomposition::build`].
    pub fn build_on_demand(g: &Graph, k: usize) -> Self {
        Self::build_on_demand_with_diameter(g, k, graphkit::diameter_matrix_free(g))
    }

    /// [`Decomposition::build_on_demand`] reusing an exact diameter.
    ///
    /// Per node, level `i` costs the ball holding the `n^{i/k}`-growth
    /// target — O(n^{(k−1)/k}) settles per node in total rather than a
    /// full Dijkstra, which is what lets ranges exist at 10⁵+ nodes.
    /// (Levels that cap at `⌈log₂ Δ⌉` before `i = k−1` degrade toward
    /// whole-component balls, exactly as the dense path degrades to
    /// full rows.)
    pub fn build_on_demand_with_diameter(g: &Graph, k: usize, diameter: Cost) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let n = g.n();
        assert!(n >= 2);
        let log_delta = ceil_log2(diameter.max(1)).max(1) + 3;
        let width = k + 1;
        // merge: per-node range rows, flattened in chunk (= node id) order.
        let ranges: Vec<u32> = graphkit::metrics::par_chunks(n, |nodes| {
            let mut scratch = DijkstraScratch::new(n);
            let mut out = vec![0u32; nodes.len() * width];
            for (row_out, u) in out.chunks_mut(width).zip(nodes) {
                compute_ranges_on_demand(g, &mut scratch, NodeId(u as u32), k, log_delta, row_out);
            }
            out
        })
        .into_iter()
        .flatten()
        .collect();
        Decomposition { k, n, ranges, log_delta }
    }

    /// The trade-off parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `⌈log₂ Δ⌉`, the largest radius exponent in `I`.
    pub fn log_delta(&self) -> u32 {
        self.log_delta
    }

    /// The range `a(u, i)` for `i ∈ {0, …, k}`.
    pub fn a(&self, u: NodeId, i: usize) -> u32 {
        debug_assert!(i <= self.k);
        self.ranges[u.idx() * (self.k + 1) + i]
    }

    /// Radius of `A(u, i)`: `2^{a(u,i)}` for `i ≥ 1`; 0 for `i = 0`
    /// (the paper sets `A(u,0) = {u}`). Saturating per
    /// [`octave_radius`] once the exponent leaves `u64` (see the cap
    /// documented there).
    pub fn ball_radius(&self, u: NodeId, i: usize) -> Cost {
        if i == 0 {
            0
        } else {
            octave_radius(self.a(u, i))
        }
    }

    /// Number of nodes in `A(u, i)`.
    pub fn ball_size(&self, d: &DistMatrix, u: NodeId, i: usize) -> usize {
        d.ball_size(u, self.ball_radius(u, i))
    }

    /// Is level `i ∈ {0, …, k−1}` dense for `u` (Definition 2)?
    pub fn is_dense(&self, u: NodeId, i: usize) -> bool {
        debug_assert!(i < self.k, "level classification needs a(u, i+1)");
        let a_i = self.a(u, i);
        let a_next = self.a(u, i + 1);
        a_i < a_next && a_next <= a_i + 3
    }

    /// The range set `L(u) = {a(u,i) : i ∈ K}` (sorted, deduplicated).
    pub fn range_set(&self, u: NodeId) -> Vec<u32> {
        let mut l: Vec<u32> = (0..=self.k).map(|i| self.a(u, i)).collect();
        l.sort_unstable();
        l.dedup();
        l
    }

    /// The extended range set
    /// `R(u) = {i ∈ I : ∃a ∈ L(u), −1 ≤ a − i ≤ 4}` (sorted).
    pub fn extended_range_set(&self, u: NodeId) -> Vec<u32> {
        let mut r = Vec::new();
        for a in self.range_set(u) {
            let lo = a.saturating_sub(4);
            let hi = (a + 1).min(self.log_delta);
            for i in lo..=hi {
                r.push(i);
            }
        }
        r.sort_unstable();
        r.dedup();
        r
    }

    /// Is scale `i ∈ I` in `R(u)`? (Constant-time form the scheme uses
    /// for the member sets `V_i` of the subgraphs `G_i`.)
    pub fn in_extended_range(&self, u: NodeId, i: u32) -> bool {
        if i > self.log_delta {
            return false;
        }
        (0..=self.k).any(|lvl| {
            let a = self.a(u, lvl);
            // −1 ≤ a − i ≤ 4  ⟺  a ≥ i − 1 and a ≤ i + 4.
            a + 1 >= i && a <= i + 4
        })
    }

    /// Members of `F(u, i) = B(u, 2^{a(u,i)−1})`, the region a dense
    /// level's cover tree is guaranteed to reach (Lemma 8).
    /// Membership test: `2·d(u,v) ≤ 2^{a(u,i)}`, evaluated as
    /// `d(u,v) ≤ 2^{a(u,i)}/2` so huge distances cannot overflow the
    /// doubled side.
    pub fn f_members(&self, d: &DistMatrix, u: NodeId, i: usize) -> Vec<u32> {
        let radius = self.f_radius(u, i);
        d.row(u)
            .iter()
            .enumerate()
            .filter(|&(_, &dist)| dist != graphkit::INFINITY && dist <= radius)
            .map(|(v, _)| v as u32)
            .collect()
    }

    /// Largest integer distance inside `F(u, i)`: `⌊2^{a(u,i)}/2⌋`.
    pub fn f_radius(&self, u: NodeId, i: usize) -> Cost {
        octave_radius(self.a(u, i)) / 2
    }

    /// Members of `E(u, i) = B(u, 2^{a(u,i+1)}/6)`, the region a sparse
    /// level's landmark search is guaranteed to reach (Lemma 10).
    /// Membership test: `6·d(u,v) ≤ 2^{a(u,i+1)}`, evaluated as
    /// `d(u,v) ≤ 2^{a(u,i+1)}/6` (overflow-safe, same integer set).
    pub fn e_members(&self, d: &DistMatrix, u: NodeId, i: usize) -> Vec<u32> {
        debug_assert!(i < self.k);
        let radius = self.e_radius(u, i);
        d.row(u)
            .iter()
            .enumerate()
            .filter(|&(_, &dist)| dist != graphkit::INFINITY && dist <= radius)
            .map(|(v, _)| v as u32)
            .collect()
    }

    /// Radius of `E(u,i)` as an exact rational bound `2^{a(u,i+1)}/6`,
    /// returned as the largest integer distance that qualifies.
    pub fn e_radius(&self, u: NodeId, i: usize) -> Cost {
        octave_radius(self.a(u, i + 1)) / 6
    }

    /// Is `E(u, i)` the whole (connected) graph by construction? True
    /// exactly when `a(u,i+1)` hit the `⌈log₂ Δ⌉ + 3` cap *and* the
    /// cap's octave is exact, since then `2^{cap}/6 ≥ 8Δ/6 > Δ`. The
    /// scheme uses this to swap a Θ(n)-member enumeration for an O(1)
    /// "all nodes" scope.
    pub fn e_is_global(&self, u: NodeId, i: usize) -> bool {
        debug_assert!(i < self.k);
        self.a(u, i + 1) == self.log_delta && self.log_delta < 64
    }

    /// Serialize into a wire buffer (snapshot support).
    pub fn to_wire(&self, w: &mut graphkit::wire::Writer) {
        w.u64(self.k as u64);
        w.u64(self.n as u64);
        w.u32(self.log_delta);
        w.slice_u32(&self.ranges);
    }

    /// Inverse of [`Decomposition::to_wire`]; corrupt input is an
    /// `InvalidData` error, never a panic.
    pub fn from_wire(r: &mut graphkit::wire::Reader<'_>) -> std::io::Result<Self> {
        let k = r.u64()? as usize;
        let n = r.u64()? as usize;
        let log_delta = r.u32()?;
        let ranges = r.slice_u32()?;
        if k < 1 || n < 2 || log_delta < 4 {
            return Err(graphkit::wire::invalid("bad decomposition header"));
        }
        if ranges.len() != n * (k + 1) {
            return Err(graphkit::wire::invalid("decomposition range table has wrong length"));
        }
        for row in ranges.chunks(k + 1) {
            // Ranges are radius exponents: non-decreasing per node,
            // capped at log_delta, with a(u, k) forced to the cap.
            // lint:allow(panic-free-serve): chunks(k+1) yields rows of exactly k+1 > k elements, so row[k] is in bounds
            if row.windows(2).any(|p| p[0] > p[1]) || row[k] != log_delta {
                return Err(graphkit::wire::invalid("decomposition ranges are not monotone"));
            }
        }
        Ok(Decomposition { k, n, ranges, log_delta })
    }
}

/// Compute `a(u, 0..=k)` into `out`.
fn compute_ranges(d: &DistMatrix, u: NodeId, k: usize, log_delta: u32, out: &mut [u32]) {
    let mut sorted: Vec<u64> = d.row(u).to_vec();
    sorted.sort_unstable();
    let n = d.n() as u64;
    // octave_radius keeps huge caps (⌈log₂Δ⌉ ≥ 61) from overflowing
    // the shift while still excluding INFINITY (unreachable) entries.
    let size_at = |j: u32| -> u64 { sorted.partition_point(|&x| x <= octave_radius(j)) as u64 };
    out[0] = 0;
    let mut prev_size = 1u64; // |A(u,0)| = 1
    for i in 1..=k {
        let prev_a = out[i - 1];
        // Smallest j > 0 with |B(u,2^j)| ≥ n^{1/k} · prev_size.
        // (For i ≥ 2 growth forces j > prev_a; scanning from prev_a+1
        // is safe because |B(u,2^{prev_a})| = prev_size < target. For
        // i = 1, prev_size = |{u}| ≤ |B(u,2^0)|, so start at j = 1.)
        let start = if i == 1 { 1 } else { prev_a + 1 };
        let mut chosen = None;
        for j in start..=log_delta {
            if grows_enough(size_at(j), prev_size, n, k as u32) {
                chosen = Some(j);
                break;
            }
        }
        let a_i = chosen.unwrap_or(log_delta);
        out[i] = a_i;
        prev_size = size_at(a_i);
    }
    // Coverage override: the top range always reaches the cap (see
    // `Decomposition::build` docs).
    out[k] = log_delta;
}

/// Matrix-free twin of [`compute_ranges`]: identical output, but each
/// level's crossing octave comes from a size-capped Dijkstra (the
/// `target`-th settled node's distance pins the smallest octave whose
/// ball reaches the growth target) instead of a sorted dense row.
fn compute_ranges_on_demand(
    g: &Graph,
    scratch: &mut DijkstraScratch,
    u: NodeId,
    k: usize,
    log_delta: u32,
    out: &mut [u32],
) {
    let n = g.n() as u64;
    out[0] = 0;
    let mut prev_size = 1u64; // |A(u,0)| = 1
    for i in 1..k {
        let start = if i == 1 { 1 } else { out[i - 1] + 1 };
        let a_i = match smallest_growth_target(prev_size, n, k as u32) {
            Some(target) if start <= log_delta => {
                scratch.run(g, u, graphkit::INFINITY - 1, target as usize);
                if (scratch.settled().len() as u64) < target {
                    log_delta // ball never grows enough: cap
                } else {
                    let d_target = scratch.settled()[target as usize - 1].0;
                    ceil_log2(d_target).max(start).min(log_delta)
                }
            }
            _ => log_delta,
        };
        out[i] = a_i;
        if i + 1 < k {
            scratch.run(g, u, octave_radius(a_i), usize::MAX);
            prev_size = scratch.settled().len() as u64;
        }
    }
    // Coverage override: the top range always reaches the cap (see
    // `Decomposition::build` docs).
    out[k] = log_delta;
}

/// Smallest integer `s` with `grows_enough(s, prev, n, k)`, i.e. the
/// ball size the next level must reach; `None` when even `s = n`
/// fails (the level caps at `⌈log₂ Δ⌉`).
fn smallest_growth_target(prev: u64, n: u64, k: u32) -> Option<u64> {
    if !grows_enough(n, prev, n, k) {
        return None;
    }
    let (mut lo, mut hi) = (prev, n); // invariant: ¬grows(lo), grows(hi)
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if grows_enough(mid, prev, n, k) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Exact test `size ≥ n^{1/k} · prev` via `size^k ≥ n · prev^k` in
/// u128 (falls back to f64 only on overflow, which needs n > 2^25 at
/// k = 5 — beyond any workload here).
fn grows_enough(size: u64, prev: u64, n: u64, k: u32) -> bool {
    fn pow_checked(b: u64, e: u32) -> Option<u128> {
        let mut acc: u128 = 1;
        for _ in 0..e {
            acc = acc.checked_mul(b as u128)?;
        }
        Some(acc)
    }
    match (pow_checked(size, k), pow_checked(prev, k).and_then(|p| p.checked_mul(n as u128))) {
        (Some(l), Some(r)) => l >= r,
        _ => (size as f64) >= (n as f64).powf(1.0 / k as f64) * prev as f64,
    }
}

/// Result of checking Lemma 2 over all dense levels.
#[derive(Clone, Debug, Default)]
pub struct Lemma2Report {
    /// (u, i, v) triples checked.
    pub checked: usize,
    /// Triples where `a(u,i) ∉ R(v)`.
    pub violations: usize,
    /// Largest `|R(u)|` seen (the paper bounds it by `6(k+1)`).
    pub max_extended_range: usize,
}

/// Verify Lemma 2: for every `u`, dense level `i`, and `v ∈ F(u,i)`,
/// the scale `a(u,i)` belongs to `R(v)`.
pub fn verify_lemma2(d: &DistMatrix, dec: &Decomposition) -> Lemma2Report {
    let mut report = Lemma2Report::default();
    for u in 0..dec.n() as u32 {
        let u = NodeId(u);
        report.max_extended_range = report.max_extended_range.max(dec.extended_range_set(u).len());
        for i in 0..dec.k() {
            if !dec.is_dense(u, i) {
                continue;
            }
            let a = dec.a(u, i);
            for v in dec.f_members(d, u, i) {
                report.checked += 1;
                if !dec.in_extended_range(NodeId(v), a) {
                    report.violations += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::Family;
    use graphkit::metrics::apsp;

    fn dec_for(fam: Family, n: usize, k: usize, seed: u64) -> (DistMatrix, Decomposition) {
        let g = fam.generate(n, seed);
        let d = apsp(&g);
        let dec = Decomposition::build(&d, k);
        (d, dec)
    }

    #[test]
    fn ranges_monotone_and_capped() {
        for fam in [Family::ErdosRenyi, Family::Ring, Family::ExpRing] {
            let (_, dec) = dec_for(fam, 150, 3, 31);
            for u in 0..150u32 {
                let u = NodeId(u);
                assert_eq!(dec.a(u, 0), 0);
                for i in 0..3 {
                    assert!(dec.a(u, i) <= dec.a(u, i + 1), "{}: ranges not monotone", fam.label());
                    assert!(dec.a(u, i + 1) <= dec.log_delta());
                }
            }
        }
    }

    #[test]
    fn growth_condition_holds() {
        // Whenever a(u,i+1) was *not* capped at logΔ, the ball must have
        // grown by ≥ n^{1/k}; and 2^{a(u,i+1)} is the smallest such octave.
        let (d, dec) = dec_for(Family::Geometric, 200, 3, 32);
        let n = 200u64;
        for u in (0..200u32).step_by(13) {
            let u = NodeId(u);
            for i in 0..3usize {
                let a_next = dec.a(u, i + 1);
                let prev_size = dec.ball_size(&d, u, i) as u64;
                let next_size = d.ball_size(u, octave_radius(a_next)) as u64;
                if a_next < dec.log_delta() {
                    assert!(
                        grows_enough(next_size, prev_size, n, 3),
                        "growth violated at u={u:?} i={i}"
                    );
                    // Minimality: one octave earlier must not suffice
                    // (unless it is not a positive integer).
                    if a_next >= 2 && a_next - 1 > if i == 0 { 0 } else { dec.a(u, i) } {
                        let smaller = d.ball_size(u, octave_radius(a_next - 1)) as u64;
                        assert!(
                            !grows_enough(smaller, prev_size, n, 3),
                            "a(u,{}) not minimal at u={u:?}",
                            i + 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dense_classification_matches_definition() {
        let (_, dec) = dec_for(Family::ErdosRenyi, 180, 3, 33);
        for u in 0..180u32 {
            let u = NodeId(u);
            for i in 0..3usize {
                let (a, b) = (dec.a(u, i), dec.a(u, i + 1));
                assert_eq!(dec.is_dense(u, i), a < b && b <= a + 3);
            }
        }
    }

    #[test]
    fn extended_range_is_union_of_windows() {
        let (_, dec) = dec_for(Family::Grid, 144, 2, 34);
        for u in (0..144u32).step_by(7) {
            let u = NodeId(u);
            let r = dec.extended_range_set(u);
            for &i in &r {
                assert!(dec.in_extended_range(u, i));
                assert!(
                    dec.range_set(u).iter().any(|&a| a + 1 >= i && a <= i + 4),
                    "scale {i} in R(u) without a witness"
                );
            }
            // Complement check on a sample of scales.
            for i in 0..=dec.log_delta() {
                assert_eq!(dec.in_extended_range(u, i), r.binary_search(&i).is_ok());
            }
        }
    }

    #[test]
    fn extended_range_is_o_of_k() {
        // |R(u)| ≤ 6(k+1) regardless of Δ — the scale-free heart.
        for fam in [Family::ExpRing, Family::ExpTree] {
            for k in [1usize, 2, 4] {
                let (_, dec) = dec_for(fam, 120, k, 35);
                for u in 0..120u32 {
                    let r = dec.extended_range_set(NodeId(u)).len();
                    assert!(r <= 6 * (k + 1), "{} k={k}: |R(u)|={r} exceeds 6(k+1)", fam.label());
                }
            }
        }
    }

    #[test]
    fn lemma2_holds_on_all_families() {
        for fam in Family::ALL {
            let (d, dec) = dec_for(fam, 100, 3, 36);
            let rep = verify_lemma2(&d, &dec);
            assert_eq!(rep.violations, 0, "{}: Lemma 2 violated", fam.label());
        }
    }

    #[test]
    fn lemma2_exercised_on_dense_graphs() {
        // ER with avg degree 8 at n=200 has genuinely dense levels.
        let (d, dec) = dec_for(Family::ErdosRenyi, 200, 2, 37);
        let rep = verify_lemma2(&d, &dec);
        assert!(rep.checked > 0, "no dense (u,i,v) triples checked");
        assert_eq!(rep.violations, 0);
    }

    #[test]
    fn f_and_e_members_are_balls() {
        let (d, dec) = dec_for(Family::Geometric, 150, 3, 38);
        for u in (0..150u32).step_by(11) {
            let u = NodeId(u);
            for i in 1..3usize {
                let f = dec.f_members(&d, u, i);
                assert!(f.contains(&u.0), "u must lie in F(u,i)");
                // Divided form of 2·d ≤ 2^{a(u,i)} — same integer set,
                // and safe when a(u,i) ≥ 64 (octave_radius saturates).
                let bound = dec.f_radius(u, i);
                for &v in &f {
                    assert!(d.d(u, NodeId(v)) <= bound);
                }
                let e = dec.e_members(&d, u, i - 1);
                assert!(e.contains(&u.0));
                for &v in &e {
                    assert!(d.d(u, NodeId(v)) <= dec.e_radius(u, i - 1));
                }
            }
        }
    }

    #[test]
    fn e_subset_of_next_ball() {
        // E(u,i) ⊆ A(u,i+1) since 2^{a}/6 < 2^{a}.
        let (d, dec) = dec_for(Family::PrefAttach, 130, 3, 39);
        for u in (0..130u32).step_by(9) {
            let u = NodeId(u);
            for i in 0..3usize {
                let r_next = dec.ball_radius(u, i + 1);
                for v in dec.e_members(&d, u, i) {
                    assert!(d.d(u, NodeId(v)) <= r_next);
                }
            }
        }
    }

    #[test]
    fn sparse_levels_dominate_on_exp_ring() {
        // On the exponential ring, ball sizes grow slowly per octave, so
        // most levels must be sparse.
        let (_, dec) = dec_for(Family::ExpRing, 100, 3, 40);
        let mut dense = 0;
        let mut total = 0;
        for u in 0..100u32 {
            for i in 0..3usize {
                total += 1;
                if dec.is_dense(NodeId(u), i) {
                    dense += 1;
                }
            }
        }
        assert!(dense * 2 < total, "exp-ring unexpectedly dense: {dense}/{total}");
    }

    #[test]
    fn dense_levels_dominate_on_complete_like() {
        // On ER with high degree, the whole graph fits in few octaves:
        // the first level is dense for most nodes.
        let (_, dec) = dec_for(Family::ErdosRenyi, 150, 2, 41);
        let dense0 = (0..150u32).filter(|&u| dec.is_dense(NodeId(u), 0)).count();
        assert!(dense0 > 75, "expected mostly-dense level 0, got {dense0}/150");
    }

    #[test]
    fn on_demand_build_matches_dense() {
        for fam in [Family::ErdosRenyi, Family::ExpRing, Family::Geometric, Family::ExpTree] {
            for k in [1usize, 2, 3] {
                let g = fam.generate(120, 61);
                let d = apsp(&g);
                let dense = Decomposition::build(&d, k);
                let od = Decomposition::build_on_demand(&g, k);
                assert_eq!(dense.log_delta(), od.log_delta(), "{} k={k}", fam.label());
                for u in 0..g.n() as u32 {
                    for i in 0..=k {
                        assert_eq!(
                            dense.a(NodeId(u), i),
                            od.a(NodeId(u), i),
                            "{} k={k} u={u} i={i}",
                            fam.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn near_u64_max_weights_do_not_overflow() {
        // One edge near u64::MAX pushes ⌈log₂Δ⌉ to 63, so the +3 cap
        // would shift past the u64 range without the saturating
        // octave_radius — this used to panic in debug builds.
        let g = graphkit::graph_from_edges(
            4,
            &[(0, 1, u64::MAX - 2), (1, 2, 1), (2, 3, 7), (3, 0, u64::MAX / 2)],
        );
        let d = apsp(&g);
        for k in [1usize, 2, 3] {
            let dense = Decomposition::build(&d, k);
            let od = Decomposition::build_on_demand(&g, k);
            assert_eq!(dense.log_delta(), od.log_delta());
            assert!(dense.log_delta() >= 64, "cap must exceed the shift range");
            for u in 0..4u32 {
                let u = NodeId(u);
                for i in 0..=k {
                    assert_eq!(dense.a(u, i), od.a(u, i));
                    // Saturated radii stay finite and ordered.
                    assert!(dense.ball_radius(u, i) < graphkit::INFINITY);
                }
                for i in 0..k {
                    assert!(dense.e_radius(u, i) < graphkit::INFINITY);
                    // Divided-membership path at range exponents ≥ 64:
                    // every member satisfies d ≤ ⌊2^{a}/6⌋ exactly (the
                    // multiplied/shifted form `6·d ≤ 1 << a` would
                    // overflow the shift here).
                    let er = dense.e_radius(u, i);
                    for v in 0..4u32 {
                        let dv = d.d(u, NodeId(v));
                        assert_eq!(
                            dense.e_members(&d, u, i).contains(&v),
                            dv != graphkit::INFINITY && dv <= er
                        );
                    }
                }
                for i in 1..=k {
                    let fr = dense.f_radius(u, i);
                    for v in 0..4u32 {
                        let dv = d.d(u, NodeId(v));
                        assert_eq!(
                            dense.f_members(&d, u, i).contains(&v),
                            dv != graphkit::INFINITY && dv <= fr
                        );
                    }
                }
                // Extended ranges and classification stay computable.
                let _ = dense.extended_range_set(u);
                let _ = dense.is_dense(u, 0);
            }
        }
    }

    #[test]
    fn on_demand_handles_disconnected_graphs() {
        let g = graphkit::graph_from_edges(
            8,
            &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (4, 5, 9), (5, 6, 9), (6, 7, 9)],
        );
        let d = apsp(&g);
        for k in [1usize, 2, 3] {
            let dense = Decomposition::build(&d, k);
            let od = Decomposition::build_on_demand(&g, k);
            for u in 0..8u32 {
                for i in 0..=k {
                    assert_eq!(dense.a(NodeId(u), i), od.a(NodeId(u), i), "k={k} u={u} i={i}");
                }
            }
        }
    }

    #[test]
    fn grows_enough_exact_cases() {
        // size^k >= n * prev^k: 4^2 = 16 >= 16 * 1.
        assert!(grows_enough(4, 1, 16, 2));
        assert!(!grows_enough(3, 1, 16, 2));
        // Equality boundary with prev > 1: (6)^2 = 36 >= 9 * 4 = 36.
        assert!(grows_enough(6, 2, 9, 2));
        assert!(!grows_enough(5, 2, 9, 2));
    }
}
