//! Θ(log n)-wise independent hashing into Σ^k digit strings (Lemma 4).
//!
//! The paper requires a hash `h : V → Σ^k` such that for every prefix
//! length `j`, no `(j-1)`-digit prefix is shared by more than
//! `|Σ| · log n` of the nodes in `V_j`, and cites the classic
//! polynomial construction (Carter–Wegman '79, Motwani–Raghavan '95):
//! a degree-`Θ(log n)` polynomial over a prime field is Θ(log n)-wise
//! independent. We evaluate over the Mersenne prime `p = 2^61 − 1` and
//! expand the field element in base |Σ| to obtain the digits.
//!
//! The construction is randomized; callers *verify* the load property
//! (`Lemma 4` building code does) and re-seed on failure — the paper's
//! "with high probability" made effective.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The Mersenne prime 2^61 − 1.
pub const FIELD_P: u64 = (1 << 61) - 1;

/// Degree-d polynomial hash over GF(p), p = 2^61 − 1.
#[derive(Clone, Debug)]
pub struct PolyHash {
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// Fresh hash with `degree + 1` random coefficients. `degree` should
    /// be Θ(log n) for the independence the analysis needs.
    pub fn new(degree: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let coeffs = (0..=degree).map(|_| rng.gen_range(0..FIELD_P)).collect();
        PolyHash { coeffs }
    }

    /// Conventional degree for an n-element universe: `ceil(log2 n) + 2`.
    pub fn degree_for(n: usize) -> usize {
        (graphkit::ids::ceil_log2(n.max(2) as u64) + 2) as usize
    }

    /// Evaluate the polynomial at `x` (Horner over GF(p)).
    pub fn eval(&self, x: u64) -> u64 {
        poly_eval(self.coeffs.iter().copied(), x)
    }

    /// Hash `x` to `k` digits, each in `0..sigma` (most significant
    /// first). Requires `sigma^k ≤ p` so digits are near-uniform.
    pub fn digits(&self, x: u64, sigma: u64, k: usize) -> Vec<u32> {
        let mut out = vec![0u32; k];
        self.digits_into(x, sigma, &mut out);
        out
    }

    /// Allocation-free variant of [`PolyHash::digits`]: write `out.len()`
    /// digits (most significant first) into `out`. The hot path of bulk
    /// directory building, where a `Vec` per hashed id would dominate.
    pub fn digits_into(&self, x: u64, sigma: u64, out: &mut [u32]) {
        // σ = 0 is no alphabet; read it as unary (every digit 0) so the
        // expansion stays total.
        let sigma = sigma.max(1);
        let mut v = self.eval(x);
        for d in out.iter_mut().rev() {
            *d = (v % sigma) as u32;
            v /= sigma;
        }
    }

    /// The coefficient vector (for serialization).
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Rebuild from a serialized coefficient vector: `None` unless it
    /// is non-empty and every coefficient lies in GF(p).
    pub fn try_from_coeffs(coeffs: Vec<u64>) -> Option<Self> {
        (!coeffs.is_empty() && coeffs.iter().all(|&c| c < FIELD_P)).then_some(PolyHash { coeffs })
    }

    /// Bits to store the hash description (the coefficient vector) —
    /// Θ(log² n) when degree = Θ(log n).
    pub fn storage_bits(&self) -> u64 {
        self.coeffs.len() as u64 * 61
    }
}

/// Horner evaluation over GF(p) of the coefficients `coeffs` (highest
/// degree first) at `x` — shared by [`PolyHash`] and hash descriptions
/// read in place from a record. Every coefficient must be below
/// [`FIELD_P`].
pub(crate) fn poly_eval(coeffs: impl IntoIterator<Item = u64>, x: u64) -> u64 {
    let x = x % FIELD_P;
    let mut acc: u64 = 0;
    for c in coeffs {
        acc = mul_mod(acc, x);
        acc = add_mod(acc, c);
    }
    acc
}

/// Digit `i` (0 = most significant) of the `k`-digit base-`sigma`
/// expansion of `v` — exactly `digits(…)[i]`, computed without the
/// buffer. Digits above the expansion's top are 0.
pub(crate) fn digit_at(v: u64, sigma: u64, k: usize, i: usize) -> u32 {
    if sigma <= 1 {
        return 0;
    }
    let e = k.saturating_sub(i + 1);
    match u32::try_from(e).ok().and_then(|e| sigma.checked_pow(e)) {
        Some(p) => ((v / p) % sigma) as u32,
        // σ^e ≥ 2^64 > v.
        None => 0,
    }
}

#[inline]
fn add_mod(a: u64, b: u64) -> u64 {
    let s = a + b; // both < 2^61, no overflow in u64
    if s >= FIELD_P {
        s - FIELD_P
    } else {
        s
    }
}

#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    (((a as u128) * (b as u128)) % (FIELD_P as u128)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_arithmetic() {
        assert_eq!(add_mod(FIELD_P - 1, 1), 0);
        assert_eq!(add_mod(FIELD_P - 1, 2), 1);
        assert_eq!(mul_mod(FIELD_P - 1, 2), FIELD_P - 2); // (-1)*2 = -2
        assert_eq!(mul_mod(0, 12345), 0);
    }

    #[test]
    fn eval_is_deterministic_and_seeded() {
        let h1 = PolyHash::new(8, 42);
        let h2 = PolyHash::new(8, 42);
        let h3 = PolyHash::new(8, 43);
        assert_eq!(h1.eval(999), h2.eval(999));
        assert_ne!(h1.eval(999), h3.eval(999)); // overwhelmingly likely
    }

    #[test]
    fn digits_in_range_and_consistent() {
        let h = PolyHash::new(10, 7);
        for x in 0..200u64 {
            let d = h.digits(x, 16, 5);
            assert_eq!(d.len(), 5);
            assert!(d.iter().all(|&x| x < 16));
            assert_eq!(d, h.digits(x, 16, 5));
        }
    }

    #[test]
    fn digits_roughly_uniform() {
        let h = PolyHash::new(PolyHash::degree_for(4096), 11);
        let sigma = 8u64;
        let mut counts = vec![0usize; sigma as usize];
        let samples = 8000u64;
        for x in 0..samples {
            counts[h.digits(x, sigma, 4)[0] as usize] += 1;
        }
        let expect = samples as f64 / sigma as f64;
        for &c in &counts {
            assert!(
                (c as f64) > 0.5 * expect && (c as f64) < 1.5 * expect,
                "first digit skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn degree_for_scales() {
        assert!(PolyHash::degree_for(2) >= 3);
        assert!(PolyHash::degree_for(1 << 20) >= 22);
    }

    #[test]
    fn storage_bits_matches_degree() {
        let h = PolyHash::new(12, 1);
        assert_eq!(h.storage_bits(), 13 * 61);
    }

    #[test]
    fn digit_at_matches_the_expansion() {
        let h = PolyHash::new(9, 3);
        for x in 0..300u64 {
            let v = h.eval(x);
            for (sigma, k) in [(2u64, 5usize), (7, 3), (16, 5), (1 << 40, 3), (3, 70)] {
                let all = h.digits(x, sigma, k);
                for (i, &d) in all.iter().enumerate() {
                    assert_eq!(digit_at(v, sigma, k, i), d, "x={x} sigma={sigma} k={k} i={i}");
                }
            }
        }
        assert_eq!(digit_at(12345, 1, 4, 0), 0);
        assert_eq!(digit_at(12345, 0, 4, 3), 0);
    }

    #[test]
    fn coefficients_outside_the_field_are_rejected() {
        assert!(PolyHash::try_from_coeffs(vec![]).is_none());
        assert!(PolyHash::try_from_coeffs(vec![1, FIELD_P]).is_none());
        assert!(PolyHash::try_from_coeffs(vec![1, u64::MAX]).is_none());
        let h = PolyHash::try_from_coeffs(vec![3, FIELD_P - 1]).unwrap();
        assert_eq!(h.eval(5), poly_eval([3, FIELD_P - 1], 5));
    }

    #[test]
    fn single_digit_base_one_is_zero() {
        let h = PolyHash::new(4, 9);
        assert_eq!(h.digits(55, 1, 3), vec![0, 0, 0]);
    }
}
