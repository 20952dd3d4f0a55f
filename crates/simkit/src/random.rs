//! Seeded randomness and the distributions the simulation needs.
//!
//! Everything is built on `rand::rngs::StdRng` so a single `u64` master
//! seed reproduces a whole experiment. Independent sub-streams (one per
//! device, per workload, per replication) are derived with
//! [`derive_seed`], a SplitMix64 step, so adding a new consumer never
//! perturbs existing streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derive an independent sub-seed from `master` for logical `stream`.
///
/// Uses the SplitMix64 finalizer, which is a bijection with excellent
/// avalanche behaviour, so distinct streams give uncorrelated seeds.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic RNG with the distribution helpers used across the
/// workspace.
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: StdRng,
}

impl SimRng {
    /// Seed a new stream.
    pub fn new(seed: u64) -> Self {
        SimRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Fork an independent child stream identified by `stream`.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(derive_seed(self.rng.gen(), stream))
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform bounds inverted");
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform bounds inverted");
        self.rng.gen_range(lo..=hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform01() < p.clamp(0.0, 1.0)
    }

    /// Exponential with the given `mean` (i.e. rate `1/mean`).
    ///
    /// # Panics
    /// Panics if `mean` is not strictly positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse CDF; (1 - u) avoids ln(0).
        -mean * (1.0 - self.uniform01()).ln()
    }

    /// Normal via Box–Muller: [`SimRng::normal_draw`], then
    /// [`SimRng::normal_finish`].
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std dev must be non-negative");
        let (u1, u2) = self.normal_draw();
        Self::normal_finish(u1, u2, mean, std_dev)
    }

    /// The two uniforms one Box–Muller normal consumes: `u1` in
    /// `(0, 1]`, then `u2` in `[0, 1)`. The normal's sign is the sign of
    /// `cos(τ·u2)`, so a caller can read it before paying for the rest.
    #[inline]
    pub fn normal_draw(&mut self) -> (f64, f64) {
        let u1: f64 = (1.0 - self.uniform01()).max(f64::MIN_POSITIVE);
        (u1, self.uniform01())
    }

    /// The normal with `mean` and `std_dev` that the uniforms of
    /// [`SimRng::normal_draw`] give.
    #[inline]
    pub fn normal_finish(u1: f64, u2: f64, mean: f64, std_dev: f64) -> f64 {
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Normal truncated below at `floor` (re-draws are avoided by clamping,
    /// which is adequate for the mild truncations used here).
    pub fn normal_at_least(&mut self, mean: f64, std_dev: f64, floor: f64) -> f64 {
        self.normal(mean, std_dev).max(floor)
    }

    /// Log-normal such that the *underlying* normal has parameters
    /// (`mu`, `sigma`).
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto with scale `x_min > 0` and shape `alpha > 0`.
    #[cfg(test)]
    fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(
            x_min > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        x_min / (1.0 - self.uniform01()).powf(1.0 / alpha)
    }

    /// Index drawn from the discrete distribution proportional to
    /// `weights` (non-negative, not all zero).
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.uniform01() * total;
        for (i, &w) in weights.iter().enumerate() {
            assert!(w >= 0.0, "weights must be non-negative");
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1 // floating-point slack lands on the last bucket
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_u64(0, i as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Raw access for callers needing the full `rand` API.
    pub fn raw(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform01().to_bits(), b.uniform01().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.uniform01() == b.uniform01()).count();
        assert!(same < 4);
    }

    #[test]
    fn derive_seed_distinct_streams() {
        let s1 = derive_seed(7, 0);
        let s2 = derive_seed(7, 1);
        assert_ne!(s1, s2);
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::new(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn bernoulli_rate_close() {
        let mut r = SimRng::new(5);
        let hits = (0..10_000).filter(|_| r.bernoulli(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.03);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(6);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..8_000 {
            counts[r.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn pareto_never_below_scale() {
        let mut r = SimRng::new(7);
        assert!((0..2_000).all(|_| r.pareto(2.0, 1.5) >= 2.0));
    }

    #[test]
    fn normal_at_least_respects_floor() {
        let mut r = SimRng::new(8);
        assert!((0..2_000).all(|_| r.normal_at_least(0.0, 10.0, -1.0) >= -1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::new(10);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..32).filter(|_| c1.uniform01() == c2.uniform01()).count();
        assert!(same < 4);
    }
}
