//! Seeded randomness and the distributions the simulation needs.
//!
//! Everything is built on `rand::rngs::StdRng` so a single `u64` master
//! seed reproduces a whole experiment. Independent sub-streams (one per
//! device, per workload, per replication) are derived with
//! [`derive_seed`], a SplitMix64 step, so adding a new consumer never
//! perturbs existing streams.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// `ln m = s · Σ LN_SERIES[j]·s²ʲ`: `2·atanh(s)`'s series, `2/(2j + 1)`.
const LN_SERIES: [f64; 4] = [2.0, 2.0 / 3.0, 2.0 / 5.0, 2.0 / 7.0];

/// `cos(τ·b) ≈ Σ COS_TURN[j]·b²ʲ`: Taylor's `(−1)ʲ·τ²ʲ/(2j)!`.
const COS_TURN: [f64; 7] = {
    let tau = std::f64::consts::TAU;
    let tau2 = tau * tau;
    let mut c = [1.0; 7];
    let mut j = 1;
    while j < c.len() {
        c[j] = -c[j - 1] * tau2 / ((2 * j - 1) * 2 * j) as f64;
        j += 1;
    }
    c
};

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

    /// Uniform in `[0, 1)`: [`SimRng::bits53`] times 2⁻⁵³.
    pub fn uniform01(&mut self) -> f64 {
        Self::unit53(self.bits53())
    }

    /// The 53 random bits one uniform is made of: the top of the next
    /// `u64`, the draw [`SimRng::uniform01`] makes.
    #[inline]
    pub fn bits53(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    /// The uniform in `[0, 1)` that `bits` (below 2⁵³) make:
    /// `bits · 2⁻⁵³`, exact.
    #[inline]
    fn unit53(bits: u64) -> f64 {
        bits as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The integer cut of [`SimRng::bernoulli`]: `bits53() <
    /// bernoulli_cut(p)` exactly when `uniform01() < p.clamp(0, 1)` for
    /// the same draw. It is `⌈p · 2⁵³⌉`, since a uniform is `bits · 2⁻⁵³`
    /// exactly (a NaN `p` cuts at 0: no draw is below it).
    pub fn bernoulli_cut(p: f64) -> u64 {
        let scaled = p.clamp(0.0, 1.0) * (1u64 << 53) as f64;
        let floor = scaled as u64;
        floor + u64::from((floor as f64) < scaled)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform bounds inverted");
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Inline, so that a
    /// caller's constant bounds make the rejection zone's `%` a constant.
    #[inline]
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

    /// Normal via Box–Muller: two [`SimRng::bits53`] draws, made
    /// uniforms by [`SimRng::normal_uniforms`], then
    /// [`SimRng::normal_finish`].
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std dev must be non-negative");
        let (u1, u2) = self.normal_draw();
        Self::normal_finish(u1, u2, mean, std_dev)
    }

    /// The uniforms of [`SimRng::normal_uniforms`], drawn.
    #[inline]
    fn normal_draw(&mut self) -> (f64, f64) {
        let bits1 = self.bits53();
        Self::normal_uniforms(bits1, self.bits53())
    }

    /// The two uniforms one Box–Muller normal consumes, made of its two
    /// [`SimRng::bits53`] draws, `bits1` then `bits2`: `u1` in `(0, 1]`,
    /// then `u2` in `[0, 1)`. The normal's sign is the sign of
    /// `cos(τ·u2)`, so a caller can read it before paying for the rest.
    #[inline]
    pub fn normal_uniforms(bits1: u64, bits2: u64) -> (f64, f64) {
        let u1 = (1.0 - Self::unit53(bits1)).max(f64::MIN_POSITIVE);
        (u1, Self::unit53(bits2))
    }

    /// The normal with `mean` and `std_dev` that the uniforms of
    /// [`SimRng::normal_uniforms`] give.
    #[inline]
    pub fn normal_finish(u1: f64, u2: f64, mean: f64, std_dev: f64) -> f64 {
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Bound on |[`SimRng::normal_near`] − `normal_finish(u1, u2, 0, 1)`|
    /// over `u1` in `[MIN_POSITIVE, 1]` and `u2` in `[0, 1)`, derived in
    /// DESIGN.md §10: series truncation and rounding, the platform libm's
    /// ulps and the rounding of `z ± δ` sum to less than 2.8·10⁻⁷.
    pub const NORMAL_NEAR_DELTA: f64 = 1e-6;

    /// Box–Muller's standard normal for `u1` in `[MIN_POSITIVE, 1]` and
    /// `u2` in `[0, 1)`, within [`SimRng::NORMAL_NEAR_DELTA`] of what
    /// [`SimRng::normal_finish`] returns with libm, at a fraction of the
    /// cost: no libm call.
    ///
    /// `ln u1 = k·ln 2 + ln m` with `m` in `[√½, √2)`, and `ln m =
    /// 2·atanh(s)`, `s = (m − 1)/(m + 1)`, `|s| < 0.172`, summed to
    /// `s⁷`. `b`, `u2`'s distance in turns to the nearest of 0, ½ and 1,
    /// is exact and in `[0, ¼]`; `cos(τ·u2)` is `cos(τ·b)`, negated where
    /// ½ is nearest, and Taylor's cosine in `b²` is summed to `(τb)¹²`.
    #[inline]
    pub fn normal_near(u1: f64, u2: f64) -> f64 {
        // Move the mantissa's top above √2 into the exponent: m in [√½, √2).
        const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
        let ix = u1.to_bits() + (1.0f64.to_bits() - SQRT_HALF);
        let k = (ix >> 52) as i64 - 0x3ff;
        let m = f64::from_bits((ix & ((1 << 52) - 1)) + SQRT_HALF);
        let f = m - 1.0;
        let s = f / (2.0 + f);
        let w = s * s;
        let ln_m = s * LN_SERIES.iter().rev().fold(0.0, |acc, &c| acc * w + c);
        let r = (-2.0 * (k as f64 * std::f64::consts::LN_2 + ln_m)).sqrt();

        let a = u2.min(1.0 - u2);
        let flip = a > 0.25;
        let b = if flip { 0.5 - a } else { a };
        let v = b * b;
        let c = COS_TURN.iter().rev().fold(0.0, |acc, &c| acc * v + c);
        // The flip as a sign bit, not a branch: `flip` is a coin toss.
        r * f64::from_bits(c.to_bits() ^ (u64::from(flip) << 63))
    }

    /// The point a monotone `grid` puts Box–Muller's standard normal for
    /// `(u1, u2)` on, given `near = normal_near(u1, u2)`: when both ends
    /// of `near ± NORMAL_NEAR_DELTA` land on one point, the exact normal,
    /// between them, lands on it too. `None` when they do not; the
    /// caller then finishes with [`SimRng::normal_finish`].
    #[inline]
    pub fn normal_grid_point<T: PartialEq>(near: f64, grid: impl Fn(f64) -> T) -> Option<T> {
        let lo = grid(near - Self::NORMAL_NEAR_DELTA);
        (lo == grid(near + Self::NORMAL_NEAR_DELTA)).then_some(lo)
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

    #[test]
    fn the_integer_draws_are_the_uniforms() {
        let (mut a, mut b) = (SimRng::new(11), SimRng::new(11));
        for _ in 0..1_000 {
            assert_eq!(
                a.uniform01().to_bits(),
                SimRng::unit53(b.bits53()).to_bits()
            );
        }
        let (u1, u2) = a.normal_draw();
        let (b1, b2) = (b.bits53(), b.bits53());
        assert_eq!((u1, u2), SimRng::normal_uniforms(b1, b2));
        assert_eq!(SimRng::normal_uniforms(0, 0), (1.0, 0.0));
    }

    #[test]
    fn bernoulli_cut_is_the_uniform_comparison() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut ps = vec![-1.0, 0.0, ulp / 3.0, 0.5, 1.0, 2.0, f64::NAN, f64::INFINITY];
        for p in [
            0.01,
            0.2499,
            0.2501,
            0.5,
            0.7499,
            0.7501,
            1.0 - ulp,
            3.0 * ulp,
        ] {
            ps.extend([p, p.next_down(), p.next_up(), p + ulp, p - ulp]);
        }
        for p in ps {
            let cut = SimRng::bernoulli_cut(p);
            for bits in [cut.saturating_sub(1), cut, cut + 1] {
                let u = SimRng::unit53(bits.min((1 << 53) - 1));
                assert_eq!(
                    bits.min((1 << 53) - 1) < cut,
                    u < p.clamp(0.0, 1.0),
                    "p {p:e}, bits {bits}"
                );
            }
        }
        let (mut a, mut b) = (SimRng::new(12), SimRng::new(12));
        let cut = SimRng::bernoulli_cut(0.3);
        assert!((0..10_000).all(|_| a.bernoulli(0.3) == (b.bits53() < cut)));
    }

    /// `|normal_near − normal_finish|` at `(u1, u2)`.
    fn near_error(u1: f64, u2: f64) -> f64 {
        (SimRng::normal_near(u1, u2) - SimRng::normal_finish(u1, u2, 0.0, 1.0)).abs()
    }

    /// The reductions' edges: `u1` at the ends of its domain and on
    /// either side of the `√2` mantissa cut at every exponent, `u2` at
    /// the quarter turns and beside them.
    fn near_edges() -> (Vec<f64>, Vec<f64>) {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut u1s = vec![
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_up(),
            ulp,
            2.0 * ulp,
        ];
        u1s.extend([0.5, 0.5f64.next_up(), 1.0 - ulp, 1.0 - 2.0 * ulp, 1.0]);
        let cut = 0x3fe6_a09e_667f_3bcd_u64;
        for e in 0..1022u64 {
            let at = cut - (e << 52);
            u1s.extend([at - 1, at, at + 1].map(f64::from_bits));
        }
        let mut u2s = vec![0.0, ulp, 1.0 - ulp];
        for q in [0.25, 0.5, 0.75] {
            u2s.extend([q - ulp, q, q + ulp]);
        }
        (u1s, u2s)
    }

    #[test]
    fn normal_near_keeps_its_bound_at_the_edges() {
        let (u1s, u2s) = near_edges();
        for &u1 in &u1s {
            for &u2 in &u2s {
                let err = near_error(u1, u2);
                assert!(
                    err <= SimRng::NORMAL_NEAR_DELTA,
                    "u1 {u1:e}, u2 {u2}: {err:e}"
                );
            }
        }
    }

    /// `cargo test --release -p simkit -- --ignored`: the bound over
    /// 10⁸ draws, half of `u1` as `normal_draw` makes it and half spread
    /// evenly over the doubles of `[MIN_POSITIVE, 1]`, then the edges.
    #[test]
    #[ignore = "10^8 draws: run in release with --ignored"]
    fn normal_near_keeps_its_bound_over_1e8_draws() {
        /// The largest error over `pairs`, and where.
        fn worst(pairs: impl Iterator<Item = (f64, f64)>) -> (f64, f64, f64) {
            pairs.fold((0.0, 0.0, 0.0), |worst, (u1, u2)| {
                let err = near_error(u1, u2);
                if err > worst.2 {
                    (u1, u2, err)
                } else {
                    worst
                }
            })
        }
        let mut rng = SimRng::new(0x6e65_6172);
        let (lo, hi) = (f64::MIN_POSITIVE.to_bits(), 1.0f64.to_bits());
        let draws = worst((0..100_000_000u64).map(|i| {
            let (u1, u2) = rng.normal_draw();
            if i % 2 == 0 {
                (u1, u2)
            } else {
                (f64::from_bits(rng.uniform_u64(lo, hi)), u2)
            }
        }));
        let (u1s, u2s) = near_edges();
        let edges = worst(
            u1s.iter()
                .flat_map(|&u1| u2s.iter().map(move |&u2| (u1, u2))),
        );
        for (what, (u1, u2, err)) in [("10^8 draws", draws), ("the edges", edges)] {
            println!(
                "normal_near over {what}: worst |z_a - z_libm| = {err:e} at u1 = {u1:e}, u2 = {u2}"
            );
            assert!(err <= SimRng::NORMAL_NEAR_DELTA, "{err:e} > δ");
        }
    }

    #[test]
    fn normal_grid_point_decides_only_what_both_ends_agree_on() {
        let floor = |z: f64| (10.0 + 25.0 * z).floor();
        // u1 = 1: the normal is exactly 0, and 10 is on the grid.
        let at_zero = SimRng::normal_near(1.0, 0.1);
        assert_eq!(SimRng::normal_grid_point(at_zero, floor), None);
        let (mut decided, mut rng) = (0, SimRng::new(13));
        for _ in 0..10_000 {
            let (u1, u2) = rng.normal_draw();
            let near = SimRng::normal_near(u1, u2);
            if let Some(point) = SimRng::normal_grid_point(near, floor) {
                assert_eq!(point, floor(SimRng::normal_finish(u1, u2, 0.0, 1.0)));
                decided += 1;
            }
        }
        assert!(decided > 9_990, "{decided}");
    }

    /// The platform libm's bits over a fixed input set: `ln`, `exp`,
    /// `cos`, `powf`. The rattrap, fleet and geo goldens and the page
    /// folds rest on these bits, and so does `NORMAL_NEAR_DELTA`, which
    /// bounds the distance to *this* libm's result: when a new toolchain
    /// or runner image moves those goldens, this test says whether libm
    /// is why.
    #[test]
    fn libm_canary() {
        fn fold(
            f: impl Fn(f64, f64) -> f64,
            x: impl Fn(u64) -> f64,
            y: impl Fn(u64) -> f64,
        ) -> u64 {
            (0..4096u64).fold(0xcbf2_9ce4_8422_2325, |h, i| {
                let (a, b) = (derive_seed(0x6c69_626d, i), derive_seed(0x6c69_626d, !i));
                let v = f(std::hint::black_box(x(a)), std::hint::black_box(y(b)));
                (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        // Spread over [0, 1) and over the positive normal doubles.
        let unit = |w: u64| SimRng::unit53(w >> 11);
        let positive = |w: u64| f64::from_bits(0x0010_0000_0000_0000 + w % 0x7fe0_0000_0000_0000);
        let folds = [
            (
                "ln over the normal doubles",
                fold(|x, _| x.ln(), positive, unit),
            ),
            (
                "ln over (0, 1]",
                fold(|x, _| x.ln(), |w| 1.0 - unit(w), unit),
            ),
            (
                "exp",
                fold(|x, _| x.exp(), |w| unit(w) * 1454.0 - 745.0, unit),
            ),
            (
                "cos over [0, τ)",
                fold(|x, _| x.cos(), |w| unit(w) * std::f64::consts::TAU, unit),
            ),
            (
                "cos over ±10⁶",
                fold(|x, _| x.cos(), |w| unit(w) * 2e6 - 1e6, unit),
            ),
            (
                "powf",
                fold(
                    |x, y| x.powf(y),
                    |w| unit(w) * 100.0,
                    |w| unit(w) * 100.0 - 50.0,
                ),
            ),
        ];
        let golden: [u64; 6] = [
            0xe0ab_3901_f63f_2dfb,
            0xf90a_c3e8_cc7c_fb42,
            0xc7b4_d2fd_ac9b_7faa,
            0x299a_b2f6_8556_8ad5,
            0x63b5_e508_d9ad_c955,
            0x30fd_410b_d8a6_53ed,
        ];
        for ((what, fold), want) in folds.into_iter().zip(golden) {
            assert_eq!(fold, want, "the platform libm's {what} moved: {fold:#018x}");
        }
    }
}
