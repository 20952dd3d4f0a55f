//! Timeline sampling for server-load figures.
//!
//! Figure 2 of the paper plots CPU utilization and disk I/O at one-second
//! granularity during the offloading process. [`TimelineSampler`]
//! reproduces that: callers report piecewise-constant values over
//! intervals (`record_level`) or instantaneous amounts (`record_amount`)
//! and the sampler bins them into fixed-width buckets.

use crate::time::{SimDuration, SimTime};

/// Accumulates a time series into fixed-width bins.
///
/// Two reporting styles:
/// * [`record_level`](TimelineSampler::record_level) — a level held over
///   an interval (e.g. CPU utilization 0.83 from t=4 s to t=7.2 s); bins
///   store the **time-weighted average** level.
/// * [`record_amount`](TimelineSampler::record_amount) — a discrete
///   amount at an instant (e.g. 3 MB written); bins store the **sum**,
///   which divided by the bin width is a rate.
#[derive(Debug, Clone)]
pub struct TimelineSampler {
    bin_width: SimDuration,
    /// Sum of level×duration per bin (for averages).
    weighted: Vec<f64>,
    /// Sum of instantaneous amounts per bin.
    amounts: Vec<f64>,
}

impl TimelineSampler {
    /// A sampler with bins of `bin_width` covering `[0, horizon)`.
    ///
    /// # Panics
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: SimDuration, horizon: SimDuration) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        let bins = horizon.as_micros().div_ceil(bin_width.as_micros());
        TimelineSampler {
            bin_width,
            weighted: vec![0.0; bins as usize],
            amounts: vec![0.0; bins as usize],
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.weighted.len()
    }

    /// Record that `level` held from `from` until `to`. Portions outside
    /// the horizon are dropped; `to <= from` records nothing.
    pub fn record_level(&mut self, from: SimTime, to: SimTime, level: f64) {
        if to <= from || self.weighted.is_empty() {
            return;
        }
        let bw = self.bin_width.as_micros();
        let horizon = bw * self.weighted.len() as u64;
        let start = from.as_micros().min(horizon);
        let end = to.as_micros().min(horizon);
        let mut t = start;
        while t < end {
            let bin = (t / bw) as usize;
            let bin_end = (bin as u64 + 1) * bw;
            let span = bin_end.min(end) - t;
            self.weighted[bin] += level * span as f64;
            t = bin_end;
        }
    }

    /// Record a discrete `amount` occurring at instant `at` (dropped if
    /// beyond the horizon).
    pub fn record_amount(&mut self, at: SimTime, amount: f64) {
        let bin = (at.as_micros() / self.bin_width.as_micros()) as usize;
        if let Some(slot) = self.amounts.get_mut(bin) {
            *slot += amount;
        }
    }

    /// Spread `amount` uniformly over `[from, to)` (e.g. bytes moved by a
    /// transfer), accumulating into the amount channel of each bin.
    pub fn record_amount_over(&mut self, from: SimTime, to: SimTime, amount: f64) {
        if to <= from || self.amounts.is_empty() {
            return;
        }
        let total = (to - from).as_micros() as f64;
        let bw = self.bin_width.as_micros();
        let horizon = bw * self.amounts.len() as u64;
        let start = from.as_micros().min(horizon);
        let end = to.as_micros().min(horizon);
        let mut t = start;
        while t < end {
            let bin = (t / bw) as usize;
            let bin_end = (bin as u64 + 1) * bw;
            let span = bin_end.min(end) - t;
            self.amounts[bin] += amount * span as f64 / total;
            t = bin_end;
        }
    }

    /// Time-weighted average level per bin (level channel).
    pub fn levels(&self) -> Vec<f64> {
        let bw = self.bin_width.as_micros() as f64;
        self.weighted.iter().map(|w| w / bw).collect()
    }

    /// Amounts converted to a per-second rate.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let secs = self.bin_width.as_secs_f64();
        self.amounts.iter().map(|a| a / secs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> TimelineSampler {
        TimelineSampler::new(SimDuration::from_secs(1), SimDuration::from_secs(10))
    }

    #[test]
    fn level_within_one_bin() {
        let mut s = sampler();
        // 50% utilization for half of bin 2.
        s.record_level(SimTime::from_millis(2000), SimTime::from_millis(2500), 0.5);
        let levels = s.levels();
        assert!((levels[2] - 0.25).abs() < 1e-9);
        assert_eq!(levels[1], 0.0);
    }

    #[test]
    fn level_spanning_bins() {
        let mut s = sampler();
        s.record_level(SimTime::from_millis(500), SimTime::from_millis(2500), 1.0);
        let levels = s.levels();
        assert!((levels[0] - 0.5).abs() < 1e-9);
        assert!((levels[1] - 1.0).abs() < 1e-9);
        assert!((levels[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn level_beyond_horizon_is_clipped() {
        let mut s = sampler();
        s.record_level(SimTime::from_secs(9), SimTime::from_secs(50), 1.0);
        let levels = s.levels();
        assert!((levels[9] - 1.0).abs() < 1e-9);
        assert_eq!(levels.len(), 10);
    }

    #[test]
    fn empty_interval_records_nothing() {
        let mut s = sampler();
        s.record_level(SimTime::from_secs(3), SimTime::from_secs(3), 1.0);
        assert!(s.levels().iter().all(|&l| l == 0.0));
    }

    #[test]
    fn amounts_bin_and_rate() {
        let mut s = sampler();
        s.record_amount(SimTime::from_millis(1500), 10.0);
        s.record_amount(SimTime::from_millis(1900), 5.0);
        assert_eq!(s.amounts[1], 15.0);
        assert_eq!(s.rates_per_sec()[1], 15.0);
        // Beyond horizon: silently dropped.
        s.record_amount(SimTime::from_secs(100), 99.0);
        assert_eq!(s.amounts.iter().sum::<f64>(), 15.0);
    }

    #[test]
    fn amount_over_interval_spreads_proportionally() {
        let mut s = sampler();
        // 30 units over 3 seconds → 10 per bin.
        s.record_amount_over(SimTime::from_secs(2), SimTime::from_secs(5), 30.0);
        let a = s.amounts;
        assert!((a[2] - 10.0).abs() < 1e-9);
        assert!((a[3] - 10.0).abs() < 1e-9);
        assert!((a[4] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn amount_over_clips_at_horizon() {
        let mut s = sampler();
        // 20 units over [9s, 11s): half lands in the horizon.
        s.record_amount_over(SimTime::from_secs(9), SimTime::from_secs(11), 20.0);
        assert!((s.amounts[9] - 10.0).abs() < 1e-9);
        assert!((s.amounts.iter().sum::<f64>() - 10.0).abs() < 1e-9);
    }
}
