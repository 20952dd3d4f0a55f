//! Typed metrics registry: counters, gauges, sim-time histograms.
//!
//! Handles are registered once ([`crate::Recorder::counter`] and
//! friends) and then update without any name lookup — a handle holds
//! a dense slot index into the recorder's registry. Handles from a
//! disabled recorder are no-ops, so hot paths keep a single branch.

use crate::recorder::Inner;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Log-linear (HDR-style) histogram over simulated microseconds.
///
/// Values below 64 each have a bucket of their own. Above that, every
/// power of two `[2^k, 2^(k+1))` is split into 32 equal sub-buckets,
/// so no bucket is wider than 1/32 of its lower edge, over the whole
/// `u64` range (1 920 buckets, 15 KiB, whatever the count). Exact
/// count / sum / max are kept alongside, so means are exact.
///
/// **Quantile bound.** [`quantile`](Self::quantile) answers with the
/// midpoint of the bucket that holds the nearest-rank quantile,
/// clamped to the exact max. Its error against an exact sort of the
/// same observations is therefore at most 1/64 (1.6 %) of the true
/// value, and zero below 64; the unit tests check exactly this bound
/// on random, all-equal, one-outlier and powers-of-two inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl SimHistogram {
    /// Sub-buckets per power of two (`2^SUB_BITS`).
    const SUB_BITS: u32 = 5;
    /// Values below this have one bucket each.
    const LINEAR: u64 = 2 << Self::SUB_BITS;
    /// Bucket count: the 64 exact values, then 32 buckets for each of
    /// the 58 powers of two from 2^6 to 2^63.
    pub const BUCKETS: usize = 64 + 58 * 32;

    /// An empty histogram.
    pub fn new() -> Self {
        SimHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    fn bucket_of(us: u64) -> usize {
        if us < Self::LINEAR {
            return us as usize;
        }
        // `us >> shift` keeps the top SUB_BITS + 1 bits: 32..=63.
        let shift = 64 - us.leading_zeros() - (Self::SUB_BITS + 1);
        let sub = (us >> shift) as usize - (1 << Self::SUB_BITS);
        Self::LINEAR as usize + ((shift as usize - 1) << Self::SUB_BITS) + sub
    }

    /// The lowest value bucket `ix` holds, and its width.
    fn bucket_range(ix: usize) -> (u64, u64) {
        let Some(past) = ix.checked_sub(Self::LINEAR as usize) else {
            return (ix as u64, 1);
        };
        let shift = (past >> Self::SUB_BITS) as u32 + 1;
        let top = (past as u64 & ((1 << Self::SUB_BITS) - 1)) | (1 << Self::SUB_BITS);
        (top << shift, 1 << shift)
    }

    /// Record one observation.
    pub fn observe(&mut self, us: u64) {
        self.buckets[Self::bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of observations (µs, saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Largest observation (µs).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) by nearest rank: the
    /// observation at rank `ceil(q * count)`, at least the first.
    /// Within 1/64 of the exact value (see the type's doc); `None`
    /// when nothing was observed.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        let ix = self.buckets.iter().position(|&n| {
            seen += n;
            seen >= rank
        })?;
        let (low, width) = Self::bucket_range(ix);
        Some((low + width / 2).min(self.max_us))
    }

    /// Fold another histogram into this one: buckets and counts add,
    /// sums saturate, the max is the max of maxes. Used when merging
    /// per-shard recorders into one trace.
    pub fn merge(&mut self, other: &SimHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

impl Default for SimHistogram {
    fn default() -> Self {
        SimHistogram::new()
    }
}

/// Registry storage inside the recorder: names are interned to dense
/// slots at registration, so updates are index operations.
#[derive(Debug, Default)]
pub(crate) struct MetricsStore {
    counter_ix: BTreeMap<String, usize>,
    counters: Vec<u64>,
    gauge_ix: BTreeMap<String, usize>,
    gauges: Vec<f64>,
    hist_ix: BTreeMap<String, usize>,
    hists: Vec<SimHistogram>,
}

impl MetricsStore {
    pub(crate) fn counter_slot(&mut self, name: &str) -> usize {
        if let Some(&ix) = self.counter_ix.get(name) {
            return ix;
        }
        let ix = self.counters.len();
        self.counters.push(0);
        self.counter_ix.insert(name.to_owned(), ix);
        ix
    }

    pub(crate) fn gauge_slot(&mut self, name: &str) -> usize {
        if let Some(&ix) = self.gauge_ix.get(name) {
            return ix;
        }
        let ix = self.gauges.len();
        self.gauges.push(0.0);
        self.gauge_ix.insert(name.to_owned(), ix);
        ix
    }

    pub(crate) fn hist_slot(&mut self, name: &str) -> usize {
        if let Some(&ix) = self.hist_ix.get(name) {
            return ix;
        }
        let ix = self.hists.len();
        self.hists.push(SimHistogram::new());
        self.hist_ix.insert(name.to_owned(), ix);
        ix
    }

    pub(crate) fn counter_add(&mut self, ix: usize, delta: u64) {
        self.counters[ix] = self.counters[ix].saturating_add(delta);
    }

    pub(crate) fn gauge_set(&mut self, ix: usize, value: f64) {
        self.gauges[ix] = value;
    }

    pub(crate) fn hist_observe(&mut self, ix: usize, us: u64) {
        self.hists[ix].observe(us);
    }

    pub(crate) fn hist_merge(&mut self, ix: usize, other: &SimHistogram) {
        self.hists[ix].merge(other);
    }

    pub(crate) fn counters_map(&self) -> BTreeMap<String, u64> {
        self.counter_ix
            .iter()
            .map(|(name, &ix)| (name.clone(), self.counters[ix]))
            .collect()
    }

    pub(crate) fn gauges_map(&self) -> BTreeMap<String, f64> {
        self.gauge_ix
            .iter()
            .map(|(name, &ix)| (name.clone(), self.gauges[ix]))
            .collect()
    }

    pub(crate) fn hists_map(&self) -> BTreeMap<String, SimHistogram> {
        self.hist_ix
            .iter()
            .map(|(name, &ix)| (name.clone(), self.hists[ix].clone()))
            .collect()
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    slot: Option<(Rc<RefCell<Inner>>, usize)>,
}

impl Counter {
    pub(crate) fn live(inner: Rc<RefCell<Inner>>, ix: usize) -> Self {
        Counter {
            slot: Some((inner, ix)),
        }
    }

    pub(crate) fn noop() -> Self {
        Counter { slot: None }
    }

    /// Add `delta` (no-op on a disabled recorder's handle).
    pub fn add(&self, delta: u64) {
        if let Some((inner, ix)) = &self.slot {
            inner.borrow_mut().metrics.counter_add(*ix, delta);
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A last-value-wins gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    slot: Option<(Rc<RefCell<Inner>>, usize)>,
}

impl Gauge {
    pub(crate) fn live(inner: Rc<RefCell<Inner>>, ix: usize) -> Self {
        Gauge {
            slot: Some((inner, ix)),
        }
    }

    pub(crate) fn noop() -> Self {
        Gauge { slot: None }
    }

    /// Set the gauge.
    pub fn set(&self, value: f64) {
        if let Some((inner, ix)) = &self.slot {
            inner.borrow_mut().metrics.gauge_set(*ix, value);
        }
    }
}

/// A sim-time histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    slot: Option<(Rc<RefCell<Inner>>, usize)>,
}

impl Histogram {
    pub(crate) fn live(inner: Rc<RefCell<Inner>>, ix: usize) -> Self {
        Histogram {
            slot: Some((inner, ix)),
        }
    }

    pub(crate) fn noop() -> Self {
        Histogram { slot: None }
    }

    /// Record one duration in simulated microseconds.
    pub fn observe_us(&self, us: u64) {
        if let Some((inner, ix)) = &self.slot {
            inner.borrow_mut().metrics.hist_observe(*ix, us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_buckets_are_log_linear() {
        let mut h = SimHistogram::new();
        for us in [0, 1, 63, 64, 65, 66, 1024, 1055, 1056] {
            h.observe(us);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum_us(), 3394);
        assert_eq!(h.max_us(), 1056);
        let nonzero: Vec<(usize, u64)> = (h.buckets.iter().copied().enumerate())
            .filter(|&(_, c)| c > 0)
            .collect();
        // Below 64 a value is its bucket; [64, 128) has buckets 2 wide;
        // [1024, 2048), the fifth power of two from 64, has buckets 32
        // wide from 64 + 4 * 32.
        assert_eq!(
            nonzero,
            vec![
                (0, 1),
                (1, 1),
                (63, 1),
                (64, 2),
                (65, 1),
                (192, 2),
                (193, 1)
            ]
        );
        // Buckets tile u64 in order, none wider than 1/32 of its floor.
        let mut next = 0u64;
        for ix in 0..SimHistogram::BUCKETS {
            let (low, width) = SimHistogram::bucket_range(ix);
            assert_eq!(low, next, "bucket {ix} leaves a gap");
            assert_eq!(SimHistogram::bucket_of(low), ix);
            assert_eq!(SimHistogram::bucket_of(low + (width - 1)), ix);
            assert!((low < 64 && width == 1) || width * 32 <= low, "bucket {ix}");
            next = low.wrapping_add(width);
        }
        assert_eq!(next, 0, "the top bucket ends at u64::MAX");
    }

    /// The nearest-rank quantile of already sorted observations.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        sorted[rank as usize - 1]
    }

    /// Every quantile on a fine grid is within 1/64 of the exact one.
    fn assert_quantiles_within_bound(values: &[u64]) {
        let mut h = SimHistogram::new();
        values.iter().for_each(|&v| h.observe(v));
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for q in (0..=1000).map(|k| k as f64 / 1000.0).chain([0.999_9]) {
            let (got, want) = (h.quantile(q).unwrap(), exact_quantile(&sorted, q));
            assert!(
                64 * u128::from(got.abs_diff(want)) <= u128::from(want),
                "q {q}: {got} against exact {want}"
            );
        }
    }

    #[test]
    fn quantiles_hold_their_bound_on_adversarial_inputs() {
        assert_eq!(SimHistogram::new().quantile(0.5), None);
        // All equal, in the exact range and far above it.
        assert_quantiles_within_bound(&[40; 1000]);
        assert_quantiles_within_bound(&[123_457; 1000]);
        assert_quantiles_within_bound(&[u64::MAX; 7]);
        // One outlier among equal values.
        let mut outlier = vec![2_500; 999];
        outlier.push(u64::MAX / 3);
        assert_quantiles_within_bound(&outlier);
        // Powers of two sit on bucket edges; so do their neighbours.
        let pow2: Vec<u64> = (0..64).map(|k| 1u64 << k).collect();
        assert_quantiles_within_bound(&pow2);
        let edges: Vec<u64> = pow2.iter().flat_map(|&p| [p - 1, p, p + 1]).collect();
        assert_quantiles_within_bound(&edges);
    }

    #[test]
    fn merged_histograms_read_the_quantiles_of_all_observations() {
        let (mut a, mut b, mut both) = (
            SimHistogram::new(),
            SimHistogram::new(),
            SimHistogram::new(),
        );
        for us in 0..500u64 {
            let v = us * us * 7;
            if us % 3 == 0 {
                a.observe(v)
            } else {
                b.observe(v)
            }
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.quantile(0.5), both.quantile(0.5));
    }

    proptest! {
        /// Random samples spread over every magnitude: values are
        /// random 64-bit words shifted right by a random amount.
        #[test]
        fn quantiles_hold_their_bound_on_random_samples(
            draws in prop::collection::vec((any::<u64>(), 0u32..64), 1..300),
        ) {
            let values: Vec<u64> = draws.iter().map(|&(w, s)| w >> s).collect();
            assert_quantiles_within_bound(&values);
        }
    }

    #[test]
    fn huge_values_land_in_top_bucket() {
        let mut h = SimHistogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.buckets[SimHistogram::BUCKETS - 1], 2);
        assert_eq!(h.max_us(), u64::MAX);
    }
}
