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

/// Log2-bucketed histogram over simulated microseconds.
///
/// Bucket `i` covers values whose bit length is `i` (bucket 0 holds
/// zero); the top bucket absorbs overflow. Exact count / sum / max
/// are kept alongside, so means are exact and only quantiles are
/// bucket-resolution approximations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimHistogram {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl SimHistogram {
    /// Bucket count: values up to 2^46 µs (~2.2 years of sim time)
    /// resolve exactly; larger ones land in the top bucket.
    pub const BUCKETS: usize = 48;

    /// An empty histogram.
    pub fn new() -> Self {
        SimHistogram {
            buckets: [0; Self::BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    fn bucket_of(us: u64) -> usize {
        ((64 - us.leading_zeros()) as usize).min(Self::BUCKETS - 1)
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

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = SimHistogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_us(), 1030);
        assert_eq!(h.max_us(), 1024);
        let nonzero: Vec<(usize, u64)> = (h.buckets.iter().copied().enumerate())
            .filter(|&(_, c)| c > 0)
            .collect();
        // 0 → bucket 0; 1 → bit length 1; 2,3 → bit length 2; 1024 →
        // bit length 11.
        assert_eq!(nonzero, vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
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
