//! The bounded ring-buffer recorder and its snapshot type.

use crate::metrics::{Counter, Gauge, Histogram, MetricsStore, SimHistogram};
use crate::span::{AttrValue, Attrs, SpanId, Subsystem, TraceEvent};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Recorder configuration: ring capacity and per-subsystem sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Maximum events held in the ring; the oldest are evicted (and
    /// counted in [`TraceSnapshot::dropped`]) when it fills.
    pub capacity: usize,
    /// Per-subsystem sampling control, indexed by
    /// [`Subsystem::index`]: `0` disables the subsystem entirely
    /// (spans return [`SpanId::NONE`], instants vanish), `1` records
    /// everything, `n` keeps every n-th *instant* (spans are
    /// structural and are never sampled away while the subsystem is
    /// enabled, so span trees stay well-formed).
    pub sample: [u32; Subsystem::ALL.len()],
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 1 << 20,
            sample: [1; Subsystem::ALL.len()],
        }
    }
}

impl RecorderConfig {
    /// Everything on, ring bounded at `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        RecorderConfig {
            capacity,
            ..Self::default()
        }
    }
}

/// Mutable recorder state behind the shared handle.
#[derive(Debug)]
pub(crate) struct Inner {
    cfg: RecorderConfig,
    /// Current simulation time, stamped by the engine at each event
    /// pop so lower layers (kernel, host) that have no `now` of their
    /// own timestamp correctly.
    now_us: u64,
    next_span: u64,
    /// Request id automatically appended (as a `req` attr) to every
    /// event recorded while set — the engine sets it around
    /// request-scoped event handling so lower layers' events are
    /// attributed without plumbing ids through every signature.
    current_req: Option<u64>,
    /// Fallback parent for spans started with [`SpanId::NONE`] —
    /// lets e.g. an executor parent its job spans under the phase
    /// span the engine is currently in.
    ambient_parent: SpanId,
    /// Fixed-capacity ring: grows up to `cfg.capacity`, then wraps in
    /// place — eviction overwrites the oldest slot directly instead of
    /// shifting, so a full ring costs one slot drop + one move per
    /// event. `ring_start` is the logical head once wrapped.
    events: Vec<TraceEvent>,
    ring_start: usize,
    dropped: u64,
    sample_counters: [u32; Subsystem::ALL.len()],
    pub(crate) metrics: MetricsStore,
    meta: BTreeMap<String, String>,
}

impl Inner {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cfg.capacity {
            self.events.push(ev);
        } else if self.cfg.capacity == 0 {
            self.dropped += 1;
        } else {
            self.events[self.ring_start] = ev;
            self.ring_start += 1;
            if self.ring_start == self.cfg.capacity {
                self.ring_start = 0;
            }
            self.dropped += 1;
        }
    }

    /// Buffered events in emission (oldest-first) order.
    fn iter_events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.events.split_at(self.ring_start);
        head.iter().chain(tail)
    }

    fn stamp_req(&self, attrs: &mut Attrs) {
        if let Some(req) = self.current_req {
            if !attrs.iter().any(|(k, _)| *k == "req") {
                attrs.push(("req", AttrValue::U64(req)));
            }
        }
    }
}

/// Shared handle to an observability recorder.
///
/// Cloning shares the underlying ring and registry, so one handle can
/// be fanned out to every layer of a simulation. The disabled handle
/// ([`Recorder::disabled`], also [`Default`]) holds no allocation and
/// every method on it is a single `Option` check — the zero-cost
/// path golden-digest tests rely on.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Recorder {
    /// A live recorder with the given configuration.
    pub fn enabled(cfg: RecorderConfig) -> Self {
        Recorder {
            inner: Some(Rc::new(RefCell::new(Inner {
                cfg,
                now_us: 0,
                next_span: 0,
                current_req: None,
                ambient_parent: SpanId::NONE,
                events: Vec::new(),
                ring_start: 0,
                dropped: 0,
                sample_counters: [0; Subsystem::ALL.len()],
                metrics: MetricsStore::default(),
                meta: BTreeMap::new(),
            }))),
        }
    }

    /// The no-op recorder: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// `true` when this handle records events.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advance the recorder's notion of simulation time (µs). The
    /// engine calls this once per popped event; layers without their
    /// own clock stamp from it.
    pub fn set_now(&self, at_us: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().now_us = at_us;
        }
    }

    /// Current simulation time in µs (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.borrow().now_us)
    }

    /// Set (or clear) the request id stamped onto subsequent events.
    pub fn set_current_request(&self, req: Option<u64>) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().current_req = req;
        }
    }

    /// The request id currently stamped onto events, if any. Callers
    /// that re-enter request scope (an engine starting service for a
    /// queued request mid-handler) save this and restore it after.
    pub fn current_request(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.borrow().current_req)
    }

    /// Set the fallback parent used by spans started with
    /// [`SpanId::NONE`]; pass [`SpanId::NONE`] to clear.
    pub fn set_ambient_parent(&self, parent: SpanId) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().ambient_parent = parent;
        }
    }

    /// Open a span at the current sim time. Returns
    /// [`SpanId::NONE`] (and records nothing) when disabled or when
    /// the subsystem is sampled out entirely.
    pub fn span_start(&self, subsystem: Subsystem, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now_us();
        self.span_start_at(subsystem, name, parent, now, Attrs::new())
    }

    /// Open a span at an explicit time with attributes. Times may be
    /// in the future relative to the recorder clock — the engine uses
    /// this to record transfers whose completion instant is already
    /// priced.
    pub fn span_start_at(
        &self,
        subsystem: Subsystem,
        name: &'static str,
        parent: SpanId,
        at_us: u64,
        attrs: impl Into<Attrs>,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let mut attrs = attrs.into();
        let mut inner = inner.borrow_mut();
        if inner.cfg.sample[subsystem.index()] == 0 {
            return SpanId::NONE;
        }
        inner.next_span += 1;
        let id = SpanId(inner.next_span);
        let parent = if parent.is_some() {
            parent
        } else {
            inner.ambient_parent
        };
        inner.stamp_req(&mut attrs);
        inner.push(TraceEvent::Begin {
            id,
            parent,
            subsystem,
            name,
            at_us,
            attrs,
        });
        id
    }

    /// Close `id` at the current sim time (no-op for
    /// [`SpanId::NONE`]).
    pub fn span_end(&self, id: SpanId) {
        let now = self.now_us();
        self.span_end_at(id, now, Attrs::new());
    }

    /// Close `id` at an explicit time, attaching closing attributes
    /// (outcomes, cancellation flags).
    pub fn span_end_at(&self, id: SpanId, at_us: u64, attrs: impl Into<Attrs>) {
        let Some(inner) = &self.inner else {
            return;
        };
        if !id.is_some() {
            return;
        }
        inner.borrow_mut().push(TraceEvent::End {
            id,
            at_us,
            attrs: attrs.into(),
        });
    }

    /// Record a point event at the current sim time. Instants honor
    /// the per-subsystem 1-in-N sampling control.
    pub fn instant(&self, subsystem: Subsystem, name: &'static str, attrs: impl Into<Attrs>) {
        let now = self.now_us();
        self.instant_at(subsystem, name, now, attrs);
    }

    /// Record a point event at an explicit time.
    pub fn instant_at(
        &self,
        subsystem: Subsystem,
        name: &'static str,
        at_us: u64,
        attrs: impl Into<Attrs>,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut inner = inner.borrow_mut();
        let n = inner.cfg.sample[subsystem.index()];
        if n == 0 {
            return;
        }
        let c = &mut inner.sample_counters[subsystem.index()];
        *c = c.wrapping_add(1);
        if *c % n != 0 {
            return;
        }
        let mut attrs = attrs.into();
        inner.stamp_req(&mut attrs);
        inner.push(TraceEvent::Instant {
            subsystem,
            name,
            at_us,
            attrs,
        });
    }

    /// Register (or fetch) a named counter. On a disabled recorder
    /// the returned handle is a no-op.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => {
                let idx = inner.borrow_mut().metrics.counter_slot(name);
                Counter::live(Rc::clone(inner), idx)
            }
            None => Counter::noop(),
        }
    }

    /// Register (or fetch) a named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => {
                let idx = inner.borrow_mut().metrics.gauge_slot(name);
                Gauge::live(Rc::clone(inner), idx)
            }
            None => Gauge::noop(),
        }
    }

    /// Register (or fetch) a named sim-time histogram (µs, log2
    /// buckets).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(inner) => {
                let idx = inner.borrow_mut().metrics.hist_slot(name);
                Histogram::live(Rc::clone(inner), idx)
            }
            None => Histogram::noop(),
        }
    }

    /// Attach a metadata key (run seed, toolchain, git SHA…) carried
    /// into every export.
    pub fn set_meta(&self, key: &str, value: String) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().meta.insert(key.to_owned(), value);
        }
    }

    /// Events evicted by ring wrap-around so far.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().dropped)
    }

    /// The live configuration, or `None` when disabled — lets an
    /// engine construct per-shard recorders that sample identically
    /// to the caller's.
    pub fn config(&self) -> Option<RecorderConfig> {
        self.inner.as_ref().map(|inner| inner.borrow().cfg.clone())
    }

    /// Merge another recorder's snapshot into this one.
    ///
    /// Span ids are remapped past this recorder's own id space so the
    /// merged trace keeps globally unique ids (parents move with
    /// them; [`SpanId::NONE`] stays none). Events append through the
    /// ring — evicting and counting drops as usual — counters add,
    /// gauges overwrite, histograms merge bucket-wise, metadata
    /// inserts, and the source's drop count carries over. The fleet
    /// engine folds per-LP recorders into the caller's recorder in LP
    /// index order, which keeps the merged trace deterministic.
    pub fn import(&self, snap: &TraceSnapshot) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut inner = inner.borrow_mut();
        let offset = inner.next_span;
        let mut max_id = 0u64;
        for ev in &snap.events {
            let mut ev = ev.clone();
            match &mut ev {
                TraceEvent::Begin { id, parent, .. } => {
                    max_id = max_id.max(id.0);
                    *id = SpanId(id.0 + offset);
                    if parent.is_some() {
                        *parent = SpanId(parent.0 + offset);
                    }
                }
                TraceEvent::End { id, .. } => {
                    max_id = max_id.max(id.0);
                    *id = SpanId(id.0 + offset);
                }
                TraceEvent::Instant { .. } => {}
            }
            inner.push(ev);
        }
        inner.next_span = offset + max_id;
        inner.dropped += snap.dropped;
        for (name, v) in &snap.counters {
            let ix = inner.metrics.counter_slot(name);
            inner.metrics.counter_add(ix, *v);
        }
        for (name, v) in &snap.gauges {
            let ix = inner.metrics.gauge_slot(name);
            inner.metrics.gauge_set(ix, *v);
        }
        for (name, h) in &snap.histograms {
            let ix = inner.metrics.hist_slot(name);
            inner.metrics.hist_merge(ix, h);
        }
        for (k, v) in &snap.meta {
            inner.meta.insert(k.clone(), v.clone());
        }
    }

    /// Clone out an immutable snapshot for export. Returns an empty
    /// snapshot on a disabled recorder.
    pub fn snapshot(&self) -> TraceSnapshot {
        let Some(inner) = &self.inner else {
            return TraceSnapshot::default();
        };
        let inner = inner.borrow();
        TraceSnapshot {
            events: inner.iter_events().cloned().collect(),
            dropped: inner.dropped,
            counters: inner.metrics.counters_map(),
            gauges: inner.metrics.gauges_map(),
            histograms: inner.metrics.hists_map(),
            meta: inner.meta.clone(),
        }
    }
}

/// An immutable copy of a recorder's state, consumed by the
/// exporters in [`crate::export`].
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Buffered events in emission order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around before the snapshot.
    pub dropped: u64,
    /// Counter registry (name → value).
    pub counters: BTreeMap<String, u64>,
    /// Gauge registry (name → last value).
    pub gauges: BTreeMap<String, f64>,
    /// Sim-time histogram registry.
    pub histograms: BTreeMap<String, SimHistogram>,
    /// Run metadata (seed, toolchain, git SHA, smoke flag…).
    pub meta: BTreeMap<String, String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.set_now(99);
        assert_eq!(rec.now_us(), 0);
        let id = rec.span_start(Subsystem::Rattrap, "x", SpanId::NONE);
        assert_eq!(id, SpanId::NONE);
        rec.span_end(id);
        rec.instant(Subsystem::Rattrap, "i", vec![]);
        rec.counter("c").add(5);
        rec.gauge("g").set(1.0);
        rec.histogram("h").observe_us(10);
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn spans_nest_and_stamp_time() {
        let rec = Recorder::enabled(RecorderConfig::default());
        rec.set_now(10);
        let root = rec.span_start(Subsystem::Rattrap, "request", SpanId::NONE);
        rec.set_now(20);
        let child = rec.span_start(Subsystem::Netsim, "upload", root);
        rec.set_now(30);
        rec.span_end(child);
        rec.set_now(40);
        rec.span_end(root);
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 4);
        match &snap.events[1] {
            TraceEvent::Begin { parent, at_us, .. } => {
                assert_eq!(*parent, root);
                assert_eq!(*at_us, 20);
            }
            other => panic!("expected Begin, got {other:?}"),
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = Recorder::enabled(RecorderConfig::with_capacity(4));
        for i in 0..10 {
            rec.instant(Subsystem::Simkit, "tick", vec![("i", AttrValue::U64(i))]);
        }
        assert_eq!(rec.dropped(), 6);
        let snap = rec.snapshot();
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.events.len(), 4);
    }

    #[test]
    fn subsystem_can_be_disabled_and_instants_sampled() {
        let mut cfg = RecorderConfig::default();
        cfg.sample[Subsystem::Simkit.index()] = 0;
        cfg.sample[Subsystem::Netsim.index()] = 3;
        let rec = Recorder::enabled(cfg);
        assert_eq!(
            rec.span_start(Subsystem::Simkit, "off", SpanId::NONE),
            SpanId::NONE
        );
        rec.instant(Subsystem::Simkit, "off", vec![]);
        for _ in 0..9 {
            rec.instant(Subsystem::Netsim, "sampled", vec![]);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 3, "1-in-3 sampling keeps 3 of 9");
    }

    #[test]
    fn current_request_and_ambient_parent_are_applied() {
        let rec = Recorder::enabled(RecorderConfig::default());
        rec.set_current_request(Some(7));
        let root = rec.span_start(Subsystem::Rattrap, "request", SpanId::NONE);
        rec.set_ambient_parent(root);
        let job = rec.span_start(Subsystem::Simkit, "cpu", SpanId::NONE);
        rec.set_ambient_parent(SpanId::NONE);
        rec.set_current_request(None);
        let snap = rec.snapshot();
        assert_eq!(snap.events[0].request(), Some(7));
        match &snap.events[1] {
            TraceEvent::Begin { id, parent, .. } => {
                assert_eq!(*id, job);
                assert_eq!(*parent, root, "ambient parent adopted");
            }
            other => panic!("expected Begin, got {other:?}"),
        }
    }

    #[test]
    fn import_remaps_span_ids_and_merges_metrics() {
        let a = Recorder::enabled(RecorderConfig::default());
        a.set_now(5);
        let ra = a.span_start(Subsystem::Rattrap, "a", SpanId::NONE);
        a.span_end(ra);
        a.counter("served").add(3);
        a.gauge("load").set(0.25);
        a.histogram("lat").observe_us(100);

        let b = Recorder::enabled(RecorderConfig::default());
        b.set_now(7);
        let rb = b.span_start(Subsystem::Fleet, "b", SpanId::NONE);
        let child = b.span_start(Subsystem::Virt, "c", rb);
        b.span_end(child);
        b.span_end(rb);
        b.counter("served").add(2);
        b.gauge("load").set(0.75);
        b.histogram("lat").observe_us(300);

        a.import(&b.snapshot());
        let snap = a.snapshot();
        assert_eq!(snap.events.len(), 6);
        // b's root (local id 1) remapped past a's id space.
        match &snap.events[2] {
            TraceEvent::Begin { id, parent, .. } => {
                assert_eq!(*id, SpanId(ra.0 + 1));
                assert_eq!(*parent, SpanId::NONE, "roots stay roots");
            }
            other => panic!("expected Begin, got {other:?}"),
        }
        match &snap.events[3] {
            TraceEvent::Begin { id, parent, .. } => {
                assert_eq!(*id, SpanId(ra.0 + 2));
                assert_eq!(*parent, SpanId(ra.0 + 1), "parents move with ids");
            }
            other => panic!("expected Begin, got {other:?}"),
        }
        assert_eq!(snap.counters["served"], 5, "counters add");
        assert_eq!(snap.gauges["load"], 0.75, "gauges overwrite");
        assert_eq!(snap.histograms["lat"].count(), 2, "histograms merge");
        assert_eq!(snap.histograms["lat"].sum_us(), 400);

        // A span opened after the import must not collide.
        let later = a.span_start(Subsystem::Netsim, "later", SpanId::NONE);
        assert!(later.0 > ra.0 + 2);
    }

    #[test]
    fn import_into_disabled_recorder_is_inert() {
        let src = Recorder::enabled(RecorderConfig::default());
        src.instant(Subsystem::Simkit, "x", vec![]);
        let dst = Recorder::disabled();
        dst.import(&src.snapshot());
        assert!(dst.snapshot().events.is_empty());
        assert_eq!(dst.config(), None);
    }

    #[test]
    fn import_respects_ring_capacity() {
        let src = Recorder::enabled(RecorderConfig::default());
        for _ in 0..10 {
            src.instant(Subsystem::Simkit, "tick", vec![]);
        }
        let dst = Recorder::enabled(RecorderConfig::with_capacity(4));
        dst.import(&src.snapshot());
        assert_eq!(dst.snapshot().events.len(), 4);
        assert_eq!(dst.dropped(), 6);
    }

    #[test]
    fn metrics_registry_accumulates() {
        let rec = Recorder::enabled(RecorderConfig::default());
        let c = rec.counter("events");
        c.add(2);
        c.inc();
        rec.counter("events").add(1); // same slot by name
        rec.gauge("load").set(0.5);
        rec.histogram("latency_us").observe_us(1500);
        rec.histogram("latency_us").observe_us(3000);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["events"], 4);
        assert_eq!(snap.gauges["load"], 0.5);
        let h = &snap.histograms["latency_us"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_us(), 4500);
        assert_eq!(h.max_us(), 3000);
    }
}
