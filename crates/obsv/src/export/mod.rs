//! Exporters over a [`TraceSnapshot`]: Chrome trace-event JSON
//! ([`chrome`]) and a per-request plain-text causal timeline
//! ([`timeline`]).

use crate::recorder::TraceSnapshot;
use crate::span::{Attrs, SpanId, Subsystem, TraceEvent};
use std::collections::BTreeMap;

pub mod chrome;
pub mod timeline;

/// A span reassembled from its `Begin`/`End` ring entries.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedSpan {
    pub id: SpanId,
    pub parent: SpanId,
    pub subsystem: Subsystem,
    pub name: &'static str,
    pub start_us: u64,
    /// `None` when the `End` never arrived (ring drop or a span still
    /// open at snapshot time).
    pub end_us: Option<u64>,
    /// Begin attributes followed by End attributes.
    pub attrs: Attrs,
}

impl ResolvedSpan {
    /// Duration against an explicit horizon for unclosed spans.
    pub fn duration_us(&self, horizon_us: u64) -> u64 {
        self.end_us
            .unwrap_or(horizon_us)
            .saturating_sub(self.start_us)
    }

    pub fn request(&self) -> Option<u64> {
        self.attrs.iter().find_map(|(k, v)| match (k, v) {
            (&"req", crate::span::AttrValue::U64(id)) => Some(*id),
            _ => None,
        })
    }
}

/// Pair up `Begin`/`End` events. Returns spans in begin order plus an
/// id → index map. `End`s without a `Begin` (evicted from the ring)
/// are dropped; `Begin`s without an `End` resolve with `end_us:
/// None`.
pub(crate) fn resolve_spans(
    snapshot: &TraceSnapshot,
) -> (Vec<ResolvedSpan>, BTreeMap<SpanId, usize>) {
    let mut spans = Vec::new();
    let mut index = BTreeMap::new();
    for ev in &snapshot.events {
        match ev {
            TraceEvent::Begin {
                id,
                parent,
                subsystem,
                name,
                at_us,
                attrs,
            } => {
                index.insert(*id, spans.len());
                spans.push(ResolvedSpan {
                    id: *id,
                    parent: *parent,
                    subsystem: *subsystem,
                    name,
                    start_us: *at_us,
                    end_us: None,
                    attrs: attrs.clone(),
                });
            }
            TraceEvent::End { id, at_us, attrs } => {
                if let Some(&ix) = index.get(id) {
                    let span: &mut ResolvedSpan = &mut spans[ix];
                    span.end_us = Some(*at_us);
                    span.attrs.extend(attrs.iter().cloned());
                }
            }
            TraceEvent::Instant { .. } => {}
        }
    }
    (spans, index)
}

/// Latest timestamp in the snapshot (horizon for unclosed spans).
pub(crate) fn horizon_us(snapshot: &TraceSnapshot) -> u64 {
    snapshot
        .events
        .iter()
        .map(TraceEvent::at_us)
        .max()
        .unwrap_or(0)
}

/// Render an f64 as JSON (finite → shortest round-trip-ish `{}`,
/// non-finite → `null` since JSON has no NaN/Inf).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
