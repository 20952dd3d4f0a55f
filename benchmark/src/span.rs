//! Benchmark-side spans: recorded around the calls into each layer,
//! kept in memory, written out when the run ends.
//!
//! A span is `(name, start, end, parent, request)`. Spans of one
//! request share its `req` id; a layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide trace epoch. Every thread stamps
/// against the same `Instant`, so spans from the load generator and
/// from the server's threads are directly comparable.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span. `id` 0 is "no span"; ids are 1-based indices
/// into the owning [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: usize,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Record a finished span; returns its id (usable as a parent).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns,
        });
        self.spans.len()
    }

    /// Time `f` as a root span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let out = f();
        self.push(name, 0, 0, start, now_ns());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order: duration minus the
    /// union of its children's intervals (clipped to the span, so an
    /// overlapping or overhanging child is never counted twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                let p = &self.spans[s.parent - 1];
                let lo = s.start_ns.max(p.start_ns);
                let hi = s.end_ns.min(p.end_ns);
                if hi > lo {
                    children[s.parent - 1].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// The trace as one JSON document: run metadata plus every span
    /// with microsecond start and duration.
    pub fn to_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"meta\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"dur_us\": {:.3}}}{sep}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Trace::default();
        let root = t.push("client.roundtrip", 0, 1, 100, 1100);
        let handler = t.push("handler.handle", root, 1, 300, 900);
        t.push("pool.exec", handler, 1, 400, 800);
        // Overlaps its sibling and overhangs the parent: only the
        // uncovered, in-parent part (900..1100) may count.
        t.push("late", root, 1, 850, 1500);
        assert_eq!(
            t.self_times_ns(),
            vec![1000 - 600 - 200, 600 - 400, 400, 650]
        );
    }

    #[test]
    fn json_lists_every_span() {
        let mut t = Trace::default();
        t.scope("probe.x", || ());
        let doc = t.to_json(&[("workload", "w".into())]);
        let v = obsv::json::parse(&doc).expect("valid json");
        assert_eq!(v.get("spans").and_then(|s| s.as_array()).unwrap().len(), 1);
    }
}
