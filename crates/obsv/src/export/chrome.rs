//! Chrome trace-event JSON export (`chrome://tracing` / Perfetto).
//!
//! Uses the *object* container format: `{"traceEvents": [...],
//! "displayTimeUnit": "ms", "metadata": {...}}`. Spans become `"X"`
//! (complete) events with `ts`/`dur` in simulated microseconds;
//! instants become `"i"` events. Each subsystem renders as its own
//! track (`tid` = subsystem index, named by `"M"` metadata events),
//! and every request-scoped event carries a `req` arg so one request
//! can be followed across tracks.

use super::{horizon_us, json_f64, resolve_spans};
use crate::json;
use crate::recorder::TraceSnapshot;
use crate::span::{AttrValue, Attrs, Subsystem, TraceEvent};

/// Fixed pid for the whole (single-process) simulation.
const PID: u32 = 1;

fn attr_json(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(v) => format!("{v}"),
        AttrValue::I64(v) => format!("{v}"),
        AttrValue::F64(v) => json_f64(*v),
        AttrValue::Str(v) => format!("\"{}\"", json::escape(v)),
        AttrValue::Text(v) => format!("\"{}\"", json::escape(v)),
        AttrValue::Bool(v) => format!("{v}"),
    }
}

fn args_json(attrs: &Attrs, extra: &[(&str, String)]) -> String {
    let mut parts: Vec<String> = attrs
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json::escape(k), attr_json(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json::escape(k), v)),
    );
    format!("{{{}}}", parts.join(","))
}

impl TraceSnapshot {
    /// Render the snapshot as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        let (spans, _) = resolve_spans(self);
        let horizon = horizon_us(self);
        let mut events = Vec::new();
        for sub in Subsystem::ALL {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                sub.index(),
                sub.name()
            ));
        }
        for span in &spans {
            let mut extra = vec![("span", format!("{}", span.id.0))];
            if span.parent.is_some() {
                extra.push(("parent", format!("{}", span.parent.0)));
            }
            if span.end_us.is_none() {
                extra.push(("unclosed", "true".to_owned()));
            }
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\
                 \"ts\":{},\"dur\":{},\"args\":{}}}",
                span.subsystem.index(),
                span.subsystem.name(),
                json::escape(span.name),
                span.start_us,
                span.duration_us(horizon),
                args_json(&span.attrs, &extra)
            ));
        }
        for ev in &self.events {
            if let TraceEvent::Instant {
                subsystem,
                name,
                at_us,
                attrs,
            } = ev
            {
                events.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\"tid\":{},\"cat\":\"{}\",\
                     \"name\":\"{}\",\"ts\":{},\"args\":{}}}",
                    subsystem.index(),
                    subsystem.name(),
                    json::escape(name),
                    at_us,
                    args_json(attrs, &[])
                ));
            }
        }
        let mut meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json::escape(k), json::escape(v)))
            .collect();
        meta.push(format!("\"dropped_events\":{}", self.dropped));
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json::escape(k), v))
            .collect();
        meta.push(format!("\"counters\":{{{}}}", counters.join(",")));
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json::escape(k), json_f64(*v)))
            .collect();
        meta.push(format!("\"gauges\":{{{}}}", gauges.join(",")));
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"metadata\":{{{}}}}}\n",
            events.join(",\n"),
            meta.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::json::{parse, Value};
    use crate::{AttrValue, Recorder, RecorderConfig, SpanId, Subsystem};

    #[test]
    fn chrome_trace_round_trips_through_the_json_reader() {
        let rec = Recorder::enabled(RecorderConfig::default());
        rec.set_meta("seed", "42".to_owned());
        rec.set_now(0);
        let root = rec.span_start(Subsystem::Rattrap, "request", SpanId::NONE);
        rec.set_now(100);
        let child = rec.span_start_at(
            Subsystem::Netsim,
            "upload",
            root,
            100,
            vec![("bytes", AttrValue::U64(512))],
        );
        rec.span_end_at(child, 300, vec![]);
        rec.instant(Subsystem::Hostkernel, "binder.transact", vec![]);
        rec.set_now(400);
        rec.span_end(root);
        rec.counter("events").add(3);

        let text = rec.snapshot().chrome_trace();
        let value = parse(&text).expect("export must be valid JSON");
        let Value::Object(top) = &value else {
            panic!("top level must be an object");
        };
        let Some(Value::Array(events)) = top.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        // One thread-name metadata per subsystem + 2 spans + 1 instant.
        assert_eq!(events.len(), Subsystem::ALL.len() + 3);
        let Some(Value::Object(meta)) = top.get("metadata") else {
            panic!("metadata object missing");
        };
        assert_eq!(meta.get("seed"), Some(&Value::Str("42".to_owned())));
        assert!(meta.contains_key("counters"));
    }

    #[test]
    fn unclosed_span_is_flagged_with_horizon_duration() {
        let rec = Recorder::enabled(RecorderConfig::default());
        rec.set_now(10);
        rec.span_start(Subsystem::Virt, "boot", SpanId::NONE);
        rec.instant_at(Subsystem::Virt, "late", 500, vec![]);
        let text = rec.snapshot().chrome_trace();
        assert!(text.contains("\"unclosed\":true"));
        assert!(text.contains("\"dur\":490"));
    }

    #[test]
    fn strings_are_escaped() {
        let rec = Recorder::enabled(RecorderConfig::default());
        rec.instant(
            Subsystem::Bench,
            "note",
            vec![("msg", AttrValue::Text("a\"b\\c\nd".to_owned()))],
        );
        let text = rec.snapshot().chrome_trace();
        crate::json::parse(&text).expect("escaped output still parses");
    }
}
