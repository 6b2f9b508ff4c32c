//! Exporters: Chrome trace events (Perfetto) and JSONL metrics.
//!
//! The Chrome trace uses **simulated time** for `ts`/`dur` (microseconds,
//! as the format requires) so Perfetto renders the simulated machine's
//! timeline: one process per track group (main program, simulated sockets),
//! one thread per lane. Wall-clock measurements ride along in each event's
//! `args` (`wall_start_us`, `wall_dur_us`).

use crate::json::object;
use crate::metrics::MetricsSnapshot;
use crate::{Recorder, SpanRecord};
use serde::Value;

/// Render all completed spans as a Chrome-trace-event JSON document
/// (`{"traceEvents": [...]}`), loadable in Perfetto / `chrome://tracing`.
pub(crate) fn chrome_trace_json(rec: &Recorder) -> String {
    let mut events: Vec<Value> = Vec::new();

    for (track, name) in rec.track_names() {
        events.push(object([
            ("ph", Value::Str("M".to_string())),
            ("name", Value::Str("thread_name".to_string())),
            ("pid", Value::U64(track.pid as u64)),
            ("tid", Value::U64(track.tid as u64)),
            ("args", object([("name", Value::Str(name))])),
        ]));
    }

    for span in rec.spans() {
        events.push(span_event(&span));
    }

    let doc = object([
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ns".to_string())),
    ]);
    crate::json::to_string(&doc)
}

fn span_event(span: &SpanRecord) -> Value {
    let mut args: Vec<(String, Value)> = [
        ("sim_start_ns", span.sim_start_ns),
        ("sim_dur_ns", span.sim_dur_ns),
        ("wall_start_us", span.wall_start_us),
        ("wall_dur_us", span.wall_dur_us),
        ("depth", span.depth as u64),
    ]
    .map(|(k, n)| (k.to_string(), Value::U64(n)))
    .into();
    for (k, v) in &span.args {
        args.push((k.clone(), Value::Str(v.clone())));
    }
    object([
        ("name", Value::Str(span.name.clone())),
        ("cat", Value::Str("omega".to_string())),
        ("ph", Value::Str("X".to_string())),
        // Chrome trace timestamps are microseconds; keep ns precision as a
        // fraction.
        ("ts", Value::F64(span.sim_start_ns as f64 / 1_000.0)),
        ("dur", Value::F64(span.sim_dur_ns as f64 / 1_000.0)),
        ("pid", Value::U64(span.track.pid as u64)),
        ("tid", Value::U64(span.track.tid as u64)),
        ("args", Value::Map(args)),
    ])
}

/// One JSON object per line: every counter, gauge, and histogram in the
/// snapshot. Stable field order; counters first, then gauges, histograms.
pub(crate) fn metrics_jsonl(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&json_line(&object([
            ("kind", Value::Str("counter".to_string())),
            ("name", Value::Str(name.clone())),
            ("value", Value::U64(*value)),
        ])));
    }
    for (name, value) in &snap.gauges {
        out.push_str(&json_line(&object([
            ("kind", Value::Str("gauge".to_string())),
            ("name", Value::Str(name.clone())),
            ("value", Value::F64(*value)),
        ])));
    }
    for (name, hist) in &snap.histograms {
        out.push_str(&json_line(&object([
            ("kind", Value::Str("histogram".to_string())),
            ("name", Value::Str(name.clone())),
            ("count", Value::U64(hist.count)),
            ("sum", Value::F64(hist.sum)),
            ("min", Value::F64(hist.min)),
            ("max", Value::F64(hist.max)),
            ("mean", Value::F64(hist.mean())),
        ])));
    }
    out
}

/// Parse one JSONL metrics document back into `(kind, name, value)` rows
/// (histograms report their `mean`). For tests and quick tooling.
pub fn parse_metrics_jsonl(
    text: &str,
) -> Result<Vec<(String, String, f64)>, crate::json::ParseError> {
    let mut rows = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let v = crate::json::parse(line)?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let value = match kind.as_str() {
            "histogram" => v.get("mean").and_then(Value::as_f64).unwrap_or(0.0),
            _ => v.get("value").and_then(Value::as_f64).unwrap_or(0.0),
        };
        rows.push((kind, name, value));
    }
    Ok(rows)
}

/// Encode one value as a JSON line (a metrics row, or a row a bench binary
/// appends to its results file).
pub fn json_line(value: &Value) -> String {
    let mut s = crate::json::to_string(value);
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Track;
    use omega_hetmem::SimDuration;

    fn sample_recorder() -> Recorder {
        let rec = Recorder::enabled();
        rec.set_track_name(Track::MAIN, "main");
        let root = rec.begin("root", Track::MAIN);
        let leaf = rec.begin("leaf", Track::MAIN);
        rec.arg(&leaf, "batch", 3);
        rec.end(leaf, Some(SimDuration::from_nanos(1500)));
        rec.end(root, None);
        rec.counter_add("mem.pm_bytes", 64);
        rec.gauge_set("wofp.hit_rate", 0.5);
        rec.observe("batch.ns", 1500.0);
        rec
    }

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let rec = sample_recorder();
        let doc = crate::json::parse(&rec.chrome_trace_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap();
        // 1 metadata + 2 spans.
        assert_eq!(events.len(), 3);
        let leaf = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("leaf"))
            .unwrap();
        assert_eq!(leaf.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(leaf.get("dur").and_then(Value::as_f64), Some(1.5));
        assert_eq!(
            leaf.get("args")
                .unwrap()
                .get("batch")
                .and_then(Value::as_str),
            Some("3")
        );
    }

    #[test]
    fn jsonl_round_trips() {
        let rec = sample_recorder();
        let rows = parse_metrics_jsonl(&rec.metrics_jsonl()).unwrap();
        assert!(rows.contains(&("counter".to_string(), "mem.pm_bytes".to_string(), 64.0)));
        assert!(rows.contains(&("gauge".to_string(), "wofp.hit_rate".to_string(), 0.5)));
        assert!(rows
            .iter()
            .any(|(k, n, v)| k == "histogram" && n == "batch.ns" && *v == 1500.0));
    }

    #[test]
    fn disabled_recorder_exports_empty_documents() {
        let rec = Recorder::disabled();
        let doc = crate::json::parse(&rec.chrome_trace_json()).unwrap();
        assert_eq!(
            doc.get("traceEvents").unwrap().as_seq().map(<[Value]>::len),
            Some(0)
        );
        assert!(rec.metrics_jsonl().is_empty());
    }
}
