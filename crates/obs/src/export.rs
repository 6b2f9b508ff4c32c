//! Exporters: Chrome trace events (Perfetto) and JSONL metrics.
//!
//! The Chrome trace uses **simulated time** for `ts`/`dur` (microseconds,
//! as the format requires) so Perfetto renders the simulated machine's
//! timeline: one process per track group (main program, simulated sockets),
//! one thread per lane. Wall-clock measurements ride along in each event's
//! `args` (`wall_start_us`, `wall_dur_us`).

use crate::json::object;
use crate::metrics::MetricsSnapshot;
use crate::{Recorder, SpanRecord, Track};
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

/// Read a [`Recorder::chrome_trace_json`] document back into its spans,
/// in the recorder's completion order (the order `profile::aggregate`'s
/// tree walk needs). Every X event must carry the exporter's exact
/// dual-clock args; span args are not read back.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<SpanRecord>, String> {
    let doc = crate::json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_seq)
        .ok_or("not a chrome trace (no traceEvents array)")?;
    let mut spans = Vec::new();
    for ev in events {
        let num = |v: Option<&Value>| v.and_then(Value::as_u64);
        let arg = |key: &str| num(ev.get("args").and_then(|a| a.get(key)));
        let (Some("X"), Some(name), Some(pid), Some(tid)) = (
            ev.get("ph").and_then(Value::as_str),
            ev.get("name").and_then(Value::as_str),
            num(ev.get("pid")),
            num(ev.get("tid")),
        ) else {
            continue;
        };
        let clocks = ["sim_start_ns", "sim_dur_ns", "wall_start_us", "wall_dur_us"].map(arg);
        let [Some(sim_start_ns), Some(sim_dur_ns), Some(wall_start_us), Some(wall_dur_us)] = clocks
        else {
            return Err(format!(
                "X event {name:?} lacks dual-clock args — not an omega trace"
            ));
        };
        spans.push(SpanRecord {
            name: name.to_string(),
            track: Track::new(pid as u32, tid as u32),
            sim_start_ns,
            sim_dur_ns,
            wall_start_us,
            wall_dur_us,
            depth: arg("depth").unwrap_or(0) as u32,
            args: Vec::new(),
        });
    }
    if spans.is_empty() {
        return Err("trace holds no spans".into());
    }
    Ok(spans)
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
            ("count", Value::U64(hist.count())),
            ("sum", Value::F64(hist.sum() as f64)),
            ("min", Value::F64(hist.min() as f64)),
            ("max", Value::F64(hist.max() as f64)),
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
        rec.observe("batch.ns", 1500);
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

    #[test]
    fn chrome_trace_parses_back_to_its_spans() {
        let rec = sample_recorder();
        let worker = Track::new(2, 3);
        let pass = rec.begin("pass", worker);
        rec.end(pass, Some(SimDuration::from_nanos(700)));
        let spans = parse_chrome_trace(&rec.chrome_trace_json()).unwrap();
        let want = rec.spans();
        assert_eq!(spans.len(), want.len());
        for (got, want) in spans.iter().zip(&want) {
            let key = |s: &SpanRecord| {
                let clocks = (s.sim_start_ns, s.sim_dur_ns, s.wall_start_us, s.wall_dur_us);
                (s.name.clone(), s.track, clocks, s.depth)
            };
            assert_eq!(key(got), key(want));
        }
    }

    #[test]
    fn chrome_trace_reader_refuses_what_it_cannot_profile() {
        let err = |text: &str| parse_chrome_trace(text).unwrap_err();
        assert!(err("{}").contains("no traceEvents"));
        assert!(err(r#"{"traceEvents":[]}"#).contains("no spans"));
        let bare = r#"{"traceEvents":[{"ph":"X","name":"a","pid":0,"tid":0,"args":{}}]}"#;
        assert!(err(bare).contains("\"a\" lacks dual-clock args"));
        assert!(parse_chrome_trace("not json").is_err());
    }
}
