//! Benchmark-side spans: one record around every call the benchmark makes
//! into a layer's public functions.
//!
//! Spans are held in memory and written out once, after measuring. A
//! span's name starts with the crate it calls into (`serve.serve_batch`,
//! `embed.Prone::embed`); `bench.*` spans are the benchmark's own loop.
//! Spans of one repeated unit share a unit id.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; give it back to [`Tracer::end`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<u32>);

/// Records spans when on; when off every call returns at once, so the
/// untraced pass pays one branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    unit: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    /// Later spans belong to the next repeated unit.
    pub fn next_unit(&mut self) {
        self.unit += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            unit: self.unit,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in opening order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"unit\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Count, total and self time of every span name. Self time is a span's
/// duration minus the part its direct children cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_name: BTreeMap<&'static str, NameTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            unit: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.unit", None, 0, 100),
            span("serve.serve_batch", Some(0), 10, 70),
            span("linalg.scan", Some(1), 20, 50),
            span("serve.serve_batch", Some(0), 70, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["bench.unit"],
            NameTime {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["serve.serve_batch"],
            NameTime {
                count: 2,
                total_ns: 80,
                self_ns: 50
            }
        );
        assert_eq!(t["linalg.scan"].self_ns, 30);
        // Self times of a tree add up to the root's duration.
        assert_eq!(t.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_links_parents_and_units() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("bench.unit");
        tr.span("serve.get_vectors", || ());
        tr.end(root);
        tr.next_unit();
        tr.span("bench.unit", || ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].unit, s[1].unit, s[2].unit), (0, 0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("serve.top_k", || 7), 7);
        assert!(tr.spans().is_empty());
    }
}
