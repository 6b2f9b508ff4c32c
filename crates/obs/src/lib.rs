//! # omega-obs — dual-clock tracing and metrics
//!
//! The OMeGa reproduction runs on **two clocks**: the wall clock (how long
//! the host actually takes) and the simulated clock (`SimDuration` /
//! `SimInstant` nanoseconds from `omega-hetmem`'s cost model — the quantity
//! the paper's figures measure). This crate records both on every span, so a
//! single trace shows where the *simulated machine* spends its time next to
//! what the reproduction itself costs.
//!
//! Three pieces, zero external dependencies beyond the vendored `serde`
//! `Value` tree:
//!
//! * **Spans** — nestable, labeled intervals (`spmm.eata_assign`,
//!   `wofp.prefetch`, `asl.batch`, `prone.factorize`, …) on per-track
//!   timelines (one track per simulated socket/thread).
//! * **Metrics** — a thread-safe registry of counters, gauges, and
//!   histograms ([`MetricsSnapshot`]).
//! * **Exporters** — Chrome-trace-event JSON loadable in Perfetto (simulated
//!   nanoseconds as timestamps) and JSONL metric snapshots ([`export`]).
//!
//! A disabled [`Recorder`] (the default) is a no-op: every call checks one
//! `Option` and returns. Instrumented code paths therefore stay free when
//! observability is off.
//!
//! ## Clock model
//!
//! Each track `(pid, tid)` owns a simulated-time cursor. [`Recorder::begin`]
//! opens a span at the track's cursor; [`Recorder::end`] closes it either
//! after an explicit simulated duration (leaf spans, which advance the
//! cursor) or at the current cursor (parent spans, which thereby cover
//! exactly their children). Precomputed schedules — e.g. the ASL streaming
//! pipeline, where batch `k`'s flush overlaps batch `k+1`'s compute — are
//! recorded with [`Recorder::record_interval`] at explicit instants.

pub mod export;
pub mod json;
mod metrics;
pub mod profile;

pub use metrics::{percentile_u64, LatencyHistogram, MetricsSnapshot};
pub use profile::record_pool_timeline;

use omega_hetmem::{SimDuration, SimInstant};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A `(pid, tid)` timeline in the exported trace. `pid` groups tracks (the
/// main program is pid 0; simulated sockets are pid 1+), `tid` separates
/// parallel lanes within a group (compute vs. stream channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Track {
    pub pid: u32,
    pub tid: u32,
}

impl Track {
    pub const MAIN: Track = Track { pid: 0, tid: 0 };

    pub const fn new(pid: u32, tid: u32) -> Track {
        Track { pid, tid }
    }
}

/// One completed span. All simulated times are absolute nanoseconds since
/// the recorder's simulated epoch; wall times are microseconds since the
/// recorder was created.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub track: Track,
    pub sim_start_ns: u64,
    pub sim_dur_ns: u64,
    pub wall_start_us: u64,
    pub wall_dur_us: u64,
    /// Nesting depth on its track at open time (0 = root).
    pub depth: u32,
    pub args: Vec<(String, String)>,
}

/// Handle returned by [`Recorder::begin`]; pass back to [`Recorder::end`].
/// From a disabled recorder the handle is inert.
#[derive(Debug)]
#[must_use = "end the span with Recorder::end"]
pub struct SpanHandle {
    slot: usize,
}

const DISABLED_SLOT: usize = usize::MAX;

struct OpenSpan {
    name: String,
    track: Track,
    sim_start_ns: u64,
    wall_start: Instant,
    depth: u32,
    args: Vec<(String, String)>,
    closed: bool,
}

#[derive(Default)]
struct State {
    /// Slot-indexed by [`SpanHandle`]. A handle is consumed by `end`, so
    /// closed entries at the tail are unreachable and are dropped there;
    /// the vector stays as long as the deepest live nesting, not the run.
    open: Vec<OpenSpan>,
    /// Spans currently open per track (the depth the next one opens at).
    open_depth: HashMap<Track, u32>,
    spans: Vec<SpanRecord>,
    cursors: HashMap<Track, u64>,
    track_names: Vec<(Track, String)>,
    registry: metrics::Registry,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

impl Inner {
    /// Lock the recorder state. A poisoned lock is recovered, not
    /// propagated: every update leaves `State` valid at each step, so a
    /// task that panicked mid-span cannot wedge the recorder for the rest
    /// of the run.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Dual-clock span + metrics recorder. Cheap to clone (an `Arc`); the
/// default/disabled recorder turns every operation into a no-op.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// A recorder that records nothing at (almost) zero cost.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder whose wall epoch is "now" and simulated epoch is 0.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a human-readable name to a track (rendered by Perfetto).
    pub fn set_track_name(&self, track: Track, name: &str) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state();
        if let Some(entry) = st.track_names.iter_mut().find(|(t, _)| *t == track) {
            entry.1 = name.to_string();
        } else {
            st.track_names.push((track, name.to_string()));
        }
    }

    /// Open a span at the track's current simulated cursor.
    pub fn begin(&self, name: &str, track: Track) -> SpanHandle {
        let Some(inner) = &self.inner else {
            return SpanHandle {
                slot: DISABLED_SLOT,
            };
        };
        let mut st = inner.state();
        let sim_start_ns = *st.cursors.get(&track).unwrap_or(&0);
        let open_depth = st.open_depth.entry(track).or_insert(0);
        let depth = *open_depth;
        *open_depth += 1;
        st.open.push(OpenSpan {
            name: name.to_string(),
            track,
            sim_start_ns,
            wall_start: Instant::now(),
            depth,
            args: Vec::new(),
            closed: false,
        });
        SpanHandle {
            slot: st.open.len() - 1,
        }
    }

    /// Attach a key/value argument to an open span.
    pub fn arg(&self, handle: &SpanHandle, key: &str, value: impl ToString) {
        let Some(inner) = &self.inner else { return };
        if handle.slot == DISABLED_SLOT {
            return;
        }
        let mut st = inner.state();
        if let Some(span) = st.open.get_mut(handle.slot) {
            span.args.push((key.to_string(), value.to_string()));
        }
    }

    /// Close a span.
    ///
    /// * `Some(d)` — a **leaf** span that took `d` of simulated time: its
    ///   simulated end is `start + d` (or the cursor, if children advanced
    ///   it further) and the track cursor moves to that end.
    /// * `None` — a **parent** span: its simulated end is the track's
    ///   current cursor, so it covers exactly the spans recorded inside it.
    pub fn end(&self, handle: SpanHandle, sim_elapsed: Option<SimDuration>) {
        let Some(inner) = &self.inner else { return };
        if handle.slot == DISABLED_SLOT {
            return;
        }
        let mut st = inner.state();
        let Some(span) = st.open.get_mut(handle.slot) else {
            return;
        };
        if span.closed {
            return;
        }
        span.closed = true;
        let name = span.name.clone();
        let track = span.track;
        let sim_start_ns = span.sim_start_ns;
        let depth = span.depth;
        let args = std::mem::take(&mut span.args);
        let wall_start_us = span.wall_start.duration_since(inner.epoch).as_micros() as u64;
        let wall_dur_us = span.wall_start.elapsed().as_micros() as u64;
        while st.open.last().is_some_and(|s| s.closed) {
            st.open.pop();
        }
        *st.open_depth.get_mut(&track).expect("opened by begin") -= 1;

        let cursor = st.cursors.entry(track).or_insert(0);
        let sim_end_ns = match sim_elapsed {
            Some(d) => sim_start_ns.saturating_add(d.as_nanos()).max(*cursor),
            None => (*cursor).max(sim_start_ns),
        };
        *cursor = sim_end_ns;

        st.spans.push(SpanRecord {
            name,
            track,
            sim_start_ns,
            sim_dur_ns: sim_end_ns - sim_start_ns,
            wall_start_us,
            wall_dur_us,
            depth,
            args,
        });
    }

    /// Record a span at an explicit simulated interval (used for replayed
    /// schedules like the ASL pipeline, whose stages overlap). Advances the
    /// track cursor to at least the interval's end. Wall times are stamped
    /// "now" with zero duration.
    pub fn record_interval(
        &self,
        name: &str,
        track: Track,
        sim_start: SimInstant,
        sim_dur: SimDuration,
        args: Vec<(String, String)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state();
        let sim_start_ns = sim_start.as_nanos();
        let sim_end_ns = sim_start_ns.saturating_add(sim_dur.as_nanos());
        let cursor = st.cursors.entry(track).or_insert(0);
        *cursor = (*cursor).max(sim_end_ns);
        let wall_start_us = inner.epoch.elapsed().as_micros() as u64;
        st.spans.push(SpanRecord {
            name: name.to_string(),
            track,
            sim_start_ns,
            sim_dur_ns: sim_dur.as_nanos(),
            wall_start_us,
            wall_dur_us: 0,
            depth: 0,
            args,
        });
    }

    /// Record a span at an explicit **wall** interval (microseconds since
    /// the recorder's epoch) with zero simulated duration. Used to replay
    /// measured host timelines — e.g. pool worker intervals — onto
    /// dedicated tracks without perturbing any simulated cursor.
    pub(crate) fn record_wall_interval(
        &self,
        name: &str,
        track: Track,
        wall_start_us: u64,
        wall_dur_us: u64,
        depth: u32,
        args: Vec<(String, String)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state();
        let sim_start_ns = *st.cursors.get(&track).unwrap_or(&0);
        st.spans.push(SpanRecord {
            name: name.to_string(),
            track,
            sim_start_ns,
            sim_dur_ns: 0,
            wall_start_us,
            wall_dur_us,
            depth,
            args,
        });
    }

    /// The track's simulated cursor (the instant the next span would open).
    pub fn cursor(&self, track: Track) -> SimInstant {
        let Some(inner) = &self.inner else {
            return SimInstant::EPOCH;
        };
        let st = inner.state();
        SimInstant::EPOCH + SimDuration::from_nanos(*st.cursors.get(&track).unwrap_or(&0))
    }

    // ---- metrics ----------------------------------------------------------

    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.state().registry.counter_add(name, delta);
        }
    }

    pub fn counter_set(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.state().registry.counter_set(name, value);
        }
    }

    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.state().registry.gauge_set(name, value);
        }
    }

    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.state().registry.observe(name, value);
        }
    }

    // ---- export -----------------------------------------------------------

    /// Copy of every completed span, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.state().spans.clone(),
        }
    }

    /// Registered track names.
    pub(crate) fn track_names(&self) -> Vec<(Track, String)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.state().track_names.clone(),
        }
    }

    /// Point-in-time snapshot of all metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => inner.state().registry.snapshot(),
        }
    }

    /// Collapsed-stack (flamegraph) rendering of the span tree, weighted
    /// by self wall microseconds; see [`profile`].
    pub fn collapsed_stacks(&self) -> String {
        profile::collapsed_stacks(&self.spans())
    }

    /// Chrome-trace-event JSON (Perfetto-loadable); see [`export`].
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_json(self)
    }

    /// One JSON object per metric, one per line; see [`export`].
    pub fn metrics_jsonl(&self) -> String {
        export::metrics_jsonl(&self.metrics_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_noop() {
        let rec = Recorder::disabled();
        let h = rec.begin("x", Track::MAIN);
        rec.arg(&h, "k", 1);
        rec.end(h, Some(SimDuration::from_nanos(5)));
        rec.counter_add("c", 1);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.metrics_snapshot(), MetricsSnapshot::default());
        assert_eq!(rec.cursor(Track::MAIN), SimInstant::EPOCH);
    }

    /// A thread that panics while holding the recorder's lock poisons it;
    /// the recorder recovers the guard and keeps recording.
    #[test]
    fn panic_under_the_lock_does_not_wedge_the_recorder() {
        let rec = Recorder::enabled();
        rec.counter_add("c", 1);
        let inner = rec.inner.clone().expect("enabled recorder");
        let poisoner = std::thread::spawn(move || {
            let _held = inner.state();
            panic!("task panicked mid-update");
        });
        assert!(poisoner.join().is_err());
        rec.counter_add("c", 2);
        let span = rec.begin("after", Track::MAIN);
        rec.end(span, Some(SimDuration::from_nanos(7)));
        assert_eq!(rec.metrics_snapshot().counter("c"), Some(3));
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn leaf_spans_advance_cursor_and_parents_cover_children() {
        let rec = Recorder::enabled();
        let root = rec.begin("root", Track::MAIN);
        let a = rec.begin("a", Track::MAIN);
        rec.end(a, Some(SimDuration::from_nanos(10)));
        let b = rec.begin("b", Track::MAIN);
        rec.end(b, Some(SimDuration::from_nanos(32)));
        rec.end(root, None);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let get = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(get("a").sim_start_ns, 0);
        assert_eq!(get("a").sim_dur_ns, 10);
        assert_eq!(get("b").sim_start_ns, 10);
        assert_eq!(get("b").sim_dur_ns, 32);
        assert_eq!(get("root").sim_start_ns, 0);
        assert_eq!(get("root").sim_dur_ns, 42);
        assert_eq!(get("root").depth, 0);
        assert_eq!(get("a").depth, 1);
    }

    #[test]
    fn tracks_have_independent_cursors() {
        let rec = Recorder::enabled();
        let t1 = Track::new(1, 0);
        let t2 = Track::new(2, 0);
        let a = rec.begin("a", t1);
        rec.end(a, Some(SimDuration::from_nanos(100)));
        let b = rec.begin("b", t2);
        rec.end(b, Some(SimDuration::from_nanos(7)));
        assert_eq!(rec.cursor(t1).as_nanos(), 100);
        assert_eq!(rec.cursor(t2).as_nanos(), 7);
    }

    #[test]
    fn record_interval_advances_cursor_monotonically() {
        let rec = Recorder::enabled();
        let t = Track::new(3, 1);
        rec.record_interval(
            "load",
            t,
            SimInstant::EPOCH + SimDuration::from_nanos(50),
            SimDuration::from_nanos(25),
            vec![],
        );
        assert_eq!(rec.cursor(t).as_nanos(), 75);
        // An earlier interval must not move the cursor backwards.
        rec.record_interval(
            "flush",
            t,
            SimInstant::EPOCH,
            SimDuration::from_nanos(10),
            vec![],
        );
        assert_eq!(rec.cursor(t).as_nanos(), 75);
    }

    #[test]
    fn double_end_is_ignored() {
        let rec = Recorder::enabled();
        let h = rec.begin("once", Track::MAIN);
        let slot = h.slot;
        rec.end(h, Some(SimDuration::from_nanos(5)));
        rec.end(SpanHandle { slot }, Some(SimDuration::from_nanos(5)));
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.cursor(Track::MAIN).as_nanos(), 5);
    }
}
