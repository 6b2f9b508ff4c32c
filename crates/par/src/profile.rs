//! Wall-clock attribution for the worker pool.
//!
//! The pool's determinism contract says parallelism may never change
//! *what* is computed — which leaves one question the simulated clock
//! cannot answer: where does the **host** wall time go when a parallel
//! configuration runs slower than the sequential one? This module measures
//! exactly that, and nothing else: it never touches simulated time, task
//! ordering, fault schedules, or metrics, so every output of the system is
//! byte-identical with profiling on or off.
//!
//! ## Model
//!
//! A [`PoolProfiler`] is installed *ambiently* on the calling thread
//! ([`install`]); pool entry points pick it up from thread-local storage,
//! so call sites deep inside `omega-linalg` or `omega-spmm` need no
//! plumbing. Worker threads do **not** inherit the ambient profiler — a
//! nested pool call from a worker (the pool never does this today) would
//! simply go unprofiled rather than double-count.
//!
//! Every parallel pool call is decomposed per worker slot into four
//! exhaustive, disjoint interval classes measured on the monotonic clock:
//!
//! * **execute** — time inside the user closure (plus the result-slot
//!   store),
//! * **idle** — time inside the slot loop but outside any task (claim
//!   contention, steal scans, tail starvation),
//! * **park** — wake latency: the span from job post to the moment a
//!   parked pool worker claimed its slot (zero for the caller's slot,
//!   which starts immediately; the whole call span for slots revoked
//!   before any worker woke),
//! * **barrier** — completion-latch tail and dispatch bookkeeping outside
//!   the slot loop.
//!
//! By construction `execute + idle + park + barrier == worker wall span`
//! exactly (the span being the caller-observed call interval) — the
//! invariant the property tests pin. Successful steals are counted per
//! slot alongside, so imbalance diagnoses show whether the deques
//! rebalanced skewed work.
//!
//! Attribution is by **label**: the innermost [`phase_scope`] on the
//! calling thread if one is active (e.g. `"tsvd"`, `"topk"`), otherwise
//! the call site's static label (e.g. `"linalg.gemm"`). Calls the pool
//! runs inline are attributed the same way, as sequential calls, so phase
//! breakdowns account for them too.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cap on stored per-call timeline records (aggregates are always exact).
const MAX_CALL_RECORDS: usize = 1024;
/// Cap on stored task intervals per worker per call (counts stay exact).
const MAX_TASK_INTERVALS: usize = 64;

/// Aggregated wall-clock profile for one attribution label (a phase name
/// or a pool call site). All durations are nanoseconds of host wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolProfile {
    /// Parallel pool calls attributed to this label.
    pub calls: u64,
    /// Pool calls that ran inline on the caller.
    pub seq_calls: u64,
    /// Tasks executed (parallel tasks + sequential items).
    pub tasks: u64,
    /// Worker threads spawned across all parallel calls.
    pub workers: u64,
    /// CPU-time sums across workers.
    pub exec_ns: u64,
    pub idle_ns: u64,
    pub barrier_ns: u64,
    /// Wake latency sum: job post → slot claim, per pool-worker slot.
    pub park_ns: u64,
    /// Successful steals (tasks claimed from another slot's range).
    pub steals: u64,
    /// Σ over workers of their call-wall span; equals
    /// `exec_ns + idle_ns + barrier_ns + park_ns` exactly.
    pub worker_wall_ns: u64,
    /// Caller-observed wall time of parallel calls.
    pub wall_ns: u64,
    /// `wall_ns` attributed to the four classes by dividing the CPU sums
    /// over the worker count; `exec_wall_ns + idle_wall_ns + park_wall_ns
    /// + barrier_wall_ns == wall_ns` exactly (barrier takes the residue).
    pub exec_wall_ns: u64,
    pub idle_wall_ns: u64,
    pub park_wall_ns: u64,
    pub barrier_wall_ns: u64,
    /// Wall time of sequential executions attributed to this label.
    pub seq_wall_ns: u64,
    /// Self wall time of [`phase_scope`]s with this label (scope duration
    /// minus nested scopes; includes pool-call wall time).
    pub scope_self_wall_ns: u64,
    pub scope_calls: u64,
    /// Σ per-call max worker execute time (imbalance numerator).
    pub sum_max_exec_ns: u64,
    /// Σ per-call mean worker execute time (imbalance denominator).
    pub sum_mean_exec_ns: u64,
}

impl PoolProfile {
    /// Wall nanoseconds attributed to useful work under this label.
    ///
    /// For labels with phase scopes the scope self time already contains
    /// the pool-call wall time (and any sequential work inside the scope),
    /// so the task component is the scope self time minus the non-work
    /// pool components. For bare call-site labels it is the wall-share of
    /// execution plus inline calls.
    fn task_wall_ns(&self) -> u64 {
        if self.scope_calls > 0 {
            self.scope_self_wall_ns
                .saturating_sub(self.idle_wall_ns)
                .saturating_sub(self.park_wall_ns)
                .saturating_sub(self.barrier_wall_ns)
        } else {
            self.exec_wall_ns + self.seq_wall_ns
        }
    }

    /// Total wall nanoseconds this label accounts for
    /// (`task + idle + park + barrier`).
    pub fn attributed_wall_ns(&self) -> u64 {
        self.task_wall_ns() + self.idle_wall_ns + self.park_wall_ns + self.barrier_wall_ns
    }

    /// Fold another profile into this one (used for whole-run totals).
    fn merge(&mut self, other: &PoolProfile) {
        self.calls += other.calls;
        self.seq_calls += other.seq_calls;
        self.tasks += other.tasks;
        self.workers += other.workers;
        self.exec_ns += other.exec_ns;
        self.idle_ns += other.idle_ns;
        self.barrier_ns += other.barrier_ns;
        self.park_ns += other.park_ns;
        self.steals += other.steals;
        self.worker_wall_ns += other.worker_wall_ns;
        self.wall_ns += other.wall_ns;
        self.exec_wall_ns += other.exec_wall_ns;
        self.idle_wall_ns += other.idle_wall_ns;
        self.park_wall_ns += other.park_wall_ns;
        self.barrier_wall_ns += other.barrier_wall_ns;
        self.seq_wall_ns += other.seq_wall_ns;
        self.scope_self_wall_ns += other.scope_self_wall_ns;
        self.scope_calls += other.scope_calls;
        self.sum_max_exec_ns += other.sum_max_exec_ns;
        self.sum_mean_exec_ns += other.sum_mean_exec_ns;
    }
}

/// One worker slot's timeline within one pool call. Times are
/// microseconds since the profiler's epoch (coarse, for timeline export);
/// the exact nanosecond sums live in the aggregates.
#[derive(Debug, Clone)]
pub struct WorkerTimeline {
    pub loop_start_us: u64,
    pub loop_end_us: u64,
    /// First `MAX_TASK_INTERVALS` (64) task intervals `(start_us, end_us)`.
    pub tasks: Vec<(u64, u64)>,
    pub task_count: u64,
    pub exec_ns: u64,
    pub idle_ns: u64,
    /// Wake latency before this slot's loop (0 for the caller's slot 0;
    /// the full call span for a slot revoked before any worker woke).
    pub park_ns: u64,
    /// Tasks this slot claimed from another slot's range.
    pub steals: u64,
}

/// One parallel pool call, kept (capped) for timeline export.
#[derive(Debug, Clone)]
pub struct PoolCallRecord {
    /// Static call-site label.
    pub site: &'static str,
    /// Attribution label (innermost phase scope, else the site).
    pub label: String,
    pub start_us: u64,
    pub end_us: u64,
    pub workers: Vec<WorkerTimeline>,
}

#[derive(Default)]
struct ProfState {
    labels: BTreeMap<String, PoolProfile>,
    calls: Vec<PoolCallRecord>,
}

struct ProfInner {
    epoch: Instant,
    state: Mutex<ProfState>,
}

/// Wall-clock pool profiler. Cheap to clone (an `Arc`); the default /
/// disabled profiler turns every operation into a no-op and the pool's
/// hot paths stay exactly as they were.
#[derive(Clone, Default)]
pub struct PoolProfiler {
    inner: Option<Arc<ProfInner>>,
}

impl std::fmt::Debug for PoolProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolProfiler")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl PoolProfiler {
    pub fn disabled() -> PoolProfiler {
        PoolProfiler { inner: None }
    }

    /// A live profiler whose wall epoch is "now".
    pub fn enabled() -> PoolProfiler {
        PoolProfiler {
            inner: Some(Arc::new(ProfInner {
                epoch: Instant::now(),
                state: Mutex::new(ProfState::default()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Per-label profiles, sorted by label.
    pub fn profiles(&self) -> Vec<(String, PoolProfile)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .labels
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Every label folded together.
    pub fn total(&self) -> PoolProfile {
        let mut total = PoolProfile::default();
        for (_, p) in self.profiles() {
            total.merge(&p);
        }
        total
    }

    /// Stored per-call worker timelines (capped at `MAX_CALL_RECORDS`,
    /// 1024).
    pub fn call_records(&self) -> Vec<PoolCallRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.state.lock().unwrap().calls.clone(),
        }
    }

    fn epoch(&self) -> Option<Instant> {
        self.inner.as_ref().map(|i| i.epoch)
    }

    fn record_inline_ns(&self, label: &str, wall_ns: u64, tasks: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().unwrap();
        let p = st.labels.entry(label.to_string()).or_default();
        p.seq_calls += 1;
        p.tasks += tasks;
        p.seq_wall_ns += wall_ns;
    }

    fn record_scope(&self, label: &str, self_wall_ns: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().unwrap();
        let p = st.labels.entry(label.to_string()).or_default();
        p.scope_calls += 1;
        p.scope_self_wall_ns += self_wall_ns;
    }

    #[allow(clippy::too_many_arguments)]
    fn record_call(
        &self,
        site: &'static str,
        label: &str,
        start_us: u64,
        call_ns: u64,
        tasks: u64,
        workers: Vec<WorkerTimeline>,
    ) {
        let Some(inner) = &self.inner else { return };
        let nworkers = workers.len() as u64;
        let mut exec_total = 0u64;
        let mut idle_total = 0u64;
        let mut park_total = 0u64;
        let mut barrier_total = 0u64;
        let mut steal_total = 0u64;
        let mut max_exec = 0u64;
        // Re-derive idle/park/barrier so the per-slot identity
        // exec + idle + park + barrier == call span holds exactly even
        // under timer coarseness.
        let workers: Vec<WorkerTimeline> = workers
            .into_iter()
            .map(|mut w| {
                w.park_ns = w.park_ns.min(call_ns);
                w.exec_ns = w.exec_ns.min(call_ns - w.park_ns);
                let loop_ns = (w.exec_ns + w.idle_ns)
                    .min(call_ns - w.park_ns)
                    .max(w.exec_ns);
                w.idle_ns = loop_ns - w.exec_ns;
                exec_total += w.exec_ns;
                idle_total += w.idle_ns;
                park_total += w.park_ns;
                barrier_total += call_ns - w.park_ns - loop_ns;
                steal_total += w.steals;
                max_exec = max_exec.max(w.exec_ns);
                w
            })
            .collect();
        let mut st = inner.state.lock().unwrap();
        let p = st.labels.entry(label.to_string()).or_default();
        p.calls += 1;
        p.tasks += tasks;
        p.workers += nworkers;
        p.exec_ns += exec_total;
        p.idle_ns += idle_total;
        p.barrier_ns += barrier_total;
        p.park_ns += park_total;
        p.steals += steal_total;
        p.worker_wall_ns += nworkers * call_ns;
        p.wall_ns += call_ns;
        let exec_wall = exec_total.checked_div(nworkers).unwrap_or(0);
        let idle_wall = idle_total.checked_div(nworkers).unwrap_or(0);
        let park_wall = park_total.checked_div(nworkers).unwrap_or(0);
        p.exec_wall_ns += exec_wall;
        p.idle_wall_ns += idle_wall;
        p.park_wall_ns += park_wall;
        p.barrier_wall_ns += call_ns - exec_wall - idle_wall - park_wall;
        p.sum_max_exec_ns += max_exec;
        p.sum_mean_exec_ns += exec_wall;
        if st.calls.len() < MAX_CALL_RECORDS {
            st.calls.push(PoolCallRecord {
                site,
                label: label.to_string(),
                start_us,
                end_us: start_us + call_ns / 1_000,
                workers,
            });
        }
    }
}

// ---- ambient install + phase scopes ---------------------------------------

struct ScopeFrame {
    label: &'static str,
    start: Instant,
    /// Wall ns consumed by nested scopes (subtracted for self time).
    child_ns: u64,
}

#[derive(Default)]
struct Ambient {
    profiler: PoolProfiler,
    scopes: Vec<ScopeFrame>,
}

thread_local! {
    static AMBIENT: RefCell<Ambient> = RefCell::new(Ambient::default());
}

/// Restores the previously installed profiler when dropped.
#[must_use = "dropping the guard immediately uninstalls the profiler"]
pub struct ProfilerGuard {
    /// `None` when the install was a nested no-op (an enabled profiler
    /// was already ambient) — dropping restores nothing.
    prev: Option<PoolProfiler>,
}

impl ProfilerGuard {
    /// Whether this guard actually installed its profiler. `false` means
    /// the install was a no-op because an enabled profiler was already
    /// ambient on this thread (the outer install wins).
    #[cfg(test)]
    pub(crate) fn installed(&self) -> bool {
        self.prev.is_some()
    }
}

/// Install `profiler` as the calling thread's ambient profiler for the
/// lifetime of the returned guard. Pool entry points and [`phase_scope`]
/// invoked from this thread report into it; worker threads
/// spawned by the pool do not inherit it.
///
/// Nested installs are a **documented no-op**: if an enabled profiler is
/// already ambient on this thread (e.g. the plane engine installs while
/// serve scopes are live), the outer profiler keeps recording and
/// dropping the returned guard restores nothing — so an inner layer can never silently
/// steal or truncate an outer layer's attribution window.
pub fn install(profiler: &PoolProfiler) -> ProfilerGuard {
    let already = AMBIENT.with(|a| a.borrow().profiler.is_enabled());
    if already {
        return ProfilerGuard { prev: None };
    }
    let prev = AMBIENT.with(|a| std::mem::replace(&mut a.borrow_mut().profiler, profiler.clone()));
    ProfilerGuard { prev: Some(prev) }
}

impl Drop for ProfilerGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            AMBIENT.with(|a| a.borrow_mut().profiler = prev);
        }
    }
}

/// The calling thread's ambient profiler, if one is installed and enabled.
pub(crate) fn active_profiler() -> Option<PoolProfiler> {
    AMBIENT.with(|a| {
        let a = a.borrow();
        if a.profiler.is_enabled() {
            Some(a.profiler.clone())
        } else {
            None
        }
    })
}

/// Attribution label for a pool call from this thread: the innermost
/// active phase scope, or the call site's static label.
pub(crate) fn current_label(site: &'static str) -> String {
    AMBIENT.with(|a| {
        a.borrow()
            .scopes
            .last()
            .map(|s| s.label.to_string())
            .unwrap_or_else(|| site.to_string())
    })
}

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let (profiler, label, self_ns) = AMBIENT.with(|a| {
            let mut a = a.borrow_mut();
            let frame = a.scopes.pop().expect("phase scope stack underflow");
            let total_ns = frame.start.elapsed().as_nanos() as u64;
            let self_ns = total_ns.saturating_sub(frame.child_ns);
            if let Some(parent) = a.scopes.last_mut() {
                parent.child_ns += total_ns;
            }
            (a.profiler.clone(), frame.label, self_ns)
        });
        profiler.record_scope(label, self_ns);
    }
}

/// Run `f` inside a named wall-clock phase.
///
/// While the scope is active, pool calls on this thread, inline or
/// parallel, attribute to `label` instead of their call-site labels. The scope's
/// *self* time (duration minus nested scopes) accrues to the label's
/// profile. With no profiler installed this is a single thread-local read.
pub fn phase_scope<R>(label: &'static str, f: impl FnOnce() -> R) -> R {
    let enabled = AMBIENT.with(|a| a.borrow().profiler.is_enabled());
    if !enabled {
        return f();
    }
    AMBIENT.with(|a| {
        a.borrow_mut().scopes.push(ScopeFrame {
            label,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let _guard = ScopeGuard;
    f()
}

// ---- hooks used by the pool entry points ----------------------------------

/// Per-slot measurement state threaded through a profiled pool call.
pub(crate) struct WorkerMeter {
    epoch: Instant,
    loop_start: Instant,
    loop_start_us: u64,
    park_ns: u64,
    exec_ns: u64,
    task_count: u64,
    tasks: Vec<(u64, u64)>,
}

impl WorkerMeter {
    pub(crate) fn start(epoch: Instant, park_ns: u64) -> WorkerMeter {
        let now = Instant::now();
        WorkerMeter {
            epoch,
            loop_start: now,
            loop_start_us: now.duration_since(epoch).as_micros() as u64,
            park_ns,
            exec_ns: 0,
            task_count: 0,
            tasks: Vec::new(),
        }
    }

    /// Time one task: `f` is the closure call plus its result store.
    pub(crate) fn task<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        self.exec_ns += dur.as_nanos() as u64;
        self.task_count += 1;
        if self.tasks.len() < MAX_TASK_INTERVALS {
            let start_us = t0.duration_since(self.epoch).as_micros() as u64;
            self.tasks
                .push((start_us, start_us + dur.as_micros() as u64));
        }
        out
    }

    pub(crate) fn finish(self, steals: u64) -> WorkerTimeline {
        let loop_ns = self.loop_start.elapsed().as_nanos() as u64;
        let loop_end_us = self.loop_start_us + loop_ns / 1_000;
        WorkerTimeline {
            loop_start_us: self.loop_start_us,
            loop_end_us,
            tasks: self.tasks,
            task_count: self.task_count,
            exec_ns: self.exec_ns,
            idle_ns: loop_ns.saturating_sub(self.exec_ns),
            park_ns: self.park_ns,
            steals,
        }
    }
}

/// A slot's meter inside a dispatch: measuring when the call is profiled,
/// free when it is not.
pub(crate) enum SlotMeter {
    Off,
    On(WorkerMeter),
}

impl SlotMeter {
    /// Time one task (no-op wrapper when unprofiled).
    pub(crate) fn task<R>(&mut self, f: impl FnOnce() -> R) -> R {
        match self {
            SlotMeter::Off => f(),
            SlotMeter::On(m) => m.task(f),
        }
    }
}

/// Caller-side measurement for one profiled parallel call.
pub(crate) struct CallMeter {
    profiler: PoolProfiler,
    site: &'static str,
    label: String,
    epoch: Instant,
    start: Instant,
}

impl CallMeter {
    /// `None` when no enabled profiler is ambient — callers take the
    /// unprofiled fast path.
    pub(crate) fn begin(site: &'static str) -> Option<CallMeter> {
        let profiler = active_profiler()?;
        let epoch = profiler.epoch()?;
        Some(CallMeter {
            label: current_label(site),
            profiler,
            site,
            epoch,
            start: Instant::now(),
        })
    }

    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    pub(crate) fn finish(self, tasks: u64, workers: Vec<WorkerTimeline>) {
        let call_ns = self.start.elapsed().as_nanos() as u64;
        let start_us = self.start.duration_since(self.epoch).as_micros() as u64;
        self.profiler
            .record_call(self.site, &self.label, start_us, call_ns, tasks, workers);
    }

    /// Record an inline (sequential-path) execution of a pool entry point.
    pub(crate) fn finish_seq(self, tasks: u64) {
        let call_ns = self.start.elapsed().as_nanos() as u64;
        self.profiler
            .record_inline_ns(&self.label, call_ns, tasks.max(1));
    }
}
