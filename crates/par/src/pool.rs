//! The persistent work-stealing pool behind [`crate::run`] and
//! [`crate::for_each_chunk_labeled`].
//!
//! ## Why persistent
//!
//! The first cut of `omega-par` spawned a fresh `thread::scope` per call.
//! The committed baselines showed what that costs: `serving_par8` spent
//! 383 ms of a 451 ms run in spawn/join barriers. This module keeps one
//! process-wide set of workers alive instead — parked on a condvar between
//! calls — so a pool call pays a wake + a completion latch, not a
//! spawn + join.
//!
//! ## Shape of a call
//!
//! A parallel call with `w` worker *slots* over `n` tasks:
//!
//! 1. partitions `0..n` into `w` contiguous **range deques** (slot `s`
//!    owns `[s·n/w, (s+1)·n/w)`);
//! 2. posts a type-erased job offering slots `1..w` to the parked workers
//!    and runs slot `0` on the **caller's own thread** (no wake latency,
//!    and the caller is never idle while its workers compute);
//! 3. every participant drains its own deque from the low end
//!    (ascending, cache-friendly), then **steals** from the high end of
//!    the other slots' deques — owner and thief only collide on the last
//!    item of a range, and every index is claimed exactly once by an
//!    atomic compare-exchange;
//! 4. the caller revokes unclaimed slots and blocks on a latch until
//!    every claimed slot has finished, then collects results in index
//!    order.
//!
//! Stealing reorders *execution*, never *results*: work items partition
//! output indices, merges happen in fixed index order on the caller, and
//! fault streams are keyed by what is processed (shard id, request index,
//! column batch) — so the simulated clock, byte ledger, and fault
//! schedules are byte-identical at every thread count and under every
//! steal interleaving.
//!
//! ## Scratch arenas
//!
//! Each participating OS thread (pool workers *and* callers) owns a
//! type-keyed scratch arena that survives across calls: [`with_scratch`]
//! hands a task loop the thread's reusable `S` (score buffers, reusable
//! `ThreadMem` contexts, …) and returns it afterwards. Scratch is
//! *dirty-reusable* memory — tasks must fully initialise whatever they
//! read, which every call site already guaranteed for within-call reuse.
//!
//! ## Adaptive sequential fallback
//!
//! Tiny workloads never touch the pool. Each call site keeps an EWMA
//! estimate of its per-task wall cost (measured on every call, sequential
//! or parallel); a call dispatches to the pool only when
//! `estimated_task_ns × task_count` reaches the policy cutoff — below it
//! the call runs inline on the caller (recorded as a sequential call, so
//! phase breakdowns still account for it). With an unknown estimate
//! the call dispatches optimistically and the measurement adapts the next
//! one. On a host without real parallelism the pool can never win, so the
//! default [`DispatchPolicy`] also runs everything inline when
//! `available_parallelism() <= 1` and caps slot counts at the core count
//! otherwise; tests force the pool with [`with_dispatch_policy`].
//!
//! Which path runs affects wall time and its attribution only — both
//! paths compute bit-identical results by the pool's contract.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::profile::{SlotMeter, WorkerMeter, WorkerTimeline};

/// Hard cap on worker slots per call (caller + spawned pool workers).
pub(crate) const MAX_WORKER_SLOTS: usize = 16;

/// Default projected-work cutoff: calls whose estimated total task time
/// is below this run inline. Roughly 10x the measured cost of one pool
/// dispatch (wake + latch) on commodity hardware, so the pool is only
/// entered when it can plausibly pay for itself.
const SEQ_CUTOFF_NS: u64 = 120_000;

// ---- dispatch policy -------------------------------------------------------

/// When does a call dispatch to the pool instead of running inline?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// Projected total task nanoseconds (`estimate × task count`) below
    /// which a call runs inline on the caller. `0` disables the size
    /// gate. A call **at** the cutoff dispatches; below it stays inline.
    pub seq_cutoff_ns: u64,
    /// Honour the host's available parallelism: with one core every call
    /// runs inline (the pool cannot win), and slot counts are capped at
    /// the core count otherwise.
    pub respect_cores: bool,
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        DispatchPolicy {
            seq_cutoff_ns: SEQ_CUTOFF_NS,
            respect_cores: true,
        }
    }
}

impl DispatchPolicy {
    /// Always dispatch parallel calls to the pool, regardless of host
    /// core count or task-size estimates. For tests and microbenchmarks
    /// that must exercise the pool machinery deterministically.
    pub fn always_parallel() -> DispatchPolicy {
        DispatchPolicy {
            seq_cutoff_ns: 0,
            respect_cores: false,
        }
    }
}

thread_local! {
    static POLICY_OVERRIDE: Cell<Option<DispatchPolicy>> = const { Cell::new(None) };
    /// Set while this thread is executing pool tasks (as caller slot 0 or
    /// as a pool worker): nested pool calls run inline instead of
    /// deadlocking on the single-job pool.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with `policy` overriding the default [`DispatchPolicy`] on
/// this thread (pool calls made by `f`, directly or through library
/// layers, use it). Restores the previous override on exit, panics
/// included.
pub fn with_dispatch_policy<R>(policy: DispatchPolicy, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<DispatchPolicy>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POLICY_OVERRIDE.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(POLICY_OVERRIDE.with(|p| p.replace(Some(policy))));
    f()
}

fn current_policy() -> DispatchPolicy {
    POLICY_OVERRIDE.with(|p| p.get()).unwrap_or_default()
}

fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

// ---- per-site task-cost estimates ------------------------------------------

fn estimates() -> &'static Mutex<HashMap<&'static str, u64>> {
    static ESTIMATES: OnceLock<Mutex<HashMap<&'static str, u64>>> = OnceLock::new();
    ESTIMATES.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Seed the per-task wall-cost estimate for a call site (nanoseconds per
/// task). Production code never needs this — estimates adapt from
/// measured calls — but the fallback boundary tests pin exact behaviour
/// with it.
pub fn prime_task_estimate(site: &'static str, ns_per_task: u64) {
    lock(estimates()).insert(site, ns_per_task.max(1));
}

/// The current per-task wall-cost estimate for a call site, if any call
/// has been measured (or primed) for it.
pub fn task_estimate(site: &str) -> Option<u64> {
    lock(estimates()).get(site).copied()
}

/// Fold a measured sample into the site's EWMA (weight 1/4 on the new
/// sample, so one outlier cannot flip the dispatch decision).
pub(crate) fn update_task_estimate(site: &'static str, sample_ns_per_task: u64) {
    let sample = sample_ns_per_task.max(1);
    let mut map = lock(estimates());
    let e = map.entry(site).or_insert(sample);
    *e = (*e - *e / 4).saturating_add(sample / 4).max(1);
}

/// How many worker slots a call should use: `1` means run inline.
///
/// Inline when: the caller asked for one thread, there is at most one
/// task, the caller is itself inside a pool task (nested calls never
/// re-enter the pool), the host has a single core (under
/// `respect_cores`), or the projected total task time
/// (`estimate × n`) falls below the policy cutoff. Otherwise
/// `threads.min(n)` capped by the core count (under `respect_cores`) and
/// [`MAX_WORKER_SLOTS`].
pub(crate) fn parallel_width(site: &'static str, threads: usize, n: usize) -> usize {
    if threads <= 1 || n <= 1 || IN_POOL_TASK.with(|f| f.get()) {
        return 1;
    }
    let policy = current_policy();
    let mut cap = MAX_WORKER_SLOTS;
    if policy.respect_cores {
        let cores = host_parallelism();
        if cores <= 1 {
            return 1;
        }
        cap = cap.min(cores);
    }
    if policy.seq_cutoff_ns > 0 {
        if let Some(est) = task_estimate(site) {
            if est.saturating_mul(n as u64) < policy.seq_cutoff_ns {
                return 1;
            }
        }
    }
    threads.min(n).min(cap).max(1)
}

// ---- per-thread scratch arenas ---------------------------------------------

thread_local! {
    static ARENA: RefCell<HashMap<TypeId, Box<dyn Any + Send>>> =
        RefCell::new(HashMap::new());
}

/// Run `f` with this thread's persistent scratch of type `S`, creating it
/// on first use. The scratch survives across pool calls (that is the
/// point: score buffers and reusable `ThreadMem` contexts amortise their
/// setup over the whole run) and is **dirty** — `f` must initialise
/// whatever it reads. The entry is taken out of the arena while `f` runs,
/// so nested uses of the same type get an independent scratch.
pub(crate) fn with_scratch<S, R>(f: impl FnOnce(&mut S) -> R) -> R
where
    S: Default + Send + 'static,
{
    let mut scratch: Box<S> = ARENA
        .with(|a| a.borrow_mut().remove(&TypeId::of::<S>()))
        .and_then(|b| b.downcast::<S>().ok())
        .unwrap_or_default();
    let out = f(&mut scratch);
    ARENA.with(|a| a.borrow_mut().insert(TypeId::of::<S>(), scratch));
    out
}

// ---- range deques ----------------------------------------------------------

/// A contiguous index range claimed from both ends: the owning slot pops
/// ascending from the low end, thieves steal descending from the high
/// end. Packed into one atomic word (`lo` high 32 bits, `hi` low 32) so
/// a claim is a single compare-exchange and every index is handed out
/// exactly once.
struct RangeDeque(AtomicU64);

#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

impl RangeDeque {
    fn new(lo: usize, hi: usize) -> RangeDeque {
        RangeDeque(AtomicU64::new(pack(lo as u32, hi as u32)))
    }

    /// Owner claim: the lowest unclaimed index.
    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = ((cur >> 32) as u32, cur as u32);
            if lo >= hi {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Thief claim: the highest unclaimed index.
    fn steal_back(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = ((cur >> 32) as u32, cur as u32);
            if lo >= hi {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(lo, hi - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((hi - 1) as usize),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Hands a slot its task indices: own range first (ascending), then
/// steals from the other slots' ranges (descending, scanning victims from
/// the next slot round-robin). Counts successful steals for the profiler.
pub(crate) struct TaskClaimer<'a> {
    deques: &'a [RangeDeque],
    slot: usize,
    steals: u64,
}

impl TaskClaimer<'_> {
    pub(crate) fn next(&mut self) -> Option<usize> {
        if let Some(i) = self.deques[self.slot].pop_front() {
            return Some(i);
        }
        // Deques only shrink, so one full scan finding nothing means done.
        let w = self.deques.len();
        for off in 1..w {
            let victim = (self.slot + off) % w;
            if let Some(i) = self.deques[victim].steal_back() {
                self.steals += 1;
                return Some(i);
            }
        }
        None
    }
}

// ---- the persistent pool ---------------------------------------------------

/// Slot body: `(slot index, park_ns)`. Lifetime-erased when posted; the
/// dispatch protocol guarantees the caller outlives every use.
type SlotFn<'a> = dyn Fn(usize, u64) + Sync + 'a;

struct Job {
    call: *const SlotFn<'static>,
    sync: *const CallSync,
    /// Total worker slots (slot 0 is the caller's).
    slots: usize,
    /// Next slot to hand to a waking pool worker.
    next_slot: usize,
    /// When the job was posted — a claiming worker's park time is the
    /// latency from here to its claim.
    posted: Instant,
}

// The raw pointers are only dereferenced between a slot claim (under the
// pool lock, job present) and the claimer's completion signal, and the
// caller blocks until every claimed slot has signalled — so the pointees
// (on the caller's stack) strictly outlive every use.
unsafe impl Send for Job {}

/// Per-call completion latch shared between the caller and the pool
/// workers that claimed one of its slots.
struct CallSync {
    /// Pool workers that claimed a slot (incremented under the pool
    /// lock, so it is final once the caller has revoked the job).
    claimed: AtomicUsize,
    finished: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct PoolState {
    job: Option<Job>,
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
    /// Serialises dispatches: the pool runs one job at a time, and a
    /// caller holds the door from post to completion. Concurrent callers
    /// queue here (each call already fans out over every slot, so
    /// serialising calls loses no parallelism).
    door: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            spawned: 0,
        }),
        work: Condvar::new(),
        door: Mutex::new(()),
    })
}

/// Pool worker threads spawned so far in this process. Workers are
/// lazily spawned up to the largest slot count any call has asked for
/// (capped at [`MAX_WORKER_SLOTS`]` - 1`) and then live for the process
/// lifetime — the tests assert this never grows past the warm-up
/// high-water mark.
#[cfg(test)]
fn workers_spawned() -> usize {
    lock(&pool().state).spawned
}

fn worker_main() {
    let pool = pool();
    loop {
        let (call, sync, slot, park_ns) = {
            let mut st = lock(&pool.state);
            loop {
                if let Some(job) = st.job.as_mut() {
                    let slot = job.next_slot;
                    job.next_slot += 1;
                    let out = (
                        job.call,
                        job.sync,
                        slot,
                        job.posted.elapsed().as_nanos() as u64,
                    );
                    // SAFETY: the job is live (present in the state), so
                    // its sync pointee is too; claiming under the pool
                    // lock is what makes `claimed` final at revoke time.
                    unsafe { (*job.sync).claimed.fetch_add(1, Ordering::Relaxed) };
                    if job.next_slot >= job.slots {
                        st.job = None;
                    }
                    break out;
                }
                st = pool.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the caller blocks on the latch below before releasing
        // the closure, so the pointer is live for the whole call.
        let result = in_pool_task(|| unsafe { (*call)(slot, park_ns) });
        // SAFETY: the caller cannot return until this slot signals.
        let sync = unsafe { &*sync };
        if let Err(payload) = result {
            let mut slot = lock(&sync.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut fin = lock(&sync.finished);
        *fin += 1;
        sync.done.notify_all();
    }
}

/// Run a slot with this thread marked as inside a pool task (so nested
/// pool calls run inline), catching its panic for the caller.
fn in_pool_task(slot: impl FnOnce()) -> std::thread::Result<()> {
    IN_POOL_TASK.with(|f| f.set(true));
    let result = catch_unwind(AssertUnwindSafe(slot));
    IN_POOL_TASK.with(|f| f.set(false));
    result
}

/// Everything a dispatch measured, for estimates and profiling.
pub(crate) struct DispatchReport {
    /// Per-slot timelines when an enabled profiler supplied an epoch;
    /// slots that were revoked before a worker woke are synthesised as
    /// pure park time.
    pub timelines: Vec<WorkerTimeline>,
    /// Sum of the slot loop wall spans — the measured total task work,
    /// feeding the per-site estimate.
    pub work_ns: u64,
}

/// Run `body(slot, claimer, meter)` on `slots` participants over tasks
/// `0..n`: slot 0 inline on the caller, slots `1..` on parked pool
/// workers. Returns once every claimed slot has finished; propagates the
/// first panic (worker panics win over the caller's own).
pub(crate) fn dispatch(
    slots: usize,
    n: usize,
    epoch: Option<Instant>,
    body: &(dyn for<'c> Fn(usize, &mut TaskClaimer<'c>, &mut SlotMeter) + Sync),
) -> DispatchReport {
    debug_assert!(slots >= 2 && slots <= n, "dispatch wants 2 <= slots <= n");
    assert!(
        n < u32::MAX as usize,
        "task count overflows the range deques"
    );
    let deques: Vec<RangeDeque> = (0..slots)
        .map(|s| RangeDeque::new(s * n / slots, (s + 1) * n / slots))
        .collect();
    let work_ns = AtomicU64::new(0);
    let timelines: Mutex<Vec<Option<WorkerTimeline>>> =
        Mutex::new((0..slots).map(|_| None).collect());
    let sync = CallSync {
        claimed: AtomicUsize::new(0),
        finished: Mutex::new(0),
        done: Condvar::new(),
        panic: Mutex::new(None),
    };

    let run_slot = |slot: usize, park_ns: u64| {
        let t0 = Instant::now();
        let mut meter = match epoch {
            Some(e) => SlotMeter::On(WorkerMeter::start(e, park_ns)),
            None => SlotMeter::Off,
        };
        let mut claimer = TaskClaimer {
            deques: &deques,
            slot,
            steals: 0,
        };
        body(slot, &mut claimer, &mut meter);
        work_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let SlotMeter::On(m) = meter {
            lock(&timelines)[slot] = Some(m.finish(claimer.steals));
        }
    };

    let pool = pool();
    let _door = pool.door.lock().unwrap_or_else(PoisonError::into_inner);
    let posted = Instant::now();
    {
        // SAFETY (lifetime erasure): the job is revoked and every claimed
        // slot awaited before this function returns, so no worker can
        // touch `run_slot` or `sync` after they are gone.
        let call: &SlotFn = &run_slot;
        let call: &SlotFn<'static> = unsafe { std::mem::transmute(call) };
        let mut st = lock(&pool.state);
        let want = (slots - 1).min(MAX_WORKER_SLOTS - 1);
        while st.spawned < want {
            let spawned = std::thread::Builder::new()
                .name(format!("omega-par-{}", st.spawned))
                .spawn(worker_main);
            match spawned {
                Ok(_) => st.spawned += 1,
                // Can't grow the pool: the call still completes — the
                // caller and whatever workers exist drain every deque.
                Err(_) => break,
            }
        }
        st.job = Some(Job {
            call,
            sync: &sync,
            slots,
            next_slot: 1,
            posted,
        });
    }
    pool.work.notify_all();

    // The caller is slot 0: it starts immediately (zero park) and steals
    // from slow-to-wake slots, so no call waits on the scheduler to make
    // progress.
    let caller_result = in_pool_task(|| run_slot(0, 0));

    // Revoke whatever slots no worker claimed, then wait for the claimed
    // ones. After the revocation `claimed` is final (claims happen under
    // the same lock).
    {
        let mut st = lock(&pool.state);
        if let Some(job) = &st.job {
            if std::ptr::eq(job.sync, &sync as *const CallSync) {
                st.job = None;
            }
        }
    }
    let claimed = sync.claimed.load(Ordering::Acquire);
    {
        let mut fin = lock(&sync.finished);
        while *fin < claimed {
            fin = sync.done.wait(fin).unwrap_or_else(PoisonError::into_inner);
        }
    }
    if let Some(payload) = lock(&sync.panic).take() {
        resume_unwind(payload);
    }
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }

    let timelines = match epoch {
        None => Vec::new(),
        Some(e) => {
            let now_us = Instant::now().duration_since(e).as_micros() as u64;
            let parked = posted.elapsed().as_nanos() as u64;
            lock(&timelines)
                .iter_mut()
                .map(|slot| {
                    slot.take().unwrap_or_else(|| WorkerTimeline {
                        // Revoked before waking: the whole call span was
                        // park time for this slot.
                        loop_start_us: now_us,
                        loop_end_us: now_us,
                        tasks: Vec::new(),
                        task_count: 0,
                        exec_ns: 0,
                        idle_ns: 0,
                        park_ns: parked,
                        steals: 0,
                    })
                })
                .collect()
        }
    };
    DispatchReport {
        timelines,
        work_ns: work_ns.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_deque_hands_out_every_index_once() {
        let d = RangeDeque::new(3, 11);
        let mut got = Vec::new();
        got.push(d.pop_front().unwrap());
        got.push(d.steal_back().unwrap());
        while let Some(i) = d.pop_front() {
            got.push(i);
        }
        assert!(d.steal_back().is_none());
        got.sort_unstable();
        assert_eq!(got, (3..11).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_arena_survives_across_uses() {
        let a = with_scratch(|v: &mut Vec<u32>| {
            v.push(1);
            v.len()
        });
        let b = with_scratch(|v: &mut Vec<u32>| {
            v.push(2);
            v.len()
        });
        assert_eq!((a, b), (1, 2), "scratch must persist on this thread");
        with_scratch(|v: &mut Vec<u32>| v.clear());
    }

    #[test]
    fn workers_are_reused_never_respawned() {
        with_dispatch_policy(DispatchPolicy::always_parallel(), || {
            // Warm-up: reach the pool's high-water mark for 8-thread calls.
            for _ in 0..8 {
                let _: Vec<usize> = crate::run(8, 64, |_: &mut (), i| i);
            }
            let baseline = workers_spawned();
            assert!(
                baseline < MAX_WORKER_SLOTS,
                "pool can never exceed its slot cap"
            );
            for call in 0..500usize {
                let threads = [1, 2, 8][call % 3];
                let _: Vec<usize> = crate::run(threads, call % 65, |_: &mut (), i| i);
            }
            assert_eq!(
                workers_spawned(),
                baseline,
                "pool workers must be reused, never respawned (leak)"
            );
        });
    }

    #[test]
    fn estimates_adapt_toward_samples() {
        prime_task_estimate("pool.test.est", 1_000);
        for _ in 0..64 {
            update_task_estimate("pool.test.est", 9_000);
        }
        let e = task_estimate("pool.test.est").unwrap();
        assert!(e > 6_000, "EWMA should approach the sample, got {e}");
    }

    #[test]
    fn width_gates_on_tasks_threads_and_cutoff() {
        with_dispatch_policy(DispatchPolicy::always_parallel(), || {
            assert_eq!(parallel_width("pool.test.w", 1, 100), 1);
            assert_eq!(parallel_width("pool.test.w", 8, 1), 1);
            assert_eq!(parallel_width("pool.test.w", 8, 100), 8);
            assert_eq!(parallel_width("pool.test.w", 8, 3), 3);
        });
        let policy = DispatchPolicy {
            seq_cutoff_ns: 10_000,
            respect_cores: false,
        };
        with_dispatch_policy(policy, || {
            prime_task_estimate("pool.test.cut", 1_000);
            // 9 tasks x 1000 ns = 9000 < 10000 -> inline.
            assert_eq!(parallel_width("pool.test.cut", 8, 9), 1);
            // Exactly at the cutoff -> dispatch.
            assert_eq!(parallel_width("pool.test.cut", 8, 10), 8);
            // Unknown estimate -> optimistic dispatch.
            assert_eq!(parallel_width("pool.test.unknown", 8, 2), 2);
        });
    }
}
