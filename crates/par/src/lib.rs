//! # omega-par — a persistent work-stealing pool with a determinism contract
//!
//! One pool implementation shared by every parallel path in the workspace:
//! per-shard serving tasks (`omega-serve`), SpMM column-batch workloads
//! (`omega-spmm`), blocked dense kernels (`omega-linalg`), walk-corpus
//! generation (`omega-walk`), and the request plane (`omega-plane`).
//!
//! The parallelism contract is strict: worker threads may only *compute* —
//! charge their own `omega_hetmem::ThreadMem` contexts, score rows, stage
//! copies — while every effect on shared state (the simulated clock, the
//! run ledger, the cache, the span stream) is applied by the caller in a
//! deterministic merge order afterwards. This module supplies exactly that
//! shape: [`run`]`(threads, n, f)` evaluates `f` on every index `0..n` and
//! hands back the results **indexed by input position**, regardless of
//! which worker ran what when.
//!
//! ## Execution model
//!
//! Parallel calls dispatch onto one process-wide **persistent pool**
//! (`pool.rs`): long-lived workers parked on a condvar between calls, the
//! caller participating as slot 0, and per-slot **range deques** claimed
//! ascending by their owner and stolen descending by everyone else — so
//! skewed task costs (a cold shard retrying through a fault plan amid
//! cache hits) rebalance without a shared claim counter, and a call pays
//! a wake + a latch instead of a spawn + join. Worker-local scratch `S`
//! lives in per-thread arenas that survive across calls, amortising
//! score-buffer and `ThreadMem` setup over the whole run.
//!
//! Small calls never touch the pool: an adaptive per-site estimate of
//! task cost (see [`DispatchPolicy`]) routes below-cutoff work —
//! and every call on a single-core host — through the inline path, the
//! same code the parallel slots execute, attributed via the profiler's
//! sequential-call accounting. That decision is made here and nowhere
//! else: callers pass the width they may use, at any problem size, and
//! keep no size gates of their own. Which path runs is a pure wall-clock
//! decision: results are bit-identical at every thread count and under
//! every steal interleaving by construction, because work items partition
//! only output indices and merges happen in index order on the caller.
//!
//! [`for_each_chunk_labeled`] is the in-place companion for element-wise kernels:
//! it applies a closure to a list of disjoint mutable chunks (e.g.
//! `chunks_mut` of a matrix buffer). Because the chunk boundaries are
//! chosen by the caller — never by the thread count — and each chunk
//! index is claimed exactly once, the result is bit-identical at every
//! worker count there too.
//!
//! ## Profiling
//!
//! The profiler adds opt-in wall-clock attribution: install a
//! [`PoolProfiler`] on the calling thread and every pool call decomposes
//! into execute/idle/park/barrier intervals per worker slot (plus steal
//! counts), attributed to the innermost [`phase_scope`] (or the call
//! site's label from [`run_labeled`] / [`for_each_chunk_labeled`]).
//! Profiling observes wall time only — results, ordering, and everything
//! downstream of the simulated clock are untouched, at any thread count.

mod pool;
mod profile;

pub use pool::{prime_task_estimate, task_estimate, with_dispatch_policy, DispatchPolicy};
pub use profile::{
    install, phase_scope, PoolCallRecord, PoolProfile, PoolProfiler, ProfilerGuard, WorkerTimeline,
};

use profile::CallMeter;
use std::time::Instant;

/// Raw view of a call's output buffer: each index in `0..n` runs exactly
/// once (inline, or claimed once from the range deques), so each cell is
/// written by exactly one task, and the buffer's length is set only after
/// the last one has returned.
struct ResultSlots<T> {
    ptr: *mut T,
}

unsafe impl<T: Send> Send for ResultSlots<T> {}
unsafe impl<T: Send> Sync for ResultSlots<T> {}

impl<T> ResultSlots<T> {
    /// # Safety
    /// `i` must be below the buffer's capacity and written by exactly one
    /// task, and the buffer must outlive the call.
    unsafe fn store(&self, i: usize, value: T) {
        unsafe { self.ptr.add(i).write(value) };
    }
}

/// The one fan-out behind [`run_labeled`] and [`for_each_chunk_labeled`]:
/// run `task(scratch, i)` once for every `i in 0..n`, inline on the caller
/// or on the pool as the site's width decision says, then fold the measured
/// per-task cost into the site's estimate and report the call to an
/// installed profiler. Returns only after every index has run.
fn fan_out<S, F>(site: &'static str, threads: usize, n: usize, task: F)
where
    S: Default + Send + 'static,
    F: Fn(&mut S, usize) + Sync,
{
    let width = pool::parallel_width(site, threads, n);
    let meter = CallMeter::begin(site);
    let (work_ns, timelines) = if width <= 1 {
        let t0 = Instant::now();
        pool::with_scratch(|scratch: &mut S| (0..n).for_each(|i| task(scratch, i)));
        (t0.elapsed().as_nanos() as u64, None)
    } else {
        let epoch = meter.as_ref().map(CallMeter::epoch);
        let report = pool::dispatch(width, n, epoch, &|_slot, claimer, sm| {
            pool::with_scratch(|scratch: &mut S| {
                while let Some(i) = claimer.next() {
                    sm.task(|| task(scratch, i));
                }
            });
        });
        (report.work_ns, Some(report.timelines))
    };
    if n > 0 {
        pool::update_task_estimate(site, work_ns / n as u64);
    }
    match (meter, timelines) {
        (Some(meter), Some(timelines)) => meter.finish(n as u64, timelines),
        (Some(meter), None) => meter.finish_seq(n as u64),
        (None, _) => {}
    }
}

/// Evaluate `f(scratch, i)` for every `i in 0..n` on up to `threads`
/// workers and return the results in index order.
///
/// `S` is worker-local scratch (e.g. a score buffer or a reusable
/// `ThreadMem` context): each participating thread owns one `S` in a
/// persistent arena reused across every task it claims **and across pool
/// calls**, so per-task setup is amortised without sharing state. Scratch
/// is dirty on entry — `f` must initialise whatever it reads.
///
/// Tasks live in per-slot range deques (owner pops ascending, idle slots
/// steal descending), which keeps workers busy when task costs are skewed
/// — e.g. one cold shard retrying through a fault plan while the rest are
/// cache hits. A panicking task propagates to the caller after every
/// in-flight slot has drained.
pub fn run<T, S, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    S: Default + Send + 'static,
    F: Fn(&mut S, usize) -> T + Sync,
{
    run_labeled("pool.run", threads, n, f)
}

/// [`run`] with a static call-site label for wall-clock attribution and
/// the adaptive sequential-fallback estimate (see [`PoolProfiler`] and
/// [`DispatchPolicy`]). With no profiler installed the label costs
/// one thread-local read.
pub fn run_labeled<T, S, F>(site: &'static str, threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    S: Default + Send + 'static,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut results: Vec<T> = Vec::with_capacity(n);
    let slots = ResultSlots {
        ptr: results.as_mut_ptr(),
    };
    fan_out(site, threads, n, |scratch: &mut S, i| {
        let out = f(scratch, i);
        // SAFETY: `fan_out` runs each `i in 0..n` once, and `results`
        // (capacity `n`) outlives it.
        unsafe { slots.store(i, out) };
    });
    // SAFETY: `fan_out` returned, so all `n` cells are written; a panicking
    // task unwinds past this line and leaks the cells stored before it.
    unsafe { results.set_len(n) };
    results
}

/// Raw view of one pre-partitioned chunk, reconstructed by whichever task
/// runs its index.
struct ChunkPart<T> {
    ptr: *mut T,
    len: usize,
}

unsafe impl<T: Send> Send for ChunkPart<T> {}
unsafe impl<T: Send> Sync for ChunkPart<T> {}

/// Apply `f(chunk_index, chunk)` to every chunk of a pre-partitioned
/// mutable buffer on up to `threads` workers. `site` is a static call-site
/// label for wall-clock attribution and the adaptive sequential-fallback
/// estimate (see [`PoolProfiler`]).
///
/// The chunks must be disjoint (as produced by `chunks_mut`) and their
/// boundaries must be chosen independently of `threads`; then each element
/// is written by exactly one invocation of `f` operating on exactly the
/// same data at every worker count, so the result is bit-identical to the
/// sequential loop. Chunk indices are claimed through the same stealing
/// deques as [`run`] tasks, so stragglers rebalance.
pub fn for_each_chunk_labeled<T, F>(site: &'static str, threads: usize, chunks: Vec<&mut [T]>, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let parts: Vec<ChunkPart<T>> = chunks
        .into_iter()
        .map(|c| ChunkPart {
            ptr: c.as_mut_ptr(),
            len: c.len(),
        })
        .collect();
    fan_out(site, threads, parts.len(), |_: &mut (), i| {
        let part = &parts[i];
        // SAFETY: chunks are caller-guaranteed disjoint and index `i` runs
        // exactly once, so this is the only live `&mut` over the chunk; the
        // borrow ends before `fan_out` returns.
        let chunk = unsafe { std::slice::from_raw_parts_mut(part.ptr, part.len) };
        f(i, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Force the pool on regardless of host cores, so these tests
    /// exercise the dispatch machinery even on a single-core runner.
    fn forced<R>(f: impl FnOnce() -> R) -> R {
        with_dispatch_policy(DispatchPolicy::always_parallel(), f)
    }

    #[test]
    fn results_are_index_ordered_at_every_thread_count() {
        forced(|| {
            for threads in [0, 1, 2, 4, 8] {
                let out: Vec<usize> = run(threads, 37, |_: &mut (), i| i * i);
                assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn scratch_arena_persists_across_calls() {
        // The persistent-pool contract: scratch is per-thread, dirty, and
        // survives across pool calls. On the sequential path the caller's
        // own arena serves every task, so history accumulates across two
        // separate calls.
        #[derive(Default)]
        struct Seen(Vec<usize>);
        let a: Vec<usize> = run(1, 3, |s: &mut Seen, i| {
            s.0.push(i);
            s.0.len()
        });
        let b: Vec<usize> = run(1, 2, |s: &mut Seen, i| {
            s.0.push(i);
            s.0.len()
        });
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(b, vec![4, 5], "arena must survive across calls");
        // Parallel path: every task sees *some* thread's accumulated
        // history — at least its own call-local position, and no task
        // observes a scratch that lost entries mid-call.
        forced(|| {
            let out: Vec<usize> = run(4, 64, |s: &mut Seen, i| {
                s.0.push(i);
                s.0.len()
            });
            assert_eq!(out.len(), 64);
            assert!(out.iter().all(|&len| len >= 1));
        });
    }

    #[test]
    fn empty_and_singleton_inputs() {
        forced(|| {
            let none: Vec<u32> = run(8, 0, |_: &mut (), _| unreachable!());
            assert!(none.is_empty());
            let one: Vec<u32> = run(8, 1, |_: &mut (), i| i as u32 + 41);
            assert_eq!(one, vec![41]);
        });
    }

    #[test]
    fn skewed_task_costs_still_fill_every_slot() {
        forced(|| {
            let out: Vec<u64> = run(3, 24, |_: &mut (), i| {
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i as u64
            });
            assert_eq!(out, (0..24).collect::<Vec<_>>());
        });
    }

    #[test]
    fn panicking_task_propagates_and_pool_survives() {
        forced(|| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _: Vec<u64> = run(4, 16, |_: &mut (), i| {
                    if i == 11 {
                        panic!("task 11 exploded");
                    }
                    i as u64
                });
            }));
            assert!(caught.is_err(), "task panic must reach the caller");
            // The pool must stay usable after a panicking call.
            let out: Vec<u64> = run(4, 16, |_: &mut (), i| i as u64);
            assert_eq!(out, (0..16).collect::<Vec<_>>());
        });
    }

    #[test]
    fn nested_pool_calls_run_inline_without_deadlock() {
        forced(|| {
            let out: Vec<u64> = run(4, 8, |_: &mut (), i| {
                // A nested call from inside a pool task must not re-enter
                // the (single-job) pool.
                let inner: Vec<u64> = run(4, 4, |_: &mut (), j| (i * 10 + j) as u64);
                inner.iter().sum()
            });
            let expect: Vec<u64> = (0..8u64).map(|i| 4 * 10 * i + 6).collect();
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn chunks_are_written_once_each_at_every_thread_count() {
        forced(|| {
            for threads in [0, 1, 2, 4, 8] {
                let mut data: Vec<u64> = (0..1000).collect();
                let chunks: Vec<&mut [u64]> = data.chunks_mut(64).collect();
                for_each_chunk_labeled("test.chunks", threads, chunks, |i, chunk| {
                    for v in chunk.iter_mut() {
                        *v = v.wrapping_mul(3).wrapping_add(i as u64);
                    }
                });
                let expect: Vec<u64> = (0..1000u64)
                    .map(|v| v.wrapping_mul(3).wrapping_add(v / 64))
                    .collect();
                assert_eq!(data, expect, "threads={threads}");
            }
        });
    }

    #[test]
    fn profiled_run_accounts_every_worker_nanosecond() {
        forced(|| {
            let prof = PoolProfiler::enabled();
            let _guard = install(&prof);
            let out: Vec<u64> = run_labeled("test.site", 4, 32, |_: &mut (), i| {
                if i % 5 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i as u64
            });
            assert_eq!(out, (0..32).collect::<Vec<_>>());
            let profiles = prof.profiles();
            assert_eq!(profiles.len(), 1);
            let (label, p) = &profiles[0];
            assert_eq!(label, "test.site");
            assert_eq!(p.calls, 1);
            assert_eq!(p.tasks, 32);
            assert_eq!(p.workers, 4);
            assert_eq!(
                p.exec_ns + p.idle_ns + p.barrier_ns + p.park_ns,
                p.worker_wall_ns
            );
            assert_eq!(
                p.exec_wall_ns + p.idle_wall_ns + p.park_wall_ns + p.barrier_wall_ns,
                p.wall_ns
            );
            assert!(p.exec_ns > 0 && p.exec_ns <= p.worker_wall_ns);
            assert!(p.sum_max_exec_ns >= p.sum_mean_exec_ns);
            let records = prof.call_records();
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].site, "test.site");
            assert_eq!(records[0].workers.len(), 4);
            let counted: u64 = records[0].workers.iter().map(|w| w.task_count).sum();
            assert_eq!(counted, 32);
        });
    }

    #[test]
    fn phase_scope_overrides_site_label_and_nests() {
        forced(|| {
            let prof = PoolProfiler::enabled();
            let _guard = install(&prof);
            phase_scope("outer", || {
                let _: Vec<usize> = run_labeled("site.a", 2, 8, |_: &mut (), i| i);
                phase_scope("inner", || {
                    let _: Vec<()> = run_labeled("site.b", 1, 1, |_: &mut (), _| {
                        std::thread::sleep(std::time::Duration::from_micros(100))
                    });
                });
            });
            let labels: Vec<String> = prof.profiles().into_iter().map(|(l, _)| l).collect();
            assert_eq!(labels, vec!["inner".to_string(), "outer".to_string()]);
            let find = |name: &str| {
                prof.profiles()
                    .into_iter()
                    .find(|(l, _)| l == name)
                    .unwrap()
                    .1
            };
            let outer = find("outer");
            let inner = find("inner");
            assert_eq!(outer.calls, 1, "pool call attributes to innermost scope");
            assert_eq!(inner.seq_calls, 1, "inline calls attribute to their scope");
            assert!(inner.scope_self_wall_ns > 0);
            // Outer self time excludes the nested scope entirely.
            assert!(outer.scope_self_wall_ns >= outer.wall_ns);
        });
    }

    #[test]
    fn inline_paths_count_as_seq_calls() {
        let prof = PoolProfiler::enabled();
        let _guard = install(&prof);
        let _: Vec<usize> = run_labeled("seq.site", 1, 16, |_: &mut (), i| i);
        let mut buf = [0u8; 4];
        let chunks: Vec<&mut [u8]> = buf.chunks_mut(8).collect();
        for_each_chunk_labeled("seq.site", 1, chunks, |_, _| {});
        let p = &prof.profiles()[0].1;
        assert_eq!(p.calls, 0);
        assert_eq!(p.seq_calls, 2);
        assert_eq!(p.tasks, 17);
    }

    #[test]
    fn nested_install_is_a_documented_noop() {
        let outer = PoolProfiler::enabled();
        let guard_outer = install(&outer);
        assert!(guard_outer.installed());
        let inner = PoolProfiler::enabled();
        {
            let guard_inner = install(&inner);
            assert!(
                !guard_inner.installed(),
                "nested install must be a no-op while an enabled profiler is ambient"
            );
            let _: Vec<usize> = run_labeled("nested.site", 1, 4, |_: &mut (), i| i);
        }
        // Dropping the inner guard must not uninstall the outer profiler.
        let _: Vec<usize> = run_labeled("nested.site", 1, 4, |_: &mut (), i| i);
        assert!(
            inner.profiles().is_empty(),
            "inner profiler must record nothing"
        );
        let p = &outer.profiles()[0].1;
        assert_eq!(p.seq_calls, 2, "outer profiler keeps recording throughout");
        drop(guard_outer);
        // A disabled ambient profiler does not block a fresh install.
        let fresh = PoolProfiler::enabled();
        let guard = install(&fresh);
        assert!(guard.installed());
    }

    #[test]
    fn uninstalled_profiler_records_nothing() {
        forced(|| {
            let prof = PoolProfiler::enabled();
            // Not installed: pool runs and scopes must not report into it.
            let _: Vec<usize> = phase_scope("ghost", || run(4, 8, |_: &mut (), i| i));
            assert!(prof.profiles().is_empty());
            assert_eq!(prof.total(), PoolProfile::default());
            assert!(!PoolProfiler::disabled().is_enabled());
        });
    }

    #[test]
    fn for_each_chunk_profiled_keeps_results_and_invariant() {
        forced(|| {
            let prof = PoolProfiler::enabled();
            let _guard = install(&prof);
            let mut data: Vec<u64> = (0..1000).collect();
            let chunks: Vec<&mut [u64]> = data.chunks_mut(64).collect();
            for_each_chunk_labeled("chunk.site", 4, chunks, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v = v.wrapping_mul(3).wrapping_add(i as u64);
                }
            });
            let expect: Vec<u64> = (0..1000u64)
                .map(|v| v.wrapping_mul(3).wrapping_add(v / 64))
                .collect();
            assert_eq!(data, expect);
            let p = prof.total();
            assert_eq!(p.tasks, 16);
            assert_eq!(
                p.exec_ns + p.idle_ns + p.barrier_ns + p.park_ns,
                p.worker_wall_ns
            );
        });
    }

    #[test]
    fn for_each_chunk_handles_empty_and_single() {
        let mut empty: Vec<u8> = Vec::new();
        let chunks: Vec<&mut [u8]> = empty.chunks_mut(8).collect();
        for_each_chunk_labeled("test.chunks", 8, chunks, |_, _| unreachable!());
        let mut one = vec![1u8, 2, 3];
        let chunks: Vec<&mut [u8]> = one.chunks_mut(8).collect();
        for_each_chunk_labeled("test.chunks", 8, chunks, |_, c| {
            for v in c.iter_mut() {
                *v += 1;
            }
        });
        assert_eq!(one, vec![2, 3, 4]);
    }
}
