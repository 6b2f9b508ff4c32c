//! Property tests of the pool profiler's accounting identities across
//! random pool shapes: for every thread count, task count, and workload
//! skew, the four interval classes (exec/idle/park/barrier) partition the
//! measured wall time exactly — and profiling never changes what the pool
//! computes.
//!
//! Every case pins the dispatch policy to "always parallel" so the pool
//! machinery is exercised deterministically even on single-core runners,
//! where the default policy would (correctly) run everything inline.

use omega_par::{install, phase_scope, DispatchPolicy, PoolProfiler};
use proptest::prelude::*;

/// Deterministic busy work whose duration scales with `spin`.
fn busy(spin: u64) -> u64 {
    let mut acc = 1u64;
    for i in 0..spin * 40 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `exec + idle + park + barrier == worker wall` (CPU sums) and
    /// `exec_wall + idle_wall + park_wall + barrier_wall == wall` (call
    /// attribution) hold exactly for every pool shape, skew, and label
    /// mix; results are identical to the unprofiled run.
    #[test]
    fn pool_accounting_partitions_wall(
        threads in 1usize..9,
        n in 0usize..40,
        spin in 0u64..60,
        skew in any::<bool>(),
        scoped in any::<bool>(),
    ) {
        let work = move |i: usize| {
            // Optionally skew task cost so one worker drags (imbalance).
            let cost = if skew && i == 0 { spin * 8 } else { spin };
            busy(cost) ^ i as u64
        };
        let expect: Vec<u64> = (0..n).map(work).collect();

        let prof = PoolProfiler::enabled();
        let got = omega_par::with_dispatch_policy(DispatchPolicy::always_parallel(), || {
            let _guard = install(&prof);
            let body = || omega_par::run(threads, n, |_: &mut (), i| work(i));
            if scoped {
                phase_scope("phase", body)
            } else {
                body()
            }
        });
        prop_assert_eq!(got, expect, "profiling changed the pool's output");

        let total = prof.total();
        prop_assert_eq!(
            total.exec_ns + total.idle_ns + total.barrier_ns + total.park_ns,
            total.worker_wall_ns,
            "interval classes must partition the worker wall spans"
        );
        prop_assert_eq!(
            total.exec_wall_ns + total.idle_wall_ns + total.park_wall_ns
                + total.barrier_wall_ns,
            total.wall_ns,
            "wall attribution must partition the call wall"
        );
        // The sequential path records max(n, 1) items; the parallel path
        // records exactly n.
        let expect_tasks = if threads <= 1 || n <= 1 { n.max(1) } else { n } as u64;
        prop_assert_eq!(total.tasks, expect_tasks);
        if threads > 1 && n > 1 {
            prop_assert_eq!(total.calls, 1);
            prop_assert_eq!(total.workers, threads.min(n) as u64);
            prop_assert_eq!(total.worker_wall_ns, total.workers * total.wall_ns);
            prop_assert!(total.exec_ns <= total.worker_wall_ns, "execution exceeds the worker wall");
            prop_assert!(total.sum_max_exec_ns >= total.sum_mean_exec_ns);
        } else {
            prop_assert_eq!(total.seq_calls, 1);
        }
        // Attribution label: the phase scope when active, else the site.
        let labels: Vec<String> = prof.profiles().into_iter().map(|(l, _)| l).collect();
        let expect_label = if scoped { "phase" } else { "pool.run" };
        prop_assert_eq!(labels, vec![expect_label.to_string()]);
    }

    /// Per-call stored timelines obey the same identity worker by worker,
    /// and a call the pool runs inline lands in the active scope's label.
    #[test]
    fn call_records_and_seq_attribution(
        threads in 2usize..6,
        n in 2usize..24,
        spin in 0u64..40,
    ) {
        let prof = PoolProfiler::enabled();
        omega_par::with_dispatch_policy(DispatchPolicy::always_parallel(), || {
            let _guard = install(&prof);
            phase_scope("outer", || {
                let _ = omega_par::run(threads, n, |_: &mut (), i| busy(spin) ^ i as u64);
                let _: Vec<u64> =
                    omega_par::run_labeled("fallback.site", 1, 1, |_: &mut (), _| busy(spin));
            });
        });
        let records = prof.call_records();
        prop_assert_eq!(records.len(), 1);
        let rec = &records[0];
        prop_assert_eq!(rec.site, "pool.run");
        prop_assert_eq!(rec.label.as_str(), "outer");
        prop_assert!(rec.end_us >= rec.start_us);
        prop_assert_eq!(rec.workers.len(), threads.min(n));
        let tasks: u64 = rec.workers.iter().map(|w| w.task_count).sum();
        prop_assert_eq!(tasks, n as u64);
        for (slot, w) in rec.workers.iter().enumerate() {
            prop_assert!(w.loop_end_us >= w.loop_start_us);
            prop_assert!(w.tasks.len() as u64 <= w.task_count);
            prop_assert!(w.steals <= w.task_count, "steals are a subset of tasks");
            if slot == 0 {
                prop_assert_eq!(w.park_ns, 0, "the caller's slot never parks");
            }
        }
        let steals: u64 = rec.workers.iter().map(|w| w.steals).sum();
        prop_assert!(steals <= n as u64);
        // Both the pool call and the inline call attribute to the
        // scope label, so the profile has exactly one entry.
        let profiles = prof.profiles();
        prop_assert_eq!(profiles.len(), 1);
        let (label, p) = &profiles[0];
        prop_assert_eq!(label.as_str(), "outer");
        prop_assert_eq!(p.seq_calls, 1);
        prop_assert_eq!(p.calls, 1);
        prop_assert_eq!(p.scope_calls, 1);
        // Scope self time contains the pool call and the fallback, so the
        // attribution accounts for exactly that.
        prop_assert_eq!(p.attributed_wall_ns(), p.scope_self_wall_ns);
    }
}
