//! Stress/soak battery for the persistent work-stealing pool.
//!
//! Thousands of back-to-back pool calls with randomized task counts and
//! sizes across wall threads 1/2/8, asserting:
//!
//! * results are bit-identical to the sequential loop on every call,
//! * no thread leak — the OS thread count stays bounded (the pool's own
//!   spawned-worker count is pinned exactly by its unit tests),
//! * the profiler identities (`exec + idle + park + barrier == worker
//!   wall`, wall-split partition) stay exact under stealing,
//! * the adaptive sequential fallback pins its boundary behaviour
//!   (single task, below cutoff, exactly at cutoff, unknown estimate)
//!   with sequential-call attribution firing on every inline path.
//!
//! Every pool-exercising test pins `DispatchPolicy::always_parallel()` so
//! the machinery runs even on single-core hosts, where the default policy
//! would (correctly) keep everything inline.

use omega_par::{
    install, prime_task_estimate, run_labeled, task_estimate, with_dispatch_policy, DispatchPolicy,
    PoolProfiler,
};

/// Deterministic splitmix64 for reproducible call shapes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Busy work whose output depends only on its inputs.
fn busy(spin: u64, i: usize) -> u64 {
    let mut acc = i as u64 ^ 0x5DEE_CE66;
    for k in 0..spin * 24 {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
    }
    acc
}

fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn soak_thousands_of_calls_bit_identical_and_leak_free() {
    with_dispatch_policy(DispatchPolicy::always_parallel(), || {
        // Warm-up: reach the pool's high-water mark for 8-thread calls.
        for _ in 0..8 {
            let _: Vec<u64> = omega_par::run(8, 64, |_: &mut (), i| busy(4, i));
        }
        let os_baseline = os_thread_count();

        let mut rng = 0x0000_EE6A_5EED_u64;
        for call in 0..2500u64 {
            let threads = [1usize, 2, 8][(splitmix(&mut rng) % 3) as usize];
            let n = (splitmix(&mut rng) % 65) as usize;
            let spin = splitmix(&mut rng) % 24;
            let expect: Vec<u64> = (0..n).map(|i| busy(spin, i)).collect();
            let got: Vec<u64> = omega_par::run(threads, n, move |_: &mut (), i| busy(spin, i));
            assert_eq!(
                got, expect,
                "call {call} (threads={threads}, n={n}, spin={spin}) diverged from sequential"
            );
        }

        // OS-level sanity (Linux): thread count stays bounded. Other tests
        // in this binary run concurrently on harness threads, so allow a
        // small fixed slack — the pool's worker count itself is pinned
        // exactly by the `workers_are_reused_never_respawned` unit test.
        if let (Some(before), Some(after)) = (os_baseline, os_thread_count()) {
            assert!(
                after <= before + 8,
                "OS thread count grew from {before} to {after} during the soak"
            );
        }
    });
}

#[test]
fn profiler_identities_exact_under_guaranteed_stealing() {
    with_dispatch_policy(DispatchPolicy::always_parallel(), || {
        let prof = PoolProfiler::enabled();
        {
            let _guard = install(&prof);
            // Slot 1 owns tasks 8..16 and its first task sleeps, so the
            // caller (slot 0) finishes its own range and must steal from
            // the high end of slot 1's deque.
            let out: Vec<u64> = run_labeled("stress.steal", 2, 16, |_: &mut (), i| {
                if i == 8 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                busy(2, i)
            });
            let expect: Vec<u64> = (0..16).map(|i| busy(2, i)).collect();
            assert_eq!(out, expect, "stealing must not change results");
        }
        let p = prof.total();
        assert_eq!(p.calls, 1);
        assert_eq!(p.tasks, 16);
        assert!(
            p.steals >= 1,
            "constructed skew must force at least one steal"
        );
        assert_eq!(
            p.exec_ns + p.idle_ns + p.barrier_ns + p.park_ns,
            p.worker_wall_ns,
            "interval classes must partition worker wall exactly under stealing"
        );
        assert_eq!(
            p.exec_wall_ns + p.idle_wall_ns + p.park_wall_ns + p.barrier_wall_ns,
            p.wall_ns,
            "wall attribution must partition the call wall exactly"
        );
    });
}

#[test]
fn randomized_profiled_soak_keeps_identities() {
    with_dispatch_policy(DispatchPolicy::always_parallel(), || {
        let mut rng = 0xFEED_FACE;
        for _ in 0..300u32 {
            let threads = [2usize, 4, 8][(splitmix(&mut rng) % 3) as usize];
            let n = 2 + (splitmix(&mut rng) % 48) as usize;
            let spin = splitmix(&mut rng) % 16;
            let skew = splitmix(&mut rng).is_multiple_of(2);
            let prof = PoolProfiler::enabled();
            {
                let _guard = install(&prof);
                let _: Vec<u64> = omega_par::run(threads, n, move |_: &mut (), i| {
                    let cost = if skew && i == 0 { spin * 8 } else { spin };
                    busy(cost, i)
                });
            }
            let p = prof.total();
            assert_eq!(p.calls, 1);
            assert_eq!(p.workers, threads.min(n) as u64);
            assert_eq!(
                p.exec_ns + p.idle_ns + p.barrier_ns + p.park_ns,
                p.worker_wall_ns
            );
            assert_eq!(
                p.exec_wall_ns + p.idle_wall_ns + p.park_wall_ns + p.barrier_wall_ns,
                p.wall_ns
            );
            assert_eq!(p.worker_wall_ns, p.workers * p.wall_ns);
        }
    });
}

// ---- adaptive sequential-fallback boundaries -------------------------------

#[test]
fn single_task_always_runs_inline() {
    with_dispatch_policy(DispatchPolicy::always_parallel(), || {
        let prof = PoolProfiler::enabled();
        {
            let _guard = install(&prof);
            let out: Vec<u64> = run_labeled("stress.single", 8, 1, |_: &mut (), i| i as u64 + 7);
            assert_eq!(out, vec![7]);
        }
        let p = prof.total();
        assert_eq!(p.calls, 0, "a single task must never dispatch to the pool");
        assert_eq!(p.seq_calls, 1, "inline attribution must fire");
        assert_eq!(p.tasks, 1);
    });
}

#[test]
fn below_cutoff_runs_inline_with_seq_attribution() {
    let policy = DispatchPolicy {
        seq_cutoff_ns: 100_000,
        respect_cores: false,
    };
    // 50 tasks x 1_000 ns = 50_000 projected < 100_000 cutoff -> inline.
    prime_task_estimate("stress.below", 1_000);
    let prof = PoolProfiler::enabled();
    with_dispatch_policy(policy, || {
        let _guard = install(&prof);
        let out: Vec<usize> = run_labeled("stress.below", 8, 50, |_: &mut (), i| i);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    });
    let p = prof.total();
    assert_eq!(p.calls, 0, "below-cutoff work must stay inline");
    assert_eq!(p.seq_calls, 1);
    assert_eq!(p.tasks, 50);
    assert!(
        p.seq_wall_ns > 0,
        "inline wall time must be attributed so bench phase coverage holds"
    );
}

#[test]
fn exactly_at_cutoff_dispatches_to_the_pool() {
    let policy = DispatchPolicy {
        seq_cutoff_ns: 100_000,
        respect_cores: false,
    };
    // 10 tasks x 10_000 ns = 100_000 == cutoff -> dispatch (the gate is
    // strictly-below).
    prime_task_estimate("stress.at_cutoff", 10_000);
    let prof = PoolProfiler::enabled();
    with_dispatch_policy(policy, || {
        let _guard = install(&prof);
        let out: Vec<usize> = run_labeled("stress.at_cutoff", 8, 10, |_: &mut (), i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    });
    let p = prof.total();
    assert_eq!(
        p.calls, 1,
        "projected work exactly at the cutoff dispatches"
    );
    assert_eq!(p.seq_calls, 0);
}

#[test]
fn unknown_estimate_dispatches_optimistically_then_adapts() {
    let policy = DispatchPolicy {
        seq_cutoff_ns: 1 << 40,
        respect_cores: false,
    };
    assert!(task_estimate("stress.unknown").is_none());
    let prof = PoolProfiler::enabled();
    with_dispatch_policy(policy, || {
        let _guard = install(&prof);
        // First call: no estimate, so the pool is tried despite the huge
        // cutoff...
        let _: Vec<usize> = run_labeled("stress.unknown", 4, 8, |_: &mut (), i| i);
        // ...and the measurement seeds the estimate, so the second call
        // (cheap tasks, huge cutoff) stays inline.
        assert!(task_estimate("stress.unknown").is_some());
        let _: Vec<usize> = run_labeled("stress.unknown", 4, 8, |_: &mut (), i| i);
    });
    let p = prof.total();
    assert_eq!(p.calls, 1, "first call dispatches optimistically");
    assert_eq!(p.seq_calls, 1, "adapted estimate routes the second inline");
}
