//! Cross-call fault-stream determinism: the pooled `ThreadMem` reuse
//! lifecycle (`MemSystem::recycle_ctx_on` in a persistent scratch arena)
//! produces byte-identical fault verdict schedules to the original
//! call-scoped lifecycle (a fresh `thread_ctx_on` per task), at any
//! thread count — including a fault plan staying active across **two
//! consecutive pool calls**, the reuse boundary the call-scoped
//! lifecycle never had to cross.
//!
//! The argument being pinned: a verdict is a pure function of
//! `(plan, sim_now + penalty, consult ordinal, access)`, and every task
//! rebases the ordinal via `set_fault_stream` (keyed by *what* is
//! processed) and the clock via `set_sim_now` — so a recycled context,
//! once reset, is observationally indistinguishable from a fresh one no
//! matter which worker ran which task in which pool call.

use omega_hetmem::{
    AccessOp, AccessPattern, ClassCounters, DeviceKind, FaultAccess, FaultHook, FaultVerdict,
    HetMemError, MemSystem, Placement, SimDuration, ThreadMem, Topology,
};
use omega_par::DispatchPolicy;
use proptest::prelude::*;
use std::sync::Arc;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic plan: the verdict is a pure hash of
/// `(seed, now, seq, access)` — exactly the contract `FaultHook`
/// demands, with all three verdict kinds reachable.
#[derive(Debug)]
struct HashPlan {
    seed: u64,
}

impl FaultHook for HashPlan {
    fn on_access(&self, now: SimDuration, seq: u64, access: &FaultAccess) -> FaultVerdict {
        let h = splitmix(
            self.seed
                ^ now.as_nanos().wrapping_mul(0x0101_0101_0101_0101)
                ^ seq.rotate_left(17)
                ^ access.bytes.wrapping_mul(31)
                ^ (access.accesses << 8),
        );
        match h % 8 {
            0 => FaultVerdict::Fail {
                error: HetMemError::Transient {
                    node: access.node.unwrap_or(0),
                    device: access.device,
                    penalty_ns: 200 + h % 500,
                },
                penalty: SimDuration::from_nanos(200 + h % 500),
            },
            1 | 2 => FaultVerdict::Delayed(SimDuration::from_nanos(h % 1_000)),
            _ => FaultVerdict::Ok,
        }
    }
}

/// One unit of work, keyed the way parallel consumers key real tasks:
/// fault stream and simulated clock derive from the task, never the
/// thread.
#[derive(Debug, Clone)]
struct TaskSpec {
    node: usize,
    stream: u64,
    now_ns: u64,
    accesses: Vec<(u64, bool, bool)>, // (bytes, is_write, is_rand)
}

/// Everything a task can observe from its context afterwards: the
/// injected penalty, the parked fault, and the full counter table. Two
/// lifecycles with equal observables per task are byte-identical as far
/// as any consumer (serve settle, SpMM stats, metrics JSONL) can tell.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    penalty_ns: u64,
    fault: Option<String>,
    counters: ClassCounters,
}

/// Run `task` on `ctx` and observe it, taking the counters (so the next
/// task's context starts from an empty table).
fn run_task(ctx: &mut ThreadMem, task: &TaskSpec) -> Observed {
    charge_task(ctx, task);
    Observed {
        penalty_ns: ctx.injected_penalty().as_nanos(),
        fault: ctx.take_fault().map(|e| format!("{e:?}")),
        counters: ctx.take_counters(),
    }
}

/// Rebase `ctx` onto `task`'s stream and clock, then charge its accesses.
fn charge_task(ctx: &mut ThreadMem, task: &TaskSpec) {
    ctx.set_fault_stream(task.stream);
    ctx.set_sim_now(SimDuration::from_nanos(task.now_ns));
    for &(bytes, is_write, is_rand) in &task.accesses {
        let op = if is_write {
            AccessOp::Write
        } else {
            AccessOp::Read
        };
        let pattern = if is_rand {
            AccessPattern::Rand
        } else {
            AccessPattern::Seq
        };
        ctx.charge_block(
            Placement::node(task.node, DeviceKind::Pm),
            op,
            pattern,
            bytes,
            1,
        );
    }
}

fn task_strategy() -> impl Strategy<Value = TaskSpec> {
    (
        0usize..2,
        0u64..64,
        0u64..1_000_000,
        proptest::collection::vec((1u64..4096, any::<bool>(), any::<bool>()), 0..12),
    )
        .prop_map(|(node, stream, now_ns, accesses)| TaskSpec {
            node,
            stream,
            now_ns,
            accesses,
        })
}

fn system_with_plan(seed: u64) -> MemSystem {
    MemSystem::new(Topology::paper_machine_scaled(1 << 20))
        .with_fault_hook(Arc::new(HashPlan { seed }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Call-scoped lifecycle (fresh context per task) and pooled-reuse
    /// lifecycle (one recycled context) observe identical fault
    /// schedules, penalties, and counters on the same task list.
    #[test]
    fn recycled_context_matches_fresh_per_task(
        seed in any::<u64>(),
        tasks in proptest::collection::vec(task_strategy(), 1..24),
    ) {
        let sys = system_with_plan(seed);
        let fresh: Vec<Observed> = tasks
            .iter()
            .map(|t| {
                let mut ctx = sys.thread_ctx_on(t.node);
                run_task(&mut ctx, t)
            })
            .collect();
        let mut slot: Option<ThreadMem> = None;
        let reused: Vec<Observed> = tasks
            .iter()
            .map(|t| run_task(sys.recycle_ctx_on(&mut slot, t.node), t))
            .collect();
        prop_assert_eq!(fresh, reused, "pooled reuse changed the fault schedule");
    }

    /// A context recycled with its last task's counters still charged —
    /// nothing took them — resets to an empty table, and the next task
    /// observes on it exactly what it observes on a fresh context: the
    /// reset clears only the classes the last task touched, and those are
    /// all the classes that hold anything.
    #[test]
    fn recycled_dirty_context_matches_fresh(
        seed in any::<u64>(),
        tasks in proptest::collection::vec(task_strategy(), 1..24),
    ) {
        let sys = system_with_plan(seed);
        let mut slot: Option<ThreadMem> = None;
        for task in &tasks {
            let mut fresh = sys.thread_ctx_on(task.node);
            let recycled = sys.recycle_ctx_on(&mut slot, task.node);
            prop_assert_eq!(recycled.counters(), &ClassCounters::default());
            for ctx in [&mut fresh, recycled] {
                charge_task(ctx, task);
            }
            let recycled = slot.as_mut().expect("recycled above");
            prop_assert_eq!(recycled.counters(), fresh.counters());
            prop_assert_eq!(recycled.injected_penalty(), fresh.injected_penalty());
            prop_assert_eq!(
                recycled.take_fault().map(|e| format!("{e:?}")),
                fresh.take_fault().map(|e| format!("{e:?}"))
            );
        }
    }

    /// The same equivalence holds when the tasks run through the
    /// persistent pool with per-thread scratch arenas, at wall threads
    /// 1/2/8, with the plan staying live across two consecutive pool
    /// calls — recycled contexts cross the call boundary dirty and must
    /// still draw the same verdicts.
    #[test]
    fn pooled_reuse_is_thread_count_invariant_across_calls(
        seed in any::<u64>(),
        tasks in proptest::collection::vec(task_strategy(), 2..20),
        split in 1usize..19,
    ) {
        let sys = system_with_plan(seed);
        let baseline: Vec<Observed> = tasks
            .iter()
            .map(|t| {
                let mut ctx = sys.thread_ctx_on(t.node);
                run_task(&mut ctx, t)
            })
            .collect();
        let split = split.min(tasks.len() - 1);
        for threads in [1usize, 2, 8] {
            let got = omega_par::with_dispatch_policy(DispatchPolicy::always_parallel(), || {
                let (first, second) = tasks.split_at(split);
                // Two consecutive pool calls; worker arenas carry their
                // ThreadMem contexts dirty across the boundary.
                let mut out: Vec<Observed> =
                    omega_par::run(threads, first.len(), |slot: &mut Option<ThreadMem>, i| {
                        run_task(sys.recycle_ctx_on(slot, first[i].node), &first[i])
                    });
                out.extend(omega_par::run(
                    threads,
                    second.len(),
                    |slot: &mut Option<ThreadMem>, i| {
                        run_task(sys.recycle_ctx_on(slot, second[i].node), &second[i])
                    },
                ));
                out
            });
            prop_assert_eq!(
                &baseline,
                &got,
                "threads={} diverged from the call-scoped lifecycle",
                threads
            );
        }
    }
}
