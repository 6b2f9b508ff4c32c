//! # omega-faults — seeded deterministic fault injection
//!
//! Real PM and SSD tiers stall, time out and degrade; the calibrated
//! [`BandwidthModel`] alone describes a machine on its best day. This
//! crate injects the bad days — *deterministically*, so chaos runs are
//! replayable byte-for-byte.
//!
//! A [`FaultPlanSpec`] is a seed plus declarative [`FaultRule`]s; compiled
//! against a system's bandwidth model it becomes a `FaultPlan`, which
//! implements the substrate's [`FaultHook`] and is installed with
//! [`MemSystem::with_fault_hook`]. Every charged access consults the plan:
//!
//! * [`FaultRule::Transient`] — per-device transient read failures at a
//!   given rate, each burning a fixed simulated penalty;
//! * [`FaultRule::Spike`] — a latency spike multiplying the model cost of
//!   matching accesses within a window of simulated time;
//! * [`FaultRule::Timeout`] — timeout windows (SSD by default): the access
//!   stalls for the timeout and fails, steering robust consumers to hedge
//!   against a replica tier;
//! * [`FaultRule::Degrade`] — sustained bandwidth degradation on one
//!   socket, scaling the cost of every access to that node.
//!
//! ## Determinism
//!
//! Verdicts are a pure function of `(seed, rule index, consult ordinal,
//! simulated now)` via a SplitMix64 mix — no RNG state, no wall clock, no
//! thread identity. The same seed and plan against the same workload
//! reproduce the same fault schedule on any machine, which is what the
//! chaos suite and the golden metrics snapshots assert.
//!
//! ## Cost composition
//!
//! Injected time *composes with* the calibrated model rather than
//! replacing it: a spike/degradation verdict replays the access against
//! the plan's [`BandwidthModel`] to get its base cost `t`, then injects
//! `t × (factor − 1)` — so a 2× spike on PM doubles exactly the cost the
//! calibration says a PM access has, preserving the paper's device ratios.

use omega_hetmem::{
    AccessOp, BandwidthModel, FaultAccess, FaultHook, FaultVerdict, HetMemError, MemSystem,
    Placement, SimDuration, ThreadMem,
};
use std::sync::Arc;

mod spec;
use spec::FOREVER;
pub use spec::{FaultPlanSpec, FaultRule};

/// A compiled plan: spec + the system's bandwidth model (for composing
/// injected costs with the calibrated ratios). Implements [`FaultHook`].
#[derive(Debug, Clone)]
pub(crate) struct FaultPlan {
    spec: FaultPlanSpec,
    model: BandwidthModel,
}

impl FaultPlan {
    pub(crate) fn new(spec: FaultPlanSpec, model: BandwidthModel) -> FaultPlan {
        FaultPlan { spec, model }
    }

    /// Model cost of the access if it ran alone, local to its home node —
    /// the base `t` that spike/degrade verdicts scale. Replays the access
    /// through a throwaway context so classification and media-granularity
    /// rounding match the real charge exactly.
    fn base_cost(&self, access: &FaultAccess) -> SimDuration {
        let node = access.node.unwrap_or(0);
        let mut ctx = ThreadMem::new(node, 1);
        ctx.charge_block(
            Placement::node(node, access.device),
            access.op,
            access.pattern,
            access.bytes,
            access.accesses,
        );
        self.model.thread_time(ctx.counters(), 1)
    }

    /// Deterministic uniform draw in `[0, 1)` for (rule, consult, now).
    fn draw(&self, rule_idx: usize, seq: u64, now_ns: u64) -> f64 {
        let mut x = self.spec.seed;
        x = splitmix64(x ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rule_idx as u64 + 1));
        x = splitmix64(x ^ seq);
        x = splitmix64(x ^ now_ns);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64 finaliser: the standard avalanche mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Scale a duration by a non-negative factor (used for `factor − 1`). The
/// float → `u64` cast stops at `u64::MAX`.
fn scale(d: SimDuration, factor: f64) -> SimDuration {
    SimDuration::from_nanos((d.as_nanos() as f64 * factor).round() as u64)
}

/// Whether `now_ns` falls in `[from_ns, until_ns)`. A window with no end
/// (`until_ns` is [`FOREVER`]) holds every instant from its start on, the
/// clock's last one too: a run that a huge slowdown drove to `u64::MAX` ns
/// stays slowed.
fn in_window(now_ns: u64, from_ns: u64, until_ns: u64) -> bool {
    from_ns <= now_ns && (now_ns < until_ns || until_ns == FOREVER)
}

impl FaultHook for FaultPlan {
    fn on_access(&self, now: SimDuration, seq: u64, access: &FaultAccess) -> FaultVerdict {
        let now_ns = now.as_nanos();
        let mut delay = SimDuration::ZERO;
        let mut fail: Option<(HetMemError, SimDuration)> = None;
        for (i, rule) in self.spec.rules.iter().enumerate() {
            match rule {
                FaultRule::Spike {
                    device,
                    node,
                    factor,
                    from_ns,
                    until_ns,
                } => {
                    if *device == access.device
                        && (node.is_none() || *node == access.node)
                        && in_window(now_ns, *from_ns, *until_ns)
                    {
                        delay += scale(self.base_cost(access), factor - 1.0);
                    }
                }
                FaultRule::Degrade {
                    node,
                    factor,
                    from_ns,
                } => {
                    if access.node == Some(*node) && now_ns >= *from_ns {
                        delay += scale(self.base_cost(access), factor - 1.0);
                    }
                }
                FaultRule::Transient {
                    device,
                    node,
                    rate,
                    penalty_ns,
                } => {
                    if fail.is_none()
                        && access.op == AccessOp::Read
                        && *device == access.device
                        && (node.is_none() || *node == access.node)
                        && self.draw(i, seq, now_ns) < *rate
                    {
                        fail = Some((
                            HetMemError::Transient {
                                node: access.node.unwrap_or(0),
                                device: access.device,
                                penalty_ns: *penalty_ns,
                            },
                            SimDuration::from_nanos(*penalty_ns),
                        ));
                    }
                }
                // Replica outages act at the request-plane layer, not on
                // individual memory accesses.
                FaultRule::Outage { .. } => {}
                FaultRule::Timeout {
                    device,
                    node,
                    rate,
                    timeout_ns,
                    from_ns,
                    until_ns,
                } => {
                    if fail.is_none()
                        && access.op == AccessOp::Read
                        && *device == access.device
                        && (node.is_none() || *node == access.node)
                        && in_window(now_ns, *from_ns, *until_ns)
                        && self.draw(i, seq, now_ns) < *rate
                    {
                        fail = Some((
                            HetMemError::Timeout {
                                node: access.node.unwrap_or(0),
                                device: access.device,
                                timeout_ns: *timeout_ns,
                            },
                            SimDuration::from_nanos(*timeout_ns),
                        ));
                    }
                }
            }
        }
        match fail {
            // A doomed attempt still rides out any active spike/degrade
            // window before the device gives up.
            Some((error, penalty)) => FaultVerdict::Fail {
                error,
                penalty: delay + penalty,
            },
            None if delay > SimDuration::ZERO => FaultVerdict::Delayed(delay),
            None => FaultVerdict::Ok,
        }
    }
}

/// Compile `spec` against `sys`'s own bandwidth model and return a copy of
/// the system with the plan installed. The governor (and thus all existing
/// allocations) stays shared with the original.
pub fn install_plan(sys: &MemSystem, spec: FaultPlanSpec) -> MemSystem {
    let plan = FaultPlan::new(spec, sys.model().clone());
    sys.clone().with_fault_hook(Arc::new(plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_hetmem::{AccessPattern, DeviceKind, Topology};

    fn plan(spec: FaultPlanSpec) -> FaultPlan {
        FaultPlan::new(spec, BandwidthModel::paper_machine())
    }

    fn pm_read(bytes: u64) -> FaultAccess {
        FaultAccess {
            device: DeviceKind::Pm,
            node: Some(0),
            op: AccessOp::Read,
            pattern: AccessPattern::Seq,
            bytes,
            accesses: 1,
        }
    }

    #[test]
    fn zero_rate_plan_always_ok() {
        let p = plan(FaultPlanSpec::new(7));
        for seq in 0..1000 {
            assert_eq!(
                p.on_access(SimDuration::from_nanos(seq * 10), seq, &pm_read(4096)),
                FaultVerdict::Ok
            );
        }
    }

    #[test]
    fn transient_rate_roughly_honoured_and_deterministic() {
        let p = plan(FaultPlanSpec::new(42).with_transient(DeviceKind::Pm, 0.1, 500));
        let fails = |p: &FaultPlan| {
            (0..10_000)
                .filter(|&seq| {
                    matches!(
                        p.on_access(SimDuration::ZERO, seq, &pm_read(64)),
                        FaultVerdict::Fail { .. }
                    )
                })
                .count()
        };
        let n = fails(&p);
        assert!((800..1200).contains(&n), "10% of 10k draws, got {n}");
        // Same seed ⇒ identical schedule; different seed ⇒ different.
        assert_eq!(
            n,
            fails(&plan(FaultPlanSpec::new(42).with_transient(
                DeviceKind::Pm,
                0.1,
                500
            )))
        );
        let other = plan(FaultPlanSpec::new(43).with_transient(DeviceKind::Pm, 0.1, 500));
        let schedule = |p: &FaultPlan| -> Vec<bool> {
            (0..200)
                .map(|seq| {
                    matches!(
                        p.on_access(SimDuration::ZERO, seq, &pm_read(64)),
                        FaultVerdict::Fail { .. }
                    )
                })
                .collect()
        };
        assert_ne!(schedule(&p), schedule(&other));
    }

    #[test]
    fn transient_spares_writes_and_other_devices() {
        let p = plan(FaultPlanSpec::new(1).with_transient(DeviceKind::Pm, 1.0, 500));
        let mut write = pm_read(64);
        write.op = AccessOp::Write;
        assert_eq!(p.on_access(SimDuration::ZERO, 0, &write), FaultVerdict::Ok);
        let mut dram = pm_read(64);
        dram.device = DeviceKind::Dram;
        assert_eq!(p.on_access(SimDuration::ZERO, 0, &dram), FaultVerdict::Ok);
        assert!(matches!(
            p.on_access(SimDuration::ZERO, 0, &pm_read(64)),
            FaultVerdict::Fail {
                error: HetMemError::Transient { .. },
                ..
            }
        ));
    }

    #[test]
    fn spike_scales_model_cost_inside_window_only() {
        let p = plan(FaultPlanSpec::new(3).with_spike(DeviceKind::Pm, 3.0, 1_000, 2_000));
        let access = pm_read(1 << 20);
        // Outside the window: clean.
        assert_eq!(
            p.on_access(SimDuration::from_nanos(999), 0, &access),
            FaultVerdict::Ok
        );
        assert_eq!(
            p.on_access(SimDuration::from_nanos(2_000), 1, &access),
            FaultVerdict::Ok
        );
        // Inside: delayed by exactly (factor − 1) × model cost.
        let base = p.base_cost(&access);
        match p.on_access(SimDuration::from_nanos(1_500), 2, &access) {
            FaultVerdict::Delayed(d) => assert_eq!(d, scale(base, 2.0)),
            v => panic!("expected Delayed, got {v:?}"),
        }
    }

    /// A larger factor never prices a spike cheaper, up to `f64::MAX`:
    /// the delay stops at `u64::MAX` ns instead of wrapping.
    #[test]
    fn spike_delay_never_falls_as_the_factor_grows() {
        let access = pm_read(1 << 20);
        let now = SimDuration::from_nanos(1_000);
        let delay = |factor: f64| {
            let p = plan(FaultPlanSpec::new(3).with_spike(DeviceKind::Pm, factor, 0, FOREVER));
            match p.on_access(now, 0, &access) {
                FaultVerdict::Delayed(d) => d.as_nanos(),
                v => panic!("factor {factor}: expected Delayed, got {v:?}"),
            }
        };
        let delays: Vec<u64> = [2.0, 1e3, 1e30, f64::MAX].map(delay).into();
        assert!(delays.windows(2).all(|w| w[0] <= w[1]), "{delays:?}");
        assert_eq!(delays[3], u64::MAX);
        // An open-ended spike still holds once the clock stands at its end.
        let p = plan(FaultPlanSpec::new(3).with_spike(DeviceKind::Pm, 2.0, 0, FOREVER));
        let end = SimDuration::from_nanos(u64::MAX);
        assert_eq!(
            p.on_access(end, 0, &access),
            FaultVerdict::Delayed(scale(p.base_cost(&access), 1.0))
        );
        // A failed attempt inside the spike saturates the same way.
        let p = plan(
            FaultPlanSpec::new(3)
                .with_spike(DeviceKind::Pm, f64::MAX, 0, FOREVER)
                .with_transient(DeviceKind::Pm, 1.0, u64::MAX),
        );
        match p.on_access(now, 0, &access) {
            FaultVerdict::Fail { penalty, .. } => assert_eq!(penalty.as_nanos(), u64::MAX),
            v => panic!("expected Fail, got {v:?}"),
        }
    }

    #[test]
    fn degrade_targets_one_socket() {
        let p = plan(FaultPlanSpec::new(4).with_degrade(1, 1.5, 0));
        let mut on1 = pm_read(1 << 16);
        on1.node = Some(1);
        assert!(matches!(
            p.on_access(SimDuration::ZERO, 0, &on1),
            FaultVerdict::Delayed(_)
        ));
        assert_eq!(
            p.on_access(SimDuration::ZERO, 1, &pm_read(1 << 16)),
            FaultVerdict::Ok
        );
    }

    #[test]
    fn timeout_fails_with_timeout_error() {
        let p = plan(FaultPlanSpec::new(5).with_timeout(DeviceKind::Ssd, 1.0, 200_000));
        let mut ssd = pm_read(4096);
        ssd.device = DeviceKind::Ssd;
        match p.on_access(SimDuration::ZERO, 0, &ssd) {
            FaultVerdict::Fail { error, penalty } => {
                assert!(error.is_timeout());
                assert_eq!(penalty, SimDuration::from_nanos(200_000));
            }
            v => panic!("expected Fail, got {v:?}"),
        }
    }

    #[test]
    fn plan_file_round_trips() {
        let text = "\
# chaos scenario: flaky PM plus a cold-start SSD brownout
seed = 42
transient device=pm rate=0.01 penalty_us=5
spike device=ssd factor=4 from_ms=0 until_ms=2
timeout node=0 rate=0.005 timeout_us=200
degrade node=1 factor=1.5 from_ms=0
";
        let spec = FaultPlanSpec::parse(text).unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.rules.len(), 4);
        assert_eq!(
            spec.rules[0],
            FaultRule::Transient {
                device: DeviceKind::Pm,
                node: None,
                rate: 0.01,
                penalty_ns: 5_000,
            }
        );
        assert_eq!(
            spec.rules[2],
            FaultRule::Timeout {
                device: DeviceKind::Ssd,
                node: Some(0),
                rate: 0.005,
                timeout_ns: 200_000,
                from_ns: 0,
                until_ns: FOREVER,
            }
        );
        // to_text → parse is the identity on the spec.
        let reparsed = FaultPlanSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn outage_rule_round_trips_and_spares_memory_accesses() {
        let text =
            "seed = 9\noutage replica=1 from_ms=10 until_ms=20\noutage replica=0 from_ms=5\n";
        let spec = FaultPlanSpec::parse(text).unwrap();
        assert_eq!(
            spec.outages(),
            vec![(1, 10_000_000, 20_000_000), (0, 5_000_000, FOREVER)]
        );
        let reparsed = FaultPlanSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(reparsed, spec);
        // Memory accesses inside the outage window stay clean: the rule
        // steers the request plane, never the substrate.
        let p = plan(spec);
        assert_eq!(
            p.on_access(SimDuration::from_nanos(15_000_000), 0, &pm_read(4096)),
            FaultVerdict::Ok
        );
        assert!(FaultPlanSpec::parse("seed = 1\noutage from_ms=1").is_err());
        assert!(FaultPlanSpec::parse("seed = 1\noutage replica=x from_ms=1").is_err());
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        let no_seed = FaultPlanSpec::parse("transient device=pm rate=0.1");
        assert!(no_seed.is_err());
        // Each bad rule is refused with its line named, whichever field
        // raised the error. A NaN or infinite duration or factor and a
        // window that closes before it opens are refused too.
        for rule in [
            "transient rate=0.1",
            "transient device=flash rate=0.1",
            "transient device=pm rate=1.5",
            "transient device=pm rate=0.1 bogus=1",
            "transient device=pm rate=0.1 penalty_us=-1",
            "explode device=pm rate=0.1",
            "spike device=pm factor=0.5",
            "spike device=pm factor=inf",
            "degrade node=0 factor=1e400",
            "outage replica=x",
            "timeout device=pm node=x rate=0.1 timeout_us=5",
            "timeout device=pm rate=0.1",
            "outage replica=0 from_ms=nan",
            "spike device=pm factor=2 until_ms=inf",
            "spike device=pm factor=2 from_ms=5 until_ms=5",
            "timeout rate=0.1 timeout_us=5 from_ms=3 until_ms=1",
            "outage replica=1 from_ms=30 until_ms=10",
        ] {
            let err = FaultPlanSpec::parse(&format!("seed = 1\n\n{rule}")).unwrap_err();
            assert!(err.starts_with("plan line 3: "), "{rule}: {err}");
        }
    }

    #[test]
    fn install_plan_attaches_hook_and_shares_governor() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        let chaotic = install_plan(
            &sys,
            FaultPlanSpec::new(9).with_transient(DeviceKind::Pm, 1.0, 100),
        );
        assert!(chaotic.fault_hook().is_some());
        assert!(sys.fault_hook().is_none(), "original system untouched");
        // Shared governor: an allocation on one shows up on the other.
        let _v = chaotic
            .alloc_from(Placement::node(0, DeviceKind::Dram), vec![0u8; 64])
            .unwrap();
        assert_eq!(sys.used(0, DeviceKind::Dram), 64);
        // And reads through the chaotic system park faults.
        let mut ctx = chaotic.thread_ctx_on(0);
        let v = chaotic
            .alloc_from(Placement::node(0, DeviceKind::Pm), vec![1.0f32; 16])
            .unwrap();
        assert!(v.try_read_block(0..16, &mut ctx).is_err());
    }
}
