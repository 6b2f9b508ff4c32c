//! # omega-faults — seeded deterministic fault injection
//!
//! Real PM and SSD tiers stall, time out and degrade; the calibrated
//! [`BandwidthModel`] alone describes a machine on its best day. This
//! crate injects the bad days — *deterministically*, so chaos runs are
//! replayable byte-for-byte.
//!
//! A [`FaultPlanSpec`] is a seed plus declarative [`FaultRule`]s; compiled
//! against a system's bandwidth model it becomes a [`FaultPlan`], which
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
    AccessOp, BandwidthModel, DeviceKind, FaultAccess, FaultHook, FaultVerdict, HetMemError,
    MemSystem, NodeId, Placement, SimDuration, ThreadMem,
};
use std::sync::Arc;

/// Open-ended window end.
const FOREVER: u64 = u64::MAX;

/// One declarative misbehaviour. Probabilistic rules (`rate`) draw an
/// independent deterministic sample per consult; window rules compare the
/// consulting context's simulated clock against `[from_ns, until_ns)`.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultRule {
    /// Transient read failures on a device (optionally one node's).
    Transient {
        device: DeviceKind,
        node: Option<NodeId>,
        /// Probability a matching read fails, in `[0, 1]`.
        rate: f64,
        /// Simulated time the doomed attempt burns before surfacing.
        penalty_ns: u64,
    },
    /// Latency spike: matching accesses cost `factor ×` their model time
    /// while `now ∈ [from_ns, until_ns)`.
    Spike {
        device: DeviceKind,
        node: Option<NodeId>,
        factor: f64,
        from_ns: u64,
        until_ns: u64,
    },
    /// Timeout window: matching reads stall `timeout_ns` and fail with
    /// [`HetMemError::Timeout`] at the given rate.
    Timeout {
        device: DeviceKind,
        node: Option<NodeId>,
        rate: f64,
        timeout_ns: u64,
        from_ns: u64,
        until_ns: u64,
    },
    /// Sustained bandwidth degradation of one socket from `from_ns` on:
    /// every access homed on `node` costs `factor ×` its model time.
    Degrade {
        node: NodeId,
        factor: f64,
        from_ns: u64,
    },
    /// Whole-replica outage window. This rule addresses the layer *above*
    /// the memory substrate: the request plane stops routing to `replica`
    /// while `now ∈ [from_ns, until_ns)` and floors its dispatch clock at
    /// the window end, so recovery restores primary routing. Memory
    /// accesses are untouched ([`FaultHook::on_access`] ignores it) —
    /// the rule lives here so one plan file describes machine- and
    /// replica-level misbehaviour together.
    Outage {
        replica: u32,
        from_ns: u64,
        until_ns: u64,
    },
}

/// A seed plus rules: the portable, serialisable description of a chaos
/// scenario. Compile with [`FaultPlan::new`] (or install directly via
/// [`install_plan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanSpec {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

impl FaultPlanSpec {
    /// An empty (zero-rate) plan: consulted on every access, injects
    /// nothing. Installing it must leave all metrics byte-identical to a
    /// run with no plan at all.
    pub fn new(seed: u64) -> Self {
        FaultPlanSpec {
            seed,
            rules: Vec::new(),
        }
    }

    pub fn with_transient(mut self, device: DeviceKind, rate: f64, penalty_ns: u64) -> Self {
        self.rules.push(FaultRule::Transient {
            device,
            node: None,
            rate,
            penalty_ns,
        });
        self
    }

    pub fn with_spike(
        mut self,
        device: DeviceKind,
        factor: f64,
        from_ns: u64,
        until_ns: u64,
    ) -> Self {
        self.rules.push(FaultRule::Spike {
            device,
            node: None,
            factor,
            from_ns,
            until_ns,
        });
        self
    }

    pub fn with_timeout(mut self, device: DeviceKind, rate: f64, timeout_ns: u64) -> Self {
        self.rules.push(FaultRule::Timeout {
            device,
            node: None,
            rate,
            timeout_ns,
            from_ns: 0,
            until_ns: FOREVER,
        });
        self
    }

    pub fn with_degrade(mut self, node: NodeId, factor: f64, from_ns: u64) -> Self {
        self.rules.push(FaultRule::Degrade {
            node,
            factor,
            from_ns,
        });
        self
    }

    pub fn with_outage(mut self, replica: u32, from_ns: u64, until_ns: u64) -> Self {
        self.rules.push(FaultRule::Outage {
            replica,
            from_ns,
            until_ns,
        });
        self
    }

    /// The plan's replica-outage windows as `(replica, from_ns, until_ns)`
    /// — the request plane consumes these for routing/recovery steering
    /// while the memory-level hook ignores them.
    pub fn outages(&self) -> Vec<(u32, u64, u64)> {
        self.rules
            .iter()
            .filter_map(|rule| match rule {
                FaultRule::Outage {
                    replica,
                    from_ns,
                    until_ns,
                } => Some((*replica, *from_ns, *until_ns)),
                _ => None,
            })
            .collect()
    }

    /// Parse the line-based plan-file format (see crate docs of the repo's
    /// README). Grammar, one directive per line, `#` comments:
    ///
    /// ```text
    /// seed = 42
    /// transient device=pm rate=0.01 penalty_us=5
    /// spike device=ssd factor=4 from_ms=0 until_ms=2
    /// timeout device=ssd node=0 rate=0.005 timeout_us=200
    /// degrade node=1 factor=1.5 from_ms=0
    /// ```
    ///
    /// Durations accept `_ns`, `_us` and `_ms` suffixes on the key.
    pub fn parse(text: &str) -> Result<FaultPlanSpec, String> {
        let mut seed: Option<u64> = None;
        let mut rules = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("plan line {}: {}", lineno + 1, msg);
            if let Some(rest) = line.strip_prefix("seed") {
                let value = rest
                    .trim_start()
                    .strip_prefix('=')
                    .ok_or_else(|| err("expected `seed = <u64>`".into()))?;
                seed = Some(
                    value
                        .trim()
                        .parse::<u64>()
                        .map_err(|e| err(format!("bad seed: {e}")))?,
                );
                continue;
            }
            let mut words = line.split_whitespace();
            let kind = words.next().expect("non-empty line has a first word");
            let mut fields = Fields::parse(words).map_err(&err)?;
            let rule = match kind {
                "transient" => FaultRule::Transient {
                    device: fields.device()?,
                    node: fields.node_opt()?,
                    rate: fields.rate()?,
                    penalty_ns: fields.duration_ns("penalty")?.unwrap_or(0),
                },
                "spike" => FaultRule::Spike {
                    device: fields.device()?,
                    node: fields.node_opt()?,
                    factor: fields.factor()?,
                    from_ns: fields.duration_ns("from")?.unwrap_or(0),
                    until_ns: fields.duration_ns("until")?.unwrap_or(FOREVER),
                },
                "timeout" => FaultRule::Timeout {
                    device: fields.device_or(DeviceKind::Ssd)?,
                    node: fields.node_opt()?,
                    rate: fields.rate()?,
                    timeout_ns: fields
                        .duration_ns("timeout")?
                        .ok_or_else(|| "timeout rule needs timeout_{ns,us,ms}".to_string())?,
                    from_ns: fields.duration_ns("from")?.unwrap_or(0),
                    until_ns: fields.duration_ns("until")?.unwrap_or(FOREVER),
                },
                "degrade" => FaultRule::Degrade {
                    node: fields
                        .node_opt()?
                        .ok_or_else(|| "degrade rule needs node=<id>".to_string())?,
                    factor: fields.factor()?,
                    from_ns: fields.duration_ns("from")?.unwrap_or(0),
                },
                "outage" => FaultRule::Outage {
                    replica: fields.replica()?,
                    from_ns: fields.duration_ns("from")?.unwrap_or(0),
                    until_ns: fields.duration_ns("until")?.unwrap_or(FOREVER),
                },
                other => return Err(err(format!("unknown rule kind `{other}`"))),
            };
            fields.finish().map_err(&err)?;
            rules.push(rule);
        }
        Ok(FaultPlanSpec {
            seed: seed.ok_or("plan file missing `seed = <u64>` directive")?,
            rules,
        })
    }

    /// Render back to the plan-file format ([`FaultPlanSpec::parse`]
    /// round-trips it).
    pub fn to_text(&self) -> String {
        let mut out = format!("seed = {}\n", self.seed);
        let node = |n: &Option<NodeId>| match n {
            Some(id) => format!(" node={id}"),
            None => String::new(),
        };
        let dev = |d: &DeviceKind| match d {
            DeviceKind::Dram => "dram",
            DeviceKind::Pm => "pm",
            DeviceKind::Ssd => "ssd",
        };
        let until = |u: &u64| {
            if *u == FOREVER {
                String::new()
            } else {
                format!(" until_ns={u}")
            }
        };
        for rule in &self.rules {
            match rule {
                FaultRule::Transient {
                    device,
                    node: n,
                    rate,
                    penalty_ns,
                } => out.push_str(&format!(
                    "transient device={}{} rate={} penalty_ns={}\n",
                    dev(device),
                    node(n),
                    rate,
                    penalty_ns
                )),
                FaultRule::Spike {
                    device,
                    node: n,
                    factor,
                    from_ns,
                    until_ns,
                } => out.push_str(&format!(
                    "spike device={}{} factor={} from_ns={}{}\n",
                    dev(device),
                    node(n),
                    factor,
                    from_ns,
                    until(until_ns)
                )),
                FaultRule::Timeout {
                    device,
                    node: n,
                    rate,
                    timeout_ns,
                    from_ns,
                    until_ns,
                } => out.push_str(&format!(
                    "timeout device={}{} rate={} timeout_ns={} from_ns={}{}\n",
                    dev(device),
                    node(n),
                    rate,
                    timeout_ns,
                    from_ns,
                    until(until_ns)
                )),
                FaultRule::Degrade {
                    node: n,
                    factor,
                    from_ns,
                } => out.push_str(&format!(
                    "degrade node={} factor={} from_ns={}\n",
                    n, factor, from_ns
                )),
                FaultRule::Outage {
                    replica,
                    from_ns,
                    until_ns,
                } => out.push_str(&format!(
                    "outage replica={} from_ns={}{}\n",
                    replica,
                    from_ns,
                    until(until_ns)
                )),
            }
        }
        out
    }
}

/// Key=value field bag for the plan-file parser.
struct Fields {
    pairs: Vec<(String, String)>,
}

impl Fields {
    fn parse<'a>(words: impl Iterator<Item = &'a str>) -> Result<Fields, String> {
        let mut pairs = Vec::new();
        for w in words {
            let (k, v) = w
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{w}`"))?;
            pairs.push((k.to_string(), v.to_string()));
        }
        Ok(Fields { pairs })
    }

    fn take(&mut self, key: &str) -> Option<String> {
        let idx = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(idx).1)
    }

    fn device(&mut self) -> Result<DeviceKind, String> {
        let v = self
            .take("device")
            .ok_or_else(|| "missing device=<dram|pm|ssd>".to_string())?;
        parse_device(&v)
    }

    fn device_or(&mut self, default: DeviceKind) -> Result<DeviceKind, String> {
        match self.take("device") {
            Some(v) => parse_device(&v),
            None => Ok(default),
        }
    }

    fn replica(&mut self) -> Result<u32, String> {
        let v = self
            .take("replica")
            .ok_or_else(|| "outage rule needs replica=<id>".to_string())?;
        v.parse::<u32>()
            .map_err(|e| format!("bad replica `{v}`: {e}"))
    }

    fn node_opt(&mut self) -> Result<Option<NodeId>, String> {
        match self.take("node") {
            None => Ok(None),
            Some(v) => v
                .parse::<NodeId>()
                .map(Some)
                .map_err(|e| format!("bad node `{v}`: {e}")),
        }
    }

    fn rate(&mut self) -> Result<f64, String> {
        let v = self
            .take("rate")
            .ok_or_else(|| "missing rate=<0..1>".to_string())?;
        let rate: f64 = v.parse().map_err(|e| format!("bad rate `{v}`: {e}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("rate {rate} outside [0, 1]"));
        }
        Ok(rate)
    }

    fn factor(&mut self) -> Result<f64, String> {
        let v = self
            .take("factor")
            .ok_or_else(|| "missing factor=<f64 >= 1>".to_string())?;
        let factor: f64 = v.parse().map_err(|e| format!("bad factor `{v}`: {e}"))?;
        if factor.is_nan() || factor < 1.0 {
            return Err(format!("factor {factor} must be >= 1"));
        }
        Ok(factor)
    }

    /// A duration field with unit-suffixed key (`<base>_ns|_us|_ms`).
    fn duration_ns(&mut self, base: &str) -> Result<Option<u64>, String> {
        for (suffix, scale) in [("_ns", 1u64), ("_us", 1_000), ("_ms", 1_000_000)] {
            let key = format!("{base}{suffix}");
            if let Some(v) = self.take(&key) {
                let n: f64 = v.parse().map_err(|e| format!("bad {key} `{v}`: {e}"))?;
                if n < 0.0 {
                    return Err(format!("{key} must be non-negative"));
                }
                return Ok(Some((n * scale as f64).round() as u64));
            }
        }
        Ok(None)
    }

    fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, v)) => Err(format!("unknown field `{k}={v}`")),
        }
    }
}

fn parse_device(v: &str) -> Result<DeviceKind, String> {
    match v.to_ascii_lowercase().as_str() {
        "dram" => Ok(DeviceKind::Dram),
        "pm" => Ok(DeviceKind::Pm),
        "ssd" => Ok(DeviceKind::Ssd),
        other => Err(format!("unknown device `{other}` (dram|pm|ssd)")),
    }
}

/// A compiled plan: spec + the system's bandwidth model (for composing
/// injected costs with the calibrated ratios). Implements [`FaultHook`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultPlanSpec,
    model: BandwidthModel,
}

impl FaultPlan {
    pub fn new(spec: FaultPlanSpec, model: BandwidthModel) -> FaultPlan {
        FaultPlan { spec, model }
    }

    pub fn spec(&self) -> &FaultPlanSpec {
        &self.spec
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

/// Scale a duration by a non-negative factor (used for `factor − 1`).
fn scale(d: SimDuration, factor: f64) -> SimDuration {
    SimDuration::from_nanos((d.as_nanos() as f64 * factor).round() as u64)
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
                        && (*from_ns..*until_ns).contains(&now_ns)
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
                        && (*from_ns..*until_ns).contains(&now_ns)
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
    use omega_hetmem::{AccessPattern, Topology};

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
        assert!(
            FaultPlanSpec::parse("transient device=pm rate=0.1").is_err(),
            "missing seed"
        );
        assert!(
            FaultPlanSpec::parse("seed = 1\ntransient rate=0.1").is_err(),
            "missing device"
        );
        assert!(FaultPlanSpec::parse("seed = 1\ntransient device=flash rate=0.1").is_err());
        assert!(FaultPlanSpec::parse("seed = 1\ntransient device=pm rate=1.5").is_err());
        assert!(FaultPlanSpec::parse("seed = 1\nspike device=pm factor=0.5").is_err());
        assert!(FaultPlanSpec::parse("seed = 1\ntransient device=pm rate=0.1 bogus=1").is_err());
        assert!(FaultPlanSpec::parse("seed = 1\nexplode device=pm rate=0.1").is_err());
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
            .alloc_zeroed::<u8>(Placement::node(0, DeviceKind::Dram), 64)
            .unwrap();
        assert_eq!(sys.governor().usage(0, DeviceKind::Dram).used, 64);
        // And reads through the chaotic system park faults.
        let mut ctx = chaotic.thread_ctx_on(0);
        let v = chaotic
            .alloc_from(Placement::node(0, DeviceKind::Pm), vec![1.0f32; 16])
            .unwrap();
        assert!(v.try_read_block(0..16, &mut ctx).is_err());
    }
}
