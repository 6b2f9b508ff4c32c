//! The plan-file format: [`FaultRule`], [`FaultPlanSpec`] and the parser
//! that reads one from text.

use omega_hetmem::{DeviceKind, NodeId};

/// Open-ended window end.
pub(crate) const FOREVER: u64 = u64::MAX;

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
    /// [`HetMemError::Timeout`](omega_hetmem::HetMemError::Timeout) at the
    /// given rate.
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
    /// accesses are untouched
    /// ([`FaultHook::on_access`](omega_hetmem::FaultHook::on_access)
    /// ignores it) — the rule lives here so one plan file describes
    /// machine- and replica-level misbehaviour together.
    Outage {
        replica: u32,
        from_ns: u64,
        until_ns: u64,
    },
}

/// A seed plus rules: the portable, serialisable description of a chaos
/// scenario. Install it on a system with [`install_plan`](crate::install_plan).
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
    /// outage replica=0 from_ms=10 until_ms=30
    /// ```
    ///
    /// Durations take a `_ns`, `_us` or `_ms` suffix on the key and must
    /// be finite and non-negative; a window's `until` must follow `from`; a
    /// `factor` must be finite and at least 1.
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
            rules.push(parse_rule(line).map_err(err)?);
        }
        Ok(FaultPlanSpec {
            seed: seed.ok_or("plan file missing `seed = <u64>` directive")?,
            rules,
        })
    }

    /// Render back to the plan-file format ([`FaultPlanSpec::parse`]
    /// round-trips it). The tests use it to check that the parser reads
    /// every field of every rule kind.
    #[cfg(test)]
    pub(crate) fn to_text(&self) -> String {
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

/// One rule line (comment stripped, not a seed directive). The caller
/// prefixes every error with the line number.
fn parse_rule(line: &str) -> Result<FaultRule, String> {
    let mut words = line.split_whitespace();
    let kind = words.next().expect("non-empty line has a first word");
    let mut fields = Fields::parse(words)?;
    let rule = match kind {
        "transient" => FaultRule::Transient {
            device: fields.device(None)?,
            node: fields.node_opt()?,
            rate: fields.rate()?,
            penalty_ns: fields.duration_ns("penalty")?.unwrap_or(0),
        },
        "spike" => FaultRule::Spike {
            device: fields.device(None)?,
            node: fields.node_opt()?,
            factor: fields.factor()?,
            from_ns: fields.duration_ns("from")?.unwrap_or(0),
            until_ns: fields.duration_ns("until")?.unwrap_or(FOREVER),
        },
        "timeout" => FaultRule::Timeout {
            device: fields.device(Some(DeviceKind::Ssd))?,
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
        other => return Err(format!("unknown rule kind `{other}`")),
    };
    fields.finish()?;
    // A window that closes before it opens never fires.
    match rule {
        FaultRule::Spike {
            from_ns, until_ns, ..
        }
        | FaultRule::Timeout {
            from_ns, until_ns, ..
        }
        | FaultRule::Outage {
            from_ns, until_ns, ..
        } if until_ns <= from_ns => Err(format!(
            "empty window: until {until_ns} ns is not after from {from_ns} ns"
        )),
        _ => Ok(rule),
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

    /// The `device=` field, falling back to `default` when it is absent.
    fn device(&mut self, default: Option<DeviceKind>) -> Result<DeviceKind, String> {
        match (self.take("device"), default) {
            (Some(v), _) => parse_device(&v),
            (None, Some(device)) => Ok(device),
            (None, None) => Err("missing device=<dram|pm|ssd>".to_string()),
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
        if !factor.is_finite() || factor < 1.0 {
            return Err(format!("factor {factor} must be finite and >= 1"));
        }
        Ok(factor)
    }

    /// A duration field with unit-suffixed key (`<base>_ns|_us|_ms`).
    fn duration_ns(&mut self, base: &str) -> Result<Option<u64>, String> {
        for (suffix, scale) in [("_ns", 1u64), ("_us", 1_000), ("_ms", 1_000_000)] {
            let key = format!("{base}{suffix}");
            if let Some(v) = self.take(&key) {
                let n: f64 = v.parse().map_err(|e| format!("bad {key} `{v}`: {e}"))?;
                if !n.is_finite() || n < 0.0 {
                    return Err(format!("{key} must be finite and non-negative, got `{v}`"));
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
