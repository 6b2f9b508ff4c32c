//! Open-loop traffic generation: seeded Poisson, diurnal and flash-crowd
//! arrival processes with per-tenant request mixes.
//!
//! Unlike the closed-loop [`RequestStream`] (which issues the next request
//! only when the previous answer returns, so the client can never outrun
//! the server), an *open-loop* generator materialises a complete arrival
//! timeline up front: requests land at their simulated instants whether or
//! not the serving tier has kept up. That is the only way to express
//! overload — the regime the admission controller exists for.
//!
//! ## Determinism
//!
//! Every draw comes from a SplitMix64 stream keyed by `(seed, tenant)` and
//! advanced a fixed number of times per candidate arrival (one gap draw,
//! one thinning draw), never by scheduling: the same seed produces the
//! same byte-identical timeline on any machine at any wall-thread count.
//! Non-homogeneous processes (diurnal, flash crowd) are generated by
//! thinning a homogeneous process at the peak rate, which keeps the draw
//! count per candidate fixed regardless of the instantaneous rate.
//!
//! Per-tenant node/kind draws reuse the existing seeded
//! [`RequestStream`] machinery (`workload::Popularity` skews), with the
//! tenant index mixed into the stream seed so tenants are independent.

use omega_serve::{Request, RequestStream, WorkloadConfig};

/// SplitMix64: the workspace's standard keyed-stream mixer (the fault
/// plans use the same construction).
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic `u64`/`f64` draw stream keyed by `(seed, tenant)`.
#[derive(Debug, Clone)]
pub(crate) struct DrawStream {
    state: u64,
}

impl DrawStream {
    pub(crate) fn new(seed: u64, key: u64) -> DrawStream {
        DrawStream {
            state: splitmix64(seed ^ splitmix64(key.wrapping_mul(0xa076_1d64_78bd_642f))),
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Uniform in `[0, 1)` with 53 bits of mantissa.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The shape of a tenant's arrival intensity over simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at a constant rate.
    Poisson { rate_per_s: f64 },
    /// Sinusoidal day/night swing: intensity moves between `base_rate_per_s`
    /// (trough, at t = 0) and `peak_rate_per_s` (crest, at half period).
    Diurnal {
        base_rate_per_s: f64,
        peak_rate_per_s: f64,
        period_s: f64,
    },
    /// Steady `base_rate_per_s` with a rectangular spike at
    /// `spike_rate_per_s` during `[spike_start_s, spike_start_s + spike_len_s)`.
    FlashCrowd {
        base_rate_per_s: f64,
        spike_rate_per_s: f64,
        spike_start_s: f64,
        spike_len_s: f64,
    },
}

impl ArrivalProcess {
    /// Instantaneous intensity at simulated second `t`.
    pub fn rate_at(&self, t_s: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                period_s,
            } => {
                let phase = (t_s / period_s) * std::f64::consts::TAU;
                base_rate_per_s + (peak_rate_per_s - base_rate_per_s) * 0.5 * (1.0 - phase.cos())
            }
            ArrivalProcess::FlashCrowd {
                base_rate_per_s,
                spike_rate_per_s,
                spike_start_s,
                spike_len_s,
            } => {
                if t_s >= spike_start_s && t_s < spike_start_s + spike_len_s {
                    spike_rate_per_s
                } else {
                    base_rate_per_s
                }
            }
        }
    }

    /// Upper bound on the intensity — the homogeneous rate the thinning
    /// candidates are drawn at.
    pub fn max_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                ..
            } => peak_rate_per_s.max(base_rate_per_s),
            ArrivalProcess::FlashCrowd {
                base_rate_per_s,
                spike_rate_per_s,
                ..
            } => spike_rate_per_s.max(base_rate_per_s),
        }
    }

    /// Expected number of arrivals over `horizon_s` seconds (the integral
    /// of the intensity; exact for all three shapes).
    pub fn expected_arrivals(&self, horizon_s: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s * horizon_s,
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                period_s,
            } => {
                // Mean of the sinusoid is the midpoint; the residual of a
                // partial period integrates the cosine in closed form.
                let mid = 0.5 * (base_rate_per_s + peak_rate_per_s);
                let amp = 0.5 * (peak_rate_per_s - base_rate_per_s);
                let phase = (horizon_s / period_s) * std::f64::consts::TAU;
                mid * horizon_s - amp * period_s / std::f64::consts::TAU * phase.sin()
            }
            ArrivalProcess::FlashCrowd {
                base_rate_per_s,
                spike_rate_per_s,
                spike_start_s,
                spike_len_s,
            } => {
                let spike = (horizon_s.min(spike_start_s + spike_len_s) - spike_start_s).max(0.0);
                base_rate_per_s * (horizon_s - spike) + spike_rate_per_s * spike
            }
        }
    }

    /// The arrival instants (simulated ns) of this process over
    /// `[0, horizon_ns)`, drawn from the `(seed, tenant)` stream by
    /// thinning a homogeneous process at [`ArrivalProcess::max_rate`].
    pub fn arrivals(&self, seed: u64, tenant: u32, horizon_ns: u64) -> Vec<u64> {
        let rate_max = self.max_rate();
        assert!(rate_max > 0.0, "arrival process needs a positive rate");
        let mut draws = DrawStream::new(seed, tenant as u64);
        let mut out = Vec::new();
        let mut t_ns: u64 = 0;
        loop {
            // Exponential gap at the peak rate; at least 1 ns so the clock
            // always advances and the loop terminates.
            let u = draws.next_f64();
            let gap_s = -(1.0 - u).ln() / rate_max;
            let gap_ns = (gap_s * 1e9).round().max(1.0) as u64;
            t_ns = t_ns.saturating_add(gap_ns);
            if t_ns >= horizon_ns {
                return out;
            }
            // Thinning: accept with probability rate(t) / rate_max. The
            // draw is consumed even when acceptance is certain, so every
            // candidate costs exactly two draws.
            let v = draws.next_f64();
            if v * rate_max < self.rate_at(t_ns as f64 * 1e-9) {
                out.push(t_ns);
            }
        }
    }
}

/// Scheduling priority carried by every request. Lower discriminant =
/// more important; the dispatcher orders by `(priority, arrival)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    High = 0,
    Normal = 1,
    Low = 2,
}

/// One tenant of the request plane: an arrival process, a request mix,
/// a latency SLO, and an admission quota.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    pub name: String,
    pub process: ArrivalProcess,
    pub priority: Priority,
    /// Node-popularity / top-k mix of this tenant's requests (the
    /// closed-loop generator's config, reused per tenant with the tenant
    /// index mixed into its seed).
    pub workload: WorkloadConfig,
    /// Per-request latency SLO: the deadline is `arrival + deadline_ns`.
    pub deadline_ns: u64,
    /// Token-bucket refill rate (requests per simulated second).
    pub quota_qps: f64,
    /// Token-bucket capacity (burst allowance, requests).
    pub burst: f64,
}

impl TenantSpec {
    /// A tenant with sane defaults: Poisson arrivals at `rate_per_s`,
    /// normal priority, a 10 ms SLO, and a quota of twice its offered rate
    /// (so admission only bites when the tenant misbehaves).
    pub fn poisson(name: &str, rate_per_s: f64, workload: WorkloadConfig) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            process: ArrivalProcess::Poisson { rate_per_s },
            priority: Priority::Normal,
            workload,
            deadline_ns: 10_000_000,
            quota_qps: rate_per_s * 2.0,
            burst: (rate_per_s * 0.1).max(8.0),
        }
    }

    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = deadline_ns;
        self
    }

    pub fn with_quota(mut self, quota_qps: f64, burst: f64) -> Self {
        self.quota_qps = quota_qps;
        self.burst = burst;
        self
    }

    pub fn with_process(mut self, process: ArrivalProcess) -> Self {
        self.process = process;
        self
    }
}

/// One open-loop request: what a tenant asked for, when it landed, and
/// when the answer stops being useful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneRequest {
    /// Index into the tenant table.
    pub tenant: u32,
    /// Per-tenant request ordinal (0-based), dense within each tenant.
    pub index: u64,
    /// Simulated arrival instant, ns.
    pub arrival_ns: u64,
    /// Absolute simulated deadline, ns (`arrival + tenant SLO`).
    pub deadline_ns: u64,
    pub priority: Priority,
    pub request: Request,
}

/// Materialise the merged open-loop timeline of every tenant over
/// `[0, horizon_ns)`, sorted by `(arrival_ns, tenant, index)`.
///
/// The merge is an exact partition: filtering the result by tenant yields
/// precisely that tenant's own stream (same instants, same requests, same
/// order) — the property the proptests pin.
pub fn generate_timeline(seed: u64, tenants: &[TenantSpec], horizon_ns: u64) -> Vec<PlaneRequest> {
    let mut merged: Vec<PlaneRequest> = Vec::new();
    for (ti, tenant) in tenants.iter().enumerate() {
        let arrivals = tenant.process.arrivals(seed, ti as u32, horizon_ns);
        // The tenant's node/kind draws come from its own closed-loop
        // stream, re-seeded per tenant so streams are independent.
        let mut wl = tenant.workload;
        wl.seed = splitmix64(wl.seed ^ splitmix64(seed) ^ (ti as u64).wrapping_mul(0x9e37));
        let mut stream = RequestStream::new(wl);
        for (index, &arrival_ns) in arrivals.iter().enumerate() {
            merged.push(PlaneRequest {
                tenant: ti as u32,
                index: index as u64,
                arrival_ns,
                deadline_ns: arrival_ns.saturating_add(tenant.deadline_ns),
                priority: tenant.priority,
                request: stream.next_request(),
            });
        }
    }
    merged.sort_by_key(|r| (r.arrival_ns, r.tenant, r.index));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_serve::Popularity;

    fn wl(seed: u64) -> WorkloadConfig {
        WorkloadConfig::lookups(1000, Popularity::Zipf { s: 1.0 }, seed).with_topk(0.25, 8)
    }

    #[test]
    fn poisson_rate_matches() {
        let p = ArrivalProcess::Poisson { rate_per_s: 1000.0 };
        let arrivals = p.arrivals(7, 0, 10_000_000_000); // 10 s
        let expect = p.expected_arrivals(10.0);
        let n = arrivals.len() as f64;
        assert!(
            (n - expect).abs() < expect * 0.1,
            "got {n} arrivals, expected ≈{expect}"
        );
    }

    #[test]
    fn arrivals_sorted_and_in_horizon() {
        for p in [
            ArrivalProcess::Poisson { rate_per_s: 500.0 },
            ArrivalProcess::Diurnal {
                base_rate_per_s: 100.0,
                peak_rate_per_s: 900.0,
                period_s: 2.0,
            },
            ArrivalProcess::FlashCrowd {
                base_rate_per_s: 100.0,
                spike_rate_per_s: 2000.0,
                spike_start_s: 1.0,
                spike_len_s: 0.5,
            },
        ] {
            let arrivals = p.arrivals(3, 1, 3_000_000_000);
            assert!(arrivals.windows(2).all(|w| w[0] < w[1]), "{p:?} not sorted");
            assert!(arrivals.iter().all(|&t| t < 3_000_000_000));
            assert!(!arrivals.is_empty());
        }
    }

    #[test]
    fn diurnal_concentrates_at_peak() {
        let p = ArrivalProcess::Diurnal {
            base_rate_per_s: 50.0,
            peak_rate_per_s: 1000.0,
            period_s: 2.0,
        };
        // Trough is [0, 0.5)∪[1.5, 2.0); crest is [0.5, 1.5).
        let arrivals = p.arrivals(11, 0, 2_000_000_000);
        let crest = arrivals
            .iter()
            .filter(|&&t| (500_000_000..1_500_000_000).contains(&t))
            .count();
        assert!(
            crest * 3 > arrivals.len() * 2,
            "crest share {crest}/{}",
            arrivals.len()
        );
    }

    #[test]
    fn flash_crowd_spikes() {
        let p = ArrivalProcess::FlashCrowd {
            base_rate_per_s: 100.0,
            spike_rate_per_s: 5000.0,
            spike_start_s: 1.0,
            spike_len_s: 0.25,
        };
        let arrivals = p.arrivals(13, 2, 2_000_000_000);
        let in_spike = arrivals
            .iter()
            .filter(|&&t| (1_000_000_000..1_250_000_000).contains(&t))
            .count();
        // The spike window is 1/8 of the horizon but carries ~86% of mass.
        assert!(
            in_spike * 2 > arrivals.len(),
            "spike share {in_spike}/{}",
            arrivals.len()
        );
    }

    #[test]
    fn timeline_is_sorted_and_partitioned() {
        let tenants = vec![
            TenantSpec::poisson("a", 800.0, wl(1)),
            TenantSpec::poisson("b", 300.0, wl(2)).with_priority(Priority::High),
        ];
        let merged = generate_timeline(42, &tenants, 1_000_000_000);
        assert!(merged
            .windows(2)
            .all(|w| (w[0].arrival_ns, w[0].tenant) <= (w[1].arrival_ns, w[1].tenant)));
        // Per-tenant indices are dense and in order.
        for ti in 0..tenants.len() as u32 {
            let own: Vec<u64> = merged
                .iter()
                .filter(|r| r.tenant == ti)
                .map(|r| r.index)
                .collect();
            assert!(own.iter().enumerate().all(|(i, &idx)| idx == i as u64));
        }
        // Priorities follow the tenant spec.
        assert!(merged
            .iter()
            .all(|r| r.priority == tenants[r.tenant as usize].priority));
    }

    #[test]
    fn same_seed_same_timeline() {
        let tenants = vec![
            TenantSpec::poisson("a", 500.0, wl(1)),
            TenantSpec::poisson("b", 500.0, wl(2)),
        ];
        let a = generate_timeline(9, &tenants, 500_000_000);
        let b = generate_timeline(9, &tenants, 500_000_000);
        assert_eq!(a, b);
        let c = generate_timeline(10, &tenants, 500_000_000);
        assert_ne!(a, c);
    }
}
