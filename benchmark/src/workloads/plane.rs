//! The two request-plane workloads: one replicated tier, offered what it
//! serves in full and then some thirty times that.
//!
//! The loop is open and runs on the **simulated** clock: arrivals are
//! simulated timestamps drawn before the run, so the generator is never
//! late by construction, and a request's latency counts from the instant
//! it was due.

use super::{Check, Instance, LayerCtx, Ledger, Mem, Params, Quality, Sample};
use crate::layers::median_ns;
use crate::span::Tracer;
use omega_embed::Embedding;
use omega_hetmem::{DeviceKind, MemSystem, Placement, SimDuration, Topology};
use omega_linalg::gaussian_matrix;
use omega_obs::{LatencyHistogram, Recorder};
use omega_plane::{
    generate_timeline, Admission, PlaneConfig, PlaneStats, Priority, RequestPlane, Ring, TenantSpec,
};
use omega_serve::{Popularity, ServeConfig, WorkloadConfig};
use std::hint::black_box;
use std::time::Instant;

const REPLICAS: usize = 4;
const DIM: usize = 32;
const ROWS_PER_SHARD: usize = 64;
const CACHE_SHARDS: u64 = 16;
const INTERACTIVE_DEADLINE_NS: u64 = 2_000_000;
const BATCH_DEADLINE_NS: u64 = 8_000_000;
/// Rates of the capacity ladder, requests per simulated second.
const LADDER_QPS: [f64; 6] = [20_000.0, 30_000.0, 40_000.0, 60_000.0, 80_000.0, 120_000.0];
const LADDER_HORIZON_S: f64 = 0.25;
/// Share of offered requests that must be answered in full and on time
/// for a rate to count as served.
const OK_FLOOR: f64 = 0.99;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Capacity,
    Overload,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    rate_qps: f64,
    horizon_s: f64,
}

impl Spec {
    /// The traced pass and `--quick` each run a tenth of the horizon: the
    /// Recorder's cost per span grows with the spans it already holds, and
    /// one run is one unit, so the unit itself has to shrink.
    pub fn of(kind: Kind, params: &Params) -> Spec {
        let (rate_qps, horizon_s) = match kind {
            Kind::Capacity => (30_000.0, 2.0),
            Kind::Overload => (1_000_000.0, 0.25),
        };
        let tenths = u8::from(params.short) + u8::from(params.quick);
        Spec {
            kind,
            rate_qps,
            horizon_s: horizon_s / 10f64.powi(i32::from(tenths)),
        }
    }
}

fn nodes(quick: bool) -> u32 {
    if quick {
        5_000
    } else {
        20_000
    }
}

/// Sums of the runs since `ledger_begin`.
struct Tally {
    stats: PlaneStats,
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    end_ns: u64,
    mem_at_begin: Mem,
}

pub struct Plane {
    spec: Spec,
    seed: u64,
    /// Built for the traced pass or `--quick`: a tenth of the horizon.
    shortened: bool,
    plane: RequestPlane,
    tenants: Vec<TenantSpec>,
    horizon_ns: u64,
    tally: Option<Tally>,
    runs: u64,
    /// Runs whose accounting identities held.
    sound_runs: u64,
    /// `ok / ops` of the last closed window.
    window_ok_share: f64,
}

fn add(total: &mut PlaneStats, s: &PlaneStats) {
    total.offered += s.offered;
    total.admitted += s.admitted;
    total.rejected_quota += s.rejected_quota;
    total.rejected_queue += s.rejected_queue;
    total.completed += s.completed;
    total.degraded += s.degraded;
    total.degraded_reduced_k += s.degraded_reduced_k;
    total.degraded_to_get += s.degraded_to_get;
    total.dropped += s.dropped;
    total.hedged_routes += s.hedged_routes;
    total.rerouted_outage += s.rerouted_outage;
    total.slo_miss += s.slo_miss;
}

impl Plane {
    pub fn build(
        spec: Spec,
        params: &Params,
        threads: usize,
        rec: &Recorder,
        tr: &mut Tracer,
    ) -> Plane {
        let n = nodes(params.quick);
        let emb = tr.span("linalg.gaussian_matrix", || {
            Embedding::from_matrix(&gaussian_matrix(n as usize, DIM, params.seed))
        });
        let horizon = SimDuration::from_secs_f64(spec.horizon_s);
        let shard_bytes = (ROWS_PER_SHARD * DIM * 4) as u64;
        let plane = tr.span("plane.RequestPlane::new", || {
            let systems: Vec<MemSystem> = (0..REPLICAS)
                .map(|_| MemSystem::new(Topology::paper_machine_scaled(1 << 20)))
                .collect();
            let serve_cfg = ServeConfig::new(CACHE_SHARDS * shard_bytes)
                .rows_per_shard(ROWS_PER_SHARD)
                .cold(Placement::node(0, DeviceKind::Pm))
                .threads(threads);
            let plane_cfg = PlaneConfig::new(REPLICAS)
                .seed(params.seed)
                .horizon(horizon);
            RequestPlane::new(&systems, &emb, serve_cfg, plane_cfg)
                .expect("the cold tier holds the table")
                .with_recorder(rec)
        });
        let mix = WorkloadConfig::lookups(n, Popularity::Zipf { s: 1.0 }, params.seed)
            .with_topk(0.02, 10);
        let tenants = vec![
            TenantSpec::poisson("interactive", spec.rate_qps * 0.6, mix)
                .with_priority(Priority::High)
                .with_deadline_ns(INTERACTIVE_DEADLINE_NS),
            TenantSpec::poisson("batch", spec.rate_qps * 0.4, mix)
                .with_priority(Priority::Low)
                .with_deadline_ns(BATCH_DEADLINE_NS),
        ];
        Plane {
            spec,
            seed: params.seed,
            shortened: params.short || params.quick,
            plane,
            tenants,
            horizon_ns: horizon.as_nanos(),
            tally: None,
            runs: 0,
            sound_runs: 0,
            window_ok_share: 0.0,
        }
    }

    fn mem_now(&self) -> Mem {
        self.plane
            .servers()
            .iter()
            .fold(Mem::default(), |m, s| m.plus(Mem::of(&s.traffic())))
    }

    /// Highest ladder rate at which at least `OK_FLOOR` of the offered
    /// requests are answered in full and on time; each rung is a fresh
    /// tier, one warm-up run, one measured run.
    fn max_ok_rate(&self, ctx: &mut LayerCtx<'_>) -> f64 {
        let mut best = 0.0;
        for rate_qps in LADDER_QPS {
            let rung = Spec {
                kind: self.spec.kind,
                rate_qps,
                horizon_s: if ctx.params.quick {
                    LADDER_HORIZON_S / 10.0
                } else {
                    LADDER_HORIZON_S
                },
            };
            let mut tier = Plane::build(
                rung,
                ctx.params,
                ctx.params.threads,
                &Recorder::disabled(),
                ctx.tracer,
            );
            let mut off = Tracer::new(false);
            tier.unit(&mut off);
            tier.ledger_begin();
            tier.unit(&mut off);
            let l = tier.ledger_end();
            let ok_share = l.ok as f64 / l.ops.max(1) as f64;
            println!("# ladder: {rate_qps} qps ok_share {ok_share:.4}");
            if ok_share >= OK_FLOOR {
                best = rate_qps;
            }
        }
        best
    }
}

impl Instance for Plane {
    fn warm_units(&self) -> usize {
        1
    }

    fn window_units(&self) -> usize {
        2
    }

    fn unit(&mut self, tr: &mut Tracer) -> Sample {
        let open = tr.begin("plane.RequestPlane::run");
        let start = Instant::now();
        let report = self.plane.run(&self.tenants);
        let wall_ns = start.elapsed().as_nanos() as u64;
        tr.end(open);

        let mut by_tenant = PlaneStats::default();
        for t in &report.per_tenant {
            add(&mut by_tenant, t);
        }
        let sound = report.stats.identity_holds() && by_tenant == report.stats;
        self.runs += 1;
        self.sound_runs += u64::from(sound);
        if let Some(tally) = &mut self.tally {
            add(&mut tally.stats, &report.stats);
            tally.latency.merge(&report.latency);
            tally.queue_wait.merge(&report.queue_wait);
            tally.end_ns += report.end_ns;
        }
        Sample {
            ops: report.stats.offered,
            wall_ns,
            failed: if sound { 0 } else { report.stats.offered },
        }
    }

    fn ledger_begin(&mut self) {
        self.tally = Some(Tally {
            stats: PlaneStats::default(),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            end_ns: 0,
            mem_at_begin: self.mem_now(),
        });
    }

    fn ledger_end(&mut self) -> Ledger {
        let tally = self.tally.take().expect("ledger_begin came first");
        let s = tally.stats;
        let ok = s.completed.saturating_sub(s.slo_miss);
        self.window_ok_share = ok as f64 / s.offered.max(1) as f64;
        Ledger {
            ops: s.offered,
            ok,
            sim_total_ns: tally.end_ns,
            lat_mean_ns: tally.latency.mean(),
            lat_p99_ns: tally.latency.percentile(0.99),
            mem: self.mem_now().since(tally.mem_at_begin),
            counts: vec![
                ("plane.offered", s.offered as f64),
                ("plane.admitted", s.admitted as f64),
                ("plane.rejected_quota", s.rejected_quota as f64),
                ("plane.rejected_queue", s.rejected_queue as f64),
                ("plane.completed", s.completed as f64),
                ("plane.degraded", s.degraded as f64),
                ("plane.dropped", s.dropped as f64),
                ("plane.slo_miss", s.slo_miss as f64),
                ("plane.hedged_routes", s.hedged_routes as f64),
                (
                    "plane.drop_share",
                    s.dropped as f64 / s.admitted.max(1) as f64,
                ),
                (
                    "plane.queue_wait_p99_us",
                    tally.queue_wait.percentile(0.99) as f64 * 1e-3,
                ),
            ],
        }
    }

    fn check(&mut self, _tr: &mut Tracer) -> Quality {
        let sound = self.sound_runs == self.runs;
        let mut checks = vec![Check::new(
            "PlaneStats::identity_holds and tenants sum to the total on every run",
            sound,
            format!("{} of {} runs sound", self.sound_runs, self.runs),
        )];
        // A tenth of the horizon is mostly cold-start ramp: no floor on it.
        if self.spec.kind == Kind::Capacity && !self.shortened {
            checks.push(Check::new(
                "the capacity rate is served in full and on time",
                self.window_ok_share >= OK_FLOOR,
                format!(
                    "ok_share {:.4} at {} qps, floor {OK_FLOOR}",
                    self.window_ok_share, self.spec.rate_qps
                ),
            ));
        }
        Quality {
            value: self.sound_runs as f64 / self.runs.max(1) as f64,
            attempted: self.runs,
            failed: self.runs - self.sound_runs,
            checks,
        }
    }

    fn layers(&mut self, ctx: &mut LayerCtx<'_>) {
        let timeline = generate_timeline(self.seed, &self.tenants, self.horizon_ns);
        let requests = timeline.len().max(1) as f64;
        let timeline_ns = median_ns(3, || {
            black_box(generate_timeline(self.seed, &self.tenants, self.horizon_ns));
        });
        ctx.set("plane.timeline_ns_per_req", timeline_ns / requests);

        let quotas: Vec<(f64, f64)> = self
            .tenants
            .iter()
            .map(|t| (t.quota_qps, t.burst))
            .collect();
        let max_queue = self.plane.config().max_queue;
        let admit_ns = median_ns(3, || {
            let mut admission = Admission::new(&quotas, max_queue);
            for r in &timeline {
                black_box(admission.admit(r.tenant as usize, r.priority, r.arrival_ns, 0));
            }
        });
        ctx.set("plane.admit_ns_per_call", admit_ns / requests);

        let cfg = self.plane.config();
        let ring = Ring::new(cfg.replicas as u32, cfg.vnodes, cfg.seed);
        let route_ns = median_ns(3, || {
            for r in &timeline {
                let shard = u64::from(r.request.node) / ROWS_PER_SHARD as u64;
                black_box(ring.primary(shard));
            }
        });
        ctx.set("plane.route_ns_per_call", route_ns / requests);

        let wall_ns: u64 = ctx.base.samples.iter().map(|s| s.wall_ns).sum();
        let count = |name: &str| {
            ctx.base
                .ledger
                .counts
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(1.0, |&(_, v)| v.max(1.0))
        };
        let (offered, admitted) = (count("plane.offered"), count("plane.admitted"));
        ctx.set("plane.run_ns_per_offered", wall_ns as f64 / offered);
        ctx.set("plane.run_ns_per_admitted", wall_ns as f64 / admitted);

        if self.spec.kind == Kind::Capacity {
            let best = self.max_ok_rate(ctx);
            ctx.set("plane.max_ok_rate_qps", best);
        }
    }
}
