//! `omega-cli plane`: the open-loop request plane. A two-tenant mix
//! (high-priority `interactive` at 60 % of `--rate`, low-priority `batch` at
//! 40 %) goes through admission control onto `--replicas`
//! consistent-hash-routed servers. Deterministic in `--seed`: same seed,
//! same metrics JSONL bytes at any `--threads` value.

use crate::opts::{require_finite, Opts, Outputs};
use crate::serving::ServingOpts;
use omega::hetmem::{MemSystem, SimDuration, Topology};
use omega::plane::{ArrivalProcess, PlaneConfig, Priority, RequestPlane, TenantSpec};
use omega::serve::WorkloadConfig;

pub(crate) fn run(mut opts: Opts) -> Result<(), String> {
    let replicas: usize = opts.positive("replicas", 2)?;
    let rate = require_finite(opts.positive("rate", 50_000.0)?, "rate")?;
    let horizon_ms: u64 = opts.positive("horizon-ms", 50)?;
    let max_queue: usize = opts.positive("max-queue", 256)?;
    let deadline_us: u64 = opts.positive("deadline-us", 2_000)?;
    let hedge_wait_us: u64 = opts.positive("hedge-wait-us", 2_000)?;
    let horizon_s = horizon_ms as f64 * 1e-3;
    // The low-priority tenant's arrival shape; `interactive` stays Poisson.
    let batch_process = match opts.get_or("arrival", "poisson".to_string())?.as_str() {
        "poisson" => ArrivalProcess::Poisson {
            rate_per_s: rate * 0.4,
        },
        "diurnal" => ArrivalProcess::Diurnal {
            base_rate_per_s: rate * 0.1,
            peak_rate_per_s: rate * 0.7,
            period_s: horizon_s,
        },
        "flash" => ArrivalProcess::FlashCrowd {
            base_rate_per_s: rate * 0.2,
            spike_rate_per_s: rate * 4.0,
            spike_start_s: horizon_s * 0.4,
            spike_len_s: horizon_s * 0.2,
        },
        other => {
            return Err(format!(
                "unknown --arrival {other:?} (poisson|diurnal|flash)"
            ))
        }
    };
    let outputs = Outputs::parse(&mut opts)?;
    let so = ServingOpts::parse(opts, 32, 0.2)?;

    let emb = so.synthetic_table();
    eprintln!(
        "plane: {replicas} replica(s), {} nodes x {} dims, {rate:.0} req/s offered over {horizon_ms} ms",
        emb.nodes(),
        emb.dim()
    );

    // A fault plan installs its memory-path rules on every replica's system;
    // its `outage` rules become the windows the router steers around.
    let outages = so
        .fault_plan
        .as_ref()
        .map(|(_, spec)| spec.outages())
        .unwrap_or_default();
    if let Some(&(replica, ..)) = outages.iter().find(|o| o.0 as usize >= replicas) {
        return Err(format!(
            "fault plan: outage on replica {replica}, but --replicas is {replicas}"
        ));
    }
    let systems: Vec<MemSystem> = (0..replicas)
        .map(|_| {
            so.with_faults(MemSystem::new(Topology::paper_machine_scaled(
                so.dram_bytes(&emb, 1),
            )))
        })
        .collect();

    let serve_cfg = so.serve_config(&emb);
    let plane_cfg = PlaneConfig::new(replicas)
        .seed(so.seed)
        .horizon(SimDuration::from_secs_f64(horizon_s))
        .batch_size(so.batch)
        .max_queue(max_queue)
        .hedge_wait_ns(hedge_wait_us * 1_000);

    let wl = WorkloadConfig::lookups(emb.nodes(), so.popularity, so.seed)
        .with_topk(so.topk_fraction, so.k);
    let tenants = vec![
        TenantSpec::poisson("interactive", rate * 0.6, wl)
            .with_priority(Priority::High)
            .with_deadline_ns(deadline_us * 1_000),
        TenantSpec::poisson("batch", rate * 0.4, wl)
            .with_priority(Priority::Low)
            .with_deadline_ns(deadline_us * 4_000)
            .with_process(batch_process),
    ];

    let rec = outputs.recorder();
    let mut plane = RequestPlane::new(&systems, &emb, serve_cfg, plane_cfg)
        .map_err(|e| format!("placing shards on {:?}: {e}", so.cold_device))?
        .with_recorder(&rec)
        .with_outages(&outages);
    let report = plane.run(&tenants);

    let s = &report.stats;
    println!("offered           {}", s.offered);
    println!(
        "admission         {} admitted, {} quota-rejected, {} queue-rejected",
        s.admitted, s.rejected_quota, s.rejected_queue
    );
    println!(
        "terminal          {} completed + {} degraded + {} dropped = {} admitted",
        s.completed, s.degraded, s.dropped, s.admitted
    );
    println!(
        "degrades          {} halved-k, {} topk->get",
        s.degraded_reduced_k, s.degraded_to_get
    );
    println!(
        "routing           {} hedged to ring successor, {} rerouted around outages",
        s.hedged_routes, s.rerouted_outage
    );
    println!("slo               {} served past deadline", s.slo_miss);
    println!(
        "throughput        {:.0} served/s, {:.0} goodput/s (simulated)",
        report.served_qps(),
        report.goodput_qps()
    );
    println!(
        "latency (sim ns)  p50 {}  p95 {}  p99 {}",
        report.latency.percentile(0.50),
        report.latency.percentile(0.95),
        report.latency.percentile(0.99)
    );
    println!(
        "queue wait (ns)   p50 {}  p99 {}",
        report.queue_wait.percentile(0.50),
        report.queue_wait.percentile(0.99)
    );
    if !s.identity_holds() {
        return Err("plane accounting identity violated (PlaneStats::identity_holds)".into());
    }
    outputs.write(&rec, &omega::par::PoolProfiler::disabled())
}
