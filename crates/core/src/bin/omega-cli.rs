//! `omega-cli` — command-line front end for the OMeGa system.
//!
//! ```text
//! omega-cli embed   --input graph.txt --output emb.txt [--dim 64]
//!                   [--threads 30] [--wall-threads 1] [--mode hetero|dram|pm]
//!                   [--no-wofp] [--no-nadp] [--no-asl]
//!                   [--trace-out trace.json] [--metrics-out metrics.jsonl]
//!                   [--profile-out stacks.collapsed]
//! omega-cli generate --nodes 10000 --edges 200000 --seed 7 --output g.txt
//! omega-cli stats   --input graph.txt
//! omega-cli serve   --requests 10000 --zipf 1.0 [--input emb.txt]
//!                   [--nodes 10000 --dim 64] [--seed 42] [--threads 1]
//!                   [--rows-per-shard 64] [--cache-shards 16] [--batch 64]
//!                   [--cold pm|ssd] [--topk-fraction 0.0] [--k 10]
//!                   [--ivf-nlist L] [--ivf-nprobe P]
//!                   [--no-admission] [--fault-plan plan.txt]
//!                   [--trace-out trace.json] [--metrics-out metrics.jsonl]
//!                   [--profile-out stacks.collapsed]
//! omega-cli profile --input trace.json [--top 20]
//! omega-cli plane   --replicas 4 --rate 200000 [--horizon-ms 50]
//!                   [--zipf 1.0 | --uniform] [--nodes 10000 --dim 64]
//!                   [--seed 42] [--threads 1] [--batch 32] [--max-queue 256]
//!                   [--deadline-us 2000] [--hedge-wait-us 2000]
//!                   [--arrival poisson|diurnal|flash] [--topk-fraction 0.2]
//!                   [--k 10] [--rows-per-shard 64] [--cache-shards 16]
//!                   [--cold pm|ssd] [--fault-plan plan.txt]
//!                   [--trace-out trace.json] [--metrics-out metrics.jsonl]
//! ```
//!
//! `--trace-out` writes a Chrome-trace-event JSON of the run's simulated
//! timeline (load it in Perfetto / `chrome://tracing`); `--metrics-out`
//! writes one JSON metric per line. `--profile-out` additionally turns on
//! worker-pool wall-clock profiling for the run and writes
//! flamegraph-compatible collapsed stacks (`path;leaf self_wall_us` per
//! line — pipe into `flamegraph.pl` or inferno); the pool's per-worker
//! timelines ride along on their own pid in `--trace-out` when both are
//! given. Profiling is wall-clock-only: simulated time and metrics output
//! are byte-identical with it on or off. `profile` re-reads a saved
//! `--trace-out` file and prints the span profile as a table sorted by
//! self wall time.
//!
//! Arguments are parsed by hand (the workspace stays dependency-light).

use omega::obs::Recorder;
use omega::{Omega, OmegaConfig, SystemVariant};
use omega_graph::GraphStats;
use omega_graph::{Csr, EdgeList, GraphBuilder, RmatConfig};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  omega-cli embed    --input <edge-list> --output <file> [--dim N]
                     [--threads N] [--wall-threads W] [--mode hetero|dram|pm]
                     [--no-wofp] [--no-nadp] [--no-asl]
                     [--trace-out <file>] [--metrics-out <file>]
                     [--profile-out <file>]
  omega-cli generate --nodes N --edges M [--seed S] --output <file>
  omega-cli stats    --input <edge-list>
  omega-cli serve    --requests N [--zipf S | --uniform] [--input <emb>]
                     [--nodes N --dim D] [--seed S] [--threads T]
                     [--rows-per-shard R]
                     [--cache-shards C] [--batch B] [--cold pm|ssd]
                     [--topk-fraction F] [--k K] [--no-admission]
                     [--ivf-nlist L] [--ivf-nprobe P] (0 = auto)
                     [--fault-plan <file>]
                     [--trace-out <file>] [--metrics-out <file>]
                     [--profile-out <file>]
  omega-cli profile  --input <trace.json> [--top N]
  omega-cli plane    --replicas N --rate QPS [--horizon-ms M]
                     [--zipf S | --uniform] [--nodes N --dim D] [--seed S]
                     [--threads T] [--batch B] [--max-queue Q]
                     [--deadline-us D] [--hedge-wait-us H]
                     [--arrival poisson|diurnal|flash] [--topk-fraction F]
                     [--k K] [--rows-per-shard R] [--cache-shards C]
                     [--cold pm|ssd] [--fault-plan <file>]
                     [--trace-out <file>] [--metrics-out <file>]";

/// Parsed `--key value` / `--flag` arguments.
struct Opts {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {:?}", args[i]))?;
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                values.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Opts { values, flags })
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "embed" => embed(&opts),
        "generate" => generate(&opts),
        "stats" => stats(&opts),
        "serve" => serve(&opts),
        "plane" => plane(&opts),
        "profile" => profile(&opts),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// The `--trace-out` / `--metrics-out` / `--profile-out` files a run
/// writes. `plane` takes no `--profile-out`.
struct Outputs {
    trace: Option<String>,
    metrics: Option<String>,
    profile: Option<String>,
}

impl Outputs {
    fn parse(opts: &Opts, with_profile: bool) -> Outputs {
        let path = |key: &str| opts.values.get(key).cloned();
        Outputs {
            trace: path("trace-out"),
            metrics: path("metrics-out"),
            profile: path("profile-out").filter(|_| with_profile),
        }
    }

    /// A live recorder when any output is asked for, else a disabled one.
    fn recorder(&self) -> Recorder {
        if self.trace.is_some() || self.metrics.is_some() || self.profile.is_some() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    fn profiler(&self) -> omega::par::PoolProfiler {
        if self.profile.is_some() {
            omega::par::PoolProfiler::enabled()
        } else {
            omega::par::PoolProfiler::disabled()
        }
    }

    /// Write every requested file. The profile goes first: it bridges the
    /// pool profiler's per-worker timelines onto the recorder (their own pid
    /// keeps them apart from the simulated tracks), so the trace shows them.
    fn write(self, rec: &Recorder, prof: &omega::par::PoolProfiler) -> Result<(), String> {
        let write = |path: &str, text: String| {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
        };
        if let Some(path) = self.profile {
            omega::obs::record_pool_timeline(rec, prof, 1);
            write(&path, rec.collapsed_stacks())?;
            eprintln!("wrote collapsed stacks {path} (flamegraph.pl / inferno compatible)");
        }
        if let Some(path) = self.trace {
            write(&path, rec.chrome_trace_json())?;
            eprintln!("wrote trace {path} (load in Perfetto / chrome://tracing)");
        }
        if let Some(path) = self.metrics {
            write(&path, rec.metrics_jsonl())?;
            eprintln!("wrote metrics {path}");
        }
        Ok(())
    }
}

fn load_graph(path: &str) -> Result<Csr, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let list = EdgeList::parse(&text).map_err(|e| e.to_string())?;
    GraphBuilder::from_edge_list(&list)
        .build_csr()
        .map_err(|e| e.to_string())
}

fn embed(opts: &Opts) -> Result<(), String> {
    let input = opts.require("input")?;
    let output = opts.require("output")?.to_string();
    let dim: usize = opts.get_or("dim", 64)?;
    let threads: usize = opts.get_or("threads", 30)?;
    // Wall-clock workers for the training kernels. Unlike --threads (the
    // simulated thread count, which feeds the cost model), this knob only
    // changes real elapsed time: outputs are bit-identical at every value.
    let wall_threads: usize = opts.get_or("wall-threads", 1)?;
    let mode = opts
        .values
        .get("mode")
        .map(String::as_str)
        .unwrap_or("hetero");

    // Each `--no-*` flag names one ablation of the hetero system: at most
    // one of them, and no other mode beside it.
    let ablations: Vec<&str> = ["no-wofp", "no-nadp", "no-asl"]
        .into_iter()
        .filter(|&flag| opts.flag(flag))
        .collect();
    if ablations.len() > 1 {
        return Err(format!(
            "--{} are mutually exclusive",
            ablations.join(" and --")
        ));
    }
    let variant = match (ablations.first().copied(), mode) {
        (Some("no-wofp"), "hetero") => SystemVariant::OmegaWithoutWofp,
        (Some("no-nadp"), "hetero") => SystemVariant::OmegaWithoutNadp,
        (Some(_), "hetero") => SystemVariant::OmegaWithoutAsl,
        (Some(flag), other) => {
            return Err(format!(
                "--{flag} ablates --mode hetero and cannot run with --mode {other}"
            ))
        }
        (None, "hetero") => SystemVariant::Omega,
        (None, "dram") => SystemVariant::OmegaDram,
        (None, "pm") => SystemVariant::OmegaPm,
        (None, other) => return Err(format!("unknown --mode {other:?}")),
    };

    let outputs = Outputs::parse(opts, true);

    let graph = load_graph(input)?;
    eprintln!(
        "loaded {input}: |V|={} |E|={}",
        graph.rows(),
        graph.nnz() / 2
    );
    let cfg = OmegaConfig::default()
        .with_dim(dim)
        .with_threads(threads)
        .with_wall_threads(wall_threads)
        .with_variant(variant);
    let rec = outputs.recorder();
    let prof = outputs.profiler();
    let omega = Omega::new(cfg)
        .map_err(|e| e.to_string())?
        .with_recorder(rec.clone());
    let run = {
        let _guard = omega::par::install(&prof);
        omega.embed(&graph).map_err(|e| {
            if e.is_oom() {
                format!("simulated machine out of memory in {mode} mode: {e}")
            } else {
                e.to_string()
            }
        })?
    };
    eprintln!("{}", run.summary());
    std::fs::write(&output, run.embedding.to_text())
        .map_err(|e| format!("writing {output}: {e}"))?;
    eprintln!("wrote {output}");
    outputs.write(&rec, &prof)
}

/// Reject a value that must be strictly positive, with the flag named in
/// the error so the user knows what to fix. A NaN is not positive: it
/// compares neither above nor below zero.
fn require_positive<T: PartialOrd + Default + std::fmt::Display>(
    value: T,
    flag: &str,
) -> Result<T, String> {
    if value.partial_cmp(&T::default()) == Some(std::cmp::Ordering::Greater) {
        Ok(value)
    } else {
        Err(format!("--{flag} must be positive (got {value})"))
    }
}

/// Reject an infinite or NaN float flag.
fn require_finite(value: f64, flag: &str) -> Result<f64, String> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(format!("--{flag} must be finite (got {value})"))
    }
}

/// The flags `serve` and `plane` share, parsed and checked once. Only the
/// `--batch` and `--topk-fraction` defaults differ between the two.
struct ServingOpts {
    seed: u64,
    rows_per_shard: usize,
    cache_shards: u64,
    batch: usize,
    /// Worker-pool width for per-shard batch work: a wall-clock knob only —
    /// simulated latencies and metrics are identical at every value.
    threads: usize,
    topk_fraction: f64,
    k: usize,
    popularity: omega::serve::Popularity,
    cold_device: omega::hetmem::DeviceKind,
    /// `--fault-plan`: the file and the plan it holds.
    fault_plan: Option<(String, omega::faults::FaultPlanSpec)>,
}

impl ServingOpts {
    fn parse(opts: &Opts, batch: usize, topk_fraction: f64) -> Result<ServingOpts, String> {
        use omega::hetmem::DeviceKind;
        use omega::serve::Popularity;
        let seed = opts.get_or("seed", 42)?;
        let rows_per_shard =
            require_positive(opts.get_or("rows-per-shard", 64)?, "rows-per-shard")?;
        let cache_shards = require_positive(opts.get_or("cache-shards", 16)?, "cache-shards")?;
        let batch = require_positive(opts.get_or("batch", batch)?, "batch")?;
        let threads = require_positive(opts.get_or("threads", 1)?, "threads")?;
        let topk_fraction: f64 = opts.get_or("topk-fraction", topk_fraction)?;
        if !(0.0..=1.0).contains(&topk_fraction) {
            return Err(format!(
                "--topk-fraction must be in [0, 1] (got {topk_fraction})"
            ));
        }
        let k = require_positive(opts.get_or("k", 10)?, "k")?;
        // `--zipf S` and `--uniform` are mutually exclusive, and naming both
        // is an error rather than a silent preference.
        if opts.flag("uniform") && opts.values.contains_key("zipf") {
            return Err("--zipf and --uniform are mutually exclusive".into());
        }
        let popularity = if opts.flag("uniform") {
            Popularity::Uniform
        } else {
            let s = require_finite(opts.get_or("zipf", 1.0)?, "zipf")?;
            if s < 0.0 {
                return Err(format!("--zipf must be at least 0 (got {s})"));
            }
            Popularity::Zipf { s }
        };
        let cold_device = match opts.values.get("cold").map(String::as_str).unwrap_or("pm") {
            "pm" => DeviceKind::Pm,
            "ssd" => DeviceKind::Ssd,
            other => return Err(format!("unknown --cold {other:?} (pm|ssd)")),
        };
        let fault_plan = match opts.values.get("fault-plan") {
            Some(path) => {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let spec = omega::faults::FaultPlanSpec::parse(&text)
                    .map_err(|e| format!("{path}: {e}"))?;
                Some((path.clone(), spec))
            }
            None => None,
        };
        Ok(ServingOpts {
            seed,
            rows_per_shard,
            cache_shards,
            batch,
            threads,
            topk_fraction,
            k,
            popularity,
            cold_device,
            fault_plan,
        })
    }

    /// A deterministic synthetic table of `--nodes` x `--dim` for load
    /// testing without a training run.
    fn synthetic_table(&self, opts: &Opts) -> Result<omega::Embedding, String> {
        let nodes = require_positive(opts.get_or("nodes", 10_000)?, "nodes")?;
        let dim = require_positive(opts.get_or("dim", 64)?, "dim")?;
        Ok(omega::Embedding::from_matrix(
            &omega::linalg::gaussian_matrix(nodes, dim, self.seed),
        ))
    }

    /// The serving configuration both commands start from: a cache budget
    /// of `--cache-shards` shards of `emb`.
    fn serve_config(&self, emb: &omega::Embedding) -> omega::serve::ServeConfig {
        omega::serve::ServeConfig::new(self.cache_shards * self.shard_bytes(emb))
            .rows_per_shard(self.rows_per_shard)
            .cold(omega::hetmem::Placement::node(0, self.cold_device))
            .batch_size(self.batch)
            .threads(self.threads)
    }

    fn shard_bytes(&self, emb: &omega::Embedding) -> u64 {
        self.rows_per_shard as u64 * emb.dim() as u64 * 4
    }

    /// DRAM per node such that the cold tier always holds the table (PM is
    /// 8x DRAM per node, SSD 40x) while the cache budget stays
    /// `--cache-shards` shards: the larger of twice that budget and an
    /// eighth of the table.
    fn dram_bytes(&self, emb: &omega::Embedding) -> u64 {
        let table_bytes = emb.nodes() as u64 * emb.dim() as u64 * 4;
        (2 * self.cache_shards * self.shard_bytes(emb))
            .max(table_bytes.div_ceil(8))
            .max(1 << 16)
    }

    /// `sys`, or a copy of it with the fault plan's memory-path rules
    /// installed.
    fn with_faults(&self, sys: omega::hetmem::MemSystem) -> omega::hetmem::MemSystem {
        match &self.fault_plan {
            Some((_, spec)) => omega::faults::install_plan(&sys, spec.clone()),
            None => sys,
        }
    }
}

/// Serve point-lookup / top-k traffic against an embedding on the simulated
/// tiered machine and report dual-clock latency percentiles. The whole run
/// is deterministic in `--seed`: same seed, same metrics JSONL bytes.
fn serve(opts: &Opts) -> Result<(), String> {
    use omega::hetmem::{MemSystem, Topology};
    use omega::serve::{EmbedServer, RequestStream, WorkloadConfig};

    let requests: usize = require_positive(opts.get_or("requests", 10_000)?, "requests")?;
    let so = ServingOpts::parse(opts, 64, 0.0)?;
    // IVF approximate top-k: giving either knob switches the server from the
    // exact brute-force scan to the cluster-then-probe index; `0` leaves that
    // knob on its auto default (`nlist = ceil(sqrt(nodes))`, `nprobe` at the
    // measured >=95%-recall@10 setting).
    let ivf = match (opts.values.get("ivf-nlist"), opts.values.get("ivf-nprobe")) {
        (None, None) => None,
        _ => Some((
            opts.get_or("ivf-nlist", 0usize)?,
            opts.get_or("ivf-nprobe", 0usize)?,
        )),
    };

    // Embedding: a trained word2vec-text table, or a deterministic synthetic
    // one (`--nodes`/`--dim`) for load testing without a training run.
    let emb = match opts.values.get("input") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            omega::Embedding::parse(&text)
                .ok_or_else(|| format!("{path}: not a word2vec-text embedding"))?
        }
        None => so.synthetic_table(opts)?,
    };
    eprintln!("serving {} nodes x {} dims", emb.nodes(), emb.dim());

    let mut cfg = so.serve_config(&emb).admission(!opts.flag("no-admission"));
    if let Some((nlist, nprobe)) = ivf {
        cfg = cfg.index(omega::serve::IndexMode::Ivf { nlist, nprobe });
    }

    // DRAM holds the cache budget, plus the IVF index's DRAM residency
    // (centroid table + hot-list budget) when an index is configured.
    let ivf_dram_bytes = cfg.ivf_params(emb.nodes()).map_or(0, |(nlist, _)| {
        nlist as u64 * emb.dim() as u64 * 4 + cfg.ivf_hot_bytes
    });
    let sys = MemSystem::new(Topology::paper_machine_scaled(
        so.dram_bytes(&emb) + ivf_dram_bytes,
    ));

    // Optional deterministic fault plan: same plan file + same seed means the
    // same injected schedule and byte-identical metrics across runs.
    if let Some((path, spec)) = &so.fault_plan {
        eprintln!(
            "installed fault plan {path} (seed {}, {} rules)",
            spec.seed,
            spec.rules.len()
        );
    }
    let sys = so.with_faults(sys);
    let outputs = Outputs::parse(opts, true);
    let rec = outputs.recorder();
    let prof = outputs.profiler();

    let mut srv = EmbedServer::new(&sys, &emb, cfg)
        .map_err(|e| format!("placing shards on {:?}: {e}", so.cold_device))?
        .with_recorder(&rec, omega::obs::Track::MAIN);
    let mut load = RequestStream::new(
        WorkloadConfig::lookups(emb.nodes(), so.popularity, so.seed)
            .with_topk(so.topk_fraction, so.k),
    );
    let report = {
        let _guard = omega::par::install(&prof);
        srv.run(&mut load, requests)
    };

    let st = &report.stats;
    println!("requests          {}", st.requests);
    println!("  point lookups   {}", st.lookups);
    println!("  top-k queries   {}", st.topks);
    println!("batches           {}", st.batches);
    println!(
        "cache             {} hits / {} misses (hit rate {:.1}%)",
        st.hits,
        st.misses,
        st.hit_rate() * 100.0
    );
    println!(
        "                  {} fetches, {} evictions, {} admission rejects",
        st.fetches, st.evictions, st.admission_rejects
    );
    println!(
        "traffic           {} cold B read, {} DRAM B read, {} DRAM B written",
        st.cold_read_bytes, st.dram_read_bytes, st.dram_write_bytes
    );
    if let Some(index) = srv.ivf() {
        println!(
            "ivf               nlist {} nprobe {} ({} hot lists, {} empty)",
            index.nlist(),
            index.nprobe(),
            index.hot_list_count(),
            index.empty_list_count()
        );
        println!(
            "                  {} queries, {} probes, {} centroid B, {} DRAM list B, {} cold list B",
            st.ivf_queries, st.ivf_probes, st.ivf_centroid_bytes, st.ivf_dram_bytes, st.ivf_cold_bytes
        );
    }
    if so.fault_plan.is_some() {
        println!(
            "faults            {} injected = {} retried + {} hedges won + {} degraded",
            st.faults_injected, st.faults_retried, st.hedges_won, st.degraded
        );
    }
    println!("simulated time    {}", report.total_sim);
    println!(
        "throughput        {:.0} req/s (simulated)",
        report.throughput_qps()
    );
    println!(
        "latency (sim ns)  p50 {}  p95 {}  p99 {}",
        report.sim_percentile_ns(0.50),
        report.sim_percentile_ns(0.95),
        report.sim_percentile_ns(0.99)
    );
    println!(
        "latency (wall us) p50 {}  p95 {}  p99 {}",
        report.wall_percentile_us(0.50),
        report.wall_percentile_us(0.95),
        report.wall_percentile_us(0.99)
    );
    outputs.write(&rec, &prof)
}

/// Run the open-loop request plane: a two-tenant mix (high-priority
/// `interactive` at 60 % of `--rate`, low-priority `batch` at 40 %) through
/// admission control onto `--replicas` consistent-hash-routed servers.
/// Deterministic in `--seed`: same seed, same metrics JSONL bytes at any
/// `--threads` value.
fn plane(opts: &Opts) -> Result<(), String> {
    use omega::hetmem::{MemSystem, SimDuration, Topology};
    use omega::plane::{ArrivalProcess, PlaneConfig, Priority, RequestPlane, TenantSpec};
    use omega::serve::WorkloadConfig;

    let replicas: usize = require_positive(opts.get_or("replicas", 2)?, "replicas")?;
    let rate = require_positive(
        require_finite(opts.get_or("rate", 50_000.0)?, "rate")?,
        "rate",
    )?;
    let horizon_ms: u64 = require_positive(opts.get_or("horizon-ms", 50)?, "horizon-ms")?;
    let so = ServingOpts::parse(opts, 32, 0.2)?;
    let max_queue: usize = require_positive(opts.get_or("max-queue", 256)?, "max-queue")?;
    let deadline_us: u64 = require_positive(opts.get_or("deadline-us", 2_000)?, "deadline-us")?;
    let hedge_wait_us: u64 =
        require_positive(opts.get_or("hedge-wait-us", 2_000)?, "hedge-wait-us")?;
    let horizon_s = horizon_ms as f64 * 1e-3;
    // The low-priority tenant's arrival shape; `interactive` stays Poisson.
    let batch_process = match opts
        .values
        .get("arrival")
        .map(String::as_str)
        .unwrap_or("poisson")
    {
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

    let emb = so.synthetic_table(opts)?;
    eprintln!(
        "plane: {replicas} replica(s), {} nodes x {} dims, {rate:.0} req/s offered over {horizon_ms} ms",
        emb.nodes(),
        emb.dim()
    );

    // A fault plan installs its memory-path rules on every replica's
    // system; its `outage` rules address the plane itself and are
    // extracted into replica outage windows for the router to steer
    // around.
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
                so.dram_bytes(&emb),
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

    let outputs = Outputs::parse(opts, false);
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

/// Re-read a saved `--trace-out` chrome trace and print its span profile
/// as a table sorted by self wall time. The exporter embeds the exact
/// dual-clock numbers (`sim_*_ns` / `wall_*_us` / `depth`) in every X
/// event's args, so the profile here matches what `Recorder::profile`
/// reported at run time.
fn profile(opts: &Opts) -> Result<(), String> {
    let input = opts.require("input")?;
    let top: usize = opts.get_or("top", 0)?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let doc = omega::obs::json::parse(&text).map_err(|e| format!("{input}: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_seq())
        .ok_or_else(|| format!("{input}: not a chrome trace (no traceEvents array)"))?;
    // Event order is the recorder's completion order, which the profile
    // tree walk depends on.
    let mut spans = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(|v| v.as_str()) != Some("X") {
            continue;
        }
        let field = |key: &str| {
            ev.get("args")
                .and_then(|a| a.get(key))
                .and_then(|v| v.as_u64())
        };
        let (Some(name), Some(pid), Some(tid)) = (
            ev.get("name").and_then(|v| v.as_str()),
            ev.get("pid").and_then(|v| v.as_u64()),
            ev.get("tid").and_then(|v| v.as_u64()),
        ) else {
            continue;
        };
        let (Some(sim_start_ns), Some(sim_dur_ns), Some(wall_start_us), Some(wall_dur_us)) = (
            field("sim_start_ns"),
            field("sim_dur_ns"),
            field("wall_start_us"),
            field("wall_dur_us"),
        ) else {
            return Err(format!(
                "{input}: X event {name:?} lacks dual-clock args — not an omega trace"
            ));
        };
        spans.push(omega::obs::SpanRecord {
            name: name.to_string(),
            track: omega::obs::Track::new(pid as u32, tid as u32),
            sim_start_ns,
            sim_dur_ns,
            wall_start_us,
            wall_dur_us,
            depth: field("depth").unwrap_or(0) as u32,
            args: Vec::new(),
        });
    }
    if spans.is_empty() {
        return Err(format!("{input}: trace holds no spans"));
    }
    let mut aggs = omega::obs::profile::aggregate(&spans);
    aggs.sort_by(|a, b| {
        b.self_wall_us
            .cmp(&a.self_wall_us)
            .then_with(|| a.name.cmp(&b.name))
    });
    let shown = if top > 0 {
        top.min(aggs.len())
    } else {
        aggs.len()
    };
    println!(
        "{:<28} {:>8} {:>13} {:>14} {:>15} {:>15}",
        "span", "count", "self_wall_us", "total_wall_us", "self_sim_ns", "total_sim_ns"
    );
    for a in &aggs[..shown] {
        println!(
            "{:<28} {:>8} {:>13} {:>14} {:>15} {:>15}",
            a.name, a.count, a.self_wall_us, a.total_wall_us, a.self_sim_ns, a.total_sim_ns
        );
    }
    if shown < aggs.len() {
        println!("... {} more span names (raise --top)", aggs.len() - shown);
    }
    Ok(())
}

fn generate(opts: &Opts) -> Result<(), String> {
    let nodes: u32 = opts.require("nodes")?.parse().map_err(|_| "bad --nodes")?;
    let edges: u64 = opts.require("edges")?.parse().map_err(|_| "bad --edges")?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let output = opts.require("output")?.to_string();
    let list = RmatConfig::social(nodes, edges, seed).generate_edges();
    std::fs::write(&output, list.to_text()).map_err(|e| format!("writing {output}: {e}"))?;
    eprintln!("wrote {} edges to {output}", list.len());
    Ok(())
}

fn stats(opts: &Opts) -> Result<(), String> {
    let input = opts.require("input")?;
    let graph = load_graph(input)?;
    let s = GraphStats::of(&graph);
    println!("nodes             {}", s.nodes);
    println!("edges             {}", s.edges);
    println!("max degree        {}", s.max_degree);
    println!("avg degree        {:.2}", s.avg_degree);
    println!("distinct degrees  {}", s.distinct_degrees);
    println!(
        "degree entropy    {:.3} (normalised {:.3})",
        s.entropy, s.normalized_entropy
    );
    println!(
        "largest component {}",
        omega_graph::largest_component_size(&graph)
    );
    println!(
        "avg clustering    {:.4}",
        omega_graph::avg_clustering(&graph, 500)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn opts_parse_values_and_flags() {
        let o = Opts::parse(&s(&["--input", "a.txt", "--no-wofp", "--dim", "32"])).unwrap();
        assert_eq!(o.require("input").unwrap(), "a.txt");
        assert_eq!(o.get_or::<usize>("dim", 8).unwrap(), 32);
        assert!(o.flag("no-wofp"));
        assert!(!o.flag("no-nadp"));
        assert_eq!(o.get_or::<usize>("threads", 30).unwrap(), 30);
    }

    #[test]
    fn opts_reject_bad_input() {
        assert!(Opts::parse(&s(&["positional"])).is_err());
        let o = Opts::parse(&s(&["--dim", "xyz"])).unwrap();
        assert!(o.get_or::<usize>("dim", 8).is_err());
        assert!(o.require("missing").is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&[])).is_err());
    }

    #[test]
    fn conflicting_and_degenerate_flags_are_rejected() {
        let err = run(&s(&["serve", "--zipf", "1.1", "--uniform"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run(&s(&["plane", "--zipf", "1.1", "--uniform"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run(&s(&["serve", "--requests", "0"])).unwrap_err();
        assert!(err.contains("--requests must be positive"), "{err}");
        let err = run(&s(&["plane", "--replicas", "0"])).unwrap_err();
        assert!(err.contains("--replicas must be positive"), "{err}");
        let err = run(&s(&["plane", "--rate", "-5"])).unwrap_err();
        assert!(err.contains("--rate must be positive"), "{err}");
        let err = run(&s(&["plane", "--rate", "nan"])).unwrap_err();
        assert!(err.contains("--rate must be finite"), "{err}");
        let err = run(&s(&["plane", "--rate", "inf"])).unwrap_err();
        assert!(err.contains("--rate must be finite"), "{err}");
        let err = run(&s(&["serve", "--zipf", "nan"])).unwrap_err();
        assert!(err.contains("--zipf must be finite"), "{err}");
        let err = run(&s(&["serve", "--zipf", "-0.5"])).unwrap_err();
        assert!(err.contains("--zipf must be at least 0"), "{err}");
        let err = run(&s(&["plane", "--arrival", "lumpy"])).unwrap_err();
        assert!(err.contains("unknown --arrival"), "{err}");
        let err = run(&s(&["serve", "--topk-fraction", "1.5"])).unwrap_err();
        assert!(err.contains("--topk-fraction"), "{err}");
        let err = run(&s(&["serve", "--nodes", "0"])).unwrap_err();
        assert!(err.contains("--nodes must be positive"), "{err}");
        let err = run(&s(&["serve", "--dim", "0"])).unwrap_err();
        assert!(err.contains("--dim must be positive"), "{err}");
        let err = run(&s(&["plane", "--dim", "0"])).unwrap_err();
        assert!(err.contains("--dim must be positive"), "{err}");
        // One ablation at a time, and only of the hetero system.
        let embed = |flags: &[&str]| {
            let mut args = vec![
                "embed",
                "--input",
                "unread.txt",
                "--output",
                "unwritten.txt",
            ];
            args.extend_from_slice(flags);
            run(&s(&args)).unwrap_err()
        };
        let err = embed(&["--no-wofp", "--no-nadp"]);
        assert!(
            err.contains("--no-wofp and --no-nadp are mutually exclusive"),
            "{err}"
        );
        let err = embed(&["--no-asl", "--no-nadp", "--no-wofp"]);
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = embed(&["--mode", "pm", "--no-asl"]);
        assert!(
            err.contains("--no-asl") && err.contains("--mode pm"),
            "{err}"
        );
        let err = embed(&["--no-nadp", "--mode", "dram"]);
        assert!(
            err.contains("--no-nadp") && err.contains("--mode dram"),
            "{err}"
        );
    }

    /// An outage on a replica the plane does not have is refused before
    /// the run, not ignored.
    #[test]
    fn plane_refuses_an_outage_past_its_replicas() {
        let dir = std::env::temp_dir().join("omega_cli_outage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.txt");
        std::fs::write(&plan, "seed = 1\noutage replica=3 from_ms=0 until_ms=5\n").unwrap();
        let plan = plan.to_str().unwrap();
        let args = ["plane", "--nodes", "200", "--dim", "8", "--horizon-ms", "5"];
        let with = |replicas: &str| {
            let mut a = args.to_vec();
            a.extend(["--replicas", replicas, "--fault-plan", plan]);
            run(&s(&a))
        };
        let err = with("2").unwrap_err();
        assert!(
            err.contains("replica 3") && err.contains("--replicas is 2"),
            "{err}"
        );
        assert_eq!(with("4"), Ok(()));
    }

    /// A `--k` past any table answers every row: neither command reserves
    /// memory for `k` candidates (2^40 of them once asked for 8 TB).
    #[test]
    fn a_k_past_any_table_runs() {
        for command in ["serve", "plane"] {
            let args = [
                command,
                "--requests",
                "200",
                "--k",
                "1099511627776",
                "--topk-fraction",
                "0.5",
                "--nodes",
                "200",
                "--dim",
                "8",
            ];
            assert_eq!(run(&s(&args)), Ok(()), "{command}");
        }
    }

    #[test]
    fn plane_metrics_are_deterministic_across_wall_threads() {
        let dir = std::env::temp_dir().join("omega_cli_plane_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("m1.jsonl");
        let m8 = dir.join("m8.jsonl");
        let plane_args = |threads: &str, out: &std::path::Path| {
            s(&[
                "plane",
                "--replicas",
                "3",
                "--rate",
                "30000",
                "--horizon-ms",
                "20",
                "--nodes",
                "600",
                "--dim",
                "8",
                "--seed",
                "11",
                "--threads",
                threads,
                "--metrics-out",
                out.to_str().unwrap(),
            ])
        };
        run(&plane_args("1", &m1)).unwrap();
        run(&plane_args("8", &m8)).unwrap();
        let bytes = std::fs::read(&m1).unwrap();
        assert_eq!(
            bytes,
            std::fs::read(&m8).unwrap(),
            "plane metrics must be wall-thread independent"
        );
        let rows =
            omega::obs::export::parse_metrics_jsonl(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let counter = |name: &str| {
            rows.iter()
                .find(|(k, n, _)| k == "counter" && n == name)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(
            counter("plane.admitted"),
            counter("plane.completed") + counter("plane.degraded") + counter("plane.dropped"),
            "terminal-state identity must hold in the exported metrics"
        );
    }

    #[test]
    fn generate_stats_embed_roundtrip() {
        let dir = std::env::temp_dir().join("omega_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.txt");
        let e = dir.join("e.txt");
        run(&s(&[
            "generate",
            "--nodes",
            "300",
            "--edges",
            "2000",
            "--seed",
            "5",
            "--output",
            g.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&["stats", "--input", g.to_str().unwrap()])).unwrap();
        run(&s(&[
            "embed",
            "--input",
            g.to_str().unwrap(),
            "--output",
            e.to_str().unwrap(),
            "--dim",
            "8",
            "--threads",
            "4",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&e).unwrap();
        assert!(text.lines().next().unwrap().ends_with(" 8"));
    }

    #[test]
    fn serve_is_deterministic_and_zipf_head_stays_cached() {
        let dir = std::env::temp_dir().join("omega_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("m1.jsonl");
        let m2 = dir.join("m2.jsonl");
        let serve_args = |out: &std::path::Path| {
            s(&[
                "serve",
                "--requests",
                "2000",
                "--zipf",
                "1.0",
                "--nodes",
                "2000",
                "--dim",
                "8",
                "--seed",
                "7",
                "--rows-per-shard",
                "32",
                "--cache-shards",
                "8",
                "--metrics-out",
                out.to_str().unwrap(),
            ])
        };
        run(&serve_args(&m1)).unwrap();
        run(&serve_args(&m2)).unwrap();
        let a = std::fs::read(&m1).unwrap();
        assert_eq!(a, std::fs::read(&m2).unwrap(), "same seed, same bytes");

        let rows = omega::obs::export::parse_metrics_jsonl(&String::from_utf8(a).unwrap()).unwrap();
        let counter = |name: &str| {
            rows.iter()
                .find(|(k, n, _)| k == "counter" && n == name)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(counter("serve.requests"), 2000.0);
        assert!(
            counter("serve.cache.hit") > counter("serve.cache.miss"),
            "Zipf(1.0) head must stay DRAM-resident"
        );
    }

    #[test]
    fn serve_fault_plan_is_deterministic_and_zero_rate_is_identity() {
        let dir = std::env::temp_dir().join("omega_cli_fault_test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.txt");
        std::fs::write(
            &plan,
            "seed = 9\ntransient device=pm rate=0.05 penalty_us=5\n",
        )
        .unwrap();
        let zero = dir.join("zero.txt");
        std::fs::write(&zero, "seed = 9\n").unwrap();
        let serve_args = |plan: Option<&std::path::Path>, out: &std::path::Path| {
            let mut v = s(&[
                "serve",
                "--requests",
                "1500",
                "--zipf",
                "1.0",
                "--nodes",
                "2000",
                "--dim",
                "8",
                "--seed",
                "7",
                "--rows-per-shard",
                "32",
                "--cache-shards",
                "8",
                "--metrics-out",
                out.to_str().unwrap(),
            ]);
            if let Some(p) = plan {
                v.push("--fault-plan".into());
                v.push(p.to_str().unwrap().into());
            }
            v
        };

        let m1 = dir.join("m1.jsonl");
        let m2 = dir.join("m2.jsonl");
        run(&serve_args(Some(&plan), &m1)).unwrap();
        run(&serve_args(Some(&plan), &m2)).unwrap();
        let a = std::fs::read(&m1).unwrap();
        assert_eq!(
            a,
            std::fs::read(&m2).unwrap(),
            "same plan + same seed, same bytes"
        );
        let rows = omega::obs::export::parse_metrics_jsonl(&String::from_utf8(a).unwrap()).unwrap();
        let counter = |name: &str| {
            rows.iter()
                .find(|(k, n, _)| k == "counter" && n == name)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert!(counter("fault.injected") > 0.0, "5% rate must fire");
        assert_eq!(
            counter("fault.injected"),
            counter("fault.retried") + counter("fault.hedge.won") + counter("serve.degraded"),
            "every injected fault resolves exactly once"
        );

        // A zero-rate plan must be byte-identical to no plan at all.
        let mz = dir.join("mz.jsonl");
        let mn = dir.join("mn.jsonl");
        run(&serve_args(Some(&zero), &mz)).unwrap();
        run(&serve_args(None, &mn)).unwrap();
        assert_eq!(
            std::fs::read(&mz).unwrap(),
            std::fs::read(&mn).unwrap(),
            "zero-rate plan is observationally free"
        );

        // Malformed plans are rejected with a pointer at the file.
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "transient device=floppy rate=0.1\n").unwrap();
        assert!(run(&serve_args(Some(&bad), &mz)).is_err());
    }

    #[test]
    fn serve_profile_out_and_profile_report() {
        let dir = std::env::temp_dir().join("omega_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = dir.join("t.json");
        let c = dir.join("stacks.collapsed");
        let m1 = dir.join("m1.jsonl");
        let m2 = dir.join("m2.jsonl");
        let serve_args = |metrics: &std::path::Path, profiled: bool| {
            let mut v = s(&[
                "serve",
                "--requests",
                "1500",
                "--zipf",
                "1.0",
                "--nodes",
                "2000",
                "--dim",
                "8",
                "--seed",
                "7",
                "--threads",
                "4",
                "--topk-fraction",
                "0.25",
                "--metrics-out",
                metrics.to_str().unwrap(),
            ]);
            if profiled {
                v.extend(s(&[
                    "--trace-out",
                    t.to_str().unwrap(),
                    "--profile-out",
                    c.to_str().unwrap(),
                ]));
            }
            v
        };
        run(&serve_args(&m1, false)).unwrap();
        // Pin the dispatch policy for the profiled run: the bridged
        // `pool:` frames asserted below need real pool calls even on
        // single-core hosts, where the default adaptive policy would
        // (correctly) keep these tiny serve fan-outs inline.
        omega::par::with_dispatch_policy(omega::par::DispatchPolicy::always_parallel(), || {
            run(&serve_args(&m2, true)).unwrap()
        });
        // Profiling is wall-clock-only: metrics bytes must not move.
        assert_eq!(
            std::fs::read(&m1).unwrap(),
            std::fs::read(&m2).unwrap(),
            "--profile-out changed the metrics export"
        );
        let stacks = std::fs::read_to_string(&c).unwrap();
        assert!(
            stacks.lines().any(|l| l.starts_with("pool:")),
            "collapsed stacks lack pool worker frames:\n{stacks}"
        );
        for line in stacks.lines() {
            let (path, weight) = line.rsplit_once(' ').unwrap();
            assert!(!path.is_empty());
            weight.parse::<u64>().unwrap();
        }
        // The report mode renders a sorted self-time table from the trace.
        run(&s(&[
            "profile",
            "--input",
            t.to_str().unwrap(),
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(run(&s(&["profile", "--input", "/nonexistent.json"])).is_err());
    }

    #[test]
    fn embed_writes_trace_and_metrics() {
        let dir = std::env::temp_dir().join("omega_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.txt");
        let e = dir.join("e.txt");
        let t = dir.join("t.json");
        let m = dir.join("m.jsonl");
        run(&s(&[
            "generate",
            "--nodes",
            "300",
            "--edges",
            "2000",
            "--seed",
            "9",
            "--output",
            g.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&[
            "embed",
            "--input",
            g.to_str().unwrap(),
            "--output",
            e.to_str().unwrap(),
            "--dim",
            "8",
            "--threads",
            "4",
            "--trace-out",
            t.to_str().unwrap(),
            "--metrics-out",
            m.to_str().unwrap(),
        ]))
        .unwrap();

        let doc = omega::obs::json::parse(&std::fs::read_to_string(&t).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap();
        assert!(!events.is_empty());
        let rows =
            omega::obs::export::parse_metrics_jsonl(&std::fs::read_to_string(&m).unwrap()).unwrap();
        assert!(rows
            .iter()
            .any(|(k, n, v)| { k == "counter" && n == "mem.pm_bytes" && *v > 0.0 }));
    }
}
