//! `omega-cli serve`: point-lookup / top-k traffic against an embedding on
//! the simulated tiered machine, reported as dual-clock latency percentiles.
//! Deterministic in `--seed`: same seed, same metrics JSONL bytes.

use crate::opts::{Opts, Outputs};
use crate::serving::ServingOpts;
use omega::hetmem::{MemSystem, Topology};
use omega::serve::{EmbedServer, RequestStream, WorkloadConfig};

pub(crate) fn run(mut opts: Opts) -> Result<(), String> {
    let requests: usize = opts.positive("requests", 10_000)?;
    // IVF approximate top-k: giving either knob switches the server from the
    // exact brute-force scan to the cluster-then-probe index; `0` leaves that
    // knob on its auto default (`nlist = ceil(sqrt(nodes))`, `nprobe` at the
    // measured >=95%-recall@10 setting).
    let ivf = match (opts.get("ivf-nlist")?, opts.get("ivf-nprobe")?) {
        (None, None) => None,
        (nlist, nprobe) => Some((nlist.unwrap_or(0), nprobe.unwrap_or(0))),
    };
    let admission = !opts.flag("no-admission")?;
    let input: Option<String> = opts.get("input")?;
    if input.is_some()
        && (opts.get::<String>("nodes")?.is_some() || opts.get::<String>("dim")?.is_some())
    {
        return Err("--nodes/--dim describe the synthetic table; drop them with --input".into());
    }
    let outputs = Outputs {
        profile: opts.get("profile-out")?,
        ..Outputs::parse(&mut opts)?
    };
    let so = ServingOpts::parse(opts, 64, 0.0)?;
    if ivf.is_some() && so.topk_fraction == 0.0 {
        return Err(
            "--ivf-nlist/--ivf-nprobe index the top-k queries; give --topk-fraction above 0".into(),
        );
    }

    let emb = match input {
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            omega::Embedding::parse(&text)
                .ok_or_else(|| format!("{path}: not a word2vec-text embedding"))?
        }
        None => so.synthetic_table(),
    };
    eprintln!("serving {} nodes x {} dims", emb.nodes(), emb.dim());

    let mut cfg = so.serve_config(&emb).admission(admission);
    if let Some((nlist, nprobe)) = ivf {
        cfg = cfg.index(omega::serve::IndexMode::Ivf { nlist, nprobe });
    }

    // DRAM holds the cache budget, plus the IVF index's DRAM residency
    // (centroid table + hot-list budget) when an index is configured; the
    // cold tier then holds the index's cold lists beside the table, at most
    // one more copy of it.
    let (ivf_dram_bytes, copies) = cfg.ivf_params(emb.nodes()).map_or((0, 1), |(nlist, _)| {
        (nlist as u64 * emb.dim() as u64 * 4 + cfg.ivf_hot_bytes, 2)
    });
    let sys = MemSystem::new(Topology::paper_machine_scaled(
        so.dram_bytes(&emb, copies) + ivf_dram_bytes,
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
