//! The four serving workloads: one table, one closed loop of 64-request
//! batches, four ways of stressing the tier.

use super::{run_window, Check, Instance, LayerCtx, Ledger, Mem, Params, Quality, Sample};
use crate::layers::{self, median_ns};
use crate::span::Tracer;
use crate::stats::median;
use omega_embed::{Embedding, Metric};
use omega_faults::{install_plan, FaultPlanSpec};
use omega_hetmem::{DeviceKind, MemSystem, Placement, Topology};
use omega_linalg::gaussian_matrix;
use omega_obs::{percentile_u64, Recorder, Track};
use omega_serve::{
    EmbedServer, HotCache, IndexMode, Popularity, Request, RequestKind, RequestStream, Response,
    ServeConfig, ServeStats, WorkloadConfig,
};
use std::time::Instant;

const DIM: usize = 64;
const ROWS_PER_SHARD: usize = 64;
const BATCH: usize = 64;
const K: usize = 10;
const SHARD_BYTES: u64 = (ROWS_PER_SHARD * DIM * 4) as u64;
/// Recall@10 the IVF index must keep at its automatic probe count.
const MIN_IVF_RECALL: f64 = 0.95;
/// Every how many batches each returned row is compared with the table.
const VERIFY_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Scan,
    Ivf,
    Lookup,
    Churn,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    cache_shards: u64,
    popularity: Popularity,
    topk_fraction: f64,
    warm_batches: usize,
    window_batches: usize,
    /// The traced pass's warm-up and window. The Recorder's cost per span
    /// grows with the spans it already holds, so the high-rate workloads
    /// get far fewer batches than a quarter of the window.
    short_warm_batches: usize,
    short_batches: usize,
}

impl Spec {
    pub fn of(kind: Kind) -> Spec {
        let zipf = Popularity::Zipf { s: 1.0 };
        let (cache_shards, popularity, topk_fraction) = match kind {
            Kind::Scan | Kind::Ivf => (16, zipf, 0.25),
            Kind::Lookup => (64, zipf, 0.0),
            Kind::Churn => (8, Popularity::Uniform, 0.0),
        };
        let (warm_batches, window_batches, short_warm_batches, short_batches) = match kind {
            Kind::Scan => (16, 64, 16, 16),
            Kind::Ivf => (16, 128, 16, 32),
            Kind::Lookup => (1_024, 32_768, 256, 1_024),
            Kind::Churn => (1_024, 12_288, 64, 128),
        };
        Spec {
            kind,
            cache_shards,
            popularity,
            topk_fraction,
            warm_batches,
            window_batches,
            short_warm_batches,
            short_batches,
        }
    }
}

fn nodes(quick: bool) -> u32 {
    if quick {
        12_500
    } else {
        50_000
    }
}

/// The window's start: the server's clock, stats and traffic at that point.
struct Mark {
    sim_ns: u64,
    stats: ServeStats,
    mem: Mem,
}

pub struct Serve {
    spec: Spec,
    quick: bool,
    short: bool,
    seed: u64,
    emb: Embedding,
    sys: MemSystem,
    srv: EmbedServer,
    stream: RequestStream,
    batches: u64,
    mark: Option<Mark>,
    /// Simulated latency of every request since `ledger_begin`.
    latencies: Vec<u64>,
    /// Stats of the last closed window, for the fault counters.
    window_stats: ServeStats,
}

fn config(spec: &Spec, threads: usize) -> ServeConfig {
    let index = match spec.kind {
        Kind::Ivf => IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        },
        _ => IndexMode::Exact,
    };
    ServeConfig::new(spec.cache_shards * SHARD_BYTES)
        .rows_per_shard(ROWS_PER_SHARD)
        .cold(Placement::node(0, DeviceKind::Pm))
        .batch_size(BATCH)
        .threads(threads)
        .index(index)
}

fn stats_since(now: &ServeStats, then: &ServeStats) -> ServeStats {
    ServeStats {
        requests: now.requests - then.requests,
        batches: now.batches - then.batches,
        hits: now.hits - then.hits,
        misses: now.misses - then.misses,
        fetches: now.fetches - then.fetches,
        evictions: now.evictions - then.evictions,
        admission_rejects: now.admission_rejects - then.admission_rejects,
        cold_read_bytes: now.cold_read_bytes - then.cold_read_bytes,
        dram_read_bytes: now.dram_read_bytes - then.dram_read_bytes,
        dram_write_bytes: now.dram_write_bytes - then.dram_write_bytes,
        faults_injected: now.faults_injected - then.faults_injected,
        faults_retried: now.faults_retried - then.faults_retried,
        hedges_won: now.hedges_won - then.hedges_won,
        degraded: now.degraded - then.degraded,
        ivf_queries: now.ivf_queries - then.ivf_queries,
        ivf_probes: now.ivf_probes - then.ivf_probes,
        ..ServeStats::default()
    }
}

impl Serve {
    pub fn build(
        spec: Spec,
        params: &Params,
        threads: usize,
        rec: &Recorder,
        tr: &mut Tracer,
    ) -> Serve {
        let n = nodes(params.quick);
        let table = tr.span("linalg.gaussian_matrix", || {
            gaussian_matrix(n as usize, DIM, params.seed)
        });
        let emb = tr.span("embed.Embedding::from_matrix", || {
            Embedding::from_matrix(&table)
        });
        drop(table);
        // DRAM 8 MB per node leaves 64 MB of PM: the table, the IVF lists
        // and a second server under a fault plan all fit.
        let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
        Serve::on_system(spec, params, threads, rec, tr, emb, sys)
    }

    fn on_system(
        spec: Spec,
        params: &Params,
        threads: usize,
        rec: &Recorder,
        tr: &mut Tracer,
        emb: Embedding,
        sys: MemSystem,
    ) -> Serve {
        let srv = tr.span("serve.EmbedServer::new", || {
            EmbedServer::new(&sys, &emb, config(&spec, threads))
                .expect("the cold tier holds the table")
                .with_recorder(rec, Track::MAIN)
        });
        let stream = tr.span("serve.RequestStream::new", || {
            RequestStream::new(
                WorkloadConfig::lookups(emb.nodes(), spec.popularity, params.seed)
                    .with_topk(spec.topk_fraction, K),
            )
        });
        Serve {
            spec,
            quick: params.quick,
            short: params.short,
            seed: params.seed,
            emb,
            sys,
            srv,
            stream,
            batches: 0,
            mark: None,
            latencies: Vec::new(),
            window_stats: ServeStats::default(),
        }
    }

    fn scale(&self, n: usize) -> usize {
        if self.quick {
            n.div_ceil(10)
        } else {
            n
        }
    }

    /// Requests of `batch` whose response is missing or wrong. Rows are
    /// compared with the table on every `VERIFY_EVERY`th batch.
    fn wrong_answers(&self, batch: &[Request], responses: &[Response]) -> u64 {
        if responses.len() != batch.len() {
            return batch.len() as u64;
        }
        let compare_rows = self.batches.is_multiple_of(VERIFY_EVERY);
        batch
            .iter()
            .zip(responses)
            .filter(|(req, resp)| match (req.kind, resp) {
                (RequestKind::Get, Response::Vector(row)) => {
                    compare_rows && row.as_slice() != self.emb.vector(req.node)
                }
                (RequestKind::TopK { k, .. }, Response::Neighbors(found)) => found.len() != k,
                _ => true,
            })
            .count() as u64
    }

    /// `count` node ids spread over the table by a seeded stride.
    fn sample_nodes(&self, count: usize) -> Vec<u32> {
        let n = u64::from(self.emb.nodes());
        (0..count as u64)
            .map(|i| ((self.seed.wrapping_mul(2_654_435_761) + i * 7_919) % n) as u32)
            .collect()
    }

    fn check_top_k(&mut self, tr: &mut Tracer) -> Quality {
        let queries = self.sample_nodes(self.scale(200));
        let (mut same, mut found, mut wanted) = (0u64, 0u64, 0u64);
        for &node in &queries {
            let query = self.emb.vector(node).to_vec();
            let got = tr.span("serve.EmbedServer::top_k", || self.srv.top_k(&query, K));
            let oracle = tr.span("embed.Embedding::top_k", || {
                self.emb.top_k(&query, K, Metric::Dot)
            });
            let ids = |v: &[(u32, f32)]| v.iter().map(|&(id, _)| id).collect::<Vec<_>>();
            same += u64::from(ids(&got) == ids(&oracle));
            wanted += oracle.len() as u64;
            found += got
                .iter()
                .filter(|(id, _)| oracle.iter().any(|(o, _)| o == id))
                .count() as u64;
        }
        let n = queries.len() as u64;
        if self.spec.kind == Kind::Ivf {
            let recall = found as f64 / wanted.max(1) as f64;
            let pass = recall >= MIN_IVF_RECALL;
            Quality {
                value: recall,
                attempted: n,
                failed: u64::from(!pass),
                checks: vec![Check::new(
                    "IVF recall@10 at the automatic probe count",
                    pass,
                    format!("recall {recall:.4} over {n} queries, floor {MIN_IVF_RECALL}"),
                )],
            }
        } else {
            Quality {
                value: same as f64 / n as f64,
                attempted: n,
                failed: n - same,
                checks: vec![Check::new(
                    "exact top-10 identical to Embedding::top_k in ids and order",
                    same == n,
                    format!("{same} of {n} sampled answers identical"),
                )],
            }
        }
    }

    fn check_rows(&mut self, tr: &mut Tracer) -> Quality {
        let nodes = self.sample_nodes(self.scale(50) * BATCH);
        let mut same = 0u64;
        for chunk in nodes.chunks(BATCH) {
            let rows = tr.span("serve.EmbedServer::get_vectors", || {
                self.srv.get_vectors(chunk)
            });
            same += chunk
                .iter()
                .zip(&rows)
                .filter(|(&node, row)| row.as_slice() == self.emb.vector(node))
                .count() as u64;
        }
        let n = nodes.len() as u64;
        Quality {
            value: same as f64 / n as f64,
            attempted: n,
            failed: n - same,
            checks: vec![Check::new(
                "looked-up rows bit-equal to the table",
                same == n,
                format!("{same} of {n} sampled rows identical"),
            )],
        }
    }

    /// Wall share of each serve phase scope over the three together.
    fn wall_split(&self, ctx: &mut LayerCtx<'_>) {
        let (fetch, lookup, topk) = (
            ctx.scope("fetch").0,
            ctx.scope("lookup").0,
            ctx.scope("topk").0,
        );
        let all = (fetch + lookup + topk).max(1.0);
        ctx.set("serve.wall_fetch_share", fetch / all);
        ctx.set("serve.wall_lookup_share", lookup / all);
        ctx.set("serve.wall_topk_share", topk / all);
    }

    /// One top-k query through the server's index, and per probed list.
    fn query_cost(&mut self, ctx: &mut LayerCtx<'_>) {
        let queries = self.sample_nodes(self.scale(40));
        let probes_before = self.srv.stats().ivf_probes;
        let start = Instant::now();
        for &node in &queries {
            let query = self.emb.vector(node).to_vec();
            std::hint::black_box(self.srv.top_k(&query, K));
        }
        let ns = start.elapsed().as_nanos() as f64;
        let us_per_query = ns * 1e-3 / queries.len() as f64;
        if self.spec.kind == Kind::Ivf {
            let probes = self.srv.stats().ivf_probes - probes_before;
            ctx.set("serve.ivf_us_per_query", us_per_query);
            ctx.set("serve.ivf_ns_per_probe", ns / probes.max(1) as f64);
        } else {
            ctx.set("serve.topk_us_per_query", us_per_query);
        }
    }

    /// `HotCache::insert` of one shard into a cache that is already full,
    /// so every insert evicts.
    fn cache_insert_ns(&self) -> f64 {
        let shards = self.srv.store().num_shards();
        let capacity = 8usize;
        let mut cache = HotCache::new(
            shards,
            capacity as u64 * SHARD_BYTES,
            Placement::node(0, DeviceKind::Dram),
            false,
        );
        let rows = || self.srv.store().shard_raw(0).to_vec();
        for sid in 0..capacity {
            cache.insert(&self.sys, sid, rows());
        }
        let mut sid = capacity;
        let samples: Vec<f64> = (0..self.scale(2_000))
            .map(|_| {
                // Only the insert is timed, not the staging copy.
                let staged = rows();
                let start = Instant::now();
                std::hint::black_box(cache.insert(&self.sys, sid, staged));
                let ns = start.elapsed().as_nanos() as f64;
                sid = if sid + 1 == shards { capacity } else { sid + 1 };
                ns
            })
            .collect();
        median(&samples)
    }

    /// The window again on a system with a seeded PM fault plan.
    fn under_faults(&self, ctx: &mut LayerCtx<'_>) {
        let plan = FaultPlanSpec::new(self.seed)
            .with_transient(DeviceKind::Pm, 0.01, 20_000)
            .with_timeout(DeviceKind::Pm, 0.002, 200_000);
        let mut faulty = Serve::on_system(
            self.spec,
            ctx.params,
            ctx.params.threads,
            &Recorder::disabled(),
            ctx.tracer,
            self.emb.clone(),
            install_plan(&self.sys, plan),
        );
        let window = run_window(&mut faulty, &mut Tracer::new(false), &mut Vec::new());
        let s = &faulty.window_stats;
        ctx.set("faults.injected", s.faults_injected as f64);
        ctx.set("faults.retried", s.faults_retried as f64);
        ctx.set("faults.hedge_won", s.hedges_won as f64);
        ctx.set("faults.degraded", s.degraded as f64);
        ctx.set(
            "faults.wall_overhead_share",
            window.ns_per_op() / ctx.base.ns_per_op() - 1.0,
        );
        ctx.set(
            "faults.sim_overhead_share",
            window.ledger.sim_total_ns as f64 / ctx.base.ledger.sim_total_ns as f64 - 1.0,
        );
        ctx.checks.push(Check::new(
            "every injected fault resolves exactly once",
            s.faults_injected == s.faults_retried + s.hedges_won + s.degraded,
            format!(
                "injected {} = retried {} + hedge won {} + degraded {}",
                s.faults_injected, s.faults_retried, s.hedges_won, s.degraded
            ),
        ));
    }

    /// One unit at one thread over the T-thread median.
    fn speedup(&self, ctx: &mut LayerCtx<'_>) {
        if ctx.params.threads < 2 {
            println!("# par.speedup_T refused: it needs at least 2 cores, this host has 1");
            return;
        }
        let mut single = Serve::on_system(
            self.spec,
            ctx.params,
            1,
            &Recorder::disabled(),
            ctx.tracer,
            self.emb.clone(),
            MemSystem::new(Topology::paper_machine_scaled(8 << 20)),
        );
        let mut off = Tracer::new(false);
        for _ in 0..single.warm_units() {
            single.unit(&mut off);
        }
        let walls: Vec<f64> = (0..16)
            .map(|_| single.unit(&mut off).wall_ns as f64)
            .collect();
        ctx.set(
            "par.speedup_T",
            median(&walls) / median(&ctx.base.call_ns()),
        );
    }
}

impl Instance for Serve {
    fn warm_units(&self) -> usize {
        self.scale(if self.short {
            self.spec.short_warm_batches
        } else {
            self.spec.warm_batches
        })
    }

    fn window_units(&self) -> usize {
        self.scale(if self.short {
            self.spec.short_batches
        } else {
            self.spec.window_batches
        })
    }

    fn unit(&mut self, tr: &mut Tracer) -> Sample {
        let batch = tr.span("serve.RequestStream::take_requests", || {
            self.stream.take_requests(BATCH)
        });
        let open = tr.begin("serve.EmbedServer::serve_batch");
        let start = Instant::now();
        let result = self.srv.serve_batch(&batch);
        let wall_ns = start.elapsed().as_nanos() as u64;
        tr.end(open);
        self.batches += 1;
        if self.mark.is_some() {
            self.latencies.extend_from_slice(&result.sim_latency_ns);
        }
        Sample {
            ops: batch.len() as u64,
            wall_ns,
            failed: self.wrong_answers(&batch, &result.responses),
        }
    }

    fn ledger_begin(&mut self) {
        self.latencies.clear();
        self.mark = Some(Mark {
            sim_ns: self.srv.sim_now().as_nanos(),
            stats: self.srv.stats().clone(),
            mem: Mem::of(&self.srv.traffic()),
        });
    }

    fn ledger_end(&mut self) -> Ledger {
        let mark = self.mark.take().expect("ledger_begin came first");
        let s = stats_since(self.srv.stats(), &mark.stats);
        let latencies = std::mem::take(&mut self.latencies);
        let mb = |b: u64| b as f64 / 1e6;
        let mut counts = vec![
            ("serve.hit_rate", s.hit_rate()),
            (
                "serve.fetches_per_batch",
                s.fetches as f64 / s.batches.max(1) as f64,
            ),
            ("serve.evictions", s.evictions as f64),
            ("serve.admission_rejects", s.admission_rejects as f64),
            ("serve.cold_read_mb", mb(s.cold_read_bytes)),
            ("serve.dram_read_mb", mb(s.dram_read_bytes)),
            ("serve.dram_write_mb", mb(s.dram_write_bytes)),
        ];
        if let Some(ivf) = self.srv.ivf() {
            counts.push((
                "serve.ivf_probes_per_query",
                s.ivf_probes as f64 / s.ivf_queries.max(1) as f64,
            ));
            counts.push((
                "serve.ivf_hot_list_share",
                ivf.hot_list_count() as f64 / ivf.nlist() as f64,
            ));
        }
        let ledger = Ledger {
            ops: s.requests,
            ok: s.requests - s.degraded.min(s.requests),
            sim_total_ns: self.srv.sim_now().as_nanos() - mark.sim_ns,
            lat_mean_ns: latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64,
            lat_p99_ns: percentile_u64(&latencies, 0.99),
            mem: Mem::of(&self.srv.traffic()).since(mark.mem),
            counts,
        };
        self.window_stats = s;
        ledger
    }

    fn check(&mut self, tr: &mut Tracer) -> Quality {
        match self.spec.kind {
            Kind::Scan | Kind::Ivf => self.check_top_k(tr),
            Kind::Lookup | Kind::Churn => self.check_rows(tr),
        }
    }

    fn layers(&mut self, ctx: &mut LayerCtx<'_>) {
        let build_ns = ctx
            .setup_ns
            .get("serve.EmbedServer::new")
            .copied()
            .unwrap_or(0.0);
        ctx.set("serve.build_ms", build_ns * 1e-6);
        self.wall_split(ctx);

        let calls = self.scale(500);
        let nodes = self.sample_nodes(calls * BATCH);
        let start = Instant::now();
        for chunk in nodes.chunks(BATCH) {
            std::hint::black_box(self.srv.get_vectors(chunk));
        }
        ctx.set(
            "serve.get_ns_per_row",
            start.elapsed().as_nanos() as f64 / nodes.len() as f64,
        );

        match self.spec.kind {
            Kind::Scan | Kind::Ivf => {
                self.query_cost(ctx);
                layers::scan_kernel(ctx.out, self.emb.data(), DIM);
            }
            Kind::Lookup | Kind::Churn => {
                layers::hetmem_charge(ctx.out, self.emb.data(), DIM);
                ctx.set("serve.cache_insert_ns", self.cache_insert_ns());
            }
        }
        match self.spec.kind {
            Kind::Scan => self.speedup(ctx),
            Kind::Ivf => {
                let exact = Spec::of(Kind::Scan);
                let exact_ns = median_ns(1, || {
                    std::hint::black_box(
                        EmbedServer::new(&self.sys, &self.emb, config(&exact, 1))
                            .expect("the cold tier holds a second copy"),
                    );
                });
                ctx.set("serve.ivf_build_ms", (build_ns - exact_ns) * 1e-6);
            }
            Kind::Churn => self.under_faults(ctx),
            Kind::Lookup => {}
        }
    }
}
