//! The serving engine: batched point and top-k queries against a sharded
//! cold store with a DRAM hot cache, every byte charged to the hetmem cost
//! model and every phase visible as an `omega-obs` span. This file holds
//! the server itself and its batch loop; the cold-read side of a batch
//! lives in [`crate::fetch`], the top-k path in [`crate::topk`].
//!
//! ## Cost accounting
//!
//! * **Fetch** (cache miss): admission is decided for every missing shard
//!   of the batch *before* any byte moves. A shard the cache reserved a
//!   slot for streams whole out of the cold tier (`Seq` read of the shard's
//!   bytes) and stages into DRAM (`Seq` write) — the shard is the
//!   *retention* granule. A shard the cache refused passes through at the
//!   *row* granule: the batch's distinct requested rows are one `Rand` cold
//!   read (one access a row, each rounded up to the device's granule) plus
//!   a `Seq` DRAM write of just those rows — or the whole block, streamed
//!   and staged as above, when the model prices that no dearer (many rows
//!   of one shard; any device that pays per IO). Nothing else is charged
//!   and the host copies nothing.
//! * **Serve** (every request): one random DRAM read of the requested row
//!   plus `d` CPU ops for result extraction.
//! * **Top-k pass** (the paper's ASL rule: load a block once, use it for
//!   every consumer): a batch's top-k queries are charged as the one pass
//!   the host runs over the blocks they read — every shard, or the lists
//!   their centroid preludes probed. Each block is charged once: a cached
//!   shard or hot list is one DRAM `Seq` read; a cold block two or more
//!   queries read is staged once, when [`fetch::stage_pays`] prices that
//!   cheaper — a `Seq` cold read plus a `Seq` DRAM write on the background
//!   channel (`stream_time`) — and then read from DRAM once; any other
//!   cold block is one `Seq` cold read. Every scored (row, reader) adds
//!   `2·d` CPU ops; on an IVF server every query adds its centroid
//!   prelude, one DRAM read of the centroid table plus `2·d` ops a
//!   centroid. The pass runs on one simulated thread, like the fetches
//!   and lookups: its reads and compute are priced by one `thread_time`,
//!   its staging by one `stream_time`. It is charged where the batch's
//!   first top-k answer is due, and every top-k answer is due at its end.
//!   Scans never touch the cache: no admission, no recency bump.
//!
//! The server keeps its own byte ledger (`cold_read_bytes`,
//! `dram_read_bytes`, `dram_write_bytes`) alongside the merged
//! [`ClassCounters`]; integration tests assert the two agree exactly.
//!
//! ## Parallelism
//!
//! Per-shard batch work — shard fetches, grouped point lookups, the
//! scoring pass over a batch's top-k queries — runs on the
//! workspace-shared persistent worker pool ([`omega_par`]) at the width
//! [`ServeConfig::threads`] asks for. Worker tasks only *compute*: fetch
//! and lookup tasks charge their own `ThreadMem` context (pinned to a
//! deterministic fault stream derived from *what* they process, never
//! from which thread ran it) and return an outcome struct; scoring tasks
//! touch no context at all. The caller then merges outcomes in a fixed
//! order — ascending shard id for fetches, arrival order for lookups,
//! one pass for a batch's top-k queries — applying counters, stats,
//! simulated time and spans exactly as the sequential loop would. Thread
//! count is therefore a pure wall-clock knob: simulated clocks, metrics
//! and results are byte-identical at `threads = 1` and `threads = 64`.
//! Each fan-out is announced by a zero-sim-duration `serve.shard.parallel`
//! span carrying `phase` / `tasks` / `threads` args.

use crate::cache::HotCache;
use crate::config::{ServeConfig, HOT};
use crate::fetch::{self, LOOKUP_STREAM};
use crate::ivf::{IndexMode, IvfIndex};
use crate::stats::{ServeReport, ServeSignals, ServeStats};
use crate::store::ShardedStore;
use crate::topk::TopKQuery;
use crate::workload::{Request, RequestKind, RequestStream};
use omega_embed::Embedding;
use omega_hetmem::{AccessSummary, ClassCounters, MemSystem, SimDuration, ThreadMem};
use omega_obs::{Recorder, Track};
use std::time::Instant;

/// A tiered embedding server over one simulated machine.
#[derive(Debug)]
pub struct EmbedServer {
    pub(crate) sys: MemSystem,
    pub(crate) store: ShardedStore,
    pub(crate) cache: HotCache,
    /// Per shard, the most rows a pass-through miss reads one by one
    /// before the whole block is the cheaper read ([`fetch::row_limits`]).
    pub(crate) row_limit: Vec<u32>,
    /// Whether a cold block several top-k queries of a batch read is
    /// staged into DRAM once for all of them ([`fetch::stage_pays`]).
    pub(crate) stage_shared: bool,
    /// Cluster-then-probe index when [`ServeConfig::index`] asks for IVF
    /// (and the table is non-degenerate); `None` serves exact scans.
    pub(crate) ivf: Option<IvfIndex>,
    pub(crate) cfg: ServeConfig,
    pub(crate) rec: Recorder,
    pub(crate) track: Track,
    /// Simulated clock of the serving loop — maintained by the server so it
    /// advances even when the recorder is disabled.
    pub(crate) sim_now: SimDuration,
    pub(crate) counters: ClassCounters,
    pub(crate) stats: ServeStats,
}

impl EmbedServer {
    /// Shard `emb` onto the cold tier and stand up an (initially empty)
    /// hot cache. Fails if the cold device cannot hold the table.
    pub fn new(
        sys: &MemSystem,
        emb: &Embedding,
        cfg: ServeConfig,
    ) -> omega_hetmem::Result<EmbedServer> {
        let store = ShardedStore::build(sys, emb, cfg.rows_per_shard, cfg.cold)?;
        let cache = HotCache::new(store.num_shards(), cfg.cache_bytes, HOT, cfg.admission);
        let row_limit = fetch::row_limits(sys, &store);
        let stage_shared = fetch::stage_pays(sys, &store);
        // A degenerate table (no rows, or zero-width rows) has nothing to
        // cluster, so the exact scan stays the fallback: no rows is no
        // shards, and `score_blocks` scores a zero-width row as the oracle
        // does.
        let ivf = match cfg.index.resolved(emb.nodes()) {
            IndexMode::Exact => None,
            IndexMode::Ivf { nlist, nprobe } if emb.nodes() > 0 && emb.dim() > 0 => {
                Some(IvfIndex::build(sys, emb, &cfg, nlist, nprobe)?)
            }
            IndexMode::Ivf { .. } => None,
        };
        Ok(EmbedServer {
            sys: sys.clone(),
            store,
            cache,
            row_limit,
            stage_shared,
            ivf,
            cfg,
            rec: Recorder::disabled(),
            track: Track::MAIN,
            sim_now: SimDuration::ZERO,
            counters: ClassCounters::default(),
            stats: ServeStats::default(),
        })
    }

    /// Instrument the server: spans `serve.batch` / `serve.fetch` /
    /// `serve.lookup` / `serve.topk` land on `track`.
    pub fn with_recorder(mut self, rec: &Recorder, track: Track) -> Self {
        self.rec = rec.clone();
        self.track = track;
        self
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The IVF index serving top-k queries, when one is configured.
    pub fn ivf(&self) -> Option<&IvfIndex> {
        self.ivf.as_ref()
    }

    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Live serving-tier signals for the request plane's closed admission
    /// loop: cumulative cache hit rate plus IVF probe accounting, so the
    /// plane can price top-k work from what this replica actually did
    /// instead of static priors.
    pub fn signals(&self) -> ServeSignals {
        ServeSignals {
            hit_rate: self.stats.hit_rate(),
            ivf_queries: self.stats.ivf_queries,
            ivf_probes: self.stats.ivf_probes,
            nprobe: self.ivf.as_ref().map(|ivf| ivf.nprobe()),
        }
    }

    /// Total simulated time spent serving so far.
    pub fn sim_now(&self) -> SimDuration {
        self.sim_now
    }

    /// Memory-traffic summary of everything served so far.
    pub fn traffic(&self) -> AccessSummary {
        AccessSummary::from_counters(&self.counters)
    }

    /// Announce a per-shard fan-out on the span stream: a zero-sim-duration
    /// leaf (wall time is still captured) so parallel phases are visible
    /// without perturbing the simulated cursor. `more` adds what only one
    /// phase knows (the scoring pass's query count).
    pub(crate) fn parallel_span(&self, phase: &'static str, tasks: usize, more: &[(&str, usize)]) {
        let span = self.rec.begin("serve.shard.parallel", self.track);
        self.rec.arg(&span, "phase", phase);
        self.rec.arg(&span, "tasks", tasks);
        self.rec.arg(&span, "threads", self.cfg.threads.max(1));
        for &(key, value) in more {
            self.rec.arg(&span, key, value);
        }
        self.rec.end(span, Some(SimDuration::ZERO));
    }

    /// Serve one coalesced batch of requests.
    ///
    /// Phase 1 classifies every request against the cache as it stood when
    /// the batch arrived (hit/miss accounting), decides admission for each
    /// distinct missing shard, then reads each once — whole if the cache
    /// took it, by the requested rows if not; fetch tasks fan out on the
    /// worker pool, and their outcomes merge in ascending shard order.
    /// Phase 2 resolves every request's row in parallel (cache state is
    /// frozen for the phase), scores the batch's top-k queries in one pass
    /// over the table, then answers **in arrival order**, charging that
    /// pass where the first top-k answer is due — batching coalesces I/O
    /// and scoring but never reorders responses. A request's simulated
    /// latency is the full fetch phase plus every serve up to and
    /// including its own; every top-k answer waits for the whole pass.
    pub fn serve_batch(&mut self, requests: &[Request]) -> BatchResult {
        let wall_start = Instant::now();
        let batch_span = self.rec.begin("serve.batch", self.track);
        self.rec.arg(&batch_span, "requests", requests.len());
        self.stats.batches += 1;
        self.stats.requests += requests.len() as u64;

        // Phase 1: classify against pre-batch residency, decide admission
        // for every distinct missing shard, then read each once. The phase
        // scope attributes wall time only; nothing simulated depends on it.
        let fetch_dur = omega_par::phase_scope("fetch", || {
            let mut wanted: Vec<u32> = Vec::new();
            for req in requests {
                assert!(
                    self.store.contains(req.node),
                    "request for node {} out of range ({} nodes)",
                    req.node,
                    self.store.nodes()
                );
                let sid = self.store.shard_of(req.node);
                if self.cache.contains(sid) {
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                    wanted.push(req.node);
                }
                self.cache.record_access(sid);
            }
            let mut fetch_dur = SimDuration::ZERO;
            if !wanted.is_empty() {
                let missing = self.plan_misses(wanted);
                self.parallel_span("fetch", missing.len(), &[]);
                let batch_start = self.sim_now;
                let this: &EmbedServer = self;
                let outcomes = omega_par::run_labeled(
                    "serve.fetch",
                    this.cfg.threads,
                    missing.len(),
                    |ctx: &mut Option<ThreadMem>, i| {
                        this.fetch_shard_task(ctx, missing[i], batch_start)
                    },
                );
                for out in outcomes {
                    fetch_dur += self.merge_fetch(out);
                }
            }
            fetch_dur
        });

        // Phase 2: resolve every request's row serve in parallel — cache
        // state is frozen for the phase, so each task sees exactly the
        // residency the sequential loop would — score every top-k request
        // of the batch in one pass (a query vector is the row its lookup
        // just resolved), then answer in arrival order. Point lookups
        // accumulate into one `serve.lookup` leaf span per contiguous run;
        // the pass is charged, and gets its own span, where the first
        // top-k answer is due.
        let (responses, latencies) = omega_par::phase_scope("lookup", || {
            let lookups = if requests.is_empty() {
                Vec::new()
            } else {
                self.parallel_span("lookup", requests.len(), &[]);
                let phase_start = self.sim_now;
                let this: &EmbedServer = self;
                omega_par::run_labeled(
                    "serve.lookup",
                    this.cfg.threads,
                    requests.len(),
                    |ctx: &mut Option<ThreadMem>, i| {
                        this.lookup_task(
                            ctx,
                            requests[i].node,
                            LOOKUP_STREAM + i as u64,
                            phase_start,
                        )
                    },
                )
            };
            let queries: Vec<TopKQuery<'_>> = requests
                .iter()
                .zip(&lookups)
                .filter_map(|(req, lk)| match req.kind {
                    RequestKind::Get => None,
                    RequestKind::TopK { k, nprobe } => Some(TopKQuery {
                        query: &lk.row,
                        k,
                        nprobe,
                    }),
                })
                .collect();
            let (answers, pass) = self.score_top_k(&queries);
            let mut answers = answers.into_iter();
            let mut pass = Some(pass);
            let mut responses = Vec::with_capacity(requests.len());
            let mut latencies = Vec::with_capacity(requests.len());
            let mut served = SimDuration::ZERO;
            let mut lookup_acc = SimDuration::ZERO;
            let flush_lookups = |rec: &Recorder, track: Track, acc: &mut SimDuration| {
                if *acc > SimDuration::ZERO {
                    let span = rec.begin("serve.lookup", track);
                    rec.end(span, Some(*acc));
                    *acc = SimDuration::ZERO;
                }
            };
            for (req, lk) in requests.iter().zip(lookups) {
                self.counters.merge(&lk.counters);
                self.sim_now += lk.dur;
                self.stats.dram_read_bytes += lk.row_bytes;
                // Resolving a query vector is itself a row serve, so it
                // folds into the lookup span like any other.
                lookup_acc += lk.dur;
                served += lk.dur;
                match req.kind {
                    RequestKind::Get => {
                        self.stats.lookups += 1;
                        responses.push(Response::Vector(lk.row));
                    }
                    RequestKind::TopK { .. } => {
                        // The batch's first top-k answer is due at the
                        // pass's end, and every later one with it.
                        if let Some(pass) = pass.take() {
                            flush_lookups(&self.rec, self.track, &mut lookup_acc);
                            served += self.charge_pass(&pass);
                        }
                        let answer = answers.next().expect("one answer per top-k request");
                        self.stats.topks += 1;
                        responses.push(Response::Neighbors(answer));
                    }
                }
                latencies.push((fetch_dur + served).as_nanos());
            }
            flush_lookups(&self.rec, self.track, &mut lookup_acc);
            (responses, latencies)
        });
        self.rec.end(batch_span, None);

        let wall_us = wall_start.elapsed().as_micros() as u64;
        BatchResult {
            responses,
            sim_latency_ns: latencies,
            wall_us,
        }
    }

    /// Batched point lookup: the embedding vectors of `nodes`, in the exact
    /// order requested.
    pub fn get_vectors(&mut self, nodes: &[u32]) -> Vec<Vec<f32>> {
        let requests: Vec<Request> = nodes
            .iter()
            .map(|&node| Request {
                node,
                kind: RequestKind::Get,
            })
            .collect();
        self.serve_batch(&requests)
            .responses
            .into_iter()
            .map(|r| match r {
                Response::Vector(v) => v,
                Response::Neighbors(_) => unreachable!("get batch"),
            })
            .collect()
    }

    /// One top-k query with an explicit query vector (no batching).
    pub fn top_k(&mut self, query: &[f32], k: usize) -> Vec<(u32, f32)> {
        self.top_k_nprobe(query, k, None)
    }

    /// [`EmbedServer::top_k`] with an explicit probe count (IVF mode only;
    /// exact servers ignore it). `Some(nlist)` turns the index into the
    /// oracle; smaller values trade recall for scanned bytes.
    pub fn top_k_nprobe(
        &mut self,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> Vec<(u32, f32)> {
        let span = self.rec.begin("serve.batch", self.track);
        self.rec.arg(&span, "requests", 1usize);
        self.stats.batches += 1;
        self.stats.requests += 1;
        self.stats.topks += 1;
        let (mut answers, pass) = self.score_top_k(&[TopKQuery { query, k, nprobe }]);
        self.charge_pass(&pass);
        self.rec.end(span, None);
        answers.pop().expect("one answer per query")
    }

    /// Closed-loop run: draw `n` requests from `stream`, serve them in
    /// batches of `config.batch_size`, and report latency distributions on
    /// both clocks. Metric counters are published to the recorder with
    /// deterministic (simulated-only) values.
    pub fn run(&mut self, stream: &mut RequestStream, n: usize) -> ServeReport {
        let wall_start = Instant::now();
        let sim_start = self.sim_now;
        // The run measures its own window: the ledger counts from zero
        // while it serves, and rejoins the lifetime totals afterwards.
        let before = std::mem::take(&mut self.stats);
        let mut sim_latency_ns = Vec::with_capacity(n);
        let mut wall_latency_us = Vec::with_capacity(n);
        let mut left = n;
        while left > 0 {
            let take = left.min(self.cfg.batch_size);
            let requests = stream.take_requests(take);
            let batch = self.serve_batch(&requests);
            sim_latency_ns.extend(batch.sim_latency_ns);
            wall_latency_us.extend(std::iter::repeat_n(batch.wall_us, take));
            left -= take;
        }
        let stats = std::mem::replace(&mut self.stats, before);
        self.stats.add(&stats);

        self.stats.publish(&self.rec, self.ivf.is_some());
        for &ns in &sim_latency_ns {
            self.rec.observe("serve.latency_ns", ns as f64);
        }

        ServeReport {
            stats,
            total_sim: self.sim_now.saturating_sub(sim_start),
            total_wall_us: wall_start.elapsed().as_micros() as u64,
            sim_latency_ns,
            wall_latency_us,
            traffic: self.traffic(),
        }
    }
}

/// One response of a batch, in request order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Vector(Vec<f32>),
    Neighbors(Vec<(u32, f32)>),
}

/// Responses and per-request latencies of one batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    pub responses: Vec<Response>,
    /// Per-request simulated latency, in request order.
    pub sim_latency_ns: Vec<u64>,
    /// Wall time of the whole batch (every request in it shares it).
    pub wall_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Popularity, WorkloadConfig};
    use omega_embed::Metric;
    use omega_hetmem::Topology;
    use omega_obs::percentile_u64 as percentile;

    fn emb(nodes: u32, d: usize) -> Embedding {
        let data: Vec<f32> = (0..nodes as usize * d)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        Embedding::from_row_major(nodes, d, data)
    }

    fn server(nodes: u32, d: usize, cache_shards: u64) -> EmbedServer {
        let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
        let cfg = ServeConfig::new(cache_shards * 16 * d as u64 * 4).rows_per_shard(16);
        EmbedServer::new(&sys, &emb(nodes, d), cfg).unwrap()
    }

    #[test]
    fn get_vectors_preserves_order_and_values() {
        let e = emb(100, 8);
        let mut srv = server(100, 8, 2);
        let nodes = [7u32, 93, 7, 0, 55, 93];
        let got = srv.get_vectors(&nodes);
        assert_eq!(got.len(), nodes.len());
        for (&v, row) in nodes.iter().zip(&got) {
            assert_eq!(row.as_slice(), e.vector(v), "node {v}");
        }
    }

    #[test]
    fn repeat_batches_hit_the_cache() {
        let mut srv = server(64, 4, 4); // whole table fits in cache
        srv.get_vectors(&[1, 2, 3]);
        assert_eq!(srv.stats().misses, 3);
        assert_eq!(srv.stats().fetches, 1);
        srv.get_vectors(&[1, 2, 3]);
        assert_eq!(srv.stats().hits, 3);
        assert_eq!(srv.stats().fetches, 1, "no refetch of a resident shard");
    }

    #[test]
    fn lookup_latency_includes_fetch_and_queueing() {
        let mut srv = server(64, 4, 4);
        let batch = srv.serve_batch(&Request::gets(&[0, 16, 0]));
        // Latencies are cumulative within the batch.
        assert!(batch.sim_latency_ns[0] < batch.sim_latency_ns[1]);
        assert!(batch.sim_latency_ns[1] < batch.sim_latency_ns[2]);
        // First latency already covers both shard fetches.
        assert!(batch.sim_latency_ns[0] > 0);
    }

    #[test]
    fn top_k_matches_embedding_top_k() {
        let e = emb(80, 6);
        let mut srv = server(80, 6, 2);
        let query = e.vector(11).to_vec();
        let got = srv.top_k(&query, 5);
        assert_eq!(got, e.top_k(&query, 5, Metric::Dot));
    }

    #[test]
    fn run_reports_consistent_totals() {
        let mut srv = server(128, 8, 2);
        let mut stream = RequestStream::new(WorkloadConfig::lookups(
            128,
            Popularity::Zipf { s: 1.0 },
            42,
        ));
        let report = srv.run(&mut stream, 500);
        assert_eq!(report.stats.requests, 500);
        assert_eq!(report.stats.hits + report.stats.misses, 500);
        assert_eq!(report.sim_latency_ns.len(), 500);
        assert_eq!(report.wall_latency_us.len(), 500);
        assert!(report.total_sim.as_nanos() > 0);
        assert!(report.sim_percentile_ns(0.99) >= report.sim_percentile_ns(0.50));
        assert!(report.throughput_qps() > 0.0);
        // Byte ledger vs. hetmem accounting (cold tier is PM here).
        assert_eq!(report.traffic.pm_bytes, report.stats.cold_read_bytes);
        assert_eq!(
            report.traffic.dram_bytes,
            report.stats.dram_read_bytes + report.stats.dram_write_bytes
        );
    }

    #[test]
    fn small_cache_evicts_or_rejects() {
        let mut srv = server(256, 8, 1); // 1-shard cache, 16 shards
        let mut stream = RequestStream::new(WorkloadConfig::lookups(256, Popularity::Uniform, 7));
        let report = srv.run(&mut stream, 400);
        assert!(
            report.stats.evictions + report.stats.admission_rejects > 0,
            "a 1-shard cache under uniform load must churn"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
