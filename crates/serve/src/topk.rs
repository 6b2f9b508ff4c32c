//! The top-k path, split along the server's two clocks.
//!
//! **Host half**, once per batch ([`EmbedServer::score_top_k`]): every
//! top-k request of the batch is scored in one pass over the table. Each
//! shard — or, on an IVF server, each inverted list some query's centroid
//! prelude selected — is scored against every query that reads it while it
//! is cache-resident, into that query's selector. Pure compute: no
//! `ThreadMem`, no ledger, no simulated clock.
//!
//! **Model half**, once per query in arrival order
//! ([`EmbedServer::charge_top_k`]): the query's legs are charged on the
//! caller, each on its own fault stream at the query's own start time, into
//! one set of counters priced once. Charging cannot be shared the way
//! scoring is: a fault verdict is a function of *when* the access happens,
//! and each query starts where the previous one ended.
//!
//! The exact scan and the IVF probe are two *inputs* to both halves — every
//! shard, or the probed lists — so the brute-force oracle and the index it
//! is tested against share every line that scores and every line that
//! charges.

use crate::config::{HOT, METRIC, MODEL_THREADS};
use crate::fetch::{resolve, Resolution, IVF_CENTROID_STREAM, IVF_PROBE_STREAM, SCAN_STREAM};
use crate::ivf::IvfIndex;
use crate::server::EmbedServer;
use crate::stats::ServeStats;
use omega_embed::TopK;
use omega_hetmem::{AccessOp, AccessPattern, ClassCounters, HetVec, SimDuration, ThreadMem};
use std::ops::Range;

/// Fewest table rows one scoring task streams (the last task of a pass may
/// get fewer). A constant, never derived from the thread count: the task
/// partition — and with it which selector sees which row — is the same at
/// every pool width. Large enough that a task's selectors and pool claim
/// are noise against its dot products, small enough that a 50 k-row table
/// still splits into a few dozen stealable tasks.
const SCORE_TASK_ROWS: usize = 2048;

/// One top-k request of a batch, as the scoring pass sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TopKQuery<'a> {
    pub(crate) query: &'a [f32],
    pub(crate) k: usize,
    /// Per-request probe count (IVF servers only; `None` = the index's).
    pub(crate) nprobe: Option<usize>,
}

/// What the scoring pass hands the charging half for one query.
#[derive(Debug)]
pub(crate) struct TopKAnswer {
    pub(crate) neighbors: Vec<(u32, f32)>,
    /// The inverted lists the query read, ascending (`None` on an exact
    /// server: it read every shard).
    pub(crate) lists: Option<Vec<u32>>,
}

/// The node id of each row of a block, in row order — and with it the
/// block's row count, which a zero-width block's data cannot give.
#[derive(Debug, Clone)]
enum BlockIds<'a> {
    /// A shard: consecutive ids.
    Shard(Range<u32>),
    /// An inverted list: its member ids.
    List(&'a [u32]),
}

/// The `(block, query)` reads of one scoring pass, cut into pool tasks.
/// Reads are ordered by block, so a block stays cache-resident while
/// every query that reads it scores it.
#[derive(Debug)]
enum ScorePlan {
    /// Exact: every shard against every query. Task `t` owns shards
    /// `t * per_task ..` (`per_task` of them, fewer at the tail).
    Shards { per_task: usize },
    /// IVF: the probed `(list, query)` pairs, sorted. Task `t` owns
    /// `reads[cuts[t]..cuts[t + 1]]`; cuts fall between lists.
    Lists {
        reads: Vec<(u32, u32)>,
        cuts: Vec<usize>,
    },
}

/// One leg of a query's charge: a row block streamed whole.
#[derive(Debug, Clone, Copy)]
struct Leg<'a> {
    rows: &'a HetVec<f32>,
    /// DRAM-resident (cached shard, hot list): streams from the hot tier
    /// and cannot fault. Otherwise the block streams from wherever `rows`
    /// is placed, with failures resolved against the DRAM replica.
    hot: bool,
    /// Fault stream of the leg's context, keyed by what it reads.
    stream: u64,
}

/// Everything one query has been charged so far.
#[derive(Debug)]
struct QueryCharge {
    counters: ClassCounters,
    /// Simulated time the model does not price from `counters`: injected
    /// fault penalties plus the backoff of in-leg retries (folded into the
    /// query's span so the obs cursor keeps covering every nanosecond).
    extra: SimDuration,
    stats: ServeStats,
    /// The one context every leg charges, reset between legs.
    ctx: Option<ThreadMem>,
}

impl EmbedServer {
    /// Host half: answer every query of a batch in one pass over the
    /// table. IVF servers first pick each query's lists ([`plan_probes`]);
    /// then one fan-out scores contiguous runs of shards / probed lists,
    /// each task keeping one selector per query, and the per-task
    /// selectors merge in ascending task order. The
    /// selector's order is total, so the merged selection is the one a
    /// single sequential scan would make: ids, order and score bits equal
    /// `Embedding::top_k` on an exact server (and on an IVF server probing
    /// every list), whatever the batch, the shard geometry and the thread
    /// count. An empty batch costs nothing.
    pub(crate) fn score_top_k(&self, queries: &[TopKQuery<'_>]) -> Vec<TopKAnswer> {
        if queries.is_empty() {
            return Vec::new();
        }
        let dim = self.store.dim();
        for q in queries {
            assert_eq!(q.query.len(), dim, "query dimension mismatch");
        }
        // Wall-clock phase attribution only; simulated time is unaffected.
        omega_par::phase_scope("topk", || {
            // The site labels key the pool's per-site task-size estimates.
            let (phase, site, plan, tasks, lists) = match &self.ivf {
                Some(ivf) => {
                    let (lists, plan, tasks) = plan_probes(ivf, queries);
                    ("ivf.probe", "serve.ivf.probe", plan, tasks, Some(lists))
                }
                None => {
                    let per_task = SCORE_TASK_ROWS.div_ceil(self.store.rows_per_shard());
                    let tasks = self.store.num_shards().div_ceil(per_task);
                    let plan = ScorePlan::Shards { per_task };
                    ("scan", "serve.scan", plan, tasks, None)
                }
            };
            self.parallel_span(phase, tasks, &[("queries", queries.len())]);
            let span = self.rec.begin("serve.score", self.track);
            let per_task = omega_par::run_labeled(
                site,
                self.cfg.threads,
                tasks,
                |scores: &mut Vec<f32>, t| match &plan {
                    ScorePlan::Shards { per_task } => {
                        let shards = t * per_task..self.store.num_shards().min((t + 1) * per_task);
                        let reads = shards.flat_map(|sid| {
                            let ids = BlockIds::Shard(self.store.shard_rows(sid));
                            let rows = self.store.shard_raw(sid);
                            (0..queries.len()).map(move |q| (rows, ids.clone(), q))
                        });
                        score_reads(queries, dim, reads, scores)
                    }
                    ScorePlan::Lists { reads, cuts } => {
                        let ivf = self.ivf.as_ref().expect("list plan without an index");
                        let reads = reads[cuts[t]..cuts[t + 1]].iter().map(|&(lid, q)| {
                            let lid = lid as usize;
                            let ids = BlockIds::List(ivf.list_ids(lid));
                            (ivf.list_rows(lid).raw(), ids, q as usize)
                        });
                        score_reads(queries, dim, reads, scores)
                    }
                },
            );
            let mut sels: Vec<TopK> = queries.iter().map(|q| TopK::new(q.k)).collect();
            for task in per_task {
                for (sel, part) in sels.iter_mut().zip(task) {
                    sel.merge(part);
                }
            }
            self.rec.end(span, Some(SimDuration::ZERO));
            let mut lists = lists.map(Vec::into_iter);
            sels.into_iter()
                .map(|sel| TopKAnswer {
                    neighbors: sel.into_sorted_vec(),
                    lists: lists.as_mut().and_then(Iterator::next),
                })
                .collect()
        })
    }

    /// Charge one leg: stream its rows — resident legs from DRAM, cold
    /// legs through the retry → hedge → degrade resolver until the cold
    /// tier or the replica serves them — plus `2·d` CPU ops per scored
    /// row, on a freshly reset context at the query's start time, so one
    /// leg's injected penalty never moves the instant the next leg's
    /// accesses are judged at. An empty leg (a list a skewed k-means left
    /// empty) streams zero bytes.
    fn charge_leg(&self, leg: Leg<'_>, scan_start: SimDuration, charge: &mut QueryCharge) {
        let bytes = leg.rows.size_bytes();
        let ctx = self.task_ctx_in(&mut charge.ctx, leg.stream, scan_start);
        let stats = &mut charge.stats;
        // Whether the block ends up streaming from DRAM: resident legs
        // always, cold legs once a failure resolves to the replica.
        let mut from_dram = leg.hot;
        let mut attempt: u32 = 0;
        while !from_dram {
            // A failed attempt still streamed out of the cold tier.
            stats.cold_read_bytes += bytes;
            match leg.rows.try_read_block(0..leg.rows.len(), ctx) {
                Ok(_) => break,
                Err(err) => match resolve(&err, attempt, self.cfg.max_retries, stats) {
                    Resolution::Retry(wait) => {
                        attempt += 1;
                        charge.extra += wait;
                    }
                    Resolution::Hedge | Resolution::Degrade => from_dram = true,
                },
            }
        }
        if from_dram {
            ctx.charge_block(HOT, AccessOp::Read, AccessPattern::Seq, bytes, 1);
            stats.dram_read_bytes += bytes;
        }
        ctx.add_cpu_ops(2 * (leg.rows.len() as u64));
        charge.counters.merge(ctx.counters());
        charge.extra += ctx.injected_penalty();
    }

    /// Model half: charge one query — every shard, or the `lists` its
    /// centroid prelude selected plus the prelude itself (one DRAM scan of
    /// the centroid table on its own fault stream) — starting at the
    /// server's current simulated time, and advance the clock. All
    /// counters convert to simulated time in **one** `thread_time` call:
    /// it rounds once at the end, so pricing legs separately and summing
    /// would drift from the sequential scan by rounding. Nothing here
    /// depends on who scored the query or when, so the clock and the
    /// ledger are those of a server that answers its queries one at a time.
    pub(crate) fn charge_top_k(&mut self, k: usize, lists: Option<&[u32]>) -> SimDuration {
        omega_par::phase_scope("topk", || {
            let span = self.rec.begin("serve.topk", self.track);
            self.rec.arg(&span, "k", k);
            let scan_start = self.sim_now;
            let mut charge = QueryCharge {
                counters: ClassCounters::default(),
                extra: SimDuration::ZERO,
                stats: ServeStats::default(),
                ctx: None,
            };
            match lists {
                None => {
                    // Cached shards stream from DRAM; uncached shards stream
                    // straight from the cold tier — scans do not pollute the
                    // cache: no admission, no recency bump.
                    for sid in 0..self.store.num_shards() {
                        let leg = Leg {
                            rows: self.store.shard(sid),
                            hot: self.cache.contains(sid),
                            stream: SCAN_STREAM + sid as u64,
                        };
                        self.charge_leg(leg, scan_start, &mut charge);
                    }
                }
                Some(lists) => {
                    self.rec.arg(&span, "index", "ivf");
                    self.rec.arg(&span, "nprobe", lists.len());
                    let ivf = self
                        .ivf
                        .as_ref()
                        .expect("probed lists without an IVF index");
                    for &lid in lists {
                        let leg = Leg {
                            rows: ivf.list_rows(lid as usize),
                            hot: ivf.list_is_hot(lid as usize),
                            stream: IVF_PROBE_STREAM + lid as u64,
                        };
                        self.charge_leg(leg, scan_start, &mut charge);
                    }
                    // So far the query's ledger holds probe traffic only.
                    charge.stats.ivf_dram_bytes = charge.stats.dram_read_bytes;
                    charge.stats.ivf_cold_bytes = charge.stats.cold_read_bytes;
                    let bytes = ivf.centroid_bytes();
                    let ctx = self.task_ctx_in(&mut charge.ctx, IVF_CENTROID_STREAM, scan_start);
                    ctx.charge_block(HOT, AccessOp::Read, AccessPattern::Seq, bytes, 1);
                    ctx.add_cpu_ops(2 * (ivf.nlist() * self.store.dim()) as u64);
                    charge.counters.merge(ctx.counters());
                    charge.extra += ctx.injected_penalty();
                    charge.stats.dram_read_bytes += bytes;
                    charge.stats.ivf_centroid_bytes += bytes;
                    charge.stats.ivf_queries += 1;
                    charge.stats.ivf_probes += lists.len() as u64;
                }
            }
            let dur = self
                .sys
                .model()
                .thread_time(&charge.counters, MODEL_THREADS)
                + charge.extra;
            self.counters.merge(&charge.counters);
            self.stats.add(&charge.stats);
            self.sim_now += dur;
            self.rec.end(span, Some(dur));
            dur
        })
    }
}

/// IVF planning: each query's probed lists (one centroid ranking per
/// query, ascending list ids), and the batch's `(list, query)` reads cut
/// into tasks of at least [`SCORE_TASK_ROWS`] list rows.
fn plan_probes(ivf: &IvfIndex, queries: &[TopKQuery<'_>]) -> (Vec<Vec<u32>>, ScorePlan, usize) {
    let mut scores = Vec::with_capacity(ivf.nlist());
    let lists: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            let nprobe = q.nprobe.unwrap_or(ivf.nprobe()).clamp(1, ivf.nlist());
            ivf.select_lists(q.query, METRIC, nprobe, &mut scores)
        })
        .collect();
    let mut reads: Vec<(u32, u32)> = lists
        .iter()
        .enumerate()
        .flat_map(|(q, lids)| lids.iter().map(move |&lid| (lid, q as u32)))
        .collect();
    reads.sort_unstable();
    let mut cuts = vec![0];
    let (mut rows, mut open) = (0, None);
    for (i, &(lid, _)) in reads.iter().enumerate() {
        if open != Some(lid) {
            if rows >= SCORE_TASK_ROWS {
                cuts.push(i);
                rows = 0;
            }
            rows += ivf.list_ids(lid as usize).len();
            open = Some(lid);
        }
    }
    cuts.push(reads.len());
    let tasks = cuts.len() - 1;
    (lists, ScorePlan::Lists { reads, cuts }, tasks)
}

/// Score every `(rows, ids, query)` read of one task through the shared
/// blocked kernels into the worker's reusable `scores` scratch, and keep
/// each query's `k` best: one selector per query of the batch, in batch
/// order (queries the task never reads keep an empty one). The only place
/// the serving tier scores a row.
fn score_reads<'a>(
    queries: &[TopKQuery<'_>],
    dim: usize,
    reads: impl Iterator<Item = (&'a [f32], BlockIds<'a>, usize)>,
    scores: &mut Vec<f32>,
) -> Vec<TopK> {
    let mut sels: Vec<TopK> = queries.iter().map(|q| TopK::new(q.k)).collect();
    for (rows, ids, q) in reads {
        if dim == 0 {
            // `Embedding::top_k`'s degenerate rule: a zero-width row scores
            // the empty dot product. The kernels take their row count from
            // `rows.len() / dim`, so it is applied here, where `ids` has it.
            let n = match &ids {
                BlockIds::Shard(ids) => ids.len(),
                BlockIds::List(ids) => ids.len(),
            };
            scores.clear();
            scores.resize(n, 0.0);
        } else {
            METRIC.scores_into(queries[q].query, rows, dim, scores);
        }
        let sel = &mut sels[q];
        match ids {
            BlockIds::Shard(ids) => {
                for (id, &score) in ids.zip(scores.iter()) {
                    sel.push(id, score);
                }
            }
            BlockIds::List(ids) => {
                for (&id, &score) in ids.iter().zip(scores.iter()) {
                    sel.push(id, score);
                }
            }
        }
    }
    sels
}
