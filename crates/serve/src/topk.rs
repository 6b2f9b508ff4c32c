//! The top-k path, split along the server's two clocks. Both halves walk
//! one plan of the batch: the `(block, readers)` reads, a block being a
//! shard or, on an IVF server, an inverted list some query's centroid
//! prelude selected.
//!
//! **Host half**, once per batch ([`EmbedServer::score_top_k`]): every
//! block is scored against every query that reads it while it is
//! cache-resident, into that query's selector. Pure compute: no
//! `ThreadMem`, no ledger, no simulated clock. The same walk plans the
//! model half ([`Pass`]).
//!
//! **Model half**, once per batch ([`EmbedServer::charge_pass`]): the pass
//! the host runs, priced as the paper's ASL rule has it — load a block
//! once, use it for every consumer. Each block the batch reads is charged
//! once: a cached shard or hot list is one DRAM `Seq` read; a cold block
//! two or more queries read is staged into a DRAM window when the model
//! prices that cheaper ([`crate::fetch::stage_pays`]) — a cold read plus
//! a DRAM write on the background channel, with the block's one fault
//! draw per batch — then read there once; any other cold block is one
//! cold read on its own fault stream. Every (row, reader) adds `2·d` CPU
//! ops, and on an IVF server every query adds its centroid prelude. The
//! pass runs on one simulated thread (DESIGN §6, decision 12, says why):
//! its reads and compute are priced by one `thread_time`, its staging
//! legs by one `stream_time`, plus the fault extras. Every leg starts at
//! the pass's start time, because a fault verdict is a function of *when*
//! the access happens.
//!
//! The exact scan and the IVF probe are two *inputs* to both halves — every
//! shard, or the probed lists — so the brute-force oracle and the index it
//! is tested against share every line that scores and every line that
//! charges.

use crate::config::{HOT, MAX_RETRIES, METRIC, MODEL_THREADS};
use crate::fetch::{resolve, Resolution, IVF_PROBE_STREAM, SCAN_STREAM, WINDOW_STREAM};
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

/// How the pass reads one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    /// A cached shard or a hot list: one DRAM read.
    Dram,
    /// A cold block two or more queries read, staged into a DRAM window on
    /// the background channel, then read there once.
    Staged,
    /// Any other cold block: one cold read on its own fault stream.
    Cold,
}

/// One block of a pass: read once, scored by `readers` queries.
#[derive(Debug, Clone, Copy)]
struct PassBlock {
    block: u32,
    read: Read,
    readers: u64,
}

/// The model half's plan of one batch's top-k queries, walked over the
/// reads the scoring pass makes. Blocks are shard ids on an exact server,
/// list ids on an IVF one. Cache state is frozen while the batch answers,
/// so a shard classified here is classified the same when the pass is
/// charged.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    queries: usize,
    /// Every block the batch reads, once, ascending.
    blocks: Vec<PassBlock>,
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
/// Reads are grouped by the block id the plan gives — never by slice
/// address: two empty lists may share one — so each block is scored once,
/// against every query that reads it as one query set, while it is
/// cache-resident.
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

/// What a pass has charged so far.
#[derive(Debug)]
struct PassCharge {
    /// The pass's reads and compute, priced by `thread_time`.
    counters: ClassCounters,
    /// The staging legs, priced by `stream_time`: the background channel,
    /// at the devices' peak.
    staging: ClassCounters,
    /// Simulated time the model does not price from the counters: injected
    /// fault penalties plus the backoff of in-leg retries.
    extra: SimDuration,
    stats: ServeStats,
    /// The one context every leg charges, reset between legs.
    ctx: Option<ThreadMem>,
}

impl EmbedServer {
    /// Host half: answer every query of a batch in one pass over the
    /// table, and plan the batch's charge from the same reads
    /// ([`EmbedServer::plan_pass`]). IVF servers first pick each query's
    /// lists ([`plan_probes`]); then one fan-out scores contiguous runs of
    /// shards / probed lists, each task keeping one selector per query, and
    /// the per-task selectors merge in ascending task order. The
    /// selector's order is total, so the merged selection is the one a
    /// single sequential scan would make: ids, order and score bits equal
    /// `Embedding::top_k` on an exact server (and on an IVF server probing
    /// every list), whatever the batch, the shard geometry and the thread
    /// count. An empty batch costs nothing.
    pub(crate) fn score_top_k(&self, queries: &[TopKQuery<'_>]) -> (Vec<Vec<(u32, f32)>>, Pass) {
        if queries.is_empty() {
            return (Vec::new(), Pass::default());
        }
        let dim = self.store.dim();
        for q in queries {
            assert_eq!(q.query.len(), dim, "query dimension mismatch");
        }
        // The batch's queries back to back: the query set blocks are scored
        // against, or the run of it a block's readers form.
        let batch: Vec<f32> = queries.iter().flat_map(|q| q.query).copied().collect();
        // Wall-clock phase attribution only; simulated time is unaffected.
        omega_par::phase_scope("topk", || {
            // The site labels key the pool's per-site task-size estimates.
            let (phase, site, plan, tasks) = match &self.ivf {
                Some(ivf) => {
                    let (plan, tasks) = plan_probes(ivf, queries, &batch);
                    ("ivf.probe", "serve.ivf.probe", plan, tasks)
                }
                None => {
                    let per_task = SCORE_TASK_ROWS.div_ceil(self.store.rows_per_shard());
                    let tasks = self.store.num_shards().div_ceil(per_task);
                    let plan = ScorePlan::Shards { per_task };
                    ("scan", "serve.scan", plan, tasks)
                }
            };
            let pass = self.plan_pass(&plan, queries.len());
            self.parallel_span(phase, tasks, &[("queries", queries.len())]);
            let span = self.rec.begin("serve.score", self.track);
            let per_task = omega_par::run_labeled(
                site,
                self.cfg.threads,
                tasks,
                |scratch: &mut ScoreScratch, t| match &plan {
                    ScorePlan::Shards { per_task } => {
                        let shards = t * per_task..self.store.num_shards().min((t + 1) * per_task);
                        let blocks = shards.map(|sid| {
                            let ids = BlockIds::Shard(self.store.shard_rows(sid));
                            (self.store.shard_raw(sid), ids, 0..queries.len())
                        });
                        score_blocks(queries, &batch, dim, blocks, scratch)
                    }
                    ScorePlan::Lists { reads, cuts } => {
                        let ivf = self.ivf.as_ref().expect("list plan without an index");
                        let blocks =
                            reads[cuts[t]..cuts[t + 1]]
                                .chunk_by(|a, b| a.0 == b.0)
                                .map(|run| {
                                    let lid = run[0].0 as usize;
                                    let ids = BlockIds::List(ivf.list_ids(lid));
                                    let readers = run.iter().map(|&(_, q)| q as usize);
                                    (ivf.list_rows(lid).raw(), ids, readers)
                                });
                        score_blocks(queries, &batch, dim, blocks, scratch)
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
            let answers = sels.into_iter().map(TopK::into_sorted_vec).collect();
            (answers, pass)
        })
    }

    /// The model half's plan of a batch, walked over the reads the scoring
    /// pass makes: each block once with its reader count, ascending, and
    /// which cold blocks stage.
    fn plan_pass(&self, plan: &ScorePlan, queries: usize) -> Pass {
        let block = |block: u32, dram: bool, readers: usize| PassBlock {
            block,
            read: if dram {
                Read::Dram
            } else if readers >= 2 && self.stage_shared {
                Read::Staged
            } else {
                Read::Cold
            },
            readers: readers as u64,
        };
        let blocks = match plan {
            // Every query reads every shard.
            ScorePlan::Shards { .. } => (0..self.store.num_shards())
                .map(|sid| block(sid as u32, self.cache.contains(sid), queries))
                .collect(),
            // Reads are sorted by list, then by query: each run is one
            // list's readers.
            ScorePlan::Lists { reads, .. } => {
                let ivf = self.ivf.as_ref().expect("list plan without an index");
                reads
                    .chunk_by(|a, b| a.0 == b.0)
                    .map(|run| block(run[0].0, ivf.list_is_hot(run[0].0 as usize), run.len()))
                    .collect()
            }
        };
        Pass { queries, blocks }
    }

    /// A block's placed rows and the fault stream keyed by it.
    fn block(&self, block: u32) -> (&HetVec<f32>, u64) {
        let b = block as usize;
        match &self.ivf {
            Some(ivf) => (ivf.list_rows(b), IVF_PROBE_STREAM + block as u64),
            None => (self.store.shard(b), SCAN_STREAM + block as u64),
        }
    }

    /// Stream one cold block on a freshly reset context keyed by the
    /// block, at the pass's start time, so one leg's injected penalty
    /// never moves the instant the next leg's accesses are judged at. Each
    /// attempt goes through the retry → hedge → degrade resolver until the
    /// cold tier or the DRAM replica serves the block. A read leg
    /// (`STAGE == false`) reads the replica itself when sent there. A
    /// staging leg (`STAGE == true`) writes the block into its DRAM window
    /// when the cold tier served it; sent to the replica, it stages
    /// nothing — the replica is DRAM already, and the pass reads it
    /// there. An empty block (a list a skewed k-means left empty) streams
    /// zero bytes. One out-of-line body per leg kind: inlined into the
    /// charge loop, or taking the kind at run time, a leg cost 40 ns
    /// against 30 (2.1 GHz Xeon), and a pass reads hundreds.
    #[inline(never)]
    fn cold_leg<const STAGE: bool>(
        &self,
        block: u32,
        pass_start: SimDuration,
        charge: &mut PassCharge,
    ) {
        let (rows, stream) = self.block(block);
        let bytes = rows.size_bytes();
        let ctx = self.task_ctx_in(&mut charge.ctx, stream, pass_start);
        let stats = &mut charge.stats;
        let mut attempt: u32 = 0;
        let served_cold = loop {
            // A failed attempt still streamed out of the cold tier.
            stats.cold_read_bytes += bytes;
            match rows.try_read_block(0..rows.len(), ctx) {
                Ok(_) => break true,
                Err(err) => match resolve(&err, attempt, MAX_RETRIES, stats) {
                    Resolution::Retry(wait) => {
                        attempt += 1;
                        charge.extra += wait;
                    }
                    Resolution::Hedge | Resolution::Degrade => break false,
                },
            }
        };
        if STAGE && served_cold {
            ctx.charge_block(HOT, AccessOp::Write, AccessPattern::Seq, bytes, 1);
            stats.dram_write_bytes += bytes;
        } else if !STAGE && !served_cold {
            ctx.charge_block(HOT, AccessOp::Read, AccessPattern::Seq, bytes, 1);
            stats.dram_read_bytes += bytes;
        }
        let priced = if STAGE {
            &mut charge.staging
        } else {
            &mut charge.counters
        };
        priced.merge(ctx.counters());
        charge.extra += ctx.injected_penalty();
    }

    /// Model half: charge one batch's pass as [`EmbedServer::plan_pass`]
    /// planned it, starting at the server's current simulated time, and
    /// advance the clock. The staging legs go first, on the background
    /// channel; then every cold block the pass reads where it lies, leg by
    /// leg; then one aggregated DRAM read of everything else — cached
    /// shards, hot lists, staged windows, one centroid table a query on an
    /// IVF server, counters equal to one read a block — with the pass's
    /// CPU ops, on its own fault stream. The reads and compute convert to
    /// simulated time in **one** `thread_time` call and the staging legs in
    /// one `stream_time` call: each rounds once, so pricing legs separately
    /// and summing would drift by rounding. A lone query is charged what
    /// one query has always been charged.
    pub(crate) fn charge_pass(&mut self, pass: &Pass) -> SimDuration {
        omega_par::phase_scope("topk", || {
            let span = self.rec.begin("serve.topk", self.track);
            let staged = pass.blocks.iter().filter(|b| b.read == Read::Staged);
            self.rec.arg(&span, "queries", pass.queries);
            self.rec.arg(&span, "staged", staged.clone().count());
            let pass_start = self.sim_now;
            let mut charge = PassCharge {
                counters: ClassCounters::default(),
                staging: ClassCounters::default(),
                extra: SimDuration::ZERO,
                stats: ServeStats::default(),
                ctx: None,
            };
            // Scans do not pollute the cache: no admission, no recency bump.
            for b in staged {
                self.cold_leg::<true>(b.block, pass_start, &mut charge);
            }
            let dim = self.store.dim() as u64;
            let (mut bytes, mut reads, mut ops) = (0, 0, 0);
            for b in &pass.blocks {
                let (rows, _) = self.block(b.block);
                ops += 2 * rows.len() as u64 * b.readers;
                match b.read {
                    Read::Dram | Read::Staged => {
                        bytes += rows.size_bytes();
                        reads += 1;
                    }
                    Read::Cold => self.cold_leg::<false>(b.block, pass_start, &mut charge),
                }
            }
            let ivf = self.ivf.as_ref().map(|ivf| {
                let preludes = pass.queries as u64;
                (
                    preludes * ivf.centroid_bytes(),
                    preludes * ivf.nlist() as u64,
                )
            });
            if let Some((centroid_bytes, centroids)) = ivf {
                bytes += centroid_bytes;
                reads += pass.queries as u64;
                ops += 2 * centroids * dim;
            }
            let ctx = self.task_ctx_in(&mut charge.ctx, WINDOW_STREAM, pass_start);
            if reads > 0 {
                ctx.charge_block(HOT, AccessOp::Read, AccessPattern::Seq, bytes, reads);
            }
            ctx.add_cpu_ops(ops);
            charge.counters.merge(ctx.counters());
            charge.extra += ctx.injected_penalty();
            charge.stats.dram_read_bytes += bytes;
            let model = self.sys.model();
            let dur = model.thread_time(&charge.counters, MODEL_THREADS)
                + model.stream_time(&charge.staging)
                + charge.extra;
            let stats = &mut charge.stats;
            if let Some((centroid_bytes, _)) = ivf {
                let probes: u64 = pass.blocks.iter().map(|b| b.readers).sum();
                self.rec.arg(&span, "index", "ivf");
                self.rec.arg(&span, "probes", probes);
                stats.ivf_queries += pass.queries as u64;
                stats.ivf_probes += probes;
                stats.ivf_centroid_bytes += centroid_bytes;
                stats.ivf_dram_bytes += stats.dram_read_bytes - centroid_bytes;
                stats.ivf_cold_bytes += stats.cold_read_bytes;
            }
            self.counters.merge(&charge.counters);
            self.counters.merge(&charge.staging);
            self.stats.add(stats);
            self.sim_now += dur;
            self.rec.end(span, Some(dur));
            dur
        })
    }
}

/// IVF planning: each query's probed lists (one centroid ranking per
/// query), as the batch's `(list, query)` reads sorted and cut into tasks
/// of at least [`SCORE_TASK_ROWS`] list rows. The centroid preludes are
/// scored as one query set, `batch` (the queries back to back), so the
/// kernel takes them two a register.
fn plan_probes(ivf: &IvfIndex, queries: &[TopKQuery<'_>], batch: &[f32]) -> (ScorePlan, usize) {
    let mut scores = Vec::with_capacity(ivf.nlist() * queries.len());
    ivf.score_centroids(batch, &mut scores);
    let mut reads: Vec<(u32, u32)> = Vec::new();
    for (q, (query, scores)) in queries
        .iter()
        .zip(scores.chunks_exact(ivf.nlist()))
        .enumerate()
    {
        let nprobe = query.nprobe.unwrap_or(ivf.nprobe()).clamp(1, ivf.nlist());
        let lists = IvfIndex::rank_lists(scores, nprobe);
        reads.extend(lists.into_iter().map(|lid| (lid, q as u32)));
    }
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
    (ScorePlan::Lists { reads, cuts }, tasks)
}

/// A scoring task's reusable buffers.
#[derive(Debug, Default)]
struct ScoreScratch {
    /// The scores of one block, `n` a reader, reader-major.
    scores: Vec<f32>,
    /// A block's readers' queries, gathered back to back when they are
    /// not already a run of the batch.
    gathered: Vec<f32>,
}

/// Score every `(rows, ids, readers)` block of one task through the shared
/// blocked kernel — one call a block, its readers as one query set, which
/// the kernel takes two a register — into the worker's reusable scratch,
/// and keep each query's `k` best: one selector per query of the batch, in
/// batch order (queries the task never reads keep an empty one). `readers`
/// are the batch indices of the queries that read the block, ascending;
/// `batch` is every query of the batch back to back. The only place the
/// serving tier scores a row.
fn score_blocks<'a, R>(
    queries: &[TopKQuery<'_>],
    batch: &[f32],
    dim: usize,
    blocks: impl Iterator<Item = (&'a [f32], BlockIds<'a>, R)>,
    scratch: &mut ScoreScratch,
) -> Vec<TopK>
where
    R: ExactSizeIterator<Item = usize> + Clone,
{
    let mut sels: Vec<TopK> = queries.iter().map(|q| TopK::new(q.k)).collect();
    let ScoreScratch { scores, gathered } = scratch;
    for (rows, ids, readers) in blocks {
        let n = match &ids {
            BlockIds::Shard(ids) => ids.len(),
            BlockIds::List(ids) => ids.len(),
        };
        if n == 0 {
            continue;
        }
        if dim == 0 {
            // `Embedding::top_k`'s degenerate rule: a zero-width row scores
            // the empty dot product. The kernels take their row count from
            // `rows.len() / dim`, so it is applied here, where `ids` has it.
            scores.clear();
            scores.resize(readers.len() * n, 0.0);
        } else {
            let first = readers.clone().next().unwrap_or(0);
            let run = readers.clone().enumerate().all(|(j, q)| q == first + j);
            let set = if run {
                &batch[first * dim..(first + readers.len()) * dim]
            } else {
                gathered.clear();
                for q in readers.clone() {
                    gathered.extend_from_slice(&batch[q * dim..(q + 1) * dim]);
                }
                &gathered[..]
            };
            METRIC.scores_into(set, rows, dim, scores);
        }
        for (q, scores) in readers.zip(scores.chunks_exact(n)) {
            let sel = &mut sels[q];
            match &ids {
                BlockIds::Shard(ids) => {
                    for (id, &score) in ids.clone().zip(scores) {
                        sel.push(id, score);
                    }
                }
                BlockIds::List(ids) => {
                    for (&id, &score) in ids.iter().zip(scores) {
                        sel.push(id, score);
                    }
                }
            }
        }
    }
    sels
}
