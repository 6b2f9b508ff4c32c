//! The top-k path: one leg (stream a row block, score it, keep its `k`
//! best) and one driver (fan legs out, merge in fixed order, price once).
//! The exact scan and the IVF probe are two *inputs* to that machinery —
//! every shard, or the lists a centroid prelude selected — so the
//! brute-force oracle and the index it is tested against share every line
//! that reads, scores and charges.

use crate::config::{HOT, METRIC, MODEL_THREADS};
use crate::fetch::{
    resolve, Resolution, TaskScratch, IVF_CENTROID_STREAM, IVF_PROBE_STREAM, SCAN_STREAM,
};
use crate::server::EmbedServer;
use crate::stats::ServeStats;
use omega_embed::TopK;
use omega_hetmem::{AccessOp, AccessPattern, ClassCounters, HetVec, SimDuration, ThreadMem};

/// How a leg's row index maps to a node id.
#[derive(Debug, Clone, Copy)]
enum LegIds<'a> {
    /// A shard: consecutive ids from its first row.
    Base(u32),
    /// An inverted list: its member ids, in row order.
    List(&'a [u32]),
}

/// One leg of a top-k query: a row block to stream, score and select from.
#[derive(Debug, Clone, Copy)]
struct Leg<'a> {
    rows: &'a HetVec<f32>,
    /// DRAM-resident (cached shard, hot list): streams from the hot tier
    /// and cannot fault. Otherwise the block streams from wherever `rows`
    /// is placed, with failures resolved against the DRAM replica.
    hot: bool,
    ids: LegIds<'a>,
    /// Fault stream of the leg's context, keyed by what it reads.
    stream: u64,
    /// Also account the leg's traffic in the `ivf_*` ledger columns.
    ivf: bool,
}

/// Everything one leg produced.
#[derive(Debug)]
struct LegOutcome {
    counters: ClassCounters,
    /// Simulated time the model does not price from `counters`: injected
    /// fault penalties plus the backoff of in-leg retries (folded into the
    /// query's span so the obs cursor keeps covering every nanosecond).
    extra: SimDuration,
    sel: TopK,
    stats: ServeStats,
}

impl EmbedServer {
    /// Shard `sid` as a leg of the exact scan. Cached shards stream from
    /// DRAM; uncached shards stream straight from the cold tier — scans do
    /// not pollute the cache: no admission, no recency bump.
    fn shard_leg(&self, sid: usize) -> Leg<'_> {
        Leg {
            rows: self.store.shard(sid),
            hot: self.cache.contains(sid),
            ids: LegIds::Base(self.store.shard_rows(sid).start),
            stream: SCAN_STREAM + sid as u64,
            ivf: false,
        }
    }

    /// Inverted list `lid` as a leg of an IVF probe, streaming from
    /// wherever the build placed it.
    fn list_leg(&self, lid: usize) -> Leg<'_> {
        let ivf = self.ivf.as_ref().expect("probe without an IVF index");
        Leg {
            rows: ivf.list_rows(lid),
            hot: ivf.list_is_hot(lid),
            ids: LegIds::List(ivf.list_ids(lid)),
            stream: IVF_PROBE_STREAM + lid as u64,
            ivf: true,
        }
    }

    /// Task half of a top-k query: stream one leg's rows — all charges
    /// accumulate in one context, priced by the driver — score every row
    /// through the shared blocked kernels into the worker's reusable
    /// `scores` scratch, and keep the leg's `k` best. Whichever tier ends
    /// up serving the block, the f32 rows are the same, so the selection
    /// is bit-identical. An empty leg (a list a skewed k-means left empty)
    /// streams zero bytes and scores nothing.
    fn scan_leg(
        &self,
        query: &[f32],
        k: usize,
        leg: Leg<'_>,
        scan_start: SimDuration,
        scratch: &mut TaskScratch,
    ) -> LegOutcome {
        let bytes = leg.rows.size_bytes();
        let ctx = self.task_ctx_in(&mut scratch.ctx, leg.stream, scan_start);
        let mut stats = ServeStats::default();
        let mut backoff = SimDuration::ZERO;
        // Whether the block ends up streaming from DRAM: resident legs
        // always, cold legs once a failure resolves to the replica.
        let mut from_dram = leg.hot;
        let mut attempt: u32 = 0;
        while !from_dram {
            // A failed attempt still streamed out of the cold tier.
            stats.cold_read_bytes += bytes;
            match leg.rows.try_read_block(0..leg.rows.len(), ctx) {
                Ok(_) => break,
                Err(err) => match resolve(&err, attempt, self.cfg.max_retries, &mut stats) {
                    Resolution::Retry(wait) => {
                        attempt += 1;
                        backoff += wait;
                    }
                    Resolution::Hedge | Resolution::Degrade => from_dram = true,
                },
            }
        }
        if from_dram {
            ctx.charge_block(HOT, AccessOp::Read, AccessPattern::Seq, bytes, 1);
            stats.dram_read_bytes += bytes;
        }
        if leg.ivf {
            stats.ivf_dram_bytes = stats.dram_read_bytes;
            stats.ivf_cold_bytes = stats.cold_read_bytes;
        }
        let rows = leg.rows.raw();
        METRIC.scores_into(query, rows, self.store.dim(), &mut scratch.scores);
        let mut sel = TopK::new(k);
        match leg.ids {
            LegIds::Base(lo) => {
                for (i, &score) in scratch.scores.iter().enumerate() {
                    sel.push(lo + i as u32, score);
                }
            }
            LegIds::List(ids) => {
                for (&id, &score) in ids.iter().zip(&scratch.scores) {
                    sel.push(id, score);
                }
            }
        }
        ctx.add_cpu_ops(2 * (rows.len() as u64));
        LegOutcome {
            counters: ctx.counters().clone(),
            extra: ctx.injected_penalty() + backoff,
            sel,
            stats,
        }
    }

    /// IVF prelude: one charged DRAM scan of the centroid table, on its
    /// own fault stream, picks the `nprobe` best lists (through the shared
    /// [`TopK`] order, so probed sets nest as `nprobe` grows). Its charges
    /// land in `merged`/`extra` and are priced with the probe legs.
    fn select_probe_lists(
        &mut self,
        query: &[f32],
        nprobe: Option<usize>,
        scan_start: SimDuration,
        merged: &mut ClassCounters,
        extra: &mut SimDuration,
    ) -> Option<Vec<u32>> {
        let ivf = self.ivf.as_ref()?;
        let nprobe = nprobe.unwrap_or(ivf.nprobe()).clamp(1, ivf.nlist());
        let bytes = ivf.centroid_bytes();
        let mut slot: Option<ThreadMem> = None;
        let ctx = self.task_ctx_in(&mut slot, IVF_CENTROID_STREAM, scan_start);
        ctx.charge_block(HOT, AccessOp::Read, AccessPattern::Seq, bytes, 1);
        ctx.add_cpu_ops(2 * (ivf.nlist() * self.store.dim()) as u64);
        let mut scores = Vec::with_capacity(ivf.nlist());
        let lists = ivf.select_lists(query, METRIC, nprobe, &mut scores);
        merged.merge(ctx.counters());
        *extra += ctx.injected_penalty();
        self.stats.dram_read_bytes += bytes;
        self.stats.ivf_centroid_bytes += bytes;
        self.stats.ivf_queries += 1;
        self.stats.ivf_probes += lists.len() as u64;
        Some(lists)
    }

    /// Answer one top-k query. Exact mode scans every shard; IVF mode
    /// probes the lists its centroid prelude selected. Either way the legs
    /// fan out one per task and merge in ascending shard/list id, and all
    /// counters — prelude and legs — convert to simulated time in **one**
    /// `thread_time` call: it rounds once at the end, so pricing legs
    /// separately and summing would drift from the sequential scan by
    /// rounding. Result and clock are therefore byte-identical at every
    /// thread count; and at `nprobe == nlist` every row is scored exactly
    /// once through the same kernels as the exact scan, making the IVF
    /// answer bit-identical to the brute-force oracle.
    pub(crate) fn scan_top_k(
        &mut self,
        query: &[f32],
        k: usize,
        nprobe: Option<usize>,
    ) -> (Vec<(u32, f32)>, SimDuration) {
        assert_eq!(query.len(), self.store.dim(), "query dimension mismatch");
        // Wall-clock phase attribution only; simulated time is unaffected.
        omega_par::phase_scope("topk", || {
            let scan_start = self.sim_now;
            let mut merged = ClassCounters::default();
            let mut extra = SimDuration::ZERO;
            let lists = self.select_probe_lists(query, nprobe, scan_start, &mut merged, &mut extra);
            // The site labels key the pool's per-site task-size estimates.
            let (phase, site, tasks) = match &lists {
                Some(lists) => ("ivf.probe", "serve.ivf.probe", lists.len()),
                None => ("scan", "serve.scan", self.store.num_shards()),
            };
            self.parallel_span(phase, tasks);
            let span = self.rec.begin("serve.topk", self.track);
            self.rec.arg(&span, "k", k);
            if lists.is_some() {
                self.rec.arg(&span, "index", "ivf");
                self.rec.arg(&span, "nprobe", tasks);
            }
            let this: &EmbedServer = self;
            let outcomes =
                omega_par::run_labeled(site, this.cfg.threads, tasks, |s: &mut TaskScratch, i| {
                    let leg = match &lists {
                        Some(lists) => this.list_leg(lists[i] as usize),
                        None => this.shard_leg(i),
                    };
                    this.scan_leg(query, k, leg, scan_start, s)
                });
            let mut sel = TopK::new(k);
            for out in outcomes {
                merged.merge(&out.counters);
                extra += out.extra;
                self.stats.add(&out.stats);
                sel.merge(out.sel);
            }
            let dur = self.sys.model().thread_time(&merged, MODEL_THREADS) + extra;
            self.counters.merge(&merged);
            self.sim_now += dur;
            self.rec.end(span, Some(dur));
            (sel.into_sorted_vec(), dur)
        })
    }
}
