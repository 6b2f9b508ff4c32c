//! The cold-read side of a batch: worker-task contexts, the one
//! retry → hedge → degrade resolver every cold read drives, the miss path
//! (*decide* admission for the whole batch, *move* each missing shard's
//! bytes the cheapest way, *fill* the slots the decision reserved), and the
//! point-lookup task.

use crate::cache::InsertOutcome;
use crate::config::{HOT, HOT_NODE, MAX_RETRIES, MODEL_THREADS, RETRY_BACKOFF_NS};
use crate::server::EmbedServer;
use crate::stats::ServeStats;
use crate::store::ShardedStore;
use omega_hetmem::{
    AccessOp, AccessPattern, ClassCounters, HetMemError, MemSystem, Placement, SimDuration,
    ThreadMem,
};

/// Fault-stream tags for worker-task contexts (see
/// [`ThreadMem::set_fault_stream`]): each task draws fault verdicts from a
/// stream derived from *what* it processes, so draws are independent of
/// scheduling and identical at every thread count.
pub(crate) const FETCH_STREAM: u64 = 1 << 20;
pub(crate) const SCAN_STREAM: u64 = 2 << 20;
pub(crate) const LOOKUP_STREAM: u64 = 3 << 20;
pub(crate) const IVF_PROBE_STREAM: u64 = 5 << 20;
/// The one aggregated DRAM read of a top-k pass (its cached shards, hot
/// lists, staged windows and centroid tables).
pub(crate) const WINDOW_STREAM: u64 = 6 << 20;

/// How a failed cold read is answered. Both replica outcomes read the
/// same bytes from the DRAM replica tier; they differ in why (and in the
/// ledger column and span name that records it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolution {
    /// Wait out the backoff, then launch another cold-tier attempt.
    Retry(SimDuration),
    /// The device stalled: don't retry it, hedge to the replica.
    Hedge,
    /// Retry budget spent: serve degraded from the replica.
    Degrade,
}

/// The fault-resolution policy, in one place. `attempt` counts the retries
/// already launched for this read (0 on the first failure). Bumps
/// `faults_injected` and exactly one of `faults_retried` / `hedges_won` /
/// `degraded`, so `injected == retried + hedges_won + degraded` holds on
/// every ledger by construction.
pub(crate) fn resolve(
    err: &HetMemError,
    attempt: u32,
    max_retries: u32,
    stats: &mut ServeStats,
) -> Resolution {
    stats.faults_injected += 1;
    if err.is_timeout() {
        stats.hedges_won += 1;
        Resolution::Hedge
    } else if attempt < max_retries {
        stats.faults_retried += 1;
        // Exponential backoff; the shift saturates so a huge retry budget
        // cannot overflow the wait.
        Resolution::Retry(SimDuration::from_nanos(RETRY_BACKOFF_NS << attempt.min(16)))
    } else {
        stats.degraded += 1;
        Resolution::Degrade
    }
}

/// One distinct missing shard of a batch, as the admission plan left it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Miss {
    sid: usize,
    /// Distinct rows of the shard the batch asks for.
    rows: u32,
    /// The cache holds a slot for the shard: fetch it whole and fill the
    /// slot. Otherwise the shard passes through — the batch reads what it
    /// asked for and nothing is kept.
    fill: bool,
}

/// The bytes one miss moves, and how: what every attempt reads from the
/// cold tier, what a hedge or degrade reads from the DRAM replica instead,
/// and what is staged into DRAM for the lookups to read.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    pattern: AccessPattern,
    bytes: u64,
    accesses: u64,
}

impl Transfer {
    /// A whole shard as one streamed block.
    fn block(bytes: u64) -> Transfer {
        Transfer {
            pattern: AccessPattern::Seq,
            bytes,
            accesses: 1,
        }
    }

    /// `rows` rows gathered one by one; the context rounds each access up
    /// to the device's granule.
    fn rows(rows: u32, row_bytes: u64) -> Transfer {
        Transfer {
            pattern: AccessPattern::Rand,
            bytes: rows as u64 * row_bytes,
            accesses: rows as u64,
        }
    }

    fn read_from(self, tier: Placement, ctx: &mut ThreadMem) {
        ctx.charge_block(
            tier,
            AccessOp::Read,
            self.pattern,
            self.bytes,
            self.accesses,
        );
    }

    fn stage(self, ctx: &mut ThreadMem) {
        ctx.charge_block(HOT, AccessOp::Write, AccessPattern::Seq, self.bytes, 1);
    }
}

/// Per shard, the most distinct rows a pass-through miss gathers one by
/// one: past that many, streaming the whole block is no dearer by the
/// model's own price (cold read + DRAM staging, fault-free), so the block
/// is read instead. Priced once per server — every shard of one size
/// shares the answer — and from nothing but `thread_time`, so a device
/// with cheap random reads and a fine granule (PM) gathers rows up to
/// dozens a shard, and one that pays per IO (SSD) streams the block from
/// the second row on.
pub(crate) fn row_limits(sys: &MemSystem, store: &ShardedStore) -> Vec<u32> {
    let cold = store.placement();
    let row_bytes = store.row_bytes();
    let mut ctx = ThreadMem::new(HOT_NODE, sys.topology().nodes());
    let mut price = |transfer: Transfer| {
        ctx.reset();
        transfer.read_from(cold, &mut ctx);
        transfer.stage(&mut ctx);
        sys.model().thread_time(ctx.counters(), MODEL_THREADS)
    };
    let mut last: Option<(u64, u32)> = None;
    (0..store.num_shards())
        .map(|sid| {
            let bytes = store.shard_bytes(sid);
            let limit = match last {
                Some((known, limit)) if known == bytes => limit,
                _ => {
                    let block = price(Transfer::block(bytes));
                    let rows = store.shard_rows(sid).len() as u32;
                    (1..=rows)
                        .find(|&n| price(Transfer::rows(n, row_bytes)) >= block)
                        .map_or(rows, |n| n - 1)
                }
            };
            last = Some((bytes, limit));
            limit
        })
        .collect()
}

/// Whether a cold block that two or more top-k queries of one batch read
/// is staged: streamed once into a DRAM window on the background channel
/// (a cold `Seq` read plus a DRAM `Seq` write, priced by
/// `stream_time` as an ASL leg is), then read there once by the batch's
/// pass. Staged only when that leg plus one DRAM read is strictly cheaper
/// than one cold read, so staging never makes a pass dearer and a DRAM
/// cold tier, where staging can only add, never stages. Priced once
/// per server at the first shard's size: both prices are linear in the
/// bytes moved plus a per-access term that staging amortises over the
/// device's queue, so one size decides for every block.
pub(crate) fn stage_pays(sys: &MemSystem, store: &ShardedStore) -> bool {
    if store.num_shards() == 0 {
        return false;
    }
    let block = Transfer::block(store.shard_bytes(0));
    let model = sys.model();
    let mut ctx = ThreadMem::new(HOT_NODE, sys.topology().nodes());
    block.read_from(store.placement(), &mut ctx);
    let alone = model.thread_time(ctx.counters(), MODEL_THREADS);
    block.stage(&mut ctx);
    let stage = model.stream_time(ctx.counters());
    ctx.reset();
    block.read_from(HOT, &mut ctx);
    stage + model.thread_time(ctx.counters(), MODEL_THREADS) < alone
}

/// A span a fetch task would have emitted: `(name, attempt, duration)`.
/// Replayed onto the recorder in merge order so the span stream is
/// identical at every thread count.
type SpanEvent = (&'static str, Option<u32>, SimDuration);

/// Everything one parallel shard fetch produced.
#[derive(Debug)]
pub(crate) struct FetchOutcome {
    sid: usize,
    /// Rows gathered one by one, `0` when the shard streamed whole: the
    /// `rows` arg of the fetch's `serve.fetch` spans.
    rows: u32,
    /// The shard's rows, copied for the cache slot waiting on them. A
    /// pass-through miss copies nothing.
    fill: Option<Vec<f32>>,
    counters: ClassCounters,
    stats: ServeStats,
    /// `None` when no recorder is listening.
    events: Option<Vec<SpanEvent>>,
    total: SimDuration,
}

impl FetchOutcome {
    /// Record one step of the fetch: its span event and its share of the
    /// fetch's simulated time.
    fn step(&mut self, name: &'static str, attempt: Option<u32>, dur: SimDuration) {
        if let Some(events) = &mut self.events {
            events.push((name, attempt, dur));
        }
        self.total += dur;
    }
}

/// Everything one parallel point lookup produced: its row and its priced
/// duration. Every lookup charges the same
/// ([`EmbedServer::charge_lookups`]), so the ledger books a batch's
/// lookups at once and no counter table rides along.
#[derive(Debug)]
pub(crate) struct LookupOutcome {
    pub(crate) row: Vec<f32>,
    pub(crate) dur: SimDuration,
}

impl EmbedServer {
    /// A task context, recycled out of `slot` — a pool worker's scratch
    /// (one warm [`ThreadMem`] per worker thread for the whole serving
    /// run) or a top-k query's charge: reset and pinned to `stream` and
    /// `sim_now`. Streams derive from *what* the task processes (shard id,
    /// request index), never from which worker ran it, so fault draws are
    /// identical at every thread count — and identical whether the context
    /// is fresh or reused, because a reset context is observationally
    /// fresh.
    pub(crate) fn task_ctx_in<'s>(
        &self,
        slot: &'s mut Option<ThreadMem>,
        stream: u64,
        sim_now: SimDuration,
    ) -> &'s mut ThreadMem {
        let ctx = self.sys.recycle_ctx_on(slot, HOT_NODE);
        ctx.set_fault_stream(stream);
        ctx.set_sim_now(sim_now);
        ctx
    }

    /// Convert a task context's charges into simulated time: model cost
    /// plus whatever the active fault plan injected.
    fn task_price(&self, ctx: &ThreadMem) -> SimDuration {
        self.sys.model().thread_time(ctx.counters(), MODEL_THREADS) + ctx.injected_penalty()
    }

    /// [`EmbedServer::task_price`], folding the context's counters into
    /// the task's ledger (merged into the run ledger at merge time).
    fn task_settle(&self, ctx: &ThreadMem, counters: &mut ClassCounters) -> SimDuration {
        counters.merge(ctx.counters());
        self.task_price(ctx)
    }

    /// The one definition of what `n` point lookups charge: each reads one
    /// row from the hot tier at random and spends `d` CPU ops extracting
    /// it. Returns the DRAM bytes read. A lookup task charges one to its
    /// context; `serve_batch` folds a whole batch's into the run ledger
    /// with one charge, which books the same integers, since `n` rows in
    /// `n` accesses round up per access exactly as `n` single rows do. The
    /// charge does not depend on the fault verdict: the hook is consulted
    /// after the traffic is booked, and its penalty rides on the task's
    /// duration.
    pub(crate) fn charge_lookups(&self, ctx: &mut ThreadMem, n: u64) -> u64 {
        let bytes = n * self.store.row_bytes();
        ctx.charge_block(HOT, AccessOp::Read, AccessPattern::Rand, bytes, n);
        ctx.add_cpu_ops(n * self.store.dim() as u64);
        bytes
    }

    /// Decide step of the miss path, before any byte moves: group the
    /// rows the batch's misses ask for (`wanted`, any order, duplicates
    /// allowed) by shard, then walk the missing shards in ascending order
    /// reserving a cache slot for each — the order, and so every eviction
    /// and refusal, a fetch-then-insert loop over the same shards would
    /// produce, because the admission verdict reads frequencies and
    /// recency only. A shard whose slot a later reservation of the same
    /// batch took back passes through like a refused one.
    pub(crate) fn plan_misses(&mut self, mut wanted: Vec<u32>) -> Vec<Miss> {
        wanted.sort_unstable();
        wanted.dedup();
        let mut missing: Vec<Miss> = Vec::new();
        for &node in &wanted {
            let sid = self.store.shard_of(node);
            match missing.last_mut() {
                Some(miss) if miss.sid == sid => miss.rows += 1,
                _ => missing.push(Miss {
                    sid,
                    rows: 1,
                    fill: false,
                }),
            }
        }
        for miss in &missing {
            match self
                .cache
                .reserve(miss.sid, self.store.shard_bytes(miss.sid))
            {
                InsertOutcome::Admitted { evicted } => self.stats.evictions += evicted as u64,
                InsertOutcome::RejectedByFrequency | InsertOutcome::RejectedByCapacity => {
                    self.stats.admission_rejects += 1
                }
            }
        }
        for miss in &mut missing {
            miss.fill = self.cache.pending(miss.sid);
        }
        missing
    }

    /// Move step of the miss path, one pool task per missing shard. A
    /// shard the plan reserved a slot for streams whole from the cold
    /// tier, stages into DRAM and is copied for the slot. Any other
    /// passes through: the model charges, and the host touches, only what
    /// the batch reads — the requested rows gathered one by one and
    /// staged, or the whole block streamed and staged when
    /// [`row_limits`] prices that no dearer — and nothing is copied. Each
    /// attempt runs on a freshly reset context priced on its own,
    /// resolving failures through [`resolve`]; the replica path (hedge or
    /// degrade) reads the same bytes in the same shape from the DRAM
    /// replica tier — the serving node keeps a warm replica of the table —
    /// and stages them; values are identical to the cold tier's, only the
    /// traffic differs. Pure computation — the outcome's counters, stats,
    /// simulated time and span events are applied by
    /// [`EmbedServer::merge_fetch`] in ascending shard order.
    pub(crate) fn fetch_shard_task(
        &self,
        slot: &mut Option<ThreadMem>,
        miss: Miss,
        batch_start: SimDuration,
    ) -> FetchOutcome {
        let sid = miss.sid;
        let by_row = !miss.fill && miss.rows <= self.row_limit[sid];
        let transfer = if by_row {
            Transfer::rows(miss.rows, self.store.row_bytes())
        } else {
            Transfer::block(self.store.shard_bytes(sid))
        };
        let cold = self.store.placement();
        let stream = FETCH_STREAM + sid as u64;
        let mut out = FetchOutcome {
            sid,
            rows: if by_row { miss.rows } else { 0 },
            fill: None,
            counters: ClassCounters::default(),
            stats: ServeStats::default(),
            events: self.rec.is_enabled().then(Vec::new),
            total: SimDuration::ZERO,
        };
        let mut attempt: u32 = 0;
        let replica_span = loop {
            // Recycled per attempt: reset + re-keying restarts the fault
            // stream exactly like a fresh context per attempt.
            let ctx = self.task_ctx_in(slot, stream, batch_start + out.total);
            transfer.read_from(cold, ctx);
            // A doomed attempt still read from the cold tier and burned
            // its injected penalty.
            out.stats.cold_read_bytes += transfer.bytes;
            let fault = ctx.take_fault();
            if fault.is_none() {
                transfer.stage(ctx);
                out.stats.dram_write_bytes += transfer.bytes;
            }
            let dur = self.task_settle(ctx, &mut out.counters);
            out.step("serve.fetch", (attempt > 0).then_some(attempt), dur);
            match fault {
                None => break None,
                Some(err) => match resolve(&err, attempt, MAX_RETRIES, &mut out.stats) {
                    Resolution::Retry(wait) => {
                        attempt += 1;
                        out.step("serve.retry", Some(attempt), wait);
                    }
                    Resolution::Hedge => break Some("serve.hedge"),
                    Resolution::Degrade => break Some("serve.degraded"),
                },
            }
        };
        if let Some(replica_span) = replica_span {
            let ctx = self.task_ctx_in(slot, stream, batch_start + out.total);
            transfer.read_from(HOT, ctx);
            transfer.stage(ctx);
            out.stats.dram_read_bytes += transfer.bytes;
            out.stats.dram_write_bytes += transfer.bytes;
            let dur = self.task_settle(ctx, &mut out.counters);
            out.step(replica_span, None, dur);
        }
        if miss.fill {
            out.fill = Some(self.store.shard_raw(sid).to_vec());
        }
        out
    }

    /// Fill step of the miss path: replay the task's span events, fold its
    /// counters and stats into the run ledger, advance the simulated
    /// clock, and hand a copied shard to the slot reserved for it. Called
    /// in ascending shard order.
    pub(crate) fn merge_fetch(&mut self, out: FetchOutcome) -> SimDuration {
        for (name, attempt, dur) in out.events.into_iter().flatten() {
            let span = self.rec.begin(name, self.track);
            self.rec.arg(&span, "shard", out.sid);
            if name == "serve.fetch" {
                self.rec.arg(&span, "rows", out.rows);
            }
            if let Some(attempt) = attempt {
                self.rec.arg(&span, "attempt", attempt);
            }
            self.rec.end(span, Some(dur));
        }
        self.counters.merge(&out.counters);
        self.stats.add(&out.stats);
        self.sim_now += out.total;
        self.stats.fetches += 1;
        if let Some(rows) = out.fill {
            if !self.cache.fill(&self.sys, out.sid, rows) {
                self.stats.admission_rejects += 1;
            }
        }
        out.total
    }

    /// Task half of a point lookup: gather one row out of DRAM and charge
    /// the serve. The model reads it from the cache slot if the shard is
    /// resident, else from the bytes the fetch phase just staged (the
    /// batch's own rows, or the whole block); the host reads the slot's
    /// copy or, for a shard that passed through, the store's identical
    /// row — no staging copy exists to read. Merged in arrival order by
    /// `serve_batch`, which books the lookup's charge in the ledger.
    pub(crate) fn lookup_task(
        &self,
        slot: &mut Option<ThreadMem>,
        node: u32,
        stream: u64,
        sim_now: SimDuration,
    ) -> LookupOutcome {
        let sid = self.store.shard_of(node);
        let off = self.store.row_offset(node);
        let d = self.store.dim();
        let row = match self.cache.slot(sid) {
            Some(slot) => slot.raw()[off..off + d].to_vec(),
            None => self.store.shard_raw(sid)[off..off + d].to_vec(),
        };
        let ctx = self.task_ctx_in(slot, stream, sim_now);
        self.charge_lookups(ctx, 1);
        LookupOutcome {
            row,
            dur: self.task_price(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use omega_embed::Embedding;
    use omega_hetmem::{AccessSummary, DeviceKind, Topology};

    /// 100 rows of `d` floats in shards of `rows_per_shard` on `cold`,
    /// behind a cache of `cache_shards` full shards.
    fn server(d: usize, rows_per_shard: usize, cold: DeviceKind, cache_shards: u64) -> EmbedServer {
        let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
        let data: Vec<f32> = (0..100 * d).map(|i| i as f32).collect();
        let cfg = ServeConfig::new(cache_shards * (rows_per_shard * d * 4) as u64)
            .rows_per_shard(rows_per_shard)
            .cold(Placement::node(0, cold));
        EmbedServer::new(&sys, &Embedding::from_row_major(100, d, data), cfg).unwrap()
    }

    /// The crossover is the model's. On PM a 256 B row is one XPLine at
    /// 289 ns read and staged, so rows undercut a 16 KB block (9.9 µs) up
    /// to 34 of them and a 4 KB block (2.5 µs) up to 8. The SSD pays 80 µs
    /// per IO and moves 4 KB pages: one row undercuts a 16 KB block, the
    /// second already loses, and against a block of one page no row wins.
    #[test]
    fn row_limits_follow_the_models_price() {
        let limits = |d, rows_per_shard, cold| server(d, rows_per_shard, cold, 0).row_limit;
        // Shards of 64 and 36 rows; of 16 (six of them) and 4 rows.
        assert_eq!(limits(64, 64, DeviceKind::Pm), [34, 19]);
        assert_eq!(limits(64, 16, DeviceKind::Pm), [8, 8, 8, 8, 8, 8, 2]);
        assert_eq!(limits(64, 64, DeviceKind::Ssd), [1, 1]);
        assert_eq!(limits(64, 16, DeviceKind::Ssd), [0; 7]);
        // Rows far below the granule: a 4 B row still moves a whole XPLine.
        assert_eq!(limits(1, 16, DeviceKind::Pm), [0; 7]);
    }

    /// Staging a block several queries share pays on PM (16 KB: 1.1 µs
    /// of background stream plus a 3.1 µs DRAM read against a 6.1 µs cold
    /// read) and on SSD, whose per-IO latency the stream's queue hides;
    /// never on a DRAM cold tier, where it can only add. At a 4 B shard
    /// rounding ties the two prices, and a tie does not stage.
    #[test]
    fn stage_pays_follows_the_models_price() {
        let stages = |cold| server(64, 64, cold, 0).stage_shared;
        assert!(stages(DeviceKind::Pm));
        assert!(stages(DeviceKind::Ssd));
        assert!(!stages(DeviceKind::Dram));
        assert!(!server(1, 1, DeviceKind::Pm, 0).stage_shared);
    }

    /// A miss the cache takes streams its shard whole and stages it; a
    /// miss the cache refuses reads and stages only the requested rows.
    #[test]
    fn a_filled_shard_streams_whole_and_a_refused_one_reads_its_rows() {
        let mut kept = server(64, 16, DeviceKind::Pm, 4);
        kept.get_vectors(&[17, 20, 17]);
        let shard_bytes = kept.store.shard_bytes(1);
        let traffic = AccessSummary::from_counters(&kept.counters);
        assert_eq!(traffic.pm_bytes, shard_bytes);
        assert_eq!(traffic.write_bytes, shard_bytes);
        assert_eq!((kept.stats.fetches, kept.stats.admission_rejects), (1, 0));
        assert!(kept.cache.slot(1).is_some());

        let mut refused = server(64, 16, DeviceKind::Pm, 0);
        let rows = refused.get_vectors(&[17, 20, 17]);
        assert_eq!(rows[0], rows[2]);
        assert_eq!(rows[1][0], (20 * 64) as f32);
        let traffic = AccessSummary::from_counters(&refused.counters);
        assert_eq!(traffic.pm_bytes, 2 * 256, "two distinct rows");
        assert_eq!(traffic.write_bytes, 2 * 256);
        assert_eq!(refused.stats.cold_read_bytes, 2 * 256);
        assert_eq!(
            (refused.stats.fetches, refused.stats.admission_rejects),
            (1, 1)
        );
    }

    /// The ledger's fold of a lookup books what a fresh context holds
    /// after one `lookup_task`, whatever the row width (under, at and over
    /// the DRAM granule) and the cold tier; `n` lookups folded at once
    /// book what `n` tasks' counters merged do.
    #[test]
    fn the_ledger_folds_what_a_lookup_task_charged() {
        for cold in [DeviceKind::Pm, DeviceKind::Ssd] {
            for d in [1, 8, 64, 100] {
                let srv = server(d, 16, cold, 2);
                let mut slot = None;
                srv.lookup_task(&mut slot, 17, LOOKUP_STREAM, SimDuration::ZERO);
                let task = slot.expect("the task's context").counters().clone();
                let nodes = srv.sys.topology().nodes();
                let mut one = ThreadMem::new(HOT_NODE, nodes);
                let bytes = srv.charge_lookups(&mut one, 1);
                assert_eq!(one.counters(), &task, "d {d}, {cold:?}");
                assert_eq!(bytes, task.total_bytes(), "d {d}, {cold:?}");
                let mut batch = ThreadMem::new(HOT_NODE, nodes);
                srv.charge_lookups(&mut batch, 5);
                let mut merged = ClassCounters::default();
                (0..5).for_each(|_| merged.merge(&task));
                assert_eq!(batch.counters(), &merged, "d {d}, {cold:?}");
            }
        }
    }

    /// The decision table, row by row: for both failure kinds and every
    /// attempt up to one past the budget, the ledger moves by exactly one
    /// injected fault and exactly one resolution; timeouts never retry;
    /// transients retry while budget remains, then degrade.
    #[test]
    fn resolver_decision_table() {
        let transient = HetMemError::Transient {
            node: 0,
            device: DeviceKind::Pm,
            penalty_ns: 3_000,
        };
        let timeout = HetMemError::Timeout {
            node: 0,
            device: DeviceKind::Ssd,
            timeout_ns: 40_000,
        };
        for max_retries in [0u32, 1, 3] {
            for attempt in 0..=max_retries + 1 {
                for err in [&transient, &timeout] {
                    let mut stats = ServeStats::default();
                    let got = resolve(err, attempt, max_retries, &mut stats);
                    assert_eq!(stats.faults_injected, 1);
                    assert_eq!(
                        stats.faults_retried + stats.hedges_won + stats.degraded,
                        1,
                        "{err} attempt {attempt}/{max_retries}"
                    );
                    let want = if err.is_timeout() {
                        assert_eq!(stats.hedges_won, 1);
                        Resolution::Hedge
                    } else if attempt < max_retries {
                        assert_eq!(stats.faults_retried, 1);
                        Resolution::Retry(SimDuration::from_nanos(RETRY_BACKOFF_NS << attempt))
                    } else {
                        assert_eq!(stats.degraded, 1);
                        Resolution::Degrade
                    };
                    assert_eq!(got, want, "{err} attempt {attempt}/{max_retries}");
                    // Nothing else on the ledger moves.
                    stats.faults_injected = 0;
                    stats.faults_retried = 0;
                    stats.hedges_won = 0;
                    stats.degraded = 0;
                    assert_eq!(format!("{stats:?}"), format!("{:?}", ServeStats::default()));
                }
            }
        }
    }

    /// Backoff doubles per retry, then saturates at a shift of 16 however
    /// large the budget.
    #[test]
    fn backoff_doubles_then_saturates() {
        let transient = HetMemError::Transient {
            node: 0,
            device: DeviceKind::Pm,
            penalty_ns: 0,
        };
        let wait =
            |attempt: u32| match resolve(&transient, attempt, u32::MAX, &mut ServeStats::default())
            {
                Resolution::Retry(wait) => wait.as_nanos(),
                other => panic!("attempt {attempt} inside the budget resolved as {other:?}"),
            };
        assert_eq!(wait(0), RETRY_BACKOFF_NS);
        for attempt in 1..=16 {
            assert_eq!(wait(attempt), 2 * wait(attempt - 1), "attempt {attempt}");
        }
        for attempt in [17, 18, 64, 1_000, u32::MAX - 1] {
            assert_eq!(wait(attempt), RETRY_BACKOFF_NS << 16, "attempt {attempt}");
        }
    }
}
