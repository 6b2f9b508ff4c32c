//! The cold-read side of a batch: worker-task contexts, the one
//! retry → hedge → degrade resolver every cold read drives, the shard
//! fetch and its fixed-order merge, and the point-lookup task.

use crate::cache::InsertOutcome;
use crate::config::{HOT, HOT_NODE, MODEL_THREADS, RETRY_BACKOFF_NS};
use crate::server::EmbedServer;
use crate::stats::ServeStats;
use omega_hetmem::{AccessOp, AccessPattern, ClassCounters, HetMemError, SimDuration, ThreadMem};

/// Fault-stream tags for worker-task contexts (see
/// [`ThreadMem::set_fault_stream`]): each task draws fault verdicts from a
/// stream derived from *what* it processes, so draws are independent of
/// scheduling and identical at every thread count.
pub(crate) const FETCH_STREAM: u64 = 1 << 20;
pub(crate) const SCAN_STREAM: u64 = 2 << 20;
pub(crate) const LOOKUP_STREAM: u64 = 3 << 20;
pub(crate) const IVF_CENTROID_STREAM: u64 = 4 << 20;
pub(crate) const IVF_PROBE_STREAM: u64 = 5 << 20;

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

/// A span a fetch task would have emitted: `(name, attempt, duration)`.
/// Replayed onto the recorder in merge order so the span stream is
/// identical at every thread count.
type SpanEvent = (&'static str, Option<u32>, SimDuration);

/// Everything one parallel shard fetch produced.
#[derive(Debug)]
pub(crate) struct FetchOutcome {
    sid: usize,
    rows: Vec<f32>,
    counters: ClassCounters,
    stats: ServeStats,
    events: Vec<SpanEvent>,
    total: SimDuration,
}

impl FetchOutcome {
    /// Record one step of the fetch: its span event and its share of the
    /// fetch's simulated time.
    fn step(&mut self, name: &'static str, attempt: Option<u32>, dur: SimDuration) {
        self.events.push((name, attempt, dur));
        self.total += dur;
    }
}

/// Everything one parallel point lookup produced.
#[derive(Debug)]
pub(crate) struct LookupOutcome {
    pub(crate) row: Vec<f32>,
    pub(crate) counters: ClassCounters,
    pub(crate) dur: SimDuration,
    pub(crate) row_bytes: u64,
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

    /// Convert a task context's charges into simulated time — model cost
    /// plus whatever the active fault plan injected — and fold its counters
    /// into the task's ledger (merged into the run ledger at merge time).
    fn task_settle(&self, ctx: &ThreadMem, counters: &mut ClassCounters) -> SimDuration {
        let dur =
            self.sys.model().thread_time(ctx.counters(), MODEL_THREADS) + ctx.injected_penalty();
        counters.merge(ctx.counters());
        dur
    }

    /// Task half of a shard fetch: stream `sid` from the cold tier and
    /// stage it into DRAM, each attempt on a freshly reset context priced
    /// on its own, resolving failures through [`resolve`]. The replica
    /// path (hedge or degrade) pulls the rows from the DRAM replica tier —
    /// the serving node keeps a warm replica of the table — and stages
    /// them; values are identical to the cold tier's, only the traffic
    /// differs. Pure computation — the outcome's counters, stats,
    /// simulated time and span events are applied by
    /// [`EmbedServer::merge_fetch`] in ascending shard order.
    pub(crate) fn fetch_shard_task(
        &self,
        slot: &mut Option<ThreadMem>,
        sid: usize,
        batch_start: SimDuration,
    ) -> FetchOutcome {
        let bytes = self.store.shard_bytes(sid);
        let stream = FETCH_STREAM + sid as u64;
        let mut out = FetchOutcome {
            sid,
            rows: Vec::new(),
            counters: ClassCounters::default(),
            stats: ServeStats::default(),
            events: Vec::new(),
            total: SimDuration::ZERO,
        };
        let mut attempt: u32 = 0;
        let replica_span = loop {
            // Recycled per attempt: reset + re-keying restarts the fault
            // stream exactly like a fresh context per attempt.
            let ctx = self.task_ctx_in(slot, stream, batch_start + out.total);
            let read = self.store.try_read_shard(sid, ctx).map(<[f32]>::to_vec);
            // A doomed attempt still streamed out of the cold tier and
            // burned its injected penalty.
            out.stats.cold_read_bytes += bytes;
            if read.is_ok() {
                ctx.charge_block(HOT, AccessOp::Write, AccessPattern::Seq, bytes, 1);
                out.stats.dram_write_bytes += bytes;
            }
            let dur = self.task_settle(ctx, &mut out.counters);
            out.step("serve.fetch", (attempt > 0).then_some(attempt), dur);
            match read {
                Ok(rows) => {
                    out.rows = rows;
                    return out;
                }
                Err(err) => match resolve(&err, attempt, self.cfg.max_retries, &mut out.stats) {
                    Resolution::Retry(wait) => {
                        attempt += 1;
                        out.step("serve.retry", Some(attempt), wait);
                    }
                    Resolution::Hedge => break "serve.hedge",
                    Resolution::Degrade => break "serve.degraded",
                },
            }
        };
        let ctx = self.task_ctx_in(slot, stream, batch_start + out.total);
        ctx.charge_block(HOT, AccessOp::Read, AccessPattern::Seq, bytes, 1);
        ctx.charge_block(HOT, AccessOp::Write, AccessPattern::Seq, bytes, 1);
        out.stats.dram_read_bytes += bytes;
        out.stats.dram_write_bytes += bytes;
        out.rows = self.store.shard_raw(sid).to_vec();
        let dur = self.task_settle(ctx, &mut out.counters);
        out.step(replica_span, None, dur);
        out
    }

    /// Merge half of a shard fetch: replay the task's span events, fold its
    /// counters and stats into the run ledger, advance the simulated clock,
    /// and offer the staged rows to the cache. Called in ascending shard
    /// order, so eviction/admission decisions match the sequential loop.
    pub(crate) fn merge_fetch(&mut self, out: FetchOutcome) -> SimDuration {
        for (name, attempt, dur) in out.events {
            let span = self.rec.begin(name, self.track);
            self.rec.arg(&span, "shard", out.sid);
            if let Some(attempt) = attempt {
                self.rec.arg(&span, "attempt", attempt);
            }
            self.rec.end(span, Some(dur));
        }
        self.counters.merge(&out.counters);
        self.stats.add(&out.stats);
        self.sim_now += out.total;
        self.stats.fetches += 1;
        match self.cache.insert(&self.sys, out.sid, out.rows) {
            InsertOutcome::Admitted { evicted } => self.stats.evictions += evicted as u64,
            InsertOutcome::RejectedByFrequency | InsertOutcome::RejectedByCapacity => {
                self.stats.admission_rejects += 1
            }
        }
        out.total
    }

    /// Task half of a point lookup: gather one row out of DRAM (cache slot
    /// if resident, else the staging copy the fetch phase just made) and
    /// charge the serve. Merged in arrival order by `serve_batch`.
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
        let row_bytes = (d * std::mem::size_of::<f32>()) as u64;
        let ctx = self.task_ctx_in(slot, stream, sim_now);
        ctx.charge_block(HOT, AccessOp::Read, AccessPattern::Rand, row_bytes, 1);
        ctx.add_cpu_ops(d as u64);
        let mut counters = ClassCounters::default();
        let dur = self.task_settle(ctx, &mut counters);
        LookupOutcome {
            row,
            counters,
            dur,
            row_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_hetmem::DeviceKind;

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
