//! One replica's event loop: an ordered dispatch queue, its simulated
//! free instant, live cost estimates, and the [`EmbedServer`] behind it.
//! A lane reads only its own simulated state — never the metrics
//! registry — so the engine runs every lane of a round concurrently.
//!
//! At dispatch each request's remaining slack (`deadline − now`) is
//! compared against the replica's *live* cost estimates — an EWMA over
//! completed-request cost, corrected by the serve tier's real IVF probe
//! accounting (see [`ServeSignals`](omega_serve::ServeSignals)):
//!
//! * no slack at all → **dropped** (the late answer would be useless work);
//! * a top-k whose full scan cannot finish in time degrades down a ladder
//!   — halved `k` and halved `nprobe` if the scan nearly fits, else a
//!   **point lookup** of the query node if that fits;
//! * otherwise the request runs at full fidelity.
//!
//! A replica's outage windows are read through one pair of functions: the
//! front asks [`is_down`] before routing there, and the lane pushes its
//! dispatch clock past them with [`clear_of`].

use crate::arrivals::PlaneRequest;
use omega_hetmem::NetModel;
use omega_serve::{EmbedServer, Request, RequestKind};

/// Simulated wire size of one routed request (ids, kind, deadline, tenant).
pub(crate) const REQ_BYTES: u64 = 32;

/// Starting cost estimates (ns) before a replica has served anything —
/// quickly overwritten by the running averages.
const EST_GET_PRIOR_NS: u64 = 100_000;
const EST_TOPK_PRIOR_NS: u64 = 1_000_000;

/// Whether `t` falls inside one of a replica's outage windows
/// `[from_ns, until_ns)`.
pub(crate) fn is_down(windows: &[(u64, u64)], t: u64) -> bool {
    windows.iter().any(|&(from, until)| from <= t && t < until)
}

/// The first instant at or after `t` that no outage window covers.
pub(crate) fn clear_of(windows: &[(u64, u64)], mut t: u64) -> u64 {
    while let Some(&(_, until)) = windows
        .iter()
        .find(|&&(from, until)| from <= t && t < until)
    {
        t = until;
    }
    t
}

/// A request sitting in a replica queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    /// Global arrival ordinal — the dispatch tie-breaker after priority.
    pub(crate) seq: u64,
    pub(crate) req: PlaneRequest,
}

/// Per-replica running cost estimates (EWMA, ¾ old + ¼ new, u64 ns).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CostEst {
    pub(crate) get_ns: u64,
    topk_ns: u64,
}

impl CostEst {
    fn update(est: &mut u64, sample: u64) {
        // In u128: a sample at the end of the clock must not wrap.
        *est = ((*est as u128 * 3 + sample as u128) / 4) as u64;
    }
}

/// How one admitted request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    Completed,
    DegradedReducedK,
    DegradedToGet,
    Dropped,
}

/// One terminal event produced by a replica lane, merged back on the
/// caller in `(event_ns, replica, seq)` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneEvent {
    pub(crate) event_ns: u64,
    pub(crate) replica: u32,
    pub(crate) seq: u64,
    pub(crate) tenant: u32,
    pub(crate) outcome: Outcome,
    /// Arrival→completion (ns); 0 for drops.
    pub(crate) latency_ns: u64,
    /// Arrival→dispatch (ns); 0 for drops.
    pub(crate) wait_ns: u64,
    pub(crate) slo_miss: bool,
}

/// One replica's lane. `run_until` advances it to a round boundary.
pub(crate) struct ReplicaLane<'a> {
    pub(crate) r: u32,
    pub(crate) server: &'a mut EmbedServer,
    pub(crate) queue: Vec<Queued>,
    /// Simulated instant the replica finishes its current batch.
    pub(crate) ready_ns: u64,
    pub(crate) est: CostEst,
    /// Outage windows `(from_ns, until_ns)` covering this replica.
    outages: &'a [(u64, u64)],
    /// Terminal events of the current round, processing order.
    pub(crate) events: Vec<LaneEvent>,
    batch_size: usize,
}

impl<'a> ReplicaLane<'a> {
    pub(crate) fn new(
        r: u32,
        server: &'a mut EmbedServer,
        outages: &'a [(u64, u64)],
        batch_size: usize,
    ) -> ReplicaLane<'a> {
        ReplicaLane {
            r,
            server,
            queue: Vec::new(),
            ready_ns: 0,
            est: CostEst {
                get_ns: EST_GET_PRIOR_NS,
                topk_ns: EST_TOPK_PRIOR_NS,
            },
            outages,
            events: Vec::new(),
            batch_size,
        }
    }

    /// Live top-k cost `(full_ns, half_ns)`: the EWMA sample mean scaled
    /// by the serve tier's real probe accounting. A replica that has been
    /// probing degraded (half-width) lists reports a cheap average; the
    /// correction rescales it to the configured `nprobe` so the ladder
    /// prices a *full-fidelity* scan, and prices the halved tier by its
    /// actual probe ratio. Exact-scan replicas (no IVF) fall back to the
    /// plain EWMA and a halved guess.
    pub(crate) fn topk_cost_live(&self) -> (u64, u64) {
        let sig = self.server.signals();
        if let Some(nprobe) = sig.nprobe {
            if sig.ivf_queries > 0 && nprobe > 0 {
                let avg_probes_milli = sig.ivf_probes.saturating_mul(1000) / sig.ivf_queries;
                if let Some(full) = self
                    .est
                    .topk_ns
                    .saturating_mul(nprobe as u64 * 1000)
                    .checked_div(avg_probes_milli)
                {
                    let half = full.saturating_mul((nprobe / 2).max(1) as u64) / nprobe as u64;
                    return (full, half);
                }
            }
        }
        (self.est.topk_ns, self.est.topk_ns / 2)
    }

    fn resp_bytes(&self, kind: RequestKind) -> u64 {
        match kind {
            RequestKind::Get => (self.server.store().dim() * 4) as u64,
            RequestKind::TopK { k, .. } => 16 + 8 * k as u64,
        }
    }

    /// Drain the lane's queue up to `limit` (exclusive): repeatedly form
    /// the next batch at `t = clear_of(outages, max(ready, earliest
    /// arrival))`, triage it against the live cost ladder, serve it, and
    /// record the terminal events. A final drain round passes `u64::MAX`;
    /// a replica that never recovers then drops whatever is still queued.
    pub(crate) fn run_until(&mut self, limit: u64) {
        while let Some(earliest) = self.queue.iter().map(|q| q.req.arrival_ns).min() {
            let t = clear_of(self.outages, self.ready_ns.max(earliest));
            if t >= limit {
                break;
            }

            // Batch = the due requests (arrived by `t`), highest priority
            // first, then arrival order; the rest wait for a later batch.
            let mut due: Vec<Queued> = self
                .queue
                .extract_if(.., |q| q.req.arrival_ns <= t)
                .collect();
            due.sort_unstable_by_key(|q| (q.req.priority, q.seq));
            let take = due.len().min(self.batch_size);
            let picked: Vec<Queued> = due.drain(..take).collect();
            self.queue.extend(due);

            // Deadline gate + degrade ladder against live cost signals.
            let (topk_full_ns, topk_half_ns) = self.topk_cost_live();
            let mut batch: Vec<Request> = Vec::with_capacity(picked.len());
            let mut meta: Vec<(Queued, Outcome)> = Vec::with_capacity(picked.len());
            for q in picked {
                let slack = q.req.deadline_ns.saturating_sub(t);
                if slack == 0 {
                    self.push_drop(t, &q);
                    continue;
                }
                let (kind, outcome) = match q.req.request.kind {
                    RequestKind::Get => (RequestKind::Get, Outcome::Completed),
                    kind if topk_full_ns <= slack => (kind, Outcome::Completed),
                    RequestKind::TopK { k, nprobe } if topk_half_ns <= slack => {
                        // The scan nearly fits: halve k, and on an IVF
                        // replica halve the probe count with it — exact
                        // replicas only shrink the response on the wire,
                        // IVF replicas really halve the scanned lists.
                        let k = (k / 2).max(1);
                        let nprobe = nprobe
                            .map(|p| (p / 2).max(1))
                            .or_else(|| self.server.ivf().map(|ivf| (ivf.nprobe() / 2).max(1)));
                        (RequestKind::TopK { k, nprobe }, Outcome::DegradedReducedK)
                    }
                    // Only a point lookup fits: answer with the query
                    // node's own vector.
                    _ if self.est.get_ns <= slack => (RequestKind::Get, Outcome::DegradedToGet),
                    _ => {
                        self.push_drop(t, &q);
                        continue;
                    }
                };
                batch.push(Request {
                    node: q.req.request.node,
                    kind,
                });
                meta.push((q, outcome));
            }
            if batch.is_empty() {
                continue;
            }

            let sim_before = self.server.sim_now();
            let result = self.server.serve_batch(&batch);
            let batch_sim = self.server.sim_now() - sim_before;
            self.ready_ns = t.saturating_add(batch_sim.as_nanos());

            let net = NetModel::datacenter_25gbe();
            for (j, (q, outcome)) in meta.iter().enumerate() {
                let rpc = net
                    .rpc_time(REQ_BYTES, self.resp_bytes(batch[j].kind))
                    .as_nanos();
                let completion = t
                    .saturating_add(result.sim_latency_ns[j])
                    .saturating_add(rpc);
                let service = completion - t;

                match batch[j].kind {
                    RequestKind::Get => CostEst::update(&mut self.est.get_ns, service),
                    RequestKind::TopK { .. } => CostEst::update(&mut self.est.topk_ns, service),
                }

                self.events.push(LaneEvent {
                    event_ns: completion,
                    replica: self.r,
                    seq: q.seq,
                    tenant: q.req.tenant,
                    outcome: *outcome,
                    latency_ns: completion - q.req.arrival_ns,
                    wait_ns: t - q.req.arrival_ns,
                    slo_miss: completion > q.req.deadline_ns,
                });
            }
        }

        // A permanent outage strands the queue: the final drain round
        // (unbounded limit) turns the leftovers into drops so every
        // admitted request still reaches a terminal state.
        if limit == u64::MAX && !self.queue.is_empty() {
            for q in std::mem::take(&mut self.queue) {
                self.push_drop(q.req.arrival_ns, &q);
            }
        }
    }

    fn push_drop(&mut self, event_ns: u64, q: &Queued) {
        self.events.push(LaneEvent {
            event_ns,
            replica: self.r,
            seq: q.seq,
            tenant: q.req.tenant,
            outcome: Outcome::Dropped,
            latency_ns: 0,
            wait_ns: 0,
            slo_miss: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_half_open_spans() {
        let w = [(10, 20), (30, u64::MAX)];
        assert!(!is_down(&w, 9));
        assert!(is_down(&w, 10));
        assert!(!is_down(&w, 20));
        assert!(is_down(&w, 1 << 40), "an open-ended window never closes");
        assert!(!is_down(&[], 0));
    }

    #[test]
    fn clear_of_chains_overlapping_and_touching_windows() {
        // Overlapping [5, 20) and [15, 30), touching [30, 35): a clock
        // inside the first one clears only past the whole chain, in any
        // listing order.
        let w = [(15, 30), (30, 35), (5, 20)];
        assert_eq!(clear_of(&w, 7), 35);
        assert_eq!(clear_of(&w, 4), 4);
        assert_eq!(clear_of(&w, 35), 35);
        assert_eq!(clear_of(&[(0, u64::MAX)], 3), u64::MAX);
    }
}
