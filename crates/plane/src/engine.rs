//! The request-plane engine: an event-driven simulation that feeds the
//! open-loop timeline through admission, routing, and a tier of
//! [`EmbedServer`] replicas — with each replica running its own event
//! loop concurrently on the persistent `omega-par` pool.
//!
//! ## Round-based event loop
//!
//! Simulated time advances in fixed *quanta* ([`PlaneConfig`]'s
//! `quantum_ns`).
//! Each round has three strictly ordered stages:
//!
//! 1. **Front (sequential).** Every arrival inside the round is admitted,
//!    routed by its node's shard on the consistent-hash ring, and appended
//!    to its replica's ordered dispatch stream. Arrivals are a pure
//!    function of `(seed, tenant, index)`; admission and routing decide
//!    against a *virtual* per-replica gauge (free instant, queue depth,
//!    priced backlog) reset from replica truth at the top of the round.
//! 2. **Replica lanes (concurrent).** Each `ReplicaLane` drains its own
//!    queue up to the round boundary: batch formation, deadline triage,
//!    and `serve_batch` run per replica with per-replica `ThreadMem`
//!    contexts. Every decision a lane makes reads only its own simulated
//!    state, and its fault stream is keyed by what *it* processes
//!    (replica id via its own `MemSystem`, dispatch index via the
//!    server's request ordinals) — never by which worker thread ran it.
//! 3. **Merge (sequential).** Lane completion events merge back in fixed
//!    `(sim_time, replica, seq)` order before any counter or histogram is
//!    touched, so sim clocks, fault schedules and the metrics JSONL are
//!    byte-identical at any wall-thread count.
//!
//! Once the timeline is exhausted the final round runs with an unbounded
//! limit and drains every queue.
//!
//! ## Closed admission loop
//!
//! The degrade ladder and the router price work from *live* per-replica
//! signals instead of static priors: an EWMA over completed-request cost,
//! corrected by the serve tier's real IVF probe accounting (a replica
//! that has been probing half-width lists has its full-scan cost scaled
//! back up), and inflated by the replica's measured cache miss rate (a
//! cold cache makes every estimate pessimistic). See
//! [`ServeSignals`](omega_serve::ServeSignals).
//!
//! ## Deadline scheduling
//!
//! At dispatch each request's remaining slack (`deadline − now`) is
//! compared against the replica's live cost estimates:
//!
//! * no slack at all → **dropped** (the late answer would be useless work);
//! * a top-k whose full scan cannot finish in time degrades down a ladder
//!   — halved `k` and halved `nprobe` if the scan nearly fits, else a
//!   **point lookup** of the query node if that fits;
//! * otherwise the request runs at full fidelity.
//!
//! Every admitted request reaches exactly one terminal state, giving the
//! counter identity the integration tests pin:
//! `admitted == completed + degraded + dropped`.
//!
//! ## Replica failure steering
//!
//! [`Outage`] windows (typically extracted from a fault plan) take whole
//! replicas down: the front walks the ring's preference order to the
//! first live replica (counted in [`PlaneStats::rerouted_outage`]),
//! hedges only among live replicas, and a lane inside an outage window
//! pushes its dispatch clock past it. When the window closes the ring is
//! unchanged, so recovery restores the original routing by construction.

use crate::admission::{Admission, Verdict};
use crate::arrivals::{generate_timeline, PlaneRequest, TenantSpec};
use crate::router::Ring;
use omega_embed::Embedding;
use omega_hetmem::{MemSystem, NetModel, SimDuration};
use omega_obs::{LatencyHistogram, Recorder, Track};
use omega_serve::{EmbedServer, Request, RequestKind, ServeConfig};

/// Simulated wire size of one routed request (ids, kind, deadline, tenant).
const REQ_BYTES: u64 = 32;

/// Starting cost estimates (ns) before a replica has served anything —
/// quickly overwritten by the running averages.
const EST_GET_PRIOR_NS: u64 = 100_000;
const EST_TOPK_PRIOR_NS: u64 = 1_000_000;

/// Prime the pool's per-task estimate for a replica-lane round so the
/// first round already dispatches in parallel (a round of batches far
/// exceeds the sequential cutoff).
const LANE_TASK_EST_NS: u64 = 2_000_000;

/// Configuration of a [`RequestPlane`].
#[derive(Debug, Clone, Copy)]
pub struct PlaneConfig {
    /// Number of serving replicas.
    pub replicas: usize,
    /// Virtual nodes per replica on the consistent-hash ring.
    pub vnodes: u32,
    /// Seed of every plane-level draw (arrivals, ring placement).
    pub seed: u64,
    /// Arrivals are generated over `[0, horizon)`; dispatch continues
    /// until every queue drains.
    pub horizon: SimDuration,
    /// Most requests dispatched to a replica in one batch.
    pub batch_size: usize,
    /// Hard bound on any replica queue (admission sheds beyond
    /// priority-tiered fractions of this).
    pub max_queue: usize,
    /// Estimated queue wait (ns) beyond which an arrival is hedged to the
    /// ring successor instead of its primary replica.
    pub hedge_wait_ns: u64,
    /// Simulated length of one concurrent round: the front admits a
    /// quantum of arrivals, every replica lane runs to the boundary, and
    /// completions merge. Part of the simulation's semantics (routing
    /// gauges refresh at round boundaries), *not* a tuning knob for wall
    /// speed — results are identical at any wall-thread count but not
    /// across different quanta.
    pub quantum_ns: u64,
    /// The shared cluster link model charging front-to-replica RPCs.
    pub net: NetModel,
}

impl PlaneConfig {
    /// Defaults: 2 replicas × 32 vnodes, 1 s horizon, 32-deep batches,
    /// 256-deep queues, hedge past 2 ms of estimated wait, 5 ms rounds,
    /// 25 GbE links.
    pub fn new(replicas: usize) -> PlaneConfig {
        PlaneConfig {
            replicas,
            vnodes: 32,
            seed: 42,
            horizon: SimDuration::from_secs_f64(1.0),
            batch_size: 32,
            max_queue: 256,
            hedge_wait_ns: 2_000_000,
            quantum_ns: 5_000_000,
            net: NetModel::datacenter_25gbe(),
        }
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    pub fn max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    pub fn hedge_wait_ns(mut self, ns: u64) -> Self {
        self.hedge_wait_ns = ns;
        self
    }
}

/// A window during which one replica is entirely unreachable — the
/// request-plane face of a fault plan's `outage` rule. The front routes
/// around it, lanes dispatch past it, and a window closing restores the
/// original ring routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    pub replica: u32,
    pub from_ns: u64,
    /// Exclusive end; `u64::MAX` means the replica never comes back.
    pub until_ns: u64,
}

/// Terminal-state and verdict counters, kept both globally and per tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Arrivals presented to the front door.
    pub offered: u64,
    /// Arrivals past both admission gates. Every admitted request ends in
    /// exactly one of `completed`, `degraded`, `dropped`.
    pub admitted: u64,
    pub rejected_quota: u64,
    pub rejected_queue: u64,
    /// Served at full fidelity.
    pub completed: u64,
    /// Served with reduced fidelity (`degraded_reduced_k + degraded_to_get`).
    pub degraded: u64,
    pub degraded_reduced_k: u64,
    pub degraded_to_get: u64,
    /// Abandoned at dispatch: the deadline had already passed.
    pub dropped: u64,
    /// Admitted requests routed to the ring successor instead of the
    /// loaded primary. A route chosen for a request the front then refuses
    /// is not counted: nothing was sent.
    pub hedged_routes: u64,
    /// Admitted requests steered off a replica inside an [`Outage`]
    /// window.
    pub rerouted_outage: u64,
    /// Served requests whose completion still missed the deadline (the
    /// estimate was wrong); they remain `completed`/`degraded`.
    pub slo_miss: u64,
}

impl PlaneStats {
    /// The terminal-state identity every run must satisfy, plus the bound
    /// on routing counters: only an admitted request has a route.
    pub fn identity_holds(&self) -> bool {
        self.offered == self.admitted + self.rejected_quota + self.rejected_queue
            && self.admitted == self.completed + self.degraded + self.dropped
            && self.degraded == self.degraded_reduced_k + self.degraded_to_get
            && self.hedged_routes <= self.admitted
            && self.rerouted_outage <= self.admitted
    }

    /// The aggregate of per-tenant tallies: the run loop counts every
    /// event once, against its tenant, and the global view is their sum.
    fn sum(per_tenant: &[PlaneStats]) -> PlaneStats {
        let mut total = PlaneStats::default();
        for t in per_tenant {
            total.offered += t.offered;
            total.admitted += t.admitted;
            total.rejected_quota += t.rejected_quota;
            total.rejected_queue += t.rejected_queue;
            total.completed += t.completed;
            total.degraded += t.degraded;
            total.degraded_reduced_k += t.degraded_reduced_k;
            total.degraded_to_get += t.degraded_to_get;
            total.dropped += t.dropped;
            total.hedged_routes += t.hedged_routes;
            total.rerouted_outage += t.rerouted_outage;
            total.slo_miss += t.slo_miss;
        }
        total
    }
}

/// Result of [`RequestPlane::run`].
#[derive(Debug, Clone)]
pub struct PlaneReport {
    pub stats: PlaneStats,
    /// Per-tenant slice of the same counters, tenant-table order.
    pub per_tenant: Vec<PlaneStats>,
    /// Arrival→completion latency of every *served* request (completed or
    /// degraded), streamed into fixed log-spaced buckets — memory stays
    /// constant however many requests the sweep offers.
    pub latency: LatencyHistogram,
    /// Dispatch wait of every served request.
    pub queue_wait: LatencyHistogram,
    /// The arrival horizon the run was configured with.
    pub horizon: SimDuration,
    /// Simulated instant the last served request completed.
    pub end_ns: u64,
}

impl PlaneReport {
    /// Nearest-rank percentile of served-request latency (ns).
    pub fn latency_percentile_ns(&self, q: f64) -> u64 {
        self.latency.percentile(q)
    }

    /// Nearest-rank percentile of dispatch wait (ns).
    pub fn queue_wait_percentile_ns(&self, q: f64) -> u64 {
        self.queue_wait.percentile(q)
    }

    /// Served requests (completed + degraded) per simulated second of the
    /// whole run (arrival horizon or last completion, whichever is later).
    pub fn served_qps(&self) -> f64 {
        let end_s = (self.horizon.as_nanos().max(self.end_ns)) as f64 * 1e-9;
        if end_s == 0.0 {
            0.0
        } else {
            (self.stats.completed + self.stats.degraded) as f64 / end_s
        }
    }

    /// Full-fidelity, in-deadline completions per simulated second — the
    /// number the throughput-vs-p99 curve plots.
    pub fn goodput_qps(&self) -> f64 {
        let end_s = (self.horizon.as_nanos().max(self.end_ns)) as f64 * 1e-9;
        let good = (self.stats.completed + self.stats.degraded).saturating_sub(self.stats.slo_miss);
        if end_s == 0.0 {
            0.0
        } else {
            good as f64 / end_s
        }
    }
}

/// Dispatch-stream record of one run (see [`RequestPlane::run_traced`]):
/// which requests each replica processed, in its own processing order.
/// The property tests pin that the streams exactly partition the admitted
/// set and that they are identical at every wall-thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlaneTrace {
    /// Global arrival ordinals of every admitted request, arrival order.
    pub admitted: Vec<u64>,
    /// Per replica: `(event_ns, seq)` of every terminal event (serve or
    /// drop) in the order that replica processed them.
    pub streams: Vec<Vec<(u64, u64)>>,
}

/// A request sitting in a replica queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Global arrival ordinal — the dispatch tie-breaker after priority.
    seq: u64,
    req: PlaneRequest,
}

/// Per-replica running cost estimates (EWMA, ¾ old + ¼ new, u64 ns).
#[derive(Debug, Clone, Copy)]
struct CostEst {
    get_ns: u64,
    topk_ns: u64,
}

impl CostEst {
    fn prior() -> CostEst {
        CostEst {
            get_ns: EST_GET_PRIOR_NS,
            topk_ns: EST_TOPK_PRIOR_NS,
        }
    }

    fn update(est: &mut u64, sample: u64) {
        *est = (*est * 3 + sample) / 4;
    }
}

/// How one admitted request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Completed,
    DegradedReducedK,
    DegradedToGet,
    Dropped,
}

/// One terminal event produced by a replica lane, merged back on the
/// caller in `(event_ns, replica, seq)` order.
#[derive(Debug, Clone, Copy)]
struct LaneEvent {
    event_ns: u64,
    replica: u32,
    seq: u64,
    tenant: u32,
    outcome: Outcome,
    /// Arrival→completion (ns); 0 for drops.
    latency_ns: u64,
    /// Arrival→dispatch (ns); 0 for drops.
    wait_ns: u64,
    slo_miss: bool,
}

/// One replica's event loop: an ordered dispatch queue, its simulated
/// free instant, live cost estimates, and the [`EmbedServer`] behind it.
/// `run_until` advances the lane to a round boundary reading *only* lane
/// state — lanes never touch the metrics registry, so they are free to
/// run concurrently.
struct ReplicaLane<'a> {
    r: u32,
    server: &'a mut EmbedServer,
    queue: Vec<Queued>,
    /// Simulated instant the replica finishes its current batch.
    ready_ns: u64,
    est: CostEst,
    /// Outage windows `(from_ns, until_ns)` covering this replica.
    outages: Vec<(u64, u64)>,
    /// Terminal events of the current round, processing order.
    events: Vec<LaneEvent>,
    batch_size: usize,
    net: NetModel,
    dim: usize,
    /// Halved-fidelity probe count when serving through an IVF index.
    ivf_half_nprobe: Option<usize>,
}

impl ReplicaLane<'_> {
    /// Push `t` past every outage window covering it.
    fn outage_clear(&self, mut t: u64) -> u64 {
        loop {
            let mut moved = false;
            for &(from, until) in &self.outages {
                if from <= t && t < until {
                    t = until;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }

    /// Live top-k cost `(full_ns, half_ns)`: the EWMA sample mean scaled
    /// by the serve tier's real probe accounting. A replica that has been
    /// probing degraded (half-width) lists reports a cheap average; the
    /// correction rescales it to the configured `nprobe` so the ladder
    /// prices a *full-fidelity* scan, and prices the halved tier by its
    /// actual probe ratio. Exact-scan replicas (no IVF) fall back to the
    /// plain EWMA and a halved guess.
    fn topk_cost_live(&self) -> (u64, u64) {
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
            RequestKind::Get => (self.dim * 4) as u64,
            RequestKind::TopK { k, .. } => 16 + 8 * k as u64,
        }
    }

    /// Drain the lane's queue up to `limit` (exclusive): repeatedly form
    /// the next batch at `t = outage_clear(max(ready, earliest arrival))`,
    /// triage it against the live cost ladder, serve it, and record the
    /// terminal events. A final drain round passes `u64::MAX`; a replica
    /// that never recovers then drops whatever is still queued.
    fn run_until(&mut self, limit: u64) {
        while let Some(earliest) = self.queue.iter().map(|q| q.req.arrival_ns).min() {
            let t = self.outage_clear(self.ready_ns.max(earliest));
            if t >= limit {
                break;
            }

            // Batch = the due requests (arrived by `t`), highest priority
            // first, then arrival order; the rest wait for a later batch.
            let mut due: Vec<Queued> = Vec::new();
            let mut rest: Vec<Queued> = Vec::with_capacity(self.queue.len());
            for q in self.queue.drain(..) {
                if q.req.arrival_ns <= t {
                    due.push(q);
                } else {
                    rest.push(q);
                }
            }
            due.sort_unstable_by_key(|q| (q.req.priority, q.seq));
            let take = due.len().min(self.batch_size);
            let picked: Vec<Queued> = due.drain(..take).collect();
            rest.extend(due);
            self.queue = rest;

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
                let (request, outcome) = match q.req.request.kind {
                    RequestKind::Get => (q.req.request, Outcome::Completed),
                    RequestKind::TopK { k, nprobe } => {
                        if topk_full_ns <= slack {
                            (q.req.request, Outcome::Completed)
                        } else if topk_half_ns <= slack {
                            // The scan nearly fits: halve k, and on an
                            // IVF replica halve the probe count with it —
                            // exact replicas only shrink the response on
                            // the wire, IVF replicas really halve the
                            // scanned lists.
                            let k = (k / 2).max(1);
                            let nprobe = nprobe.map(|p| (p / 2).max(1)).or(self.ivf_half_nprobe);
                            (
                                Request {
                                    node: q.req.request.node,
                                    kind: RequestKind::TopK { k, nprobe },
                                },
                                Outcome::DegradedReducedK,
                            )
                        } else if self.est.get_ns <= slack {
                            // Only a point lookup fits: answer with the
                            // query node's own vector.
                            (
                                Request {
                                    node: q.req.request.node,
                                    kind: RequestKind::Get,
                                },
                                Outcome::DegradedToGet,
                            )
                        } else {
                            self.push_drop(t, &q);
                            continue;
                        }
                    }
                };
                batch.push(request);
                meta.push((q, outcome));
            }
            if batch.is_empty() {
                continue;
            }

            let sim_before = self.server.sim_now();
            let result = self.server.serve_batch(&batch);
            let batch_sim = self.server.sim_now() - sim_before;
            self.ready_ns = t + batch_sim.as_nanos();

            for (j, (q, outcome)) in meta.iter().enumerate() {
                let rpc = self
                    .net
                    .rpc_time(REQ_BYTES, self.resp_bytes(batch[j].kind))
                    .as_nanos();
                let completion = t + result.sim_latency_ns[j] + rpc;
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

/// The front's virtual gauge of one replica, reset from lane truth at the
/// top of every round and advanced as the round's arrivals are admitted.
/// Prices come from the lane's live estimates inflated by the replica's
/// measured cache miss rate — a cold replica looks expensive to the
/// router before its queue ever backs up.
#[derive(Debug, Clone, Copy, Default)]
struct FrontGauge {
    /// Simulated instant the replica frees up (lane truth).
    vready_ns: u64,
    /// Queue depth the admission gate sees.
    vdepth: usize,
    /// Priced simulated work sitting in the queue (ns).
    backlog_ns: u64,
    /// Price of routing one more Get / TopK here (ns).
    price_get_ns: u64,
    price_topk_ns: u64,
}

impl FrontGauge {
    /// Estimated wait a request joining this replica at `now_ns` sees.
    fn est_wait(&self, now_ns: u64) -> u64 {
        self.vready_ns.saturating_sub(now_ns) + self.backlog_ns
    }

    fn price(&self, kind: RequestKind) -> u64 {
        match kind {
            RequestKind::Get => self.price_get_ns,
            RequestKind::TopK { .. } => self.price_topk_ns,
        }
    }

    /// Miss-rate inflation: a replica whose cache misses half its Gets
    /// gets its estimates marked up 25%, one that hits everything keeps
    /// them as-is.
    fn inflate(ns: u64, hit_rate: f64) -> u64 {
        ns + (ns as f64 * (1.0 - hit_rate) * 0.5) as u64
    }

    fn refresh(lane: &ReplicaLane<'_>) -> FrontGauge {
        let sig = lane.server.signals();
        let (topk_full_ns, _) = lane.topk_cost_live();
        let price_get_ns = FrontGauge::inflate(lane.est.get_ns, sig.hit_rate);
        let price_topk_ns = FrontGauge::inflate(topk_full_ns, sig.hit_rate);
        let mut gauge = FrontGauge {
            vready_ns: lane.ready_ns,
            vdepth: lane.queue.len(),
            backlog_ns: 0,
            price_get_ns,
            price_topk_ns,
        };
        gauge.backlog_ns = lane
            .queue
            .iter()
            .map(|q| gauge.price(q.req.request.kind))
            .sum();
        gauge
    }
}

/// The admission-controlled request plane over N replicas.
pub struct RequestPlane {
    cfg: PlaneConfig,
    servers: Vec<EmbedServer>,
    ring: Ring,
    rec: Recorder,
    outages: Vec<Outage>,
}

impl RequestPlane {
    /// Stand up `cfg.replicas` servers, one per provided [`MemSystem`]
    /// (callers install per-replica fault plans on those systems first —
    /// the servers' retry/hedge/degrade machinery reacts to whatever the
    /// plans inject). Every replica holds a full copy of the table.
    pub fn new(
        systems: &[MemSystem],
        emb: &Embedding,
        serve_cfg: ServeConfig,
        cfg: PlaneConfig,
    ) -> omega_hetmem::Result<RequestPlane> {
        assert!(cfg.replicas > 0, "plane needs at least one replica");
        assert_eq!(
            systems.len(),
            cfg.replicas,
            "one MemSystem per replica required"
        );
        let servers = systems
            .iter()
            .map(|sys| EmbedServer::new(sys, emb, serve_cfg))
            .collect::<omega_hetmem::Result<Vec<_>>>()?;
        Ok(RequestPlane {
            ring: Ring::new(cfg.replicas as u32, cfg.vnodes, cfg.seed),
            cfg,
            servers,
            rec: Recorder::disabled(),
            outages: Vec::new(),
        })
    }

    /// Instrument the plane: replica `r`'s serving spans land on track
    /// `(pid = r + 1, tid = 0)`; plane verdicts/latency metrics go to the
    /// recorder's registry.
    pub fn with_recorder(mut self, rec: &Recorder) -> Self {
        self.rec = rec.clone();
        self.servers = self
            .servers
            .drain(..)
            .enumerate()
            .map(|(r, srv)| {
                let track = Track::new(r as u32 + 1, 0);
                rec.set_track_name(track, &format!("replica {r}"));
                srv.with_recorder(rec, track)
            })
            .collect();
        self
    }

    /// Declare replica outage windows (typically extracted from a fault
    /// plan's `outage` rules) for the next run.
    pub fn with_outages(mut self, outages: &[Outage]) -> Self {
        self.outages = outages.to_vec();
        self
    }

    pub fn config(&self) -> &PlaneConfig {
        &self.cfg
    }

    pub fn servers(&self) -> &[EmbedServer] {
        &self.servers
    }

    /// Run the open-loop timeline of `tenants` through the plane.
    pub fn run(&mut self, tenants: &[TenantSpec]) -> PlaneReport {
        self.run_impl(tenants, None)
    }

    /// [`run`](Self::run), also recording the per-replica dispatch
    /// streams for the partition property tests.
    pub fn run_traced(&mut self, tenants: &[TenantSpec]) -> (PlaneReport, PlaneTrace) {
        let mut trace = PlaneTrace {
            admitted: Vec::new(),
            streams: vec![Vec::new(); self.cfg.replicas],
        };
        let report = self.run_impl(tenants, Some(&mut trace));
        (report, trace)
    }

    fn run_impl(
        &mut self,
        tenants: &[TenantSpec],
        mut trace: Option<&mut PlaneTrace>,
    ) -> PlaneReport {
        let timeline = generate_timeline(self.cfg.seed, tenants, self.cfg.horizon.as_nanos());
        let quotas: Vec<(f64, f64)> = tenants.iter().map(|t| (t.quota_qps, t.burst)).collect();
        let mut admission = Admission::new(&quotas, self.cfg.max_queue);

        let cfg = self.cfg;
        let nr = cfg.replicas;
        let threads = self.servers[0].config().threads;
        let dim = self.servers[0].store().dim();
        let ivf_half_nprobe: Option<usize> =
            self.servers[0].ivf().map(|ivf| (ivf.nprobe() / 2).max(1));
        // Shards are read off the (shared) store layout before the lanes
        // mutably borrow the servers.
        let shards: Vec<u64> = timeline
            .iter()
            .map(|r| self.servers[0].store().shard_of(r.request.node) as u64)
            .collect();

        let mut outage_windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nr];
        for o in &self.outages {
            if (o.replica as usize) < nr {
                outage_windows[o.replica as usize].push((o.from_ns, o.until_ns));
            }
        }
        let have_outages = outage_windows.iter().any(|w| !w.is_empty());
        let alive = |r: usize, now: u64| -> bool {
            !outage_windows[r]
                .iter()
                .any(|&(from, until)| from <= now && now < until)
        };

        let ring = &self.ring;
        let rec = &self.rec;
        let mut lanes: Vec<ReplicaLane<'_>> = self
            .servers
            .iter_mut()
            .enumerate()
            .map(|(r, server)| ReplicaLane {
                r: r as u32,
                server,
                queue: Vec::new(),
                ready_ns: 0,
                est: CostEst::prior(),
                outages: outage_windows[r].clone(),
                events: Vec::new(),
                batch_size: cfg.batch_size,
                net: cfg.net,
                dim,
                ivf_half_nprobe,
            })
            .collect();
        omega_par::prime_task_estimate("plane.lane", LANE_TASK_EST_NS);

        let mut per_tenant = vec![PlaneStats::default(); tenants.len()];
        let mut latency = LatencyHistogram::new();
        let mut queue_wait = LatencyHistogram::new();
        let mut end_ns: u64 = 0;

        let mut ai = 0usize; // next timeline arrival
        let mut round_end = cfg.quantum_ns;
        loop {
            let draining = ai >= timeline.len();
            let limit = if draining { u64::MAX } else { round_end };

            // 1. Front: admit and route this round's arrivals against the
            // virtual gauges (refreshed from lane truth each round).
            let mut gauges: Vec<FrontGauge> = lanes.iter().map(FrontGauge::refresh).collect();
            while ai < timeline.len() && timeline[ai].arrival_ns < limit {
                let req = timeline[ai];
                let seq = ai as u64;
                let shard = shards[ai];
                ai += 1;
                let now = req.arrival_ns;
                let ti = req.tenant as usize;
                let tally = &mut per_tenant[ti];
                tally.offered += 1;

                // Route by the node's shard so one shard's traffic always
                // hits the same hot cache. A primary inside an outage
                // window steers down the ring's preference order to the
                // first live replica; hedging picks the next live
                // successor when the chosen replica's estimated wait is
                // past the knob and the alternative (plus its extra
                // forward hop) looks better.
                let primary = ring.primary(shard) as usize;
                let mut replica = primary;
                let mut any_alive = true;
                let mut rerouted = false;
                let mut hedged = false;
                if !alive(primary, now) {
                    match ring
                        .preference(shard)
                        .into_iter()
                        .find(|&r| alive(r as usize, now))
                    {
                        Some(r) => {
                            replica = r as usize;
                            rerouted = true;
                        }
                        None => any_alive = false,
                    }
                }
                if any_alive && nr > 1 {
                    let wait_p = gauges[replica].est_wait(now);
                    if wait_p > cfg.hedge_wait_ns {
                        // Fault-free runs take the allocation-free ring
                        // successor; under outages walk the preference
                        // order to the next live distinct replica.
                        let succ = if have_outages {
                            ring.preference(shard)
                                .into_iter()
                                .find(|&r| r as usize != replica && alive(r as usize, now))
                        } else {
                            Some(ring.successor(shard))
                        };
                        if let Some(succ) = succ.filter(|&s| s as usize != replica) {
                            let succ = succ as usize;
                            let hop = cfg.net.forward_time(REQ_BYTES).as_nanos();
                            let wait_s = gauges[succ].est_wait(now);
                            if wait_s + hop < wait_p {
                                replica = succ;
                                hedged = true;
                            }
                        }
                    }
                }

                // With every replica down the request has nowhere to
                // queue: an unbounded depth spends the quota token (the
                // request was offered) and sheds it as a queue rejection.
                let depth = if any_alive {
                    gauges[replica].vdepth
                } else {
                    usize::MAX
                };
                match admission.admit(ti, req.priority, now, depth) {
                    Verdict::Admitted => {
                        tally.admitted += 1;
                        tally.rerouted_outage += u64::from(rerouted);
                        tally.hedged_routes += u64::from(hedged);
                        rec.observe("plane.queue.depth", depth as f64);
                        gauges[replica].vdepth += 1;
                        gauges[replica].backlog_ns += gauges[replica].price(req.request.kind);
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.admitted.push(seq);
                        }
                        lanes[replica].queue.push(Queued { seq, req });
                    }
                    Verdict::RejectedQuota => tally.rejected_quota += 1,
                    Verdict::RejectedQueue => tally.rejected_queue += 1,
                }
            }

            // 2. Replica lanes run concurrently to the round boundary.
            // Each lane reads only its own state; the pool's inline
            // fallback on small hosts executes the same code in replica
            // order, so results are identical either way.
            omega_par::phase_scope("plane.round", || {
                let lane_slots: Vec<&mut [ReplicaLane<'_>]> = lanes.chunks_mut(1).collect();
                omega_par::for_each_chunk_labeled("plane.lane", threads, lane_slots, |_, lane| {
                    lane[0].run_until(limit);
                });
            });

            // 3. Merge: fold this round's terminal events back in fixed
            // (sim_time, replica, seq) order before touching any counter
            // or histogram — the registry's float accumulators are
            // order-sensitive, the merge order never is.
            let mut round_events: Vec<LaneEvent> = Vec::new();
            for lane in &mut lanes {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.streams[lane.r as usize]
                        .extend(lane.events.iter().map(|e| (e.event_ns, e.seq)));
                }
                round_events.append(&mut lane.events);
            }
            round_events.sort_unstable_by_key(|e| (e.event_ns, e.replica, e.seq));
            for e in &round_events {
                let tally = &mut per_tenant[e.tenant as usize];
                match e.outcome {
                    Outcome::Completed => tally.completed += 1,
                    Outcome::DegradedReducedK => {
                        tally.degraded += 1;
                        tally.degraded_reduced_k += 1;
                    }
                    Outcome::DegradedToGet => {
                        tally.degraded += 1;
                        tally.degraded_to_get += 1;
                    }
                    Outcome::Dropped => {
                        tally.dropped += 1;
                        continue;
                    }
                }
                if e.slo_miss {
                    tally.slo_miss += 1;
                }
                end_ns = end_ns.max(e.event_ns);
                latency.record(e.latency_ns);
                queue_wait.record(e.wait_ns);
                rec.observe("plane.latency_ns", e.latency_ns as f64);
                rec.observe("plane.queue.wait_ns", e.wait_ns as f64);
            }

            if draining {
                break;
            }
            round_end += cfg.quantum_ns;
        }
        drop(lanes);

        let report = PlaneReport {
            stats: PlaneStats::sum(&per_tenant),
            per_tenant,
            latency,
            queue_wait,
            horizon: self.cfg.horizon,
            end_ns,
        };
        self.publish(&report, tenants);
        debug_assert!(report.stats.identity_holds(), "terminal-state identity");
        report
    }

    /// Publish the run's verdict counters and goodput through the
    /// recorder's registry (BTreeMap-backed, so export order — and the
    /// metrics JSONL bytes — is deterministic).
    fn publish(&self, report: &PlaneReport, tenants: &[TenantSpec]) {
        let s = &report.stats;
        self.rec.counter_set("plane.offered", s.offered);
        self.rec.counter_set("plane.admitted", s.admitted);
        self.rec
            .counter_set("plane.rejected.quota", s.rejected_quota);
        self.rec
            .counter_set("plane.rejected.queue", s.rejected_queue);
        self.rec.counter_set("plane.completed", s.completed);
        self.rec.counter_set("plane.degraded", s.degraded);
        self.rec
            .counter_set("plane.degraded.reduced_k", s.degraded_reduced_k);
        self.rec
            .counter_set("plane.degraded.to_get", s.degraded_to_get);
        self.rec.counter_set("plane.dropped", s.dropped);
        self.rec.counter_set("plane.hedged_routes", s.hedged_routes);
        self.rec
            .counter_set("plane.rerouted_outage", s.rerouted_outage);
        self.rec.counter_set("plane.slo_miss", s.slo_miss);
        self.rec
            .gauge_set("plane.goodput_qps", report.goodput_qps());
        self.rec.gauge_set("plane.served_qps", report.served_qps());
        for (ti, t) in tenants.iter().enumerate() {
            let p = &report.per_tenant[ti];
            let name = &t.name;
            self.rec
                .counter_set(&format!("plane.tenant.{name}.offered"), p.offered);
            self.rec
                .counter_set(&format!("plane.tenant.{name}.admitted"), p.admitted);
            self.rec.counter_set(
                &format!("plane.tenant.{name}.rejected"),
                p.rejected_quota + p.rejected_queue,
            );
            self.rec
                .counter_set(&format!("plane.tenant.{name}.completed"), p.completed);
            self.rec
                .counter_set(&format!("plane.tenant.{name}.degraded"), p.degraded);
            self.rec
                .counter_set(&format!("plane.tenant.{name}.dropped"), p.dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalProcess, Priority};
    use omega_hetmem::{MemSystem, Topology};
    use omega_serve::{Popularity, WorkloadConfig};

    fn small_plane(replicas: usize, rate: f64) -> (RequestPlane, Vec<TenantSpec>) {
        let emb = Embedding::from_row_major(512, 8, vec![0.25; 512 * 8]);
        let systems: Vec<MemSystem> = (0..replicas)
            .map(|_| MemSystem::new(Topology::paper_machine_scaled(8 << 20)))
            .collect();
        let serve_cfg = ServeConfig::new(8 << 10).rows_per_shard(32).batch_size(16);
        let cfg = PlaneConfig::new(replicas)
            .seed(7)
            .horizon(SimDuration::from_secs_f64(0.05));
        let plane = RequestPlane::new(&systems, &emb, serve_cfg, cfg).unwrap();
        let wl = WorkloadConfig::lookups(512, Popularity::Zipf { s: 1.0 }, 3).with_topk(0.2, 8);
        let tenants = vec![
            TenantSpec::poisson("interactive", rate * 0.6, wl).with_priority(Priority::High),
            TenantSpec::poisson("batch", rate * 0.4, wl).with_priority(Priority::Low),
        ];
        (plane, tenants)
    }

    #[test]
    fn identity_holds_at_low_load() {
        let (mut plane, tenants) = small_plane(2, 2_000.0);
        let report = plane.run(&tenants);
        assert!(report.stats.identity_holds(), "{:?}", report.stats);
        assert!(report.stats.offered > 0);
        assert!(report.stats.completed > 0);
        assert_eq!(
            report.latency.count(),
            report.stats.completed + report.stats.degraded
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut a, tenants) = small_plane(2, 20_000.0);
        let (mut b, _) = small_plane(2, 20_000.0);
        let ra = a.run(&tenants);
        let rb = b.run(&tenants);
        assert_eq!(ra.stats, rb.stats);
        assert_eq!(ra.latency, rb.latency);
        assert_eq!(ra.queue_wait, rb.queue_wait);
    }

    #[test]
    fn traced_streams_partition_the_admitted_set() {
        let (mut plane, tenants) = small_plane(4, 30_000.0);
        let (report, trace) = plane.run_traced(&tenants);
        assert!(report.stats.identity_holds());
        let mut union: Vec<u64> = trace
            .streams
            .iter()
            .flat_map(|s| s.iter().map(|&(_, seq)| seq))
            .collect();
        union.sort_unstable();
        let mut admitted = trace.admitted.clone();
        admitted.sort_unstable();
        assert_eq!(union, admitted, "streams must partition the admitted set");
        assert_eq!(union.len() as u64, report.stats.admitted);
    }

    #[test]
    fn overload_sheds_instead_of_queueing() {
        // Offered load far past the quota, with an SLO tight enough that
        // queued top-k work degrades or drops at dispatch.
        let (mut plane, mut tenants) = small_plane(1, 400_000.0);
        for t in &mut tenants {
            *t = t
                .clone()
                .with_quota(30_000.0, 16.0)
                .with_deadline_ns(300_000);
        }
        let report = plane.run(&tenants);
        assert!(report.stats.identity_holds(), "{:?}", report.stats);
        let shed = report.stats.rejected_quota
            + report.stats.rejected_queue
            + report.stats.dropped
            + report.stats.degraded;
        assert!(shed > 0, "overload must shed work: {:?}", report.stats);
        // Served requests dispatch within ~a deadline of arriving, so the
        // served p99 stays bounded even though offered load is unbounded.
        let p99 = report.latency_percentile_ns(0.99);
        let deadline = tenants[0].deadline_ns;
        assert!(
            p99 < 4 * deadline,
            "served p99 {p99} ns should stay within a few deadlines ({deadline} ns)"
        );
    }

    #[test]
    fn flash_crowd_trips_admission() {
        let (mut plane, mut tenants) = small_plane(1, 1_000.0);
        tenants[1] = tenants[1].clone().with_process(ArrivalProcess::FlashCrowd {
            base_rate_per_s: 400.0,
            spike_rate_per_s: 600_000.0,
            spike_start_s: 0.01,
            spike_len_s: 0.02,
        });
        let report = plane.run(&tenants);
        assert!(report.stats.identity_holds());
        assert!(
            report.per_tenant[1].rejected_quota > 0,
            "the flash crowd must exhaust its quota: {:?}",
            report.per_tenant[1]
        );
        // The high-priority tenant keeps the bulk of its traffic served.
        let t0 = &report.per_tenant[0];
        assert!(
            (t0.completed + t0.degraded) * 10 > t0.offered * 8,
            "interactive tenant starved: {t0:?}"
        );
    }

    #[test]
    fn replicas_spread_work() {
        let (mut plane, tenants) = small_plane(4, 50_000.0);
        let report = plane.run(&tenants);
        assert!(report.stats.identity_holds());
        let served: Vec<u64> = plane.servers().iter().map(|s| s.stats().requests).collect();
        assert!(served.iter().filter(|&&n| n > 0).count() >= 3, "{served:?}");
    }

    #[test]
    fn outage_reroutes_then_recovery_restores_routing() {
        // Replica 0 is down for the first half of the run: its traffic
        // steers to live replicas, and once the window closes the ring
        // (unchanged) routes to it again.
        let (plane, tenants) = small_plane(2, 20_000.0);
        let mut plane = plane.with_outages(&[Outage {
            replica: 0,
            from_ns: 0,
            until_ns: 25_000_000,
        }]);
        let report = plane.run(&tenants);
        assert!(report.stats.identity_holds(), "{:?}", report.stats);
        assert!(
            report.stats.rerouted_outage > 0,
            "outage must steer traffic: {:?}",
            report.stats
        );
        assert!(
            plane.servers()[0].stats().requests > 0,
            "recovery must restore routing to replica 0"
        );
        assert!(plane.servers()[1].stats().requests > 0);
    }

    #[test]
    fn permanent_outage_of_all_replicas_sheds_everything() {
        let (plane, tenants) = small_plane(2, 5_000.0);
        let mut plane = plane.with_outages(&[
            Outage {
                replica: 0,
                from_ns: 0,
                until_ns: u64::MAX,
            },
            Outage {
                replica: 1,
                from_ns: 0,
                until_ns: u64::MAX,
            },
        ]);
        let report = plane.run(&tenants);
        assert!(report.stats.identity_holds(), "{:?}", report.stats);
        assert_eq!(report.stats.completed, 0);
        assert_eq!(report.stats.admitted, 0, "nowhere to queue");
        assert_eq!(
            report.stats.rejected_quota + report.stats.rejected_queue,
            report.stats.offered
        );
    }
}
