//! The request-plane engine: an event-driven simulation that feeds the
//! open-loop timeline through admission, routing, and a tier of
//! [`EmbedServer`] replicas — with each replica running its own event
//! loop concurrently on the persistent `omega-par` pool.
//!
//! This file holds the configuration, the plane and its round loop. The
//! front door (routing, hedging, outage steering, admission) is
//! `front.rs`, a replica's event loop (deadline triage and the degrade
//! ladder) `lane.rs`, and what a run reports `report.rs`.
//!
//! ## Round-based event loop
//!
//! Simulated time advances in fixed 5 ms *quanta*. Each round has three
//! strictly ordered stages:
//!
//! 1. **Front (sequential).** Every arrival inside the round is routed by
//!    its node's shard down that shard's ring preference order, hedged,
//!    and admitted or refused, then appended to its replica's ordered
//!    dispatch stream. Arrivals are a pure function of `(seed, tenant,
//!    index)`; admission and routing decide against a *virtual*
//!    per-replica gauge (free instant, queue depth, priced backlog) reset
//!    from replica truth at the top of the round.
//! 2. **Replica lanes (concurrent).** Each lane drains its own queue up
//!    to the round boundary: batch formation, deadline triage, and
//!    `serve_batch` run per replica with per-replica `ThreadMem`
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
use crate::admission::{Admission, Verdict};
use crate::arrivals::{generate_timeline, TenantSpec};
use crate::front::Front;
use crate::lane::{LaneEvent, Outcome, Queued, ReplicaLane};
use crate::report::{PlaneReport, PlaneStats, PlaneTrace};
use crate::router::Ring;
use omega_embed::Embedding;
use omega_hetmem::{MemSystem, SimDuration};
use omega_obs::{LatencyHistogram, Recorder, Track};
use omega_serve::{EmbedServer, ServeConfig};

/// Simulated length of one concurrent round: the front admits a quantum
/// of arrivals, every replica lane runs to the boundary, and completions
/// merge. Part of the simulation's semantics (routing gauges refresh at
/// round boundaries) — results are identical at any wall-thread count but
/// would not be across different quanta.
const QUANTUM_NS: u64 = 5_000_000;

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
    /// next live replica of its shard's preference order.
    pub hedge_wait_ns: u64,
}

impl PlaneConfig {
    /// Defaults: 2 replicas × 32 vnodes, 1 s horizon, 32-deep batches,
    /// 256-deep queues, hedge past 2 ms of estimated wait.
    pub fn new(replicas: usize) -> PlaneConfig {
        PlaneConfig {
            replicas,
            vnodes: 32,
            seed: 42,
            horizon: SimDuration::from_secs_f64(1.0),
            batch_size: 32,
            max_queue: 256,
            hedge_wait_ns: 2_000_000,
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

/// The admission-controlled request plane over N replicas.
pub struct RequestPlane {
    cfg: PlaneConfig,
    servers: Vec<EmbedServer>,
    /// Every shard's ring preference order, `replicas` entries a shard.
    prefs: Vec<u32>,
    rec: Recorder,
    /// Per replica, the outage windows `(from_ns, until_ns)` covering it.
    outages: Vec<Vec<(u64, u64)>>,
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
        let ring = Ring::new(cfg.replicas as u32, cfg.vnodes, cfg.seed);
        let prefs = (0..servers[0].store().num_shards() as u64)
            .flat_map(|shard| ring.preference(shard))
            .collect();
        Ok(RequestPlane {
            cfg,
            servers,
            prefs,
            rec: Recorder::disabled(),
            outages: vec![Vec::new(); cfg.replicas],
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

    /// Declare replica outage windows `(replica, from_ns, until_ns)` —
    /// what `FaultPlanSpec::outages` returns — for every later run,
    /// replacing any declared before. A window is half-open, and
    /// `until_ns == u64::MAX` means the replica never comes back.
    ///
    /// # Panics
    ///
    /// If a window names a replica the plane does not have.
    pub fn with_outages(mut self, outages: &[(u32, u64, u64)]) -> Self {
        let replicas = self.cfg.replicas;
        self.outages = vec![Vec::new(); replicas];
        for &(replica, from_ns, until_ns) in outages {
            assert!(
                (replica as usize) < replicas,
                "outage on replica {replica}, but the plane has {replicas}"
            );
            self.outages[replica as usize].push((from_ns, until_ns));
        }
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
        let cfg = self.cfg;
        let timeline = generate_timeline(cfg.seed, tenants, cfg.horizon.as_nanos());
        let quotas: Vec<(f64, f64)> = tenants.iter().map(|t| (t.quota_qps, t.burst)).collect();
        let threads = self.servers[0].config().threads;
        // The store layout is shared; read it before the lanes mutably
        // borrow the servers.
        let rows_per_shard = self.servers[0].store().rows_per_shard();
        let mut front = Front::new(
            &self.prefs,
            &self.outages,
            rows_per_shard,
            cfg.hedge_wait_ns,
            Admission::new(&quotas, cfg.max_queue),
        );

        let rec = &self.rec;
        let mut lanes: Vec<ReplicaLane<'_>> = self
            .servers
            .iter_mut()
            .zip(&self.outages)
            .enumerate()
            .map(|(r, (server, outages))| {
                ReplicaLane::new(r as u32, server, outages, cfg.batch_size)
            })
            .collect();
        omega_par::prime_task_estimate("plane.lane", LANE_TASK_EST_NS);

        let mut per_tenant = vec![PlaneStats::default(); tenants.len()];
        let mut latency = LatencyHistogram::new();
        let mut queue_wait = LatencyHistogram::new();
        let mut end_ns: u64 = 0;

        let mut ai = 0usize; // next timeline arrival
        let mut round_end = QUANTUM_NS;
        loop {
            let draining = ai >= timeline.len();
            let limit = if draining { u64::MAX } else { round_end };

            // 1. Front: route and admit this round's arrivals against the
            // virtual gauges (refreshed from lane truth each round).
            front.refresh(&lanes);
            while ai < timeline.len() && timeline[ai].arrival_ns < limit {
                let req = timeline[ai];
                let seq = ai as u64;
                ai += 1;
                let tally = &mut per_tenant[req.tenant as usize];
                tally.offered += 1;
                let (verdict, route) = front.decide(&req);
                match verdict {
                    Verdict::Admitted => {
                        tally.admitted += 1;
                        tally.rerouted_outage += u64::from(route.rerouted);
                        tally.hedged_routes += u64::from(route.hedged);
                        rec.observe("plane.queue.depth", route.depth as u64);
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.admitted.push(seq);
                        }
                        lanes[route.replica].queue.push(Queued { seq, req });
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
                rec.observe("plane.latency_ns", e.latency_ns);
                rec.observe("plane.queue.wait_ns", e.wait_ns);
            }

            if draining {
                break;
            }
            round_end += QUANTUM_NS;
        }
        drop(lanes);

        let report = PlaneReport {
            stats: PlaneStats::sum(&per_tenant),
            per_tenant,
            latency,
            queue_wait,
            horizon: cfg.horizon,
            end_ns,
        };
        report.publish(&self.rec, tenants);
        debug_assert!(report.stats.identity_holds(), "terminal-state identity");
        report
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
        let p99 = report.latency.percentile(0.99);
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
        let mut plane = plane.with_outages(&[(0, 0, 25_000_000)]);
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
    #[should_panic(expected = "outage on replica 2, but the plane has 2")]
    fn outage_on_a_missing_replica_is_refused() {
        let (plane, _) = small_plane(2, 5_000.0);
        let _ = plane.with_outages(&[(2, 0, u64::MAX)]);
    }

    #[test]
    fn permanent_outage_of_all_replicas_sheds_everything() {
        let (plane, tenants) = small_plane(2, 5_000.0);
        let mut plane = plane.with_outages(&[(0, 0, u64::MAX), (1, 0, u64::MAX)]);
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
