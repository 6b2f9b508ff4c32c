//! The front door: a virtual gauge of every replica, and the per-arrival
//! route → hedge → admit decision made against those gauges.
//!
//! Routing reads one table built when the plane is: each shard's replica
//! preference order on the consistent-hash ring. The primary is its first
//! entry, an arrival whose primary is inside an outage window goes to the
//! first live entry, and a hedge goes to the first live entry other than
//! the replica already chosen. A fault-free run is the case where every
//! entry is live, so there is one routing path; and since the table never
//! changes, a closing outage window restores the original routing.
//!
//! Prices are live: each gauge inflates its lane's cost estimates by the
//! replica's measured cache miss rate, so a cold replica looks expensive
//! before its queue ever backs up.

use crate::admission::{Admission, Verdict};
use crate::arrivals::PlaneRequest;
use crate::lane::{is_down, ReplicaLane, REQ_BYTES};
use omega_hetmem::NetModel;
use omega_serve::RequestKind;

/// The front's virtual gauge of one replica, reset from lane truth at the
/// top of every round and advanced as the round's arrivals are admitted.
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
        self.vready_ns
            .saturating_sub(now_ns)
            .saturating_add(self.backlog_ns)
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
        ns.saturating_add((ns as f64 * (1.0 - hit_rate) * 0.5) as u64)
    }

    fn refresh(lane: &ReplicaLane<'_>) -> FrontGauge {
        let hit_rate = lane.server.signals().hit_rate;
        let mut gauge = FrontGauge {
            vready_ns: lane.ready_ns,
            vdepth: lane.queue.len(),
            backlog_ns: 0,
            price_get_ns: FrontGauge::inflate(lane.est.get_ns, hit_rate),
            price_topk_ns: FrontGauge::inflate(lane.topk_cost_live().0, hit_rate),
        };
        gauge.backlog_ns = lane
            .queue
            .iter()
            .map(|q| gauge.price(q.req.request.kind))
            .fold(0, u64::saturating_add);
        gauge
    }
}

/// Where the front sent one arrival, and how it chose.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route {
    pub(crate) replica: usize,
    /// Queue depth the admission gate saw: `usize::MAX` when every
    /// replica is down.
    pub(crate) depth: usize,
    /// Steered off a primary inside an outage window.
    pub(crate) rerouted: bool,
    /// Hedged away from the chosen replica's estimated wait.
    pub(crate) hedged: bool,
}

/// The front of one run: the routing table, the outage windows, the
/// admission gates and this round's gauges.
pub(crate) struct Front<'a> {
    /// Each shard's replica preference order, `replicas` entries a shard.
    prefs: &'a [u32],
    /// Per replica, the outage windows covering it.
    outages: &'a [Vec<(u64, u64)>],
    rows_per_shard: usize,
    hedge_wait_ns: u64,
    /// The extra forward hop a hedged request pays.
    hop_ns: u64,
    admission: Admission,
    gauges: Vec<FrontGauge>,
}

impl<'a> Front<'a> {
    pub(crate) fn new(
        prefs: &'a [u32],
        outages: &'a [Vec<(u64, u64)>],
        rows_per_shard: usize,
        hedge_wait_ns: u64,
        admission: Admission,
    ) -> Front<'a> {
        Front {
            prefs,
            outages,
            rows_per_shard,
            hedge_wait_ns,
            hop_ns: NetModel::datacenter_25gbe()
                .forward_time(REQ_BYTES)
                .as_nanos(),
            admission,
            gauges: Vec::with_capacity(outages.len()),
        }
    }

    /// Reset every gauge from lane truth: the top of a round.
    pub(crate) fn refresh(&mut self, lanes: &[ReplicaLane<'_>]) {
        self.gauges.clear();
        self.gauges.extend(lanes.iter().map(FrontGauge::refresh));
    }

    /// Route one arrival by its node's shard, so one shard's traffic
    /// always hits the same hot cache; hedge when the chosen replica's
    /// estimated wait is past the knob and the alternative, plus its
    /// forward hop, looks better; then put it to the admission gates. An
    /// admitted request's price joins its replica's gauge.
    pub(crate) fn decide(&mut self, req: &PlaneRequest) -> (Verdict, Route) {
        let now = req.arrival_ns;
        let nr = self.gauges.len();
        let shard = req.request.node as usize / self.rows_per_shard;
        let pref = &self.prefs[shard * nr..(shard + 1) * nr];
        let outages = self.outages;
        let live = |r: &&u32| !is_down(&outages[**r as usize], now);

        let chosen = pref.iter().find(live).copied();
        let mut route = Route {
            replica: chosen.unwrap_or(pref[0]) as usize,
            depth: usize::MAX,
            rerouted: chosen.is_some_and(|r| r != pref[0]),
            hedged: false,
        };
        if let Some(chosen) = chosen {
            let wait_p = self.gauges[route.replica].est_wait(now);
            if wait_p > self.hedge_wait_ns {
                if let Some(&alt) = pref.iter().filter(|&&r| r != chosen).find(live) {
                    let wait_s = self.gauges[alt as usize].est_wait(now);
                    if wait_s.saturating_add(self.hop_ns) < wait_p {
                        route.replica = alt as usize;
                        route.hedged = true;
                    }
                }
            }
            route.depth = self.gauges[route.replica].vdepth;
        }

        // With every replica down the request has nowhere to queue: an
        // unbounded depth spends the quota token (the request was
        // offered) and sheds it as a queue rejection.
        let verdict = self
            .admission
            .admit(req.tenant as usize, req.priority, now, route.depth);
        if verdict == Verdict::Admitted {
            let gauge = &mut self.gauges[route.replica];
            gauge.vdepth += 1;
            gauge.backlog_ns = gauge
                .backlog_ns
                .saturating_add(gauge.price(req.request.kind));
        }
        (verdict, route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::Priority;
    use omega_serve::Request;

    fn arrival(node: u32, arrival_ns: u64) -> PlaneRequest {
        PlaneRequest {
            tenant: 0,
            index: 0,
            arrival_ns,
            deadline_ns: arrival_ns + 1_000_000,
            priority: Priority::High,
            request: Request {
                node,
                kind: RequestKind::Get,
            },
        }
    }

    /// A three-replica front, 8 rows a shard, hedging past 1 µs, with
    /// quota to spare. Every gauge is idle until a test loads one.
    fn front<'a>(prefs: &'a [u32], outages: &'a [Vec<(u64, u64)>]) -> Front<'a> {
        let mut front = Front::new(prefs, outages, 8, 1_000, Admission::new(&[(1e9, 1e6)], 64));
        front.gauges = vec![FrontGauge::default(); 3];
        front
    }

    #[test]
    fn routes_to_the_primary_then_the_first_live_entry() {
        let prefs = [2, 0, 1];
        let outages = [vec![], vec![], vec![(0, 100)]];
        let mut f = front(&prefs, &outages);
        let (v, r) = f.decide(&arrival(5, 50));
        assert_eq!(v, Verdict::Admitted);
        assert_eq!(
            (r.replica, r.rerouted, r.hedged, r.depth),
            (0, true, false, 0)
        );
        let (_, r) = f.decide(&arrival(5, 100));
        assert_eq!((r.replica, r.rerouted), (2, false), "the window has closed");
        assert_eq!(f.gauges[0].vdepth, 1, "an admitted arrival joins its gauge");
    }

    #[test]
    fn hedges_to_the_first_live_alternative_only_when_it_is_quicker() {
        let prefs = [2, 0, 1];
        let outages = [vec![], vec![], vec![(0, 100)]];
        let mut f = front(&prefs, &outages);
        // Rerouted to 0, which is backed up: the hedge skips dead 2.
        f.gauges[0].vready_ns = 1_000_000;
        let (_, r) = f.decide(&arrival(5, 50));
        assert_eq!((r.replica, r.rerouted, r.hedged), (1, true, true));
        // The alternative is as backed up as the choice: no hedge.
        f.gauges[1].vready_ns = 1_000_000;
        let (_, r) = f.decide(&arrival(5, 60));
        assert_eq!((r.replica, r.hedged), (0, false));
    }

    #[test]
    fn every_replica_down_sheds_at_the_queue_gate() {
        let prefs = [2, 0, 1];
        let down = vec![(0, u64::MAX)];
        let outages = [down.clone(), down.clone(), down];
        let mut f = front(&prefs, &outages);
        let (v, r) = f.decide(&arrival(5, 50));
        assert_eq!(v, Verdict::RejectedQueue);
        assert_eq!(r.depth, usize::MAX);
        assert!(!r.rerouted && !r.hedged);
    }
}
