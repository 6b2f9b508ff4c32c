//! What a run reports: the terminal-state counters, the served-latency
//! histograms and the dispatch streams, and their publication through the
//! recorder's registry.

use crate::arrivals::TenantSpec;
use omega_hetmem::SimDuration;
use omega_obs::{LatencyHistogram, Recorder};

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
    /// Admitted requests hedged away from the loaded replica the front
    /// chose first. A route chosen for a request the front then refuses
    /// is not counted: nothing was sent.
    pub hedged_routes: u64,
    /// Admitted requests steered off a primary inside an outage window.
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
    pub(crate) fn sum(per_tenant: &[PlaneStats]) -> PlaneStats {
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

/// Result of [`RequestPlane::run`](crate::RequestPlane::run).
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
    /// Served requests (completed + degraded) per simulated second.
    pub fn served_qps(&self) -> f64 {
        self.per_run_second(self.stats.completed + self.stats.degraded)
    }

    /// Full-fidelity, in-deadline completions per simulated second — the
    /// number the throughput-vs-p99 curve plots.
    pub fn goodput_qps(&self) -> f64 {
        let served = self.stats.completed + self.stats.degraded;
        self.per_run_second(served.saturating_sub(self.stats.slo_miss))
    }

    /// `n` over the whole run's simulated seconds: the arrival horizon or
    /// the last completion, whichever is later.
    fn per_run_second(&self, n: u64) -> f64 {
        let end_s = (self.horizon.as_nanos().max(self.end_ns)) as f64 * 1e-9;
        if end_s == 0.0 {
            0.0
        } else {
            n as f64 / end_s
        }
    }

    /// Publish the run's verdict counters and goodput through the
    /// recorder's registry (BTreeMap-backed, so export order — and the
    /// metrics JSONL bytes — is deterministic).
    pub(crate) fn publish(&self, rec: &Recorder, tenants: &[TenantSpec]) {
        let s = &self.stats;
        rec.counter_set("plane.offered", s.offered);
        rec.counter_set("plane.admitted", s.admitted);
        rec.counter_set("plane.rejected.quota", s.rejected_quota);
        rec.counter_set("plane.rejected.queue", s.rejected_queue);
        rec.counter_set("plane.completed", s.completed);
        rec.counter_set("plane.degraded", s.degraded);
        rec.counter_set("plane.degraded.reduced_k", s.degraded_reduced_k);
        rec.counter_set("plane.degraded.to_get", s.degraded_to_get);
        rec.counter_set("plane.dropped", s.dropped);
        rec.counter_set("plane.hedged_routes", s.hedged_routes);
        rec.counter_set("plane.rerouted_outage", s.rerouted_outage);
        rec.counter_set("plane.slo_miss", s.slo_miss);
        rec.gauge_set("plane.goodput_qps", self.goodput_qps());
        rec.gauge_set("plane.served_qps", self.served_qps());
        for (t, p) in tenants.iter().zip(&self.per_tenant) {
            let name = &t.name;
            rec.counter_set(&format!("plane.tenant.{name}.offered"), p.offered);
            rec.counter_set(&format!("plane.tenant.{name}.admitted"), p.admitted);
            rec.counter_set(
                &format!("plane.tenant.{name}.rejected"),
                p.rejected_quota + p.rejected_queue,
            );
            rec.counter_set(&format!("plane.tenant.{name}.completed"), p.completed);
            rec.counter_set(&format!("plane.tenant.{name}.degraded"), p.degraded);
            rec.counter_set(&format!("plane.tenant.{name}.dropped"), p.dropped);
        }
    }
}

/// Dispatch-stream record of one run (see
/// [`RequestPlane::run_traced`](crate::RequestPlane::run_traced)): which
/// requests each replica processed, in its own processing order. The
/// property tests pin that the streams exactly partition the admitted set
/// and that they are identical at every wall-thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlaneTrace {
    /// Global arrival ordinals of every admitted request, arrival order.
    pub admitted: Vec<u64>,
    /// Per replica: `(event_ns, seq)` of every terminal event (serve or
    /// drop) in the order that replica processed them.
    pub streams: Vec<Vec<(u64, u64)>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(completed: u64, slo_miss: u64, horizon_ns: u64, end_ns: u64) -> PlaneReport {
        PlaneReport {
            stats: PlaneStats {
                completed,
                degraded: 2,
                slo_miss,
                ..PlaneStats::default()
            },
            per_tenant: Vec::new(),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            horizon: SimDuration::from_nanos(horizon_ns),
            end_ns,
        }
    }

    #[test]
    fn rates_divide_by_the_later_of_horizon_and_last_completion() {
        let r = report(8, 4, 500_000_000, 0);
        assert_eq!(r.served_qps(), 20.0);
        assert_eq!(r.goodput_qps(), 12.0);
        let r = report(8, 4, 500_000_000, 2_000_000_000);
        assert_eq!(r.served_qps(), 5.0);
        assert_eq!(report(8, 20, 0, 0).goodput_qps(), 0.0, "an empty run");
    }
}
