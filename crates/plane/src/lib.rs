//! # omega-plane — the admission-controlled request plane
//!
//! The serving stack in `omega-serve` answers a *closed-loop* stream: one
//! client, one [`EmbedServer`](omega_serve::EmbedServer), the next
//! request issued only after the previous answer returns. Production
//! traffic is nothing like that — it is open-loop (users do not wait for
//! each other), multi-tenant, bursty, and pointed at a *tier* of
//! replicas. This crate is that front half:
//!
//! * [`generate_timeline`] — seeded open-loop traffic: Poisson, diurnal and
//!   flash-crowd [`ArrivalProcess`]es per tenant, layered over the
//!   existing `workload::Popularity` skews; every request carries a
//!   tenant, a priority, and a simulated-ns deadline.
//! * [`Admission`] — the front door: per-tenant token-bucket quotas with
//!   a high-priority overdraft, and priority-tiered queue-depth shedding,
//!   so queues stay bounded no matter the offered load.
//! * [`Ring`] — consistent-hash routing of shards onto replicas: each
//!   shard's preference order over the replicas, computed once per plane,
//!   names its primary, where it goes when the primary is down, and where
//!   it hedges when the chosen replica's estimated wait is too long.
//! * [`RequestPlane`] — the round-based engine: a sequential front
//!   routes and admits each quantum of arrivals, then every replica runs
//!   its *own* event loop concurrently on the persistent `omega-par`
//!   pool (priority-ordered batches, deadline triage, `serve_batch`),
//!   and completions merge back in fixed `(sim_time, replica, seq)`
//!   order. Front-to-replica RPCs are charged through the shared
//!   [`NetModel`](omega_hetmem::NetModel) (the same link parameters the
//!   distributed baselines use); late work is dropped or degraded
//!   (halved `k` and `nprobe`, or a point lookup instead of a scan),
//!   never queued unboundedly. The degrade ladder and router price work
//!   from *live* replica signals — cost EWMAs corrected by real IVF
//!   probe counts and inflated by the measured cache miss rate — and
//!   outage windows steer traffic around dead replicas until they
//!   recover.
//!
//! ## Determinism
//!
//! Same seed ⇒ byte-identical metrics JSONL at any wall-thread count.
//! Arrival and routing draws are keyed SplitMix64 streams over
//! `(seed, tenant, request index)` and `(replica, vnode)` — pure
//! functions of *what* is processed, never of scheduling. Each replica
//! lane reads only its own simulated state, its fault stream is keyed by
//! what it processes (never by which worker ran it), and the caller
//! merges lane events in a fixed total order before any counter or
//! histogram is touched — so the concurrent lanes (and the replicas'
//! worker pools, the
//! [`ServeConfig::threads`](omega_serve::ServeConfig::threads) knob)
//! change wall time only. Every admitted request reaches exactly one terminal state, so
//! `admitted == completed + degraded + dropped` — the identity the
//! integration suite pins alongside golden metrics bytes.
//!
//! ```
//! use omega_hetmem::{MemSystem, SimDuration, Topology};
//! use omega_plane::{PlaneConfig, Priority, RequestPlane, TenantSpec};
//! use omega_serve::{Popularity, ServeConfig, WorkloadConfig};
//!
//! let emb = omega_embed::Embedding::from_row_major(256, 4, vec![0.5; 256 * 4]);
//! let systems: Vec<MemSystem> = (0..2)
//!     .map(|_| MemSystem::new(Topology::paper_machine_scaled(8 << 20)))
//!     .collect();
//! let cfg = PlaneConfig::new(2).horizon(SimDuration::from_secs_f64(0.01));
//! let mut plane = RequestPlane::new(&systems, &emb, ServeConfig::new(4096), cfg).unwrap();
//! let wl = WorkloadConfig::lookups(256, Popularity::Zipf { s: 1.0 }, 42);
//! let tenants = vec![
//!     TenantSpec::poisson("interactive", 2_000.0, wl).with_priority(Priority::High),
//!     TenantSpec::poisson("batch", 1_000.0, wl).with_priority(Priority::Low),
//! ];
//! let report = plane.run(&tenants);
//! assert!(report.stats.identity_holds());
//! assert_eq!(report.stats.offered, report.stats.admitted
//!     + report.stats.rejected_quota + report.stats.rejected_queue);
//! ```

mod admission;
mod arrivals;
mod engine;
mod front;
mod lane;
mod report;
mod router;

pub use admission::{Admission, Verdict};
pub use arrivals::{generate_timeline, ArrivalProcess, PlaneRequest, Priority, TenantSpec};
pub use engine::{PlaneConfig, RequestPlane};
pub use report::{PlaneReport, PlaneStats, PlaneTrace};
pub use router::Ring;
