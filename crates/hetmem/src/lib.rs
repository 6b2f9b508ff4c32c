//! # omega-hetmem — simulated heterogeneous NUMA memory substrate
//!
//! The OMeGa paper (ICDE 2025) evaluates on a two-socket machine pairing DRAM
//! with Intel Optane DC Persistent Memory (PM). That hardware is discontinued
//! and unavailable, so this crate provides a **deterministic software
//! simulation** of the heterogeneous memory system: a NUMA topology of
//! sockets holding DRAM, PM and SSD devices, a bandwidth/latency cost model
//! calibrated to the ratios the paper reports (Fig. 9 and §I/§III-D), placed
//! typed buffers ([`HetVec`]) whose accesses are classified and charged
//! simulated time, and a capacity governor that makes "does not fit in DRAM"
//! a first-class, observable failure mode.
//!
//! ## How simulation works
//!
//! Every memory access performed by a kernel goes through a [`ThreadMem`]
//! context that knows which simulated NUMA node the thread runs on. The
//! access is classified along four axes —
//! [`DeviceKind`] × [`Locality`] × [`AccessOp`] × [`AccessPattern`] — and the
//! transferred *media bytes* (random accesses fetch a full device-granularity
//! unit: 64 B DRAM line, 256 B PM XPLine, 4 KiB SSD page) are accumulated in
//! per-thread [`ClassCounters`]. At the end of a parallel phase the
//! [`BandwidthModel`] converts each thread's counters into simulated
//! nanoseconds; the phase's makespan is the maximum over threads. The
//! counters remember which classes a thread charged, and merging, resetting
//! and pricing them walk only those, so settling a task costs what the task
//! touched: one class for a point lookup, not the whole table.
//!
//! The model is *relative*: absolute numbers are plausible for the paper's
//! hardware generation, but what the reproduction relies on — and what the
//! calibration bench (`fig09_pm_bandwidth`) checks — are the ratios:
//!
//! * PM sequential read ≈ 1/3 and write ≈ 1/6 of DRAM bandwidth;
//! * PM sequential remote read ≈ sequential local read, both ≈ 2.4× any
//!   random read;
//! * PM sequential local write ≈ 3.2× sequential remote and ≈ 5× random
//!   remote write;
//! * PM local/remote access latency ≈ 4.2×/3.3× the DRAM baseline.
//!
//! ## Example
//!
//! ```
//! use omega_hetmem::{Topology, MemSystem, DeviceKind, Placement, AccessPattern};
//!
//! // A scaled-down twin of the paper's two-socket Optane machine.
//! let topo = Topology::paper_machine_scaled(1 << 20);
//! let sys = MemSystem::new(topo);
//!
//! // Allocate a buffer on node 0's PM and stream-read it from node 1.
//! let v = sys.alloc_from(Placement::node(0, DeviceKind::Pm), vec![1.0f32; 1024]).unwrap();
//! let mut ctx = sys.thread_ctx(1);
//! let mut sum = 0.0;
//! for i in 0..v.len() {
//!     sum += v.get(i, AccessPattern::Seq, &mut ctx);
//! }
//! assert_eq!(sum, 1024.0);
//! let cost = sys.model().thread_time(ctx.counters(), 1);
//! assert!(cost.as_nanos() > 0);
//! ```

mod bandwidth;
mod clock;
mod device;
mod error;
mod fault;
mod governor;
mod hetvec;
mod net;
mod stats;
mod system;
mod topology;
mod tracker;

pub use bandwidth::{AccessClass, AccessOp, AccessPattern, BandwidthModel, Locality};
pub use clock::{SimDuration, SimInstant};
pub use device::DeviceKind;
pub use error::HetMemError;
pub use fault::{FaultAccess, FaultHook, FaultVerdict};
pub use governor::{MemGovernor, MemReservation, MemUsage};
pub use hetvec::{HetVec, Placement};
pub use net::{Cluster, NetModel};
pub use stats::AccessSummary;
pub use system::MemSystem;
pub use topology::{NodeId, Topology};
pub use tracker::{ClassCounters, ThreadMem};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HetMemError>;
