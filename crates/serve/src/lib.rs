//! # omega-serve — tiered embedding serving
//!
//! Once OMeGa has *trained* an embedding on the heterogeneous-memory
//! machine, the table still has to be **served**: recommendation and
//! link-prediction backends issue streams of point lookups ("give me node
//! v's vector") and brute-force similarity queries ("the k nearest
//! neighbours of this query vector"). At billion-node scale the table does
//! not fit in DRAM any more than training did, so serving faces the same
//! tiering problem the paper solves for training — and can reuse the same
//! cost model.
//!
//! This crate stands up that serving stack on `omega-hetmem`'s simulated
//! machine:
//!
//! * [`ShardedStore`] — the trained [`omega_embed::Embedding`] split into
//!   fixed-size row blocks, resident on the cold tier (PM or SSD). Every
//!   read is charged to the cost model.
//! * [`HotCache`] — a DRAM working set of shards: LRU replacement with
//!   TinyLFU-style frequency admission, so Zipfian traffic keeps its head
//!   resident and scans cannot flush it.
//! * [`EmbedServer`] — the engine: coalesces each batch's misses into one
//!   fetch per distinct shard — admission decided first, so a shard the
//!   cache takes streams whole and one it refuses is read by the row —
//!   fans per-shard work (fetches, point lookups, top-k scoring) out on
//!   the persistent `omega-par` worker pool at the width
//!   [`ServeConfig::threads`] asks for, answers strictly in arrival
//!   order, and charges every byte (cold fetch, DRAM staging, row
//!   serve, top-k scan) to the simulated clock. One resolver answers every
//!   failed cold read (retry → hedge → degrade); a batch's top-k queries
//!   are scored in one pass over the table and charged one by one in
//!   arrival order, a cold block several of them read staged into DRAM
//!   once for all of them, exact scans and IVF probes through the same
//!   two halves; and one ledger
//!   ([`ServeStats`]) counts it. Thread count is a pure wall-clock knob —
//!   simulated clocks, metrics and results are byte-identical at every
//!   value. Spans `serve.batch` / `serve.fetch` / `serve.lookup` /
//!   `serve.score` / `serve.topk` / `serve.shard.parallel` and
//!   `serve.cache.*` counters flow through `omega-obs`.
//! * [`IvfIndex`] — optional cluster-then-probe approximate top-k
//!   ([`ServeConfig::index`], [`IndexMode::Ivf`]): a seeded k-means coarse
//!   quantizer with tier-aware inverted lists (centroids + hot lists in
//!   DRAM, the tail on the cold tier), an `nprobe` exactness knob, and
//!   `serve.ivf.*` counters. At `nprobe == nlist` its answers are
//!   bit-identical to the retained brute-force oracle.
//! * [`RequestStream`] — a deterministic closed-loop load generator
//!   (seeded Zipfian or uniform popularity, optional top-k mix): the same
//!   seed produces the same request stream on any machine, which makes
//!   latency reports byte-reproducible.
//!
//! ```
//! use omega_hetmem::{MemSystem, Topology};
//! use omega_serve::{EmbedServer, Popularity, RequestStream, ServeConfig, WorkloadConfig};
//!
//! let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
//! let emb = omega_embed::Embedding::from_row_major(256, 4, vec![0.5; 256 * 4]);
//! let mut srv = EmbedServer::new(&sys, &emb, ServeConfig::new(4096)).unwrap();
//! let mut load = RequestStream::new(WorkloadConfig::lookups(
//!     256,
//!     Popularity::Zipf { s: 1.0 },
//!     42,
//! ));
//! let report = srv.run(&mut load, 1_000);
//! assert_eq!(report.stats.requests, 1_000);
//! assert!(report.stats.hit_rate() > 0.5); // the Zipf head stays resident
//! ```

#![warn(unreachable_pub)]

mod cache;
mod config;
mod fetch;
mod ivf;
mod server;
mod stats;
mod store;
mod topk;
mod workload;

pub use cache::{HotCache, InsertOutcome};
pub use config::ServeConfig;
pub use ivf::{IndexMode, IvfIndex};
pub use server::{BatchResult, EmbedServer, Response};
pub use stats::{ServeReport, ServeSignals, ServeStats};
pub use store::ShardedStore;
pub use workload::{Popularity, Request, RequestKind, RequestStream, WorkloadConfig};
