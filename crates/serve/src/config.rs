//! Server configuration: the eight values a deployment actually varies,
//! plus the constants every caller has always left alone.

use crate::ivf::IndexMode;
use omega_embed::Metric;
use omega_hetmem::{DeviceKind, NodeId, Placement};

/// NUMA node serving requests; task contexts are pinned to it.
pub(crate) const HOT_NODE: NodeId = 0;

/// Where the serving node keeps everything hot: the cache, the replica
/// tier, IVF centroids and hot lists all live in its DRAM.
pub(crate) const HOT: Placement = Placement::node(HOT_NODE, DeviceKind::Dram);

/// Concurrent threads assumed by the bandwidth model when a fetch, a
/// lookup or a top-k pass converts its counters to simulated time. One,
/// for all three: DESIGN §6, decision 12, records why the pass is not yet
/// cut over the socket's cores.
pub(crate) const MODEL_THREADS: u32 = 1;

/// Similarity metric of top-k queries and of the IVF quantizer.
pub(crate) const METRIC: Metric = Metric::Dot;

/// Simulated backoff before the first retry of a failed cold read; doubles
/// per attempt.
pub(crate) const RETRY_BACKOFF_NS: u64 = 2_000;

/// Bounded retries against the cold tier after an injected transient
/// failure, before falling back to the degraded replica path.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Configuration of an [`EmbedServer`](crate::EmbedServer).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Rows per cold shard: the granule the cache admits, keeps and evicts
    /// (a miss it refuses is read by the row).
    pub rows_per_shard: usize,
    /// Cold-tier placement of the sharded store.
    pub cold: Placement,
    /// DRAM budget of the hot cache, in bytes.
    pub cache_bytes: u64,
    /// Requests per batch of [`EmbedServer::run`](crate::EmbedServer::run),
    /// its only reader: callers of
    /// [`serve_batch`](crate::EmbedServer::serve_batch) choose their own
    /// batch, and the request plane batches by `PlaneConfig::batch_size`.
    pub batch_size: usize,
    /// Frequency-based admission control (TinyLFU-style scan resistance).
    pub admission: bool,
    /// Worker threads for per-shard batch work (fetches, point lookups,
    /// top-k scoring). Purely a wall-clock knob: simulated clocks,
    /// metrics and results are byte-identical at every value.
    pub threads: usize,
    /// How top-k queries are answered: exact brute-force scan (the
    /// oracle), or cluster-then-probe through an
    /// [`IvfIndex`](crate::IvfIndex).
    pub index: IndexMode,
    /// DRAM budget for hot IVF inverted lists (largest lists first);
    /// centroids are always DRAM-resident and do not count against it.
    pub ivf_hot_bytes: u64,
}

impl ServeConfig {
    /// Defaults: 64-row shards cold on node-0 PM, hot cache in node-0 DRAM
    /// with the given byte budget, 64-request batches, admission on.
    pub fn new(cache_bytes: u64) -> ServeConfig {
        ServeConfig {
            rows_per_shard: 64,
            cold: Placement::node(0, DeviceKind::Pm),
            cache_bytes,
            batch_size: 64,
            admission: true,
            threads: 1,
            index: IndexMode::Exact,
            ivf_hot_bytes: 64 << 10,
        }
    }

    pub fn rows_per_shard(mut self, rows: usize) -> Self {
        self.rows_per_shard = rows;
        self
    }

    pub fn cold(mut self, placement: Placement) -> Self {
        self.cold = placement;
        self
    }

    pub fn batch_size(mut self, size: usize) -> Self {
        assert!(size > 0, "batch size must be positive");
        self.batch_size = size;
        self
    }

    pub fn admission(mut self, on: bool) -> Self {
        self.admission = on;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn index(mut self, index: IndexMode) -> Self {
        self.index = index;
        self
    }

    pub fn ivf_hot_bytes(mut self, bytes: u64) -> Self {
        self.ivf_hot_bytes = bytes;
        self
    }

    /// The resolved `(nlist, nprobe)` an IVF server over `nodes` rows will
    /// use (auto knobs filled in), or `None` in exact mode. `omega-cli
    /// serve` sizes its DRAM with it; the plane's degrade ladder halves the
    /// built index's own `nprobe` instead.
    pub fn ivf_params(&self, nodes: u32) -> Option<(usize, usize)> {
        match self.index.resolved(nodes) {
            IndexMode::Exact => None,
            IndexMode::Ivf { nlist, nprobe } => Some((nlist, nprobe)),
        }
    }
}
