//! The serving ledger and what is reported from it: [`ServeStats`] (the
//! one byte/fault/cache ledger — worker tasks accumulate into private
//! instances that merge into the server's by [`ServeStats::add`]), the
//! live [`ServeSignals`] snapshot, and the per-run [`ServeReport`].

use omega_hetmem::{AccessSummary, SimDuration};
use omega_obs::{percentile_u64, Recorder};

/// Aggregate statistics of a serving run.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    pub requests: u64,
    pub lookups: u64,
    pub topks: u64,
    pub batches: u64,
    /// Requests whose shard was DRAM-resident when their batch arrived.
    pub hits: u64,
    /// Requests whose shard had to be fetched from the cold tier.
    pub misses: u64,
    /// Distinct missing shards read, whole or by row (a batch of misses
    /// to one shard reads it once).
    pub fetches: u64,
    pub evictions: u64,
    pub admission_rejects: u64,
    /// Bytes read out of the cold tier (fetches, whole or by row, plus
    /// uncached scans — a block a batch stages, once per batch).
    pub cold_read_bytes: u64,
    /// Bytes read from DRAM (row serves + scans of cached shards, hot
    /// lists and staged blocks + replica reads).
    pub dram_read_bytes: u64,
    /// Bytes staged into DRAM by fetches and by the top-k scans' staging
    /// legs.
    pub dram_write_bytes: u64,
    /// Injected failures observed on the serving path. Every one resolves
    /// as exactly one of `faults_retried`, `hedges_won` or `degraded`.
    pub faults_injected: u64,
    /// Failures answered by launching another cold-tier attempt.
    pub faults_retried: u64,
    /// Timeouts answered by a hedged read against the DRAM replica tier.
    pub hedges_won: u64,
    /// Failures past the retry budget, served degraded from the replica.
    pub degraded: u64,
    /// Top-k queries answered through the IVF probe path.
    pub ivf_queries: u64,
    /// Inverted lists visited by IVF queries (`nprobe` per query).
    pub ivf_probes: u64,
    /// DRAM bytes streamed scanning the centroid table.
    pub ivf_centroid_bytes: u64,
    /// DRAM bytes streamed from hot inverted lists and staged cold ones
    /// (plus replica reads of cold lists after a hedge/degrade).
    pub ivf_dram_bytes: u64,
    /// Cold-tier bytes streamed probing cold inverted lists (failed
    /// attempts included, exactly like shard scans; a list its batch
    /// stages, once per batch).
    pub ivf_cold_bytes: u64,
}

impl ServeStats {
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }

    /// Fold `other` into this ledger — how a worker task's private ledger
    /// reaches the server's, and how a run's window rejoins the lifetime
    /// totals.
    pub(crate) fn add(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.lookups += other.lookups;
        self.topks += other.topks;
        self.batches += other.batches;
        self.hits += other.hits;
        self.misses += other.misses;
        self.fetches += other.fetches;
        self.evictions += other.evictions;
        self.admission_rejects += other.admission_rejects;
        self.cold_read_bytes += other.cold_read_bytes;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.faults_injected += other.faults_injected;
        self.faults_retried += other.faults_retried;
        self.hedges_won += other.hedges_won;
        self.degraded += other.degraded;
        self.ivf_queries += other.ivf_queries;
        self.ivf_probes += other.ivf_probes;
        self.ivf_centroid_bytes += other.ivf_centroid_bytes;
        self.ivf_dram_bytes += other.ivf_dram_bytes;
        self.ivf_cold_bytes += other.ivf_cold_bytes;
    }

    /// Publish the ledger as `serve.*` / `fault.*` counters with
    /// deterministic (simulated-only) values.
    pub(crate) fn publish(&self, rec: &Recorder, ivf: bool) {
        rec.counter_set("serve.requests", self.requests);
        rec.counter_set("serve.cache.hit", self.hits);
        rec.counter_set("serve.cache.miss", self.misses);
        rec.counter_set("serve.cache.evict", self.evictions);
        rec.counter_set("serve.cache.fetch", self.fetches);
        rec.counter_set("serve.cache.admission_reject", self.admission_rejects);
        rec.counter_set("serve.cold.bytes", self.cold_read_bytes);
        rec.counter_set(
            "serve.dram.bytes",
            self.dram_read_bytes + self.dram_write_bytes,
        );
        // Fault counters are published unconditionally (zeros included) so
        // a zero-rate plan exports byte-identical metrics to no plan, and
        // `fault.injected == fault.retried + fault.hedge.won +
        // serve.degraded` holds by construction.
        rec.counter_set("fault.injected", self.faults_injected);
        rec.counter_set("fault.retried", self.faults_retried);
        rec.counter_set("fault.hedge.won", self.hedges_won);
        rec.counter_set("serve.degraded", self.degraded);
        // IVF counters exist only when an index is configured (an exact
        // server has no probe subsystem to report on), and then always —
        // zeros included — so runs differ only where behaviour does.
        if ivf {
            rec.counter_set("serve.ivf.queries", self.ivf_queries);
            rec.counter_set("serve.ivf.probes", self.ivf_probes);
            rec.counter_set("serve.ivf.centroid.bytes", self.ivf_centroid_bytes);
            rec.counter_set("serve.ivf.list.dram.bytes", self.ivf_dram_bytes);
            rec.counter_set("serve.ivf.list.cold.bytes", self.ivf_cold_bytes);
        }
        rec.gauge_set("serve.cache.hit_rate", self.hit_rate());
    }
}

/// Snapshot of the live signals a replica exposes to the request plane's
/// closed admission loop. Derived purely from simulated state, so the
/// values are identical at every wall-thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSignals {
    /// Cumulative DRAM cache hit rate over Get traffic (0 when untouched).
    pub hit_rate: f64,
    /// Top-k queries answered through the IVF probe path so far.
    pub ivf_queries: u64,
    /// Inverted lists visited by those queries.
    pub ivf_probes: u64,
    /// Configured probe width, when an IVF index is mounted.
    pub nprobe: Option<usize>,
}

/// Result of [`EmbedServer::run`](crate::EmbedServer::run): stats, latency
/// distributions on both clocks, and the run's memory-traffic summary.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub stats: ServeStats,
    /// Total simulated time of the run.
    pub total_sim: SimDuration,
    /// Total wall time of the run.
    pub total_wall_us: u64,
    /// Per-request simulated latency, nanoseconds, in request order.
    pub sim_latency_ns: Vec<u64>,
    /// Per-request wall latency (its batch's wall time), microseconds.
    pub wall_latency_us: Vec<u64>,
    /// Memory traffic of the whole run.
    pub traffic: AccessSummary,
}

impl ServeReport {
    /// Simulated-latency percentile (q in 0..=1, nearest-rank).
    pub fn sim_percentile_ns(&self, q: f64) -> u64 {
        percentile_u64(&self.sim_latency_ns, q)
    }

    /// Wall-latency percentile (q in 0..=1, nearest-rank).
    pub fn wall_percentile_us(&self, q: f64) -> u64 {
        percentile_u64(&self.wall_latency_us, q)
    }

    /// Simulated throughput, requests per simulated second.
    pub fn throughput_qps(&self) -> f64 {
        let s = self.total_sim.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.stats.requests as f64 / s
        }
    }
}
