//! What one SpMM reports: the numeric result plus the simulated-time
//! accounting behind Fig. 13, 14 and 16.

use crate::asl::StreamingSchedule;
use omega_hetmem::{ClassCounters, SimDuration};
use omega_linalg::DenseMatrix;
use omega_obs::percentile_u64;

/// Distribution statistics over per-thread times (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadStats {
    pub mean_s: f64,
    pub stddev_s: f64,
    pub min_s: f64,
    pub max_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
}

impl ThreadStats {
    pub(crate) fn from_times(times: &[SimDuration]) -> ThreadStats {
        if times.is_empty() {
            return ThreadStats {
                mean_s: 0.0,
                stddev_s: 0.0,
                min_s: 0.0,
                max_s: 0.0,
                p95_s: 0.0,
                p99_s: 0.0,
            };
        }
        let secs: Vec<f64> = times.iter().map(|t| t.as_secs_f64()).collect();
        let n = secs.len() as f64;
        let mean = secs.iter().sum::<f64>() / n;
        let var = secs.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        let ns: Vec<u64> = times.iter().map(|t| t.as_nanos()).collect();
        // Nearest rank on the nanoseconds: `as_secs_f64` is monotone, so
        // this is the nearest rank of the seconds too.
        let pct = |q: f64| SimDuration::from_nanos(percentile_u64(&ns, q)).as_secs_f64();
        ThreadStats {
            mean_s: mean,
            stddev_s: var.sqrt(),
            min_s: pct(0.0),
            max_s: pct(1.0),
            p95_s: pct(0.95),
            p99_s: pct(0.99),
        }
    }
}

/// Per-workload diagnostics (Fig. 7(b)/(c) and Fig. 13 inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub thread: usize,
    pub rows: usize,
    pub nnzs: u64,
    pub entropy: f64,
    pub scatter: f64,
    pub time: SimDuration,
    pub dense_fetches: u64,
    pub prefetch_hits: u64,
    pub prefetch_misses: u64,
    /// Staged entries this workload never referenced — dead DRAM capacity
    /// plus a useless fill (the Fig. 19(b) high-η degradation).
    pub wasted_prefetches: u64,
}

/// The outcome of one SpMM.
#[derive(Debug)]
pub struct SpmmRun {
    /// `C = A·B` in the CSDB's permuted row space.
    pub result: DenseMatrix,
    /// End-to-end simulated time: allocation + pipelined batches (+ merge).
    pub makespan: SimDuration,
    /// Time spent in the allocation scheme itself.
    pub alloc_time: SimDuration,
    /// Per simulated thread, total compute time across batches.
    pub thread_times: Vec<SimDuration>,
    pub stats: ThreadStats,
    pub workloads: Vec<WorkloadReport>,
    /// Merged traffic counters of all threads (the VTune-style summary).
    pub counters: ClassCounters,
    pub dense_fetches: u64,
    pub prefetch_hits: u64,
    pub prefetch_misses: u64,
    pub wasted_prefetches: u64,
    /// Workload chunks that hit an injected fault and were re-run by the
    /// executor's degraded mode (zero without an installed fault plan).
    pub degraded_chunks: u64,
}

/// What one column group's execution adds to a run.
pub(crate) struct GroupRun {
    /// The group's prefetcher build, the longest of its workloads'.
    pub prefetch_setup: SimDuration,
    /// The group's batch pipeline, offsets from the end of the build.
    pub schedule: StreamingSchedule,
    /// One report per workload, in workload order.
    pub reports: Vec<WorkloadReport>,
    pub counters: ClassCounters,
    pub degraded_chunks: u64,
}

impl SpmmRun {
    /// A run that has paid for its allocation scheme and executed nothing
    /// yet: an all-zero `n × d` result and idle threads.
    pub(crate) fn new(n: usize, d: usize, threads: usize, alloc_time: SimDuration) -> SpmmRun {
        let thread_times = vec![SimDuration::ZERO; threads];
        SpmmRun {
            result: DenseMatrix::zeros(n, d),
            makespan: alloc_time,
            alloc_time,
            stats: ThreadStats::from_times(&thread_times),
            thread_times,
            workloads: Vec::new(),
            counters: ClassCounters::default(),
            dense_fetches: 0,
            prefetch_hits: 0,
            prefetch_misses: 0,
            wasted_prefetches: 0,
            degraded_chunks: 0,
        }
    }

    /// Fold in one executed group. Groups start together once allocation is
    /// done, so the slowest sets the makespan; everything else adds up.
    pub(crate) fn absorb(&mut self, group: GroupRun) {
        let group_time = group.prefetch_setup + group.schedule.makespan;
        self.makespan = self.makespan.max(self.alloc_time + group_time);
        self.counters.merge(&group.counters);
        self.degraded_chunks += group.degraded_chunks;
        for w in &group.reports {
            self.thread_times[w.thread] += w.time;
            self.dense_fetches += w.dense_fetches;
            self.prefetch_hits += w.prefetch_hits;
            self.prefetch_misses += w.prefetch_misses;
            self.wasted_prefetches += w.wasted_prefetches;
        }
        self.workloads.extend(group.reports);
        self.stats = ThreadStats::from_times(&self.thread_times);
    }

    /// Fig. 16's throughput metric: million dense fetches per second of
    /// makespan.
    pub fn throughput_mnnz_s(&self) -> f64 {
        let s = self.makespan.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.dense_fetches as f64 / 1e6 / s
        }
    }

    /// Overall WoFP staging hit rate across all workloads (Fig. 14).
    pub fn hit_rate(&self) -> f64 {
        if self.dense_fetches == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.dense_fetches as f64
        }
    }
}
