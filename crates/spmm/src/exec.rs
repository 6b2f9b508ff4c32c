//! The simulated-time SpMM executor.
//!
//! Orchestrates one parallel SpMM exactly as Fig. 4 describes: EaTA (or a
//! baseline scheme) assigns rows to simulated threads, NaDP partitions
//! operands and binds thread groups to sockets, WoFP builds per-workload
//! prefetchers, and ASL pipelines column batches between DRAM and PM. Real
//! OS threads execute the numeric work; *simulated* time comes from each
//! simulated thread's charged traffic evaluated by the bandwidth model, and
//! a phase's makespan is the per-batch pipeline over the per-thread maxima.

use crate::alloc::AllocScheme;
use crate::asl::{partitions_required, streaming_makespan, streaming_schedule, AslConfig, AslPlan};
use crate::kernel::{run_workload, KernelInputs, KernelStats};
use crate::nadp::NadpPlan;
use crate::placed::PlacedMatrix;
use crate::wofp::{Prefetcher, PrefetcherKind, WofpConfig};
use crate::workload::Workload;
use crate::{Result, SpmmError};
use omega_graph::Csdb;
use omega_hetmem::{
    AccessOp, AccessPattern, ClassCounters, DeviceKind, MemReservation, MemSystem, Placement,
    SimDuration, ThreadMem,
};
use omega_linalg::DenseMatrix;
use omega_obs::{Recorder, Track};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which devices hold the operands (the paper's configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemMode {
    /// Everything in DRAM — the ideal baseline (`OMeGa-DRAM`).
    DramOnly,
    /// Everything in PM, staging included — the worst baseline
    /// (`OMeGa-PM`): WoFP/ASL stage into PM and thus buy nothing.
    PmOnly,
    /// Operands in PM, staging/streaming windows in DRAM — OMeGa proper.
    Hetero,
    /// Sparse matrix in PM, dense matrices in DRAM — the naive DRAM-PM
    /// split of `ProNE-HM` ("matrix operations are handled on DRAM").
    SparsePmDenseDram,
}

impl MemMode {
    /// Device holding the sparse operand.
    pub fn operand_device(self) -> DeviceKind {
        match self {
            MemMode::DramOnly => DeviceKind::Dram,
            MemMode::PmOnly | MemMode::Hetero | MemMode::SparsePmDenseDram => DeviceKind::Pm,
        }
    }

    /// Device holding the dense operand and result matrices.
    pub fn dense_device(self) -> DeviceKind {
        match self {
            MemMode::DramOnly | MemMode::SparsePmDenseDram => DeviceKind::Dram,
            MemMode::PmOnly | MemMode::Hetero => DeviceKind::Pm,
        }
    }

    /// Device holding WoFP/ASL staging windows.
    pub fn staging_device(self) -> DeviceKind {
        match self {
            MemMode::DramOnly | MemMode::Hetero | MemMode::SparsePmDenseDram => DeviceKind::Dram,
            MemMode::PmOnly => DeviceKind::Pm,
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpmmConfig {
    /// Simulated thread count (the paper's experiments use 30).
    pub threads: usize,
    pub alloc: AllocScheme,
    /// `None` disables the prefetcher (`OMeGa-w/o-WoFP`).
    pub wofp: Option<WofpConfig>,
    /// `false` replaces NaDP with the OS Interleave policy
    /// (`OMeGa-w/o-NaDP`).
    pub nadp: bool,
    /// `None` disables streaming: result writes go straight to the operand
    /// device.
    pub asl: Option<AslConfig>,
    pub mode: MemMode,
}

impl SpmmConfig {
    /// The full OMeGa system on heterogeneous memory.
    pub fn omega(threads: usize) -> Self {
        SpmmConfig {
            threads,
            alloc: AllocScheme::eata_default(),
            wofp: Some(WofpConfig::default()),
            nadp: true,
            asl: Some(AslConfig::default()),
            mode: MemMode::Hetero,
        }
    }

    /// OMeGa with everything in DRAM (ideal baseline).
    pub fn omega_dram(threads: usize) -> Self {
        SpmmConfig {
            mode: MemMode::DramOnly,
            ..Self::omega(threads)
        }
    }

    /// OMeGa with everything in PM, heterogeneous optimisations off (worst
    /// baseline).
    pub fn omega_pm(threads: usize) -> Self {
        SpmmConfig {
            mode: MemMode::PmOnly,
            wofp: None,
            asl: None,
            ..Self::omega(threads)
        }
    }

    pub fn with_alloc(mut self, alloc: AllocScheme) -> Self {
        self.alloc = alloc;
        self
    }

    pub fn with_wofp(mut self, wofp: Option<WofpConfig>) -> Self {
        self.wofp = wofp;
        self
    }

    pub fn with_nadp(mut self, nadp: bool) -> Self {
        self.nadp = nadp;
        self
    }

    pub fn with_asl(mut self, asl: Option<AslConfig>) -> Self {
        self.asl = asl;
        self
    }
}

/// Distribution statistics over per-thread times (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreadStats {
    pub mean_s: f64,
    pub stddev_s: f64,
    pub min_s: f64,
    pub max_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
}

impl ThreadStats {
    pub fn from_times(times: &[SimDuration]) -> ThreadStats {
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
        let mut sorted = secs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pct = |p: f64| {
            let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[idx - 1]
        };
        ThreadStats {
            mean_s: mean,
            stddev_s: var.sqrt(),
            min_s: sorted[0],
            max_s: *sorted.last().expect("non-empty"),
            p95_s: pct(0.95),
            p99_s: pct(0.99),
        }
    }
}

/// Per-workload diagnostics (Fig. 7(b)/(c) and Fig. 13 inputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Staged entries this workload never referenced (see
    /// [`KernelStats::wasted_prefetches`]).
    pub wasted_prefetches: u64,
    pub prefetcher: Option<PrefetcherKind>,
}

impl WorkloadReport {
    /// Fraction of dense fetches served from the staging area (Fig. 14).
    pub fn hit_rate(&self) -> f64 {
        if self.dense_fetches == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.dense_fetches as f64
        }
    }
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

impl SpmmRun {
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

/// One column-group of the execution (a NaDP socket group, or the whole
/// matrix when NaDP is off).
struct Group {
    /// Home node of the group's dense/result/staging data (`None` =>
    /// interleaved, the w/o-NaDP configuration).
    home: Option<usize>,
    cols: Range<usize>,
    /// Global simulated-thread ids bound to this group.
    threads: Vec<usize>,
}

/// The SpMM engine: a memory system plus a configuration.
///
/// ```
/// use omega_graph::{Csdb, RmatConfig};
/// use omega_hetmem::{MemSystem, Topology};
/// use omega_linalg::gaussian_matrix;
/// use omega_spmm::{SpmmConfig, SpmmEngine};
///
/// let csr = RmatConfig::social(256, 2_000, 3).generate_csr().unwrap();
/// let a = Csdb::from_csr(&csr).unwrap();
/// let b = gaussian_matrix(256, 8, 1);
/// let sys = MemSystem::new(Topology::paper_machine_scaled(8 << 20));
/// let engine = SpmmEngine::new(sys, SpmmConfig::omega(4)).unwrap();
/// let run = engine.spmm(&a, &b).unwrap();
/// assert_eq!(run.result.shape(), (256, 8));
/// assert!(run.makespan.as_nanos() > 0); // simulated heterogeneous-memory time
/// ```
#[derive(Debug, Clone)]
pub struct SpmmEngine {
    sys: MemSystem,
    cfg: SpmmConfig,
    rec: Recorder,
    /// Wall-clock worker threads for simulated-workload execution. Purely a
    /// speed knob — workload count, fault salting and merge order are all
    /// decided by data, so results are bit-identical at every value. Not
    /// part of [`SpmmConfig`]: the config's `threads` is the *simulated*
    /// thread count and feeds the cost model.
    wall_threads: usize,
    /// Merged traffic of every [`Self::spmm`] call on this engine (shared
    /// across clones) — the run-level `AccessSummary` source.
    lifetime: Arc<Mutex<ClassCounters>>,
}

impl SpmmEngine {
    pub fn new(sys: MemSystem, cfg: SpmmConfig) -> Result<Self> {
        if cfg.threads == 0 {
            return Err(SpmmError::InvalidConfig("zero threads".into()));
        }
        Ok(SpmmEngine {
            sys,
            cfg,
            rec: Recorder::disabled(),
            wall_threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            lifetime: Arc::new(Mutex::new(ClassCounters::default())),
        })
    }

    /// Attach an observability recorder; every subsequent [`Self::spmm`] run
    /// emits spans (`spmm.*`, `wofp.prefetch`, `asl.*`) and metric counters
    /// into it. The default recorder is disabled (no-op).
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Set the wall-clock worker count the simulated workloads run on
    /// (defaults to the machine's available parallelism). Bit-identical
    /// results at every value; clamped to at least 1.
    pub fn with_wall_threads(mut self, wall_threads: usize) -> Self {
        self.wall_threads = wall_threads.max(1);
        self
    }

    /// The wall-clock worker count simulated workloads run on.
    pub fn wall_threads(&self) -> usize {
        self.wall_threads
    }

    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Merged traffic counters of every `spmm` call so far on this engine
    /// and its clones.
    pub fn lifetime_counters(&self) -> ClassCounters {
        self.lifetime().clone()
    }

    /// Lock the lifetime ledger. A poisoned lock is recovered: the ledger
    /// is plain counters, valid after every individual merge.
    fn lifetime(&self) -> MutexGuard<'_, ClassCounters> {
        self.lifetime.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn system(&self) -> &MemSystem {
        &self.sys
    }

    pub fn config(&self) -> &SpmmConfig {
        &self.cfg
    }

    /// Execute `C = A·B` (in the CSDB's permuted space) under the configured
    /// policies, returning the numeric result and the full simulated-time
    /// accounting.
    pub fn spmm(&self, a: &Csdb, b: &DenseMatrix) -> Result<SpmmRun> {
        if b.rows() != a.cols() as usize {
            return Err(SpmmError::ShapeMismatch {
                sparse: (a.rows(), a.cols()),
                dense: b.shape(),
            });
        }
        let cfg = &self.cfg;
        let topo = self.sys.topology().clone();
        let sparse_dev = cfg.mode.operand_device();
        let dense_dev = cfg.mode.dense_device();
        let staging_dev = cfg.mode.staging_device();
        let d = b.cols();
        let n = a.rows() as usize;

        let rec = &self.rec;
        let run_span = rec.begin("spmm.run", Track::MAIN);
        rec.arg(&run_span, "rows", a.rows());
        rec.arg(&run_span, "cols", d);
        rec.arg(&run_span, "nnz", a.nnz());

        // --- Placement plan ------------------------------------------------
        // NaDP partitioning is pure planning: the model charges it no
        // simulated time, so the span is wall-clock only (zero sim duration).
        let nadp_span = rec.begin("spmm.nadp_partition", Track::MAIN);
        let use_nadp = cfg.nadp && topo.nodes() > 1;
        let (sparse_parts, groups): (Vec<(Range<u32>, Placement)>, Vec<Group>) = if use_nadp {
            let plan = NadpPlan::build(a, d, &topo, cfg.threads);
            let parts = plan
                .sparse_rows
                .iter()
                .enumerate()
                .map(|(k, r)| (r.clone(), Placement::node(k, sparse_dev)))
                .collect();
            let groups = (0..plan.nodes())
                .map(|k| Group {
                    home: Some(k),
                    cols: plan.dense_cols[k].clone(),
                    threads: plan.threads[k].clone(),
                })
                .collect();
            (parts, groups)
        } else {
            let placement = if topo.nodes() > 1 {
                Placement::interleaved(sparse_dev)
            } else {
                Placement::node(0, sparse_dev)
            };
            (
                vec![(0..a.rows(), placement)],
                vec![Group {
                    home: None,
                    cols: 0..d,
                    threads: (0..cfg.threads).collect(),
                }],
            )
        };
        rec.arg(&nadp_span, "groups", groups.len());
        rec.arg(&nadp_span, "nadp", use_nadp);
        rec.end(nadp_span, Some(SimDuration::ZERO));

        // --- Capacity reservations -----------------------------------------
        // Sparse structures: per home partition, its nnz share of the bytes.
        let mut reservations: Vec<MemReservation> = Vec::new();
        let sparse_bytes = a.size_bytes();
        for (range, placement) in &sparse_parts {
            let part_nnz: u64 = if range.start < a.rows() {
                let hi = if range.end < a.rows() {
                    a.deg_ptr(range.end)
                } else {
                    a.nnz() as u64
                };
                hi - a.deg_ptr(range.start)
            } else {
                0
            };
            let bytes = sparse_bytes * part_nnz / (a.nnz() as u64).max(1);
            reservations.push(self.reserve(*placement, bytes)?);
        }

        // --- Per-group execution --------------------------------------------
        let in_degrees = if cfg.wofp.is_some() {
            a.in_degrees()
        } else {
            Vec::new()
        };
        let alloc_time = SimDuration::from_secs_f64(
            cfg.alloc.overhead_cpu_ops(a.rows()) as f64 / self.sys.model().cpu_ops_per_sec,
        );
        // The allocation scheme's simulated cost is charged up front; the
        // per-group `allocate` calls below run during the wall-clock window
        // of `spmm.execute`.
        let eata_span = rec.begin("spmm.eata_assign", Track::MAIN);
        rec.end(eata_span, Some(alloc_time));

        let exec_span = rec.begin("spmm.execute", Track::MAIN);
        // All socket groups start executing at the same simulated instant.
        let exec_base = rec.cursor(Track::MAIN);

        let mut result = DenseMatrix::zeros(n, d);
        let mut thread_times = vec![SimDuration::ZERO; cfg.threads];
        let mut merged = ClassCounters::default();
        let mut workload_reports: Vec<WorkloadReport> = Vec::new();
        let mut group_makespans: Vec<SimDuration> = Vec::new();
        let mut total_fetches = 0u64;
        let mut total_hits = 0u64;
        let mut total_misses = 0u64;
        let mut total_wasted = 0u64;
        let mut degraded_chunks = 0u64;

        for (gi, group) in groups.iter().enumerate() {
            if group.cols.is_empty() || group.threads.is_empty() {
                group_makespans.push(SimDuration::ZERO);
                continue;
            }
            let dense_home = match group.home {
                Some(node) => Placement::node(node, dense_dev),
                None => {
                    if topo.nodes() > 1 {
                        Placement::interleaved(dense_dev)
                    } else {
                        Placement::node(0, dense_dev)
                    }
                }
            };
            let staging_home = match group.home {
                Some(node) => Placement::node(node, staging_dev),
                None => {
                    if topo.nodes() > 1 {
                        Placement::interleaved(staging_dev)
                    } else {
                        Placement::node(0, staging_dev)
                    }
                }
            };

            // Place this group's dense column block and result block.
            let b_part = PlacedMatrix::new(&self.sys, dense_home, b.columns(group.cols.clone()))?;
            let c_part = PlacedMatrix::zeros(&self.sys, dense_home, n, group.cols.len())?;

            // ASL plan from the staging budget.
            let (asl_plan, asl_active, _stage_window) =
                self.plan_streaming(group, staging_home, sparse_bytes, n as u64)?;

            // Row workloads for this group's threads.
            let mut workloads = cfg.alloc.allocate(a, group.threads.len());
            for (i, w) in workloads.iter_mut().enumerate() {
                w.thread = group.threads[i];
            }

            // Prefetchers + their build overhead, charged per thread. With
            // ASL actively staging whole column batches in DRAM, WoFP has
            // nothing left to stage and is skipped (its role is the
            // streaming-disabled / budget-starved regime of Fig. 14).
            let prefetchers: Vec<Option<Prefetcher>> = workloads
                .iter()
                .map(|w| {
                    if asl_active {
                        return None;
                    }
                    cfg.wofp
                        .as_ref()
                        .map(|wofp| Prefetcher::build(wofp, a, w, &in_degrees))
                })
                .collect();
            let mut prefetch_overheads = vec![SimDuration::ZERO; workloads.len()];
            for (i, p) in prefetchers.iter().enumerate() {
                if let Some(p) = p {
                    let mut ctx = self.ctx_for(group, workloads[i].thread);
                    ctx.add_cpu_ops(p.build_cpu_ops);
                    if p.build_scan_bytes > 0 {
                        // The counting pass streams the workload's indices.
                        let seg_placement = sparse_parts
                            .iter()
                            .find(|(r, _)| match workloads[i].rows {
                                crate::workload::RowSet::Range { start, .. } => r.contains(&start),
                                _ => true,
                            })
                            .map(|(_, p)| *p)
                            .unwrap_or(dense_home);
                        ctx.charge_block(
                            seg_placement,
                            AccessOp::Read,
                            AccessPattern::Seq,
                            p.build_scan_bytes,
                            1,
                        );
                    }
                    prefetch_overheads[i] = self
                        .sys
                        .model()
                        .thread_time(ctx.counters(), cfg.threads as u32);
                    merged.merge(ctx.counters());
                }
            }

            // --- Batched execution ------------------------------------------
            let result_target = if asl_active { staging_home } else { dense_home };
            let dense_read = if asl_active { staging_home } else { dense_home };
            let mut compute_times: Vec<SimDuration> = Vec::with_capacity(asl_plan.num_batches());
            let mut load_times: Vec<SimDuration> = Vec::with_capacity(asl_plan.num_batches());
            let mut flush_times: Vec<SimDuration> = Vec::with_capacity(asl_plan.num_batches());
            let mut per_workload_time = vec![SimDuration::ZERO; workloads.len()];
            let mut per_workload_stats = vec![KernelStats::default(); workloads.len()];

            for batch in &asl_plan.batches {
                // Columns of this batch, local to the group's block.
                let local_batch = batch.start - group.cols.start..batch.end - group.cols.start;
                // ASL pre-load: stream the batch's dense columns from their
                // PM home into the DRAM window (overlapped by the pipeline).
                let load = if asl_active {
                    let bytes = (n * batch.len() * 4) as u64;
                    let mut ctx = self.ctx_for(group, group.threads[0]);
                    ctx.charge_block(dense_home, AccessOp::Read, AccessPattern::Seq, bytes, 1);
                    ctx.charge_block(staging_home, AccessOp::Write, AccessPattern::Seq, bytes, 1);
                    let t = self.sys.model().stream_time(ctx.counters()) + ctx.injected_penalty();
                    merged.merge(ctx.counters());
                    t
                } else {
                    SimDuration::ZERO
                };
                load_times.push(load);

                let outputs = self.run_batch(
                    a,
                    &sparse_parts,
                    &b_part,
                    dense_read,
                    staging_home,
                    result_target,
                    &workloads,
                    &prefetchers,
                    group,
                    local_batch.clone(),
                );

                // Collect: write blocks into the result, merge accounting.
                let mut batch_max = SimDuration::ZERO;
                for (wi, (block, stats, counters, penalty, failed)) in
                    outputs.into_iter().enumerate()
                {
                    let w = &workloads[wi];
                    let mut t =
                        self.sys.model().thread_time(&counters, cfg.threads as u32) + penalty;
                    if failed {
                        // Degraded mode: the chunk's output is recomputed
                        // from scratch, paying the chunk's traffic and time
                        // a second time. The numeric result is unaffected —
                        // the kernel is deterministic.
                        degraded_chunks += 1;
                        merged.merge(&counters);
                        t += t;
                    }
                    batch_max = batch_max.max(t);
                    per_workload_time[wi] += t;
                    per_workload_stats[wi].dense_fetches += stats.dense_fetches;
                    per_workload_stats[wi].prefetch_hits += stats.prefetch_hits;
                    per_workload_stats[wi].prefetch_misses += stats.prefetch_misses;
                    // A property of the workload's prefetcher, identical in
                    // every batch — assign, don't accumulate.
                    per_workload_stats[wi].wasted_prefetches = stats.wasted_prefetches;
                    merged.merge(&counters);
                    thread_times[w.thread] += t;
                    // Scatter the block into the global result.
                    let nrows = w.row_count();
                    for (lt, t_global) in batch.clone().enumerate() {
                        let col = result.col_mut(t_global);
                        for (li, v) in w.rows.iter().enumerate() {
                            col[v as usize] = block[lt * nrows + li];
                        }
                    }
                }
                compute_times.push(batch_max);

                // Flush the batch's result block from the staging window to
                // its PM home (asynchronous, overlapped by the pipeline).
                let flush = if asl_active {
                    let bytes = (n * batch.len() * 4) as u64;
                    let mut ctx = self.ctx_for(group, group.threads[0]);
                    ctx.charge_block(staging_home, AccessOp::Read, AccessPattern::Seq, bytes, 1);
                    ctx.charge_block(dense_home, AccessOp::Write, AccessPattern::Seq, bytes, 1);
                    let t = self.sys.model().stream_time(ctx.counters()) + ctx.injected_penalty();
                    merged.merge(ctx.counters());
                    t
                } else {
                    SimDuration::ZERO
                };
                flush_times.push(flush);
            }

            // Prefetch build happens once, before the pipeline.
            let prefetch_setup = prefetch_overheads
                .iter()
                .copied()
                .fold(SimDuration::ZERO, SimDuration::max);
            for (wi, w) in workloads.iter().enumerate() {
                thread_times[w.thread] += prefetch_overheads[wi];
            }
            let makespan =
                prefetch_setup + streaming_makespan(&compute_times, &load_times, &flush_times);
            group_makespans.push(makespan);

            // Replay the group's pipeline onto its trace tracks: pid 1+home
            // (pid 0 is the main program), tid 0 = compute lane, tid 1 =
            // background stream lane.
            if rec.is_enabled() {
                let pid = 1 + group.home.unwrap_or(gi) as u32;
                let label = match group.home {
                    Some(node) => format!("socket{node}"),
                    None => format!("group{gi}"),
                };
                let compute_track = Track::new(pid, 0);
                let stream_track = Track::new(pid, 1);
                rec.set_track_name(compute_track, &format!("{label} compute"));
                if asl_active {
                    rec.set_track_name(stream_track, &format!("{label} stream"));
                }
                if prefetch_setup > SimDuration::ZERO {
                    rec.record_interval(
                        "wofp.prefetch",
                        compute_track,
                        exec_base,
                        prefetch_setup,
                        vec![("workloads".into(), workloads.len().to_string())],
                    );
                }
                let sched = streaming_schedule(&compute_times, &load_times, &flush_times);
                let base = exec_base + prefetch_setup;
                for (k, &(start, dur)) in sched.compute.iter().enumerate() {
                    rec.record_interval(
                        "asl.batch",
                        compute_track,
                        base + start,
                        dur,
                        vec![("batch".into(), k.to_string())],
                    );
                }
                for (k, &(start, dur)) in sched.load.iter().enumerate() {
                    if dur > SimDuration::ZERO {
                        rec.record_interval(
                            "asl.load",
                            stream_track,
                            base + start,
                            dur,
                            vec![("batch".into(), k.to_string())],
                        );
                    }
                }
                for (k, &(start, dur)) in sched.flush.iter().enumerate() {
                    if dur > SimDuration::ZERO {
                        rec.record_interval(
                            "asl.flush",
                            stream_track,
                            base + start,
                            dur,
                            vec![("batch".into(), k.to_string())],
                        );
                    }
                }
            }

            for (wi, w) in workloads.iter().enumerate() {
                total_fetches += per_workload_stats[wi].dense_fetches;
                total_hits += per_workload_stats[wi].prefetch_hits;
                total_misses += per_workload_stats[wi].prefetch_misses;
                total_wasted += per_workload_stats[wi].wasted_prefetches;
                workload_reports.push(WorkloadReport {
                    thread: w.thread,
                    rows: w.row_count(),
                    nnzs: w.nnzs,
                    entropy: w.entropy,
                    scatter: w.scatter,
                    time: per_workload_time[wi] + prefetch_overheads[wi],
                    dense_fetches: per_workload_stats[wi].dense_fetches,
                    prefetch_hits: per_workload_stats[wi].prefetch_hits,
                    prefetch_misses: per_workload_stats[wi].prefetch_misses,
                    wasted_prefetches: per_workload_stats[wi].wasted_prefetches,
                    prefetcher: prefetchers[wi].as_ref().map(|p| p.kind()),
                });
            }

            // Copy the numeric result out of the placed block is already
            // done via `result`; c_part exists for capacity accounting.
            drop(c_part);
        }
        drop(reservations);

        let exec_time = group_makespans
            .into_iter()
            .fold(SimDuration::ZERO, SimDuration::max);
        let makespan = alloc_time + exec_time;
        let stats = ThreadStats::from_times(&thread_times);

        rec.end(exec_span, Some(exec_time));
        rec.end(run_span, None);
        rec.counter_add("spmm.runs", 1);
        rec.counter_add("spmm.dense_fetches", total_fetches);
        rec.counter_add("spmm.prefetch_hits", total_hits);
        rec.counter_add("spmm.prefetch_misses", total_misses);
        rec.counter_add("spmm.wasted_prefetches", total_wasted);
        if total_fetches > 0 {
            rec.gauge_set("wofp.hit_rate", total_hits as f64 / total_fetches as f64);
        }
        // Degraded-mode accounting: each failed chunk was injected by the
        // plan and resolved by a re-run, so it lands on both sides of the
        // `fault.injected == … + serve.degraded` identity. Published only
        // when faults actually fired, keeping fault-free metric exports
        // byte-identical to builds without a plan.
        if degraded_chunks > 0 {
            rec.counter_add("fault.injected", degraded_chunks);
            rec.counter_add("serve.degraded", degraded_chunks);
        }
        self.lifetime().merge(&merged);

        Ok(SpmmRun {
            result,
            makespan,
            alloc_time,
            thread_times,
            stats,
            workloads: workload_reports,
            counters: merged,
            dense_fetches: total_fetches,
            prefetch_hits: total_hits,
            prefetch_misses: total_misses,
            wasted_prefetches: total_wasted,
            degraded_chunks,
        })
    }

    /// Resolve the ASL plan for a group: Eq. 9 against the staging budget,
    /// falling back to a streamed-result variant, then to no streaming.
    fn plan_streaming(
        &self,
        group: &Group,
        staging_home: Placement,
        sparse_bytes: u64,
        v: u64,
    ) -> Result<(AslPlan, bool, Option<MemReservation>)> {
        let Some(asl) = self.cfg.asl else {
            return Ok((AslPlan::single(group.cols.clone()), false, None));
        };
        let d = group.cols.len();
        let budget = (self.available_at(staging_home) as f64 * asl.dram_fraction) as u64;

        // Eq. 9 verbatim, then the streamed-result fallback where only the
        // current batch's result block occupies the window.
        let partitions = partitions_required(d, v, 4, budget, sparse_bytes).or_else(|| {
            let dv = d as u64 * v * 4;
            if budget <= sparse_bytes {
                return None;
            }
            let free = (budget - sparse_bytes) as f64;
            Some(((3.0 * dv as f64 / free).ceil() as u64).max(1))
        });
        let Some(parts) = partitions else {
            return Ok((AslPlan::single(group.cols.clone()), false, None));
        };
        let plan = AslPlan::new(group.cols.clone(), parts);
        // Reserve the double-buffered window (current + in-flight batch).
        let window = (plan.max_batch_cols() as u64 * v * 4).saturating_mul(2);
        match self.reserve(staging_home, window.min(budget.max(1))) {
            Ok(r) => Ok((plan, true, Some(r))),
            Err(_) => Ok((AslPlan::single(group.cols.clone()), false, None)),
        }
    }

    fn available_at(&self, placement: Placement) -> u64 {
        let gov = self.sys.governor();
        match placement {
            Placement::Node { node, device } => gov.usage(node, device).available(),
            Placement::Interleaved { device } => (0..self.sys.topology().nodes())
                .map(|k| gov.usage(k, device).available())
                .sum(),
        }
    }

    fn reserve(&self, placement: Placement, bytes: u64) -> Result<MemReservation> {
        let gov = self.sys.governor().clone();
        match placement {
            Placement::Node { node, device } => Ok(MemReservation::new(gov, node, device, bytes)?),
            Placement::Interleaved { device } => {
                // Approximate an interleaved reservation as node 0 + node 1
                // halves; MemReservation handles one pair, so reserve the
                // whole amount spread via two reservations is overkill —
                // place the accounting on node 0 and the rest on node 1.
                let nodes = self.sys.topology().nodes() as u64;
                let per = bytes / nodes;
                // Hold the first reservation inside a composite by chaining:
                // simplest correct behaviour: reserve per-node amounts and
                // keep only the first (others dropped) would leak capacity.
                // Instead, reserve the full amount on node 0 when single
                // node, else split across two explicit reservations held in
                // a Vec is not expressible here; reserve on node 0 the
                // per-node share times nodes to stay conservative.
                let _ = per;
                Ok(MemReservation::new(gov, 0, device, bytes)?)
            }
        }
    }

    fn ctx_for(&self, group: &Group, thread: usize) -> ThreadMem {
        match group.home {
            Some(node) => self.sys.thread_ctx_on(node),
            None => self.sys.thread_ctx(thread),
        }
    }

    /// [`ctx_for`], but recycled out of a pool worker's persistent scratch
    /// slot: a reset context is observationally identical to a fresh one,
    /// so fault draws and counters match [`ctx_for`] byte-for-byte without
    /// re-running construction on every workload of every batch.
    ///
    /// [`ctx_for`]: SpmmEngine::ctx_for
    fn ctx_for_in<'s>(
        &self,
        slot: &'s mut Option<ThreadMem>,
        group: &Group,
        thread: usize,
    ) -> &'s mut ThreadMem {
        let node = match group.home {
            Some(node) => node,
            None => self.sys.topology().node_of_thread(thread),
        };
        self.sys.recycle_ctx_on(slot, node)
    }

    /// Run all of a group's workloads for one column batch on real threads.
    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &self,
        a: &Csdb,
        sparse_parts: &[(Range<u32>, Placement)],
        b_part: &PlacedMatrix,
        dense_read: Placement,
        staging_home: Placement,
        result_target: Placement,
        workloads: &[Workload],
        prefetchers: &[Option<Prefetcher>],
        group: &Group,
        local_cols: Range<usize>,
    ) -> Vec<(Vec<f32>, KernelStats, ClassCounters, SimDuration, bool)> {
        let inputs = KernelInputs {
            csdb: a,
            sparse_parts,
            dense: b_part,
            dense_read,
            staging: staging_home,
            result: result_target,
        };
        // The shared workspace pool: workloads are claimed dynamically and
        // results land in workload-index order, so wall parallelism never
        // reorders the fixed-order merge downstream.
        let threads = self.wall_threads.min(workloads.len().max(1));
        omega_par::run_labeled(
            "spmm.workload",
            threads,
            workloads.len(),
            |slot: &mut Option<ThreadMem>, wi| {
                let w = &workloads[wi];
                let ctx = self.ctx_for_in(slot, group, w.thread);
                // Salt the context clock so an installed fault plan draws
                // independently per (batch, workload) — decided by data, never
                // by OS thread scheduling.
                ctx.set_sim_now(SimDuration::from_nanos(
                    ((local_cols.start as u64) << 20) | wi as u64,
                ));
                let (block, stats) = run_workload(
                    &inputs,
                    w,
                    local_cols.clone(),
                    prefetchers[wi].as_ref(),
                    ctx,
                );
                let penalty = ctx.injected_penalty();
                let failed = ctx.take_fault().is_some();
                (block, stats, ctx.take_counters(), penalty, failed)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::RmatConfig;
    use omega_hetmem::Topology;
    use omega_linalg::gaussian_matrix;

    fn graph(nodes: u32, edges: u64) -> Csdb {
        let csr = RmatConfig::social(nodes, edges, 77).generate_csr().unwrap();
        Csdb::from_csr(&csr).unwrap()
    }

    fn reference(csdb: &Csdb, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(csdb.rows() as usize, b.cols());
        for t in 0..b.cols() {
            c.col_mut(t).copy_from_slice(&csdb.spmv(b.col(t)).unwrap());
        }
        c
    }

    fn engine(cfg: SpmmConfig) -> SpmmEngine {
        SpmmEngine::new(MemSystem::new(Topology::paper_machine_scaled(8 << 20)), cfg).unwrap()
    }

    #[test]
    fn recorder_trace_matches_makespan_and_fetch_accounting() {
        let g = graph(512, 4_000);
        let b = gaussian_matrix(512, 16, 5);
        let rec = Recorder::enabled();
        let eng = engine(SpmmConfig::omega(8)).with_recorder(rec.clone());
        let run = eng.spmm(&g, &b).unwrap();

        // Every fetch is either a staging hit or a miss.
        assert_eq!(run.prefetch_hits + run.prefetch_misses, run.dense_fetches);
        for w in &run.workloads {
            assert_eq!(w.prefetch_hits + w.prefetch_misses, w.dense_fetches);
            assert!(w.hit_rate() >= 0.0 && w.hit_rate() <= 1.0);
        }

        // The root span's simulated duration is exactly the run's makespan
        // (eata_assign + execute; nadp_partition is zero-cost).
        let spans = rec.spans();
        let root = spans.iter().find(|s| s.name == "spmm.run").unwrap();
        assert_eq!(root.sim_dur_ns, run.makespan.as_nanos());
        let exec = spans.iter().find(|s| s.name == "spmm.execute").unwrap();
        assert_eq!(exec.sim_dur_ns, (run.makespan - run.alloc_time).as_nanos());
        assert!(exec.depth > root.depth, "execute nests inside run");
        // Pipeline intervals land on per-socket tracks and stay within the
        // execute window.
        let batches: Vec<_> = spans.iter().filter(|s| s.name == "asl.batch").collect();
        assert!(!batches.is_empty());
        for s in &batches {
            assert!(s.track.pid >= 1);
            assert!(s.sim_start_ns >= exec.sim_start_ns);
            assert!(s.sim_start_ns + s.sim_dur_ns <= exec.sim_start_ns + exec.sim_dur_ns);
        }
        // Metrics mirror the run's totals.
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("spmm.dense_fetches"), Some(run.dense_fetches));
        assert_eq!(snap.counter("spmm.prefetch_hits"), Some(run.prefetch_hits));
        assert_eq!(snap.counter("spmm.runs"), Some(1));
    }

    #[test]
    fn full_omega_config_is_numerically_exact() {
        let g = graph(512, 4_000);
        let b = gaussian_matrix(512, 16, 5);
        let run = engine(SpmmConfig::omega(8)).spmm(&g, &b).unwrap();
        let expect = reference(&g, &b);
        assert!(run.result.max_abs_diff(&expect) < 1e-3);
        assert!(run.makespan > SimDuration::ZERO);
        assert_eq!(run.thread_times.len(), 8);
        assert!(run.dense_fetches >= g.nnz() as u64 * 16);
    }

    #[test]
    fn all_mode_and_policy_combinations_agree_numerically() {
        let g = graph(256, 2_000);
        let b = gaussian_matrix(256, 8, 2);
        let expect = reference(&g, &b);
        let configs = [
            SpmmConfig::omega(4),
            SpmmConfig::omega_dram(4),
            SpmmConfig::omega_pm(4),
            SpmmConfig::omega(4)
                .with_alloc(AllocScheme::RoundRobin)
                .with_nadp(false),
            SpmmConfig::omega(4).with_alloc(AllocScheme::WaTA),
            SpmmConfig::omega(4).with_wofp(None),
            SpmmConfig::omega(4).with_nadp(false),
            SpmmConfig::omega(4).with_asl(None),
        ];
        for cfg in configs {
            let run = engine(cfg).spmm(&g, &b).unwrap();
            assert!(
                run.result.max_abs_diff(&expect) < 1e-3,
                "config {cfg:?} diverged"
            );
        }
    }

    #[test]
    fn pm_only_is_slowest_dram_only_fastest() {
        let g = graph(1 << 10, 10_000);
        let b = gaussian_matrix(1 << 10, 16, 3);
        let hetero = engine(SpmmConfig::omega(8)).spmm(&g, &b).unwrap();
        let dram = engine(SpmmConfig::omega_dram(8)).spmm(&g, &b).unwrap();
        let pm = engine(SpmmConfig::omega_pm(8)).spmm(&g, &b).unwrap();
        assert!(
            dram.makespan <= hetero.makespan,
            "DRAM {} should beat hetero {}",
            dram.makespan,
            hetero.makespan
        );
        assert!(
            hetero.makespan < pm.makespan,
            "hetero {} should beat PM-only {}",
            hetero.makespan,
            pm.makespan
        );
    }

    #[test]
    fn eata_beats_round_robin_makespan() {
        let g = graph(1 << 11, 30_000);
        let b = gaussian_matrix(1 << 11, 8, 4);
        let rr = engine(SpmmConfig::omega(8).with_alloc(AllocScheme::RoundRobin))
            .spmm(&g, &b)
            .unwrap();
        let eata = engine(SpmmConfig::omega(8)).spmm(&g, &b).unwrap();
        assert!(
            eata.makespan < rr.makespan,
            "EaTA {} should beat RR {}",
            eata.makespan,
            rr.makespan
        );
    }

    #[test]
    fn nadp_reduces_remote_write_traffic() {
        let g = graph(1 << 10, 10_000);
        let b = gaussian_matrix(1 << 10, 8, 6);
        let with = engine(SpmmConfig::omega(8).with_asl(None))
            .spmm(&g, &b)
            .unwrap();
        let without = engine(SpmmConfig::omega(8).with_asl(None).with_nadp(false))
            .spmm(&g, &b)
            .unwrap();
        let remote_writes = |c: &ClassCounters| {
            c.bytes_where(|cl| {
                cl.locality == omega_hetmem::Locality::Remote && cl.op == AccessOp::Write
            })
        };
        assert!(remote_writes(&with.counters) < remote_writes(&without.counters));
        assert!(with.makespan <= without.makespan);
    }

    #[test]
    fn oom_on_tiny_topology_is_typed() {
        let g = graph(1 << 10, 10_000);
        let b = gaussian_matrix(1 << 10, 64, 6);
        // DRAM too small for the dense operand in DramOnly mode.
        let sys = MemSystem::new(Topology::new(2, 4, 64 << 10, 64 << 20, 0).unwrap());
        let eng = SpmmEngine::new(sys, SpmmConfig::omega_dram(4)).unwrap();
        let err = eng.spmm(&g, &b).unwrap_err();
        assert!(err.is_oom(), "{err}");
    }

    #[test]
    fn zero_threads_rejected() {
        let sys = MemSystem::new(Topology::paper_machine_scaled(1 << 20));
        assert!(SpmmEngine::new(sys, SpmmConfig::omega(0)).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = graph(128, 500);
        let b = gaussian_matrix(64, 4, 1);
        let err = engine(SpmmConfig::omega(2)).spmm(&g, &b).unwrap_err();
        assert!(matches!(err, SpmmError::ShapeMismatch { .. }));
    }

    #[test]
    fn thread_stats_percentiles() {
        let times: Vec<SimDuration> = (1..=100).map(SimDuration::from_nanos).collect();
        let s = ThreadStats::from_times(&times);
        assert!((s.mean_s - 50.5e-9).abs() < 1e-12);
        assert_eq!(s.min_s, 1e-9);
        assert_eq!(s.max_s, 100e-9);
        assert_eq!(s.p95_s, 95e-9);
        assert_eq!(s.p99_s, 99e-9);
        let empty = ThreadStats::from_times(&[]);
        assert_eq!(empty.mean_s, 0.0);
    }

    #[test]
    fn throughput_is_positive_and_finite() {
        let g = graph(512, 4_000);
        let b = gaussian_matrix(512, 8, 5);
        let run = engine(SpmmConfig::omega(4)).spmm(&g, &b).unwrap();
        let tp = run.throughput_mnnz_s();
        assert!(tp > 0.0 && tp.is_finite());
    }

    #[test]
    fn determinism_across_runs() {
        let g = graph(512, 4_000);
        let b = gaussian_matrix(512, 8, 5);
        let eng = engine(SpmmConfig::omega(6));
        let r1 = eng.spmm(&g, &b).unwrap();
        let r2 = eng.spmm(&g, &b).unwrap();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.thread_times, r2.thread_times);
        assert_eq!(r1.result, r2.result);
    }
}
