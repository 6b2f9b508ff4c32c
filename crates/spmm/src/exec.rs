//! The simulated-time SpMM executor.
//!
//! Orchestrates one parallel SpMM exactly as Fig. 4 describes: EaTA (or a
//! baseline scheme) assigns rows to simulated threads, NaDP partitions
//! operands and binds thread groups to sockets, WoFP builds per-workload
//! prefetchers, and ASL pipelines column batches between DRAM and PM — all
//! of which is decided in `plan.rs`; this module runs the plan. Real
//! OS threads execute the numeric work; *simulated* time comes from each
//! simulated thread's charged traffic evaluated by the bandwidth model, and
//! a phase's makespan is the per-batch pipeline over the per-thread maxima.

use crate::asl::streaming_schedule;
use crate::config::SpmmConfig;
use crate::kernel::{charge_workload, compute_batch, row_blocks, KernelStats, Panel};
use crate::plan::GroupPlan;
use crate::report::{GroupRun, SpmmRun, WorkloadReport};
use crate::{Result, SpmmError};
use omega_graph::Csdb;
use omega_hetmem::{
    AccessOp, AccessPattern, ClassCounters, MemSystem, Placement, SimDuration, SimInstant,
    ThreadMem,
};
use omega_linalg::DenseMatrix;
use omega_obs::{Recorder, Track};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    /// Wall-clock worker threads: the pool width for packing each batch's
    /// panel, pricing the simulated workloads and computing the row
    /// blocks. Purely a speed knob — the blocks, fault salting and merge
    /// order are all decided by data, so results are bit-identical at
    /// every value. Not part of [`SpmmConfig`]: the config's `threads` is
    /// the *simulated* thread count and feeds the cost model, and the wall
    /// tasks are row blocks of balanced cost, not its workloads.
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

    /// Set the wall-clock worker count the numeric step and the pricing
    /// run on (defaults to the machine's available parallelism).
    /// Bit-identical results at every value; clamped to at least 1.
    pub fn with_wall_threads(mut self, wall_threads: usize) -> Self {
        self.wall_threads = wall_threads.max(1);
        self
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
        let rec = &self.rec;
        let run_span = rec.begin("spmm.run", Track::MAIN);
        rec.arg(&run_span, "rows", a.rows());
        rec.arg(&run_span, "cols", b.cols());
        rec.arg(&run_span, "nnz", a.nnz());

        // NaDP partitioning is pure planning: the model charges it no
        // simulated time, so the span is wall-clock only (zero sim duration).
        let nadp_span = rec.begin("spmm.nadp_partition", Track::MAIN);
        let layout = self.partition(a, b.cols())?;
        rec.arg(&nadp_span, "groups", layout.groups.len());
        rec.arg(&nadp_span, "nadp", layout.nadp);
        rec.end(nadp_span, Some(SimDuration::ZERO));

        // The allocation scheme's simulated cost is charged here, up front;
        // its row cuts were made with the layout.
        let alloc_time = SimDuration::from_secs_f64(
            cfg.alloc.overhead_cpu_ops(a.rows()) as f64 / self.sys.model().cpu_ops_per_sec,
        );
        let eata_span = rec.begin("spmm.eata_assign", Track::MAIN);
        rec.end(eata_span, Some(alloc_time));

        let exec_span = rec.begin("spmm.execute", Track::MAIN);
        // All socket groups start executing at the same simulated instant.
        let exec_base = rec.cursor(Track::MAIN);
        let mut run = SpmmRun::new(a.rows() as usize, b.cols(), cfg.threads, alloc_time);
        let blocks = row_blocks(a);
        for (gi, group) in layout.groups.iter().enumerate() {
            if !group.runs() {
                continue;
            }
            let plan = self.plan_group(a, b, &layout, group)?;
            let outcome = self.run_group(&plan, &blocks, &mut run.result);
            self.trace_group(gi, &plan, &outcome, exec_base);
            run.absorb(outcome);
        }
        drop(layout);

        rec.end(exec_span, Some(run.makespan - run.alloc_time));
        rec.end(run_span, None);
        rec.counter_add("spmm.runs", 1);
        rec.counter_add("spmm.dense_fetches", run.dense_fetches);
        rec.counter_add("spmm.prefetch_hits", run.prefetch_hits);
        rec.counter_add("spmm.prefetch_misses", run.prefetch_misses);
        rec.counter_add("spmm.wasted_prefetches", run.wasted_prefetches);
        if run.dense_fetches > 0 {
            rec.gauge_set("wofp.hit_rate", run.hit_rate());
        }
        // Degraded-mode accounting: each failed chunk was injected by the
        // plan and resolved by a re-run, so it lands on both sides of the
        // `fault.injected == … + serve.degraded` identity. Published only
        // when faults actually fired, keeping fault-free metric exports
        // byte-identical to builds without a plan.
        if run.degraded_chunks > 0 {
            rec.counter_add("fault.injected", run.degraded_chunks);
            rec.counter_add("serve.degraded", run.degraded_chunks);
        }
        self.lifetime().merge(&run.counters);
        Ok(run)
    }

    /// Execute one planned group: every column batch priced per workload
    /// and computed per row block of `blocks` straight into `result`, both
    /// on the wall-clock pool, its ASL load before and flush after,
    /// accounting folded per workload.
    fn run_group(
        &self,
        plan: &GroupPlan<'_>,
        blocks: &[Range<u32>],
        result: &mut DenseMatrix,
    ) -> GroupRun {
        let model = self.sys.model();
        let sim_threads = self.cfg.threads as u32;
        let mut counters = plan.setup_counters.clone();
        let mut degraded_chunks = 0u64;
        // Per workload: its prefetcher build, then every batch on top.
        let mut times = plan.prefetch_overheads.clone();
        let mut stats = vec![KernelStats::default(); plan.workloads.len()];
        let batches = plan.asl.num_batches();
        let mut compute_times = Vec::with_capacity(batches);
        let mut load_times = Vec::with_capacity(batches);
        let mut flush_times = Vec::with_capacity(batches);

        for batch in &plan.asl.batches {
            // ASL streams the batch's dense columns from their home into the
            // window before it computes and its result block back out after,
            // both overlapped by the pipeline.
            let block_bytes = (result.rows() * batch.len() * 4) as u64;
            let (home, window) = (plan.inputs.dense_home, plan.inputs.staging);
            load_times.push(self.stream_leg(plan, home, window, block_bytes, &mut counters));

            let mut batch_max = SimDuration::ZERO;
            for (wi, (chunk_stats, chunk, penalty, failed)) in
                self.charge_batch(plan, batch).into_iter().enumerate()
            {
                let mut t = model.thread_time(&chunk, sim_threads) + penalty;
                if failed {
                    // Degraded mode: the chunk's output is recomputed from
                    // scratch, paying the chunk's traffic and time a second
                    // time. The numeric result is unaffected — the kernel
                    // is deterministic.
                    degraded_chunks += 1;
                    counters.merge(&chunk);
                    t += t;
                }
                counters.merge(&chunk);
                batch_max = batch_max.max(t);
                times[wi] += t;
                stats[wi].absorb_batch(&chunk_stats);
            }
            let panel = Panel::pack(plan.dense, batch.clone(), self.wall_threads);
            compute_batch(
                plan.inputs.csdb,
                blocks,
                &panel,
                result,
                batch.clone(),
                self.wall_threads,
            );
            compute_times.push(batch_max);
            flush_times.push(self.stream_leg(plan, window, home, block_bytes, &mut counters));
        }

        let reports = (plan.workloads.iter().zip(&plan.prefetchers))
            .zip(times.into_iter().zip(stats))
            .map(|((w, prefetcher), (time, stats))| WorkloadReport {
                thread: w.thread,
                rows: w.rows.len(),
                nnzs: w.nnzs,
                entropy: w.entropy,
                scatter: w.scatter,
                time,
                dense_fetches: stats.dense_fetches,
                prefetch_hits: stats.prefetch_hits,
                prefetch_misses: stats.prefetch_misses,
                wasted_prefetches: stats.wasted_prefetches,
                prefetcher: prefetcher.as_ref().map(|p| p.kind()),
            })
            .collect();
        GroupRun {
            // Prefetch builds happen once, in parallel, before the pipeline.
            prefetch_setup: (plan.prefetch_overheads.iter().copied())
                .fold(SimDuration::ZERO, SimDuration::max),
            schedule: streaming_schedule(&compute_times, &load_times, &flush_times),
            reports,
            counters,
            degraded_chunks,
        }
    }

    /// Price one ASL stream leg — `bytes` read sequentially from `from` and
    /// written sequentially to `to` by the group's background channel — and
    /// add its traffic to `counters`. Free when the group does not stream.
    fn stream_leg(
        &self,
        plan: &GroupPlan<'_>,
        from: Placement,
        to: Placement,
        bytes: u64,
        counters: &mut ClassCounters,
    ) -> SimDuration {
        if !plan.streaming {
            return SimDuration::ZERO;
        }
        let group = plan.group;
        let node = group.node_of(group.threads[0], self.sys.topology());
        let mut ctx = self.sys.thread_ctx_on(node);
        ctx.charge_block(from, AccessOp::Read, AccessPattern::Seq, bytes, 1);
        ctx.charge_block(to, AccessOp::Write, AccessPattern::Seq, bytes, 1);
        counters.merge(ctx.counters());
        self.sys.model().stream_time(ctx.counters()) + ctx.injected_penalty()
    }

    /// Price all of a group's workloads for one column batch on the pool,
    /// one context each: the traffic stats, the charged counters, the
    /// injected penalty and whether a fault fired.
    fn charge_batch(
        &self,
        plan: &GroupPlan<'_>,
        batch: &Range<usize>,
    ) -> Vec<(KernelStats, ClassCounters, SimDuration, bool)> {
        // Salt each context's clock so an installed fault plan draws
        // independently per (batch, workload) — decided by data (the batch's
        // first column within the group, the workload's index), never by OS
        // thread scheduling. Results land in workload-index order, so wall
        // parallelism never reorders the fixed-order merge downstream. Each
        // worker recycles one context across workloads; a reset context is
        // observationally identical to a fresh one.
        let batch_salt = ((batch.start - plan.group.cols.start) as u64) << 20;
        omega_par::run_labeled(
            "spmm.workload",
            self.wall_threads,
            plan.workloads.len(),
            |slot: &mut Option<ThreadMem>, wi| {
                let w = &plan.workloads[wi];
                let node = plan.group.node_of(w.thread, self.sys.topology());
                let ctx = self.sys.recycle_ctx_on(slot, node);
                ctx.set_sim_now(SimDuration::from_nanos(batch_salt | wi as u64));
                let prefetcher = plan.prefetchers[wi].as_ref();
                let stats = charge_workload(&plan.inputs, w, batch.len(), prefetcher, ctx);
                let penalty = ctx.injected_penalty();
                let failed = ctx.take_fault().is_some();
                (stats, ctx.take_counters(), penalty, failed)
            },
        )
    }

    /// Replay a group's pipeline onto its trace tracks: pid 1+home (pid 0
    /// is the main program), tid 0 = compute lane, tid 1 = background
    /// stream lane.
    fn trace_group(&self, gi: usize, plan: &GroupPlan<'_>, run: &GroupRun, exec_base: SimInstant) {
        let rec = &self.rec;
        if !rec.is_enabled() {
            return;
        }
        let (pid, label) = match plan.group.home {
            Some(node) => (1 + node as u32, format!("socket{node}")),
            None => (1 + gi as u32, format!("group{gi}")),
        };
        let compute_track = Track::new(pid, 0);
        let stream_track = Track::new(pid, 1);
        rec.set_track_name(compute_track, &format!("{label} compute"));
        if plan.streaming {
            rec.set_track_name(stream_track, &format!("{label} stream"));
        }
        if run.prefetch_setup > SimDuration::ZERO {
            rec.record_interval(
                "wofp.prefetch",
                compute_track,
                exec_base,
                run.prefetch_setup,
                vec![("workloads".into(), plan.workloads.len().to_string())],
            );
        }
        let base = exec_base + run.prefetch_setup;
        let sched = &run.schedule;
        for (name, track, lane) in [
            ("asl.batch", compute_track, &sched.compute),
            ("asl.load", stream_track, &sched.load),
            ("asl.flush", stream_track, &sched.flush),
        ] {
            for (k, &(start, dur)) in lane.iter().enumerate() {
                // Every batch computes; a leg that moved nothing is not drawn.
                if track == compute_track || dur > SimDuration::ZERO {
                    let args = vec![("batch".into(), k.to_string())];
                    rec.record_interval(name, track, base + start, dur, args);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocScheme, ThreadStats};
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

    /// `got` holds `want`'s bits, entry for entry.
    fn assert_bits(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        let bits = |m: &DenseMatrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(bits(got) == bits(want), "{what}: not bit-equal to spmv");
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
        assert_bits(&run.result, &reference(&g, &b), "omega(8)");
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
            assert_bits(&run.result, &expect, &format!("{cfg:?}"));
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
