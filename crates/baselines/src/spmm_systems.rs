//! SpMM-specialised comparators for Fig. 18(b): [`Comparator::SemSpmm`] and
//! [`Comparator::FusedMm`], each pricing one SpMM.
//!
//! * **SEM-SpMM** (TPDS'17): semi-external-memory SpMM — the sparse matrix
//!   stays on SSD and streams through memory once per *vector batch* while
//!   the dense operand is memory-resident. Large `d` therefore re-streams
//!   the sparse matrix `⌈d / batch⌉` times from the SSD, which is the
//!   bottleneck the paper's 15.7× average speedup reflects.
//! * **FusedMM** (IPDPS'21): a fused in-memory CSR kernel. DRAM-only, so it
//!   fails on the billion-scale twins exactly as the paper reports; on
//!   graphs that fit it is competitive but NUMA-oblivious (OS interleaved
//!   pages, plain workload-balanced threading, no degree-aware layout).
//!
//! [`Comparator::SemSpmm`]: crate::Comparator::SemSpmm
//! [`Comparator::FusedMm`]: crate::Comparator::FusedMm

use crate::ssd;
use crate::RunOutcome;
use omega_graph::Csr;
use omega_hetmem::{AccessOp, AccessPattern, DeviceKind, MemSystem, Placement, Topology};

/// Dense columns SEM-SpMM processes per sparse-matrix stream (its vector
/// batching; the reference system uses small batches to bound memory).
const SEM_COLS_PER_PASS: usize = 8;

/// Framework inefficiency of SEM-SpMM's page-based SEM abstraction
/// (FlashX): its kernel works through a page cache indirection per
/// element, so memory-side work runs at a fraction of a native kernel's
/// rate. The factor is calibrated so the Fig. 18(b) speedup band (~15×)
/// holds on the twins and is documented in DESIGN.md.
const SEM_FRAMEWORK_OVERHEAD: f64 = 9.0;

/// FusedMM executes the *fused* SDDMM+SpMM semiring for embedding
/// workloads — roughly twice the dense traffic and arithmetic of the plain
/// SpMM OMeGa runs (both embedding operands are read per nnz).
const FUSED_FACTOR: u64 = 2;

/// SEM-SpMM, sparse on SSD and dense in DRAM: simulated time of one SpMM
/// `A·B` with `d` dense columns.
pub(crate) fn sem_spmm(topology: &Topology, a: &Csr, threads: usize, d: usize) -> RunOutcome {
    let sys = MemSystem::new(topology.clone());
    let n = a.rows() as u64;
    // Dense operand + result must fit DRAM.
    let dense_bytes = n * d as u64 * 4 * 2;
    if dense_bytes > topology.total_capacity(DeviceKind::Dram) {
        return RunOutcome::OutOfMemory;
    }
    let sparse_bytes = a.size_bytes();
    if sparse_bytes > topology.total_capacity(DeviceKind::Ssd) {
        return RunOutcome::OutOfMemory;
    }

    let dram = Placement::interleaved(DeviceKind::Dram);
    let passes = d.div_ceil(SEM_COLS_PER_PASS) as u64;
    let mut ctx = sys.thread_ctx(0);
    // Per pass: stream the sparse matrix from SSD, random-read the
    // dense operand in DRAM, write the result block.
    ssd::charge_seq_read(sparse_bytes * passes, &mut ctx);
    let gathers = a.nnz() as u64 * d as u64;
    ctx.charge_block(
        dram,
        AccessOp::Read,
        AccessPattern::Rand,
        gathers * 4,
        gathers,
    );
    ctx.charge_block(
        dram,
        AccessOp::Write,
        AccessPattern::Seq,
        n * d as u64 * 4,
        passes,
    );
    ctx.add_cpu_ops(gathers / threads as u64);
    let t = sys.model().stream_time(ctx.counters());
    RunOutcome::Completed(t * SEM_FRAMEWORK_OVERHEAD)
}

/// FusedMM, an in-memory fused CSR kernel on DRAM: simulated time of one
/// SpMM `A·B` with `d` dense columns, or OOM when DRAM cannot hold the
/// operands.
///
/// FusedMM works on the unsorted CSR with OS-interleaved pages and
/// nnz-balanced threads: without CSDB's degree blocks there are no
/// near-sequential hub workloads, so dense fetches take the conventional
/// all-random cost (the assumption the paper itself makes for CSR SpMM),
/// and half the interleaved traffic crosses the socket.
pub(crate) fn fused_mm(topology: &Topology, a: &Csr, threads: usize, d: usize) -> RunOutcome {
    let sys = MemSystem::new(topology.clone());
    let n = a.rows() as u64;
    // The fused kernel holds the sparse matrix plus three dense matrices:
    // both embedding operands of the fused SDDMM+SpMM and the result.
    let needed = a.size_bytes() + n * d as u64 * 4 * 3;
    if needed > topology.total_capacity(DeviceKind::Dram) {
        return RunOutcome::OutOfMemory;
    }
    let dram = Placement::interleaved(DeviceKind::Dram);
    // Per-thread share of a WaTA split (nnz-balanced), per dense column:
    // the fused kernel makes one pass (its selling point), streaming the
    // sparse structures once per column like Algorithm 1.
    let per_thread_nnz = a.nnz() as u64 / threads as u64;
    let per_thread_rows = n / threads as u64;
    let gathers = per_thread_nnz * FUSED_FACTOR;
    let mut ctx = sys.thread_ctx(0);
    for _col in 0..d {
        let sparse_bytes = per_thread_rows * 8 + per_thread_nnz * 8;
        ctx.charge_block(dram, AccessOp::Read, AccessPattern::Seq, sparse_bytes, 2);
        ctx.charge_block(
            dram,
            AccessOp::Read,
            AccessPattern::Rand,
            gathers * 4,
            gathers,
        );
        ctx.charge_block(
            dram,
            AccessOp::Write,
            AccessPattern::Seq,
            per_thread_rows * 4,
            1,
        );
    }
    ctx.add_cpu_ops(gathers * d as u64);
    let t = sys.model().thread_time(ctx.counters(), threads as u32);
    RunOutcome::Completed(t)
}

#[cfg(test)]
mod tests {
    use crate::Comparator::{FusedMm, SemSpmm};
    use omega_graph::{Csdb, Csr, RmatConfig};
    use omega_hetmem::{MemSystem, SimDuration, Topology};
    use omega_linalg::gaussian_matrix;
    use omega_spmm::{SpmmConfig, SpmmEngine};
    use std::num::NonZeroUsize;

    const T8: NonZeroUsize = NonZeroUsize::new(8).unwrap();

    fn topo() -> Topology {
        Topology::paper_machine_scaled(24 << 20)
    }

    fn graph(n: u32, e: u64) -> Csr {
        RmatConfig::social(n, e, 11).generate_csr().unwrap()
    }

    /// One full-OMeGa SpMM of `csr` with `d` Gaussian columns at 8 threads.
    fn omega_spmm(csr: &Csr, d: usize) -> SimDuration {
        let csdb = Csdb::from_csr(csr).unwrap();
        let b = gaussian_matrix(csr.rows() as usize, d, 3);
        let engine = SpmmEngine::new(MemSystem::new(topo()), SpmmConfig::omega(8)).unwrap();
        engine.spmm(&csdb, &b).unwrap().makespan
    }

    #[test]
    fn omega_beats_sem_spmm() {
        let csr = graph(1 << 11, 20_000);
        let sem = SemSpmm.run(&topo(), &csr, T8, 32).time().unwrap();
        let speedup = sem.ratio(omega_spmm(&csr, 32));
        assert!(speedup > 2.0, "OMeGa speedup over SEM-SpMM only {speedup}");
    }

    #[test]
    fn fusedmm_completes_small_but_ooms_when_dram_tiny() {
        let csr = graph(1 << 10, 8_000);
        let ok = FusedMm.run(&topo(), &csr, T8, 16);
        assert!(ok.time().is_some());
        let tiny = Topology::new(2, 4, 16 << 10, 512 << 20, 1 << 30).unwrap();
        assert!(FusedMm.run(&tiny, &csr, T8, 16).is_oom());
    }

    #[test]
    fn omega_beats_fusedmm() {
        let csr = graph(1 << 11, 20_000);
        let fused = FusedMm.run(&topo(), &csr, T8, 32).time().unwrap();
        let speedup = fused.ratio(omega_spmm(&csr, 32));
        assert!(speedup > 1.2, "OMeGa speedup over FusedMM only {speedup}");
    }

    #[test]
    fn sem_spmm_passes_scale_with_dimension() {
        let csr = graph(1 << 10, 8_000);
        let d8 = SemSpmm.run(&topo(), &csr, T8, 8).time().unwrap();
        let d64 = SemSpmm.run(&topo(), &csr, T8, 64).time().unwrap();
        // 8x the columns -> 8x the sparse streams (plus dense term growth).
        assert!(d64 > d8 * 6);
    }

    #[test]
    fn sem_spmm_ooms_without_dram_for_dense() {
        let csr = graph(1 << 12, 30_000);
        let tiny = Topology::new(2, 4, 64 << 10, 512 << 20, 1 << 30).unwrap();
        assert!(SemSpmm.run(&tiny, &csr, T8, 128).is_oom());
    }
}
