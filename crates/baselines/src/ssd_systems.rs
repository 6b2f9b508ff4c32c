//! SSD-based out-of-core systems: [`Comparator::Ginex`] and
//! [`Comparator::Marius`].
//!
//! Both store the large feature/embedding state on the NVMe SSD and are,
//! as the paper argues (§IV-B), bottlenecked by I/O and framework overheads
//! despite GPU compute:
//!
//! * **Ginex-like** (VLDB'22): GNN mini-batch training with neighbour
//!   sampling; features are fetched per sampled node through an in-DRAM
//!   page cache, so the SSD sees *random* 4 KiB reads whose hit rate an LRU
//!   page cache over the real access stream determines (Ginex's provably
//!   optimal caching is approximated by LRU). Sampling and feature-gather
//!   CPU work is charged per sampled node.
//! * **MariusGNN-like** (EuroSys'23): out-of-core partition swapping;
//!   embedding partitions stream *sequentially* between SSD and memory,
//!   which is why Marius beats Ginex but still trails OMeGa.
//!
//! GPU acceleration is folded into [`GPU_SPEEDUP`] on the dense-compute
//! term. Bulk I/O is billed device-saturated
//! ([`omega_hetmem::BandwidthModel::stream_time`]).
//!
//! [`Comparator::Ginex`]: crate::Comparator::Ginex
//! [`Comparator::Marius`]: crate::Comparator::Marius

use crate::ssd::{self, PageCache};
use crate::RunOutcome;
use omega_graph::Csr;
use omega_hetmem::{DeviceKind, MemSystem, SimDuration, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Raw input-feature dimension held on SSD (GNN feature stores carry wide
/// raw features, e.g. 100–1024 floats).
const FEATURE_DIM: usize = 256;

/// Training epochs of both systems.
const EPOCHS: u64 = 60;

/// Compute acceleration factor of the V100 over one CPU thread (14 TFLOPS
/// vs ~2 Gops scalar ≈ several thousand; a conservative 500 accounts for
/// kernel-launch and transfer inefficiency).
const GPU_SPEEDUP: f64 = 500.0;

/// Fraction of DRAM granted to Ginex's feature page cache.
const CACHE_FRACTION: f64 = 0.2;

/// Ginex's neighbour-sampling fan-out per layer.
const FANOUT: usize = 10;

/// Ginex's GNN layers.
const LAYERS: usize = 2;

/// Ginex's CPU ops per sampled node: sampling, gather, tensor assembly —
/// the framework overhead that dominates on graphs whose features fit the
/// cache.
const SAMPLING_OPS_PER_NODE: f64 = 7_000.0;

/// Seed nodes Ginex's probe replays to extrapolate the epoch cost.
const PROBE_SEEDS: u64 = 2_000;

/// Seed of the probe's seed-node and neighbour draws.
const PROBE_SEED: u64 = 0x55d;

/// Partition replication factor of Marius's BETA ordering (extra traffic to
/// cover cross-partition edges).
const MARIUS_REPLICATION: f64 = 4.0;

/// Marius's CPU ops per edge for batch construction / negative sampling.
const MARIUS_EDGE_OPS: f64 = 800.0;

/// Ginex-like: SSD feature store + DRAM page cache + sampled GNN training.
/// End-to-end training time on the simulated machine.
pub(crate) fn ginex(topology: &Topology, adj: &Csr, threads: usize, dim: usize) -> RunOutcome {
    let sys = MemSystem::new(topology.clone());
    let n = adj.rows() as u64;
    let feature_bytes = n * FEATURE_DIM as u64 * 4;
    if feature_bytes > topology.total_capacity(DeviceKind::Ssd) {
        return RunOutcome::OutOfMemory;
    }

    let dram_budget = (topology.total_capacity(DeviceKind::Dram) as f64 * CACHE_FRACTION) as u64;
    let nodes_per_page = (ssd::PAGE_SIZE / (FEATURE_DIM as u64 * 4)).max(1);
    let mut cache = PageCache::new((dram_budget / ssd::PAGE_SIZE) as usize);

    // Probe: replay the true sampled feature access stream of a subset
    // of seed nodes through the cache.
    let probe = PROBE_SEEDS.min(n).max(1);
    let mut rng = SmallRng::seed_from_u64(PROBE_SEED);
    let mut ctx = sys.thread_ctx(0);
    let mut sampled_nodes = 0u64;
    for _ in 0..probe {
        let seed_node = rng.gen_range(0..adj.rows());
        let mut frontier = vec![seed_node];
        for _ in 0..LAYERS {
            let mut next = Vec::new();
            for &v in &frontier {
                let (neigh, _) = adj.row(v);
                for _ in 0..FANOUT.min(neigh.len()) {
                    next.push(neigh[rng.gen_range(0..neigh.len())]);
                }
            }
            frontier = next;
            for &v in &frontier {
                sampled_nodes += 1;
                let page = v as u64 / nodes_per_page;
                if !cache.access(page) {
                    ssd::charge_rand_page_read(&mut ctx);
                }
            }
        }
    }
    let probe_io = sys.model().stream_time(ctx.counters());

    // Extrapolate the probe to all seeds.
    let scale = n as f64 / probe as f64;
    let io_per_epoch = probe_io * scale;
    let sampled_per_epoch = sampled_nodes as f64 * scale;

    // CPU: sampling + gather + tensor assembly across the thread pool.
    let sampling_per_epoch = SimDuration::from_secs_f64(
        sampled_per_epoch * SAMPLING_OPS_PER_NODE / (sys.model().cpu_ops_per_sec * threads as f64),
    );
    // GPU: aggregation flops.
    let compute_per_epoch = SimDuration::from_secs_f64(
        sampled_per_epoch * (FEATURE_DIM * dim) as f64 * 2.0
            / (sys.model().cpu_ops_per_sec * GPU_SPEEDUP),
    );
    // Ginex's superbatch inspection pass: one sequential feature sweep.
    let mut sweep_ctx = sys.thread_ctx(0);
    ssd::charge_seq_read(feature_bytes, &mut sweep_ctx);
    let sweep = sys.model().stream_time(sweep_ctx.counters());

    // The I/O pipeline overlaps the GPU, not the CPU-side sampling.
    let epoch = io_per_epoch.max(compute_per_epoch) + sampling_per_epoch + sweep;
    RunOutcome::Completed(epoch * EPOCHS)
}

/// MariusGNN-like: partition-swapping out-of-core training with sequential
/// SSD traffic.
pub(crate) fn marius(topology: &Topology, adj: &Csr, threads: usize, dim: usize) -> RunOutcome {
    let sys = MemSystem::new(topology.clone());
    let n = adj.rows() as u64;
    let state_bytes = n * (FEATURE_DIM + dim) as u64 * 4;
    if state_bytes > topology.total_capacity(DeviceKind::Ssd) {
        return RunOutcome::OutOfMemory;
    }

    // Per epoch: every partition is read and written back, with BETA's
    // replication overhead; all sequential and device-saturated.
    let mut ctx = sys.thread_ctx(0);
    let traffic = (state_bytes as f64 * MARIUS_REPLICATION) as u64;
    ssd::charge_seq_read(traffic, &mut ctx);
    ssd::charge_seq_write(traffic, &mut ctx);
    let io_per_epoch = sys.model().stream_time(ctx.counters());

    // CPU batch construction + GPU compute over the edges.
    let cpu_per_epoch = SimDuration::from_secs_f64(
        adj.nnz() as f64 * MARIUS_EDGE_OPS / (sys.model().cpu_ops_per_sec * threads as f64),
    );
    let gpu_per_epoch = SimDuration::from_secs_f64(
        adj.nnz() as f64 * (dim * 6) as f64 / (sys.model().cpu_ops_per_sec * GPU_SPEEDUP),
    );

    let epoch = io_per_epoch.max(gpu_per_epoch) + cpu_per_epoch;
    RunOutcome::Completed(epoch * EPOCHS)
}

#[cfg(test)]
mod tests {
    use crate::Comparator::{Ginex, Marius};
    use omega_graph::{Csr, RmatConfig};
    use omega_hetmem::Topology;
    use std::num::NonZeroUsize;

    const T8: NonZeroUsize = NonZeroUsize::new(8).unwrap();
    const T30: NonZeroUsize = NonZeroUsize::new(30).unwrap();

    fn topo() -> Topology {
        Topology::twin(1000)
    }

    fn graph() -> Csr {
        RmatConfig::social(1 << 11, 20_000, 7)
            .generate_csr()
            .unwrap()
    }

    #[test]
    fn both_complete_and_marius_beats_ginex() {
        let g = graph();
        let ginex = Ginex.run(&topo(), &g, T8, 32).time().unwrap();
        let marius = Marius.run(&topo(), &g, T8, 32).time().unwrap();
        assert!(
            marius < ginex,
            "sequential swapping (Marius {marius}) should beat random paging (Ginex {ginex})"
        );
    }

    #[test]
    fn deterministic() {
        let g = graph();
        let a = Ginex.run(&topo(), &g, T30, 64);
        let b = Ginex.run(&topo(), &g, T30, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn no_ssd_means_oom() {
        let g = graph();
        let topo = Topology::new(2, 4, 24 << 20, 192 << 20, 0).unwrap();
        assert!(Ginex.run(&topo, &g, T30, 64).is_oom());
        assert!(Marius.run(&topo, &g, T30, 64).is_oom());
    }

    #[test]
    fn bigger_cache_reduces_ginex_io() {
        // The page cache is a fixed fraction of DRAM: more DRAM, fewer misses.
        let g = graph();
        let small = Topology::new(2, 18, 1 << 20, 8 << 20, 80 << 20).unwrap();
        let large = Topology::new(2, 18, 64 << 20, 8 << 20, 80 << 20).unwrap();
        let slow = Ginex.run(&small, &g, T30, 64).time().unwrap();
        let fast = Ginex.run(&large, &g, T30, 64).time().unwrap();
        assert!(fast < slow, "{fast} !< {slow}");
    }
}
