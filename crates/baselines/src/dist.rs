//! Distributed baselines over the cluster network model (§IV-G):
//! [`Comparator::DistDgl`] and [`Comparator::DistGer`], four-machine
//! systems. Each machine of the cluster has the simulated machine's DRAM
//! and runs `threads` workers.
//!
//! The paper attributes DistDGL's end-to-end time mostly to neighbour
//! sampling (≈80 % of runtime) plus gradient-synchronisation traffic, and
//! DistGER's competitiveness to its information-oriented walks needing far
//! fewer sampled steps. Both are modelled with explicit traffic volumes
//! over a 25 GbE [`Cluster`] whose link parameters are the shared
//! [`NetModel`](omega_hetmem::NetModel) (also used by the `omega-plane` request plane): what crosses
//! machines is derived from random edge-cut partitioning (an expected
//! `(p−1)/p` of neighbour accesses are remote).
//!
//! [`Comparator::DistDgl`]: crate::Comparator::DistDgl
//! [`Comparator::DistGer`]: crate::Comparator::DistGer

use crate::RunOutcome;
use omega_graph::Csr;
use omega_hetmem::{BandwidthModel, Cluster, DeviceKind, SimDuration, Topology};
use omega_walk::{InfoWalkConfig, InfoWalker, SgnsConfig, SgnsModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// DistDGL's training epochs.
const DGL_EPOCHS: u64 = 30;

/// DistDGL's neighbour-sampling fan-out per layer.
const DGL_FANOUT: u64 = 10;

/// DistDGL's GraphSAGE layers.
const DGL_LAYERS: usize = 2;

/// DistDGL's mini-batch size (seed nodes per batch per machine).
const DGL_BATCH_SIZE: u64 = 1024;

/// CPU ops per sampled neighbour (hash probes, serialisation) — the
/// sampling overhead that dominates DistDGL.
const DGL_SAMPLING_OPS_PER_NEIGHBOR: f64 = 1_000.0;

/// Dedicated sampler processes per machine (DistDGL's bottleneck: they do
/// not scale with the trainer pool).
const DGL_SAMPLER_THREADS: usize = 4;

/// DistGER's skip-gram context window.
const GER_WINDOW: u64 = 5;

/// DistGER's SGNS training epochs.
const GER_EPOCHS: usize = 10;

/// Start nodes DistGER probes to estimate the corpus size.
const GER_PROBE_STARTS: u32 = 500;

/// DistGER's message-combining factor for cross-machine walk forwards.
const GER_COMBINE_FACTOR: f64 = 16.0;

/// Seed of DistGER's probe walks.
const GER_SEED: u64 = 0xd157;

/// The paper's four-machine cluster, each machine with `machine`'s DRAM
/// and `threads` workers at the machine model's scalar op rate.
struct Setup {
    cluster: Cluster,
    dim: usize,
    threads: usize,
    cpu_ops_per_sec: f64,
}

impl Setup {
    fn new(machine: &Topology, threads: usize, dim: usize) -> Setup {
        Setup {
            cluster: Cluster::paper_cluster_scaled(machine.total_capacity(DeviceKind::Dram)),
            dim,
            threads,
            cpu_ops_per_sec: BandwidthModel::paper_machine().cpu_ops_per_sec,
        }
    }

    /// Time of `ops` scalar ops spread over every worker of the cluster.
    fn compute_time(&self, ops: f64) -> SimDuration {
        SimDuration::from_secs_f64(
            ops / (self.cpu_ops_per_sec * (self.threads * self.cluster.machines) as f64),
        )
    }
}

/// Per-epoch cost split of the DistDGL model (the paper: sampling ≈ 80 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DglEpochBreakdown {
    sampling: SimDuration,
    compute: SimDuration,
    sync: SimDuration,
}

/// Cost split of one DistDGL epoch.
fn dgl_epoch(cfg: &Setup, adj: &Csr) -> DglEpochBreakdown {
    let n = adj.rows() as u64;
    let p = cfg.cluster.machines as u64;

    // Sampled neighbourhood size per seed: Σ fanout^l.
    let mut sampled_per_seed = 0u64;
    let mut level = 1u64;
    for _ in 0..DGL_LAYERS {
        level *= DGL_FANOUT;
        sampled_per_seed += level;
    }
    let sampled_per_epoch = n * sampled_per_seed;

    // Sampling = RPC fetches of the (p-1)/p remote fraction + the CPU
    // cost of DistDGL's dedicated sampler processes (a handful per
    // machine — they, not the trainer pool, are the bottleneck).
    let remote_fraction = (p - 1) as f64 / p as f64;
    let fetch_bytes =
        (sampled_per_epoch as f64 * remote_fraction) as u64 * (cfg.dim as u64 * 4 + 16);
    let messages = sampled_per_epoch / 64; // batched RPCs
    let sampling_net = cfg
        .cluster
        .network
        .transfer_time(fetch_bytes / p, messages / p);
    let sampling_cpu = SimDuration::from_secs_f64(
        sampled_per_epoch as f64 * DGL_SAMPLING_OPS_PER_NEIGHBOR
            / (cfg.cpu_ops_per_sec * (DGL_SAMPLER_THREADS * cfg.cluster.machines) as f64),
    );

    // Forward/backward compute across the full trainer pool.
    let compute = cfg.compute_time(sampled_per_epoch as f64 * (cfg.dim * cfg.dim) as f64 * 4.0);

    // Gradient all-reduce per mini-batch (two d×d layers).
    let batches = n.div_ceil(DGL_BATCH_SIZE * p);
    let grad_bytes = (2 * cfg.dim * cfg.dim * 4) as u64;
    let sync = cfg.cluster.allreduce_time(grad_bytes) * batches;

    DglEpochBreakdown {
        sampling: sampling_net + sampling_cpu,
        compute,
        sync,
    }
}

/// DistDGL-like: distributed GraphSAGE mini-batch training.
pub(crate) fn distdgl(machine: &Topology, adj: &Csr, threads: usize, dim: usize) -> RunOutcome {
    let cfg = Setup::new(machine, threads, dim);
    // Feature + model state must fit the cluster's aggregate memory.
    let state = adj.rows() as u64 * dim as u64 * 4 * 3;
    if state > cfg.cluster.total_memory() {
        return RunOutcome::OutOfMemory;
    }
    let b = dgl_epoch(&cfg, adj);
    let epoch = b.sampling + b.compute + b.sync;
    RunOutcome::Completed(epoch * DGL_EPOCHS)
}

/// Estimate DistGER's total corpus steps by probing adaptive walks from a
/// sample of start nodes (the walks are the real [`InfoWalker`] walks).
fn estimate_steps(adj: &Csr, walk: InfoWalkConfig) -> u64 {
    let walker = InfoWalker::new(adj, walk);
    let probe = GER_PROBE_STARTS.min(adj.rows()).max(1);
    let mut rng = SmallRng::seed_from_u64(GER_SEED);
    let mut steps = 0u64;
    for _ in 0..probe {
        let start = rng.gen_range(0..adj.rows());
        steps += walker.walk_from(start, &mut rng).len() as u64;
    }
    let avg = steps as f64 / probe as f64;
    (avg * adj.rows() as f64 * walk.walks_per_node as f64) as u64
}

/// DistGER-like: distributed information-oriented random walks + SGNS.
pub(crate) fn distger(machine: &Topology, adj: &Csr, threads: usize, dim: usize) -> RunOutcome {
    let cfg = Setup::new(machine, threads, dim);
    let n = adj.rows() as u64;
    let p = cfg.cluster.machines as u64;
    let state = n * dim as u64 * 4 * 2;
    if state > cfg.cluster.total_memory() {
        return RunOutcome::OutOfMemory;
    }

    let steps = estimate_steps(adj, InfoWalkConfig::default());

    // Walk generation: cheap per step, with combined cross-partition
    // forwards over the network.
    let walk_cpu = cfg.compute_time(steps as f64 * 60.0);
    let remote_fraction = (p - 1) as f64 / p as f64;
    let forward_bytes = (steps as f64 * remote_fraction * 8.0 / GER_COMBINE_FACTOR) as u64;
    let walk_net = cfg
        .cluster
        .network
        .transfer_time(forward_bytes / p, (steps / 4096 / p).max(1));

    // SGNS training over the corpus pairs, for the configured epochs.
    let sgns = SgnsConfig {
        dim,
        epochs: GER_EPOCHS,
        ..SgnsConfig::default()
    };
    let pairs = steps * 2 * GER_WINDOW;
    let train_cpu =
        cfg.compute_time(pairs as f64 * SgnsModel::ops_per_pair(&sgns) as f64 * sgns.epochs as f64);
    // Embedding synchronisation per epoch: hot-vector exchange.
    let sync = cfg.cluster.allreduce_time(n * dim as u64 * 4 / 8) * sgns.epochs as u64;

    RunOutcome::Completed(walk_cpu + walk_net + train_cpu + sync)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Comparator::{DistDgl, DistGer};
    use omega_graph::RmatConfig;
    use std::num::NonZeroUsize;

    const T30: NonZeroUsize = NonZeroUsize::new(30).unwrap();

    fn topo() -> Topology {
        Topology::twin(1000)
    }

    fn graph() -> Csr {
        RmatConfig::social(1 << 11, 20_000, 5)
            .generate_csr()
            .unwrap()
    }

    #[test]
    fn distger_beats_distdgl() {
        let g = graph();
        let dgl = DistDgl.run(&topo(), &g, T30, 32).time().unwrap();
        let ger = DistGer.run(&topo(), &g, T30, 32).time().unwrap();
        assert!(
            ger < dgl,
            "information-oriented walks (DistGER {ger}) should beat sampling (DistDGL {dgl})"
        );
    }

    #[test]
    fn deterministic() {
        let g = graph();
        for c in [DistGer, DistDgl] {
            assert_eq!(c.run(&topo(), &g, T30, 32), c.run(&topo(), &g, T30, 32));
        }
    }

    #[test]
    fn bigger_graphs_cost_more() {
        let small = RmatConfig::social(512, 4_000, 1).generate_csr().unwrap();
        let large = RmatConfig::social(1 << 12, 40_000, 1)
            .generate_csr()
            .unwrap();
        let a = DistDgl.run(&topo(), &small, T30, 32).time().unwrap();
        let b = DistDgl.run(&topo(), &large, T30, 32).time().unwrap();
        assert!(b > a * 4);
    }

    #[test]
    fn sampling_dominates_distdgl() {
        // The paper: sampling accounts for ~80% of DistDGL's runtime.
        let b = dgl_epoch(&Setup::new(&topo(), 30, 32), &graph());
        let total = b.sampling + b.compute + b.sync;
        let share = b.sampling.ratio(total);
        assert!(share > 0.6, "sampling share {share} too low ({:?})", b);
    }

    #[test]
    fn state_past_the_clusters_dram_is_oom() {
        // 2048 nodes x 32 floats: DistDGL keeps 768 KiB of state, DistGER
        // 512 KiB. Four machines of 2 x 32 KiB DRAM hold 256 KiB.
        let g = graph();
        let small = Topology::new(2, 18, 32 << 10, 256 << 10, 1 << 30).unwrap();
        assert!(DistDgl.run(&small, &g, T30, 32).is_oom());
        assert!(DistGer.run(&small, &g, T30, 32).is_oom());
        // Four machines of 2 x 80 KiB hold 640 KiB: DistGER's state, not
        // DistDGL's.
        let mid = Topology::new(2, 18, 80 << 10, 640 << 10, 1 << 30).unwrap();
        assert!(DistDgl.run(&mid, &g, T30, 32).is_oom());
        assert!(!DistGer.run(&mid, &g, T30, 32).is_oom());
    }
}
