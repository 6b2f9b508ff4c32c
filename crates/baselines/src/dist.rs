//! Distributed baselines over the cluster network model (§IV-G):
//! DistDGL-like and DistGER-like four-machine systems.
//!
//! The paper attributes DistDGL's end-to-end time mostly to neighbour
//! sampling (≈80 % of runtime) plus gradient-synchronisation traffic, and
//! DistGER's competitiveness to its information-oriented walks needing far
//! fewer sampled steps. Both are modelled with explicit traffic volumes
//! over a 25 GbE [`Cluster`] whose link parameters are the shared
//! [`NetModel`](omega_hetmem::NetModel) (also used by the `omega-plane` request plane): what crosses
//! machines is derived from random edge-cut partitioning (an expected
//! `(p−1)/p` of neighbour accesses are remote).

use crate::RunOutcome;
use omega_graph::Csr;
use omega_hetmem::{Cluster, SimDuration};
use omega_walk::{InfoWalkConfig, InfoWalker, SgnsConfig, SgnsModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration shared by the distributed systems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistConfig {
    pub cluster: Cluster,
    pub dim: usize,
    /// Per-machine worker threads.
    pub threads: usize,
    /// CPU scalar op rate per thread (matches the paper machine's model).
    pub cpu_ops_per_sec: f64,
    pub seed: u64,
}

impl DistConfig {
    pub fn paper_cluster(dim: usize) -> DistConfig {
        DistConfig {
            cluster: Cluster::paper_cluster_scaled(24 << 20),
            dim,
            threads: 30,
            cpu_ops_per_sec: 2.0e9,
            seed: 0xd157,
        }
    }

    fn compute_time(&self, ops: f64) -> SimDuration {
        SimDuration::from_secs_f64(
            ops / (self.cpu_ops_per_sec * (self.threads * self.cluster.machines) as f64),
        )
    }
}

/// DistDGL-like: distributed GraphSAGE mini-batch training.
#[derive(Debug, Clone)]
pub struct DistDglLike {
    cfg: DistConfig,
    pub epochs: usize,
    pub fanout: usize,
    pub layers: usize,
    pub batch_size: usize,
    /// CPU ops per sampled neighbour (hash probes, serialisation) — the
    /// sampling overhead that dominates DistDGL.
    pub sampling_ops_per_neighbor: f64,
    /// Dedicated sampler processes per machine (DistDGL's bottleneck: they
    /// do not scale with the trainer pool).
    pub sampler_threads: usize,
}

/// Per-epoch cost split of the DistDGL model (the paper: sampling ≈ 80 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DglEpochBreakdown {
    sampling: SimDuration,
    compute: SimDuration,
    sync: SimDuration,
}

impl DistDglLike {
    pub fn new(cfg: DistConfig) -> DistDglLike {
        DistDglLike {
            cfg,
            epochs: 30,
            fanout: 10,
            layers: 2,
            batch_size: 1024,
            sampling_ops_per_neighbor: 1_000.0,
            sampler_threads: 4,
        }
    }

    /// Cost split of one epoch.
    pub(crate) fn epoch_breakdown(&self, adj: &Csr) -> DglEpochBreakdown {
        let cfg = &self.cfg;
        let n = adj.rows() as u64;
        let p = cfg.cluster.machines as u64;

        // Sampled neighbourhood size per seed: Σ fanout^l.
        let mut sampled_per_seed = 0u64;
        let mut level = 1u64;
        for _ in 0..self.layers {
            level *= self.fanout as u64;
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
            sampled_per_epoch as f64 * self.sampling_ops_per_neighbor
                / (cfg.cpu_ops_per_sec * (self.sampler_threads * cfg.cluster.machines) as f64),
        );

        // Forward/backward compute across the full trainer pool.
        let compute = cfg.compute_time(sampled_per_epoch as f64 * (cfg.dim * cfg.dim) as f64 * 4.0);

        // Gradient all-reduce per mini-batch (two d×d layers).
        let batches = n.div_ceil(self.batch_size as u64 * p);
        let grad_bytes = (2 * cfg.dim * cfg.dim * 4) as u64;
        let sync = cfg.cluster.allreduce_time(grad_bytes) * batches;

        DglEpochBreakdown {
            sampling: sampling_net + sampling_cpu,
            compute,
            sync,
        }
    }

    pub fn run(&self, adj: &Csr) -> RunOutcome {
        let cfg = &self.cfg;
        let n = adj.rows() as u64;
        // Feature + model state must fit the cluster's aggregate memory.
        let state = n * cfg.dim as u64 * 4 * 3;
        if state > cfg.cluster.total_memory() * cfg.cluster.machines as u64 {
            return RunOutcome::OutOfMemory;
        }
        let b = self.epoch_breakdown(adj);
        let epoch = b.sampling + b.compute + b.sync;
        RunOutcome::Completed(epoch * self.epochs as u64)
    }
}

/// DistGER-like: distributed information-oriented random walks + SGNS.
#[derive(Debug, Clone)]
pub struct DistGerLike {
    cfg: DistConfig,
    pub walk: InfoWalkConfig,
    pub window: usize,
    pub sgns: SgnsConfig,
    /// Start nodes probed to estimate the corpus size.
    pub probe_starts: usize,
    /// DistGER's message-combining factor for cross-machine walk forwards.
    pub combine_factor: f64,
}

impl DistGerLike {
    pub fn new(cfg: DistConfig) -> DistGerLike {
        DistGerLike {
            cfg,
            walk: InfoWalkConfig::default(),
            window: 5,
            sgns: SgnsConfig {
                dim: cfg.dim,
                epochs: 10,
                ..SgnsConfig::default()
            },
            probe_starts: 500,
            combine_factor: 16.0,
        }
    }

    /// Estimate the total corpus steps by probing adaptive walks from a
    /// sample of start nodes (the walks are the real [`InfoWalker`] walks).
    fn estimate_steps(&self, adj: &Csr) -> u64 {
        let walker = InfoWalker::new(adj, self.walk);
        let probe = (self.probe_starts as u32).min(adj.rows()).max(1);
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed);
        let mut steps = 0u64;
        for _ in 0..probe {
            let start = rng.gen_range(0..adj.rows());
            steps += walker.walk_from(start, &mut rng).len() as u64;
        }
        let avg = steps as f64 / probe as f64;
        (avg * adj.rows() as f64 * self.walk.walks_per_node as f64) as u64
    }

    pub fn run(&self, adj: &Csr) -> RunOutcome {
        let cfg = &self.cfg;
        let n = adj.rows() as u64;
        let p = cfg.cluster.machines as u64;
        let state = n * cfg.dim as u64 * 4 * 2;
        if state > cfg.cluster.total_memory() * p.max(1) {
            return RunOutcome::OutOfMemory;
        }

        let steps = self.estimate_steps(adj);

        // Walk generation: cheap per step, with combined cross-partition
        // forwards over the network.
        let walk_cpu = cfg.compute_time(steps as f64 * 60.0);
        let remote_fraction = (p - 1) as f64 / p as f64;
        let forward_bytes = (steps as f64 * remote_fraction * 8.0 / self.combine_factor) as u64;
        let walk_net = cfg
            .cluster
            .network
            .transfer_time(forward_bytes / p, (steps / 4096 / p).max(1));

        // SGNS training over the corpus pairs, for the configured epochs.
        let pairs = steps * 2 * self.window as u64;
        let train_cpu = cfg.compute_time(
            pairs as f64 * SgnsModel::ops_per_pair(&self.sgns) as f64 * self.sgns.epochs as f64,
        );
        // Embedding synchronisation per epoch: hot-vector exchange.
        let sync = cfg.cluster.allreduce_time(n * cfg.dim as u64 * 4 / 8) * self.sgns.epochs as u64;

        RunOutcome::Completed(walk_cpu + walk_net + train_cpu + sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::RmatConfig;

    fn graph() -> Csr {
        RmatConfig::social(1 << 11, 20_000, 5)
            .generate_csr()
            .unwrap()
    }

    #[test]
    fn distger_beats_distdgl() {
        let g = graph();
        let cfg = DistConfig::paper_cluster(32);
        let dgl = DistDglLike::new(cfg).run(&g).time().unwrap();
        let ger = DistGerLike::new(cfg).run(&g).time().unwrap();
        assert!(
            ger < dgl,
            "information-oriented walks (DistGER {ger}) should beat sampling (DistDGL {dgl})"
        );
    }

    #[test]
    fn deterministic() {
        let g = graph();
        let cfg = DistConfig::paper_cluster(32);
        assert_eq!(DistGerLike::new(cfg).run(&g), DistGerLike::new(cfg).run(&g));
        assert_eq!(DistDglLike::new(cfg).run(&g), DistDglLike::new(cfg).run(&g));
    }

    #[test]
    fn bigger_graphs_cost_more() {
        let small = RmatConfig::social(512, 4_000, 1).generate_csr().unwrap();
        let large = RmatConfig::social(1 << 12, 40_000, 1)
            .generate_csr()
            .unwrap();
        let cfg = DistConfig::paper_cluster(32);
        let a = DistDglLike::new(cfg).run(&small).time().unwrap();
        let b = DistDglLike::new(cfg).run(&large).time().unwrap();
        assert!(b > a * 4);
    }

    #[test]
    fn sampling_dominates_distdgl() {
        // The paper: sampling accounts for ~80% of DistDGL's runtime.
        let g = graph();
        let cfg = DistConfig::paper_cluster(32);
        let b = DistDglLike::new(cfg).epoch_breakdown(&g);
        let total = b.sampling + b.compute + b.sync;
        let share = b.sampling.ratio(total);
        assert!(share > 0.6, "sampling share {share} too low ({:?})", b);
    }
}
