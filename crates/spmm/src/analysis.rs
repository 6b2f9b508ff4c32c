//! Post-run traffic analysis — the reproduction's stand-in for the Intel
//! VTune profiling of §III-D and the execution-time breakdown of Fig. 7(a).

use crate::SpmmRun;
use omega_hetmem::{AccessClass, AccessOp, AccessPattern, BandwidthModel};

impl SpmmRun {
    /// Fig. 7(a): the share of aggregate thread-seconds each of Algorithm
    /// 1's operation groups takes — sequential sparse-structure reads
    /// (steps ① + ②), random dense fetches (③), result writes including
    /// streaming flushes (⑤) and CPU accumulation (④), in that order. Each
    /// class of the merged counters is priced at the per-thread bandwidth
    /// it ran at with `threads` threads.
    pub fn op_shares(&self, model: &BandwidthModel, threads: u32) -> [f64; 4] {
        const GIB: f64 = (1u64 << 30) as f64;
        let time_of = |pred: &dyn Fn(AccessClass) -> bool| -> f64 {
            AccessClass::all()
                .filter(|&c| pred(c))
                .map(|c| {
                    self.counters.get(c).media_bytes as f64
                        / (model.per_thread_bandwidth(c, threads) * GIB)
                })
                .sum()
        };
        let secs = [
            time_of(&|c| c.op == AccessOp::Read && c.pattern == AccessPattern::Seq),
            time_of(&|c| c.op == AccessOp::Read && c.pattern == AccessPattern::Rand),
            time_of(&|c| c.op == AccessOp::Write),
            self.counters.cpu_ops() as f64 / model.cpu_ops_per_sec,
        ];
        let total = secs.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        secs.map(|s| s / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpmmConfig, SpmmEngine};
    use omega_graph::{Csdb, RmatConfig};
    use omega_hetmem::{AccessSummary, MemSystem, Topology};
    use omega_linalg::gaussian_matrix;

    fn run(cfg: SpmmConfig) -> SpmmRun {
        let csr = RmatConfig::social(1 << 10, 10_000, 4)
            .generate_csr()
            .unwrap();
        let csdb = Csdb::from_csr(&csr).unwrap();
        let b = gaussian_matrix(csr.rows() as usize, 16, 1);
        SpmmEngine::new(MemSystem::new(Topology::twin(1000)), cfg)
            .unwrap()
            .spmm(&csdb, &b)
            .unwrap()
    }

    #[test]
    fn dense_fetches_dominate_the_breakdown() {
        // Fig. 7(a): get_dense_nnz is the dominant operation in the
        // unoptimised (PM-resident, no prefetch) configuration.
        let r = run(SpmmConfig {
            wofp: None,
            asl: false,
            ..SpmmConfig::omega(8)
        });
        let shares = r.op_shares(&BandwidthModel::paper_machine(), 8);
        assert!(
            shares[1] > shares[0] && shares[1] > shares[2] && shares[1] > shares[3],
            "dense fetches should dominate: {shares:?}"
        );
        // The shares of a run that took time sum to one.
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interleaved_placement_shows_heavy_remote_traffic() {
        // The paper's S III-D observation: with OS interleaving, >43% of
        // accesses are remote. Our two-socket interleave splits ~50/50.
        let r = run(SpmmConfig {
            nadp: false,
            asl: false,
            ..SpmmConfig::omega(8)
        });
        let s = AccessSummary::from_counters(&r.counters);
        assert!(
            s.remote_fraction() > 0.40,
            "remote fraction {} too low for interleaved placement",
            s.remote_fraction()
        );
        // NaDP pushes it down.
        let r = run(SpmmConfig {
            asl: false,
            ..SpmmConfig::omega(8)
        });
        let s_nadp = AccessSummary::from_counters(&r.counters);
        assert!(s_nadp.remote_fraction() < s.remote_fraction());
    }
}
