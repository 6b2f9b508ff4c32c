//! Post-run traffic analysis — the reproduction's stand-in for the Intel
//! VTune profiling of §III-D and the execution-time breakdown of Fig. 7(a).

use crate::SpmmRun;
use omega_hetmem::{AccessClass, AccessOp, AccessPattern, BandwidthModel};

/// Aggregate thread-seconds attributed to each of Algorithm 1's operation
/// groups (Fig. 7(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpBreakdown {
    /// Steps ① + ②: sequential sparse-structure streams.
    pub sparse_read_s: f64,
    /// Step ③: random dense fetches.
    pub dense_fetch_s: f64,
    /// Step ⑤: result writes (plus streaming flushes).
    pub write_s: f64,
    /// Step ④: CPU accumulation.
    pub cpu_s: f64,
}

impl OpBreakdown {
    /// Attribute a run's merged counters to operation groups, pricing each
    /// class at the per-thread bandwidth it ran at.
    pub fn of(run: &SpmmRun, model: &BandwidthModel, threads: u32) -> OpBreakdown {
        const GIB: f64 = (1u64 << 30) as f64;
        let time_of = |pred: &dyn Fn(AccessClass) -> bool| -> f64 {
            AccessClass::all()
                .filter(|&c| pred(c))
                .map(|c| {
                    run.counters.get(c).media_bytes as f64
                        / (model.per_thread_bandwidth(c, threads) * GIB)
                })
                .sum()
        };
        OpBreakdown {
            sparse_read_s: time_of(&|c| c.op == AccessOp::Read && c.pattern == AccessPattern::Seq),
            dense_fetch_s: time_of(&|c| c.op == AccessOp::Read && c.pattern == AccessPattern::Rand),
            write_s: time_of(&|c| c.op == AccessOp::Write),
            cpu_s: run.counters.cpu_ops() as f64 / model.cpu_ops_per_sec,
        }
    }

    pub fn total_s(&self) -> f64 {
        self.sparse_read_s + self.dense_fetch_s + self.write_s + self.cpu_s
    }

    /// Share of each group, in Fig. 7(a)'s order.
    pub fn shares(&self) -> [f64; 4] {
        let t = self.total_s().max(f64::MIN_POSITIVE);
        [
            self.sparse_read_s / t,
            self.dense_fetch_s / t,
            self.write_s / t,
            self.cpu_s / t,
        ]
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
        SpmmEngine::new(
            MemSystem::new(Topology::paper_machine_scaled(24 << 20)),
            cfg,
        )
        .unwrap()
        .spmm(&csdb, &b)
        .unwrap()
    }

    #[test]
    fn dense_fetches_dominate_the_breakdown() {
        // Fig. 7(a): get_dense_nnz is the dominant operation in the
        // unoptimised (PM-resident, no prefetch) configuration.
        let r = run(SpmmConfig::omega(8).with_wofp(None).with_asl(None));
        let model = BandwidthModel::paper_machine();
        let b = OpBreakdown::of(&r, &model, 8);
        let shares = b.shares();
        assert!(
            shares[1] > shares[0] && shares[1] > shares[2] && shares[1] > shares[3],
            "dense fetches should dominate: {shares:?}"
        );
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(b.total_s() > 0.0);
    }

    #[test]
    fn interleaved_placement_shows_heavy_remote_traffic() {
        // The paper's S III-D observation: with OS interleaving, >43% of
        // accesses are remote. Our two-socket interleave splits ~50/50.
        let r = run(SpmmConfig::omega(8).with_nadp(false).with_asl(None));
        let s = AccessSummary::from_counters(&r.counters);
        assert!(
            s.remote_fraction() > 0.40,
            "remote fraction {} too low for interleaved placement",
            s.remote_fraction()
        );
        // NaDP pushes it down.
        let r = run(SpmmConfig::omega(8).with_asl(None));
        let s_nadp = AccessSummary::from_counters(&r.counters);
        assert!(s_nadp.remote_fraction() < s.remote_fraction());
    }
}
