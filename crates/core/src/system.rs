//! The assembled OMeGa system.

use crate::config::OmegaConfig;
use crate::report::OmegaRun;
use crate::Result;
use omega_embed::prone::Prone;
use omega_graph::Csr;
use omega_hetmem::{AccessSummary, MemSystem};
use omega_obs::Recorder;
use omega_spmm::{SpmmConfig, SpmmEngine};

/// The OMeGa graph-embedding system bound to a simulated machine.
#[derive(Debug)]
pub struct Omega {
    cfg: OmegaConfig,
    spmm: SpmmConfig,
    rec: Recorder,
}

impl Omega {
    /// Build the system for a configuration.
    pub fn new(cfg: OmegaConfig) -> Result<Omega> {
        let spmm = cfg.spmm_config();
        Omega::with_spmm_config(cfg, spmm)
    }

    /// Build with an explicit SpMM configuration in place of the one
    /// `cfg.variant` implies (ablation studies).
    pub fn with_spmm_config(cfg: OmegaConfig, spmm: SpmmConfig) -> Result<Omega> {
        Ok(Omega {
            cfg,
            spmm,
            rec: Recorder::disabled(),
        })
    }

    /// Attach an observability recorder: every engine built by this system
    /// records spans and metrics into it, and [`Self::embed`] publishes the
    /// run's per-device byte counters (`mem.*`).
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// A fresh engine on a fresh instance of the simulated machine (each
    /// run gets clean capacity accounting, like a fresh process).
    fn engine(&self) -> Result<SpmmEngine> {
        let sys = MemSystem::new(self.cfg.topology.clone());
        Ok(SpmmEngine::new(sys, self.spmm)
            .map_err(omega_embed::EmbedError::Spmm)?
            .with_recorder(self.rec.clone())
            .with_wall_threads(self.cfg.prone.threads))
    }

    /// End-to-end embedding of a symmetric adjacency matrix.
    pub fn embed(&self, graph: &Csr) -> Result<OmegaRun> {
        let engine = self.engine()?;
        let prone = Prone::new(engine, self.cfg.prone);
        let (embedding, report) = prone.embed(graph)?;
        // The run's VTune-style traffic view: merged counters of every SpMM
        // phase the engine executed.
        let traffic = AccessSummary::from_counters(&prone.engine().lifetime_counters());
        // Publish the per-device/locality byte counters so exported metrics
        // match this run's AccessSummary exactly (hetmem cannot depend on
        // obs, so the push happens here).
        self.rec.counter_set("mem.total_bytes", traffic.total_bytes);
        self.rec.counter_set("mem.pm_bytes", traffic.pm_bytes);
        self.rec.counter_set("mem.dram_bytes", traffic.dram_bytes);
        self.rec.counter_set("mem.ssd_bytes", traffic.ssd_bytes);
        self.rec
            .counter_set("mem.remote_bytes", traffic.remote_bytes);
        self.rec
            .counter_set("mem.random_bytes", traffic.random_bytes);
        Ok(OmegaRun {
            embedding,
            report,
            variant: self.cfg.variant.label(),
            traffic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemVariant;
    use omega_embed::eval::link_prediction_auc;
    use omega_graph::{Dataset, RmatConfig};

    fn small() -> Csr {
        RmatConfig::social(512, 4_000, 13).generate_csr().unwrap()
    }

    fn quick(cfg: OmegaConfig) -> OmegaConfig {
        OmegaConfig { threads: 8, ..cfg }.with_dim(16)
    }

    #[test]
    fn end_to_end_embedding_works() {
        let omega = Omega::new(quick(OmegaConfig::default())).unwrap();
        let run = omega.embed(&small()).unwrap();
        assert_eq!(run.embedding.nodes(), 512);
        let auc = link_prediction_auc(&run.embedding, &small(), 200, 1);
        assert!(auc > 0.7, "auc={auc}");
        assert!(run.total_time().as_nanos() > 0);
        assert!(run.summary().contains("OMeGa"));
    }

    #[test]
    fn variant_ordering_on_a_twin() {
        // DRAM < Hetero < PM on a small twin that fits everywhere.
        let g = Dataset::Pk.load_scaled(4000).unwrap();
        let time = |v: SystemVariant| {
            let omega = Omega::new(quick(OmegaConfig::default().with_variant(v))).unwrap();
            omega.embed(&g).unwrap().total_time()
        };
        let dram = time(SystemVariant::OmegaDram);
        let hetero = time(SystemVariant::Omega);
        let pm = time(SystemVariant::OmegaPm);
        assert!(dram < hetero, "{dram} !< {hetero}");
        assert!(hetero < pm, "{hetero} !< {pm}");
    }

    #[test]
    fn dram_only_ooms_on_billion_scale_twin() {
        // The paper's capacity story: DRAM-only systems fail on TW-2010/FR.
        let g = Dataset::Tw2010.load_scaled(4000).unwrap();
        // At 1:4000 the twin shrinks, so shrink the machine equally.
        let topo = omega_hetmem::Topology::twin(4000);
        let cfg = quick(OmegaConfig::default().with_topology(topo.clone()))
            .with_variant(SystemVariant::OmegaDram)
            .with_dim(64);
        let err = Omega::new(cfg).unwrap().embed(&g).unwrap_err();
        assert!(err.is_oom(), "expected OOM, got {err}");
        // Full OMeGa on the same machine completes (PM capacity).
        let cfg = quick(OmegaConfig::default().with_topology(topo)).with_dim(64);
        let run = Omega::new(cfg).unwrap().embed(&g);
        assert!(
            run.is_ok(),
            "hetero should fit: {:?}",
            run.err().map(|e| e.to_string())
        );
    }

    #[test]
    fn ablations_run() {
        let g = small();
        for v in [
            SystemVariant::OmegaWithoutWofp,
            SystemVariant::OmegaWithoutNadp,
            SystemVariant::OmegaWithoutAsl,
        ] {
            let omega = Omega::new(quick(OmegaConfig::default().with_variant(v))).unwrap();
            let run = omega.embed(&g).unwrap();
            assert_eq!(run.variant, v.label());
        }
    }
}
