//! The end-to-end ProNE pipeline on the OMeGa engine.

use crate::chebyshev::{propagate, unpermute_matrix};
use crate::embedding::Embedding;
use crate::laplacian::{log_proximity, to_csdb};
use crate::tsvd::{randomized_tsvd, TsvdConfig};
use crate::{EmbedError, Result};
use omega_graph::Csr;
use omega_graph::{csdb_read_time, csr_read_time, GraphFormat};
use omega_hetmem::SimDuration;
use omega_obs::Track;
use omega_spmm::SpmmEngine;

// ProNE's fixed hyper-parameters, at the reference implementation's values:
// the paper runs ProNE as its SpMM workload and varies none of them. The
// propagation filter's three are in `chebyshev`.
/// t-SVD power iterations.
const POWER_ITERS: usize = 1;
/// Negative-sampling ratio `λ` of the log-proximity transform.
const LAMBDA: f32 = 1.0;

/// The settings of one ProNE run; its other hyper-parameters are fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProneConfig {
    /// Embedding dimension `d`.
    pub dim: usize,
    /// t-SVD oversampling: the random projection has `dim + oversample`
    /// columns.
    pub oversample: usize,
    /// Graph format whose reading cost the report charges: CSDB for OMeGa,
    /// CSR for the unmodified ProNE baselines (Fig. 19(a)).
    pub read_format: GraphFormat,
    /// Wall-clock worker threads for the dense training kernels (blocked
    /// GEMM, QR, SVD, Chebyshev term combination). Purely a speed knob:
    /// embeddings, reports, sim clocks and metrics are bit-identical at
    /// every value — the dense sim cost is charged analytically from the
    /// *simulated* thread count in [`omega_spmm::SpmmConfig`].
    pub threads: usize,
    /// Seed of the t-SVD's Gaussian test matrix.
    pub seed: u64,
}

impl Default for ProneConfig {
    fn default() -> Self {
        ProneConfig {
            dim: 64,
            oversample: 16,
            read_format: GraphFormat::Csdb,
            threads: 1,
            seed: 0x0e6a,
        }
    }
}

/// Simulated-time breakdown of one embedding run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProneReport {
    /// Graph reading procedure (edge list → CSDB), included in end-to-end
    /// times as in Fig. 12.
    pub read_time: SimDuration,
    /// Sparse factorisation stage (randomized t-SVD).
    pub factorization_time: SimDuration,
    /// Spectral propagation stage (Chebyshev expansion).
    pub propagation_time: SimDuration,
    /// Time inside SpMM across both stages (the paper's ~70 % share).
    pub spmm_time: SimDuration,
    pub spmm_count: usize,
}

impl ProneReport {
    /// End-to-end simulated time.
    pub fn total(&self) -> SimDuration {
        self.read_time + self.factorization_time + self.propagation_time
    }

    /// Fraction of embedding-generation time spent in SpMM.
    pub fn spmm_share(&self) -> f64 {
        let gen = self.factorization_time + self.propagation_time;
        self.spmm_time.ratio(gen)
    }
}

/// The ProNE model bound to an engine.
///
/// ```
/// use omega_embed::prone::{Prone, ProneConfig};
/// use omega_graph::RmatConfig;
/// use omega_hetmem::{MemSystem, Topology};
/// use omega_spmm::{SpmmConfig, SpmmEngine};
///
/// let graph = RmatConfig::social(256, 2_000, 5).generate_csr().unwrap();
/// let sys = MemSystem::new(Topology::paper_machine_scaled(16 << 20));
/// let engine = SpmmEngine::new(sys, SpmmConfig::omega(4)).unwrap();
/// let cfg = ProneConfig { dim: 8, oversample: 8, ..ProneConfig::default() };
/// let (embedding, report) = Prone::new(engine, cfg).embed(&graph).unwrap();
/// assert_eq!(embedding.nodes(), 256);
/// assert!(report.spmm_share() > 0.3); // SpMM dominates, as the paper says
/// ```
#[derive(Debug)]
pub struct Prone {
    engine: SpmmEngine,
    cfg: ProneConfig,
}

impl Prone {
    pub fn new(engine: SpmmEngine, cfg: ProneConfig) -> Prone {
        Prone { engine, cfg }
    }

    pub fn engine(&self) -> &SpmmEngine {
        &self.engine
    }

    /// Learn embeddings for a symmetric adjacency matrix.
    pub fn embed(&self, adj: &Csr) -> Result<(Embedding, ProneReport)> {
        let n = adj.rows() as usize;
        if self.cfg.dim == 0 || self.cfg.dim + self.cfg.oversample > n {
            return Err(EmbedError::InvalidConfig(format!(
                "dim {} + oversample {} must be <= |V| = {n}",
                self.cfg.dim, self.cfg.oversample
            )));
        }

        // Phase spans close with the exact simulated phase durations, so the
        // `prone.embed` root covers precisely `ProneReport::total()`. Inner
        // `spmm.run` spans (emitted by the engine) nest inside the phases:
        // each phase's total is its SpMM time plus dense work, so the phase
        // end never lags its children's cursor.
        let rec = self.engine.recorder().clone();
        let root = rec.begin("prone.embed", Track::MAIN);
        rec.arg(&root, "nodes", n);
        rec.arg(&root, "dim", self.cfg.dim);

        // Stage 0: graph reading (edge list -> in-memory format on the
        // sparse operand's device). The `phase_scope`s attribute host wall
        // time to the bench phase breakdown; simulated time is untouched.
        let read_span = rec.begin("prone.read", Track::MAIN);
        let (m, read_time) = omega_par::phase_scope("read", || -> Result<_> {
            let m = to_csdb(&log_proximity(adj, LAMBDA))?;
            let model = self.engine.system().model();
            let device = self.engine.config().mode.operand_device();
            let read_time = match self.cfg.read_format {
                GraphFormat::Csdb => csdb_read_time(&m, model, device),
                GraphFormat::Csr => csr_read_time(adj, model, device),
            };
            Ok((m, read_time))
        })?;
        rec.end(read_span, Some(read_time));

        // Stage 1: sparse factorisation.
        let fact_span = rec.begin("prone.factorize", Track::MAIN);
        let (fact, initial) = omega_par::phase_scope("tsvd", || -> Result<_> {
            let mt = m.transpose()?;
            let tsvd_cfg = TsvdConfig {
                rank: self.cfg.dim,
                oversample: self.cfg.oversample,
                power_iters: POWER_ITERS,
                seed: self.cfg.seed,
            };
            let fact = randomized_tsvd(&self.engine, &m, &mt, &tsvd_cfg, self.cfg.threads)?;
            let initial = unpermute_matrix(&m, &fact.embedding);
            Ok((fact, initial))
        })?;
        rec.end(fact_span, Some(fact.total_time()));

        // Stage 2: spectral propagation.
        let prop_span = rec.begin("prone.propagate", Track::MAIN);
        let prop = omega_par::phase_scope("propagate", || {
            propagate(&self.engine, adj, &initial, self.cfg.threads)
        })?;
        rec.end(prop_span, Some(prop.total_time()));
        rec.end(root, None);

        let report = ProneReport {
            read_time,
            factorization_time: fact.total_time(),
            propagation_time: prop.total_time(),
            spmm_time: fact.spmm_time + prop.spmm_time,
            spmm_count: fact.spmm_count + prop.spmm_count,
        };
        rec.counter_add("prone.spmm_count", report.spmm_count as u64);
        rec.gauge_set("prone.spmm_share", report.spmm_share());
        Ok((Embedding::from_matrix(&prop.embedding), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{link_prediction_auc, node_classification_micro_f1};
    use omega_graph::{RmatConfig, SbmConfig};
    use omega_hetmem::{MemSystem, Topology};
    use omega_spmm::SpmmConfig;

    fn engine(cfg: SpmmConfig) -> SpmmEngine {
        SpmmEngine::new(
            MemSystem::new(Topology::paper_machine_scaled(32 << 20)),
            cfg,
        )
        .unwrap()
    }

    fn small_cfg(dim: usize) -> ProneConfig {
        ProneConfig {
            dim,
            oversample: 8,
            ..ProneConfig::default()
        }
    }

    #[test]
    fn pipeline_produces_useful_embeddings() {
        let sbm = SbmConfig::assortative(300, 11);
        let adj = sbm.generate_csr().unwrap();
        let prone = Prone::new(engine(SpmmConfig::omega(4)), small_cfg(16));
        let (emb, report) = prone.embed(&adj).unwrap();

        assert_eq!(emb.nodes(), 300);
        assert_eq!(emb.dim(), 16);
        let auc = link_prediction_auc(&emb, &adj, 300, 5);
        assert!(auc > 0.75, "link prediction auc={auc}");
        let f1 = node_classification_micro_f1(&emb, &sbm.labels(), 0.6, 6);
        assert!(f1 > 0.7, "classification f1={f1}");
        assert!(report.total() > SimDuration::ZERO);
        assert!(report.spmm_count > 10);
    }

    #[test]
    fn spmm_dominates_generation_time() {
        // The premise of the whole paper: ~70% of embedding generation is
        // SpMM. Our pipeline should be SpMM-dominated too.
        let adj = RmatConfig::social(1 << 10, 12_000, 3)
            .generate_csr()
            .unwrap();
        let prone = Prone::new(engine(SpmmConfig::omega(4)), small_cfg(32));
        let (_, report) = prone.embed(&adj).unwrap();
        assert!(
            report.spmm_share() > 0.5,
            "spmm share {} too low",
            report.spmm_share()
        );
    }

    #[test]
    fn hetero_lands_between_dram_and_pm() {
        let adj = RmatConfig::social(512, 5_000, 9).generate_csr().unwrap();
        let run = |cfg: SpmmConfig| {
            let (_, r) = Prone::new(engine(cfg), small_cfg(16)).embed(&adj).unwrap();
            r.total()
        };
        let dram = run(SpmmConfig::omega_dram(4));
        let hetero = run(SpmmConfig::omega(4));
        let pm = run(SpmmConfig::omega_pm(4));
        assert!(dram < hetero, "dram {dram} < hetero {hetero}");
        assert!(hetero < pm, "hetero {hetero} < pm {pm}");
    }

    #[test]
    fn embeddings_identical_across_memory_modes() {
        // Memory configuration must never change the numerics.
        let adj = RmatConfig::social(256, 2_000, 4).generate_csr().unwrap();
        let run = |cfg: SpmmConfig| Prone::new(engine(cfg), small_cfg(8)).embed(&adj).unwrap().0;
        let a = run(SpmmConfig::omega(4));
        let b = run(SpmmConfig::omega_dram(4));
        let c = run(SpmmConfig::omega_pm(2));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn trace_phases_cover_report_exactly() {
        let adj = RmatConfig::social(256, 2_000, 4).generate_csr().unwrap();
        let rec = omega_obs::Recorder::enabled();
        let eng = engine(SpmmConfig::omega(4)).with_recorder(rec.clone());
        let (_, report) = Prone::new(eng, small_cfg(8)).embed(&adj).unwrap();

        let spans = rec.spans();
        let get = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(get("prone.embed").sim_dur_ns, report.total().as_nanos());
        assert_eq!(get("prone.read").sim_dur_ns, report.read_time.as_nanos());
        assert_eq!(
            get("prone.factorize").sim_dur_ns,
            report.factorization_time.as_nanos()
        );
        assert_eq!(
            get("prone.propagate").sim_dur_ns,
            report.propagation_time.as_nanos()
        );
        // The engine's spmm.run spans nest inside the phases.
        let runs: Vec<_> = spans.iter().filter(|s| s.name == "spmm.run").collect();
        assert_eq!(runs.len(), report.spmm_count);
        assert!(runs.iter().all(|s| s.depth >= 2));
        assert_eq!(
            rec.metrics_snapshot().counter("prone.spmm_count"),
            Some(report.spmm_count as u64)
        );
    }

    #[test]
    fn invalid_dim_rejected() {
        let adj = RmatConfig::social(64, 300, 1).generate_csr().unwrap();
        let prone = Prone::new(engine(SpmmConfig::omega(2)), small_cfg(64));
        assert!(prone.embed(&adj).is_err());
    }

    #[test]
    fn oom_propagates_from_engine() {
        let adj = RmatConfig::social(1 << 10, 8_000, 2)
            .generate_csr()
            .unwrap();
        let sys = MemSystem::new(Topology::new(2, 4, 16 << 10, 1 << 30, 1 << 30).unwrap());
        let eng = SpmmEngine::new(sys, SpmmConfig::omega_dram(4)).unwrap();
        let err = Prone::new(eng, small_cfg(32)).embed(&adj).unwrap_err();
        assert!(err.is_oom(), "{err}");
    }
}
