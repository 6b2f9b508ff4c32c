//! Randomized truncated SVD (Halko/Martinsson/Tropp) over the OMeGa SpMM
//! engine — ProNE's sparse-factorisation stage.
//!
//! All large multiplies are sparse×dense and run through
//! [`omega_spmm::SpmmEngine`] (accumulating simulated heterogeneous-memory
//! time); the small dense factorisations (QR of `n × k`, Jacobi SVD of
//! `n × k`) use `omega-linalg` and are costed analytically as CPU work.

use crate::{EmbedError, Result};
use omega_graph::Csdb;
use omega_hetmem::SimDuration;
use omega_linalg::{gaussian_matrix, gemm_threads, qr_thin_threads, svd_tall_threads, DenseMatrix};
use omega_spmm::SpmmEngine;

/// Randomized t-SVD parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TsvdConfig {
    /// Target rank (the embedding dimension `d`).
    pub rank: usize,
    /// Oversampling columns (Halko recommends 5–20).
    pub oversample: usize,
    /// Subspace (power) iterations for spectral decay sharpening.
    pub power_iters: usize,
    pub seed: u64,
}

/// Outcome of the randomized factorisation.
#[derive(Debug)]
pub(crate) struct TsvdResult {
    /// `U · diag(√σ)` truncated to `rank` — ProNE's initial embedding, rows
    /// in the CSDB's permuted space.
    pub embedding: DenseMatrix,
    /// Leading singular values, descending. Only the tests read them.
    #[cfg_attr(not(test), allow(dead_code))]
    pub singular_values: Vec<f32>,
    /// Simulated time spent in SpMM.
    pub spmm_time: SimDuration,
    /// Simulated time for the dense QR/SVD/GEMM work.
    pub dense_time: SimDuration,
    /// Number of SpMM invocations.
    pub spmm_count: usize,
}

impl TsvdResult {
    pub(crate) fn total_time(&self) -> SimDuration {
        self.spmm_time + self.dense_time
    }
}

/// The simulated-time meter of one ProNE stage: every sparse multiply goes
/// through [`SpmmMeter::spmm`], every dense kernel is priced by
/// [`SpmmMeter::dense`].
#[derive(Default)]
pub(crate) struct SpmmMeter {
    pub spmm_time: SimDuration,
    pub dense_time: SimDuration,
    pub spmm_count: usize,
}

impl SpmmMeter {
    /// `a·b` on the engine, its makespan added to the stage's SpMM time.
    pub(crate) fn spmm(
        &mut self,
        engine: &SpmmEngine,
        a: &Csdb,
        b: &DenseMatrix,
    ) -> Result<DenseMatrix> {
        let out = engine.spmm(a, b)?;
        self.spmm_time += out.makespan;
        self.spmm_count += 1;
        Ok(out.result)
    }

    /// Charge `flops` of dense CPU work, spread analytically over the
    /// engine's simulated threads.
    pub(crate) fn dense(&mut self, engine: &SpmmEngine, flops: u64) {
        let threads = engine.config().threads.max(1) as f64;
        let rate = engine.system().model().cpu_ops_per_sec * threads;
        self.dense_time += SimDuration::from_secs_f64(flops as f64 / rate);
    }
}

/// Randomized truncated SVD of `m` (in its permuted space): returns the
/// ProNE initial embedding `U √Σ`.
///
/// `mt` must be the transpose of `m` in the *same* permuted id space (for
/// the symmetric-structure matrices ProNE uses, [`Csdb::transpose`]
/// preserves the permutation).
///
/// `threads` is the pool width of the dense QR/SVD/GEMM stages, a
/// wall-clock knob only: the kernels are bit-identical at every width and
/// the simulated dense cost is charged from the engine's *simulated*
/// thread count.
pub(crate) fn randomized_tsvd(
    engine: &SpmmEngine,
    m: &Csdb,
    mt: &Csdb,
    cfg: &TsvdConfig,
    threads: usize,
) -> Result<TsvdResult> {
    let n = m.rows() as usize;
    let k = cfg.rank + cfg.oversample;
    if cfg.rank == 0 || k > n {
        return Err(EmbedError::InvalidConfig(format!(
            "rank+oversample ({k}) must be in 1..=|V| ({n})"
        )));
    }

    let mut meter = SpmmMeter::default();

    // Range finding: Y = (M·Mᵀ)^q · M · Ω.
    let omega = gaussian_matrix(n, k, cfg.seed);
    let mut y = meter.spmm(engine, m, &omega)?;
    for _ in 0..cfg.power_iters {
        let z = meter.spmm(engine, mt, &y)?;
        y = meter.spmm(engine, m, &z)?;
    }

    // Orthonormal basis Q of the range.
    let (q, _) = qr_thin_threads(&y, threads)?;
    meter.dense(engine, 2 * (n * k * k) as u64);

    // Project: Z = Mᵀ·Q  (so B = Zᵀ = Qᵀ·M), then SVD the tall Z.
    let z = meter.spmm(engine, mt, &q)?;
    let svd = svd_tall_threads(&z, threads)?;
    meter.dense(engine, 12 * (n * k * k) as u64);

    // Z = U_z Σ V_zᵀ  ⇒  M ≈ Q·Zᵀ = (Q·V_z)·Σ·U_zᵀ.
    let v_z = svd.vt.transposed();
    let u = gemm_threads(&q, &v_z, threads)?;
    meter.dense(engine, 2 * (n * k * k) as u64);

    // Embedding = U[:, :rank] · diag(√σ).
    let mut embedding = u.columns(0..cfg.rank);
    for c in 0..cfg.rank {
        let s = svd.s[c].max(0.0).sqrt();
        for v in embedding.col_mut(c) {
            *v *= s;
        }
    }

    Ok(TsvdResult {
        embedding,
        singular_values: svd.s[..cfg.rank].to_vec(),
        spmm_time: meter.spmm_time,
        dense_time: meter.dense_time,
        spmm_count: meter.spmm_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::{Csdb, RmatConfig};
    use omega_hetmem::{MemSystem, Topology};
    use omega_linalg::gram_threads;
    use omega_spmm::SpmmConfig;

    fn engine() -> SpmmEngine {
        SpmmEngine::new(
            MemSystem::new(Topology::paper_machine_scaled(16 << 20)),
            SpmmConfig::omega(4),
        )
        .unwrap()
    }

    fn graph(n: u32, e: u64, seed: u64) -> Csdb {
        Csdb::from_csr(&RmatConfig::social(n, e, seed).generate_csr().unwrap()).unwrap()
    }

    #[test]
    fn low_rank_matrix_is_recovered() {
        // The adjacency of a disjoint pair of cliques has rank ~2 dominant
        // structure; tSVD with rank 4 captures nearly all spectral energy.
        let mut b = omega_graph::GraphBuilder::new(40);
        for u in 0..20u32 {
            for v in (u + 1)..20 {
                b.add_edge(u, v, 1.0).unwrap();
                b.add_edge(u + 20, v + 20, 1.0).unwrap();
            }
        }
        let csdb = Csdb::from_csr(&b.build_csr().unwrap()).unwrap();
        let mt = csdb.transpose().unwrap();
        let eng = engine();
        let cfg = TsvdConfig {
            rank: 4,
            oversample: 8,
            power_iters: 2,
            seed: 3,
        };
        let out = randomized_tsvd(&eng, &csdb, &mt, &cfg, 1).unwrap();
        // Two cliques of 20: eigenvalues 19, 19, then -1s.
        assert!((out.singular_values[0] - 19.0).abs() < 0.5);
        assert!((out.singular_values[1] - 19.0).abs() < 0.5);
        assert_eq!(out.embedding.shape(), (40, 4));
        assert!(out.spmm_count >= 6); // 1 + 2*2 power + 1 projection
        assert!(out.spmm_time > SimDuration::ZERO);
        assert!(out.dense_time > SimDuration::ZERO);
    }

    #[test]
    fn embedding_columns_are_orthogonal_directions() {
        let g = graph(256, 2_000, 7);
        let mt = g.transpose().unwrap();
        let out = randomized_tsvd(
            &engine(),
            &g,
            &mt,
            &TsvdConfig {
                rank: 8,
                oversample: 8,
                power_iters: 1,
                seed: 1,
            },
            1,
        )
        .unwrap();
        // U columns orthonormal => embedding gram is ~diag(σ).
        let gram = gram_threads(&out.embedding, 1);
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    let bound = (out.singular_values[i] * out.singular_values[j]).sqrt() * 0.05;
                    assert!(
                        gram[(i, j)].abs() < bound.max(0.1),
                        "gram[{i},{j}] = {}",
                        gram[(i, j)]
                    );
                }
            }
        }
        // Singular values descending.
        assert!(out.singular_values.windows(2).all(|w| w[0] >= w[1] - 1e-4));
    }

    #[test]
    fn invalid_ranks_rejected() {
        let g = graph(64, 300, 2);
        let mt = g.transpose().unwrap();
        let eng = engine();
        let bad = TsvdConfig {
            rank: 64,
            oversample: 8,
            power_iters: 0,
            seed: 0,
        };
        assert!(randomized_tsvd(&eng, &g, &mt, &bad, 1).is_err());
        let zero = TsvdConfig {
            rank: 0,
            oversample: 1,
            power_iters: 0,
            seed: 0,
        };
        assert!(randomized_tsvd(&eng, &g, &mt, &zero, 1).is_err());
    }

    #[test]
    fn deterministic_in_seed() {
        let g = graph(128, 600, 5);
        let mt = g.transpose().unwrap();
        let eng = engine();
        let cfg = TsvdConfig {
            rank: 4,
            oversample: 4,
            power_iters: 1,
            seed: 11,
        };
        let a = randomized_tsvd(&eng, &g, &mt, &cfg, 1).unwrap();
        let b = randomized_tsvd(&eng, &g, &mt, &cfg, 1).unwrap();
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.spmm_time, b.spmm_time);
    }
}
