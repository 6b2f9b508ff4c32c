//! Chebyshev spectral propagation — ProNE's second stage.
//!
//! The initial embedding is smoothed with a band-pass filter
//! `g(λ) = e^{−½[(λ−μ)²−1]θ}` of the normalised graph Laplacian, expanded
//! in Chebyshev polynomials so that only `order` sparse multiplies are
//! needed: `T₀ = X`, `T₁ = M̂·X`, `T_{k+1} = 2·M̂·T_k − T_{k−1}` with
//! `M̂ = L − μI`, combined with modified-Bessel weights
//! `I_k(θ)` (ProNE eq. 8–10). A final multiply by the transition matrix
//! re-localises the filtered signal.

use crate::laplacian::{adjacency_plus_identity, modulated_rw_laplacian, to_csdb};
use crate::tsvd::SpmmMeter;
use crate::Result;
use omega_graph::{Csdb, Csr};
use omega_hetmem::SimDuration;
use omega_linalg::{axpy_threads, scale_threads, svd_tall_threads, DenseMatrix};
use omega_spmm::SpmmEngine;

/// Propagation parameters (ProNE defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChebyshevConfig {
    /// Expansion order (ProNE's `step`, default 10).
    pub order: usize,
    /// Band-pass centre `μ`.
    pub mu: f32,
    /// Band-pass sharpness `θ`.
    pub theta: f32,
    /// Worker-pool width for the dense term combination and final SVD.
    /// Wall-clock only: every kernel is bit-identical at any value, and the
    /// simulated dense cost is charged from the *simulated* thread count.
    pub threads: usize,
}

impl Default for ChebyshevConfig {
    fn default() -> Self {
        ChebyshevConfig {
            order: 10,
            mu: 0.2,
            theta: 0.5,
            threads: 1,
        }
    }
}

/// Outcome of one propagation pass.
#[derive(Debug)]
pub(crate) struct ChebyshevResult {
    /// Smoothed embedding, rows in the *original* node order.
    pub embedding: DenseMatrix,
    pub spmm_time: SimDuration,
    pub dense_time: SimDuration,
    pub spmm_count: usize,
}

impl ChebyshevResult {
    pub(crate) fn total_time(&self) -> SimDuration {
        self.spmm_time + self.dense_time
    }
}

/// Modified Bessel function of the first kind `I_k(x)` by its power series
/// (small integer orders and moderate arguments, as the filter needs).
pub fn bessel_iv(order: usize, x: f64) -> f64 {
    let half = x / 2.0;
    let mut term = half.powi(order as i32);
    for m in 1..=order {
        term /= m as f64;
    }
    let mut sum = term;
    let mut m = 1.0f64;
    loop {
        term *= half * half / (m * (m + order as f64));
        sum += term;
        if term < sum.abs() * 1e-14 || m > 200.0 {
            break;
        }
        m += 1.0;
    }
    sum
}

/// Propagate an embedding (rows in original node order) over the graph —
/// the exact recurrence of the reference ProNE implementation
/// (`chebyshev_gaussian`): each Chebyshev step applies `M` twice, the
/// Bessel-weighted terms alternate sign, the filtered signal is multiplied
/// by the self-looped adjacency, and a final dense SVD re-orthogonalises
/// and L2-normalises the embedding.
pub(crate) fn propagate(
    engine: &SpmmEngine,
    adj: &Csr,
    x_original: &DenseMatrix,
    cfg: &ChebyshevConfig,
) -> Result<ChebyshevResult> {
    let n = adj.rows() as usize;
    let d = x_original.cols();
    assert_eq!(x_original.rows(), n, "embedding rows must match |V|");
    if cfg.order <= 1 {
        return Ok(ChebyshevResult {
            embedding: x_original.clone(),
            spmm_time: SimDuration::ZERO,
            dense_time: SimDuration::ZERO,
            spmm_count: 0,
        });
    }

    let mut meter = SpmmMeter::default();

    // Operators in their CSDB (permuted) spaces. M = (1−μ)I − D⁻¹(A+I) and
    // A+I share the same structure, hence the same degree permutation.
    let a1 = adjacency_plus_identity(adj)?;
    let m_hat = to_csdb(&modulated_rw_laplacian(adj, cfg.mu)?)?;
    let a1_csdb = to_csdb(&a1)?;

    // X into M̂'s permuted space.
    let x = permute_matrix(&m_hat, x_original);

    let theta = cfg.theta as f64;

    let wt = cfg.threads;

    // The dense term combinations run under a `combine` wall-clock phase
    // scope so the bench phase breakdown separates them from the SpMM
    // recurrence (which stays attributed to the enclosing `propagate`
    // scope). Purely observational: simulated costs are unchanged.
    use omega_par::phase_scope;

    // Lx1 = 0.5·M·(M·x) − x.
    let mut lx0 = x.clone();
    let t = meter.spmm(engine, &m_hat, &x)?;
    let mut lx1 = meter.spmm(engine, &m_hat, &t)?;
    phase_scope("combine", || -> Result<()> {
        scale_threads(&mut lx1, 0.5, wt);
        axpy_threads(&mut lx1, -1.0, &x, wt)?;
        Ok(())
    })?;

    // conv = I₀(θ)·Lx0 − 2·I₁(θ)·Lx1.
    let mut conv = lx0.clone();
    phase_scope("combine", || -> Result<()> {
        scale_threads(&mut conv, bessel_iv(0, theta) as f32, wt);
        let mut term = lx1.clone();
        scale_threads(&mut term, -2.0 * bessel_iv(1, theta) as f32, wt);
        axpy_threads(&mut conv, 1.0, &term, wt)?;
        Ok(())
    })?;

    for i in 2..cfg.order {
        // Lx2 = (M·(M·Lx1) − 2·Lx1) − Lx0.
        let t = meter.spmm(engine, &m_hat, &lx1)?;
        let mut lx2 = meter.spmm(engine, &m_hat, &t)?;
        phase_scope("combine", || -> Result<()> {
            axpy_threads(&mut lx2, -2.0, &lx1, wt)?;
            axpy_threads(&mut lx2, -1.0, &lx0, wt)?;
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let mut term = lx2.clone();
            scale_threads(&mut term, sign * 2.0 * bessel_iv(i, theta) as f32, wt);
            axpy_threads(&mut conv, 1.0, &term, wt)?;
            Ok(())
        })?;
        meter.dense(engine, 6 * (n * d) as u64);
        lx0 = lx1;
        lx1 = lx2;
    }

    // mm = (A+I)·(x − conv), then SVD-based re-embedding.
    let mut filtered = x;
    phase_scope("combine", || axpy_threads(&mut filtered, -1.0, &conv, wt))?;
    meter.dense(engine, 2 * (n * d) as u64);
    let filtered_original = unpermute_matrix(&m_hat, &filtered);
    let filtered_a1 = permute_matrix(&a1_csdb, &filtered_original);
    let mm = meter.spmm(engine, &a1_csdb, &filtered_a1)?;
    let mm_original = unpermute_matrix(&a1_csdb, &mm);
    let embedding = phase_scope("combine", || dense_embedding(&mm_original, wt))?;
    meter.dense(engine, 12 * (n * d * d) as u64);

    Ok(ChebyshevResult {
        embedding,
        spmm_time: meter.spmm_time,
        dense_time: meter.dense_time,
        spmm_count: meter.spmm_count,
    })
}

/// ProNE's `get_embedding_dense`: SVD of the propagated matrix, scaled by
/// √σ and L2-normalised per row.
fn dense_embedding(mm: &DenseMatrix, threads: usize) -> Result<DenseMatrix> {
    let d = mm.cols();
    let svd = svd_tall_threads(mm, threads)?;
    let mut u = svd.u.columns(0..d);
    for c in 0..d {
        let s = svd.s[c].max(0.0).sqrt();
        for v in u.col_mut(c) {
            *v *= s;
        }
    }
    // L2-normalise rows.
    let (n, d) = u.shape();
    let mut rm = vec![0f32; n * d];
    u.pack_rows(0..n, 0..d, d, &mut rm);
    for r in 0..n {
        omega_linalg::ops::normalize(&mut rm[r * d..(r + 1) * d]);
    }
    Ok(DenseMatrix::from_row_major(n, d, &rm)?)
}

/// Reorder a dense matrix's rows from original order into a CSDB's
/// permuted space.
pub(crate) fn permute_matrix(csdb: &Csdb, m: &DenseMatrix) -> DenseMatrix {
    assert_eq!(m.rows(), csdb.perm().len(), "one row per node");
    let mut out = DenseMatrix::zeros(m.rows(), m.cols());
    for c in 0..m.cols() {
        let src = m.col(c);
        for (dst, &old) in out.col_mut(c).iter_mut().zip(csdb.perm()) {
            *dst = src[old as usize];
        }
    }
    out
}

/// Reorder a dense matrix's rows from a CSDB's permuted space back to the
/// original order.
pub(crate) fn unpermute_matrix(csdb: &Csdb, m: &DenseMatrix) -> DenseMatrix {
    assert_eq!(m.rows(), csdb.perm().len(), "one row per node");
    let mut out = DenseMatrix::zeros(m.rows(), m.cols());
    for c in 0..m.cols() {
        let dst = out.col_mut(c);
        for (&x, &old) in m.col(c).iter().zip(csdb.perm()) {
            dst[old as usize] = x;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::{RmatConfig, SbmConfig};
    use omega_hetmem::{MemSystem, Topology};
    use omega_linalg::gaussian_matrix;
    use omega_spmm::SpmmConfig;

    fn engine() -> SpmmEngine {
        SpmmEngine::new(
            MemSystem::new(Topology::paper_machine_scaled(16 << 20)),
            SpmmConfig::omega(4),
        )
        .unwrap()
    }

    #[test]
    fn bessel_matches_known_values() {
        // Reference values (Abramowitz & Stegun): I_0(1)=1.2660658,
        // I_1(1)=0.5651591, I_2(1)=0.1357476, I_0(0.5)=1.0634834.
        assert!((bessel_iv(0, 1.0) - 1.2660658).abs() < 1e-6);
        assert!((bessel_iv(1, 1.0) - 0.5651591).abs() < 1e-6);
        assert!((bessel_iv(2, 1.0) - 0.1357476).abs() < 1e-6);
        assert!((bessel_iv(0, 0.5) - 1.0634834).abs() < 1e-6);
        assert_eq!(bessel_iv(3, 0.0), 0.0);
        assert_eq!(bessel_iv(0, 0.0), 1.0);
    }

    #[test]
    fn permute_roundtrip() {
        let g = Csdb::from_csr(&RmatConfig::social(64, 300, 1).generate_csr().unwrap()).unwrap();
        let m = gaussian_matrix(64, 3, 5);
        let there = permute_matrix(&g, &m);
        let back = unpermute_matrix(&g, &there);
        assert!(back.max_abs_diff(&m) < 1e-7);
        assert_ne!(there, m); // the permutation actually moves rows
    }

    #[test]
    fn propagation_runs_and_reports() {
        let adj = RmatConfig::social(256, 1_500, 4).generate_csr().unwrap();
        let x = gaussian_matrix(256, 8, 2);
        let out = propagate(&engine(), &adj, &x, &ChebyshevConfig::default()).unwrap();
        assert_eq!(out.embedding.shape(), (256, 8));
        // Order-10 expansion: 2 for Lx1, 2 per step for i in 2..10, plus
        // the final (A+I) multiply = 2 + 16 + 1.
        assert_eq!(out.spmm_count, 19);
        assert!(out.spmm_time > SimDuration::ZERO);
        assert!(out.embedding.frobenius_norm() > 0.0);
        assert!(out.embedding.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn propagation_improves_community_coherence() {
        // Smoothing over an assortative graph should pull same-community
        // embeddings together relative to cross-community pairs.
        let cfg = SbmConfig::assortative(200, 8);
        let adj = cfg.generate_csr().unwrap();
        let labels = cfg.labels();
        let x = gaussian_matrix(200, 16, 3);
        let out = propagate(&engine(), &adj, &x, &ChebyshevConfig::default()).unwrap();

        let coherence = |m: &DenseMatrix| {
            let mut same = 0.0f64;
            let mut cross = 0.0f64;
            let (mut ns, mut nc) = (0u32, 0u32);
            for u in (0..200).step_by(3) {
                for v in (1..200).step_by(7) {
                    if u == v {
                        continue;
                    }
                    let a = m.row_copied(u);
                    let b = m.row_copied(v);
                    let cos = omega_linalg::ops::cosine(&a, &b) as f64;
                    if labels[u] == labels[v] {
                        same += cos;
                        ns += 1;
                    } else {
                        cross += cos;
                        nc += 1;
                    }
                }
            }
            same / ns as f64 - cross / nc as f64
        };
        let before = coherence(&x);
        let after = coherence(&out.embedding);
        assert!(
            after > before + 0.05,
            "propagation should raise community coherence: {before} -> {after}"
        );
    }
}
