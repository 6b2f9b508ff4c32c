//! Entropy-based workload weighting (paper §III-B, Eq. 3–7).
//!
//! EaTA's insight: the running time of a thread is not proportional to its
//! raw nnz count but to the *effective bandwidth* its access pattern
//! achieves. A workload whose nnz are spread thinly over many rows (high
//! entropy `H`, low scatter factor `W_sca`) degrades the `get_dense_nnz`
//! stream from sequential towards random bandwidth. Eq. 5 interpolates the
//! two with the normalised entropy `Z(H)` and the bandwidth ratio
//! `β = BW_rand / BW_seq`; Eq. 7 then sizes each thread's nnz budget so
//! that *predicted times*, not nnz counts, equalise. That step lives in
//! the allocator (`alloc.rs`, `allocate_eata`), which solves Eq. 7's fixed
//! point directly instead of applying its one-step rescale.

use omega_graph::normalized_entropy;
use omega_hetmem::{AccessClass, AccessOp, AccessPattern, BandwidthModel, DeviceKind, Locality};

/// The bandwidth ratio `β = BW_r_rand / BW_r_seq` of the device serving the
/// dense operand (Eq. 5). On the paper's PM this is ≈ 1/2.41.
pub fn beta_for(model: &BandwidthModel, device: DeviceKind) -> f64 {
    let seq = model
        .class(AccessClass::new(
            device,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Seq,
        ))
        .peak_gib_s;
    let rand = model
        .class(AccessClass::new(
            device,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Rand,
        ))
        .peak_gib_s;
    if seq <= 0.0 {
        1.0
    } else {
        (rand / seq).clamp(0.0, 1.0)
    }
}

/// The effective-bandwidth factor of Eq. 5:
/// `1 − Z(H) + β·Z(H)` ∈ [β, 1]. Fully sequential workloads (Z → 0) run at
/// sequential bandwidth (factor 1); fully scattered ones (Z → 1) at random
/// bandwidth (factor β).
#[inline]
pub fn bandwidth_factor(z: f64, beta: f64) -> f64 {
    1.0 - z + beta * z
}

/// The *affine* effective-cost factor: per-nnz cost relative to a fully
/// sequential workload, `1 + (1/β − 1)·Z`. It shares Eq. 5's endpoints
/// (cost 1 at Z = 0, cost 1/β at Z = 1) but is linear in Z — the form the
/// measured per-workload costs actually follow (random fetches move whole
/// media units, so traffic grows linearly with the random share). EaTA's
/// allocator prices with this factor, exactly as the paper fits its `K`
/// from measurements (Fig. 7(c)).
#[inline]
pub fn affine_cost_factor(z: f64, beta: f64) -> f64 {
    1.0 + (1.0 / beta.max(1e-6) - 1.0) * z.clamp(0.0, 1.0)
}

/// Predicted per-thread cost of Eq. 2 in simulated seconds: index reads and
/// sparse nnz fetches stream sequentially, dense fetches run at the
/// entropy-degraded bandwidth, result writes stream sequentially, plus the
/// CPU accumulation term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostInputs {
    /// Workload size `W_i` in nnz.
    pub nnzs: u64,
    /// Rows in the workload.
    pub rows: u64,
    /// Workload entropy `H_i`.
    pub entropy: f64,
    /// Total columns `|V|` of the sparse matrix.
    pub total_cols: u32,
}

/// Evaluate Eq. 2 against a bandwidth model with the sparse and dense
/// operands on `device` (locality ignored: this is the coarse analytical
/// model used for prediction and the Fig. 7 analysis, not the simulator).
pub fn predicted_cost_secs(model: &BandwidthModel, device: DeviceKind, c: CostInputs) -> f64 {
    const GIB: f64 = (1u64 << 30) as f64;
    let seq_bw = model
        .class(AccessClass::new(
            device,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Seq,
        ))
        .peak_gib_s
        * GIB;
    let wseq_bw = model
        .class(AccessClass::new(
            device,
            Locality::Local,
            AccessOp::Write,
            AccessPattern::Seq,
        ))
        .peak_gib_s
        * GIB;
    let beta = beta_for(model, device);
    let z = normalized_entropy(c.entropy, c.total_cols);
    let eff_bw = seq_bw * bandwidth_factor(z, beta);

    let idx_bytes = (c.rows * 8) as f64; // step 1: read_index
    let sparse_bytes = (c.nnzs * 8) as f64; // step 2: col + nnz
    let dense_bytes = (c.nnzs * 4) as f64; // step 3: get_dense_nnz
    let result_bytes = (c.rows * 4) as f64; // step 5: write_result
    idx_bytes / seq_bw
        + sparse_bytes / seq_bw
        + dense_bytes / eff_bw
        + result_bytes / wseq_bw
        + c.nnzs as f64 / model.cpu_ops_per_sec // step 4: accumulate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_matches_fig9_ratio_on_pm() {
        let m = BandwidthModel::paper_machine();
        let b = beta_for(&m, DeviceKind::Pm);
        assert!((b - 1.0 / 2.41).abs() < 1e-6, "beta={b}");
        let bd = beta_for(&m, DeviceKind::Dram);
        assert!(bd > 0.3 && bd < 0.6);
    }

    #[test]
    fn bandwidth_factor_interpolates() {
        assert_eq!(bandwidth_factor(0.0, 0.4), 1.0);
        assert!((bandwidth_factor(1.0, 0.4) - 0.4).abs() < 1e-12);
        let mid = bandwidth_factor(0.5, 0.4);
        assert!(mid > 0.4 && mid < 1.0);
    }

    #[test]
    fn predicted_cost_monotone_in_entropy() {
        let m = BandwidthModel::paper_machine();
        let base = CostInputs {
            nnzs: 1_000_000,
            rows: 10_000,
            entropy: 2.0,
            total_cols: 100_000,
        };
        let low = predicted_cost_secs(&m, DeviceKind::Pm, base);
        let high = predicted_cost_secs(
            &m,
            DeviceKind::Pm,
            CostInputs {
                entropy: 10.0,
                ..base
            },
        );
        assert!(high > low, "entropy should increase predicted cost");
        // PM costs more than DRAM for the same workload.
        let dram = predicted_cost_secs(&m, DeviceKind::Dram, base);
        assert!(low > dram);
    }
}
