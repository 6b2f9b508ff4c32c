//! Cross-crate integration and property-based tests for the graph formats
//! and the SpMM engine's numerics.

use omega_graph::{Csdb, Csr, GraphBuilder, RmatConfig};
use omega_hetmem::{MemSystem, Topology};
use omega_linalg::{gaussian_matrix, DenseMatrix};
use omega_spmm::{AllocScheme, SpmmConfig, SpmmEngine};
use proptest::prelude::*;

/// Strategy: a random undirected graph as an edge set over `n` nodes.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (2u32..60, 1usize..120).prop_flat_map(|(n, edges)| {
        proptest::collection::vec((0..n, 0..n), edges).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v, 1.0).unwrap();
                }
            }
            // Ensure non-empty.
            b.add_edge(0, 1 % n.max(2), 1.0).ok();
            b.build_csr().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSDB -> CSR round-trips to the original matrix for any graph.
    #[test]
    fn csdb_roundtrip(csr in arb_graph()) {
        let csdb = Csdb::from_csr(&csr).unwrap();
        prop_assert_eq!(csdb.to_csr_original(), csr);
    }

    /// Deg_ptr equals the cumulative degree for every node (Eq. 1).
    #[test]
    fn deg_ptr_is_cumulative(csr in arb_graph()) {
        let csdb = Csdb::from_csr(&csr).unwrap();
        let mut cum = 0u64;
        for v in 0..csdb.rows() {
            prop_assert_eq!(csdb.deg_ptr(v), cum);
            cum += csdb.degree(v) as u64;
        }
        prop_assert_eq!(cum, csdb.nnz() as u64);
    }

    /// The permutation is a bijection and degrees descend along it.
    #[test]
    fn permutation_is_valid(csr in arb_graph()) {
        let csdb = Csdb::from_csr(&csr).unwrap();
        let mut seen = vec![false; csr.rows() as usize];
        for &old in csdb.perm() {
            prop_assert!(!seen[old as usize], "duplicate in perm");
            seen[old as usize] = true;
        }
        let degs: Vec<u32> = (0..csdb.rows()).map(|v| csdb.degree(v)).collect();
        prop_assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    /// CSDB SpMV agrees with CSR SpMV through the permutation.
    #[test]
    fn spmv_matches(csr in arb_graph(), seed in 0u64..1000) {
        let csdb = Csdb::from_csr(&csr).unwrap();
        let x = gaussian_matrix(csr.cols() as usize, 1, seed);
        let x_orig: Vec<f32> = x.col(0).to_vec();
        let x_perm: Vec<f32> = csdb.perm().iter().map(|&o| x_orig[o as usize]).collect();
        let y_perm = csdb.spmv(&x_perm).unwrap();
        let y_csr = csr.spmv(&x_orig).unwrap();
        for (new_id, &old) in csdb.perm().iter().enumerate() {
            prop_assert!((y_perm[new_id] - y_csr[old as usize]).abs() < 1e-3);
        }
    }

    /// Every allocation scheme covers all rows and nnz exactly once.
    #[test]
    fn allocations_partition(csr in arb_graph(), threads in 1usize..40) {
        let csdb = Csdb::from_csr(&csr).unwrap();
        for scheme in [
            AllocScheme::RoundRobin,
            AllocScheme::WaTA,
            AllocScheme::EaTA,
        ] {
            let ws = scheme.allocate(&csdb, threads);
            prop_assert_eq!(ws.len(), threads);
            let nnz: u64 = ws.iter().map(|w| w.nnzs).sum();
            prop_assert_eq!(nnz, csdb.nnz() as u64);
            let rows: usize = ws.iter().map(|w| w.rows.len()).sum();
            prop_assert_eq!(rows, csdb.rows() as usize);
        }
    }
}

/// The engine's SpMM equals a dense reference product for random graphs and
/// dense operands, in every configuration that changes the execution path.
#[test]
fn engine_matches_reference_product() {
    let csr = RmatConfig::social(300, 2_400, 9).generate_csr().unwrap();
    let csdb = Csdb::from_csr(&csr).unwrap();
    let b = gaussian_matrix(300, 12, 4);
    let mut reference = DenseMatrix::zeros(300, 12);
    for t in 0..12 {
        reference
            .col_mut(t)
            .copy_from_slice(&csdb.spmv(b.col(t)).unwrap());
    }
    for cfg in [
        SpmmConfig::omega(7),
        SpmmConfig::omega_dram(3),
        SpmmConfig::omega_pm(5),
        SpmmConfig {
            alloc: AllocScheme::RoundRobin,
            ..SpmmConfig::omega(4)
        },
        SpmmConfig {
            alloc: AllocScheme::WaTA,
            asl: false,
            ..SpmmConfig::omega(4)
        },
    ] {
        let eng = SpmmEngine::new(
            MemSystem::new(Topology::paper_machine_scaled(16 << 20)),
            cfg,
        )
        .unwrap();
        let run = eng.spmm(&csdb, &b).unwrap();
        assert!(
            run.result.max_abs_diff(&reference) < 1e-3,
            "config {cfg:?} diverged"
        );
    }
}

/// CSDB's transpose agrees with the CSR it came from: the adjacency of an
/// undirected graph is symmetric.
#[test]
fn operators_agree_across_formats() {
    let csr = RmatConfig::social(200, 1_500, 2).generate_csr().unwrap();
    let csdb = Csdb::from_csr(&csr).unwrap();
    assert_eq!(csdb.transpose().unwrap().to_csr_original(), csr);
}
