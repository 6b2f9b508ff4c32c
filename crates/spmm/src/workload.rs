//! Workload descriptions: which rows of the sparse matrix a simulated
//! thread processes.

use omega_graph::Csdb;
use std::ops::Range;

/// One thread's assigned workload with its EaTA diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Simulated thread index.
    pub thread: usize,
    /// The contiguous rows of the degree-sorted CSDB matrix the thread
    /// processes, so its index reads stay sequential (every allocation
    /// scheme cuts ranges).
    pub rows: Range<u32>,
    /// Total non-zeros in the workload (`W_i`).
    pub nnzs: u64,
    /// Workload entropy `H_i` (Eq. 3).
    pub entropy: f64,
    /// Inherent scatter factor `W_sca` (§III-B).
    pub scatter: f64,
}

impl Workload {
    /// Build a workload over a contiguous row range of a CSDB matrix, with
    /// its nnz total and entropy / scatter diagnostics read off the matrix.
    pub(crate) fn contiguous(thread: usize, csdb: &Csdb, start: u32, end: u32) -> Workload {
        let rows = start..end;
        let row_nnz: Vec<u64> = rows.clone().map(|v| csdb.degree(v) as u64).collect();
        Workload {
            thread,
            rows,
            nnzs: row_nnz.iter().sum(),
            entropy: omega_graph::workload_entropy(&row_nnz),
            scatter: omega_graph::scatter_factor(&row_nnz, csdb.cols()),
        }
    }
}

/// Non-zeros held by the contiguous rows `rows`, read off the CSDB's
/// arithmetic degree pointer (`Deg_ptr`, Eq. 1). Rows at or past the end of
/// the matrix hold none.
pub(crate) fn range_nnz(csdb: &Csdb, rows: Range<u32>) -> u64 {
    let ptr = |row: u32| {
        if row < csdb.rows() {
            csdb.deg_ptr(row)
        } else {
            csdb.nnz() as u64
        }
    };
    ptr(rows.end) - ptr(rows.start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::GraphBuilder;

    fn csdb() -> Csdb {
        let mut b = GraphBuilder::new(6);
        for &(u, v) in &[(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        Csdb::from_csr(&b.build_csr().unwrap()).unwrap()
    }

    #[test]
    fn range_iteration() {
        let g = csdb();
        let w = Workload::contiguous(0, &g, 2, 5);
        assert_eq!(w.rows.clone().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(w.rows.len(), 3);
        let expect: u64 = (2..5).map(|v| g.degree(v) as u64).sum();
        assert_eq!(w.nnzs, expect);
        assert!(Workload::contiguous(0, &g, 5, 5).rows.is_empty());
    }

    #[test]
    fn contiguous_workload_diagnostics() {
        let g = csdb();
        let w = Workload::contiguous(0, &g, 0, g.rows());
        assert_eq!(w.nnzs, g.nnz() as u64);
        assert!(w.entropy > 0.0);
        assert!(w.scatter > 0.0);
        // Halves partition the nnz, and agree with the degree pointer.
        let w2 = Workload::contiguous(1, &g, 3, g.rows());
        assert_eq!(w2.nnzs, range_nnz(&g, 3..g.rows()));
        assert_eq!(w.nnzs, Workload::contiguous(0, &g, 0, 3).nnzs + w2.nnzs);
    }

    #[test]
    fn empty_range_workload_is_harmless() {
        let g = csdb();
        let w = Workload::contiguous(0, &g, g.rows(), g.rows());
        assert_eq!(w.nnzs, 0);
        assert_eq!(w.entropy, 0.0);
        assert_eq!(range_nnz(&g, g.rows()..g.rows()), 0);
    }
}
