//! Workload descriptions: which rows of the sparse matrix a simulated
//! thread processes.

use omega_graph::Csdb;
use std::ops::Range;
use std::sync::Arc;

/// The set of sparse-matrix rows assigned to one thread.
///
/// `Range` is what WaTA/EaTA produce (contiguous, so index reads stay
/// sequential); `Strided` covers regular cyclic assignments; `Scattered`
/// models the library-default round-robin of Fig. 6(a) applied to the
/// *original* node order — after CSDB's degree permutation those rows land
/// at arbitrary permuted positions, so index reads become random.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowSet {
    Range { start: u32, end: u32 },
    Strided { start: u32, stride: u32, end: u32 },
    Scattered(Arc<Vec<u32>>),
}

impl RowSet {
    /// Iterate the member rows in processing order.
    pub fn iter(&self) -> RowSetIter<'_> {
        match self {
            RowSet::Range { start, end } => RowSetIter::Stride {
                next: *start,
                stride: 1,
                end: *end,
            },
            RowSet::Strided { start, stride, end } => RowSetIter::Stride {
                next: *start,
                stride: *stride,
                end: *end,
            },
            RowSet::Scattered(rows) => RowSetIter::List {
                rows: rows.as_slice(),
                at: 0,
            },
        }
    }

    /// Number of member rows.
    pub fn len(&self) -> usize {
        match self {
            RowSet::Range { start, end } => (end.saturating_sub(*start)) as usize,
            RowSet::Strided { start, stride, end } => {
                if start >= end {
                    0
                } else {
                    ((end - start) as usize).div_ceil(*stride as usize)
                }
            }
            RowSet::Scattered(rows) => rows.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether processing order is a contiguous scan (sequential index
    /// reads, the property EaTA preserves).
    pub fn is_contiguous(&self) -> bool {
        matches!(self, RowSet::Range { .. }) || matches!(self, RowSet::Strided { stride: 1, .. })
    }
}

/// Iterator over a [`RowSet`].
#[derive(Debug, Clone)]
pub enum RowSetIter<'a> {
    Stride { next: u32, stride: u32, end: u32 },
    List { rows: &'a [u32], at: usize },
}

impl Iterator for RowSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            RowSetIter::Stride { next, stride, end } => {
                if *next >= *end {
                    return None;
                }
                let out = *next;
                *next = next.saturating_add(*stride);
                Some(out)
            }
            RowSetIter::List { rows, at } => {
                let out = rows.get(*at).copied();
                *at += 1;
                out
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            RowSetIter::Stride { next, stride, end } => {
                if *next >= *end {
                    0
                } else {
                    ((*end - *next) as usize).div_ceil(*stride as usize)
                }
            }
            RowSetIter::List { rows, at } => rows.len().saturating_sub(*at),
        };
        (n, Some(n))
    }
}

/// One thread's assigned workload with its EaTA diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Simulated thread index.
    pub thread: usize,
    pub rows: RowSet,
    /// Total non-zeros in the workload (`W_i`).
    pub nnzs: u64,
    /// Workload entropy `H_i` (Eq. 3).
    pub entropy: f64,
    /// Inherent scatter factor `W_sca` (§III-B).
    pub scatter: f64,
}

impl Workload {
    /// A workload over `rows`, with its nnz total and entropy / scatter
    /// diagnostics read off the matrix.
    fn over(thread: usize, csdb: &Csdb, rows: RowSet) -> Workload {
        let row_nnz: Vec<u64> = rows.iter().map(|v| csdb.degree(v) as u64).collect();
        Workload {
            thread,
            rows,
            nnzs: row_nnz.iter().sum(),
            entropy: omega_graph::stats::workload_entropy(&row_nnz),
            scatter: omega_graph::stats::scatter_factor(&row_nnz, csdb.cols()),
        }
    }

    /// Build a workload over a contiguous row range of a CSDB matrix.
    pub fn contiguous(thread: usize, csdb: &Csdb, start: u32, end: u32) -> Workload {
        Self::over(thread, csdb, RowSet::Range { start, end })
    }

    /// Build a strided (round-robin over permuted ids) workload.
    pub fn strided(thread: usize, csdb: &Csdb, start: u32, stride: u32) -> Workload {
        let end = csdb.rows();
        Self::over(thread, csdb, RowSet::Strided { start, stride, end })
    }

    /// Build a workload over an explicit (permuted-id) row list — the shape
    /// the library-default round-robin produces after CSDB relabelling.
    pub fn scattered(thread: usize, csdb: &Csdb, rows: Vec<u32>) -> Workload {
        Self::over(thread, csdb, RowSet::Scattered(Arc::new(rows)))
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
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
        let r = RowSet::Range { start: 2, end: 5 };
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.len(), 3);
        assert!(r.is_contiguous());
        let empty = RowSet::Range { start: 5, end: 5 };
        assert!(empty.is_empty());
    }

    #[test]
    fn strided_iteration() {
        let s = RowSet::Strided {
            start: 1,
            stride: 3,
            end: 10,
        };
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_contiguous());
        assert_eq!(s.iter().size_hint(), (3, Some(3)));
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
    fn strided_workloads_cover_all_rows() {
        let g = csdb();
        let threads = 4u32;
        let ws: Vec<Workload> = (0..threads)
            .map(|t| Workload::strided(t as usize, &g, t, threads))
            .collect();
        let total: u64 = ws.iter().map(|w| w.nnzs).sum();
        assert_eq!(total, g.nnz() as u64);
        let rows: usize = ws.iter().map(|w| w.row_count()).sum();
        assert_eq!(rows, g.rows() as usize);
    }

    #[test]
    fn scattered_workload() {
        let g = csdb();
        let rows: Vec<u32> = vec![3, 0, 5];
        let w = Workload::scattered(0, &g, rows.clone());
        assert_eq!(w.rows.iter().collect::<Vec<_>>(), rows);
        assert_eq!(w.row_count(), 3);
        assert!(!w.rows.is_contiguous());
        let expect: u64 = rows.iter().map(|&v| g.degree(v) as u64).sum();
        assert_eq!(w.nnzs, expect);
        assert_eq!(w.rows.iter().size_hint(), (3, Some(3)));
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
