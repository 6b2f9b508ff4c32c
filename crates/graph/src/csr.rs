//! Compressed Sparse Row matrices — the baseline format the paper's CSDB is
//! compared against (Fig. 19(a)), and the working format of FusedMM-like
//! in-memory systems.

use crate::{GraphError, Result};

/// A CSR sparse matrix with `f32` values and `u32` column indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: u32,
    cols: u32,
    row_ptr: Vec<u64>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Assemble from raw parts, validating the invariants.
    pub(crate) fn from_parts(
        rows: u32,
        cols: u32,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if row_ptr.len() != rows as usize + 1 {
            return Err(GraphError::DimensionMismatch {
                left: (rows, 0),
                right: (row_ptr.len() as u32, 0),
            });
        }
        if col_idx.len() != values.len() || *row_ptr.last().unwrap_or(&0) != col_idx.len() as u64 {
            return Err(GraphError::DimensionMismatch {
                left: (col_idx.len() as u32, 0),
                right: (values.len() as u32, 0),
            });
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::DimensionMismatch {
                left: (rows, cols),
                right: (rows, cols),
            });
        }
        if let Some(&bad) = col_idx.iter().find(|&&c| c >= cols) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                nodes: cols,
            });
        }
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Build from (row, col, value) triples (must reference valid indices).
    pub fn from_triples(rows: u32, cols: u32, mut triples: Vec<(u32, u32, f32)>) -> Result<Self> {
        triples.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0u64; rows as usize + 1];
        for &(r, c, _) in &triples {
            if r >= rows {
                return Err(GraphError::NodeOutOfRange {
                    node: r,
                    nodes: rows,
                });
            }
            if c >= cols {
                return Err(GraphError::NodeOutOfRange {
                    node: c,
                    nodes: cols,
                });
            }
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = triples.iter().map(|t| t.1).collect();
        let values = triples.iter().map(|t| t.2).collect();
        Csr::from_parts(rows, cols, row_ptr, col_idx, values)
    }

    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of row `r`.
    #[inline]
    pub fn degree(&self, r: u32) -> u64 {
        self.row_ptr[r as usize + 1] - self.row_ptr[r as usize]
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: u32) -> (&[u32], &[f32]) {
        let s = self.row_ptr[r as usize] as usize;
        let e = self.row_ptr[r as usize + 1] as usize;
        (&self.col_idx[s..e], &self.values[s..e])
    }

    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// All degrees.
    pub(crate) fn degrees(&self) -> Vec<u64> {
        (0..self.rows).map(|r| self.degree(r)).collect()
    }

    /// Maximum degree (0 for an all-empty matrix).
    pub fn max_degree(&self) -> u64 {
        (0..self.rows).map(|r| self.degree(r)).max().unwrap_or(0)
    }

    /// Transpose.
    pub(crate) fn transpose(&self) -> Csr {
        let mut row_ptr = vec![0u64; self.cols as usize + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        let mut cursor = row_ptr.clone();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let at = cursor[c as usize] as usize;
                col_idx[at] = r;
                values[at] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Structural + numerical symmetry check.
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        t.row_ptr == self.row_ptr && t.col_idx == self.col_idx && t.values == self.values
    }

    /// Scale all values in place.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Map values in place with access to the (row, col) position.
    pub fn map_values(&mut self, mut f: impl FnMut(u32, u32, f32) -> f32) {
        for r in 0..self.rows {
            let s = self.row_ptr[r as usize] as usize;
            let e = self.row_ptr[r as usize + 1] as usize;
            for i in s..e {
                self.values[i] = f(r, self.col_idx[i], self.values[i]);
            }
        }
    }

    /// Element-wise sum with an identically-shaped or differently-structured
    /// CSR of the same dimensions.
    pub fn add(&self, other: &Csr) -> Result<Csr> {
        self.merge_with(other, |a, b| a + b)
    }

    fn merge_with(&self, other: &Csr, op: impl Fn(f32, f32) -> f32) -> Result<Csr> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(GraphError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut row_ptr = vec![0u64; self.rows as usize + 1];
        let mut col_idx = Vec::with_capacity(self.nnz().max(other.nnz()));
        let mut values = Vec::with_capacity(col_idx.capacity());
        for r in 0..self.rows {
            let (ac, av) = self.row(r);
            let (bc, bv) = other.row(r);
            let (mut i, mut j) = (0, 0);
            while i < ac.len() || j < bc.len() {
                let (col, val) = if j >= bc.len() || (i < ac.len() && ac[i] < bc[j]) {
                    let out = (ac[i], op(av[i], 0.0));
                    i += 1;
                    out
                } else if i >= ac.len() || bc[j] < ac[i] {
                    let out = (bc[j], op(0.0, bv[j]));
                    j += 1;
                    out
                } else {
                    let out = (ac[i], op(av[i], bv[j]));
                    i += 1;
                    j += 1;
                    out
                };
                col_idx.push(col);
                values.push(val);
            }
            row_ptr[r as usize + 1] = col_idx.len() as u64;
        }
        Ok(Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Dense y = A·x (reference SpMV used by tests and small models).
    pub fn spmv(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.cols as usize {
            return Err(GraphError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (x.len() as u32, 1),
            });
        }
        let mut y = vec![0f32; self.rows as usize];
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            y[r as usize] = omega_linalg::kernels::sparse_dot(cols, vals, x);
        }
        Ok(y)
    }

    /// Bytes of the index structures (`row_ptr` + `col_idx`), the quantity
    /// CSDB shrinks; values excluded since both formats store them.
    pub fn index_bytes(&self) -> u64 {
        (self.row_ptr.len() * std::mem::size_of::<u64>()
            + self.col_idx.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Total payload bytes of the structure.
    pub fn size_bytes(&self) -> u64 {
        self.index_bytes() + (self.values.len() * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 5 example graph: |V|=7, |E|=11 undirected.
    pub(crate) fn fig5_graph() -> Csr {
        let mut b = crate::builder::GraphBuilder::new(7);
        // Degrees: v1=4, others chosen to produce Deg_list [4,3,2].
        for &(u, v) in &[
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 5),
            (2, 4),
            (2, 6),
            (3, 5),
            (4, 6),
        ] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        b.build_csr().unwrap()
    }

    #[test]
    fn fig5_has_expected_shape() {
        let g = fig5_graph();
        assert_eq!(g.rows(), 7);
        assert_eq!(g.nnz(), 22); // 11 undirected edges
        assert_eq!(g.degree(1), 4);
        assert_eq!(g.max_degree(), 4);
        assert!(g.is_symmetric());
    }

    #[test]
    fn from_triples_sorts() {
        let m = Csr::from_triples(2, 3, vec![(1, 2, 3.0), (0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        assert_eq!(m.row(0), (&[1u32][..], &[1.0f32][..]));
        assert_eq!(m.row(1), (&[0u32, 2][..], &[2.0f32, 3.0][..]));
    }

    #[test]
    fn from_parts_validates() {
        assert!(Csr::from_parts(1, 1, vec![0], vec![], vec![]).is_err()); // row_ptr too short
        assert!(Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![]).is_err()); // len mismatch
        assert!(Csr::from_parts(1, 1, vec![0, 1], vec![5], vec![1.0]).is_err()); // col oob
        assert!(Csr::from_parts(2, 1, vec![0, 2, 1], vec![0, 0, 0], vec![1.0; 3]).is_err());
        // nonmonotone
    }

    #[test]
    fn transpose_involutive() {
        let m = Csr::from_triples(2, 3, vec![(0, 2, 1.0), (1, 0, 2.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(2), (&[0u32][..], &[1.0f32][..]));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = Csr::from_triples(2, 2, vec![(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)]).unwrap();
        let y = m.spmv(&[1.0, 2.0]).unwrap();
        assert_eq!(y, vec![4.0, 6.0]);
        assert!(m.spmv(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_merge_structures() {
        let a = Csr::from_triples(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        let b = Csr::from_triples(2, 2, vec![(0, 1, 3.0), (1, 1, 4.0)]).unwrap();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.row(0), (&[0u32, 1][..], &[1.0f32, 3.0][..]));
        assert_eq!(sum.row(1), (&[1u32][..], &[6.0f32][..]));
        let c = Csr::from_triples(3, 2, vec![]).unwrap();
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn scale_and_map() {
        let mut m = Csr::from_triples(2, 2, vec![(0, 1, 2.0), (1, 0, 4.0)]).unwrap();
        m.scale(0.5);
        assert_eq!(m.row(0).1, &[1.0]);
        m.map_values(|r, c, v| v + (r + c) as f32);
        assert_eq!(m.row(0).1, &[2.0]);
        assert_eq!(m.row(1).1, &[3.0]);
    }

    #[test]
    fn size_accounting() {
        let g = fig5_graph();
        // row_ptr: 8*8=64, col_idx: 22*4=88, values: 22*4=88.
        assert_eq!(g.index_bytes(), 64 + 88);
        assert_eq!(g.size_bytes(), 64 + 88 + 88);
    }
}
