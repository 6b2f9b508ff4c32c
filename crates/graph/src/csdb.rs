//! The Compressed Sparse Degree-Block format (CSDB, paper §III-A).
//!
//! CSDB exploits the degree skew of real-world graphs: nodes are relabelled
//! in descending-degree order, so nodes of equal degree form contiguous
//! *degree blocks*. Two small index arrays then replace CSR's `O(|V|)`
//! row-pointer array:
//!
//! * `Deg_list` — the distinct degrees, in block order (descending);
//! * `Deg_ind` — the start offset of each degree block in the node order.
//!
//! Both are `O(|Degree|)` — the number of *distinct* degrees — which is far
//! smaller than `|V|` for power-law graphs. The start of row `v` in
//! `col_list`/`nnz_list` is reconstructed arithmetically (Eq. 1):
//! `Deg_ptr(v) = block_cum[b] + (v − Deg_ind[b]) · Deg_list[b]`.
//!
//! The matrix CSDB represents is the adjacency matrix *in the permuted id
//! space* (rows and columns both relabelled), which for a symmetric graph is
//! a symmetric permutation — spectra and embedding quality are unaffected,
//! and [`Csdb::perm`] maps results back to original ids.

use crate::csr::Csr;
use crate::{GraphError, Result};

/// A sparse matrix in compressed sparse degree-block form.
///
/// ```
/// use omega_graph::{Csdb, GraphBuilder};
///
/// // A star: one hub, three leaves -> two degree blocks.
/// let mut b = GraphBuilder::new(4);
/// for leaf in 1..4 {
///     b.add_edge(0, leaf, 1.0).unwrap();
/// }
/// let csdb = Csdb::from_csr(&b.build_csr().unwrap()).unwrap();
/// assert_eq!(csdb.deg_list(), &[3, 1]);
/// assert_eq!(csdb.deg_ind(), &[0, 1, 4]);
/// // Permuted node 0 is the hub; Deg_ptr recovers its row arithmetically.
/// assert_eq!(csdb.degree(0), 3);
/// assert_eq!(csdb.deg_ptr(2), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csdb {
    rows: u32,
    cols: u32,
    /// Distinct degrees, descending (may end with 0 if isolated nodes exist).
    deg_list: Vec<u32>,
    /// Start node (in permuted id space) of each degree block; one extra
    /// trailing entry equal to `rows`.
    deg_ind: Vec<u32>,
    /// Cumulative nnz offset at the start of each block (len = blocks + 1).
    block_cum: Vec<u64>,
    /// Permuted id → original id.
    perm: Vec<u32>,
    /// Column indices (in permuted id space), rows concatenated.
    col_list: Vec<u32>,
    /// Edge weights, parallel to `col_list`.
    nnz_list: Vec<f32>,
}

impl Csdb {
    /// Build from a CSR matrix (must be square: CSDB relabels rows and
    /// columns with one permutation).
    pub fn from_csr(csr: &Csr) -> Result<Self> {
        if csr.rows() != csr.cols() {
            return Err(GraphError::DimensionMismatch {
                left: (csr.rows(), csr.cols()),
                right: (csr.cols(), csr.rows()),
            });
        }
        let n = csr.rows();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }

        // Permutation: descending degree, ties by original id (stable).
        let mut perm: Vec<u32> = (0..n).collect();
        perm.sort_by_key(|&v| (std::cmp::Reverse(csr.degree(v)), v));
        let mut inv_perm = vec![0u32; n as usize];
        for (new_id, &old_id) in perm.iter().enumerate() {
            inv_perm[old_id as usize] = new_id as u32;
        }

        // Degree blocks over the permuted order.
        let mut deg_list = Vec::new();
        let mut deg_ind = Vec::new();
        let mut block_cum = vec![0u64];
        let mut col_list = Vec::with_capacity(csr.nnz());
        let mut nnz_list = Vec::with_capacity(csr.nnz());

        let mut current_deg: Option<u32> = None;
        for (new_id, &old_id) in perm.iter().enumerate() {
            let deg = csr.degree(old_id) as u32;
            if current_deg != Some(deg) {
                deg_list.push(deg);
                deg_ind.push(new_id as u32);
                current_deg = Some(deg);
            }
            let (cols, vals) = csr.row(old_id);
            // Re-label columns into the permuted space and keep each row
            // sorted for deterministic kernels.
            let mut row: Vec<(u32, f32)> = cols
                .iter()
                .zip(vals)
                .map(|(&c, &v)| (inv_perm[c as usize], v))
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in row {
                col_list.push(c);
                nnz_list.push(v);
            }
        }
        deg_ind.push(n);
        for b in 0..deg_list.len() {
            let nodes = (deg_ind[b + 1] - deg_ind[b]) as u64;
            let prev = block_cum[b];
            block_cum.push(prev + nodes * deg_list[b] as u64);
        }

        Ok(Csdb {
            rows: n,
            cols: n,
            deg_list,
            deg_ind,
            block_cum,
            perm,
            col_list,
            nnz_list,
        })
    }

    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_list.len()
    }

    /// Number of degree blocks (= number of distinct degrees).
    #[inline]
    pub fn blocks(&self) -> usize {
        self.deg_list.len()
    }

    /// The distinct-degree list (`Deg_list` in the paper).
    #[inline]
    pub fn deg_list(&self) -> &[u32] {
        &self.deg_list
    }

    /// Block start offsets (`Deg_ind`), with a trailing `rows` sentinel.
    #[inline]
    pub fn deg_ind(&self) -> &[u32] {
        &self.deg_ind
    }

    /// Permuted id → original id.
    #[inline]
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Block index containing permuted node `v` (binary search over
    /// `Deg_ind`).
    #[inline]
    fn block_of(&self, v: u32) -> usize {
        debug_assert!(v < self.rows);
        match self.deg_ind.binary_search(&v) {
            Ok(b) if b == self.deg_ind.len() - 1 => b - 1,
            Ok(b) => b,
            Err(ins) => ins - 1,
        }
    }

    /// Degree of permuted node `v` via its block (`Deg_list` lookup).
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.deg_list[self.block_of(v)]
    }

    /// Start offset of row `v` in `col_list`/`nnz_list` — `Deg_ptr(v)`,
    /// Eq. 1, computed arithmetically from the block indices.
    #[inline]
    pub fn deg_ptr(&self, v: u32) -> u64 {
        let b = self.block_of(v);
        self.block_cum[b] + (v - self.deg_ind[b]) as u64 * self.deg_list[b] as u64
    }

    /// Neighbours and weights of permuted node `v`.
    #[inline]
    pub fn row(&self, v: u32) -> (&[u32], &[f32]) {
        let start = self.deg_ptr(v) as usize;
        let end = start + self.degree(v) as usize;
        (&self.col_list[start..end], &self.nnz_list[start..end])
    }

    /// In-degree of each permuted node (entries per column), the metric the
    /// degree-based WoFP prefetcher ranks by.
    pub fn in_degrees(&self) -> Vec<u64> {
        let mut deg = vec![0u64; self.cols as usize];
        for &c in &self.col_list {
            deg[c as usize] += 1;
        }
        deg
    }

    /// Convert back to CSR (still in permuted id space).
    pub fn to_csr(&self) -> Csr {
        let mut row_ptr = Vec::with_capacity(self.rows as usize + 1);
        row_ptr.push(0u64);
        for v in 0..self.rows {
            row_ptr.push(self.deg_ptr(v) + self.degree(v) as u64);
        }
        Csr::from_parts(
            self.rows,
            self.cols,
            row_ptr,
            self.col_list.clone(),
            self.nnz_list.clone(),
        )
        .expect("CSDB invariants imply valid CSR")
    }

    /// Convert back to CSR in the *original* id space.
    pub fn to_csr_original(&self) -> Csr {
        let triples = (0..self.rows)
            .flat_map(|v| {
                let (cols, vals) = self.row(v);
                let orig_row = self.perm[v as usize];
                cols.iter()
                    .zip(vals)
                    .map(move |(&c, &w)| (orig_row, self.perm[c as usize], w))
                    .collect::<Vec<_>>()
            })
            .collect();
        Csr::from_triples(self.rows, self.cols, triples).expect("valid triples")
    }

    /// Transpose, via a CSR round trip. The transposed matrix may order its
    /// degrees differently, so its fresh relabelling is composed with this
    /// permutation; for the symmetric adjacency of an undirected graph the
    /// result is this matrix.
    pub fn transpose(&self) -> Result<Csdb> {
        let fresh = Csdb::from_csr(&self.to_csr().transpose())?;
        // `fresh.perm` maps fresh ids to this matrix's permuted ids.
        let perm = fresh
            .perm
            .iter()
            .map(|&mid| self.perm[mid as usize])
            .collect();
        Ok(Csdb { perm, ..fresh })
    }

    /// Reference SpMV in permuted space: `y = A'·x`.
    pub fn spmv(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.cols as usize {
            return Err(GraphError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (x.len() as u32, 1),
            });
        }
        let mut y = vec![0f32; self.rows as usize];
        for v in 0..self.rows {
            let (cols, vals) = self.row(v);
            y[v as usize] = omega_linalg::kernels::sparse_dot(cols, vals, x);
        }
        Ok(y)
    }

    /// Bytes of the compressed index (`Deg_list` + `Deg_ind` + block
    /// cumulative offsets) — `O(|Degree|)`, the quantity Fig. 19(a)'s CSR
    /// comparison is about.
    pub fn index_bytes(&self) -> u64 {
        ((self.deg_list.len() + self.deg_ind.len()) * std::mem::size_of::<u32>()
            + self.block_cum.len() * std::mem::size_of::<u64>()) as u64
    }

    /// Total payload bytes of the structure (excluding the permutation,
    /// which is preprocessing metadata shared by every format).
    pub fn size_bytes(&self) -> u64 {
        self.index_bytes()
            + (self.col_list.len() * std::mem::size_of::<u32>()
                + self.nnz_list.len() * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// The paper's Figure 5 example graph (|V|=7, |E|=11).
    fn fig5() -> Csr {
        let mut b = GraphBuilder::new(7);
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
    fn fig5_deg_list_and_ind_match_paper() {
        let csdb = Csdb::from_csr(&fig5()).unwrap();
        // Paper: Deg_list = [4, 3, 2] (their trailing 0 is a sentinel for an
        // empty block; we only store existing degrees) and block starts
        // [0, 3, 5] with the graph's 22 directed nnz.
        assert_eq!(csdb.deg_list(), &[4, 3, 2]);
        assert_eq!(csdb.deg_ind(), &[0, 3, 5, 7]);
        assert_eq!(csdb.nnz(), 22);
        assert_eq!(csdb.blocks(), 3);
    }

    #[test]
    fn deg_ptr_matches_equation_1() {
        let csdb = Csdb::from_csr(&fig5()).unwrap();
        // Deg_ptr is the cumulative degree of all earlier nodes.
        let mut expect = 0u64;
        for v in 0..csdb.rows() {
            assert_eq!(csdb.deg_ptr(v), expect, "node {v}");
            expect += csdb.degree(v) as u64;
        }
        assert_eq!(expect, csdb.nnz() as u64);
    }

    #[test]
    fn rows_roundtrip_to_original_graph() {
        let csr = fig5();
        let csdb = Csdb::from_csr(&csr).unwrap();
        let back = csdb.to_csr_original();
        assert_eq!(back, csr);
    }

    #[test]
    fn permuted_csr_is_consistent() {
        let csr = fig5();
        let csdb = Csdb::from_csr(&csr).unwrap();
        let pcsr = csdb.to_csr();
        // Row v of the permuted CSR equals CSDB's row v.
        for v in 0..csdb.rows() {
            assert_eq!(pcsr.row(v), csdb.row(v));
        }
        // Degrees descend across the permuted ids.
        let degs: Vec<u64> = (0..pcsr.rows()).map(|r| pcsr.degree(r)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn index_is_smaller_than_csr_for_skewed_graphs() {
        // A star graph: 1 hub + 1000 leaves -> 2 distinct degrees.
        let mut b = GraphBuilder::new(1001);
        for leaf in 1..=1000 {
            b.add_edge(0, leaf, 1.0).unwrap();
        }
        let csr = b.build_csr().unwrap();
        let csdb = Csdb::from_csr(&csr).unwrap();
        assert_eq!(csdb.blocks(), 2);
        assert!(csdb.index_bytes() * 50 < csr.index_bytes());
    }

    #[test]
    fn spmv_agrees_with_csr_after_permutation() {
        let csr = fig5();
        let csdb = Csdb::from_csr(&csr).unwrap();
        let x_orig: Vec<f32> = (0..7).map(|i| i as f32 + 1.0).collect();
        // Permute x into the CSDB space, multiply, un-permute the result.
        let x_perm: Vec<f32> = csdb.perm().iter().map(|&o| x_orig[o as usize]).collect();
        let y_perm = csdb.spmv(&x_perm).unwrap();
        let mut y = vec![0f32; 7];
        for (new_id, &old_id) in csdb.perm().iter().enumerate() {
            y[old_id as usize] = y_perm[new_id];
        }
        assert_eq!(y, csr.spmv(&x_orig).unwrap());
    }

    #[test]
    fn transpose_of_symmetric_graph_is_same_matrix() {
        let a = Csdb::from_csr(&fig5()).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.to_csr_original(), a.to_csr_original());
    }

    #[test]
    fn isolated_nodes_form_zero_block() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        let csdb = Csdb::from_csr(&b.build_csr().unwrap()).unwrap();
        assert_eq!(csdb.deg_list(), &[1, 0]);
        assert_eq!(csdb.degree(3), 0);
        assert_eq!(csdb.row(3).0.len(), 0);
        assert_eq!(csdb.deg_ptr(3), 2);
    }

    #[test]
    fn block_iter_covers_everything() {
        let csdb = Csdb::from_csr(&fig5()).unwrap();
        assert_eq!(csdb.blocks(), 3);
        let nodes = |b: usize| csdb.deg_ind[b + 1] - csdb.deg_ind[b];
        let nnzs = |b: usize| csdb.block_cum[b + 1] - csdb.block_cum[b];
        assert_eq!(nodes(0), 3);
        assert_eq!(nnzs(0), 12);
        let total_nodes: u32 = (0..csdb.blocks()).map(nodes).sum();
        let total_nnz: u64 = (0..csdb.blocks()).map(nnzs).sum();
        assert_eq!(total_nodes, 7);
        assert_eq!(total_nnz, 22);
    }

    #[test]
    fn in_degrees_sum_to_nnz() {
        let csdb = Csdb::from_csr(&fig5()).unwrap();
        let ind = csdb.in_degrees();
        assert_eq!(ind.iter().sum::<u64>(), csdb.nnz() as u64);
    }

    #[test]
    fn rejects_non_square_and_empty() {
        let rect = Csr::from_triples(2, 3, vec![(0, 2, 1.0)]).unwrap();
        assert!(Csdb::from_csr(&rect).is_err());
    }
}
