//! NUMA-aware data placement (NaDP, paper §III-D).
//!
//! From the Fig. 9 measurements the paper distils one discipline for a
//! DRAM-PM NUMA machine: **global sequential read, local write** — remote
//! *sequential* reads are nearly free (peak ≈ local), while remote writes
//! are catastrophic (3.2–5× slower). NaDP therefore:
//!
//! 1. partitions the sparse matrix by rows and the dense matrix by columns
//!    across sockets (balanced by nnz / evenly);
//! 2. binds each thread group to the socket holding its dense columns, so
//!    dense reads are local and sparse reads — local or remote — stay
//!    sequential;
//! 3. keeps intermediates and result blocks on the writing socket, so all
//!    writes are local and sequential.
//!
//! The executor consumes a [`NadpPlan`]; `OMeGa-w/o-NaDP` replaces it with
//! the OS `Interleave` policy (everything page-interleaved, ~50 % remote
//! traffic on two sockets).

use omega_graph::Csdb;
use omega_hetmem::Topology;
use std::ops::Range;

/// The placement plan for one SpMM: per-socket partitions of both operands
/// and the thread split.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NadpPlan {
    /// Row ranges of the sparse matrix homed on each node (nnz-balanced so
    /// remote sequential traffic splits evenly).
    pub sparse_rows: Vec<Range<u32>>,
    /// Column ranges of the dense operand (and result) homed on each node.
    pub dense_cols: Vec<Range<usize>>,
    /// Simulated-thread ids bound to each node.
    pub threads: Vec<Vec<usize>>,
}

impl NadpPlan {
    /// Build the plan: sparse rows split at nnz midpoints, dense columns
    /// split evenly, threads dealt round-robin across sockets.
    pub(crate) fn build(
        csdb: &Csdb,
        dense_cols: usize,
        topo: &Topology,
        threads: usize,
    ) -> NadpPlan {
        let nodes = topo.nodes();
        let total_nnz = csdb.nnz() as u64;

        // Sparse row partition by cumulative nnz.
        let mut sparse_rows = Vec::with_capacity(nodes);
        let mut row = 0u32;
        let mut consumed = 0u64;
        for k in 0..nodes {
            let start = row;
            if k == nodes - 1 {
                row = csdb.rows();
            } else {
                let target = total_nnz * (k as u64 + 1) / nodes as u64;
                while row < csdb.rows() && consumed < target {
                    consumed += csdb.degree(row) as u64;
                    row += 1;
                }
            }
            sparse_rows.push(start..row);
        }

        // Thread split: round-robin so both sockets stay busy at any count.
        let mut thread_groups = vec![Vec::new(); nodes];
        for t in 0..threads {
            thread_groups[topo.node_of_thread_cyclic(t)].push(t);
        }

        // Dense column partition, even split — but only across sockets that
        // actually received a thread. A socket with no thread group cannot
        // execute its column block, so handing it columns would silently
        // drop them from the result (visible at thread counts below the
        // socket count); such sockets keep their sparse-row homes (remote
        // sequential reads are near-free, per the NaDP discipline) and get
        // an empty column range.
        let active: Vec<usize> = (0..nodes)
            .filter(|&k| !thread_groups[k].is_empty())
            .collect();
        let mut dense_parts = vec![0..0; nodes];
        if !active.is_empty() {
            let base = dense_cols / active.len();
            let extra = dense_cols % active.len();
            let mut col = 0usize;
            for (i, &k) in active.iter().enumerate() {
                let width = base + usize::from(i < extra);
                dense_parts[k] = col..col + width;
                col += width;
            }
        }

        NadpPlan {
            sparse_rows,
            dense_cols: dense_parts,
            threads: thread_groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::RmatConfig;

    fn setup() -> (Csdb, Topology) {
        let csr = RmatConfig::social(1 << 10, 8_000, 9)
            .generate_csr()
            .unwrap();
        (
            Csdb::from_csr(&csr).unwrap(),
            Topology::paper_machine_scaled(1 << 20),
        )
    }

    #[test]
    fn partitions_cover_everything() {
        let (g, topo) = setup();
        let plan = NadpPlan::build(&g, 32, &topo, 8);
        assert_eq!(plan.sparse_rows.len(), 2);
        // Rows: contiguous, disjoint, complete.
        assert_eq!(plan.sparse_rows[0].start, 0);
        assert_eq!(plan.sparse_rows[0].end, plan.sparse_rows[1].start);
        assert_eq!(plan.sparse_rows[1].end, g.rows());
        // Columns: even split.
        assert_eq!(plan.dense_cols[0], 0..16);
        assert_eq!(plan.dense_cols[1], 16..32);
        // Threads: round-robin.
        assert_eq!(plan.threads[0], vec![0, 2, 4, 6]);
        assert_eq!(plan.threads[1], vec![1, 3, 5, 7]);
    }

    #[test]
    fn sparse_split_balances_nnz() {
        let (g, topo) = setup();
        let plan = NadpPlan::build(&g, 16, &topo, 4);
        let nnz_of = |r: &Range<u32>| -> u64 { (r.start..r.end).map(|v| g.degree(v) as u64).sum() };
        let a = nnz_of(&plan.sparse_rows[0]) as f64;
        let b = nnz_of(&plan.sparse_rows[1]) as f64;
        let ratio = a.max(b) / a.min(b).max(1.0);
        assert!(ratio < 1.2, "nnz split imbalanced: {a} vs {b}");
    }

    #[test]
    fn odd_column_counts_split_without_loss() {
        let (g, topo) = setup();
        let plan = NadpPlan::build(&g, 7, &topo, 3);
        let total: usize = plan.dense_cols.iter().map(|r| r.len()).sum();
        assert_eq!(total, 7);
        assert_eq!(plan.dense_cols[0].len(), 4);
        assert_eq!(plan.dense_cols[1].len(), 3);
    }

    #[test]
    fn thread_starved_sockets_get_no_columns() {
        // Fewer threads than sockets: every dense column must still land on
        // a socket that can execute it, or the executor would silently skip
        // the block and leave zeros in the result.
        let (g, topo) = setup();
        let plan = NadpPlan::build(&g, 16, &topo, 1);
        assert_eq!(plan.threads[0], vec![0]);
        assert!(plan.threads[1].is_empty());
        assert_eq!(plan.dense_cols[0], 0..16);
        assert!(plan.dense_cols[1].is_empty());
        // Sparse rows still cover the matrix (placement only).
        assert_eq!(plan.sparse_rows[1].end, g.rows());
    }

    #[test]
    fn single_node_topology_degenerates_cleanly() {
        let (g, _) = setup();
        let topo = Topology::single_node(8, 1 << 20, 1 << 23).unwrap();
        let plan = NadpPlan::build(&g, 8, &topo, 4);
        assert_eq!(plan.sparse_rows.len(), 1);
        assert_eq!(plan.sparse_rows[0], 0..g.rows());
        assert_eq!(plan.dense_cols[0], 0..8);
        assert_eq!(plan.threads[0], vec![0, 1, 2, 3]);
    }
}
