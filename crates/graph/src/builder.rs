//! Undirected graph construction from raw edges.

use crate::csr::Csr;
use crate::edgelist::EdgeList;
use crate::{GraphError, Result};

/// Builds a clean, symmetric adjacency structure from raw edges:
/// symmetrises (each undirected edge stored in both directions), removes
/// self-loops, deduplicates parallel edges (summing their weights), and
/// sorts each adjacency list.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nodes: u32,
    edges: Vec<(u32, u32, f32)>,
}

impl GraphBuilder {
    /// Start a builder for a graph with `nodes` vertices.
    pub fn new(nodes: u32) -> Self {
        GraphBuilder {
            nodes,
            edges: Vec::new(),
        }
    }

    /// Infer the node count from an edge list.
    pub fn from_edge_list(list: &EdgeList) -> Self {
        let mut b = GraphBuilder::new(list.max_node_plus_one());
        for (s, d, w) in list.iter() {
            b.edges.push((s, d, w));
        }
        b
    }

    /// Add one undirected edge.
    pub fn add_edge(&mut self, u: u32, v: u32, w: f32) -> Result<()> {
        if u >= self.nodes {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                nodes: self.nodes,
            });
        }
        if v >= self.nodes {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                nodes: self.nodes,
            });
        }
        self.edges.push((u, v, w));
        Ok(())
    }

    /// Build the symmetric CSR adjacency matrix.
    pub fn build_csr(self) -> Result<Csr> {
        let n = self.nodes as usize;
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }

        // Symmetrise: store (u,v) and (v,u); drop self-loops.
        let mut directed: Vec<(u32, u32, f32)> = Vec::with_capacity(self.edges.len() * 2);
        for (u, v, w) in self.edges {
            if u != v {
                directed.push((u, v, w));
                directed.push((v, u, w));
            }
        }

        // Sort by (row, col), then merge duplicates by summing weights.
        directed.sort_unstable_by_key(|a| (a.0, a.1));
        let mut dedup: Vec<(u32, u32, f32)> = Vec::with_capacity(directed.len());
        for (u, v, w) in directed {
            match dedup.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => dedup.push((u, v, w)),
            }
        }

        // Count rows and fill.
        let mut row_ptr = vec![0u64; n + 1];
        for &(u, _, _) in &dedup {
            row_ptr[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = dedup.len();
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        let mut cursor = row_ptr.clone();
        for (u, v, w) in dedup {
            let at = cursor[u as usize] as usize;
            col_idx[at] = v;
            values[at] = w;
            cursor[u as usize] += 1;
        }

        Csr::from_parts(self.nodes, self.nodes, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Csr {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 0, 1.0).unwrap();
        b.build_csr().unwrap()
    }

    #[test]
    fn symmetrises_and_sorts() {
        let g = triangle();
        assert_eq!(g.nnz(), 6);
        assert_eq!(g.row(0).0, &[1, 2]);
        assert_eq!(g.row(1).0, &[0, 2]);
        assert_eq!(g.row(2).0, &[0, 1]);
        assert!(g.is_symmetric());
    }

    #[test]
    fn drops_self_loops_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 5.0).unwrap();
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build_csr().unwrap();
        assert_eq!(g.nnz(), 2);
        assert_eq!(g.row(0).0, &[1]);
    }

    #[test]
    fn duplicate_edges_sum_weights() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 0, 2.0).unwrap(); // same undirected edge
        let g = b.build_csr().unwrap();
        assert_eq!(g.nnz(), 2);
        assert_eq!(g.row(0).1, &[3.0]);
        assert_eq!(g.row(1).1, &[3.0]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 2, 1.0),
            Err(GraphError::NodeOutOfRange { node: 2, nodes: 2 })
        ));
    }

    #[test]
    fn isolated_nodes_have_empty_rows() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build_csr().unwrap();
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.row(3).0.len(), 0);
    }

    #[test]
    fn empty_graph_rejected() {
        assert!(matches!(
            GraphBuilder::new(0).build_csr(),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn from_edge_list_infers_nodes() {
        let list = EdgeList::parse("0 5\n5 3\n").unwrap();
        let g = GraphBuilder::from_edge_list(&list).build_csr().unwrap();
        assert_eq!(g.rows(), 6);
        assert_eq!(g.nnz(), 4);
    }
}
