//! Classic graph algorithms used for dataset validation and analysis:
//! connected components and the clustering coefficient — the structural
//! checks that confirm the synthetic twins behave like the social networks
//! they stand in for.

use crate::csr::Csr;
use std::collections::VecDeque;

/// Connected-component labels (`0..k`) per node, plus the component count.
fn connected_components(g: &Csr) -> (Vec<u32>, u32) {
    let n = g.rows() as usize;
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if label[start] != u32::MAX {
            continue;
        }
        label[start] = next;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            for &w in g.row(v).0 {
                if label[w as usize] == u32::MAX {
                    label[w as usize] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    (label, next)
}

/// Size of the largest connected component.
pub fn largest_component_size(g: &Csr) -> usize {
    let (labels, k) = connected_components(g);
    let mut sizes = vec![0usize; k as usize];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

/// Local clustering coefficient of one node: closed wedges / wedges.
fn local_clustering(g: &Csr, v: u32) -> f64 {
    let (neigh, _) = g.row(v);
    let k = neigh.len();
    if k < 2 {
        return 0.0;
    }
    let mut closed = 0u64;
    for (i, &a) in neigh.iter().enumerate() {
        for &b in &neigh[i + 1..] {
            if g.row(a).0.binary_search(&b).is_ok() {
                closed += 1;
            }
        }
    }
    closed as f64 / (k * (k - 1) / 2) as f64
}

/// Average local clustering coefficient over a deterministic node sample
/// (exact when `sample >= |V|`).
pub fn avg_clustering(g: &Csr, sample: usize) -> f64 {
    let n = g.rows() as usize;
    if n == 0 {
        return 0.0;
    }
    let step = (n / sample.max(1)).max(1);
    let nodes: Vec<u32> = (0..n).step_by(step).map(|v| v as u32).collect();
    let total: f64 = nodes.iter().map(|&v| local_clustering(g, v)).sum();
    total / nodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::rmat::RmatConfig;

    /// Degree assortativity: the Pearson correlation of endpoint degrees over
    /// edges. Social networks are typically weakly assortative-to-neutral;
    /// pure R-MAT is disassortative.
    fn degree_assortativity(g: &Csr) -> f64 {
        let mut sx = 0f64;
        let mut sy = 0f64;
        let mut sxx = 0f64;
        let mut syy = 0f64;
        let mut sxy = 0f64;
        let mut m = 0f64;
        for u in 0..g.rows() {
            let du = g.degree(u) as f64;
            for &v in g.row(u).0 {
                let dv = g.degree(v) as f64;
                sx += du;
                sy += dv;
                sxx += du * du;
                syy += dv * dv;
                sxy += du * dv;
                m += 1.0;
            }
        }
        if m == 0.0 {
            return 0.0;
        }
        let cov = sxy / m - (sx / m) * (sy / m);
        let vx = sxx / m - (sx / m).powi(2);
        let vy = syy / m - (sy / m).powi(2);
        let denom = (vx * vy).sqrt();
        if denom <= 0.0 {
            0.0
        } else {
            cov / denom
        }
    }

    fn two_triangles() -> Csr {
        let mut b = GraphBuilder::new(7); // node 6 isolated
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(u, v, 1.0).unwrap();
        }
        b.build_csr().unwrap()
    }

    #[test]
    fn components_found() {
        let g = two_triangles();
        let (labels, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[6], labels[0]);
        assert_eq!(largest_component_size(&g), 3);
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let g = two_triangles();
        assert_eq!(local_clustering(&g, 0), 1.0);
        assert_eq!(local_clustering(&g, 6), 0.0); // isolated
                                                  // Star centre has no closed wedges.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(0, 2, 1.0).unwrap();
        b.add_edge(0, 3, 1.0).unwrap();
        let star = b.build_csr().unwrap();
        assert_eq!(local_clustering(&star, 0), 0.0);
        let avg = avg_clustering(&g, 100);
        assert!((avg - 6.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn rmat_twin_is_connected_enough_and_disassortative() {
        let g = RmatConfig::social(1 << 11, 30_000, 3)
            .generate_csr()
            .unwrap();
        let giant = largest_component_size(&g);
        assert!(
            giant as f64 > g.rows() as f64 * 0.5,
            "giant component {giant} of {}",
            g.rows()
        );
        // Skewed R-MAT graphs are disassortative (hubs attach to leaves).
        let r = degree_assortativity(&g);
        assert!(r < 0.05, "assortativity {r} should be <= ~0");
    }
    #[test]
    fn assortativity_of_regular_graph_is_degenerate_zero() {
        // A cycle: all degrees equal -> zero variance -> defined as 0.
        let mut b = GraphBuilder::new(6);
        for v in 0..6 {
            b.add_edge(v, (v + 1) % 6, 1.0).unwrap();
        }
        let g = b.build_csr().unwrap();
        assert_eq!(degree_assortativity(&g), 0.0);
    }
}
