//! Property-based tests of graph IO, construction and generators.

use omega_graph::{EdgeList, GraphBuilder, RmatConfig, SbmConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edge-list text round-trips arbitrary weighted edges.
    #[test]
    fn edgelist_text_roundtrip(
        edges in proptest::collection::vec((0u32..10_000, 0u32..10_000, 1u32..1_000), 0..50)
    ) {
        let list: EdgeList = edges
            .iter()
            .map(|&(u, v, w)| (u, v, w as f32 * 0.5))
            .collect();
        let back = EdgeList::parse(&list.to_text()).unwrap();
        prop_assert_eq!(back, list);
    }

    /// Built CSR matrices are always symmetric, sorted, loop-free and
    /// within the declared node bounds.
    #[test]
    fn builder_invariants(
        n in 2u32..50,
        edges in proptest::collection::vec((0u32..50, 0u32..50), 1..100)
    ) {
        let mut b = GraphBuilder::new(n);
        let mut added = false;
        for (u, v) in edges {
            if u < n && v < n && u != v {
                b.add_edge(u, v, 1.0).unwrap();
                added = true;
            }
        }
        if !added {
            b.add_edge(0, 1, 1.0).unwrap();
        }
        let g = b.build_csr().unwrap();
        prop_assert!(g.is_symmetric());
        for r in 0..g.rows() {
            let (cols, _) = g.row(r);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} unsorted/dup");
            prop_assert!(cols.iter().all(|&c| c != r), "self-loop in row {r}");
        }
    }

    /// R-MAT output respects its configuration for any valid node count.
    #[test]
    fn rmat_respects_bounds(n in 2u32..5_000, e in 1u64..5_000, seed in 0u64..1_000) {
        let list = RmatConfig::social(n, e, seed).generate_edges();
        prop_assert_eq!(list.len() as u64, e);
        for (u, v, w) in list.iter() {
            prop_assert!(u < n && v < n && u != v);
            prop_assert_eq!(w, 1.0);
        }
    }

    /// SBM labels partition the nodes and the generator never panics.
    #[test]
    fn sbm_labels_partition(n in 8u32..200, k in 1u32..8, seed in 0u64..100) {
        let cfg = SbmConfig {
            nodes: n,
            communities: k.min(n),
            deg_in: 4.0,
            deg_out: 1.0,
            seed,
        };
        let labels = cfg.labels();
        prop_assert_eq!(labels.len() as u32, n);
        prop_assert!(labels.iter().all(|&l| l < cfg.communities));
        let g = cfg.generate_csr().unwrap();
        prop_assert!(g.is_symmetric());
    }
}
