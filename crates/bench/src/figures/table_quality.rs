//! Embedding-quality table — the §IV-B claim that OMeGa "maintains the
//! effectiveness of graph representation of ProNE": link-prediction AUC on
//! every dataset twin, plus node-classification micro-F1 on labelled SBM
//! graphs of matching sizes, against a random-embedding floor.

use crate::{machine, omega_config, print_table, twin};
use omega::Omega;
use omega_embed::eval::{link_prediction_auc, node_classification_micro_f1};
use omega_embed::Embedding;
use omega_graph::{Dataset, SbmConfig};
use omega_linalg::gaussian_matrix;
use serde::Value;

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let base = omega_config(&machine(scale)).with_dim(32);

    // Link prediction on the six twins.
    let mut rows = Vec::new();
    for &d in &[Dataset::Pk, Dataset::Lj, Dataset::Or, Dataset::Tw] {
        let g = twin(d, scale);
        let run = Omega::new(base.clone()).unwrap().embed(&g).unwrap();
        let auc = link_prediction_auc(&run.embedding, &g, 500, 42);
        let random = Embedding::from_matrix(&gaussian_matrix(g.rows() as usize, 32, 1));
        let floor = link_prediction_auc(&random, &g, 500, 42);
        rows.push(vec![
            d.label().to_string(),
            format!("{auc:.3}"),
            format!("{floor:.3}"),
        ]);
    }
    print_table(
        "Embedding quality: link-prediction AUC (OMeGa vs random floor)",
        &["graph", "OMeGa", "random"],
        &rows,
    );

    // Node classification on labelled SBM graphs.
    let mut rows = Vec::new();
    for nodes in [500u32, 1_000, 2_000] {
        let sbm = SbmConfig::assortative(nodes, nodes as u64);
        let g = sbm.generate_csr().unwrap();
        let run = Omega::new(base.clone()).unwrap().embed(&g).unwrap();
        let f1 = node_classification_micro_f1(&run.embedding, &sbm.labels(), 0.5, 7);
        let random = Embedding::from_matrix(&gaussian_matrix(nodes as usize, 32, 2));
        let floor = node_classification_micro_f1(&random, &sbm.labels(), 0.5, 7);
        rows.push(vec![
            format!("SBM-{nodes}"),
            format!("{f1:.3}"),
            format!("{floor:.3}"),
            "0.250".to_string(),
        ]);
    }
    print_table(
        "Embedding quality: node-classification micro-F1",
        &["graph", "OMeGa", "random", "chance"],
        &rows,
    );
    Vec::new()
}
