//! The three embedding families of the paper's Fig. 2, side by side:
//! matrix factorisation (ProNE via OMeGa), random walks (DeepWalk and
//! node2vec via `omega-walk`), and edge sampling (LINE) — evaluated on the
//! same community graph with link-prediction AUC and classification F1.
//!
//! Run: `cargo run -p omega --release --example embedding_families`

use omega::{Omega, OmegaConfig};
use omega_embed::eval::{link_prediction_auc, node_classification_micro_f1};
use omega_embed::Embedding;
use omega_graph::SbmConfig;
use omega_walk::{
    pairs_from_walks, LineConfig, LineModel, SgnsConfig, SgnsModel, WalkConfig, Walker,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sbm = SbmConfig {
        nodes: 800,
        communities: 4,
        deg_in: 12.0,
        deg_out: 3.0,
        seed: 77,
    };
    let graph = sbm.generate_csr()?;
    let labels = sbm.labels();
    let dim = 24;
    println!(
        "SBM graph: |V|={} |E|={} communities=4, embedding dim {dim}\n",
        graph.rows(),
        graph.nnz() / 2
    );

    let mut results: Vec<(&str, Embedding)> = Vec::new();

    // Matrix factorisation: ProNE on the OMeGa engine.
    let omega = Omega::new(OmegaConfig::default().with_dim(dim).with_threads(8))?;
    let run = omega.embed(&graph)?;
    println!("[MF]        {}", run.summary());
    results.push(("ProNE/OMeGa", run.embedding));

    // Random walks: DeepWalk (uniform) and node2vec (biased, BFS-ish).
    for (name, p, q) in [("DeepWalk", 1.0f32, 1.0f32), ("node2vec", 1.0, 0.5)] {
        let walker = Walker::new(
            &graph,
            WalkConfig {
                walks_per_node: 6,
                walk_length: 16,
                p,
                q,
                seed: 5,
            },
        );
        let walks = walker.generate_all(1);
        let pairs = pairs_from_walks(&walks, 4);
        let unigram = omega_walk::unigram_counts(&walks, graph.rows());
        let mut model = SgnsModel::new(
            graph.rows(),
            SgnsConfig {
                dim,
                epochs: 3,
                ..SgnsConfig::default()
            },
        );
        let loss = model.train(&pairs, &unigram);
        println!(
            "[walk]      {name}: {} walks, {} pairs, final loss {loss:.3}",
            walks.len(),
            pairs.len()
        );
        results.push((
            if p == 1.0 && q == 1.0 {
                "DeepWalk"
            } else {
                "node2vec"
            },
            Embedding::from_matrix(&model.embedding()),
        ));
    }

    // Edge sampling: LINE, first-order proximity.
    let mut line = LineModel::new(
        graph.rows(),
        LineConfig {
            dim,
            order: omega_walk::LineOrder::First,
            samples: 600_000,
            ..LineConfig::default()
        },
    );
    let loss = line.train(&graph);
    println!("[edge]      LINE(1st): 600k edge samples, final loss {loss:.3}");
    results.push(("LINE", Embedding::from_matrix(&line.embedding())));

    println!("\n{:<12} {:>10} {:>10}", "model", "LP AUC", "NC F1");
    for (name, emb) in &results {
        let auc = link_prediction_auc(emb, &graph, 400, 11);
        let f1 = node_classification_micro_f1(emb, &labels, 0.5, 12);
        println!("{name:<12} {auc:>10.3} {f1:>10.3}");
    }
    println!("\n(chance levels: AUC 0.5, F1 0.25)");
    Ok(())
}
