//! Link prediction — the first downstream task the paper's introduction
//! motivates (e.g. Twitter's who-to-follow).
//!
//! Hold out a fraction of a graph's edges, embed the remainder with OMeGa,
//! and rank held-out pairs against random non-edges by embedding dot
//! product; report ROC-AUC. Also compares against a DeepWalk-style
//! random-walk + SGNS pipeline built from the `omega-walk` substrate.
//!
//! Run: `cargo run -p omega --release --example link_prediction`

use omega::{Omega, OmegaConfig};
use omega_embed::eval::link_prediction_auc;
use omega_embed::{Embedding, Metric};
use omega_graph::{GraphBuilder, RmatConfig};
use omega_walk::{pairs_from_walks, SgnsConfig, SgnsModel, WalkConfig, Walker};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scale-free graph and an 85/15 train/test edge split.
    let full = RmatConfig::social(1_500, 18_000, 99).generate_csr()?;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut train = GraphBuilder::new(full.rows());
    let mut held_out: Vec<(u32, u32)> = Vec::new();
    for u in 0..full.rows() {
        for &v in full.row(u).0 {
            if u < v {
                if rng.gen::<f64>() < 0.15 {
                    held_out.push((u, v));
                } else {
                    train.add_edge(u, v, 1.0)?;
                }
            }
        }
    }
    let train = train.build_csr()?;
    println!(
        "train graph: |V|={} |E|={}; held out {} edges",
        train.rows(),
        train.nnz() / 2,
        held_out.len()
    );

    // OMeGa / ProNE embeddings of the training graph.
    let omega = Omega::new(OmegaConfig::default().with_dim(32).with_threads(8))?;
    let run = omega.embed(&train)?;
    println!("OMeGa embedding done: {}", run.summary());

    // DeepWalk baseline: walks + skip-gram negative sampling.
    let walker = Walker::new(&train, WalkConfig::deepwalk(6, 20, 3));
    let walks = walker.generate_all(1);
    let pairs = pairs_from_walks(&walks, 4);
    let unigram = omega_walk::unigram_counts(&walks, train.rows());
    let mut sgns = SgnsModel::new(
        train.rows(),
        SgnsConfig {
            dim: 32,
            epochs: 3,
            ..SgnsConfig::default()
        },
    );
    sgns.train(&pairs, &unigram);
    let deepwalk = Embedding::from_matrix(&sgns.embedding());
    println!(
        "DeepWalk baseline done: {} walks, {} skip-gram pairs",
        walks.len(),
        pairs.len()
    );

    // Score held-out edges vs random non-edges.
    let auc_of = |emb: &Embedding| -> f64 {
        let mut wins = 0.0;
        let mut total = 0.0;
        let mut rng = SmallRng::seed_from_u64(13);
        for &(u, v) in &held_out {
            let pos = emb.dot(u, v);
            // One random non-edge per held-out edge.
            loop {
                let a = rng.gen_range(0..full.rows());
                let b = rng.gen_range(0..full.rows());
                if a != b && full.row(a).0.binary_search(&b).is_err() {
                    let neg = emb.dot(a, b);
                    wins += if pos > neg {
                        1.0
                    } else if pos == neg {
                        0.5
                    } else {
                        0.0
                    };
                    total += 1.0;
                    break;
                }
            }
        }
        wins / total
    };

    let auc_omega = auc_of(&run.embedding);
    let auc_deepwalk = auc_of(&deepwalk);
    // Sanity AUC on the training edges themselves (easier).
    let auc_train = link_prediction_auc(&run.embedding, &train, 500, 3);

    println!("\nheld-out link prediction AUC:");
    println!("  OMeGa (ProNE)   {auc_omega:.3}");
    println!("  DeepWalk + SGNS {auc_deepwalk:.3}");
    println!("  (train-edge AUC for reference: {auc_train:.3})");
    assert!(auc_omega > 0.6, "OMeGa embedding should beat chance");

    // Who-to-follow: rank candidate follows for the hub (RMAT puts the
    // highest degrees on the lowest ids) by cosine, skipping nodes it
    // already links to. The hub's nearest rows are mostly its neighbours,
    // so the whole table is ranked.
    let hub = 0u32;
    let existing = train.row(hub).0;
    let emb = &run.embedding;
    let recs: Vec<(u32, f32)> = emb
        .top_k(emb.vector(hub), emb.nodes() as usize, Metric::Cosine)
        .into_iter()
        .filter(|&(v, _)| v != hub && existing.binary_search(&v).is_err())
        .take(5)
        .collect();
    println!("\nwho-to-follow for node {hub} (cosine top-k, non-neighbours):");
    for (v, score) in &recs {
        println!("  node {v:<6} score {score:.3}");
    }
    assert!(!recs.is_empty());
    Ok(())
}
