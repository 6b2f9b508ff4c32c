//! Property-based test of the embedding's word2vec text format. The
//! operator properties are the crate's unit tests (`laplacian`,
//! `chebyshev`), which reach the crate-private builders.

use omega_embed::Embedding;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Word2vec text serialisation round-trips an arbitrary embedding within
    /// the `{:.6}` fixed-point precision `Embedding::to_text` writes.
    #[test]
    fn word2vec_text_roundtrip(
        nodes in 1u32..24,
        d in 1usize..12,
        seed in 0u64..1_000,
        scale in 0.01f32..100.0,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..nodes as usize * d)
            .map(|_| (rng.gen::<f32>() - 0.5) * 2.0 * scale)
            .collect();
        let emb = Embedding::from_row_major(nodes, d, data);

        let back = Embedding::parse(&emb.to_text()).expect("own output parses");
        prop_assert_eq!(back.nodes(), emb.nodes());
        prop_assert_eq!(back.dim(), emb.dim());
        for v in 0..nodes {
            for (a, b) in back.vector(v).iter().zip(emb.vector(v)) {
                // to_text writes 6 fractional decimal digits; the absolute
                // error is bounded by half an ulp of that grid.
                prop_assert!((a - b).abs() <= 5e-7 + b.abs() * 1e-6,
                    "node {v}: {a} vs {b}");
            }
        }
    }
}
