//! Property test of batched top-k: a batch's top-k requests are scored
//! together in one pass over the table, so every way that pass could mix
//! queries up is on trial — a selector shared between two requests, a
//! request's own `k` or probe count applied to its neighbour, a list read
//! by some queries of the batch and not others, a task boundary falling
//! inside a tie group.
//!
//! The contract: each request gets exactly what it would get alone.
//! Exact servers, and IVF servers probing every list, answer
//! `Embedding::top_k` bit for bit; an IVF request with a smaller probe
//! count answers what `top_k_nprobe` returns for that query on its own.
//! Gets in between come back as the table's rows, in arrival order.

use omega_embed::{Embedding, Metric};
use omega_hetmem::{MemSystem, Topology};
use omega_par::{with_dispatch_policy, DispatchPolicy};
use omega_serve::{EmbedServer, IndexMode, Request, RequestKind, Response, ServeConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Tie-rich embeddings: entries drawn from a tiny value alphabet, so equal
/// scores are common and a skewed k-means leaves lists empty.
fn tie_rich_embedding(nodes: u32, d: usize, seed: u64) -> Embedding {
    let alphabet = [-1.0f32, 0.0, 0.5, 1.0];
    let data: Vec<f32> = (0..nodes as u64 * d as u64)
        .map(|i| alphabet[((i * 2_654_435_761 + seed * 97) % 4) as usize])
        .collect();
    Embedding::from_row_major(nodes, d, data)
}

/// The batch a draw describes: request `i` reads node `picks[i].0` (drawn
/// from a narrow range, so query nodes repeat) and is a Get or a top-k
/// with its own `k` and its own probe count.
fn batch(picks: &[(u32, u8, u8)], nodes: u32, probes: &[Option<usize>]) -> Vec<Request> {
    picks
        .iter()
        .map(|&(pick, k_kind, probe_kind)| {
            let n = nodes as usize;
            let kind = match k_kind % 6 {
                0 | 1 => RequestKind::Get,
                2 => RequestKind::TopK { k: 0, nprobe: None },
                3 => RequestKind::TopK {
                    k: (n / 3).max(1),
                    nprobe: probes[probe_kind as usize % probes.len()],
                },
                4 => RequestKind::TopK {
                    k: 7,
                    nprobe: probes[probe_kind as usize % probes.len()],
                },
                _ => RequestKind::TopK {
                    k: n + 13,
                    nprobe: probes[probe_kind as usize % probes.len()],
                },
            };
            Request {
                node: pick % nodes.min(9),
                kind,
            }
        })
        .collect()
}

fn same_bits(got: &[(u32, f32)], want: &[(u32, f32)]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.0, w.0, "rank {} picked node {} not {}", i, g.0, w.0);
        prop_assert_eq!(g.1.to_bits(), w.1.to_bits(), "rank {} score bits", i);
    }
    Ok(())
}

/// One draw: every request of `picks`, batched at threads 1, 2 and 8 (the
/// pool forced on, so 2 and 8 really fan out whatever the host), against
/// what it gets alone.
fn check_batch(
    emb: &Embedding,
    rows_per_shard: usize,
    nlist: usize,
    picks: &[(u32, u8, u8)],
) -> Result<(), TestCaseError> {
    let nodes = emb.nodes();
    let sys = MemSystem::new(Topology::paper_machine_scaled(16 << 20));
    // nlist 0 draws an exact server.
    let index = match nlist {
        0 => IndexMode::Exact,
        nlist => IndexMode::Ivf { nlist, nprobe: 0 },
    };
    let cfg = ServeConfig::new(4 << 10)
        .rows_per_shard(rows_per_shard)
        .index(index);
    // What each query gets alone, from a server that never batches.
    let mut alone = EmbedServer::new(&sys, emb, cfg).unwrap();
    // The probe counts requests draw from: the index's own, every list
    // (the oracle), the plane's degraded half, a single list.
    let probes = match alone.ivf() {
        None => vec![None],
        Some(ivf) => vec![
            None,
            Some(ivf.nlist()),
            Some((ivf.nprobe() / 2).max(1)),
            Some(1),
        ],
    };
    let full_probe = alone.ivf().map(|ivf| ivf.nlist());
    let requests = batch(picks, nodes, &probes);
    for threads in [1usize, 2, 8] {
        let mut srv = EmbedServer::new(&sys, emb, cfg.threads(threads)).unwrap();
        let result = with_dispatch_policy(DispatchPolicy::always_parallel(), || {
            srv.serve_batch(&requests)
        });
        prop_assert_eq!(result.responses.len(), requests.len());
        for (req, resp) in requests.iter().zip(&result.responses) {
            let query = emb.vector(req.node);
            match (req.kind, resp) {
                (RequestKind::Get, Response::Vector(row)) => {
                    prop_assert_eq!(row.as_slice(), query);
                }
                (RequestKind::TopK { k, nprobe }, Response::Neighbors(found)) => {
                    if full_probe.is_none() || nprobe == full_probe {
                        same_bits(found, &emb.top_k(query, k, Metric::Dot))?;
                    }
                    same_bits(found, &alone.top_k_nprobe(query, k, nprobe))?;
                }
                (kind, resp) => prop_assert!(false, "{:?} answered {:?}", kind, resp),
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tables run past the scoring pass's task size so batches split into
    /// several tasks.
    #[test]
    fn every_request_of_a_batch_gets_its_own_answer(
        nodes in 16u32..5_000,
        d in 1usize..9,
        rows_per_shard in 1usize..96,
        nlist in 0usize..28,
        seed in 0u64..500,
        picks in proptest::collection::vec((any::<u32>(), any::<u8>(), any::<u8>()), 1..14),
    ) {
        check_batch(&tie_rich_embedding(nodes, d, seed), rows_per_shard, nlist, &picks)?;
    }
}

/// A zero-width table is one more input: every row scores the empty dot
/// product, so each top-k answers ids `0..k` at 0.0 as `Embedding::top_k`
/// does — alone and in a batch mixed with Gets and every `k` kind, asked
/// for exact or for an index there is nothing to build from.
#[test]
fn a_zero_width_table_answers_like_the_oracle() {
    let emb = Embedding::from_row_major(10, 0, vec![]);
    let picks: Vec<(u32, u8, u8)> = (0..12).map(|i| (i * 7, i as u8, 0)).collect();
    for nlist in [0, 4] {
        check_batch(&emb, 4, nlist, &picks).unwrap();
    }
    let sys = MemSystem::new(Topology::paper_machine_scaled(16 << 20));
    let mut srv =
        EmbedServer::new(&sys, &emb, ServeConfig::new(4 << 10).rows_per_shard(4)).unwrap();
    assert_eq!(srv.top_k(&[], 3), vec![(0, 0.0), (1, 0.0), (2, 0.0)]);
}
