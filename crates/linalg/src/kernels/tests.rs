//! The kernels' tests: every pinned or multi-column body against the
//! plain-Rust definition it replaces, bit for bit.

#[cfg(target_arch = "x86_64")]
use super::sparse::sparse_dot_row_avx512;
use super::sparse::{sparse_dot_row_strips, SPARSE_LANES};
use super::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn seq(n: usize, scale: f32) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.7 - 3.0) * scale).collect()
}

#[test]
fn dot_matches_reference_within_tolerance() {
    for n in [0, 1, 7, 8, 9, 31, 64, 100] {
        let a = seq(n, 0.5);
        let b = seq(n, -1.3);
        let reference: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum::<f64>();
        let got = dot(&a, &b) as f64;
        assert!(
            (got - reference).abs() <= 1e-3 * (1.0 + reference.abs()),
            "n={n}: {got} vs {reference}"
        );
    }
}

/// The definition of [`dot`], transcribed: eight lanes by element
/// position, the adder tree, the sequential tail. Every compiled body
/// is held to its bits.
fn dot_defined(a: &[f32], b: &[f32]) -> f32 {
    let main = a.len() - a.len() % DOT_LANES;
    let mut tail = 0f32;
    for i in main..a.len() {
        tail += a[i] * b[i];
    }
    reduce8(dot_lanes_portable(&a[..main], &b[..main])) + tail
}

/// [`dot_defined`] with every multiply fused into its add: what a body
/// that let FMA in would return.
fn dot_fused(a: &[f32], b: &[f32]) -> f32 {
    let main = a.len() - a.len() % DOT_LANES;
    let mut lanes = [0f32; DOT_LANES];
    for i in 0..main {
        lanes[i % DOT_LANES] = a[i].mul_add(b[i], lanes[i % DOT_LANES]);
    }
    let mut tail = 0f32;
    for i in main..a.len() {
        tail = a[i].mul_add(b[i], tail);
    }
    reduce8(lanes) + tail
}

/// What the special values planted in a [`hostile_block`] row exercise.
#[derive(Debug, Clone, Copy)]
enum RowKind {
    /// Full-mantissa finite values: products need rounding, so fused
    /// and unfused arithmetic part ways.
    Plain,
    /// Every entry `-0.0`: the lanes sum to zero and the `+ tail` of an
    /// empty tail decides the sign.
    NegZero,
    /// `+∞` and `-∞` planted: the sum is `±∞`, or NaN where they meet
    /// or where one meets a zero of the query.
    Infinite,
    /// A NaN planted.
    Nan,
    /// Scaled down until products are subnormal or underflow.
    Tiny,
}

const ROW_KINDS: [RowKind; 5] = [
    RowKind::Plain,
    RowKind::NegZero,
    RowKind::Infinite,
    RowKind::Nan,
    RowKind::Tiny,
];

/// Queries a hostile block carries: past two pairs, so a set of any
/// size up to it has a query left without a partner or not.
const QUERIES: usize = 5;

/// [`QUERIES`] queries and `n` rows of width `d` for the bitwise
/// suites, plus each row's kind. Kinds rotate with `d`, so every kind
/// meets every tile slot and the one-row remainder path. Every query is
/// full-mantissa with one zero; the third is scaled down so that its
/// products with the tiny rows underflow.
fn hostile_block(d: usize, n: usize) -> (Vec<f32>, Vec<f32>, Vec<RowKind>) {
    let mut rng = SmallRng::seed_from_u64((d * 16 + n) as u64);
    // 24 random mantissa bits in [1, 2), sign from the draw's top bit.
    let mut dense = |scale: f32| {
        let bits: u32 = rng.gen();
        f32::from_bits(0x3f80_0000 | (bits & 0x007f_ffff) | (bits & 0x8000_0000)) * scale
    };
    let mut queries: Vec<f32> = (0..d).map(|_| dense(1.0)).collect();
    if d > 2 {
        queries[d / 2] = 0.0;
    }
    let mut rows = Vec::with_capacity(n * d);
    let mut kinds = Vec::with_capacity(n);
    for r in 0..n {
        let kind = ROW_KINDS[(r + d) % ROW_KINDS.len()];
        let at = rows.len();
        match kind {
            RowKind::NegZero => rows.extend((0..d).map(|_| -0.0f32)),
            RowKind::Tiny => rows.extend((0..d).map(|_| dense(3e-39))),
            _ => rows.extend((0..d).map(|_| dense(1.0))),
        }
        match kind {
            RowKind::Infinite => {
                rows[at + (r * 3) % d] = f32::INFINITY;
                rows[at + (r * 5 + d / 2) % d] = f32::NEG_INFINITY;
            }
            RowKind::Nan => rows[at + (r * 7) % d] = f32::NAN,
            _ => {}
        }
        kinds.push(kind);
    }
    for j in 1..QUERIES {
        let scale = if j == 2 { 1e-3 } else { 1.0 };
        let at = queries.len();
        queries.extend((0..d).map(|_| dense(scale)));
        queries[at + (d / 2 + j) % d] = 0.0;
    }
    (queries, rows, kinds)
}

/// The pinned lane loop is the portable one, bit for bit, at every
/// length around the 8-lane and 16-element boundaries — and so is the
/// whole single-pair kernel (the SSE body on x86_64, the portable one
/// elsewhere) against the definition, on every kind of hostile row.
#[test]
fn dot_lanes_match_the_portable_loop_bitwise() {
    assert_eq!(dot(&[], &[]).to_bits(), 0f32.to_bits());
    for d in 1..=130usize {
        let (queries, rows, kinds) = hostile_block(d, ROW_KINDS.len());
        let query = &queries[..d];
        for (row, kind) in rows.chunks_exact(d).zip(kinds) {
            let main = d - d % DOT_LANES;
            let want = dot_lanes_portable(&query[..main], &row[..main]);
            let got = dot_lanes(&query[..main], &row[..main]);
            assert_eq!(
                got.map(f32::to_bits),
                want.map(f32::to_bits),
                "d={d} {kind:?}"
            );
            assert_eq!(
                dot(query, row).to_bits(),
                dot_defined(query, row).to_bits(),
                "d={d} {kind:?}"
            );
        }
    }
}

/// Every body that scores a block — `dot_scores_into` as this CPU
/// dispatches it, on every query set of one to [`QUERIES`] queries,
/// and, called directly wherever the CPU has them, the AVX2 tile on
/// each query and the AVX-512 pair body on each pair — returns the
/// definition's bits for every (row, query): every width around the
/// lane boundary × every row count around the tile size, on rows of
/// every hostile kind. The inputs are FMA-sensitive (checked below, on
/// the rows the pair body scores too), so a body that fused a multiply
/// into its add fails here and not in a golden three crates away.
#[test]
fn every_block_body_matches_the_definition_bitwise() {
    #[cfg(target_arch = "x86_64")]
    let (avx2, avx512) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq"),
    );
    let (mut plain, mut fused_differs) = (0usize, 0usize);
    #[cfg(target_arch = "x86_64")]
    let (mut tiled_avx2, mut tiled_avx512) = (0usize, 0usize);
    for d in 1..=130usize {
        for n in 0..=9usize {
            let (queries, rows, kinds) = hostile_block(d, n);
            let want: Vec<u32> = queries
                .chunks_exact(d)
                .flat_map(|query| rows.chunks_exact(d).map(|row| dot_defined(query, row)))
                .map(f32::to_bits)
                .collect();
            for (query, want) in queries.chunks_exact(d).zip(want.chunks(n.max(1))) {
                for ((row, kind), &want) in rows.chunks_exact(d).zip(&kinds).zip(want) {
                    match kind {
                        RowKind::NegZero => assert_eq!(want, 0f32.to_bits(), "d={d}"),
                        RowKind::Nan => assert!(f32::from_bits(want).is_nan(), "d={d}"),
                        RowKind::Plain if d >= 4 => {
                            plain += 1;
                            let fused = dot_fused(query, row).to_bits();
                            fused_differs += (fused != want) as usize;
                        }
                        _ => {}
                    }
                }
            }
            for count in 1..=QUERIES {
                // Stale entries from a larger block must not survive.
                let mut got = vec![f32::NAN; 64];
                dot_scores_into(&queries[..count * d], &rows, d, &mut got);
                let got: Vec<u32> = got.into_iter().map(f32::to_bits).collect();
                assert_eq!(
                    got,
                    want[..count * n],
                    "d={d} n={n} {count} queries {kinds:?}"
                );
            }

            #[cfg(target_arch = "x86_64")]
            if avx2 {
                for (query, want) in queries.chunks_exact(d).zip(want.chunks(n.max(1))) {
                    let mut got = vec![f32::NAN; n];
                    // SAFETY: AVX2 was detected above.
                    let tiled = unsafe { dot_tiles_avx2(query, &rows, d, &mut got) };
                    assert_eq!(tiled, n - n % TILE, "d={d} n={n}");
                    let got: Vec<u32> = got[..tiled].iter().map(|s| s.to_bits()).collect();
                    assert_eq!(got, want[..tiled], "avx2 tile d={d} n={n} {kinds:?}");
                    tiled_avx2 += tiled;
                }
            }
            #[cfg(target_arch = "x86_64")]
            if avx512 {
                for (pair, want) in queries.chunks_exact(2 * d).zip(want.chunks(2 * n.max(1))) {
                    let (mut a, mut b) = (vec![f32::NAN; n], vec![f32::NAN; n]);
                    // SAFETY: AVX-512F and -DQ were detected above.
                    let tiled = unsafe { dot_pairs_avx512(pair, &rows, d, &mut a, &mut b) };
                    assert_eq!(tiled, n - n % TILE, "d={d} n={n}");
                    for (got, want) in [(a, &want[..tiled]), (b, &want[n..n + tiled])] {
                        let got: Vec<u32> = got[..tiled].iter().map(|s| s.to_bits()).collect();
                        assert_eq!(got, want, "avx512 pair d={d} n={n} {kinds:?}");
                    }
                    tiled_avx512 += 2 * tiled;
                }
            }
        }
    }
    assert!(
        fused_differs * 2 > plain,
        "the plain rows must tell fused from unfused arithmetic: {fused_differs} of {plain}"
    );
    // The pinned bodies ran exactly where CPUID says they exist.
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(
            tiled_avx2 > 0,
            avx2,
            "{tiled_avx2} rows through the AVX2 tile"
        );
        assert_eq!(
            tiled_avx512 > 0,
            avx512,
            "{tiled_avx512} scores through the pair body"
        );
    }
}

#[test]
fn dot_is_deterministic_across_calls() {
    let a = seq(133, 0.9);
    let b = seq(133, 1.1);
    let first = dot(&a, &b);
    for _ in 0..10 {
        assert_eq!(first.to_bits(), dot(&a, &b).to_bits());
    }
}

#[test]
fn scores_into_match_per_row_kernels_bitwise() {
    let d = 13;
    let rows = seq(6 * d, 0.4);
    let queries = seq(3 * d, 1.7);
    let mut dots = Vec::new();
    let mut coss = Vec::new();
    dot_scores_into(&queries, &rows, d, &mut dots);
    cosine_scores_into(&queries, &rows, d, &mut coss);
    assert_eq!((dots.len(), coss.len()), (18, 18));
    for (q, query) in queries.chunks_exact(d).enumerate() {
        for (i, row) in rows.chunks_exact(d).enumerate() {
            assert_eq!(dots[q * 6 + i].to_bits(), dot(query, row).to_bits());
            assert_eq!(coss[q * 6 + i].to_bits(), cosine(query, row).to_bits());
        }
    }
    // Scratch reuse: a second, smaller block leaves no stale entries.
    dot_scores_into(&queries[..d], &rows[..2 * d], d, &mut dots);
    assert_eq!(dots.len(), 2);
    dot_scores_into(&queries, &[], d, &mut dots);
    assert!(dots.is_empty());
}

#[test]
fn cosine_similarity() {
    assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
    assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
    assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    assert_eq!(cosine(&[0.0], &[1.0]), 0.0);
}

#[test]
fn cosine_zero_vectors_score_zero() {
    let d = 9;
    let zeros = vec![0f32; 2 * d];
    let query = seq(d, 1.0);
    let mut out = Vec::new();
    cosine_scores_into(&query, &zeros, d, &mut out);
    assert_eq!(out, vec![0.0, 0.0]);
    let mut out2 = Vec::new();
    cosine_scores_into(&vec![0f32; d], &seq(d, 1.0), d, &mut out2);
    assert_eq!(out2, vec![0.0]);
}

#[test]
fn sparse_dot_matches_dense_on_identity_pattern() {
    // cols = 0..n makes sparse_dot a plain dot against `dense`, but the
    // lane counts differ (4 vs 8) so compare against an f64 reference.
    let n = 77;
    let vals = seq(n, 0.3);
    let dense = seq(n, -0.8);
    let cols: Vec<u32> = (0..n as u32).collect();
    let reference: f64 = vals
        .iter()
        .zip(&dense)
        .map(|(&v, &x)| v as f64 * x as f64)
        .sum();
    let got = sparse_dot(&cols, &vals, &dense) as f64;
    assert!((got - reference).abs() <= 1e-3 * (1.0 + reference.abs()));
}

#[test]
fn sparse_dot_gathers_out_of_order() {
    let dense = [10.0f32, 20.0, 30.0];
    assert_eq!(sparse_dot(&[2, 0], &[1.0, 2.0], &dense), 30.0 + 20.0);
    assert_eq!(sparse_dot(&[], &[], &dense), 0.0);
}

/// Every column of a strip is `sparse_dot` against that column, bit
/// for bit: all row lengths around the 4-lane boundary, indices that
/// repeat and run backwards, both strips of a 16-wide panel whose last
/// columns are padding.
#[test]
fn sparse_dot_strip_matches_sparse_dot_per_column_bitwise() {
    let (rows, ncols, strips) = (23usize, 13usize, 2usize);
    let columns: Vec<Vec<f32>> = (0..ncols)
        .map(|t| {
            (0..rows)
                .map(|r| ((r * 31 + t * 17) % 97) as f32 * 0.37 - 11.3)
                .collect()
        })
        .collect();
    let mut panel = vec![[0f32; STRIP]; rows * strips];
    for (r, row) in panel.chunks_exact_mut(strips).enumerate() {
        for (t, column) in columns.iter().enumerate() {
            row[t / STRIP][t % STRIP] = column[r];
        }
    }
    for len in 0..=40usize {
        // 7 and 23 are coprime, so the walk is out of order and, past
        // 23 entries, revisits rows.
        let cols: Vec<u32> = (0..len).map(|i| ((i * 7 + 5) % rows) as u32).collect();
        let vals: Vec<f32> = (0..len).map(|i| (i as f32 - 9.5) * 0.213).collect();
        for strip in 0..strips {
            let got = sparse_dot_strip(&cols, &vals, &panel, strips, strip);
            for (j, sum) in got.iter().enumerate() {
                let want = match columns.get(strip * STRIP + j) {
                    Some(column) => sparse_dot(&cols, &vals, column),
                    None => sparse_dot(&cols, &vals, &[0.0; 23]),
                };
                assert_eq!(
                    sum.to_bits(),
                    want.to_bits(),
                    "len={len} strip={strip} j={j}"
                );
            }
        }
    }
}

/// [`sparse_dot`] with every multiply fused into its add: what a body
/// that let FMA in would return.
fn sparse_dot_fused(cols: &[u32], vals: &[f32], dense: &[f32]) -> f32 {
    let main = cols.len() - cols.len() % SPARSE_LANES;
    let mut lanes = [0f32; SPARSE_LANES];
    for i in 0..main {
        let l = i % SPARSE_LANES;
        lanes[l] = vals[i].mul_add(dense[cols[i] as usize], lanes[l]);
    }
    let mut tail = 0f32;
    for i in main..cols.len() {
        tail = vals[i].mul_add(dense[cols[i] as usize], tail);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Every body of the row kernel — [`sparse_dot_row`] as this CPU
/// dispatches it, its strips, and, where the CPU has AVX-512F, the
/// AVX-512 body called directly — returns [`sparse_dot`]'s bits for
/// every column: panel widths 1 to 72, so a pass's last register is
/// every width from 1 to 16 and passes break at 48; row lengths 0 to
/// 40 around the 4-lane boundary; indices out of order and, past 23
/// entries, repeated. Values carry full mantissas, so fused and unfused
/// arithmetic part ways (checked below).
#[test]
fn every_row_body_matches_sparse_dot_per_column_bitwise() {
    let rows = 23usize;
    let mut bits = 0x9e37_79b9u32;
    let mut full = |scale: f32| {
        bits ^= bits << 13;
        bits ^= bits >> 17;
        bits ^= bits << 5;
        f32::from_bits(0x3f80_0000 | (bits & 0x807f_ffff)) * scale
    };
    #[cfg(target_arch = "x86_64")]
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    let (mut sums, mut fused_differs) = (0usize, 0usize);
    for width in 1..=72usize {
        let strips = width.div_ceil(STRIP);
        let columns: Vec<Vec<f32>> = (0..width)
            .map(|_| (0..rows).map(|_| full(1.0)).collect())
            .collect();
        let mut panel = vec![[0f32; STRIP]; rows * strips];
        for (r, row) in panel.chunks_exact_mut(strips).enumerate() {
            for (t, column) in columns.iter().enumerate() {
                row[t / STRIP][t % STRIP] = column[r];
            }
        }
        for len in 0..=40usize {
            // 7 and 23 are coprime: the walk is out of order and, past
            // 23 entries, revisits rows.
            let cols: Vec<u32> = (0..len).map(|i| ((i * 7 + 5) % rows) as u32).collect();
            let vals: Vec<f32> = (0..len).map(|_| full(0.5)).collect();
            let want: Vec<u32> = columns
                .iter()
                .map(|column| sparse_dot(&cols, &vals, column).to_bits())
                .collect();
            if len >= 4 {
                for (column, &want) in columns.iter().zip(&want) {
                    sums += 1;
                    fused_differs +=
                        (sparse_dot_fused(&cols, &vals, column).to_bits() != want) as usize;
                }
            }
            let mut bodies: Vec<(&str, Vec<f32>)> = Vec::new();
            let mut got = vec![f32::NAN; width];
            sparse_dot_row(&cols, &vals, &panel, strips, &mut got);
            bodies.push(("dispatched", got));
            let mut got = vec![f32::NAN; width];
            sparse_dot_row_strips(&cols, &vals, &panel, strips, &mut got);
            bodies.push(("strips", got));
            #[cfg(target_arch = "x86_64")]
            if avx512 {
                let mut got = vec![f32::NAN; width];
                let flat = panel.as_flattened();
                // SAFETY: AVX-512F was detected above.
                unsafe { sparse_dot_row_avx512(&cols, &vals, flat, strips * STRIP, &mut got) };
                bodies.push(("avx512", got));
            }
            for (body, got) in bodies {
                let got: Vec<u32> = got.iter().map(|s| s.to_bits()).collect();
                assert_eq!(got, want, "{body} width={width} len={len}");
            }
        }
    }
    assert!(
        fused_differs * 3 > sums,
        "the values must tell fused from unfused arithmetic: {fused_differs} of {sums}"
    );
}
