//! Blocked, auto-vectorisation-friendly f32 kernels shared by the serving
//! scan (`omega-serve`), the embedding top-k (`omega-embed`) and the SpMM
//! inner loop (`omega-spmm` / `omega-graph`).
//!
//! Every kernel uses a **fixed** lane count and a **fixed** reduction order,
//! so results are deterministic: the same inputs produce the same bits on
//! every call, on every thread, at every thread count. The multi-lane
//! accumulators expose independent dependency chains that LLVM turns into
//! SIMD multiplies and adds without `-ffast-math`-style reassociation
//! licenses — the reassociation is done *here*, once, explicitly, and every
//! step stays one rounded multiply followed by one rounded add (the crate
//! docs state the no-contraction contract).
//!
//! The dense dot has **one definition** — eight lanes by element position
//! (`dot_lanes_portable`), the `reduce8` adder tree, a sequential tail —
//! and, on x86_64, **three bodies pinned with intrinsics**, each tested
//! bit-equal to it: the SSE lane loop inside [`dot`] (the x86_64 baseline,
//! so nothing to detect), an AVX2 tile of four rows per step, and an
//! AVX-512 body that scores a pair of queries per 512-bit register, four
//! rows per step. [`dot_scores_into`] scores a block against a set of
//! queries: pairs through the AVX-512 body where CPUID reports AVX-512F
//! and -DQ, any other query through the AVX2 tile where it reports AVX2,
//! the rows past a tile's last whole one through [`dot`]. Nothing else
//! selects a body — no caller, configuration, cargo feature or
//! environment variable — and all return the same bits. Multiplies and
//! adds are separate intrinsics and no body enables `fma`; the AVX-512
//! one gets it anyway, because rustc implies `fma` from `avx512f`, so the
//! tests hold every body to inputs that a fused multiply-add would round
//! differently.
//!
//! [`sparse_dot`] is the definition of a sparse row · dense column and the
//! kernel of `Csr::spmv` / `Csdb::spmv`; [`sparse_dot_strip`] is the SpMM
//! executor's form of it — the same chains for [`STRIP`] columns side by
//! side over one read of the row — and is tested bit-equal to it.
//!
//! The `*_into` variants write into a caller-owned scratch buffer so a
//! blocked scan over many row blocks performs zero allocations after the
//! first block.

/// Lanes of the dense dot-product accumulator: one AVX2 register, or two
/// SSE registers, per row. Which lane an element lands in is part of the
/// result's bits, so every body keeps eight whatever its register width.
const DOT_LANES: usize = 8;

/// Lanes of the sparse (gather) accumulator. Gathers are latency-bound, so
/// four independent chains suffice to cover the loads.
const SPARSE_LANES: usize = 4;

/// Dense dot product with eight independent accumulator lanes and a fixed
/// pairwise lane reduction. Deterministic, but **not** bit-identical to a
/// strictly sequential sum — callers that need cross-path bit-identity
/// (e.g. serve scan vs. `Embedding::top_k`) must use this kernel on *both*
/// paths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() - a.len() % DOT_LANES;
    reduce8(dot_lanes(&a[..main], &b[..main])) + dot_tail(&a[main..], &b[main..])
}

/// The strictly sequential sum [`dot`] adds for the `len % 8` elements past
/// the last whole lane group (`+0.0` when there are none).
#[inline]
fn dot_tail(a: &[f32], b: &[f32]) -> f32 {
    let mut tail = 0f32;
    for (&x, &y) in a.iter().zip(b) {
        tail += x * y;
    }
    tail
}

/// The eight lane sums of [`dot`]'s main loop: lane `l` accumulates
/// elements `l, l + 8, l + 16, …` in order, each step one rounded multiply
/// and one rounded add. The definition of the kernel's arithmetic, the
/// implementation on targets without a pinned one, and the oracle the
/// pinned one is tested against.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
#[inline]
fn dot_lanes_portable(a: &[f32], b: &[f32]) -> [f32; DOT_LANES] {
    let mut lanes = [0f32; DOT_LANES];
    for (ca, cb) in a.chunks_exact(DOT_LANES).zip(b.chunks_exact(DOT_LANES)) {
        for l in 0..DOT_LANES {
            lanes[l] += ca[l] * cb[l];
        }
    }
    lanes
}

#[cfg(not(target_arch = "x86_64"))]
use dot_lanes_portable as dot_lanes;

/// [`dot_lanes_portable`] with its code generation pinned: lanes 0–3 and
/// 4–7 live in two SSE registers for the whole loop (`mulps` + `addps`
/// per register per step — the same two IEEE operations per lane, so the
/// same bits). Left to the auto-vectoriser, the loop followed by the
/// inlined [`reduce8`] sometimes comes out with the accumulators laid out
/// pair-interleaved and a dozen shuffles per step, at three times the
/// cost, and which instantiation gets which form is luck. SSE is part of
/// the x86_64 baseline, so there is nothing to detect at run time.
#[cfg(target_arch = "x86_64")]
#[inline]
fn dot_lanes(a: &[f32], b: &[f32]) -> [f32; DOT_LANES] {
    use std::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_setzero_ps, _mm_storeu_ps};
    // SAFETY: (target feature, all three blocks) the intrinsics need SSE,
    // which every x86_64 CPU has — it is in the target's baseline.
    let (mut lo, mut hi) = unsafe { (_mm_setzero_ps(), _mm_setzero_ps()) };
    for (ca, cb) in a.chunks_exact(DOT_LANES).zip(b.chunks_exact(DOT_LANES)) {
        // SAFETY: `chunks_exact(8)` yields slices of exactly eight f32, so
        // the four floats at `ptr` and the four at `ptr + 4` are in
        // bounds of both chunks; `loadu` has no alignment requirement.
        unsafe {
            let (pa, pb) = (ca.as_ptr(), cb.as_ptr());
            lo = _mm_add_ps(lo, _mm_mul_ps(_mm_loadu_ps(pa), _mm_loadu_ps(pb)));
            hi = _mm_add_ps(
                hi,
                _mm_mul_ps(_mm_loadu_ps(pa.add(4)), _mm_loadu_ps(pb.add(4))),
            );
        }
    }
    let mut lanes = [0f32; DOT_LANES];
    // SAFETY: `lanes` holds eight f32: four writable at its start and four
    // at offset 4; `storeu` has no alignment requirement.
    unsafe {
        _mm_storeu_ps(lanes.as_mut_ptr(), lo);
        _mm_storeu_ps(lanes.as_mut_ptr().add(4), hi);
    }
    lanes
}

/// Fixed pairwise reduction of the eight lanes (adder-tree order).
#[inline]
fn reduce8(l: [f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Euclidean norm through the lane-reduced [`dot`].
#[inline]
fn norm2(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity through the lane-reduced [`dot`]: `a · b / (|a| |b|)`,
/// each norm the square root of the vector's own `dot`, and 0 when either
/// vector is zero.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm2(a);
    let nb = norm2(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Sparse row · dense vector: `Σ vals[i] * dense[cols[i]]`, four gather
/// lanes, fixed reduction. The shared inner loop of `Csr::spmv`,
/// `Csdb::spmv` and the SpMM kernel's accumulation step — identical
/// `(cols, vals)` sequences therefore produce bit-identical sums whichever
/// format streamed them.
#[inline]
pub fn sparse_dot(cols: &[u32], vals: &[f32], dense: &[f32]) -> f32 {
    debug_assert_eq!(cols.len(), vals.len());
    let main = cols.len() - cols.len() % SPARSE_LANES;
    let mut lanes = [0f32; SPARSE_LANES];
    for (cc, cv) in cols[..main]
        .chunks_exact(SPARSE_LANES)
        .zip(vals[..main].chunks_exact(SPARSE_LANES))
    {
        for l in 0..SPARSE_LANES {
            lanes[l] += cv[l] * dense[cc[l] as usize];
        }
    }
    let mut tail = 0f32;
    for (&c, &v) in cols[main..].iter().zip(&vals[main..]) {
        tail += v * dense[c as usize];
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Dense columns one [`sparse_dot_strip`] call produces: eight f32 are two
/// SSE registers per gather lane, so the four lanes of a strip fill eight of
/// the sixteen the x86_64 baseline has.
pub const STRIP: usize = 8;

/// [`sparse_dot`] of one sparse row against [`STRIP`] adjacent dense columns
/// in one pass over `(cols, vals)`.
///
/// `panel` holds the dense operand **row-major** in whole strips, `strips`
/// of them per dense row: the entries of row `r` this call reads are
/// `panel[r * strips + strip]`. One non-zero therefore costs one index load
/// and one 32-byte read, where `STRIP` calls of [`sparse_dot`] cost `STRIP`
/// index loads and `STRIP` gathers out of `STRIP` different columns.
/// Element `j` of the result is bit-identical to `sparse_dot(cols, vals,
/// column strip * STRIP + j)`: every column keeps its own four gather lanes
/// by nnz position, its own sequential tail and the same
/// `((l0 + l1) + (l2 + l3)) + tail` tree, each step one rounded multiply and
/// one rounded add — the columns are independent chains that merely share
/// the loads (see the no-contraction contract in the crate docs).
#[inline]
pub fn sparse_dot_strip(
    cols: &[u32],
    vals: &[f32],
    panel: &[[f32; STRIP]],
    strips: usize,
    strip: usize,
) -> [f32; STRIP] {
    debug_assert_eq!(cols.len(), vals.len());
    debug_assert!(strip < strips);
    let main = cols.len() - cols.len() % SPARSE_LANES;
    let mut lanes = [[0f32; STRIP]; SPARSE_LANES];
    for (cc, cv) in cols[..main]
        .chunks_exact(SPARSE_LANES)
        .zip(vals[..main].chunks_exact(SPARSE_LANES))
    {
        for l in 0..SPARSE_LANES {
            let dense = &panel[cc[l] as usize * strips + strip];
            for j in 0..STRIP {
                lanes[l][j] += cv[l] * dense[j];
            }
        }
    }
    let mut tail = [0f32; STRIP];
    for (&c, &v) in cols[main..].iter().zip(&vals[main..]) {
        let dense = &panel[c as usize * strips + strip];
        for j in 0..STRIP {
            tail[j] += v * dense[j];
        }
    }
    std::array::from_fn(|j| ((lanes[0][j] + lanes[1][j]) + (lanes[2][j] + lanes[3][j])) + tail[j])
}

/// Dot-product scores of a set of queries against every `d`-wide row of a
/// contiguous row-major block, written into `out` (nothing of its old
/// contents survives): the one place the workspace scores a block of
/// rows, and the scratch-reusing inner loop of the blocked top-k scans.
///
/// `queries` holds one or more `d`-wide queries back to back — a single
/// query is the set of one. With `n = rows.len() / d`, `out` comes back
/// `n` entries a query, query-major: entry `q * n + i` is bit-identical to
/// `dot(query q, row i)`. CPUID picks the bodies, nothing else does: where
/// it reports AVX-512F and -DQ, queries go two at a time through
/// `dot_pairs_avx512`; a query left without a partner, and every query
/// where the CPU has AVX2 only, through `dot_tiles_avx2`; the rows past
/// either tile's last whole one, and everything on any other CPU or
/// target, through [`dot`] itself.
#[inline]
pub fn dot_scores_into(queries: &[f32], rows: &[f32], d: usize, out: &mut Vec<f32>) {
    debug_assert!(d > 0 && rows.len().is_multiple_of(d));
    debug_assert!(!queries.is_empty() && queries.len().is_multiple_of(d));
    let n = rows.len() / d;
    if n == 0 {
        out.clear();
        return;
    }
    // Every entry is written below, so only the entries `out` lacks need
    // a value here: a reused scratch is not zeroed first.
    let nq = queries.len() / d;
    out.resize(nq * n, 0.0);
    #[cfg(target_arch = "x86_64")]
    let paired = if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        for (pair, scores) in queries.chunks_exact(2 * d).zip(out.chunks_exact_mut(2 * n)) {
            let (a, b) = scores.split_at_mut(n);
            // SAFETY: the CPU reports AVX-512F and -DQ, the target
            // features the pair body is compiled with (std caches the
            // CPUID query).
            let tiled = unsafe { dot_pairs_avx512(pair, rows, d, a, b) };
            dot_rows_from(tiled, &pair[..d], rows, a);
            dot_rows_from(tiled, &pair[d..], rows, b);
        }
        nq - nq % 2
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let paired = 0;
    let rest = queries[paired * d..].chunks_exact(d);
    for (query, scores) in rest.zip(out[paired * n..].chunks_exact_mut(n)) {
        #[cfg(target_arch = "x86_64")]
        let tiled = if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reports AVX2, the one target feature the
            // tile body is compiled with.
            unsafe { dot_tiles_avx2(query, rows, d, scores) }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let tiled = 0;
        dot_rows_from(tiled, query, rows, scores);
    }
}

/// [`dot`] of `query` against rows `from..` of `rows`, into the matching
/// entries of `scores`: the rows a tile body left over.
#[inline]
fn dot_rows_from(from: usize, query: &[f32], rows: &[f32], scores: &mut [f32]) {
    let d = query.len();
    for (score, row) in scores[from..]
        .iter_mut()
        .zip(rows[from * d..].chunks_exact(d))
    {
        *score = dot(query, row);
    }
}

/// Rows a tile body scores per step.
#[cfg(target_arch = "x86_64")]
const TILE: usize = 4;

/// [`dot`] of `query` against four adjacent rows per step, for every whole
/// four-row tile of `rows`, into the matching entries of `scores`; returns
/// the rows it scored, a multiple of four.
///
/// Each row keeps [`dot`]'s arithmetic to the bit: one `__m256`
/// accumulator holds exactly that row's lanes 0–7 (`vmulps` then `vaddps`
/// per eight elements, never fused), its `d % 8` tail is summed
/// sequentially on its own, and three `vhaddps` plus one 128-bit add run
/// the four rows' [`reduce8`] trees side by side in registers. The final
/// `+ tail` stays even when the tail is empty: `-0.0 + 0.0` is `+0.0`, and
/// `dot` does it. The tile buys one load of each query chunk per four rows
/// and a reduction that never leaves the registers.
///
/// # Safety
/// The CPU must support AVX2. Slice bounds are checked here, not assumed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_tiles_avx2(query: &[f32], rows: &[f32], d: usize, scores: &mut [f32]) -> usize {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_hadd_ps,
        _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps, _mm_add_ps, _mm_setr_ps, _mm_storeu_ps,
    };
    let query = &query[..d];
    let main = d - d % DOT_LANES;
    let mut tiled = 0;
    for (tile, out) in rows
        .chunks_exact(TILE * d)
        .zip(scores.chunks_exact_mut(TILE))
    {
        let (q, t) = (query.as_ptr(), tile.as_ptr());
        let mut acc = [_mm256_setzero_ps(); TILE];
        let mut i = 0;
        while i < main {
            // SAFETY: `i + 8 <= main <= d`, so the eight floats at `i` are
            // inside `query` (`d` long) and inside row `r` of the tile at
            // `r * d + i`: `chunks_exact(4 * d)` yields exactly `4 * d`
            // floats. `loadu` has no alignment requirement.
            unsafe {
                let qv = _mm256_loadu_ps(q.add(i));
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(qv, _mm256_loadu_ps(t.add(r * d + i))));
                }
            }
            i += DOT_LANES;
        }
        let tail: [f32; TILE] =
            std::array::from_fn(|r| dot_tail(&query[main..], &tile[r * d + main..(r + 1) * d]));
        // hadd(a, b) = [a0+a1, a2+a3, b0+b1, b2+b3 | a4+a5, a6+a7, b4+b5,
        // b6+b7]; twice over gives row r's (l0+l1)+(l2+l3) in element r of
        // the low half and its (l4+l5)+(l6+l7) in element r of the high.
        let halves = _mm256_hadd_ps(
            _mm256_hadd_ps(acc[0], acc[1]),
            _mm256_hadd_ps(acc[2], acc[3]),
        );
        let trees = _mm_add_ps(
            _mm256_castps256_ps128(halves),
            _mm256_extractf128_ps::<1>(halves),
        );
        let sums = _mm_add_ps(trees, _mm_setr_ps(tail[0], tail[1], tail[2], tail[3]));
        // SAFETY: `out` holds four writable f32 (`chunks_exact_mut(4)`);
        // `storeu` has no alignment requirement.
        unsafe { _mm_storeu_ps(out.as_mut_ptr(), sums) };
        tiled += TILE;
    }
    tiled
}

/// [`dot`] of a pair of queries against four adjacent rows per step, two
/// queries a 512-bit register, for every whole four-row tile of `rows`:
/// query *a*'s scores into `a`, query *b*'s into `b`. Returns the rows it
/// scored, a multiple of four.
///
/// `pair` is the two queries back to back. Each step loads the pair's
/// eight-element chunks into the low (*a*) and high (*b*) halves of one
/// `__m512`, and broadcasts each row's chunk into both halves with one
/// load, so one `vmulps` then one `vaddps` — never fused — advance two
/// (row, query) accumulators of eight lanes each: exactly [`dot`]'s lanes
/// for that row and that query. The eight adder trees then run side by
/// side in registers, in [`reduce8`]'s order, and each score gets its own
/// sequential tail, as in `dot_tiles_avx2`. Against that tile, a row chunk
/// is loaded once for two queries, and the arithmetic and reduction
/// instructions per score are halved.
///
/// `avx512f` implies `fma` in rustc's feature table: the body has the
/// instruction and must not use it, which the bitwise tests guard.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512DQ. Slice bounds are checked
/// here, not assumed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn dot_pairs_avx512(
    pair: &[f32],
    rows: &[f32],
    d: usize,
    a: &mut [f32],
    b: &mut [f32],
) -> usize {
    use std::arch::x86_64::{
        _mm256_loadu_ps, _mm512_add_ps, _mm512_broadcast_f32x8, _mm512_castps256_ps512,
        _mm512_castps512_ps128, _mm512_extractf32x4_ps, _mm512_insertf32x8, _mm512_mul_ps,
        _mm512_setzero_ps, _mm512_shuffle_f32x4, _mm512_shuffle_ps, _mm_add_ps, _mm_setr_ps,
        _mm_storeu_ps,
    };
    let (qa, qb) = pair[..2 * d].split_at(d);
    let main = d - d % DOT_LANES;
    let mut tiled = 0;
    let outs = a.chunks_exact_mut(TILE).zip(b.chunks_exact_mut(TILE));
    for (tile, (out_a, out_b)) in rows.chunks_exact(TILE * d).zip(outs) {
        let (pa, pb, t) = (qa.as_ptr(), qb.as_ptr(), tile.as_ptr());
        let mut acc = [_mm512_setzero_ps(); TILE];
        let mut i = 0;
        while i < main {
            // SAFETY: `i + 8 <= main <= d`, so the eight floats at `i` are
            // inside `qa` and `qb` (`d` long each) and inside row `r` of
            // the tile at `r * d + i`: `chunks_exact(4 * d)` yields exactly
            // `4 * d` floats. `loadu` has no alignment requirement.
            unsafe {
                let q = _mm512_insertf32x8::<1>(
                    _mm512_castps256_ps512(_mm256_loadu_ps(pa.add(i))),
                    _mm256_loadu_ps(pb.add(i)),
                );
                for (r, acc) in acc.iter_mut().enumerate() {
                    let row = _mm512_broadcast_f32x8(_mm256_loadu_ps(t.add(r * d + i)));
                    *acc = _mm512_add_ps(*acc, _mm512_mul_ps(q, row));
                }
            }
            i += DOT_LANES;
        }
        // The AVX2 tile's reduction on both halves at once. Within each
        // 128-bit lane, even + odd elements of (x, y) is `hadd(x, y)`;
        // the second round leaves row r's (l0+l1)+(l2+l3) of query a in
        // element r of lane 0 and its (l4+l5)+(l6+l7) in lane 1, query b's
        // in lanes 2 and 3, and swapping lanes within each half adds them.
        let hadd = |x, y| {
            _mm512_add_ps(
                _mm512_shuffle_ps::<0b10_00_10_00>(x, y),
                _mm512_shuffle_ps::<0b11_01_11_01>(x, y),
            )
        };
        let halves = hadd(hadd(acc[0], acc[1]), hadd(acc[2], acc[3]));
        let trees = _mm512_add_ps(
            halves,
            _mm512_shuffle_f32x4::<0b10_11_00_01>(halves, halves),
        );
        for (out, query, trees) in [
            (out_a, qa, _mm512_castps512_ps128(trees)),
            (out_b, qb, _mm512_extractf32x4_ps::<2>(trees)),
        ] {
            let tail: [f32; TILE] =
                std::array::from_fn(|r| dot_tail(&query[main..], &tile[r * d + main..(r + 1) * d]));
            let scores = _mm_add_ps(trees, _mm_setr_ps(tail[0], tail[1], tail[2], tail[3]));
            // SAFETY: `out` holds four writable f32 (`chunks_exact_mut(4)`);
            // `storeu` has no alignment requirement.
            unsafe { _mm_storeu_ps(out.as_mut_ptr(), scores) };
        }
        tiled += TILE;
    }
    tiled
}

/// Cosine scores of a set of queries against every `d`-wide row of a
/// block, written into `out` (no old entry survives) in
/// [`dot_scores_into`]'s layout. Bit-identical to calling [`cosine`] per
/// (row, query): the dots come from the same kernel, and the norms
/// [`cosine`] would recompute per pair are the same f32s, computed once a
/// query and once a row per query.
#[inline]
pub fn cosine_scores_into(queries: &[f32], rows: &[f32], d: usize, out: &mut Vec<f32>) {
    dot_scores_into(queries, rows, d, out);
    let n = rows.len() / d;
    if n == 0 {
        return;
    }
    for (query, scores) in queries.chunks_exact(d).zip(out.chunks_exact_mut(n)) {
        let nq = norm2(query);
        for (score, row) in scores.iter_mut().zip(rows.chunks_exact(d)) {
            let nr = norm2(row);
            *score = if nq == 0.0 || nr == 0.0 {
                0.0
            } else {
                *score / (nq * nr)
            };
        }
    }
}

#[cfg(test)]
mod tests {
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
}
