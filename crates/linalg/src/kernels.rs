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
//! kernel of `Csr::spmv` / `Csdb::spmv`; [`sparse_dot_strip`] runs the same
//! chains for [`STRIP`] columns side by side over one read of the row, and
//! [`sparse_dot_row`] — the SpMM executor's numeric step — every column of
//! a packed panel row: one pass over the row per 48 columns in an AVX-512
//! body where CPUID reports AVX-512F, the row's strips one after another
//! elsewhere. Both are tested bit-equal to [`sparse_dot`] per column.
//!
//! The `*_into` variants write into a caller-owned scratch buffer so a
//! blocked scan over many row blocks performs zero allocations after the
//! first block.

mod sparse;

pub use sparse::{sparse_dot, sparse_dot_row, sparse_dot_strip, STRIP};

/// Lanes of the dense dot-product accumulator: one AVX2 register, or two
/// SSE registers, per row. Which lane an element lands in is part of the
/// result's bits, so every body keeps eight whatever its register width.
const DOT_LANES: usize = 8;

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
mod tests;
