//! The sparse row kernels: a sparse row `(cols, vals)` against dense
//! columns.
//!
//! [`sparse_dot`] is the definition — four gather lanes by nnz position,
//! a sequential tail, the `((l0 + l1) + (l2 + l3)) + tail` tree — and the
//! kernel of `Csr::spmv` / `Csdb::spmv`. [`sparse_dot_strip`] runs the same
//! chains for [`STRIP`] adjacent columns of a row-major panel over one read
//! of the row, and [`sparse_dot_row`] every column of a panel row: the
//! SpMM executor's numeric step. On x86_64 with AVX-512F, CPUID picks the
//! row's AVX-512 body — a pass over the row covers up to 48 columns, three
//! registers per gather lane — and everywhere else the row is its strips
//! one after another. Nothing else selects a body. Both return
//! [`sparse_dot`]'s bits per column; the tests hold them to it on inputs
//! that a fused multiply-add would round differently.

/// Lanes of the sparse (gather) accumulator. Gathers are latency-bound, so
/// four independent chains suffice to cover the loads.
pub(super) const SPARSE_LANES: usize = 4;

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

/// [`sparse_dot`] of one sparse row against every column of a panel row, in
/// one pass over `(cols, vals)` per up to 48 columns: entry `j` of `out`
/// is bit-identical to `sparse_dot(cols, vals, column j)`.
///
/// `panel` is laid out as for [`sparse_dot_strip`], `strips` strips per
/// dense row; `out` holds the columns wanted, at most `strips * STRIP`.
/// Where CPUID reports AVX-512F the row goes through `sparse_dot_row_avx512`,
/// elsewhere through its strips one after another (`sparse_dot_row_strips`,
/// the definition this form is tested against).
#[inline]
pub fn sparse_dot_row(
    cols: &[u32],
    vals: &[f32],
    panel: &[[f32; STRIP]],
    strips: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(cols.len(), vals.len());
    assert!(
        out.len() <= strips * STRIP,
        "more columns than the panel holds"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the CPU reports AVX-512F, the one target feature the body
        // is compiled with (std caches the CPUID query).
        unsafe { sparse_dot_row_avx512(cols, vals, panel.as_flattened(), strips * STRIP, out) };
        return;
    }
    sparse_dot_row_strips(cols, vals, panel, strips, out);
}

/// [`sparse_dot_row`] by its definition: [`sparse_dot_strip`] per strip,
/// the columns `out` holds copied out of each.
#[inline]
pub(super) fn sparse_dot_row_strips(
    cols: &[u32],
    vals: &[f32],
    panel: &[[f32; STRIP]],
    strips: usize,
    out: &mut [f32],
) {
    for (strip, out) in out.chunks_mut(STRIP).enumerate() {
        let sums = sparse_dot_strip(cols, vals, panel, strips, strip);
        out.copy_from_slice(&sums[..out.len()]);
    }
}

/// Columns one `__m512` holds.
#[cfg(target_arch = "x86_64")]
const ZMM_COLS: usize = 16;

/// Registers per gather lane in one pass of the AVX-512 row body: four
/// lanes and the tail at three registers each are 15 accumulators of the
/// 32 registers, so one pass covers 48 columns.
#[cfg(target_arch = "x86_64")]
const PASS_REGS: usize = 3;

/// [`sparse_dot_row`]'s AVX-512 body over a flat row-major panel of
/// `stride` floats a row: passes of up to 48 columns, each through
/// `row_pass_avx512` at the register count its width needs.
///
/// # Safety
/// The CPU must support AVX-512F. Slice bounds are checked here, not
/// assumed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn sparse_dot_row_avx512(
    cols: &[u32],
    vals: &[f32],
    panel: &[f32],
    stride: usize,
    out: &mut [f32],
) {
    for (pass, out) in out.chunks_mut(PASS_REGS * ZMM_COLS).enumerate() {
        let from = pass * PASS_REGS * ZMM_COLS;
        // SAFETY: (all three) this function has AVX-512F too.
        unsafe {
            match out.len().div_ceil(ZMM_COLS) {
                1 => row_pass_avx512::<1>(cols, vals, panel, stride, from, out),
                2 => row_pass_avx512::<2>(cols, vals, panel, stride, from, out),
                _ => row_pass_avx512::<3>(cols, vals, panel, stride, from, out),
            }
        }
    }
}

/// One pass of the AVX-512 row body: columns `from..from + out.len()` of
/// the panel, `R` registers of 16 columns, the last one masked to the
/// columns that exist.
///
/// Each column keeps [`sparse_dot`]'s arithmetic to the bit: gather lane
/// `l` of register `k` holds lane `l` of 16 columns' chains, and one
/// non-zero costs a broadcast of its value, one masked load of 16 panel
/// entries per register, and one `vmulps` then one `vaddps` — never fused.
/// The tail is its own accumulator, and the `((l0 + l1) + (l2 + l3)) +
/// tail` tree runs on whole registers before a masked store.
///
/// `avx512f` implies `fma` in rustc's feature table: the body has the
/// instruction and must not use it, which the bitwise tests guard.
///
/// # Safety
/// The CPU must support AVX-512F. The register count and slice bounds are
/// checked here, not assumed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn row_pass_avx512<const R: usize>(
    cols: &[u32],
    vals: &[f32],
    panel: &[f32],
    stride: usize,
    from: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        __mmask16, _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
        _mm512_set1_ps, _mm512_setzero_ps,
    };
    let width = out.len();
    assert!(width.div_ceil(ZMM_COLS) == R && from + width <= stride);
    // Register `k` covers columns `16k..` of the pass; its mask admits the
    // ones below `width`.
    let masks: [__mmask16; R] = std::array::from_fn(|k| {
        let n = (width - k * ZMM_COLS).min(ZMM_COLS);
        (u32::MAX >> (32 - n)) as __mmask16
    });
    // The pass's `width` entries of dense row `c`, bounds-checked.
    let row = |c: u32| panel[c as usize * stride + from..][..width].as_ptr();
    let main = cols.len() - cols.len() % SPARSE_LANES;
    let mut lanes = [[_mm512_setzero_ps(); R]; SPARSE_LANES];
    for (cc, cv) in cols[..main]
        .chunks_exact(SPARSE_LANES)
        .zip(vals[..main].chunks_exact(SPARSE_LANES))
    {
        for l in 0..SPARSE_LANES {
            let (dense, v) = (row(cc[l]), _mm512_set1_ps(cv[l]));
            for (k, acc) in lanes[l].iter_mut().enumerate() {
                // SAFETY: `dense` points at `width` floats and the mask
                // admits only lanes `16k + i < width`; a masked load
                // touches no other memory.
                let x = unsafe { _mm512_maskz_loadu_ps(masks[k], dense.add(k * ZMM_COLS)) };
                *acc = _mm512_add_ps(*acc, _mm512_mul_ps(v, x));
            }
        }
    }
    let mut tail = [_mm512_setzero_ps(); R];
    for (&c, &v) in cols[main..].iter().zip(&vals[main..]) {
        let (dense, v) = (row(c), _mm512_set1_ps(v));
        for (k, acc) in tail.iter_mut().enumerate() {
            // SAFETY: as above.
            let x = unsafe { _mm512_maskz_loadu_ps(masks[k], dense.add(k * ZMM_COLS)) };
            *acc = _mm512_add_ps(*acc, _mm512_mul_ps(v, x));
        }
    }
    for k in 0..R {
        let pairs = _mm512_add_ps(
            _mm512_add_ps(lanes[0][k], lanes[1][k]),
            _mm512_add_ps(lanes[2][k], lanes[3][k]),
        );
        // SAFETY: `out` holds `width` writable floats and the mask admits
        // only lanes `16k + i < width`.
        unsafe {
            _mm512_mask_storeu_ps(
                out.as_mut_ptr().add(k * ZMM_COLS),
                masks[k],
                _mm512_add_ps(pairs, tail[k]),
            )
        };
    }
}
