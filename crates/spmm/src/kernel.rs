//! The charged SpMM inner kernel — Algorithm 1 of the paper.
//!
//! One call runs on two clocks. The *simulated* clock is charged exactly as
//! Algorithm 1 walks: dense column by dense column, each column re-streaming
//! the workload's sparse structures, fetching its dense entries and writing
//! its result slice, in bulk against the operand placements:
//!
//! | Step | Paper operation  | Pattern charged                              |
//! |------|------------------|----------------------------------------------|
//! | ①    | `read_index`     | sequential read of per-row metadata           |
//! | ②    | `get_sparse_nnz` | sequential stream of `col_list` + `nnz_list`  |
//! | ③    | `get_dense_nnz`  | **random** reads of the dense operand, split  |
//! |      |                  | prefetched→DRAM staging / rest→operand home   |
//! | ④    | accumulation     | CPU multiply-accumulate ops                   |
//! | ⑤    | `write_result`   | sequential column-major result writes         |
//!
//! The *host* computes step ④ apart from that walk — sparse rows
//! outermost, every column of the batch in one pass over a row — against a
//! [`Panel`]: the batch's columns of `B` repacked row-major, so that one
//! non-zero reads one run of one panel row instead of gathering from
//! `ncols` columns of 80 KB each. The pass is `kernels::sparse_dot_row`,
//! AVX-512 where CPUID has it. Its tasks are not the simulated threads'
//! workloads: [`row_blocks`] cuts the rows into blocks of about
//! [`BLOCK_COST`] non-zeros plus rows, fixed by the matrix alone, and
//! [`compute_batch`] runs them on the pool and writes each straight into
//! its slice of `C`'s batch columns. The two orders meet in the `(cols,
//! vals)` sequence of a row: every output element is `sparse_dot` of that
//! sequence with its column, bit for bit, whichever loop nest and whichever
//! block produced it, so the model may keep pricing the paper's traffic per
//! workload ([`charge_workload`]) while the host does the cache-friendly
//! walk on balanced blocks.

use crate::wofp::{Prefetcher, PrefetcherKind};
use crate::workload::{range_nnz, Workload};
use omega_graph::Csdb;
use omega_hetmem::{AccessOp, AccessPattern, Placement, ThreadMem};
use omega_linalg::kernels::{sparse_dot_row, STRIP};
use omega_linalg::DenseMatrix;
use std::ops::Range;

/// Static inputs shared by every workload of one SpMM phase.
pub(crate) struct KernelInputs<'a> {
    pub csdb: &'a Csdb,
    /// `(row range, home placement)` partition of the sparse matrix, in row
    /// order (one entry when NaDP is off).
    pub sparse_parts: &'a [(Range<u32>, Placement)],
    /// Home of the group's columns of `B`; prefetcher fills read from here.
    pub dense_home: Placement,
    /// Placement charged for dense fetches: the ASL-staged DRAM window when
    /// streaming is active, else `dense_home`.
    pub dense_read: Placement,
    /// Placement of the DRAM staging area (WoFP top-M entries live here).
    pub staging: Placement,
    /// Placement charged for result writes (the ASL DRAM window, or the
    /// result matrix's home when streaming is off).
    pub result: Placement,
}

/// Traffic statistics one workload's charges produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct KernelStats {
    /// Total `get_dense_nnz` fetches (step ③) — the Fig. 16 throughput
    /// numerator.
    pub dense_fetches: u64,
    /// Fetches served by the WoFP staging area.
    pub prefetch_hits: u64,
    /// Fetches that bypassed the staging area and paid the operand home's
    /// cost (`dense_fetches − prefetch_hits`).
    pub prefetch_misses: u64,
    /// Staged entries the workload never referenced — dead DRAM capacity
    /// plus a useless fill. Per workload, not per column: a degree-based
    /// prefetcher stages *globally* hot columns, and this counts how many of
    /// them this workload's rows never touch (the Fig. 19(b) high-η
    /// degradation).
    pub wasted_prefetches: u64,
}

impl KernelStats {
    /// Fold in another column batch of the same workload: fetches add up;
    /// the wasted count is a property of the workload's prefetcher,
    /// identical in every batch, so it is taken, not summed.
    pub(crate) fn absorb_batch(&mut self, batch: &KernelStats) {
        self.dense_fetches += batch.dense_fetches;
        self.prefetch_hits += batch.prefetch_hits;
        self.prefetch_misses += batch.prefetch_misses;
        self.wasted_prefetches = batch.wasted_prefetches;
    }
}

/// One column batch of the dense operand as the numeric step reads it:
/// row-major in whole strips, every row padded with zeros to a whole number
/// of them. Packed once per (group, batch) and shared by all of its row
/// blocks.
pub(crate) struct Panel {
    /// Columns in the batch.
    ncols: usize,
    /// Strips per panel row.
    strips: usize,
    data: Vec<[f32; STRIP]>,
}

/// Rows one pool task of [`Panel::pack`] copies.
const PACK_ROWS: usize = 1024;

impl Panel {
    /// Pack columns `cols` of `dense` on up to `threads` pool workers.
    pub(crate) fn pack(dense: &DenseMatrix, cols: Range<usize>, threads: usize) -> Panel {
        let strips = cols.len().div_ceil(STRIP);
        let mut data = vec![[0f32; STRIP]; dense.rows() * strips];
        let stride = strips * STRIP;
        let blocks: Vec<&mut [f32]> = (data.as_flattened_mut())
            .chunks_mut((PACK_ROWS * stride).max(1))
            .collect();
        omega_par::for_each_chunk_labeled("spmm.pack", threads, blocks, |bi, block| {
            let rows = bi * PACK_ROWS..bi * PACK_ROWS + block.len() / stride;
            dense.pack_rows(rows, cols.clone(), stride, block);
        });
        Panel {
            ncols: cols.len(),
            strips,
            data,
        }
    }
}

/// Charge one workload's share of a column batch `ncols` wide to `ctx`, in
/// Algorithm 1's order, and return its traffic stats. The arithmetic is
/// [`compute_batch`]'s; this is the simulated clock's half alone.
pub(crate) fn charge_workload(
    inp: &KernelInputs<'_>,
    workload: &Workload,
    ncols: usize,
    prefetcher: Option<&Prefetcher>,
    ctx: &mut ThreadMem,
) -> KernelStats {
    let nrows = workload.rows.len();
    if nrows == 0 || ncols == 0 {
        return KernelStats::default();
    }

    // Per-segment (placement-homogeneous) row/nnz counts for bulk charging.
    let segments = segment_workload(inp, workload);

    // Split of step-③ fetches between the staging area and the operand
    // home; constant across columns, computed once.
    let (member_fetches, total_fetches, wasted_prefetches) = match prefetcher {
        Some(p) if p.entries() > 0 => {
            let mut member = 0u64;
            let mut total = 0u64;
            let mut referenced = vec![false; inp.csdb.cols() as usize];
            let mut distinct = 0u64;
            for v in workload.rows.clone() {
                let (row_cols, _) = inp.csdb.row(v);
                total += row_cols.len() as u64;
                for &c in row_cols {
                    if p.contains(c) {
                        member += 1;
                        if !referenced[c as usize] {
                            referenced[c as usize] = true;
                            distinct += 1;
                        }
                    }
                }
            }
            (member, total, p.entries() as u64 - distinct)
        }
        _ => (0, workload.nnzs, 0),
    };
    let miss_fetches = total_fetches - member_fetches;
    let fill_entries = prefetcher.map_or(0, |p| p.entries() as u64);

    // Effective access pattern of step ③ — the paper's Eq. 5 model: a
    // workload's dense fetches degrade from sequential to random bandwidth
    // with its normalised entropy Z(H). Hub-block workloads (few long rows
    // sweeping most of the column) behave near-sequentially; scattered tail
    // workloads pay one media unit per fetch. We split each workload's
    // fetch traffic into a (1−Z) sequential share and a Z random share.
    let z = omega_graph::normalized_entropy(workload.entropy, inp.csdb.cols());
    let rand_count = |count: u64| -> u64 { ((count as f64) * z).round() as u64 };

    let mut stats = KernelStats {
        wasted_prefetches,
        ..KernelStats::default()
    };

    // Per-column charges, following Algorithm 1's column-outer loop: for
    // every dense column the workload re-streams its sparse structures
    // (steps ① + ②), fetches the dense entries (step ③) and writes its
    // result slice (step ⑤). A workload is a contiguous row range of the
    // degree-sorted CSDB matrix, so the sparse arrays stream sequentially.
    for _ in 0..ncols {
        for seg in &segments {
            ctx.charge_block(
                seg.placement,
                AccessOp::Read,
                AccessPattern::Seq,
                seg.rows * 8 + seg.nnzs * 8,
                2,
            );
        }
        if fill_entries > 0 {
            ctx.charge_block(
                inp.dense_home,
                AccessOp::Read,
                AccessPattern::Rand,
                fill_entries * 4,
                fill_entries,
            );
            ctx.charge_block(
                inp.staging,
                AccessOp::Write,
                AccessPattern::Seq,
                fill_entries * 16,
                1,
            );
        }

        // Step ③: dense fetches, split by staging membership and by the
        // Eq. 5 sequential/random shares.
        let charge_fetches = |placement: Placement, count: u64, ctx: &mut ThreadMem| {
            if count == 0 {
                return;
            }
            let rand = rand_count(count);
            let seq = count - rand;
            if seq > 0 {
                ctx.charge_block(placement, AccessOp::Read, AccessPattern::Seq, seq * 4, 1);
            }
            if rand > 0 {
                ctx.charge_block(
                    placement,
                    AccessOp::Read,
                    AccessPattern::Rand,
                    rand * 4,
                    rand,
                );
            }
        };
        charge_fetches(inp.staging, member_fetches, ctx);
        charge_fetches(inp.dense_read, miss_fetches, ctx);
        stats.dense_fetches += total_fetches;
        stats.prefetch_hits += member_fetches;
        stats.prefetch_misses += miss_fetches;

        // The dynamic (frequency-based) prefetcher maintains its top-M
        // hashmap during execution — counting, eviction and insertion cost
        // a few CPU ops per fetch (the "relatively large overhead" of
        // Fig. 19(b)'s low-eta end). The static degree-based flavour pays
        // nothing here.
        if matches!(
            prefetcher.map(|p| p.kind()),
            Some(PrefetcherKind::Frequency)
        ) {
            ctx.add_cpu_ops(total_fetches * 4);
        }

        // Step ⑤: sequential column-major result writes.
        ctx.charge_block(
            inp.result,
            AccessOp::Write,
            AccessPattern::Seq,
            nrows as u64 * 4,
            1,
        );
    }

    // Step ④: the multiply-accumulates, priced here and computed by
    // `compute_batch`.
    ctx.add_cpu_ops((workload.nnzs + nrows as u64) * ncols as u64);

    stats
}

/// Non-zeros plus rows one task of the numeric step covers, about: big
/// enough that a task outweighs its dispatch, small enough that a 2- to
/// 8-wide pool balances the skewed rows. A row is never split, so a hub
/// row past it is a block of its own.
const BLOCK_COST: u64 = 10_000;

/// Cut the rows of `csdb` into consecutive blocks of about [`BLOCK_COST`]
/// non-zeros plus rows each, covering `0..rows` in order. Decided by the
/// matrix alone — not by the wall width, the simulated thread count or
/// the batch — so a row's block is the same on every call.
pub(crate) fn row_blocks(csdb: &Csdb) -> Vec<Range<u32>> {
    let mut blocks = Vec::new();
    let (mut start, mut cost) = (0, 0);
    for v in 0..csdb.rows() {
        cost += csdb.degree(v) as u64 + 1;
        if cost >= BLOCK_COST {
            blocks.push(start..v + 1);
            (start, cost) = (v + 1, 0);
        }
    }
    if start < csdb.rows() {
        blocks.push(start..csdb.rows());
    }
    blocks
}

/// Step ④ for one column batch: `C[:, batch] = A · B[:, batch]`, with
/// `panel` the batch packed and `blocks` [`row_blocks`] of `csdb`. The
/// blocks run on up to `threads` pool workers, each writing its rows of
/// every batch column of `result` in place — no block is staged or copied.
/// Every entry is `sparse_dot` of its row with its column, so the result is
/// the same bits at every width.
pub(crate) fn compute_batch(
    csdb: &Csdb,
    blocks: &[Range<u32>],
    panel: &Panel,
    result: &mut DenseMatrix,
    batch: Range<usize>,
    threads: usize,
) {
    // Each block's slice of each batch column: the columns cut at the
    // block boundaries.
    let mut slices: Vec<Vec<&mut [f32]>> = blocks
        .iter()
        .map(|_| Vec::with_capacity(batch.len()))
        .collect();
    for mut column in result.cols_mut(batch) {
        for (rows, block) in blocks.iter().zip(&mut slices) {
            let (mine, rest) = std::mem::take(&mut column).split_at_mut(rows.len());
            block.push(mine);
            column = rest;
        }
    }
    let tasks = slices.iter_mut().map(std::slice::from_mut).collect();
    omega_par::for_each_chunk_labeled("spmm.block", threads, tasks, |bi, task| {
        let columns = &mut task[0];
        let ncols = panel.ncols;
        // A tile of consecutive rows, row-major, then each column's run of
        // them: one cache line of `C` per column per tile, where a row at a
        // time would touch a line of every column per row.
        let mut tile = vec![0f32; TILE_ROWS * ncols];
        let rows = blocks[bi].clone();
        for (ti, start) in rows.clone().step_by(TILE_ROWS).enumerate() {
            let end = rows.end.min(start + TILE_ROWS as u32);
            for (v, sums) in (start..end).zip(tile.chunks_exact_mut(ncols)) {
                let (row_cols, row_vals) = csdb.row(v);
                sparse_dot_row(row_cols, row_vals, &panel.data, panel.strips, sums);
            }
            let at = ti * TILE_ROWS;
            for (j, column) in columns.iter_mut().enumerate() {
                let run = &mut column[at..at + (end - start) as usize];
                for (r, out) in run.iter_mut().enumerate() {
                    *out = tile[r * ncols + j];
                }
            }
        }
    });
}

/// Rows of a block [`compute_batch`] computes before writing them out: 16
/// f32 are one 64-byte line of a column of `C`.
const TILE_ROWS: usize = 16;

struct Segment {
    placement: Placement,
    rows: u64,
    nnzs: u64,
}

/// Intersect the workload's rows with the sparse partition, producing
/// placement-homogeneous segments with row/nnz totals.
fn segment_workload(inp: &KernelInputs<'_>, workload: &Workload) -> Vec<Segment> {
    let rows = &workload.rows;
    inp.sparse_parts
        .iter()
        .filter_map(|(part, placement)| {
            let s = rows.start.max(part.start);
            let e = rows.end.min(part.end);
            (s < e).then(|| Segment {
                placement: *placement,
                rows: (e - s) as u64,
                nnzs: range_nnz(inp.csdb, s..e),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wofp::WofpConfig;
    use omega_graph::{Csdb, RmatConfig};
    use omega_hetmem::{DeviceKind, MemSystem, Topology};
    use omega_linalg::gaussian_matrix;

    fn setup() -> (Csdb, MemSystem) {
        let csr = RmatConfig::social(256, 2_000, 21).generate_csr().unwrap();
        (
            Csdb::from_csr(&csr).unwrap(),
            MemSystem::new(Topology::paper_machine_scaled(1 << 24)),
        )
    }

    const PM0: Placement = Placement::node(0, DeviceKind::Pm);

    /// Kernel inputs with everything homed on node 0's PM except the DRAM
    /// staging area.
    fn inputs<'a>(g: &'a Csdb, parts: &'a [(Range<u32>, Placement)]) -> KernelInputs<'a> {
        KernelInputs {
            csdb: g,
            sparse_parts: parts,
            dense_home: PM0,
            dense_read: PM0,
            staging: Placement::node(0, DeviceKind::Dram),
            result: PM0,
        }
    }

    /// [`compute_batch`] of columns `cols` of `b` over `blocks`, into a
    /// result whose every entry starts as NaN, at `threads` wide.
    fn compute(
        g: &Csdb,
        blocks: &[Range<u32>],
        b: &DenseMatrix,
        cols: Range<usize>,
        threads: usize,
    ) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(g.rows() as usize, b.cols());
        c.cols_mut(0..b.cols()).for_each(|col| col.fill(f32::NAN));
        let panel = Panel::pack(b, cols.clone(), threads);
        compute_batch(g, blocks, &panel, &mut c, cols, threads);
        c
    }

    /// Reference dense SpMM in permuted space.
    fn reference(csdb: &Csdb, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(csdb.rows() as usize, b.cols());
        for t in 0..b.cols() {
            let y = csdb.spmv(b.col(t)).unwrap();
            c.col_mut(t).copy_from_slice(&y);
        }
        c
    }

    /// Columns `cols` of `got` hold `want`'s bits and every other column
    /// is untouched (still NaN).
    fn assert_batch(got: &DenseMatrix, want: &DenseMatrix, cols: Range<usize>, what: &str) {
        for t in 0..got.cols() {
            for (r, (x, y)) in got.col(t).iter().zip(want.col(t)).enumerate() {
                if cols.contains(&t) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what}: ({r}, {t})");
                } else {
                    assert!(x.is_nan(), "{what}: ({r}, {t}) outside the batch written");
                }
            }
        }
    }

    #[test]
    fn kernel_computes_correct_product() {
        let (g, sys) = setup();
        let d = 8;
        let b = gaussian_matrix(g.rows() as usize, d, 3);
        let c = compute(&g, &row_blocks(&g), &b, 0..d, 1);
        assert_batch(&c, &reference(&g, &b), 0..d, "whole product");

        let parts = [(0..g.rows(), PM0)];
        let inp = inputs(&g, &parts);
        let w = Workload::contiguous(0, &g, 0, g.rows());
        let mut ctx = sys.thread_ctx(0);
        let stats = charge_workload(&inp, &w, d, None, &mut ctx);
        assert_eq!(stats.dense_fetches, g.nnz() as u64 * d as u64);
        assert_eq!(stats.prefetch_hits, 0);
        assert!(ctx.counters().total_bytes() > 0);
    }

    /// The row blocks tile the rows in order, and each closes as soon as
    /// it reaches [`BLOCK_COST`]: only the last may fall short, and only a
    /// single row may run past it.
    #[test]
    fn row_blocks_tile_the_rows_by_cost() {
        let csr = RmatConfig::social(4096, 60_000, 5).generate_csr().unwrap();
        let g = Csdb::from_csr(&csr).unwrap();
        let blocks = row_blocks(&g);
        assert!(blocks.len() > 4, "{} blocks", blocks.len());
        let cost = |rows: Range<u32>| range_nnz(&g, rows.clone()) + rows.len() as u64;
        let mut at = 0;
        for (i, rows) in blocks.iter().enumerate() {
            assert_eq!(rows.start, at);
            assert!(rows.end > rows.start, "empty block {i}");
            if i + 1 < blocks.len() {
                assert!(cost(rows.clone()) >= BLOCK_COST, "block {i} short");
            }
            assert!(
                cost(rows.start..rows.end - 1) < BLOCK_COST,
                "block {i} closed late"
            );
            at = rows.end;
        }
        assert_eq!(at, g.rows());
    }

    /// Whatever the row blocks and the batch's offset and width, every
    /// entry of the batch's columns is `spmv`'s for its (row, column), bit
    /// for bit, and no entry outside the batch is written — rows without a
    /// non-zero included, empty blocks, and single-row blocks at either end.
    #[test]
    fn every_row_set_and_batch_is_bit_equal_to_spmv() {
        let (g, _) = setup();
        let n = g.rows();
        assert!((0..n).any(|v| g.degree(v) == 0), "the graph has empty rows");
        let b = gaussian_matrix(n as usize, 61, 5);
        let expect = reference(&g, &b);
        let mid = n / 2;
        let balanced = row_blocks(&g);
        let all = 0..n;
        let whole = std::slice::from_ref(&all);
        let ragged = [0..1, 1..9, 9..9, 9..mid + 5, mid + 5..n - 1, n - 1..n];
        for blocks in [&balanced[..], whole, &ragged] {
            for cols in [0..61, 3..4, 5..13, 2..19, 7..56, 0..48, 10..27] {
                for threads in [1, 2] {
                    let c = compute(&g, blocks, &b, cols.clone(), threads);
                    let what = format!("{blocks:?} {cols:?} {threads} threads");
                    assert_batch(&c, &expect, cols.clone(), &what);
                }
            }
        }
    }

    /// Two halves of the rows computed as separate blocks compose the full
    /// product, and two workloads charged for the halves fetch what one
    /// charged for the whole does.
    #[test]
    fn split_workloads_compose_to_full_product() {
        let (g, sys) = setup();
        let d = 4;
        let b = gaussian_matrix(g.rows() as usize, d, 9);
        let mid = g.rows() / 2;
        let halves = compute(&g, &[0..mid, mid..g.rows()], &b, 0..d, 2);
        assert_batch(&halves, &reference(&g, &b), 0..d, "two halves");

        let parts = [(0..g.rows(), PM0)];
        let inp = inputs(&g, &parts);
        let mut ctx = sys.thread_ctx(0);
        let fetches = |w: &Workload, ctx: &mut ThreadMem| {
            charge_workload(&inp, w, d, None, ctx).dense_fetches
        };
        let w1 = Workload::contiguous(0, &g, 0, mid);
        let w2 = Workload::contiguous(1, &g, mid, g.rows());
        let whole = Workload::contiguous(0, &g, 0, g.rows());
        assert_eq!(
            fetches(&w1, &mut ctx) + fetches(&w2, &mut ctx),
            fetches(&whole, &mut ctx)
        );
    }

    #[test]
    fn prefetcher_moves_traffic_to_staging() {
        let (g, sys) = setup();
        let d = 2;
        let parts = [(0..g.rows(), PM0)];
        let inp = inputs(&g, &parts);
        let w = Workload::contiguous(0, &g, 0, g.rows());
        let p = Prefetcher::build(
            &WofpConfig {
                eta: 0.0,
                sigma: 0.2,
            },
            &g,
            &w,
            &g.in_degrees(),
        );
        assert!(p.entries() > 0);

        let mut with = sys.thread_ctx(0);
        let stats = charge_workload(&inp, &w, d, Some(&p), &mut with);
        let mut without = sys.thread_ctx(0);
        let _ = charge_workload(&inp, &w, d, None, &mut without);

        // Hits recorded and PM random-read bytes reduced.
        assert!(stats.prefetch_hits > 0);
        assert_eq!(
            stats.prefetch_hits + stats.prefetch_misses,
            stats.dense_fetches,
            "every fetch is either a staging hit or a miss"
        );
        assert!(
            stats.wasted_prefetches < p.entries() as u64,
            "a frequency prefetcher built from this workload stages mostly-referenced columns"
        );
        let pm_rand = |c: &omega_hetmem::ClassCounters| {
            c.bytes_where(|cl| cl.device == DeviceKind::Pm && cl.pattern == AccessPattern::Rand)
        };
        assert!(
            pm_rand(with.counters()) < pm_rand(without.counters()),
            "prefetcher should cut PM random traffic"
        );
        // Simulated time improves (heavy reuse on a skewed graph).
        let t_with = sys.model().thread_time(with.counters(), 1);
        let t_without = sys.model().thread_time(without.counters(), 1);
        assert!(t_with < t_without, "{t_with} !< {t_without}");
    }

    #[test]
    fn multi_part_charging_respects_homes() {
        let (g, sys) = setup();
        let mid = g.rows() / 2;
        let parts = [
            (0..mid, Placement::node(0, DeviceKind::Pm)),
            (mid..g.rows(), Placement::node(1, DeviceKind::Pm)),
        ];
        let inp = inputs(&g, &parts);
        // A workload straddling the boundary, run from node 0: part 1's
        // stream must be charged remote.
        let w = Workload::contiguous(0, &g, mid - 10, mid + 10);
        let mut ctx = sys.thread_ctx_on(0);
        let _ = charge_workload(&inp, &w, 2, None, &mut ctx);
        let remote = ctx.counters().bytes_where(|c| {
            c.locality == omega_hetmem::Locality::Remote && c.pattern == AccessPattern::Seq
        });
        assert!(remote > 0, "boundary-straddling reads include remote");
    }

    #[test]
    fn empty_workload_is_free() {
        let (g, sys) = setup();
        let parts = [(0..g.rows(), PM0)];
        let inp = inputs(&g, &parts);
        let w = Workload::contiguous(0, &g, g.rows(), g.rows());
        let mut ctx = sys.thread_ctx(0);
        let stats = charge_workload(&inp, &w, 2, None, &mut ctx);
        assert_eq!(stats.dense_fetches, 0);
        assert_eq!(ctx.counters().total_bytes(), 0);
    }
}
