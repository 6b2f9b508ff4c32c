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
//! The *host* computes step ④ the other way round — sparse rows outermost,
//! [`STRIP`] dense columns per pass over a row — against a [`Panel`]: the
//! batch's columns of `B` repacked row-major, so that one non-zero reads one
//! 32-byte run of one panel row instead of gathering from eight 80 KB
//! columns. The two orders meet in the `(cols, vals)` sequence of a row:
//! every output element is `sparse_dot` of that sequence with its column,
//! bit for bit, whichever loop nest produced it, so the model may keep
//! pricing the paper's traffic while the host does the cache-friendly walk.

use crate::wofp::{Prefetcher, PrefetcherKind};
use crate::workload::{range_nnz, Workload};
use omega_graph::Csdb;
use omega_hetmem::{AccessOp, AccessPattern, Placement, ThreadMem};
use omega_linalg::kernels::{sparse_dot_strip, STRIP};
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

/// Traffic statistics one workload's execution produced.
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
/// of them. Packed once per (group, batch) and shared by all of its
/// workloads.
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

/// Execute one workload over the column batch packed in `panel`, returning
/// the result block (column-major, `rows.len() × cols.len()`) and the
/// traffic stats. All traffic is charged to `ctx`.
pub(crate) fn run_workload(
    inp: &KernelInputs<'_>,
    workload: &Workload,
    panel: &Panel,
    prefetcher: Option<&Prefetcher>,
    ctx: &mut ThreadMem,
) -> (Vec<f32>, KernelStats) {
    let nrows = workload.rows.len();
    let ncols = panel.ncols;
    let mut out = vec![0f32; nrows * ncols];
    if nrows == 0 || ncols == 0 {
        return (out, KernelStats::default());
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

    // Step ④: the actual math, rows outermost, a strip of columns per pass
    // over a row's non-zeros (the row stays in L1 from strip to strip).
    for (li, v) in workload.rows.clone().enumerate() {
        let (row_cols, row_vals) = inp.csdb.row(v);
        for strip in 0..panel.strips {
            let sums = sparse_dot_strip(row_cols, row_vals, &panel.data, panel.strips, strip);
            for (t, &sum) in (strip * STRIP..ncols).zip(&sums) {
                out[t * nrows + li] = sum;
            }
        }
    }
    ctx.add_cpu_ops((workload.nnzs + nrows as u64) * ncols as u64);

    (out, stats)
}

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

    /// [`run_workload`] over columns `cols` of `b`, packed for this call.
    fn run(
        inp: &KernelInputs<'_>,
        w: &Workload,
        b: &DenseMatrix,
        cols: Range<usize>,
        prefetcher: Option<&Prefetcher>,
        ctx: &mut ThreadMem,
    ) -> (Vec<f32>, KernelStats) {
        run_workload(inp, w, &Panel::pack(b, cols, 1), prefetcher, ctx)
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

    #[test]
    fn kernel_computes_correct_product() {
        let (g, sys) = setup();
        let d = 8;
        let b = gaussian_matrix(g.rows() as usize, d, 3);
        let parts = [(0..g.rows(), PM0)];
        let inp = inputs(&g, &parts);
        let w = Workload::contiguous(0, &g, 0, g.rows());
        let mut ctx = sys.thread_ctx(0);
        let (out, stats) = run(&inp, &w, &b, 0..d, None, &mut ctx);
        let expect = reference(&g, &b);
        for t in 0..d {
            for r in 0..g.rows() as usize {
                let got = out[t * g.rows() as usize + r];
                assert!(
                    (got - expect[(r, t)]).abs() < 1e-3,
                    "mismatch at ({r},{t}): {got} vs {}",
                    expect[(r, t)]
                );
            }
        }
        assert_eq!(stats.dense_fetches, g.nnz() as u64 * d as u64);
        assert_eq!(stats.prefetch_hits, 0);
        assert!(ctx.counters().total_bytes() > 0);
    }

    /// Whatever the row range and the batch's offset and width, every entry
    /// of the block is `spmv`'s for its (row, column), bit for bit — rows
    /// without a non-zero included, and ranges that cross a NaDP part
    /// boundary.
    #[test]
    fn every_row_set_and_batch_is_bit_equal_to_spmv() {
        let (g, sys) = setup();
        let n = g.rows();
        assert!((0..n).any(|v| g.degree(v) == 0), "the graph has empty rows");
        let b = gaussian_matrix(n as usize, 21, 5);
        let expect = reference(&g, &b);
        let mid = n / 2;
        let parts = [(0..mid, PM0), (mid..n, Placement::node(1, DeviceKind::Pm))];
        let inp = inputs(&g, &parts);
        let workloads = [
            Workload::contiguous(0, &g, 9, 9),
            Workload::contiguous(0, &g, n - 1, n),
            Workload::contiguous(0, &g, 0, n),
            Workload::contiguous(0, &g, mid - 17, mid + 5),
        ];
        let mut ctx = sys.thread_ctx(0);
        for cols in [0..21, 3..4, 5..13, 2..19] {
            let panel = Panel::pack(&b, cols.clone(), 2);
            for w in &workloads {
                let (out, _) = run_workload(&inp, w, &panel, None, &mut ctx);
                assert_eq!(out.len(), w.rows.len() * cols.len(), "{:?}", w.rows);
                for (block_col, t) in out.chunks_exact(w.rows.len().max(1)).zip(cols.clone()) {
                    for (v, got) in w.rows.clone().zip(block_col) {
                        let want = expect[(v as usize, t)];
                        assert_eq!(got.to_bits(), want.to_bits(), "{:?} ({v}, {t})", w.rows);
                    }
                }
            }
        }
    }

    #[test]
    fn split_workloads_compose_to_full_product() {
        let (g, sys) = setup();
        let d = 4;
        let b = gaussian_matrix(g.rows() as usize, d, 9);
        let parts = [(0..g.rows(), PM0)];
        let inp = inputs(&g, &parts);
        let mid = g.rows() / 2;
        let w1 = Workload::contiguous(0, &g, 0, mid);
        let w2 = Workload::contiguous(1, &g, mid, g.rows());
        let mut ctx = sys.thread_ctx(0);
        let (o1, _) = run(&inp, &w1, &b, 0..d, None, &mut ctx);
        let (o2, _) = run(&inp, &w2, &b, 0..d, None, &mut ctx);
        let expect = reference(&g, &b);
        for t in 0..d {
            for r in 0..mid as usize {
                assert!((o1[t * mid as usize + r] - expect[(r, t)]).abs() < 1e-3);
            }
            let n2 = (g.rows() - mid) as usize;
            for r in 0..n2 {
                assert!((o2[t * n2 + r] - expect[(mid as usize + r, t)]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn prefetcher_moves_traffic_to_staging() {
        let (g, sys) = setup();
        let d = 2;
        let b = gaussian_matrix(g.rows() as usize, d, 1);
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
        let (out_with, stats) = run(&inp, &w, &b, 0..d, Some(&p), &mut with);
        let mut without = sys.thread_ctx(0);
        let (out_without, _) = run(&inp, &w, &b, 0..d, None, &mut without);

        // Identical numeric results.
        assert_eq!(out_with, out_without);
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
        let b = gaussian_matrix(g.rows() as usize, 2, 4);
        let parts = [
            (0..mid, Placement::node(0, DeviceKind::Pm)),
            (mid..g.rows(), Placement::node(1, DeviceKind::Pm)),
        ];
        let inp = inputs(&g, &parts);
        // A workload straddling the boundary, run from node 0: part 1's
        // stream must be charged remote.
        let w = Workload::contiguous(0, &g, mid - 10, mid + 10);
        let mut ctx = sys.thread_ctx_on(0);
        let _ = run(&inp, &w, &b, 0..2, None, &mut ctx);
        let remote = ctx.counters().bytes_where(|c| {
            c.locality == omega_hetmem::Locality::Remote && c.pattern == AccessPattern::Seq
        });
        assert!(remote > 0, "boundary-straddling reads include remote");
    }

    #[test]
    fn empty_workload_is_free() {
        let (g, sys) = setup();
        let b = gaussian_matrix(g.rows() as usize, 2, 8);
        let parts = [(0..g.rows(), PM0)];
        let inp = inputs(&g, &parts);
        let w = Workload::contiguous(0, &g, g.rows(), g.rows());
        let mut ctx = sys.thread_ctx(0);
        let (out, stats) = run(&inp, &w, &b, 0..2, None, &mut ctx);
        assert!(out.is_empty());
        assert_eq!(stats.dense_fetches, 0);
        assert_eq!(ctx.counters().total_bytes(), 0);
    }
}
