//! Planning: where every operand lives, who pays for it, and what each
//! column group will run — everything [`SpmmEngine::spmm`] decides before a
//! single workload executes.
//!
//! The run-wide part is [`SpmmEngine::partition`] (NaDP's row / column /
//! thread split, or the OS-interleave stand-in). The per-group part is a
//! [`GroupPlan`], built once per group in Fig. 4's order: NaDP homes the
//! group's operand blocks and holds their capacity, ASL sizes the column
//! batches against what DRAM is left, EaTA cuts the row workloads, and WoFP
//! builds their prefetchers when ASL is not already staging whole batches.

use crate::asl::{partitions_required, AslPlan};
use crate::exec::SpmmEngine;
use crate::kernel::KernelInputs;
use crate::nadp::NadpPlan;
use crate::wofp::Prefetcher;
use crate::workload::{range_nnz, Workload};
use crate::Result;
use omega_graph::Csdb;
use omega_hetmem::{
    AccessOp, AccessPattern, ClassCounters, DeviceKind, MemReservation, NodeId, Placement,
    SimDuration, Topology,
};
use omega_linalg::DenseMatrix;
use std::cell::OnceCell;
use std::ops::Range;

/// Fraction of the staging device's free capacity (DRAM, but for the
/// PM-only mode) that ASL's streaming window may claim.
const ASL_DRAM_FRACTION: f64 = 0.5;

/// The run-wide layout: where the sparse matrix lives and which column
/// groups execute. Dropping it returns the sparse matrix's capacity.
pub(crate) struct Layout {
    /// Row ranges of the sparse matrix with the placement each is homed at,
    /// in row order (one entry when NaDP is off).
    pub sparse_parts: Vec<(Range<u32>, Placement)>,
    pub groups: Vec<Group>,
    /// Whether NaDP homed the groups (else one un-homed group owns it all).
    pub nadp: bool,
    /// The allocation scheme's cut of the rows, once per distinct group
    /// width: groups of equal width run the very same workloads.
    cuts: Vec<(usize, Vec<Workload>)>,
    /// Column in-degrees of the sparse matrix, counted when the first group
    /// builds prefetchers — never, when every group streams.
    in_degrees: OnceCell<Vec<u64>>,
    _sparse_leases: Vec<MemReservation>,
}

/// One column-group of the execution (a NaDP socket group, or the whole
/// matrix when NaDP is off).
pub(crate) struct Group {
    /// Home node of the group's dense/result/staging data (`None` =>
    /// interleaved, the w/o-NaDP configuration).
    pub home: Option<NodeId>,
    pub cols: Range<usize>,
    /// Global simulated-thread ids bound to this group.
    pub threads: Vec<usize>,
}

impl Group {
    /// Whether the group has anything to run.
    pub(crate) fn runs(&self) -> bool {
        !self.cols.is_empty() && !self.threads.is_empty()
    }

    /// The socket simulated thread `thread` of this group runs on: the
    /// group's home under NaDP's CPU binding, else the default block
    /// binding.
    pub(crate) fn node_of(&self, thread: usize, topo: &Topology) -> NodeId {
        self.home.unwrap_or_else(|| topo.node_of_thread(thread))
    }
}

/// Everything one group's execution needs, decided up front. Dropping the
/// plan returns the group's capacity.
pub(crate) struct GroupPlan<'a> {
    pub group: &'a Group,
    /// The dense operand `B`, borrowed in place; each batch's columns reach
    /// the kernel repacked as a `Panel`.
    pub dense: &'a DenseMatrix,
    /// Column batches; a single batch spanning the group unless `streaming`.
    pub asl: AslPlan,
    /// Whether batches stream through a reserved staging window.
    pub streaming: bool,
    /// One row workload per thread of the group.
    pub workloads: Vec<Workload>,
    pub prefetchers: Vec<Option<Prefetcher>>,
    /// Per workload: simulated cost of building its prefetcher.
    pub prefetch_overheads: Vec<SimDuration>,
    /// Traffic of those builds.
    pub setup_counters: ClassCounters,
    /// What the kernel reads and charges, the same for every batch —
    /// including the homes of the group's blocks of `B` and `C`
    /// (`dense_home`) and of its staging area (`staging`).
    pub inputs: KernelInputs<'a>,
    /// Capacity held while the group runs: its block of `B`, its block of
    /// `C`, and the streaming window.
    _leases: Vec<MemReservation>,
}

impl SpmmEngine {
    /// Home of `device` data owned by a group homed on `node`. The un-homed
    /// group of the w/o-NaDP configuration gets the OS `Interleave` policy
    /// (which on a one-socket machine is just node 0).
    fn home(&self, node: Option<NodeId>, device: DeviceKind) -> Placement {
        match node {
            Some(node) => Placement::node(node, device),
            None if self.system().topology().nodes() > 1 => Placement::interleaved(device),
            None => Placement::node(0, device),
        }
    }

    /// Hold `bytes` of capacity at `placement` until the lease drops.
    fn lease(&self, placement: Placement, bytes: u64) -> Result<MemReservation> {
        Ok(self.system().reserve(placement, bytes)?)
    }

    /// NaDP's partition of `a`'s rows, `d` dense columns and the simulated
    /// threads across sockets — or, with NaDP off or a single socket, one
    /// un-homed group owning everything. The sparse structures stay
    /// resident for the whole run: each row partition's home holds its nnz
    /// share of the bytes.
    pub(crate) fn partition(&self, a: &Csdb, d: usize) -> Result<Layout> {
        let cfg = self.config();
        let topo = self.system().topology();
        let sparse_dev = cfg.mode.operand_device();
        let nadp = cfg.nadp && topo.nodes() > 1;
        let (sparse_rows, groups) = if nadp {
            let plan = NadpPlan::build(a, d, topo, cfg.threads);
            let groups = (plan.dense_cols.into_iter().zip(plan.threads).enumerate())
                .map(|(k, (cols, threads))| Group {
                    home: Some(k),
                    cols,
                    threads,
                })
                .collect();
            (plan.sparse_rows, groups)
        } else {
            let all_rows = 0..a.rows();
            let everything = Group {
                home: None,
                cols: 0..d,
                threads: (0..cfg.threads).collect(),
            };
            (vec![all_rows], vec![everything])
        };
        // Row partition `k` lives on socket `k`; the single un-homed one is
        // interleaved like its group.
        let sparse_parts: Vec<_> = (sparse_rows.into_iter().enumerate())
            .map(|(k, rows)| (rows, self.home(nadp.then_some(k), sparse_dev)))
            .collect();
        let mut sparse_leases = Vec::with_capacity(sparse_parts.len());
        for (rows, placement) in &sparse_parts {
            let share = a.size_bytes() * range_nnz(a, rows.clone()) / (a.nnz() as u64).max(1);
            sparse_leases.push(self.lease(*placement, share)?);
        }
        let mut cuts: Vec<(usize, Vec<Workload>)> = Vec::new();
        for width in groups.iter().filter(|g| g.runs()).map(|g| g.threads.len()) {
            if cuts.iter().all(|(w, _)| *w != width) {
                cuts.push((width, cfg.alloc.allocate(a, width)));
            }
        }
        Ok(Layout {
            sparse_parts,
            groups,
            nadp,
            cuts,
            in_degrees: OnceCell::new(),
            _sparse_leases: sparse_leases,
        })
    }

    /// Plan one group of `C = A·B`. Capacity is taken in a fixed order
    /// (after the sparse partitions: `B`'s block, `C`'s block, then the
    /// streaming window out of what is left), so a machine too small fails
    /// on the same request every time.
    pub(crate) fn plan_group<'a>(
        &self,
        a: &'a Csdb,
        b: &'a DenseMatrix,
        layout: &'a Layout,
        group: &'a Group,
    ) -> Result<GroupPlan<'a>> {
        let cfg = self.config();
        let sparse_parts = &layout.sparse_parts[..];
        let dense_home = self.home(group.home, cfg.mode.dense_device());
        let staging_home = self.home(group.home, cfg.mode.staging_device());
        let block_bytes = |rows: usize| (rows * group.cols.len() * 4) as u64;
        let mut leases = vec![
            self.lease(dense_home, block_bytes(b.rows()))?,
            self.lease(dense_home, block_bytes(a.rows() as usize))?,
        ];
        let (asl, window) = self.plan_streaming(group, staging_home, a);
        let streaming = window.is_some();
        leases.extend(window);

        let width = group.threads.len();
        let cut = layout.cuts.iter().find(|(w, _)| *w == width);
        let mut workloads = cut.expect("a cut per running group's width").1.clone();
        for (w, &thread) in workloads.iter_mut().zip(&group.threads) {
            w.thread = thread;
        }

        // With ASL actively staging whole column batches in DRAM, WoFP has
        // nothing left to stage and is skipped (its role is the
        // streaming-disabled / budget-starved regime of Fig. 14).
        let wofp = cfg.wofp.as_ref().filter(|_| !streaming);
        let prefetchers: Vec<Option<Prefetcher>> = workloads
            .iter()
            .map(|w| {
                wofp.map(|wofp| {
                    let in_degrees = layout.in_degrees.get_or_init(|| a.in_degrees());
                    Prefetcher::build(wofp, a, w, in_degrees)
                })
            })
            .collect();

        // Each build is charged to its own thread, once, before the batches.
        let mut prefetch_overheads = vec![SimDuration::ZERO; workloads.len()];
        let mut setup_counters = ClassCounters::default();
        let topo = self.system().topology();
        for (i, p) in prefetchers.iter().enumerate() {
            let Some(p) = p else { continue };
            let w = &workloads[i];
            let mut ctx = self.system().thread_ctx_on(group.node_of(w.thread, topo));
            ctx.add_cpu_ops(p.build_cpu_ops);
            if p.build_scan_bytes > 0 {
                // The counting pass streams the workload's indices.
                let scanned = sparse_parts
                    .iter()
                    .find(|(part, _)| part.contains(&w.rows.start))
                    .map_or(dense_home, |(_, placement)| *placement);
                ctx.charge_block(
                    scanned,
                    AccessOp::Read,
                    AccessPattern::Seq,
                    p.build_scan_bytes,
                    1,
                );
            }
            prefetch_overheads[i] = self
                .system()
                .model()
                .thread_time(ctx.counters(), cfg.threads as u32);
            setup_counters.merge(ctx.counters());
        }

        // Streamed batches are read from and written to the window; without
        // streaming both go straight to the block's home.
        let working = if streaming { staging_home } else { dense_home };
        Ok(GroupPlan {
            group,
            dense: b,
            asl,
            streaming,
            workloads,
            prefetchers,
            prefetch_overheads,
            setup_counters,
            inputs: KernelInputs {
                csdb: a,
                sparse_parts,
                dense_home,
                dense_read: working,
                staging: staging_home,
                result: working,
            },
            _leases: leases,
        })
    }

    /// Resolve the ASL plan for a group: Eq. 9 against the staging budget,
    /// falling back to a streamed-result variant, then to no streaming.
    /// Returns the column batches and, when streaming, the lease on the
    /// double-buffered window.
    fn plan_streaming(
        &self,
        group: &Group,
        staging_home: Placement,
        a: &Csdb,
    ) -> (AslPlan, Option<MemReservation>) {
        let unstreamed = || (AslPlan::single(group.cols.clone()), None);
        if !self.config().asl {
            return unstreamed();
        }
        let (d, v, sparse_bytes) = (group.cols.len(), a.rows() as u64, a.size_bytes());
        let free = self.system().available(staging_home);
        let budget = (free as f64 * ASL_DRAM_FRACTION) as u64;

        let Some(parts) = partitions_required(d, v, 4, budget, sparse_bytes) else {
            return unstreamed();
        };
        let plan = AslPlan::new(group.cols.clone(), parts);
        // Reserve the double-buffered window (current + in-flight batch).
        let window = (plan.max_batch_cols() as u64 * v * 4).saturating_mul(2);
        match self.lease(staging_home, window.min(budget.max(1))) {
            Ok(lease) => (plan, Some(lease)),
            Err(_) => unstreamed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::nadp::NadpPlan;
    use crate::{SpmmConfig, SpmmEngine, SpmmError};
    use omega_graph::{Csdb, RmatConfig};
    use omega_hetmem::{DeviceKind, HetMemError, MemSystem, Topology};
    use omega_linalg::gaussian_matrix;

    fn graph(nodes: u32, edges: u64) -> Csdb {
        let csr = RmatConfig::social(nodes, edges, 77).generate_csr().unwrap();
        Csdb::from_csr(&csr).unwrap()
    }

    #[test]
    fn interleaved_operands_split_their_capacity_across_sockets() {
        // Without NaDP everything is page-interleaved, so each socket holds
        // half of the sparse matrix and half of B and C. PM per socket is
        // sized so that half fits with room to spare while the whole sparse
        // matrix plus half of B does not.
        let a = graph(256, 12_000);
        let b = gaussian_matrix(256, 4, 6);
        let dense_bytes = (b.rows() * b.cols() * 4) as u64;
        assert!(a.size_bytes() > 14 * dense_bytes, "{}", a.size_bytes());
        let pm = a.size_bytes() * 3 / 4 + 4 * dense_bytes;
        let sys = MemSystem::new(Topology::new(2, 4, 8 << 20, pm, 0).unwrap());
        let engine = SpmmEngine::new(
            sys.clone(),
            SpmmConfig {
                nadp: false,
                ..SpmmConfig::omega(4)
            },
        )
        .unwrap();
        let run = engine.spmm(&a, &b).unwrap();
        assert_eq!(run.result.shape(), (256, 4));
        for device in [DeviceKind::Dram, DeviceKind::Pm] {
            for node in 0..2 {
                assert_eq!(sys.used(node, device), 0, "leases returned");
                assert!(sys.peak(node, device) > 0, "both sockets held a share");
            }
        }
    }

    #[test]
    fn capacity_is_taken_sparse_then_b_then_c() {
        // Socket 0's PM holds its sparse partition and its block of B but
        // only half of its block of C: the run must fail on C, by name.
        let a = graph(512, 4_000);
        let b = gaussian_matrix(512, 16, 6);
        let block = (512 * 8 * 4) as u64;
        let rows = NadpPlan::build(&a, 16, &Topology::paper_machine_scaled(1 << 20), 4).sparse_rows;
        let share = |k: usize| -> u64 {
            let nnz: u64 = rows[k].clone().map(|v| a.degree(v) as u64).sum();
            a.size_bytes() * nnz / a.nnz() as u64
        };
        let pm = share(0) + block + block / 2;
        assert!(share(1) <= pm);
        let sys = MemSystem::new(Topology::new(2, 18, 8 << 20, pm, 0).unwrap());
        let err = SpmmEngine::new(sys, SpmmConfig::omega(4))
            .unwrap()
            .spmm(&a, &b)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SpmmError::Mem(HetMemError::OutOfMemory {
                    node: 0,
                    device: DeviceKind::Pm,
                    requested,
                    available,
                }) if requested == block && available == block / 2
            ),
            "{err}"
        );
    }
}
