//! Property-based tests of the scheduling and streaming maths.

use omega_hetmem::SimDuration;
use omega_spmm::asl::{partitions_required, streaming_schedule, AslPlan};
use omega_spmm::entropy::{affine_cost_factor, bandwidth_factor};
use proptest::prelude::*;

fn durs(ns: Vec<u64>) -> Vec<SimDuration> {
    ns.into_iter().map(SimDuration::from_nanos).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The streaming schedule is bounded below by the compute-only total
    /// plus the first load, and above by the fully-serialised sum.
    #[test]
    fn streaming_makespan_bounds(
        batches in proptest::collection::vec(
            (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
            1..20,
        )
    ) {
        let compute = durs(batches.iter().map(|b| b.0).collect());
        let load = durs(batches.iter().map(|b| b.1).collect());
        let flush = durs(batches.iter().map(|b| b.2).collect());
        let m = streaming_schedule(&compute, &load, &flush).makespan;

        let total_compute: u64 = batches.iter().map(|b| b.0).sum();
        let serial: u64 = batches.iter().map(|b| b.0 + b.1 + b.2).sum();
        prop_assert!(m.as_nanos() >= total_compute + batches[0].1);
        prop_assert!(m.as_nanos() <= serial);
    }

    /// With nothing to pre-load the schedule is a plain flush pipeline:
    /// bounded the same way, and never better than perfect overlap.
    #[test]
    fn pipeline_makespan_bounds(
        batches in proptest::collection::vec((0u64..1_000_000, 0u64..1_000_000), 1..20)
    ) {
        let compute = durs(batches.iter().map(|b| b.0).collect());
        let flush = durs(batches.iter().map(|b| b.1).collect());
        let idle = vec![SimDuration::ZERO; compute.len()];
        let m = streaming_schedule(&compute, &idle, &flush).makespan;
        let total_compute: u64 = batches.iter().map(|b| b.0).sum();
        let total_flush: u64 = batches.iter().map(|b| b.1).sum();
        prop_assert!(m.as_nanos() >= total_compute.max(total_flush));
        prop_assert!(m.as_nanos() <= total_compute + total_flush);
    }

    /// Eq. 9 is monotone: more budget never needs more partitions, and the
    /// returned count always satisfies the inequality it solves.
    #[test]
    fn eq9_monotone_and_sound(
        d in 1usize..512,
        v in 1u64..1_000_000,
        budget in 1u64..(16u64 << 30),
        extra in 0u64..(1u64 << 30),
        m_s in 0u64..(1u64 << 28),
    ) {
        let a = partitions_required(d, v, 4, budget, m_s);
        let b = partitions_required(d, v, 4, budget + extra, m_s);
        match (a, b) {
            (Some(na), Some(nb)) => {
                prop_assert!(nb <= na, "budget up, partitions up: {na} -> {nb}");
                // Soundness: the chosen n fits the Eq. 8 inequality.
                let dv = d as u64 * v * 4;
                let lhs = 3.0 * dv as f64 / na as f64 + (m_s + 2 * dv) as f64;
                prop_assert!(lhs <= budget as f64 + 1.0 + 3.0 * dv as f64 * 1e-9);
            }
            (Some(_), None) => prop_assert!(false, "more budget cannot fail"),
            _ => {}
        }
    }

    /// An ASL plan covers its column range exactly, in order, with batch
    /// widths differing by at most one.
    #[test]
    fn asl_plan_partitions_columns(start in 0usize..1000, width in 1usize..500, parts in 1u64..64) {
        let plan = AslPlan::new(start..start + width, parts);
        let mut at = start;
        for b in &plan.batches {
            prop_assert_eq!(b.start, at);
            at = b.end;
        }
        prop_assert_eq!(at, start + width);
        let min = plan.batches.iter().map(|b| b.len()).min().unwrap();
        prop_assert!(plan.max_batch_cols() - min <= 1);
        prop_assert!(plan.num_batches() as u64 <= parts.max(1));
    }

    /// The two Eq. 5 factor forms share endpoints and stay within [β, 1]
    /// (bandwidth form) / [1, 1/β] (cost form).
    #[test]
    fn cost_factor_bounds(z in 0.0f64..1.0, beta in 0.01f64..1.0) {
        let bw = bandwidth_factor(z, beta);
        prop_assert!(bw <= 1.0 + 1e-12 && bw >= beta - 1e-12);
        let cost = affine_cost_factor(z, beta);
        prop_assert!(cost >= 1.0 - 1e-12 && cost <= 1.0 / beta + 1e-9);
        // Shared endpoints.
        prop_assert!((bandwidth_factor(0.0, beta) - 1.0).abs() < 1e-12);
        prop_assert!((affine_cost_factor(1.0, beta) - 1.0 / beta).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every allocation scheme *tiles* the rows: workload ranges start at
    /// row 0, each begins where the previous one ends, the last ends at the
    /// matrix's last row, and each workload's nnz is the sum of its rows'
    /// degrees — on arbitrary power-law graphs, any thread count. The
    /// executor's one-slice copy of a workload's block into the result
    /// rests on this.
    #[test]
    fn allocation_partitions_rows_exactly_once(
        nodes in 16u32..400,
        edge_factor in 2u64..10,
        seed in 0u64..1_000,
        threads in 1usize..33,
    ) {
        use omega_graph::{Csdb, RmatConfig};
        use omega_spmm::AllocScheme;

        let csr = RmatConfig::social(nodes, nodes as u64 * edge_factor, seed)
            .generate_csr()
            .unwrap();
        let csdb = Csdb::from_csr(&csr).unwrap();
        for scheme in [
            AllocScheme::RoundRobin,
            AllocScheme::WaTA,
            AllocScheme::eata_default(),
        ] {
            let ws = scheme.allocate(&csdb, threads);
            let label = scheme.label();
            prop_assert_eq!(ws.len(), threads, "{}", label);
            prop_assert_eq!(ws[0].rows.start, 0, "{}", label);
            for pair in ws.windows(2) {
                prop_assert_eq!(pair[0].rows.end, pair[1].rows.start, "{}: gap or overlap", label);
            }
            prop_assert_eq!(ws[threads - 1].rows.end, csdb.rows(), "{}", label);
            for w in &ws {
                let degrees: u64 = w.rows.clone().map(|r| csdb.degree(r) as u64).sum();
                prop_assert_eq!(w.nnzs, degrees, "{}: thread {}", label, w.thread);
            }
        }
    }

    /// WaTA's nnz imbalance is bounded by its chunking granularity: no
    /// thread can exceed the fair share by more than one hub row (plus the
    /// integer-division slack of recomputed targets).
    #[test]
    fn wata_imbalance_is_bounded_by_a_hub_row(
        nodes in 16u32..400,
        edge_factor in 2u64..10,
        seed in 0u64..1_000,
        threads in 1usize..33,
    ) {
        use omega_graph::{Csdb, RmatConfig};
        use omega_spmm::AllocScheme;

        let csr = RmatConfig::social(nodes, nodes as u64 * edge_factor, seed)
            .generate_csr()
            .unwrap();
        let csdb = Csdb::from_csr(&csr).unwrap();
        let max_degree = (0..csdb.rows()).map(|r| csdb.degree(r) as u64).max().unwrap_or(0);
        let ws = AllocScheme::WaTA.allocate(&csdb, threads);
        let fair = csdb.nnz() as u64 / threads as u64;
        for w in &ws {
            prop_assert!(
                w.nnzs <= fair + max_degree + threads as u64,
                "thread {} holds {} nnz, fair share {} + hub {}",
                w.thread, w.nnzs, fair, max_degree
            );
        }
    }

    /// EaTA never predicts a worse makespan than the balanced WaTA split it
    /// perturbs: its heaviest entropy-priced workload is at most WaTA's
    /// (this is the fixed point Algorithm 2 approximates, and the
    /// implementation falls back to WaTA when perturbing does not help).
    #[test]
    fn eata_predicted_makespan_never_worse_than_wata(
        nodes in 16u32..400,
        edge_factor in 2u64..10,
        seed in 0u64..1_000,
        threads in 2usize..33,
        beta in 0.05f64..0.9,
    ) {
        use omega_graph::{Csdb, RmatConfig};
        use omega_graph::normalized_entropy;
        use omega_spmm::AllocScheme;

        let csr = RmatConfig::social(nodes, nodes as u64 * edge_factor, seed)
            .generate_csr()
            .unwrap();
        let csdb = Csdb::from_csr(&csr).unwrap();
        let predicted_max = |ws: &[omega_spmm::Workload]| -> f64 {
            ws.iter()
                .map(|w| {
                    let z = normalized_entropy(w.entropy, csdb.cols());
                    w.nnzs as f64 * affine_cost_factor(z, beta)
                })
                .fold(0.0, f64::max)
        };
        let wata = predicted_max(&AllocScheme::WaTA.allocate(&csdb, threads));
        let eata = predicted_max(&AllocScheme::EaTA { beta }.allocate(&csdb, threads));
        prop_assert!(
            eata <= wata * (1.0 + 1e-9),
            "EaTA predicts {eata}, WaTA {wata}"
        );
    }
}

/// The engine's numbers against an oracle that owes nothing to the engine:
/// column `t` of `engine.spmm(&a, &b).result` is `a.spmv(b.col(t))`, bit for
/// bit — for column counts on every side of the 8-wide strip, every engine
/// configuration of the `spmm_matrix` golden, DRAM small enough that ASL
/// cuts a group's columns into several batches, a matrix with empty rows,
/// and 1, 2 and 8 wall threads.
#[test]
fn every_result_column_is_spmv_bit_for_bit() {
    use omega_graph::{Csdb, RmatConfig};
    use omega_hetmem::{MemSystem, Topology};
    use omega_linalg::gaussian_matrix;
    use omega_obs::Recorder;
    use omega_spmm::{AllocScheme, MemMode, SpmmConfig, SpmmEngine, WofpConfig};

    let csr = RmatConfig::social(384, 3_000, 77).generate_csr().unwrap();
    let a = Csdb::from_csr(&csr).unwrap();
    assert!((0..a.rows()).any(|v| a.degree(v) == 0), "empty rows");
    let degree_wofp = WofpConfig {
        eta: 1.0,
        sigma: 0.1,
    };
    let configs = [
        SpmmConfig::omega(4),
        SpmmConfig::omega_dram(4),
        SpmmConfig::omega_pm(4),
        SpmmConfig::omega(4)
            .with_alloc(AllocScheme::RoundRobin)
            .with_nadp(false),
        SpmmConfig::omega(4).with_alloc(AllocScheme::WaTA),
        SpmmConfig::omega(4).with_wofp(None),
        SpmmConfig::omega(4).with_nadp(false),
        SpmmConfig::omega(4).with_asl(None),
        SpmmConfig {
            mode: MemMode::SparsePmDenseDram,
            ..SpmmConfig::omega(4)
        },
        SpmmConfig::omega(4)
            .with_wofp(Some(degree_wofp))
            .with_asl(None),
    ];
    let mut most_batches = 0;
    for cols in [1usize, 7, 8, 9, 33, 80] {
        let b = gaussian_matrix(a.cols() as usize, cols, cols as u64);
        let oracle: Vec<Vec<f32>> = (0..cols).map(|t| a.spmv(b.col(t)).unwrap()).collect();
        for cfg in &configs {
            for wall_threads in [1, 2, 8] {
                let rec = Recorder::enabled();
                let sys = MemSystem::new(Topology::paper_machine_scaled(160 << 10));
                let engine = SpmmEngine::new(sys, *cfg)
                    .unwrap()
                    .with_recorder(rec.clone())
                    .with_wall_threads(wall_threads);
                let run = engine.spmm(&a, &b).unwrap();
                let spans = rec.spans();
                let batches = spans.iter().filter(|s| s.name == "asl.batch").count();
                most_batches = most_batches.max(batches);
                for (t, want) in oracle.iter().enumerate() {
                    let got = run.result.col(t);
                    assert!(
                        got.iter()
                            .zip(want)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{cfg:?}, {cols} columns, {wall_threads} wall threads: column {t}"
                    );
                }
            }
        }
    }
    assert!(
        most_batches > 2,
        "some plan streamed several batches a group"
    );
}
