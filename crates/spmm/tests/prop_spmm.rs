//! Property-based tests of the engine through its public API: the
//! allocation schemes' row tilings and every result column against
//! `spmv`.

use proptest::prelude::*;

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
            AllocScheme::EaTA,
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
}

/// The engine's numbers against an oracle that owes nothing to the engine:
/// column `t` of `engine.spmm(&a, &b).result` is `a.spmv(b.col(t))`, bit for
/// bit — for column counts on every side of the 8-wide strip and, halved by
/// NaDP, of the row body's 16-wide registers and 48-wide passes, every engine
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
        SpmmConfig {
            alloc: AllocScheme::RoundRobin,
            nadp: false,
            ..SpmmConfig::omega(4)
        },
        SpmmConfig {
            alloc: AllocScheme::WaTA,
            ..SpmmConfig::omega(4)
        },
        SpmmConfig {
            wofp: None,
            ..SpmmConfig::omega(4)
        },
        SpmmConfig {
            nadp: false,
            ..SpmmConfig::omega(4)
        },
        SpmmConfig {
            asl: false,
            ..SpmmConfig::omega(4)
        },
        SpmmConfig {
            mode: MemMode::SparsePmDenseDram,
            ..SpmmConfig::omega(4)
        },
        SpmmConfig {
            wofp: Some(degree_wofp),
            asl: false,
            ..SpmmConfig::omega(4)
        },
    ];
    let mut most_batches = 0;
    for cols in [1usize, 7, 8, 9, 31, 32, 33, 64, 80, 96, 97] {
        let b = gaussian_matrix(a.cols() as usize, cols, cols as u64);
        let oracle: Vec<Vec<f32>> = (0..cols).map(|t| a.spmv(b.col(t)).unwrap()).collect();
        // 160 KB of DRAM a socket up to 80 columns, and as much more per
        // column past them as they need: the DRAM-only configuration must
        // fit its blocks of B and C, and the others keep streaming.
        let dram = (160 << 10) * cols.max(80) as u64 / 80;
        for cfg in &configs {
            for wall_threads in [1, 2, 8] {
                let rec = Recorder::enabled();
                let sys = MemSystem::new(Topology::paper_machine_scaled(dram));
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
