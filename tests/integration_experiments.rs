//! Integration tests pinning the paper's headline experiment *shapes* at a
//! quick twin scale — the same assertions the full harness binaries print.

use omega_graph::{csdb_read_time, csr_read_time};
use omega_graph::{Csdb, Dataset};
use omega_hetmem::{BandwidthModel, DeviceKind, MemSystem, Topology};
use omega_linalg::gaussian_matrix;
use omega_spmm::{AllocScheme, SpmmConfig, SpmmEngine, WofpConfig};

const SCALE: u64 = 4_000;
const THREADS: usize = 16;
const DIM: usize = 32;

fn topo() -> Topology {
    Topology::twin(SCALE)
}

fn spmm_time(cfg: SpmmConfig, csdb: &Csdb, b: &omega_linalg::DenseMatrix) -> f64 {
    let eng = SpmmEngine::new(MemSystem::new(topo()), cfg).unwrap();
    eng.spmm(csdb, b).unwrap().makespan.as_secs_f64()
}

#[test]
fn table2_shape_eata_best_rr_worst() {
    let g = Dataset::Lj.load_scaled(SCALE).unwrap();
    let csdb = Csdb::from_csr(&g).unwrap();
    let b = gaussian_matrix(g.rows() as usize, DIM, 2);
    let rr = spmm_time(
        SpmmConfig {
            alloc: AllocScheme::RoundRobin,
            ..SpmmConfig::omega(THREADS)
        },
        &csdb,
        &b,
    );
    let wata = spmm_time(
        SpmmConfig {
            alloc: AllocScheme::WaTA,
            ..SpmmConfig::omega(THREADS)
        },
        &csdb,
        &b,
    );
    let eata = spmm_time(SpmmConfig::omega(THREADS), &csdb, &b);
    assert!(
        rr > wata * 1.5,
        "RR ({rr}) should clearly trail WaTA ({wata})"
    );
    assert!(
        eata <= wata * 1.02,
        "EaTA ({eata}) should not trail WaTA ({wata})"
    );
}

#[test]
fn fig13_shape_eata_cuts_tail_latency() {
    let g = Dataset::Lj.load_scaled(SCALE).unwrap();
    let csdb = Csdb::from_csr(&g).unwrap();
    let b = gaussian_matrix(g.rows() as usize, DIM, 3);
    let run = |alloc| {
        let eng = SpmmEngine::new(
            MemSystem::new(topo()),
            SpmmConfig {
                alloc,
                ..SpmmConfig::omega(THREADS)
            },
        )
        .unwrap();
        eng.spmm(&csdb, &b).unwrap().stats
    };
    let wata = run(AllocScheme::WaTA);
    let eata = run(AllocScheme::EaTA);
    assert!(
        eata.p99_s < wata.p99_s,
        "EaTA P99 {} should beat WaTA {}",
        eata.p99_s,
        wata.p99_s
    );
    assert!(eata.p95_s <= wata.p95_s * 1.02);
}

#[test]
fn fig14_shape_wofp_improves_pm_resident_spmm() {
    let g = Dataset::Or.load_scaled(SCALE).unwrap();
    let csdb = Csdb::from_csr(&g).unwrap();
    let b = gaussian_matrix(g.rows() as usize, DIM, 4);
    let without = spmm_time(
        SpmmConfig {
            asl: false,
            wofp: None,
            ..SpmmConfig::omega(THREADS)
        },
        &csdb,
        &b,
    );
    let with = spmm_time(
        SpmmConfig {
            asl: false,
            wofp: Some(WofpConfig::default()),
            ..SpmmConfig::omega(THREADS)
        },
        &csdb,
        &b,
    );
    let improvement = 1.0 - with / without;
    assert!(
        improvement > 0.10,
        "WoFP should cut >=10% of PM-resident SpMM time (got {:.1}%)",
        improvement * 100.0
    );
}

#[test]
fn fig15_shape_nadp_beats_interleave() {
    let g = Dataset::Or.load_scaled(SCALE).unwrap();
    let csdb = Csdb::from_csr(&g).unwrap();
    let b = gaussian_matrix(g.rows() as usize, DIM, 5);
    let with = spmm_time(
        SpmmConfig {
            asl: false,
            ..SpmmConfig::omega(THREADS)
        },
        &csdb,
        &b,
    );
    let without = spmm_time(
        SpmmConfig {
            asl: false,
            nadp: false,
            ..SpmmConfig::omega(THREADS)
        },
        &csdb,
        &b,
    );
    assert!(
        without / with > 1.1,
        "NaDP should speed the PM-resident SpMM by >=1.1x (got {:.2}x)",
        without / with
    );
}

#[test]
fn fig16_shape_throughput_grows_with_threads_to_saturation() {
    let g = Dataset::Pk.load_scaled(SCALE).unwrap();
    let csdb = Csdb::from_csr(&g).unwrap();
    let b = gaussian_matrix(g.rows() as usize, DIM, 6);
    let tp = |threads| {
        let eng = SpmmEngine::new(MemSystem::new(topo()), SpmmConfig::omega(threads)).unwrap();
        eng.spmm(&csdb, &b).unwrap().throughput_mnnz_s()
    };
    let t1 = tp(1);
    let t4 = tp(4);
    let t8 = tp(8);
    assert!(t4 > t1 * 2.0, "throughput should scale: {t1} -> {t4}");
    assert!(t8 > t4, "still scaling at 8 threads: {t4} -> {t8}");
}

#[test]
fn fig19a_shape_csdb_reads_faster() {
    let model = BandwidthModel::paper_machine();
    for d in [Dataset::Pk, Dataset::Tw] {
        let g = d.load_scaled(SCALE).unwrap();
        let csdb = Csdb::from_csr(&g).unwrap();
        let speedup = csr_read_time(&g, &model, DeviceKind::Pm).ratio(csdb_read_time(
            &csdb,
            &model,
            DeviceKind::Pm,
        ));
        assert!(
            speedup > 1.1 && speedup < 2.5,
            "{}: CSDB read speedup {speedup} outside the Fig. 19(a) band",
            d.label()
        );
    }
}

#[test]
fn fig19c_shape_sigma_sweep_is_u_shaped() {
    let g = Dataset::Pk.load_scaled(SCALE).unwrap();
    let csdb = Csdb::from_csr(&g).unwrap();
    let b = gaussian_matrix(g.rows() as usize, DIM, 7);
    let time = |sigma| {
        spmm_time(
            SpmmConfig {
                asl: false,
                wofp: Some(WofpConfig {
                    sigma,
                    ..WofpConfig::default()
                }),
                ..SpmmConfig::omega(THREADS)
            },
            &csdb,
            &b,
        )
    };
    let tiny = time(0.002);
    let mid = time(0.1);
    let huge = time(0.9);
    assert!(
        mid < tiny,
        "more staging should beat near-none: {mid} !< {tiny}"
    );
    assert!(
        huge > mid * 0.95,
        "oversized staging should stop helping: {huge} vs {mid}"
    );
}
