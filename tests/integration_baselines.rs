//! Integration tests for the comparator systems: the paper's orderings must
//! hold on the dataset twins.

use omega::{Omega, OmegaConfig, SystemVariant};
use omega_baselines::ProneBaseline;
use omega_baselines::{omega_spmm_time, FusedMm, SemSpmm};
use omega_baselines::{DistConfig, DistDglLike, DistGerLike};
use omega_baselines::{GinexLike, MariusLike, SsdSystemConfig};
use omega_graph::{Csdb, Dataset};
use omega_hetmem::{SimDuration, Topology};
use omega_linalg::gaussian_matrix;

const SCALE: u64 = 4_000;
const THREADS: usize = 16;
const DIM: usize = 32;

fn topo() -> Topology {
    Topology::paper_machine_scaled((24 << 20) / 4)
}

fn omega_time(d: Dataset) -> SimDuration {
    let g = d.load_scaled(SCALE).unwrap();
    Omega::new(
        OmegaConfig::default()
            .with_topology(topo())
            .with_threads(THREADS)
            .with_dim(DIM),
    )
    .unwrap()
    .embed(&g)
    .unwrap()
    .total_time()
}

#[test]
fn fig12_ordering_on_pk_twin() {
    let d = Dataset::Pk;
    let g = d.load_scaled(SCALE).unwrap();
    let omega = omega_time(d);
    let prone_dram = ProneBaseline::dram(topo(), THREADS, DIM)
        .run(&g)
        .time()
        .unwrap();
    let prone_hm = ProneBaseline::hm(topo(), THREADS, DIM)
        .run(&g)
        .time()
        .unwrap();
    let cfg = SsdSystemConfig {
        threads: THREADS,
        dim: DIM,
        ..SsdSystemConfig::default()
    };
    let ginex = GinexLike::new(topo(), cfg).run(&g).time().unwrap();
    let marius = MariusLike::new(topo(), cfg).run(&g).time().unwrap();

    // The paper's Fig. 12 ordering: OMeGa beats every competitor.
    for (name, t) in [
        ("ProNE-DRAM", prone_dram),
        ("ProNE-HM", prone_hm),
        ("Ginex", ginex),
        ("MariusGNN", marius),
    ] {
        assert!(
            t > omega,
            "{name} ({t}) should be slower than OMeGa ({omega})"
        );
    }
    // And ProNE-HM is slower than ProNE-DRAM (the PM sparse streams).
    assert!(prone_hm > prone_dram);
}

#[test]
fn dram_only_systems_oom_on_billion_scale_twins() {
    for d in [Dataset::Tw2010, Dataset::Fr] {
        let g = d.load_scaled(SCALE).unwrap();
        let cfg = OmegaConfig::default()
            .with_topology(topo())
            .with_threads(THREADS)
            .with_dim(64)
            .with_variant(SystemVariant::OmegaDram);
        let err = Omega::new(cfg).unwrap().embed(&g).unwrap_err();
        assert!(err.is_oom(), "{} should OOM on DRAM", d.label());
        // FusedMM (in-memory) fails on TW-2010 as the paper reports.
        let fused = FusedMm::new(topo(), THREADS).run_spmm(&g, 64);
        assert!(fused.is_oom(), "FusedMM should OOM on {}", d.label());
        // OMeGa itself completes.
        let cfg = OmegaConfig::default()
            .with_topology(topo())
            .with_threads(THREADS)
            .with_dim(64);
        assert!(Omega::new(cfg).unwrap().embed(&g).is_ok());
    }
}

#[test]
fn fig18a_distributed_ordering() {
    let g = Dataset::Lj.load_scaled(SCALE).unwrap();
    let omega = omega_time(Dataset::Lj);
    let cfg = DistConfig::paper_cluster(DIM);
    let dgl = DistDglLike::new(cfg).run(&g).time().unwrap();
    let ger = DistGerLike::new(cfg).run(&g).time().unwrap();
    assert!(dgl > omega, "DistDGL should trail OMeGa");
    assert!(ger < dgl, "DistGER should beat DistDGL");
    // DistGER is competitive: within an order of magnitude of OMeGa.
    assert!(ger.ratio(omega) < 10.0);
}

#[test]
fn fig18b_spmm_ordering() {
    let g = Dataset::Pk.load_scaled(SCALE).unwrap();
    let csdb = Csdb::from_csr(&g).unwrap();
    let b = gaussian_matrix(g.rows() as usize, DIM, 1);
    let omega = omega_spmm_time(topo(), THREADS, &csdb, &b).time().unwrap();
    let sem = SemSpmm::new(topo(), THREADS)
        .run_spmm(&g, DIM)
        .time()
        .unwrap();
    let fused = FusedMm::new(topo(), THREADS)
        .run_spmm(&g, DIM)
        .time()
        .unwrap();
    assert!(
        sem.ratio(omega) > 4.0,
        "SEM-SpMM should trail OMeGa clearly ({})",
        sem.ratio(omega)
    );
    assert!(
        fused.ratio(omega) > 1.2,
        "FusedMM should trail OMeGa ({})",
        fused.ratio(omega)
    );
    assert!(sem > fused, "SEM-SpMM (SSD) slower than FusedMM (DRAM)");
}

#[test]
fn omega_pm_is_orders_of_magnitude_slower() {
    let d = Dataset::Pk;
    let g = d.load_scaled(SCALE).unwrap();
    let omega = omega_time(d);
    let pm = Omega::new(
        OmegaConfig::default()
            .with_topology(topo())
            .with_threads(THREADS)
            .with_dim(DIM)
            .with_variant(SystemVariant::OmegaPm),
    )
    .unwrap()
    .embed(&g)
    .unwrap()
    .total_time();
    assert!(
        pm.ratio(omega) > 10.0,
        "OMeGa-PM should be >=10x slower, got {:.1}x",
        pm.ratio(omega)
    );
}
