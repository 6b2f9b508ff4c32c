//! Integration tests for the comparator systems: the paper's orderings must
//! hold on the dataset twins.

use omega::{Omega, OmegaConfig, SystemVariant};
use omega_baselines::Comparator::{self, *};
use omega_baselines::RunOutcome;
use omega_graph::{Csdb, Csr, Dataset};
use omega_hetmem::{MemSystem, SimDuration, Topology};
use omega_linalg::gaussian_matrix;
use omega_spmm::{SpmmConfig, SpmmEngine};
use std::num::NonZeroUsize;

const SCALE: u64 = 4_000;
const THREADS: usize = 16;
/// [`THREADS`] as the comparators take it.
const COMPARATOR_THREADS: NonZeroUsize = NonZeroUsize::new(THREADS).unwrap();
/// The distributed systems' threads per machine.
const T30: NonZeroUsize = NonZeroUsize::new(30).unwrap();
const DIM: usize = 32;

fn topo() -> Topology {
    Topology::paper_machine_scaled((24 << 20) / 4)
}

/// `system`'s outcome on `g` at 30 threads and [`DIM`], by its figure
/// label: an end-to-end embedding, or one SpMM for SEM-SpMM and FusedMM.
fn comparator(system: &str, g: &Csr) -> RunOutcome {
    let all = [
        ProneDram, ProneHm, Ginex, Marius, DistDgl, DistGer, SemSpmm, FusedMm,
    ];
    let c = all.into_iter().find(|c| c.label() == system);
    c.expect("a comparator label").run(&topo(), g, T30, DIM)
}

/// Every comparator's exact simulated nanoseconds (`None`: out of memory)
/// on the PK and TW-2010 twins. A change that moves one of these moves a
/// figure.
#[test]
fn comparators_are_pinned() {
    const PINNED: [(&str, [Option<u64>; 2]); 8] = [
        ("ProNE-DRAM", [Some(91_825_103), Some(16_566_922_868)]),
        ("ProNE-HM", [Some(104_026_524), Some(18_190_744_079)]),
        ("Ginex", [Some(286_305_300), Some(48_207_838_740)]),
        ("MariusGNN", [Some(124_876_740), Some(3_606_177_480)]),
        ("DistDGL", [Some(184_658_280), Some(4_653_026_310)]),
        ("DistGER", [Some(49_401_821), Some(1_069_429_467)]),
        ("SEM-SpMM", [Some(12_174_381), Some(851_890_275)]),
        ("FusedMM", [Some(2_422_010), Some(170_136_064)]),
    ];
    let twins = [Dataset::Pk, Dataset::Tw2010].map(|d| d.load_scaled(SCALE).unwrap());
    let mut got = Vec::new();
    for (system, _) in PINNED {
        let ns = twins
            .each_ref()
            .map(|g| comparator(system, g).time().map(|t| t.as_nanos()));
        got.push((system, ns));
    }
    assert_eq!(got, PINNED);
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
    let time = |c: Comparator| c.run(&topo(), &g, COMPARATOR_THREADS, DIM).time().unwrap();

    // The paper's Fig. 12 ordering: OMeGa beats every competitor.
    for c in [ProneDram, ProneHm, Ginex, Marius] {
        let t = time(c);
        assert!(
            t > omega,
            "{} ({t}) should be slower than OMeGa ({omega})",
            c.label()
        );
    }
    // And ProNE-HM is slower than ProNE-DRAM (the PM sparse streams).
    assert!(time(ProneHm) > time(ProneDram));
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
        let fused = FusedMm.run(&topo(), &g, COMPARATOR_THREADS, 64);
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
    let dgl = DistDgl.run(&topo(), &g, T30, DIM).time().unwrap();
    let ger = DistGer.run(&topo(), &g, T30, DIM).time().unwrap();
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
    let engine = SpmmEngine::new(MemSystem::new(topo()), SpmmConfig::omega(THREADS)).unwrap();
    let omega = engine.spmm(&csdb, &b).unwrap().makespan;
    let sem = SemSpmm
        .run(&topo(), &g, COMPARATOR_THREADS, DIM)
        .time()
        .unwrap();
    let fused = FusedMm
        .run(&topo(), &g, COMPARATOR_THREADS, DIM)
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
