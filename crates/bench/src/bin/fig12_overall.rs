//! Fig. 12 — overall end-to-end performance of OMeGa and the six
//! competitors on all dataset twins (graph reading + embedding generation).
//!
//! DRAM-only systems must report OOM on the two billion-scale twins
//! (TW-2010, FR), exactly as the paper's Fig. 12 shows.

use omega::{Omega, OmegaConfig, OmegaRun, SystemVariant};
use omega_baselines::prone_like::ProneBaseline;
use omega_baselines::ssd_systems::{GinexLike, MariusLike, SsdSystemConfig};
use omega_baselines::RunOutcome;
use omega_bench::{
    experiment_topology, fmt_time, geomean, load, print_table, write_results_jsonl, DIM, THREADS,
};
use omega_graph::Dataset;
use omega_hetmem::SimDuration;
use omega_obs::export::json_line;
use omega_obs::json::object;
use serde::Value;

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// One machine-readable cell of Fig. 12.
fn cell_row(graph: &str, system: &str, out: &RunOutcome) -> Value {
    let status = if out.time().is_some() { "ok" } else { "oom" };
    let time_s = out
        .time()
        .map_or(Value::Null, |t| Value::F64(t.as_secs_f64()));
    object([
        ("kind", text("cell")),
        ("graph", text(graph)),
        ("system", text(system)),
        ("status", text(status)),
        ("time_s", time_s),
    ])
}

/// The full OMeGa run's simulated timings and per-device traffic for one
/// graph.
fn run_metrics_row(graph: &str, run: &OmegaRun) -> Value {
    let (u, secs) = (Value::U64, |d: SimDuration| Value::F64(d.as_secs_f64()));
    let t = &run.traffic;
    let class_rows = t.rows.iter().map(|r| {
        object([
            ("label", text(&r.label)),
            ("bytes", u(r.bytes)),
            ("media_bytes", u(r.media_bytes)),
            ("accesses", u(r.accesses)),
        ])
    });
    let traffic = object([
        ("total_bytes", u(t.total_bytes)),
        ("total_accesses", u(t.total_accesses)),
        ("remote_bytes", u(t.remote_bytes)),
        ("random_bytes", u(t.random_bytes)),
        ("pm_bytes", u(t.pm_bytes)),
        ("dram_bytes", u(t.dram_bytes)),
        ("ssd_bytes", u(t.ssd_bytes)),
        ("read_bytes", u(t.read_bytes)),
        ("write_bytes", u(t.write_bytes)),
        ("cpu_ops", u(t.cpu_ops)),
        ("rows", Value::Seq(class_rows.collect())),
    ]);
    let r = &run.report;
    let metrics = object([
        ("variant", text(run.variant)),
        ("nodes", u(run.embedding.nodes() as u64)),
        ("dim", u(run.embedding.dim() as u64)),
        ("total_time_s", secs(r.total())),
        ("read_time_s", secs(r.read_time)),
        ("factorization_time_s", secs(r.factorization_time)),
        ("propagation_time_s", secs(r.propagation_time)),
        ("spmm_time_s", secs(r.spmm_time)),
        ("spmm_count", u(r.spmm_count as u64)),
        ("traffic", traffic),
    ]);
    object([
        ("kind", text("run_metrics")),
        ("graph", text(graph)),
        ("metrics", metrics),
    ])
}

fn main() {
    let topo = experiment_topology();
    let base = OmegaConfig::default()
        .with_topology(topo.clone())
        .with_threads(THREADS)
        .with_dim(DIM);
    let ssd_cfg = SsdSystemConfig {
        threads: THREADS,
        dim: DIM,
        ..SsdSystemConfig::default()
    };

    let variant = |d: Dataset, v: SystemVariant| -> (RunOutcome, Option<OmegaRun>) {
        let g = load(d);
        match Omega::new(base.clone().with_variant(v)).unwrap().embed(&g) {
            Ok(r) => (RunOutcome::Completed(r.total_time()), Some(r)),
            Err(e) if e.is_oom() => (RunOutcome::OutOfMemory, None),
            Err(e) => panic!("{e}"),
        }
    };

    let mut rows = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut jsonl = String::new();
    for &d in &Dataset::ALL {
        let g = load(d);
        let (omega, run) = variant(d, SystemVariant::Omega);
        let omega_t = omega.time().expect("OMeGa completes everywhere");
        let run = run.expect("OMeGa completes everywhere");
        jsonl.push_str(&json_line(&run_metrics_row(d.label(), &run)));
        let systems = [
            "OMeGa",
            "OMeGa-DRAM",
            "OMeGa-PM",
            "ProNE-DRAM",
            "ProNE-HM",
            "Ginex",
            "MariusGNN",
        ];
        let outcomes: Vec<RunOutcome> = vec![
            omega,
            variant(d, SystemVariant::OmegaDram).0,
            // OMeGa-PM is skipped past LJ in the paper (> 1 day); we compute
            // it and let the day cap annotate it.
            variant(d, SystemVariant::OmegaPm).0,
            ProneBaseline::dram(topo.clone(), THREADS, DIM).run(&g),
            ProneBaseline::hm(topo.clone(), THREADS, DIM).run(&g),
            GinexLike::new(topo.clone(), ssd_cfg).run(&g),
            MariusLike::new(topo.clone(), ssd_cfg).run(&g),
        ];
        for (sys, out) in systems.iter().zip(&outcomes) {
            jsonl.push_str(&json_line(&cell_row(d.label(), sys, out)));
        }
        for out in outcomes.iter().skip(3) {
            if let Some(t) = out.time() {
                speedups.push(t.ratio(omega_t));
            }
        }
        let cell = |o: &RunOutcome| fmt_time(o.time());
        rows.push(vec![
            d.label().to_string(),
            cell(&outcomes[0]),
            cell(&outcomes[1]),
            cell(&outcomes[2]),
            cell(&outcomes[3]),
            cell(&outcomes[4]),
            cell(&outcomes[5]),
            cell(&outcomes[6]),
        ]);
    }

    print_table(
        "Fig. 12: end-to-end running time",
        &[
            "graph",
            "OMeGa",
            "OMeGa-DRAM",
            "OMeGa-PM",
            "ProNE-DRAM",
            "ProNE-HM",
            "Ginex",
            "MariusGNN",
        ],
        &rows,
    );
    let gm = geomean(&speedups);
    println!(
        "\ngeomean speedup of OMeGa over the completed competitor runs: {gm:.2}x \
         (paper: average 32.03x, dominated by ProNE-HM / OMeGa-PM factors)"
    );
    jsonl.push_str(&json_line(&object([
        ("kind", text("geomean_speedup")),
        ("value", Value::F64(gm)),
    ])));
    write_results_jsonl("fig12_overall", &jsonl);
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::Embedding;
    use omega_embed::prone::ProneReport;
    use omega_hetmem::{AccessOp, AccessPattern, AccessSummary, DeviceKind, Placement, ThreadMem};

    /// The rows read as the `#[derive(Serialize)]` structs they replaced
    /// wrote them: fields in declaration order, `None` as `null`.
    #[test]
    fn rows_keep_the_derived_encoding() {
        let mut ctx = ThreadMem::new(0, 2);
        let pm = Placement::node(0, DeviceKind::Pm);
        let dram = Placement::node(1, DeviceKind::Dram);
        ctx.charge_block(pm, AccessOp::Read, AccessPattern::Seq, 100, 1);
        ctx.charge_block(dram, AccessOp::Write, AccessPattern::Seq, 50, 1);
        ctx.add_cpu_ops(7);
        let run = OmegaRun {
            embedding: Embedding::from_row_major(2, 3, vec![0.0; 6]),
            report: ProneReport {
                read_time: SimDuration::from_millis(1),
                factorization_time: SimDuration::from_millis(2),
                propagation_time: SimDuration::from_millis(3),
                spmm_time: SimDuration::from_millis(4),
                spmm_count: 5,
            },
            variant: "OMeGa",
            traffic: AccessSummary::from_counters(ctx.counters()),
        };
        assert_eq!(
            json_line(&run_metrics_row("PK", &run)),
            concat!(
                r#"{"kind":"run_metrics","graph":"PK","metrics":{"variant":"OMeGa","#,
                r#""nodes":2,"dim":3,"total_time_s":0.006,"read_time_s":0.001,"#,
                r#""factorization_time_s":0.002,"propagation_time_s":0.003,"#,
                r#""spmm_time_s":0.004,"spmm_count":5,"traffic":{"total_bytes":150,"#,
                r#""total_accesses":2,"remote_bytes":50,"random_bytes":0,"pm_bytes":100,"#,
                r#""dram_bytes":50,"ssd_bytes":0,"read_bytes":100,"write_bytes":50,"#,
                r#""cpu_ops":7,"rows":["#,
                r#"{"label":"DRAM-R-W-SEQ","bytes":50,"media_bytes":50,"accesses":1},"#,
                r#"{"label":"PM-L-R-SEQ","bytes":100,"media_bytes":100,"accesses":1}]}}}"#,
                "\n"
            )
        );
        assert_eq!(
            json_line(&cell_row("FR", "Ginex", &RunOutcome::OutOfMemory)),
            "{\"kind\":\"cell\",\"graph\":\"FR\",\"system\":\"Ginex\",\"status\":\"oom\",\"time_s\":null}\n"
        );
    }
}
