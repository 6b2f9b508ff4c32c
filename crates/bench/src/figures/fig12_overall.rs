//! Fig. 12 — overall end-to-end performance of OMeGa and the six
//! competitors on all dataset twins (graph reading + embedding generation).
//!
//! DRAM-only systems must report OOM on the two billion-scale twins
//! (TW-2010, FR), exactly as the paper's Fig. 12 shows.

use crate::{
    embed_or_oom, fmt_time, geomean, machine, omega_config, print_table, twin, COMPARATOR_THREADS,
    DIM,
};
use omega::{Omega, OmegaRun, SystemVariant};
use omega_baselines::{Comparator, RunOutcome};
use omega_graph::{Csr, Dataset};
use omega_hetmem::SimDuration;
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

/// The competitors of Fig. 12, in column order after OMeGa's variants.
const COMPETITORS: [Comparator; 4] = [
    Comparator::ProneDram,
    Comparator::ProneHm,
    Comparator::Ginex,
    Comparator::Marius,
];

/// The systems of Fig. 12, in column order.
const SYSTEMS: [&str; 7] = [
    SystemVariant::Omega.label(),
    SystemVariant::OmegaDram.label(),
    SystemVariant::OmegaPm.label(),
    COMPETITORS[0].label(),
    COMPETITORS[1].label(),
    COMPETITORS[2].label(),
    COMPETITORS[3].label(),
];

pub(crate) fn run(scale: u64) -> Vec<Value> {
    let topo = machine(scale);
    let base = omega_config(&topo);
    let variant = |g: &Csr, v: SystemVariant| {
        let run = embed_or_oom(Omega::new(base.clone().with_variant(v)).unwrap(), g);
        run.map_or(RunOutcome::OutOfMemory, |r| {
            RunOutcome::Completed(r.total_time())
        })
    };

    let mut rows = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut jsonl = Vec::new();
    for &d in &Dataset::ALL {
        let g = twin(d, scale);
        let run = embed_or_oom(Omega::new(base.clone()).unwrap(), &g)
            .expect("OMeGa completes everywhere");
        let omega_t = run.total_time();
        jsonl.push(run_metrics_row(d.label(), &run));
        let mut outcomes = vec![
            RunOutcome::Completed(omega_t),
            variant(&g, SystemVariant::OmegaDram),
            // OMeGa-PM is skipped past LJ in the paper (> 1 day); we compute
            // it and let the day cap annotate it.
            variant(&g, SystemVariant::OmegaPm),
        ];
        outcomes.extend(COMPETITORS.map(|c| c.run(&topo, &g, COMPARATOR_THREADS, DIM)));
        for (sys, out) in SYSTEMS.iter().zip(&outcomes) {
            jsonl.push(cell_row(d.label(), sys, out));
        }
        let competitors = outcomes.iter().skip(3).filter_map(RunOutcome::time);
        speedups.extend(competitors.map(|t| t.ratio(omega_t)));
        let mut row = vec![d.label().to_string()];
        row.extend(outcomes.iter().map(|o| fmt_time(o.time())));
        rows.push(row);
    }

    let header: Vec<&str> = ["graph"].into_iter().chain(SYSTEMS).collect();
    print_table("Fig. 12: end-to-end running time", &header, &rows);
    let gm = geomean(&speedups);
    println!(
        "\ngeomean speedup of OMeGa over the completed competitor runs: {gm:.2}x \
         (paper: average 32.03x, dominated by ProNE-HM / OMeGa-PM factors)"
    );
    jsonl.push(object([
        ("kind", text("geomean_speedup")),
        ("value", Value::F64(gm)),
    ]));
    jsonl
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega::Embedding;
    use omega_embed::prone::ProneReport;
    use omega_hetmem::{AccessOp, AccessPattern, AccessSummary, DeviceKind, Placement, ThreadMem};
    use omega_obs::export::json_line;

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
