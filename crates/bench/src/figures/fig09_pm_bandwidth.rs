//! Fig. 9 — the PM bandwidth microbenchmark (the paper's FIO/numactl sweep)
//! replayed against the calibrated cost model: sequential/random read and
//! write bandwidth of local/remote PM across thread counts.
//!
//! This is the calibration check: the model is fit to the paper's ratios,
//! so this harness must reproduce them — peak seq remote read ≈ local;
//! seq read ≈ 2.4× any random read; seq local write ≈ 3.2× seq remote and
//! ≈ 5× rand remote; PM rand/write aggregates collapse past saturation.

use crate::print_table;
use omega_hetmem::AccessOp::{Read, Write};
use omega_hetmem::AccessPattern::{Rand, Seq};
use omega_hetmem::Locality::{Local, Remote};
use omega_hetmem::{AccessClass, BandwidthModel, DeviceKind};
use serde::Value;

/// The cost model alone: no twin is built, so `_scale` changes nothing.
pub(crate) fn run(_scale: u64) -> Vec<Value> {
    let model = BandwidthModel::paper_machine();
    let threads = [1u32, 2, 4, 6, 8, 12, 18];

    let mut rows = Vec::new();
    for (o, op) in [(Read, "R"), (Write, "W")] {
        for (p, pattern) in [(Seq, "SEQ"), (Rand, "RAND")] {
            for (l, locality) in [(Local, "L"), (Remote, "R")] {
                let class = AccessClass::new(DeviceKind::Pm, l, o, p);
                let mut row = vec![format!("{pattern}-{op}-{locality}")];
                for &t in &threads {
                    row.push(format!("{:.2}", model.aggregate_bandwidth(class, t)));
                }
                rows.push(row);
            }
        }
    }
    let mut header = vec!["PM class"];
    let labels: Vec<String> = threads.iter().map(|t| format!("{t}t")).collect();
    header.extend(labels.iter().map(|s| s.as_str()));
    print_table("Fig. 9: PM bandwidth (GiB/s) vs #threads", &header, &rows);

    // The paper's headline ratios, at peak.
    let peak = |l, o, p| {
        model
            .class(AccessClass::new(DeviceKind::Pm, l, o, p))
            .peak_gib_s
    };
    println!("\ncalibration ratios (paper values in parentheses):");
    println!(
        "  seq local read / rand local read   = {:.2} (2.41)",
        peak(Local, Read, Seq) / peak(Local, Read, Rand)
    );
    println!(
        "  seq local read / rand remote read  = {:.2} (2.45)",
        peak(Local, Read, Seq) / peak(Remote, Read, Rand)
    );
    println!(
        "  seq local write / seq remote write = {:.2} (3.23)",
        peak(Local, Write, Seq) / peak(Remote, Write, Seq)
    );
    println!(
        "  seq local write / rand remote write= {:.2} (4.99)",
        peak(Local, Write, Seq) / peak(Remote, Write, Rand)
    );
    let pm_over_dram = |l| {
        let latency = |d| model.latency_ns(AccessClass::new(d, l, Read, Seq));
        latency(DeviceKind::Pm) / latency(DeviceKind::Dram)
    };
    println!(
        "  PM local / DRAM local latency      = {:.2} (4.2)",
        pm_over_dram(Local)
    );
    println!(
        "  PM remote / DRAM remote latency    = {:.2} (3.3)",
        pm_over_dram(Remote)
    );
    Vec::new()
}
