//! Memory modes — the heterogeneous-memory story of Fig. 1 in one example.
//!
//! Embed the same graph under DRAM-only, PM-only and heterogeneous
//! configurations, show the simulated-time ordering, the capacity failure
//! of DRAM-only on a billion-scale twin, the memory price of each machine,
//! and the per-component ablations (WoFP / NaDP / ASL).
//!
//! Run: `cargo run -p omega --release --example memory_modes`

use omega::{Omega, OmegaConfig, SystemVariant};
use omega_graph::Dataset;
use omega_hetmem::{DeviceKind, SimDuration, Topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = 4_000; // quick twins
    let topo = Topology::twin(scale);
    let base = OmegaConfig::default()
        .with_topology(topo.clone())
        .with_threads(16)
        .with_dim(32);

    println!("simulated machine (scaled twin of the paper's testbed):");
    for node in 0..topo.nodes() {
        println!(
            "  node {node}: {} MiB DRAM + {} MiB PM, {} cores",
            topo.capacity(node, DeviceKind::Dram) >> 20,
            topo.capacity(node, DeviceKind::Pm) >> 20,
            topo.cores_per_socket()
        );
    }
    println!(
        "  memory bill: ${:.2} (PM supplies {:.0}% of byte capacity at ~2.1x \
         lower price/GiB than DRAM)",
        topo.memory_price_usd(),
        topo.total_capacity(DeviceKind::Pm) as f64
            / (topo.total_capacity(DeviceKind::Pm) + topo.total_capacity(DeviceKind::Dram)) as f64
            * 100.0
    );

    // Small graph: every mode completes; the ordering tells the story.
    let pk = Dataset::Pk.load_scaled(scale)?;
    println!("\nPK twin (|V|={}, |E|={}):", pk.rows(), pk.nnz() / 2);
    let mut times: Vec<(SystemVariant, Option<SimDuration>)> = Vec::new();
    for v in [
        SystemVariant::OmegaDram,
        SystemVariant::Omega,
        SystemVariant::OmegaWithoutWofp,
        SystemVariant::OmegaWithoutNadp,
        SystemVariant::OmegaWithoutAsl,
        SystemVariant::OmegaPm,
    ] {
        let omega = Omega::new(base.clone().with_variant(v))?;
        let t = match omega.embed(&pk) {
            Ok(r) => Some(r.total_time()),
            Err(e) if e.is_oom() => None,
            Err(e) => return Err(e.into()),
        };
        times.push((v, t));
    }
    let omega_t = times
        .iter()
        .find(|(v, _)| *v == SystemVariant::Omega)
        .and_then(|(_, t)| *t)
        .expect("OMeGa completes");
    for (v, t) in &times {
        match t {
            Some(t) => println!(
                "  {:<16} {:>10}   ({:.2}x of OMeGa)",
                v.label(),
                t.to_string(),
                t.ratio(omega_t)
            ),
            None => println!("  {:<16} {:>10}", v.label(), "OOM"),
        }
    }

    // Billion-scale twin: DRAM-only fails, heterogeneous memory carries it.
    let tw2010 = Dataset::Tw2010.load_scaled(scale)?;
    println!(
        "\nTW-2010 twin (|V|={}, |E|={}): the capacity story",
        tw2010.rows(),
        tw2010.nnz() / 2
    );
    for v in [SystemVariant::OmegaDram, SystemVariant::Omega] {
        let omega = Omega::new(base.clone().with_variant(v).with_dim(64))?;
        match omega.embed(&tw2010) {
            Ok(r) => println!("  {:<12} completed in {}", v.label(), r.total_time()),
            Err(e) if e.is_oom() => {
                println!("  {:<12} OUT OF MEMORY (as the paper reports)", v.label())
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}
