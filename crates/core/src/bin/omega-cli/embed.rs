//! `omega-cli embed`: train an embedding, as the full system or an ablation.

use crate::opts::{Opts, Outputs};
use omega::{Omega, OmegaConfig, SystemVariant};

pub(crate) fn run(mut opts: Opts) -> Result<(), String> {
    let input: String = opts.require("input")?;
    let output: String = opts.require("output")?;
    let dim: usize = opts.positive("dim", 64)?;
    let threads: usize = opts.get_or("threads", 30)?;
    // Wall-clock workers for the training kernels. Unlike --threads (the
    // simulated thread count, which feeds the cost model), this knob only
    // changes real elapsed time: outputs are bit-identical at every value.
    let wall_threads: usize = opts.get_or("wall-threads", 1)?;
    let mode: String = opts.get_or("mode", "hetero".to_string())?;

    // Each `--no-*` flag names one ablation of the hetero system: at most
    // one of them, and no other mode beside it.
    let mut ablations = Vec::new();
    for flag in ["no-wofp", "no-nadp", "no-asl"] {
        if opts.flag(flag)? {
            ablations.push(flag);
        }
    }
    if ablations.len() > 1 {
        let named = ablations.join(" and --");
        return Err(format!("--{named} are mutually exclusive"));
    }
    let variant = match (ablations.first().copied(), mode.as_str()) {
        (Some("no-wofp"), "hetero") => SystemVariant::OmegaWithoutWofp,
        (Some("no-nadp"), "hetero") => SystemVariant::OmegaWithoutNadp,
        (Some(_), "hetero") => SystemVariant::OmegaWithoutAsl,
        (Some(flag), other) => {
            return Err(format!(
                "--{flag} ablates --mode hetero and cannot run with --mode {other}"
            ))
        }
        (None, "hetero") => SystemVariant::Omega,
        (None, "dram") => SystemVariant::OmegaDram,
        (None, "pm") => SystemVariant::OmegaPm,
        (None, other) => return Err(format!("unknown --mode {other:?}")),
    };
    let outputs = Outputs {
        profile: opts.get("profile-out")?,
        ..Outputs::parse(&mut opts)?
    };
    opts.finish()?;

    let graph = crate::load_graph(&input)?;
    eprintln!(
        "loaded {input}: |V|={} |E|={}",
        graph.rows(),
        graph.nnz() / 2
    );
    let cfg = OmegaConfig::default()
        .with_dim(dim)
        .with_threads(threads)
        .with_wall_threads(wall_threads)
        .with_variant(variant);
    let rec = outputs.recorder();
    let prof = outputs.profiler();
    let omega = Omega::new(cfg)
        .map_err(|e| e.to_string())?
        .with_recorder(rec.clone());
    let run = {
        let _guard = omega::par::install(&prof);
        omega.embed(&graph).map_err(|e| {
            if e.is_oom() {
                format!("simulated machine out of memory in {mode} mode: {e}")
            } else {
                e.to_string()
            }
        })?
    };
    eprintln!("{}", run.summary());
    std::fs::write(&output, run.embedding.to_text())
        .map_err(|e| format!("writing {output}: {e}"))?;
    eprintln!("wrote {output}");
    outputs.write(&rec, &prof)
}
