use crate::opts::{require_finite, Opts};
use omega::faults::FaultPlanSpec;
use omega::hetmem::{DeviceKind, MemSystem};
use omega::serve::Popularity;
use omega::Embedding;

/// The flags `serve` and `plane` share, parsed and checked once. Only the
/// `--batch` and `--topk-fraction` defaults differ between the two.
pub(crate) struct ServingOpts {
    pub(crate) seed: u64,
    /// `--nodes` x `--dim`: the synthetic table's shape.
    nodes: usize,
    dim: usize,
    rows_per_shard: usize,
    cache_shards: u64,
    pub(crate) batch: usize,
    /// Worker-pool width for per-shard batch work: a wall-clock knob only —
    /// simulated latencies and metrics are identical at every value.
    threads: usize,
    pub(crate) topk_fraction: f64,
    pub(crate) k: usize,
    pub(crate) popularity: Popularity,
    pub(crate) cold_device: DeviceKind,
    /// `--fault-plan`: the file and the plan it holds.
    pub(crate) fault_plan: Option<(String, FaultPlanSpec)>,
}

impl ServingOpts {
    /// Read the shared flags, refuse every flag the subcommand left, and
    /// only then read the fault plan file.
    pub(crate) fn parse(mut opts: Opts, batch: usize, topk_fraction: f64) -> Result<Self, String> {
        let seed = opts.get_or("seed", 42)?;
        let nodes = opts.positive("nodes", 10_000)?;
        let dim = opts.positive("dim", 64)?;
        let rows_per_shard = opts.positive("rows-per-shard", 64)?;
        let cache_shards = opts.positive("cache-shards", 16)?;
        let batch = opts.positive("batch", batch)?;
        let threads = opts.positive("threads", 1)?;
        let topk_fraction: f64 = opts.get_or("topk-fraction", topk_fraction)?;
        if !(0.0..=1.0).contains(&topk_fraction) {
            return Err(format!(
                "--topk-fraction must be in [0, 1] (got {topk_fraction})"
            ));
        }
        let k = opts.positive("k", 10)?;
        // `--zipf S` and `--uniform` are mutually exclusive, and naming both
        // is an error rather than a silent preference.
        let popularity = match (opts.flag("uniform")?, opts.get::<f64>("zipf")?) {
            (true, Some(_)) => return Err("--zipf and --uniform are mutually exclusive".into()),
            (true, None) => Popularity::Uniform,
            (false, s) => {
                let s = require_finite(s.unwrap_or(1.0), "zipf")?;
                if s < 0.0 {
                    return Err(format!("--zipf must be at least 0 (got {s})"));
                }
                Popularity::Zipf { s }
            }
        };
        let cold_device = match opts.get_or("cold", "pm".to_string())?.as_str() {
            "pm" => DeviceKind::Pm,
            "ssd" => DeviceKind::Ssd,
            other => return Err(format!("unknown --cold {other:?} (pm|ssd)")),
        };
        let plan_path: Option<String> = opts.get("fault-plan")?;
        opts.finish()?;
        let fault_plan = match plan_path {
            Some(path) => {
                let text =
                    std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
                let spec = FaultPlanSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                Some((path, spec))
            }
            None => None,
        };
        Ok(ServingOpts {
            seed,
            nodes,
            dim,
            rows_per_shard,
            cache_shards,
            batch,
            threads,
            topk_fraction,
            k,
            popularity,
            cold_device,
            fault_plan,
        })
    }

    /// A deterministic synthetic table of `--nodes` x `--dim` for load
    /// testing without a training run.
    pub(crate) fn synthetic_table(&self) -> Embedding {
        Embedding::from_matrix(&omega::linalg::gaussian_matrix(
            self.nodes, self.dim, self.seed,
        ))
    }

    /// The serving configuration both commands start from: a cache budget
    /// of `--cache-shards` shards of `emb`.
    pub(crate) fn serve_config(&self, emb: &Embedding) -> omega::serve::ServeConfig {
        omega::serve::ServeConfig::new(self.cache_shards * self.shard_bytes(emb))
            .rows_per_shard(self.rows_per_shard)
            .cold(omega::hetmem::Placement::node(0, self.cold_device))
            .batch_size(self.batch)
            .threads(self.threads)
    }

    fn shard_bytes(&self, emb: &Embedding) -> u64 {
        self.rows_per_shard as u64 * emb.dim() as u64 * 4
    }

    /// DRAM per node such that the cold tier always holds `copies` copies
    /// of the table (PM is 8x DRAM per node, SSD 40x) while the cache
    /// budget stays `--cache-shards` shards: the larger of twice that
    /// budget and an eighth of the copies.
    pub(crate) fn dram_bytes(&self, emb: &Embedding, copies: u64) -> u64 {
        let table_bytes = emb.nodes() as u64 * emb.dim() as u64 * 4;
        (2 * self.cache_shards * self.shard_bytes(emb))
            .max((copies * table_bytes).div_ceil(8))
            .max(1 << 16)
    }

    /// `sys`, or a copy of it with the fault plan's memory-path rules
    /// installed.
    pub(crate) fn with_faults(&self, sys: MemSystem) -> MemSystem {
        match &self.fault_plan {
            Some((_, spec)) => omega::faults::install_plan(&sys, spec.clone()),
            None => sys,
        }
    }
}
