//! The metric catalogue: every name the benchmark prints, with its unit,
//! the clock it is on, which way is better, its regression bound, and what
//! it is expected to move. `BENCHMARK.json` and the tables in `README.md`
//! restate this file; a unit test holds `BENCHMARK.json` to it.

/// How long one run measures, in seconds (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: f64 = 6.0;

/// Which clock a metric is read from. `Sim` and `Count` values are pure
/// functions of the seed: they repeat exactly and are compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host nanoseconds: noisy, compared through medians and spreads.
    Wall,
    /// The modelled DRAM+PM machine's clock.
    Sim,
    /// Host memory.
    Host,
    /// An event or byte count, or a ratio of counts.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::Count => "count",
        }
    }

    pub fn exact(self) -> bool {
        matches!(self, Clock::Sim | Clock::Count)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
    /// What it measures, where it is measured, and what it should move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound: None,
        note,
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train_prone",
        why: "The paper's headline: ProNE over OMeGa SpMM on a skewed R-MAT graph; \
              spmm, linalg, embed and par do all the work, serve and plane none.",
    },
    Workload {
        name: "serve_scan",
        why: "Exact top-k over a cold PM table: brute-force scoring and selection are \
              nearly all of the wall, so scan-kernel work must move it.",
    },
    Workload {
        name: "serve_ivf",
        why: "Same table and traffic through the IVF index: centroid ranking and short \
              list scans; gains that need long contiguous scans bypass it.",
    },
    Workload {
        name: "serve_lookup",
        why: "Point lookups at a 0.78 hit rate: no scan at all, so coalescing, cache \
              bookkeeping, row gather and charging are the whole cost.",
    },
    Workload {
        name: "serve_churn",
        why: "Uniform lookups through an 8-shard cache: every batch fetches, inserts and \
              evicts, the write side beside serve_lookup's read side.",
    },
    Workload {
        name: "plane_capacity",
        why: "Open-loop two-tenant traffic at 30k qps over 4 replicas, where at least 99% \
              is served on time: the replica lanes dominate, the front is small.",
    },
    Workload {
        name: "plane_overload",
        why: "The same tier offered 1M qps, far past what it serves: nearly all work is \
              the reject and shed path at the front.",
    },
];

use Better::{Higher, Lower};
use Clock::{Count, Host, Sim, Wall};

pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Wall,
        Lower,
        0.25,
        "Input generation plus store/index/engine/plane construction, median of 3 to 25 \
         set-ups (as many as fit in half a second).",
    ),
    e2e(
        "wall_ops_per_s",
        "1/s",
        Wall,
        Higher,
        0.25,
        "Ops completed per second spent inside the repeated call; op = nnz embedded, \
         request served, or request offered to the plane.",
    ),
    e2e(
        "wall_call_p50_ms",
        "ms",
        Wall,
        Lower,
        0.25,
        "Median of the repeated call: one Prone::embed, one serve_batch of 64, one \
         RequestPlane::run.",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Host,
        Lower,
        0.15,
        "VmHWM of the workload's process when the warm-up ends: every set-up and the \
         warm-up units.",
    ),
    e2e(
        "sim_total_ms",
        "ms",
        Sim,
        Lower,
        0.15,
        "Simulated time of the fixed window: ProneReport::total, the server's sim clock \
         over the window's batches, PlaneReport::end_ns.",
    ),
    e2e(
        "sim_lat_mean_us",
        "us",
        Sim,
        Lower,
        0.25,
        "Mean simulated latency of what the user waits for: a request (serve, plane; \
         served requests only) or the whole embedding run (train).",
    ),
    e2e(
        "sim_lat_p99_us",
        "us",
        Sim,
        Lower,
        0.25,
        "99th percentile of the same; on the plane it is the upper edge of a 3%-wide \
         histogram bucket.",
    ),
    e2e(
        "sim_goodput_per_s",
        "1/s",
        Sim,
        Higher,
        0.15,
        "Ops answered in full and on time per simulated second of the window.",
    ),
    e2e(
        "ok_share",
        "share",
        Count,
        Higher,
        0.07,
        "Ops answered in full and on time over ops attempted in the window. Plane: \
         (completed - slo_miss) / offered, so rejects, drops, SLO misses and degraded \
         answers all count against it; serve: 1 - degraded/requests; train: 1.",
    ),
    e2e(
        "quality",
        "share",
        Count,
        Higher,
        0.05,
        "train: link-prediction AUC; serve_scan: share of sampled top-10 answers \
         identical to Embedding::top_k; serve_ivf: recall@10 against it; lookups: share \
         of sampled rows bit-equal to the table; plane: share of runs whose accounting \
         identities hold.",
    ),
];

pub const PER_LAYER: &[Metric] = &[
    // graph — measured on train_prone; moves setup_s there.
    layer("graph.rmat_ns_per_edge", "ns", Wall, Lower,
        "RmatConfig::generate_csr per requested edge (train_prone set-up)."),
    layer("graph.csdb_build_ns_per_nnz", "ns", Wall, Lower,
        "Csdb::from_csr per non-zero (train_prone)."),
    // hetmem — charging cost on the lookup workloads; byte counts everywhere.
    layer("hetmem.charge_ns_per_access", "ns", Wall, Lower,
        "Charged HetVec row read through ThreadMem minus a plain slice read of the same \
         bytes (serve_lookup, serve_churn); moves wall_ops_per_s there."),
    layer("hetmem.bytes_total_mb", "MB", Count, Lower,
        "AccessSummary of the window; a byte-cutting change moves sim_total_ms, a \
         host-only speed-up must leave it identical (all workloads)."),
    layer("hetmem.bytes_pm_mb", "MB", Count, Lower, "Bytes on PM (all workloads)."),
    layer("hetmem.bytes_dram_mb", "MB", Count, Lower, "Bytes on DRAM (all workloads)."),
    layer("hetmem.bytes_remote_mb", "MB", Count, Lower,
        "Bytes across the socket interconnect (all workloads)."),
    layer("hetmem.bytes_random_mb", "MB", Count, Lower,
        "Bytes accessed at random (all workloads)."),
    layer("hetmem.accesses", "count", Count, Lower, "Charged accesses (all workloads)."),
    // linalg — the scan kernel against a copy bound; the dense t-SVD kernels.
    layer("linalg.memcpy_gb_per_s", "GB/s", Wall, Higher,
        "Bytes copied per second, one thread, buffer the size of the scanned table \
         (serve_scan, serve_ivf): the bound the scan is read against."),
    layer("linalg.scan_ns_per_row", "ns", Wall, Lower,
        "dot_scores_into over the whole table, one thread; moves serve_scan wall almost \
         1:1, serve_ivf less, the lookup workloads not at all."),
    layer("linalg.scan_gb_per_s", "GB/s", Wall, Higher, "Table bytes scored per second."),
    layer("linalg.scan_bound_share", "share", Wall, Higher,
        "scan_gb_per_s over memcpy_gb_per_s."),
    layer("linalg.gemm_gflop_per_s", "GFLOP/s", Wall, Higher,
        "gemm_threads (n x 80)(80 x 80) at T threads, the t-SVD shape (train_prone)."),
    layer("linalg.qr_ms", "ms", Wall, Lower, "qr_thin_threads of n x 80 (train_prone)."),
    layer("linalg.svd_ms", "ms", Wall, Lower, "svd_tall_threads of n x 80 (train_prone)."),
    // embed — selection cost; wall and sim phase split of Prone::embed.
    layer("embed.topk_select_ns_per_row", "ns", Wall, Lower,
        "TopK::push over one score per table row (serve_scan, serve_ivf)."),
    layer("embed.wall_tsvd_ms", "ms", Wall, Lower,
        "PoolProfiler self time of the tsvd scope per embed; with the next four it splits \
         wall_call_p50_ms on train_prone."),
    layer("embed.wall_propagate_ms", "ms", Wall, Lower, "propagate scope per embed."),
    layer("embed.wall_combine_ms", "ms", Wall, Lower, "combine scope per embed."),
    layer("embed.wall_read_ms", "ms", Wall, Lower, "read scope per embed."),
    layer("embed.wall_spmm_share", "share", Wall, Lower,
        "Wall inside the Recorder's spmm.run spans over the embed's wall."),
    layer("embed.sim_read_ms", "ms", Sim, Lower,
        "ProneReport::read_time; with the next two it splits sim_total_ms on train_prone."),
    layer("embed.sim_factorize_ms", "ms", Sim, Lower, "ProneReport::factorization_time."),
    layer("embed.sim_propagate_ms", "ms", Sim, Lower, "ProneReport::propagation_time."),
    layer("embed.sim_spmm_share", "share", Sim, Lower, "ProneReport::spmm_share."),
    layer("embed.spmm_calls", "count", Count, Lower, "ProneReport::spmm_count."),
    // spmm — one SpmmEngine::spmm, skewed and uniform (train_prone).
    layer("spmm.wall_ns_per_nnz_col", "ns", Wall, Lower,
        "One spmm of the training graph by 64 columns; moves train_prone wall."),
    layer("spmm.sim_ns_per_nnz", "ns", Sim, Lower, "Its makespan per non-zero."),
    layer("spmm.uniform_wall_ns_per_nnz_col", "ns", Wall, Lower,
        "The same on RmatConfig::uniform at about equal nnz: skew-specific work moves the \
         social numbers, not these."),
    layer("spmm.uniform_sim_ns_per_nnz", "ns", Sim, Lower, "Its makespan per non-zero."),
    layer("spmm.prefetch_hit_rate", "share", Count, Higher, "SpmmRun::hit_rate."),
    layer("spmm.wasted_prefetch_share", "share", Count, Lower,
        "Wasted prefetches over dense fetches."),
    layer("spmm.thread_imbalance", "ratio", Sim, Lower,
        "Max over mean of SpmmRun::thread_times: the slowest simulated thread sets the fan-out's time."),
    layer("spmm.alloc_sim_share", "share", Sim, Lower, "alloc_time over makespan."),
    // par — dispatch cost and where pool time goes.
    layer("par.dispatch_ns_w1", "ns", Wall, Lower,
        "omega_par::run of 8 no-op tasks at width 1 (the inline path), always_parallel \
         policy (all workloads)."),
    layer("par.dispatch_ns_w2", "ns", Wall, Lower,
        "The same at width 2: wake plus latch; moves the 30-100 us batches of \
         serve_lookup and serve_churn when they dispatch, not serve_scan's 20 ms ones."),
    layer("par.dispatch_ns_wT", "ns", Wall, Lower, "The same at width T."),
    layer("par.call_share", "share", Wall, Higher,
        "PoolProfiler: wall inside parallel pool calls over the wall of the traced warm-up \
         and window; 0 when every call ran inline (all workloads)."),
    layer("par.exec_share", "share", Wall, Higher,
        "Of that wall, the share executing tasks; with the next three it sums to 1."),
    layer("par.idle_share", "share", Wall, Lower, "Workers idle inside pool calls."),
    layer("par.park_share", "share", Wall, Lower, "Wake latency of parked workers."),
    layer("par.barrier_share", "share", Wall, Lower,
        "Waiting for the slowest slot at the end of a call."),
    layer("par.speedup_T", "ratio", Wall, Higher,
        "One unit at 1 thread over the T-thread median (train_prone, serve_scan); 0 when \
         the host has fewer than 2 cores, where it is refused."),
    // serve — build cost, wall split, unit costs, counts.
    layer("serve.build_ms", "ms", Wall, Lower,
        "EmbedServer::new, median of the set-ups; moves setup_s (serve workloads)."),
    layer("serve.ivf_build_ms", "ms", Wall, Lower,
        "EmbedServer::new with the IVF index minus one exact build (serve_ivf)."),
    layer("serve.wall_fetch_share", "share", Wall, Lower,
        "PoolProfiler fetch scope over fetch+lookup+topk (serve workloads)."),
    layer("serve.wall_lookup_share", "share", Wall, Lower, "lookup scope share."),
    layer("serve.wall_topk_share", "share", Wall, Lower, "topk scope share."),
    layer("serve.get_ns_per_row", "ns", Wall, Lower,
        "get_vectors of 64 rows spread over the table, so mostly misses, per row (serve \
         workloads)."),
    layer("serve.topk_us_per_query", "us", Wall, Lower,
        "top_k(query, 10) on the exact index (serve_scan)."),
    layer("serve.ivf_us_per_query", "us", Wall, Lower,
        "top_k(query, 10) through the IVF index (serve_ivf)."),
    layer("serve.ivf_ns_per_probe", "ns", Wall, Lower, "The same per list probed."),
    layer("serve.ivf_probes_per_query", "count", Count, Lower, "ivf_probes over ivf_queries."),
    layer("serve.ivf_hot_list_share", "share", Count, Higher,
        "Lists resident in DRAM over nlist."),
    layer("serve.cache_insert_ns", "ns", Wall, Lower,
        "HotCache::insert of one shard into a full cache (serve_lookup, serve_churn)."),
    layer("serve.hit_rate", "share", Count, Higher,
        "Window counts from ServeStats; with the rest of this group they move sim_lat_* \
         and sim_total_ms (serve workloads)."),
    layer("serve.fetches_per_batch", "count", Count, Lower, "fetches over batches."),
    layer("serve.evictions", "count", Count, Lower, "Shards evicted in the window."),
    layer("serve.admission_rejects", "count", Count, Lower,
        "Inserts refused by frequency admission."),
    layer("serve.cold_read_mb", "MB", Count, Lower, "Bytes streamed from the cold tier."),
    layer("serve.dram_read_mb", "MB", Count, Lower, "Bytes read from DRAM."),
    layer("serve.dram_write_mb", "MB", Count, Lower, "Bytes staged into DRAM."),
    // plane — front unit costs, run cost, terminal-state counts.
    layer("plane.timeline_ns_per_req", "ns", Wall, Lower,
        "generate_timeline per request (plane workloads); front cost, moves \
         wall_ops_per_s on plane_overload far more than plane_capacity."),
    layer("plane.admit_ns_per_call", "ns", Wall, Lower, "Admission::admit."),
    layer("plane.route_ns_per_call", "ns", Wall, Lower,
        "Ring::primary, which every arrival calls once."),
    layer("plane.run_ns_per_offered", "ns", Wall, Lower,
        "RequestPlane::run wall over offered."),
    layer("plane.run_ns_per_admitted", "ns", Wall, Lower, "The same over admitted."),
    layer("plane.offered", "count", Count, Higher,
        "PlaneStats of the window; they move sim_goodput_per_s and ok_share."),
    layer("plane.admitted", "count", Count, Higher, "Past both admission gates."),
    layer("plane.rejected_quota", "count", Count, Lower, "Refused by the tenant quota."),
    layer("plane.rejected_queue", "count", Count, Lower, "Refused by queue depth."),
    layer("plane.completed", "count", Count, Higher, "Served at full fidelity."),
    layer("plane.degraded", "count", Count, Lower, "Served at reduced fidelity."),
    layer("plane.dropped", "count", Count, Lower, "Admitted, then abandoned at dispatch."),
    layer("plane.slo_miss", "count", Count, Lower, "Served after the deadline."),
    layer("plane.hedged_routes", "count", Count, Lower, "Routed to the ring successor."),
    layer("plane.drop_share", "share", Count, Lower,
        "dropped over admitted: admitted work that was wasted."),
    layer("plane.queue_wait_p99_us", "us", Sim, Lower, "Dispatch wait, 3%-wide bucket edge."),
    layer("plane.max_ok_rate_qps", "1/s", Sim, Higher,
        "Highest rung of {20k,30k,40k,60k,80k,120k} qps at which ok_share >= 0.99 \
         (plane_capacity); must not drop a rung."),
    // faults — serve_churn's window again under a seeded PM fault plan.
    layer("faults.injected", "count", Count, Lower,
        "1% transient (20 us) and 0.2% timeout (200 us) on PM (serve_churn)."),
    layer("faults.retried", "count", Count, Lower, "Answered by another cold-tier attempt."),
    layer("faults.hedge_won", "count", Count, Lower, "Answered by the DRAM replica hedge."),
    layer("faults.degraded", "count", Count, Lower, "Past the retry budget."),
    layer("faults.wall_overhead_share", "share", Wall, Lower,
        "Window wall under the plan over the clean window's, minus 1."),
    layer("faults.sim_overhead_share", "share", Sim, Lower, "The same on the sim clock."),
    // obs / bench — what the instrumentation costs and what the ledger explains.
    layer("obs.recorder_ns_per_span", "ns", Wall, Lower,
        "Recorder begin+end of one span, mean over the first 2000 of a recorder; it grows \
         with the spans already held (all workloads)."),
    layer("obs.trace_overhead_share", "share", Wall, Lower,
        "Window wall per op with Recorder, PoolProfiler and benchmark spans on, over the \
         same window with them off, minus 1."),
    layer("bench.wall_call_tail_ms", "ms", Wall, Lower,
        "Highest percentile of the call with at least 10 samples beyond it; 0 below 20 samples."),
    layer("bench.tail_percentile", "share", Count, Higher, "Which percentile that is."),
    layer("bench.samples", "count", Count, Higher, "Calls timed in the traced window."),
    layer("bench.unattributed_share", "share", Wall, Lower,
        "1 - sum of layer self time / wall of the traced units: what no layer span covers."),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("no {key} in {v:?}"))
    }

    fn items(v: &Value) -> &[Value] {
        v.as_seq().expect("a list")
    }

    fn text(v: &Value) -> &str {
        v.as_str().expect("a string")
    }

    fn number(v: &Value) -> f64 {
        v.as_f64().expect("a number")
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().chain(PER_LAYER);
        for name in all.map(|m| m.name).chain(WORKLOADS.iter().map(|w| w.name)) {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn benchmark_json_restates_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = omega_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(number(field(&doc, "run_seconds")), RUN_SECONDS);
        let workloads = items(field(&doc, "workloads"));
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (have, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(field(have, "name")), want.name);
            let why: String = want.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(text(field(have, "why")), why);
        }
        for (key, want) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let have = items(field(&doc, key));
            assert_eq!(have.len(), want.len(), "{key}");
            for (h, w) in have.iter().zip(want) {
                assert_eq!(text(field(h, "name")), w.name);
                assert_eq!(text(field(h, "unit")), w.unit, "{}", w.name);
                assert_eq!(text(field(h, "better")), w.better.label(), "{}", w.name);
                if let Some(bound) = w.bound {
                    assert_eq!(number(field(h, "bound")), bound, "{}", w.name);
                }
            }
        }
    }
}
