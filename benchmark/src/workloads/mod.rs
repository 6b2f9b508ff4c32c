//! The seven workloads and the two passes that measure them.
//!
//! Every workload is a repeated **unit** (one `Prone::embed`, one
//! `serve_batch`, one `RequestPlane::run`). A run sets up three times or more,
//! warms up, then runs the **window**: a fixed number of units from a
//! fixed state, so everything read off the simulated clock and every
//! count is a pure function of the seed. The untraced pass keeps running
//! units until its time is up and reports the end-to-end metrics; the
//! traced pass runs the window twice, hooks off then hooks on, checks
//! that the hooks did not perturb the model, and reports per layer.

pub mod plane;
pub mod serve;
pub mod train;

use crate::catalogue::PER_LAYER;
use crate::host;
use crate::span::{self_times, Tracer};
use crate::stats::{median, supported_tail};
use omega_hetmem::AccessSummary;
use omega_obs::Recorder;
use omega_par::PoolProfiler;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// A tenth of the length on smaller inputs, one set-up: for CI.
    pub quick: bool,
    /// The traced pass: a shorter window, because the hooks cost more the
    /// longer they run.
    pub short: bool,
    pub threads: usize,
}

/// Bytes and accesses the cost model charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mem {
    pub total: u64,
    pub pm: u64,
    pub dram: u64,
    pub remote: u64,
    pub random: u64,
    pub accesses: u64,
}

impl Mem {
    pub fn of(s: &AccessSummary) -> Mem {
        Mem {
            total: s.total_bytes,
            pm: s.pm_bytes,
            dram: s.dram_bytes,
            remote: s.remote_bytes,
            random: s.random_bytes,
            accesses: s.total_accesses,
        }
    }

    pub fn since(self, earlier: Mem) -> Mem {
        Mem {
            total: self.total - earlier.total,
            pm: self.pm - earlier.pm,
            dram: self.dram - earlier.dram,
            remote: self.remote - earlier.remote,
            random: self.random - earlier.random,
            accesses: self.accesses - earlier.accesses,
        }
    }

    pub fn plus(self, other: Mem) -> Mem {
        Mem {
            total: self.total + other.total,
            pm: self.pm + other.pm,
            dram: self.dram + other.dram,
            remote: self.remote + other.remote,
            random: self.random + other.random,
            accesses: self.accesses + other.accesses,
        }
    }
}

/// Everything exact about the window: simulated times, outcomes, bytes and
/// per-layer counts. Two windows of one seed must compare equal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ledger {
    /// Ops attempted in the window.
    pub ops: u64,
    /// Ops answered in full and on time.
    pub ok: u64,
    pub sim_total_ns: u64,
    pub lat_mean_ns: f64,
    pub lat_p99_ns: u64,
    pub mem: Mem,
    /// Per-layer count and sim metrics, by catalogue name.
    pub counts: Vec<(&'static str, f64)>,
}

/// One timed unit.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ops: u64,
    pub wall_ns: u64,
    /// Ops whose outcome was wrong (bad answer, lost request).
    pub failed: u64,
}

pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, pass: bool, detail: String) -> Check {
        Check { name, pass, detail }
    }
}

pub struct Quality {
    pub value: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

/// Ops counted per phase of a run.
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

pub type Layers = BTreeMap<&'static str, f64>;

/// A built workload: inputs generated, stores and engines constructed.
pub trait Instance {
    fn warm_units(&self) -> usize;
    fn window_units(&self) -> usize;
    /// Run one unit, with benchmark spans around each public call.
    fn unit(&mut self, tr: &mut Tracer) -> Sample;
    /// Start the window's ledger at the current state.
    fn ledger_begin(&mut self);
    fn ledger_end(&mut self) -> Ledger;
    /// Check the outputs against an oracle.
    fn check(&mut self, tr: &mut Tracer) -> Quality;
    /// Traced pass only: this workload's layer measurements beyond what
    /// the driver derives from the window itself.
    fn layers(&mut self, ctx: &mut LayerCtx<'_>);
}

/// What [`Instance::layers`] has to work with.
pub struct LayerCtx<'a> {
    pub params: &'a Params,
    pub out: &'a mut Layers,
    /// The hooks-off window.
    pub base: &'a Window,
    pub profiler: &'a PoolProfiler,
    pub recorder: &'a Recorder,
    pub tracer: &'a mut Tracer,
    /// Median nanoseconds of each set-up span name.
    pub setup_ns: &'a BTreeMap<&'static str, f64>,
    pub checks: &'a mut Vec<Check>,
}

impl LayerCtx<'_> {
    pub fn set(&mut self, name: &'static str, value: f64) {
        set(self.out, name, value);
    }

    /// Self wall nanoseconds and entries of a `phase_scope` label under
    /// the hooks.
    pub fn scope(&self, label: &str) -> (f64, u64) {
        self.profiler
            .profiles()
            .iter()
            .find(|(l, _)| l == label)
            .map_or((0.0, 0), |(_, p)| {
                (p.scope_self_wall_ns as f64, p.scope_calls)
            })
    }
}

pub fn set(out: &mut Layers, name: &'static str, value: f64) {
    assert!(
        out.insert(name, value).is_some(),
        "{name} is not in the per-layer catalogue"
    );
}

pub type Build<'a> = &'a dyn Fn(&Recorder, &mut Tracer) -> Box<dyn Instance>;

/// A window's samples and ledger.
pub struct Window {
    pub samples: Vec<Sample>,
    pub ledger: Ledger,
    pub wall_ns: u64,
    /// `VmHWM` when the warm-up ended. Read there, not at exit: what the
    /// allocator keeps of later units varies from run to run by more than
    /// any bound, while set-up plus one warm-up holds everything live.
    pub peak_rss_mb: f64,
}

impl Window {
    pub fn call_ns(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.wall_ns as f64).collect()
    }

    /// Wall nanoseconds of the whole window loop per op.
    pub fn ns_per_op(&self) -> f64 {
        let ops: u64 = self.samples.iter().map(|s| s.ops).sum();
        self.wall_ns as f64 / ops.max(1) as f64
    }
}

fn run_units(inst: &mut dyn Instance, tr: &mut Tracer, n: usize, into: &mut Vec<Sample>) {
    for _ in 0..n {
        tr.next_unit();
        let unit = tr.begin("bench.unit");
        let s = inst.unit(tr);
        tr.end(unit);
        into.push(s);
    }
}

/// Warm up, then run the fixed window.
pub fn run_window(inst: &mut dyn Instance, tr: &mut Tracer, warm: &mut Vec<Sample>) -> Window {
    let (warm_units, window_units) = (inst.warm_units(), inst.window_units());
    run_units(inst, tr, warm_units, warm);
    let peak_rss_mb = host::peak_rss_mb();
    inst.ledger_begin();
    let mut samples = Vec::with_capacity(window_units);
    let start = Instant::now();
    run_units(inst, tr, window_units, &mut samples);
    let wall_ns = start.elapsed().as_nanos() as u64;
    Window {
        samples,
        ledger: inst.ledger_end(),
        wall_ns,
        peak_rss_mb,
    }
}

impl Quality {
    fn phase(&self) -> Phase {
        Phase {
            name: "check",
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

fn phase(name: &'static str, samples: &[Sample]) -> Phase {
    Phase {
        name,
        attempted: samples.iter().map(|s| s.ops).sum(),
        failed: samples.iter().map(|s| s.failed).sum(),
    }
}

/// Set up at least `MIN_SETUPS` times (once when quick), and while set-ups
/// are cheap up to `MAX_SETUPS` times within `SETUP_BUDGET_S`: a set-up of
/// a few milliseconds needs many repeats for a median that holds still.
/// The last builds are kept, one per recorder given; earlier ones are
/// dropped before the next build, so the peak holds no spare instance.
/// Returns the kept instances and every set-up's seconds.
fn set_up(
    build: Build<'_>,
    recorders: &[Recorder],
    params: &Params,
    tr: &mut Tracer,
) -> (Vec<Box<dyn Instance>>, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut timed = |rec: &Recorder, tr: &mut Tracer| {
        let open = tr.begin("bench.setup");
        let start = Instant::now();
        let inst = build(rec, tr);
        seconds.push(start.elapsed().as_secs_f64());
        tr.end(open);
        inst
    };
    let least = if params.quick { 1 } else { MIN_SETUPS }.saturating_sub(recorders.len());
    let most = if params.quick { 1 } else { MAX_SETUPS }.saturating_sub(recorders.len());
    let begun = Instant::now();
    let mut spare = 0;
    while spare < least || (spare < most && begun.elapsed().as_secs_f64() < SETUP_BUDGET_S) {
        drop(timed(&Recorder::disabled(), tr));
        spare += 1;
    }
    let kept = recorders.iter().map(|rec| timed(rec, tr)).collect();
    (kept, seconds)
}

pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Vec<Check>,
    pub phases: Vec<Phase>,
    /// Timed calls behind the wall metrics.
    pub samples: usize,
}

/// The untraced pass: every end-to-end metric.
pub fn untraced(build: Build<'_>, params: &Params) -> Outcome {
    let mut tr = Tracer::new(false);
    let (mut kept, setup_s) = set_up(build, &[Recorder::disabled()], params, &mut tr);
    let mut inst = kept.pop().expect("one instance kept");
    let (inst, tr) = (inst.as_mut(), &mut tr);
    let mut warm = Vec::new();
    let start = Instant::now();
    let window = run_window(inst, tr, &mut warm);
    let mut steady = Vec::new();
    while start.elapsed().as_secs_f64() < params.seconds {
        run_units(inst, tr, 1, &mut steady);
    }
    let quality = inst.check(tr);

    let timed: Vec<Sample> = window.samples.iter().chain(&steady).copied().collect();
    let ops: u64 = timed.iter().map(|s| s.ops).sum();
    let call_ns: Vec<f64> = timed.iter().map(|s| s.wall_ns as f64).collect();
    let l = &window.ledger;
    let sim_s = l.sim_total_ns as f64 * 1e-9;
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        (
            "wall_ops_per_s",
            ops as f64 * 1e9 / call_ns.iter().sum::<f64>(),
        ),
        ("wall_call_p50_ms", median(&call_ns) * 1e-6),
        ("peak_rss_mb", window.peak_rss_mb),
        ("sim_total_ms", l.sim_total_ns as f64 * 1e-6),
        ("sim_lat_mean_us", l.lat_mean_ns * 1e-3),
        ("sim_lat_p99_us", l.lat_p99_ns as f64 * 1e-3),
        ("sim_goodput_per_s", l.ok as f64 / sim_s),
        ("ok_share", l.ok as f64 / l.ops.max(1) as f64),
        ("quality", quality.value),
    ];
    let phases = vec![
        Phase {
            name: "set-up",
            attempted: setup_s.len() as u64,
            failed: 0,
        },
        phase("warm-up", &warm),
        phase("window", &window.samples),
        phase("steady", &steady),
        quality.phase(),
    ];
    Outcome {
        metrics,
        checks: quality.checks,
        phases,
        samples: timed.len(),
    }
}

/// The traced pass: every per-layer metric, and the trace itself.
pub fn traced(build: Build<'_>, params: &Params, trace_path: &std::path::Path) -> Outcome {
    let mut out: Layers = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut checks = Vec::new();
    let mut tr = Tracer::new(true);
    let recorder = Recorder::enabled();
    let (mut kept, _) = set_up(
        build,
        &[Recorder::disabled(), recorder.clone()],
        params,
        &mut tr,
    );
    let setup_ns = median_by_name(&tr);
    let mut hooked = kept.pop().expect("two instances kept");
    let mut plain = kept.pop().expect("two instances kept");

    // Hooks off: no recorder, no profiler, no benchmark spans.
    let mut warm = Vec::new();
    let base = run_window(plain.as_mut(), &mut Tracer::new(false), &mut warm);

    // Hooks on: the same window on an identically built instance.
    let profiler = PoolProfiler::enabled();
    let hooked_start = Instant::now();
    let traced = {
        let _installed = omega_par::install(&profiler);
        run_window(hooked.as_mut(), &mut tr, &mut warm)
    };
    // The profiler saw the warm-up too, so its shares are of both.
    let hooked_ns = hooked_start.elapsed().as_nanos() as u64;
    let untouched = base.ledger == traced.ledger;
    checks.push(Check::new(
        "tracing leaves the model untouched",
        untouched,
        format!("hooks off and hooks on agree on every sim, byte and count value: {untouched}"),
    ));

    // What the window itself says about the layers.
    let l = &base.ledger;
    let mb = |b: u64| b as f64 / 1e6;
    set(&mut out, "hetmem.bytes_total_mb", mb(l.mem.total));
    set(&mut out, "hetmem.bytes_pm_mb", mb(l.mem.pm));
    set(&mut out, "hetmem.bytes_dram_mb", mb(l.mem.dram));
    set(&mut out, "hetmem.bytes_remote_mb", mb(l.mem.remote));
    set(&mut out, "hetmem.bytes_random_mb", mb(l.mem.random));
    set(&mut out, "hetmem.accesses", l.mem.accesses as f64);
    for &(name, value) in &l.counts {
        set(&mut out, name, value);
    }
    set(
        &mut out,
        "obs.trace_overhead_share",
        traced.ns_per_op() / base.ns_per_op() - 1.0,
    );
    let call_ns = base.call_ns();
    set(&mut out, "bench.samples", call_ns.len() as f64);
    if let Some((q, ns)) = supported_tail(&call_ns) {
        set(&mut out, "bench.wall_call_tail_ms", ns * 1e-6);
        set(&mut out, "bench.tail_percentile", q);
    }
    pool_shares(&mut out, &profiler, hooked_ns);
    set(
        &mut out,
        "bench.unattributed_share",
        unattributed_share(&tr),
    );

    let quality = hooked.check(&mut tr);
    let check_phase = quality.phase();
    checks.extend(quality.checks);
    plain.layers(&mut LayerCtx {
        params,
        out: &mut out,
        base: &base,
        profiler: &profiler,
        recorder: &recorder,
        tracer: &mut tr,
        setup_ns: &setup_ns,
        checks: &mut checks,
    });
    crate::layers::every_workload(&mut out);

    match tr.write_jsonl(trace_path) {
        Ok(()) => println!(
            "# trace: {} spans in {}",
            tr.spans().len(),
            trace_path.display()
        ),
        Err(e) => eprintln!(
            "warning: trace not written to {}: {e}",
            trace_path.display()
        ),
    }
    print_self_times(&tr);

    let phases = vec![
        phase("warm-up", &warm),
        phase("window hooks off", &base.samples),
        phase("window hooks on", &traced.samples),
        check_phase,
    ];
    Outcome {
        metrics: PER_LAYER.iter().map(|m| (m.name, out[m.name])).collect(),
        checks,
        phases,
        samples: base.samples.len(),
    }
}

/// How much of the hooked wall was inside parallel pool calls, and where
/// that time went. Inline calls are left out: on the caller's thread they
/// nest inside parallel ones and would count twice.
fn pool_shares(out: &mut Layers, profiler: &PoolProfiler, hooked_ns: u64) {
    let total = profiler.total();
    set(
        out,
        "par.call_share",
        total.wall_ns as f64 / hooked_ns.max(1) as f64,
    );
    let share = |ns: u64| ns as f64 / total.wall_ns.max(1) as f64;
    set(out, "par.exec_share", share(total.exec_wall_ns));
    set(out, "par.idle_share", share(total.idle_wall_ns));
    set(out, "par.park_share", share(total.park_wall_ns));
    set(out, "par.barrier_share", share(total.barrier_wall_ns));
}

/// Share of the traced units' wall that no layer span covers: the self
/// time of the `bench.unit` spans, whose children are all layer spans.
fn unattributed_share(tr: &Tracer) -> f64 {
    let units = self_times(tr.spans())
        .get("bench.unit")
        .copied()
        .unwrap_or_default();
    units.self_ns as f64 / units.total_ns.max(1) as f64
}

fn median_by_name(tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in tr.spans() {
        by_name
            .entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64);
    }
    by_name.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

fn print_self_times(tr: &Tracer) {
    println!("# span self times (name count total_ms self_ms):");
    for (name, t) in self_times(tr.spans()) {
        println!(
            "#   {name} {} {:.3} {:.3}",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6
        );
    }
}
