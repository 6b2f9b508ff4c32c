//! The calibrated bandwidth/latency cost model.
//!
//! Every memory access is classified along four axes and each class has a
//! peak bandwidth and a saturation thread count. The defaults encode the
//! ratios measured by the paper (Fig. 9, §I, §III-D) on the two-socket
//! Optane testbed; the `fig09_pm_bandwidth` bench replays the paper's
//! FIO/MLC sweep against this table as a calibration check.

use crate::clock::SimDuration;
use crate::device::DeviceKind;
use crate::tracker::ClassCounters;

/// Whether an access stream is sequential (stride-1 over the buffer) or
/// random (data-dependent indices, as in `get_dense_nnz` of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    Seq,
    Rand,
}

impl AccessPattern {
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            AccessPattern::Seq => 0,
            AccessPattern::Rand => 1,
        }
    }

    pub const fn label(self) -> &'static str {
        match self {
            AccessPattern::Seq => "SEQ",
            AccessPattern::Rand => "RAND",
        }
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOp {
    Read,
    Write,
}

impl AccessOp {
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            AccessOp::Read => 0,
            AccessOp::Write => 1,
        }
    }

    pub const fn label(self) -> &'static str {
        match self {
            AccessOp::Read => "R",
            AccessOp::Write => "W",
        }
    }
}

/// Whether the accessed memory is on the accessing thread's socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locality {
    Local,
    Remote,
}

impl Locality {
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Locality::Local => 0,
            Locality::Remote => 1,
        }
    }

    pub const fn label(self) -> &'static str {
        match self {
            Locality::Local => "L",
            Locality::Remote => "R",
        }
    }
}

/// A fully-classified memory access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessClass {
    pub device: DeviceKind,
    pub locality: Locality,
    pub op: AccessOp,
    pub pattern: AccessPattern,
}

/// Number of distinct access classes (3 devices × 2 localities × 2 ops × 2
/// patterns).
pub(crate) const NUM_CLASSES: usize = 24;

impl AccessClass {
    #[inline]
    pub const fn new(
        device: DeviceKind,
        locality: Locality,
        op: AccessOp,
        pattern: AccessPattern,
    ) -> Self {
        AccessClass {
            device,
            locality,
            op,
            pattern,
        }
    }

    /// Dense index into class tables, `0..NUM_CLASSES`.
    #[inline]
    pub const fn index(self) -> usize {
        self.device.index() * 8
            + self.locality.index() * 4
            + self.op.index() * 2
            + self.pattern.index()
    }

    /// Inverse of [`AccessClass::index`].
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i < NUM_CLASSES);
        let device = DeviceKind::ALL[i / 8];
        let locality = if (i / 4).is_multiple_of(2) {
            Locality::Local
        } else {
            Locality::Remote
        };
        let op = if (i / 2).is_multiple_of(2) {
            AccessOp::Read
        } else {
            AccessOp::Write
        };
        let pattern = if i.is_multiple_of(2) {
            AccessPattern::Seq
        } else {
            AccessPattern::Rand
        };
        AccessClass::new(device, locality, op, pattern)
    }

    /// Iterate over all classes in index order.
    pub fn all() -> impl Iterator<Item = AccessClass> {
        (0..NUM_CLASSES).map(AccessClass::from_index)
    }
}

impl std::fmt::Display for AccessClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-{}-{}-{}",
            self.device.label(),
            self.locality.label(),
            self.op.label(),
            self.pattern.label()
        )
    }
}

/// Per-class bandwidth parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassBandwidth {
    /// Peak aggregate bandwidth in GiB/s once saturated.
    pub peak_gib_s: f64,
    /// Number of threads needed to saturate the class. Below saturation the
    /// delivered bandwidth scales linearly with thread count.
    pub saturation_threads: u32,
}

/// The full cost model: per-class bandwidth table, per-class latency, and a
/// scalar CPU throughput for the arithmetic term of Eq. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthModel {
    classes: [ClassBandwidth; NUM_CLASSES],
    latency_ns: [f64; NUM_CLASSES],
    /// Scalar CPU operations (multiply-accumulate in the SpMM inner loop)
    /// retired per second per thread.
    pub cpu_ops_per_sec: f64,
}

impl BandwidthModel {
    /// The calibrated default model for the paper's two-socket Optane
    /// machine. See the module docs for the encoded ratios.
    pub fn paper_machine() -> Self {
        use AccessOp::*;
        use AccessPattern::*;
        use DeviceKind::*;
        use Locality::*;

        let mut classes = [ClassBandwidth {
            peak_gib_s: 1.0,
            saturation_threads: 8,
        }; NUM_CLASSES];
        let mut latency_ns = [100.0; NUM_CLASSES];

        let mut set = |d, l, o, p, peak: f64, sat: u32, lat: f64| {
            let c = AccessClass::new(d, l, o, p).index();
            classes[c] = ClassBandwidth {
                peak_gib_s: peak,
                saturation_threads: sat,
            };
            latency_ns[c] = lat;
        };

        // DRAM: DDR4, 3 channels populated per socket.
        set(Dram, Local, Read, Seq, 60.0, 12, 90.0);
        set(Dram, Local, Read, Rand, 25.0, 12, 90.0);
        set(Dram, Local, Write, Seq, 40.0, 10, 90.0);
        set(Dram, Local, Write, Rand, 18.0, 10, 90.0);
        set(Dram, Remote, Read, Seq, 35.0, 12, 140.0);
        set(Dram, Remote, Read, Rand, 15.0, 12, 140.0);
        set(Dram, Remote, Write, Seq, 20.0, 10, 140.0);
        set(Dram, Remote, Write, Rand, 9.0, 10, 140.0);

        // Optane PM. Ratios from the paper:
        //  seq local read = DRAM/3; seq remote read ~= seq local read;
        //  seq local read = 2.41x rand local = 2.45x rand remote (Fig. 9);
        //  seq local write = DRAM write/6; = 3.23x seq remote, = 4.99x rand
        //  remote; rand local write = 69.2% of seq local (Fig. 9);
        //  latency: local 4.2x DRAM local, remote 3.3x DRAM remote (S III-D).
        set(Pm, Local, Read, Seq, 20.0, 8, 378.0);
        set(Pm, Local, Read, Rand, 20.0 / 2.41, 8, 378.0);
        set(Pm, Local, Write, Seq, 40.0 / 6.0, 4, 378.0);
        set(Pm, Local, Write, Rand, 40.0 / 6.0 * 0.692, 4, 378.0);
        set(Pm, Remote, Read, Seq, 19.0, 8, 462.0);
        set(Pm, Remote, Read, Rand, 20.0 / 2.45, 8, 462.0);
        set(Pm, Remote, Write, Seq, 40.0 / 6.0 / 3.23, 4, 462.0);
        set(Pm, Remote, Write, Rand, 40.0 / 6.0 / 4.99, 4, 462.0);

        // NVMe SSD (Intel P5510-class). Locality is irrelevant for a PCIe
        // device; both rows carry the same numbers. Latency is per-IO.
        for l in [Local, Remote] {
            set(Ssd, l, Read, Seq, 6.5, 8, 80_000.0);
            set(Ssd, l, Read, Rand, 2.8, 8, 80_000.0);
            set(Ssd, l, Write, Seq, 3.4, 8, 80_000.0);
            set(Ssd, l, Write, Rand, 1.8, 8, 80_000.0);
        }

        BandwidthModel {
            classes,
            latency_ns,
            cpu_ops_per_sec: 2.0e9,
        }
    }

    /// Parameters of one class.
    #[inline]
    pub fn class(&self, class: AccessClass) -> ClassBandwidth {
        self.classes[class.index()]
    }

    /// Device access latency for a class, in nanoseconds.
    #[inline]
    pub fn latency_ns(&self, class: AccessClass) -> f64 {
        self.latency_ns[class.index()]
    }

    /// Whether a class suffers Optane's contention collapse: PM random
    /// reads and all PM writes *lose* aggregate bandwidth when driven by
    /// more threads than saturate the DIMMs (the XPBuffer thrashing Yang
    /// et al. [FAST'20] measure, visible in Fig. 9's RAND/W curves).
    fn degrades_past_saturation(class: AccessClass) -> bool {
        class.device == DeviceKind::Pm
            && (class.pattern == AccessPattern::Rand || class.op == AccessOp::Write)
    }

    /// Aggregate delivered bandwidth (GiB/s) for `threads` concurrent
    /// threads all issuing this class: linear ramp up to saturation, flat
    /// peak beyond — except for PM's contention-collapsing classes, whose
    /// aggregate *decays* as `peak · sat/T` past saturation (Fig. 9 shape).
    pub fn aggregate_bandwidth(&self, class: AccessClass, threads: u32) -> f64 {
        let c = self.class(class);
        let t = threads.max(1) as f64;
        let sat = c.saturation_threads as f64;
        if t <= sat {
            c.peak_gib_s * t / sat
        } else if Self::degrades_past_saturation(class) && self.pm_collapses() {
            c.peak_gib_s * sat / t
        } else {
            c.peak_gib_s
        }
    }

    /// Bandwidth available to *one* of `threads` concurrent threads issuing
    /// this class (GiB/s): below saturation each thread sustains its own
    /// issue rate `peak/sat`; above, the (possibly decayed) aggregate is
    /// shared.
    #[inline]
    pub fn per_thread_bandwidth(&self, class: AccessClass, threads: u32) -> f64 {
        let t = threads.max(1);
        self.aggregate_bandwidth(class, t) / t as f64
    }

    /// Simulated time for one thread's accumulated accesses, given that
    /// `active_threads` threads ran concurrently during the phase.
    ///
    /// Memory term: per class, `media_bytes / per_thread_bandwidth`.
    /// SSD additionally pays a per-IO latency (block device semantics).
    /// CPU term: `cpu_ops / cpu_ops_per_sec` (the `BW_CPU` term of Eq. 2).
    pub fn thread_time(&self, counters: &ClassCounters, active_threads: u32) -> SimDuration {
        const GIB: f64 = (1u64 << 30) as f64;
        let mut ns = 0.0f64;
        for class in AccessClass::all() {
            let ctr = counters.get(class);
            if ctr.media_bytes == 0 && ctr.accesses == 0 {
                continue;
            }
            let bw = self.per_thread_bandwidth(class, active_threads);
            ns += ctr.media_bytes as f64 / (bw * GIB) * 1e9;
            if class.device == DeviceKind::Ssd {
                ns += ctr.accesses as f64 * self.latency_ns(class);
            }
        }
        ns += counters.cpu_ops() as f64 / self.cpu_ops_per_sec * 1e9;
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// Simulated time for a *device-saturated bulk stream*: the counters
    /// describe aggregate traffic moved by enough parallel workers (or DMA
    /// queues) to saturate each device, so each class is billed at its peak
    /// bandwidth. SSD per-IO latency is amortised by a deep NVMe queue.
    /// Used by the analytic system models (out-of-core baselines); per
    /// simulated-thread accounting uses [`BandwidthModel::thread_time`].
    pub fn stream_time(&self, counters: &ClassCounters) -> SimDuration {
        const GIB: f64 = (1u64 << 30) as f64;
        const SSD_QUEUE_DEPTH: f64 = 64.0;
        let mut ns = 0.0f64;
        for class in AccessClass::all() {
            let ctr = counters.get(class);
            if ctr.media_bytes == 0 && ctr.accesses == 0 {
                continue;
            }
            ns += ctr.media_bytes as f64 / (self.class(class).peak_gib_s * GIB) * 1e9;
            if class.device == DeviceKind::Ssd {
                ns += ctr.accesses as f64 * self.latency_ns(class) / SSD_QUEUE_DEPTH;
            }
        }
        ns += counters.cpu_ops() as f64 / self.cpu_ops_per_sec * 1e9;
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// A forward-looking CXL-attached-memory model — the paper's
    /// conclusion: "The rise of CXL enables the integration of PM into
    /// scalable memory architectures". The PM slots are re-parameterised as
    /// CXL.mem expander numbers (contemporary Type-3 devices): symmetric
    /// ~28 GiB/s sequential, ~half that random, ~250 ns loaded latency, and
    /// — crucially — no XPBuffer-style write/random contention collapse and
    /// a 64 B access granularity (handled by the device staying `Pm` in the
    /// class table; granularity effects are folded into the random peaks).
    pub fn cxl_machine() -> Self {
        use AccessOp::*;
        use AccessPattern::*;
        use DeviceKind::*;
        use Locality::*;

        let mut m = Self::paper_machine();
        let mut set = |l, o, p, peak: f64, sat: u32, lat: f64| {
            let c = AccessClass::new(Pm, l, o, p).index();
            m.classes[c] = ClassBandwidth {
                peak_gib_s: peak,
                saturation_threads: sat,
            };
            m.latency_ns[c] = lat;
        };
        set(Local, Read, Seq, 28.0, 10, 250.0);
        set(Local, Read, Rand, 14.0, 10, 250.0);
        set(Local, Write, Seq, 24.0, 10, 250.0);
        set(Local, Write, Rand, 12.0, 10, 250.0);
        set(Remote, Read, Seq, 24.0, 10, 330.0);
        set(Remote, Read, Rand, 12.0, 10, 330.0);
        set(Remote, Write, Seq, 18.0, 10, 330.0);
        set(Remote, Write, Rand, 9.0, 10, 330.0);
        m
    }

    /// Whether this model's PM slots keep Optane's contention collapse.
    /// `paper_machine` does; `cxl_machine` does not — the degradation rule
    /// consults this flag.
    fn pm_collapses(&self) -> bool {
        // Optane signature: PM sequential write peak far below its read.
        let w = self.class(AccessClass::new(
            DeviceKind::Pm,
            Locality::Local,
            AccessOp::Write,
            AccessPattern::Seq,
        ));
        let r = self.class(AccessClass::new(
            DeviceKind::Pm,
            Locality::Local,
            AccessOp::Read,
            AccessPattern::Seq,
        ));
        w.peak_gib_s < r.peak_gib_s * 0.5
    }
}

impl Default for BandwidthModel {
    fn default() -> Self {
        Self::paper_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessOp::*;
    use AccessPattern::*;
    use DeviceKind::*;
    use Locality::*;

    fn peak(m: &BandwidthModel, d: DeviceKind, l: Locality, o: AccessOp, p: AccessPattern) -> f64 {
        m.class(AccessClass::new(d, l, o, p)).peak_gib_s
    }

    #[test]
    fn class_index_roundtrips() {
        for i in 0..NUM_CLASSES {
            assert_eq!(AccessClass::from_index(i).index(), i);
        }
        assert_eq!(AccessClass::all().count(), NUM_CLASSES);
    }

    #[test]
    fn paper_ratio_pm_read_one_third_of_dram() {
        let m = BandwidthModel::paper_machine();
        let ratio = peak(&m, Dram, Local, Read, Seq) / peak(&m, Pm, Local, Read, Seq);
        assert!((ratio - 3.0).abs() < 0.1, "ratio={ratio}");
    }

    #[test]
    fn paper_ratio_pm_write_one_sixth_of_dram() {
        let m = BandwidthModel::paper_machine();
        let ratio = peak(&m, Dram, Local, Write, Seq) / peak(&m, Pm, Local, Write, Seq);
        assert!((ratio - 6.0).abs() < 0.1, "ratio={ratio}");
    }

    #[test]
    fn paper_fig9_pm_read_ratios() {
        let m = BandwidthModel::paper_machine();
        // Sequential remote read comparable to sequential local read.
        let seq_l = peak(&m, Pm, Local, Read, Seq);
        let seq_r = peak(&m, Pm, Remote, Read, Seq);
        assert!(seq_r / seq_l > 0.9);
        // Sequential beats random local by ~2.41x and random remote by ~2.45x.
        assert!((seq_l / peak(&m, Pm, Local, Read, Rand) - 2.41).abs() < 0.05);
        assert!((seq_l / peak(&m, Pm, Remote, Read, Rand) - 2.45).abs() < 0.05);
    }

    #[test]
    fn paper_fig9_pm_write_ratios() {
        let m = BandwidthModel::paper_machine();
        let seq_l = peak(&m, Pm, Local, Write, Seq);
        assert!((seq_l / peak(&m, Pm, Remote, Write, Seq) - 3.23).abs() < 0.05);
        assert!((seq_l / peak(&m, Pm, Remote, Write, Rand) - 4.99).abs() < 0.05);
        // Local writes always beat remote writes.
        assert!(peak(&m, Pm, Local, Write, Rand) > peak(&m, Pm, Remote, Write, Rand));
    }

    #[test]
    fn paper_latency_multipliers() {
        let m = BandwidthModel::paper_machine();
        let pm_local = m.latency_ns(AccessClass::new(Pm, Local, Read, Seq));
        let pm_remote = m.latency_ns(AccessClass::new(Pm, Remote, Read, Seq));
        let dram_local = m.latency_ns(AccessClass::new(Dram, Local, Read, Seq));
        let dram_remote = m.latency_ns(AccessClass::new(Dram, Remote, Read, Seq));
        assert!((pm_local / dram_local - 4.2).abs() < 0.01);
        assert!((pm_remote / dram_remote - 3.3).abs() < 0.01);
    }

    #[test]
    fn bandwidth_ramps_then_saturates() {
        let m = BandwidthModel::paper_machine();
        let c = AccessClass::new(Pm, Local, Read, Seq);
        let b1 = m.aggregate_bandwidth(c, 1);
        let b4 = m.aggregate_bandwidth(c, 4);
        let b8 = m.aggregate_bandwidth(c, 8);
        let b18 = m.aggregate_bandwidth(c, 18);
        assert!((b4 / b1 - 4.0).abs() < 1e-9);
        assert_eq!(b8, b18); // saturated
        assert!((b8 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn pm_random_bandwidth_collapses_under_contention() {
        let m = BandwidthModel::paper_machine();
        let c = AccessClass::new(Pm, Local, Read, Rand);
        let at_sat = m.aggregate_bandwidth(c, 8);
        let oversubscribed = m.aggregate_bandwidth(c, 30);
        assert!(
            oversubscribed < at_sat * 0.5,
            "PM random aggregate should collapse: {oversubscribed} vs {at_sat}"
        );
        // DRAM and PM sequential reads stay flat.
        let seq = AccessClass::new(Pm, Local, Read, Seq);
        assert_eq!(
            m.aggregate_bandwidth(seq, 8),
            m.aggregate_bandwidth(seq, 30)
        );
        let dram = AccessClass::new(Dram, Local, Read, Rand);
        assert_eq!(
            m.aggregate_bandwidth(dram, 12),
            m.aggregate_bandwidth(dram, 30)
        );
    }

    #[test]
    fn per_thread_bandwidth_is_shared_after_saturation() {
        let m = BandwidthModel::paper_machine();
        let c = AccessClass::new(Dram, Local, Read, Seq);
        let below = m.per_thread_bandwidth(c, 4);
        let at = m.per_thread_bandwidth(c, 12);
        let above = m.per_thread_bandwidth(c, 24);
        assert_eq!(below, at); // below saturation each thread runs at issue rate
        assert!((at / above - 2.0).abs() < 1e-9);
    }

    #[test]
    fn thread_time_charges_memory_and_cpu() {
        let m = BandwidthModel::paper_machine();
        let mut ctr = ClassCounters::default();
        let c = AccessClass::new(Pm, Local, Read, Seq);
        ctr.charge(c, 1 << 30, 1 << 30, 1); // 1 GiB sequential PM read
        ctr.add_cpu_ops(2_000_000_000); // 1 s of CPU at 2 Gops/s
        let t = m.thread_time(&ctr, 1);
        // 1 GiB at 20/8 GiB/s per thread = 0.4 s, plus 1 s CPU.
        assert!((t.as_secs_f64() - 1.4).abs() < 0.01, "t={t}");
    }

    #[test]
    fn ssd_charges_per_io_latency() {
        let m = BandwidthModel::paper_machine();
        let mut ctr = ClassCounters::default();
        let c = AccessClass::new(Ssd, Local, Read, Rand);
        ctr.charge(c, 4096, 4096, 1);
        let t = m.thread_time(&ctr, 1);
        // Dominated by 80 us IO latency.
        assert!(t.as_nanos() >= 80_000, "t={t}");
    }

    #[test]
    fn stream_time_bills_at_peak() {
        let m = BandwidthModel::paper_machine();
        let mut ctr = ClassCounters::default();
        let c = AccessClass::new(Ssd, Local, Read, Seq);
        ctr.charge(c, 13 << 30, 13 << 30, 1); // 13 GiB at 6.5 GiB/s = 2 s
        let t = m.stream_time(&ctr);
        assert!((t.as_secs_f64() - 2.0).abs() < 0.01, "t={t}");
        // Far cheaper than the per-thread view of one thread in a pool.
        assert!(t < m.thread_time(&ctr, 30));
    }

    #[test]
    fn stream_time_amortises_ssd_latency() {
        let m = BandwidthModel::paper_machine();
        let mut ctr = ClassCounters::default();
        let c = AccessClass::new(Ssd, Local, Read, Rand);
        ctr.charge(c, 4096, 4096, 1);
        // One 4 KiB random page: ~1.4 us transfer + 80/64 us latency.
        let t = m.stream_time(&ctr);
        assert!(t.as_nanos() > 2_000 && t.as_nanos() < 4_000, "t={t}");
    }

    #[test]
    fn cxl_machine_is_symmetric_and_collapse_free() {
        let m = BandwidthModel::cxl_machine();
        // Reads and writes within 2.5x of each other (vs Optane's 6x gap).
        let r = peak(&m, Pm, Local, Read, Seq);
        let w = peak(&m, Pm, Local, Write, Seq);
        assert!(r / w < 2.5, "r={r} w={w}");
        // No contention collapse: oversubscription holds the peak.
        let c = AccessClass::new(Pm, Local, Write, Rand);
        assert_eq!(m.aggregate_bandwidth(c, 10), m.aggregate_bandwidth(c, 30));
        // The Optane model still collapses.
        let opt = BandwidthModel::paper_machine();
        assert!(opt.aggregate_bandwidth(c, 30) < opt.aggregate_bandwidth(c, 8));
    }
}
