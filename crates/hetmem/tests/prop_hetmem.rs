//! Property-based tests of the memory substrate's accounting invariants.

use omega_hetmem::{
    AccessClass, AccessOp, AccessPattern, BandwidthModel, ClassCounters, DeviceKind, Locality,
    MemSystem, Placement, SimDuration, ThreadMem, Topology,
};
use proptest::prelude::*;

fn arb_device() -> impl Strategy<Value = DeviceKind> {
    prop_oneof![
        Just(DeviceKind::Dram),
        Just(DeviceKind::Pm),
        Just(DeviceKind::Ssd)
    ]
}

fn arb_op() -> impl Strategy<Value = AccessOp> {
    prop_oneof![Just(AccessOp::Read), Just(AccessOp::Write)]
}

fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    prop_oneof![Just(AccessPattern::Seq), Just(AccessPattern::Rand)]
}

fn arb_class() -> impl Strategy<Value = AccessClass> {
    (
        arb_device(),
        prop_oneof![Just(Locality::Local), Just(Locality::Remote)],
        arb_op(),
        arb_pattern(),
    )
        .prop_map(|(device, locality, op, pattern)| AccessClass::new(device, locality, op, pattern))
}

/// A count that is zero a quarter of the time.
fn arb_count(max: u64) -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1..max, 1..max, 1..max]
}

/// The dense reference: all 24 classes, each `[bytes, media bytes,
/// accesses]`, walked and priced in full.
#[derive(Debug, Clone, Default, PartialEq)]
struct Dense {
    classes: [[u64; 3]; 24],
    cpu_ops: u64,
}

impl Dense {
    fn charge(&mut self, class: AccessClass, bytes: u64, media: u64, accesses: u64) {
        let c = &mut self.classes[class.index()];
        c[0] += bytes;
        c[1] += media;
        c[2] += accesses;
    }

    /// What a context on node 0 books for one `charge_block` to a buffer
    /// on `node`: payload bytes, or for random accesses the per-access
    /// payload rounded up to the device granule (at least one access).
    fn charge_block(
        &mut self,
        node: usize,
        class: (DeviceKind, AccessOp, AccessPattern),
        bytes: u64,
        accesses: u64,
    ) {
        let (device, op, pattern) = class;
        let locality = if node == 0 {
            Locality::Local
        } else {
            Locality::Remote
        };
        let media = match pattern {
            AccessPattern::Seq => bytes,
            AccessPattern::Rand if bytes | accesses == 0 => 0,
            AccessPattern::Rand => {
                let per_access = if accesses == 0 {
                    0
                } else {
                    bytes.div_ceil(accesses)
                };
                accesses.max(1) * device.access_granularity().max(per_access)
            }
        };
        self.charge(
            AccessClass::new(device, locality, op, pattern),
            bytes,
            media,
            accesses,
        );
    }

    fn merge(&mut self, other: &Dense) {
        for (c, o) in self.classes.iter_mut().zip(&other.classes) {
            for (x, y) in c.iter_mut().zip(o) {
                *x += y;
            }
        }
        self.cpu_ops += other.cpu_ops;
    }

    /// `BandwidthModel::thread_time` over every class.
    fn thread_time(&self, model: &BandwidthModel, threads: u32) -> SimDuration {
        const GIB: f64 = (1u64 << 30) as f64;
        let mut ns = 0.0f64;
        for class in AccessClass::all() {
            let [_, media, accesses] = self.classes[class.index()];
            if media == 0 && accesses == 0 {
                continue;
            }
            let bw = model.per_thread_bandwidth(class, threads);
            ns += media as f64 / (bw * GIB) * 1e9;
            if class.device == DeviceKind::Ssd {
                ns += accesses as f64 * model.latency_ns(class);
            }
        }
        ns += self.cpu_ops as f64 / model.cpu_ops_per_sec * 1e9;
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// `BandwidthModel::stream_time` over every class.
    fn stream_time(&self, model: &BandwidthModel) -> SimDuration {
        const GIB: f64 = (1u64 << 30) as f64;
        let mut ns = 0.0f64;
        for class in AccessClass::all() {
            let [_, media, accesses] = self.classes[class.index()];
            if media == 0 && accesses == 0 {
                continue;
            }
            ns += media as f64 / (model.class(class).peak_gib_s * GIB) * 1e9;
            if class.device == DeviceKind::Ssd {
                ns += accesses as f64 * model.latency_ns(class) / 64.0;
            }
        }
        ns += self.cpu_ops as f64 / model.cpu_ops_per_sec * 1e9;
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// A fresh table charged with this one's values, class by class.
    fn counters(&self) -> ClassCounters {
        let mut out = ClassCounters::default();
        for class in AccessClass::all() {
            let [bytes, media, accesses] = self.classes[class.index()];
            out.charge(class, bytes, media, accesses);
        }
        out.add_cpu_ops(self.cpu_ops);
        out
    }
}

/// One step on a task context and the ledger it folds into.
#[derive(Debug, Clone)]
enum Step {
    /// `charge_block` on the context, to a buffer on node 0 or node 1.
    Block(usize, (DeviceKind, AccessOp, AccessPattern), u64, u64),
    /// CPU work on the context.
    Cpu(u64),
    /// A direct ledger charge: bytes, media bytes, accesses.
    Ledger(AccessClass, u64, u64, u64),
    /// `ledger.merge(ctx.counters())`.
    Merge,
    /// `ctx.reset()`.
    Reset,
    /// `ledger.merge(&ctx.take_counters())`.
    Take,
}

fn arb_block() -> impl Strategy<Value = Step> {
    (
        0usize..2,
        (arb_device(), arb_op(), arb_pattern()),
        arb_count(100_000),
        arb_count(64),
    )
        .prop_map(|(node, class, bytes, accesses)| Step::Block(node, class, bytes, accesses))
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Context charges, twice as likely as any other step.
        arb_block(),
        arb_block(),
        arb_count(1_000_000).prop_map(Step::Cpu),
        (
            arb_class(),
            arb_count(100_000),
            arb_count(100_000),
            arb_count(64)
        )
            .prop_map(|(class, bytes, media, accesses)| Step::Ledger(
                class, bytes, media, accesses
            )),
        Just(Step::Merge),
        Just(Step::Reset),
        Just(Step::Take),
    ]
}

/// `counters` against its dense reference, on everything a consumer reads.
fn agrees(
    counters: &ClassCounters,
    dense: &Dense,
    models: &[BandwidthModel],
) -> Result<(), String> {
    if *counters != dense.counters() {
        return Err(format!("{counters:?} != {dense:?}"));
    }
    for class in AccessClass::all() {
        let c = counters.get(class);
        if [c.bytes, c.media_bytes, c.accesses] != dense.classes[class.index()] {
            return Err(format!("class {class}: {c:?} vs {dense:?}"));
        }
    }
    let dense_bytes: u64 = dense.classes.iter().map(|c| c[0]).sum();
    let dense_accesses: u64 = dense.classes.iter().map(|c| c[2]).sum();
    if counters.total_bytes() != dense_bytes || counters.total_accesses() != dense_accesses {
        return Err(format!("totals differ from {dense:?}"));
    }
    for model in models {
        for threads in 1..=36 {
            let (got, want) = (
                model.thread_time(counters, threads),
                dense.thread_time(model, threads),
            );
            if got != want {
                return Err(format!("thread_time at {threads}: {got:?} vs {want:?}"));
            }
        }
        let (got, want) = (model.stream_time(counters), dense.stream_time(model));
        if got != want {
            return Err(format!("stream_time: {got:?} vs {want:?}"));
        }
    }
    Ok(())
}

/// `media_at_least_payload` at the one input a `*.proptest-regressions`
/// file saved for it, which the vendored runner never replays: a 1 793 B
/// random DRAM read in two accesses bills two 897 B accesses.
#[test]
fn media_at_least_payload_saved_case() {
    let (device, op, pattern) = (DeviceKind::Dram, AccessOp::Read, AccessPattern::Rand);
    let mut ctx = ThreadMem::new(0, 2);
    ctx.charge_block(Placement::node(0, device), op, pattern, 1_793, 2);
    let ctr = ctx
        .counters()
        .get(AccessClass::new(device, Locality::Local, op, pattern));
    assert_eq!(ctr.bytes, 1_793);
    assert_eq!(ctr.media_bytes, 2 * 897);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pricing walks only the classes a table charged; it must price
    /// exactly what a walk over all 24 prices. After every step of a
    /// random sequence — context charges to every device, locality, op
    /// and pattern, zero-byte and zero-access ones among them, direct
    /// ledger charges, merges, resets and takes — the context and the
    /// ledger each agree with a dense reference: per-class counters,
    /// totals, `==`, `thread_time` at every width 1..=36 and `stream_time`,
    /// bit for bit, on the Optane and the CXL model.
    #[test]
    fn masked_pricing_equals_dense_pricing(steps in proptest::collection::vec(arb_step(), 1..40)) {
        let models = [BandwidthModel::paper_machine(), BandwidthModel::cxl_machine()];
        let mut ctx = ThreadMem::new(0, 2);
        let mut ledger = ClassCounters::default();
        let (mut dense_ctx, mut dense_ledger) = (Dense::default(), Dense::default());
        for step in steps {
            match step {
                Step::Block(node, (device, op, pattern), bytes, accesses) => {
                    ctx.charge_block(Placement::node(node, device), op, pattern, bytes, accesses);
                    dense_ctx.charge_block(node, (device, op, pattern), bytes, accesses);
                }
                Step::Cpu(ops) => {
                    ctx.add_cpu_ops(ops);
                    dense_ctx.cpu_ops += ops;
                }
                Step::Ledger(class, bytes, media, accesses) => {
                    ledger.charge(class, bytes, media, accesses);
                    dense_ledger.charge(class, bytes, media, accesses);
                }
                Step::Merge => {
                    ledger.merge(ctx.counters());
                    dense_ledger.merge(&dense_ctx);
                }
                Step::Reset => {
                    ctx.reset();
                    dense_ctx = Dense::default();
                }
                Step::Take => {
                    ledger.merge(&ctx.take_counters());
                    dense_ledger.merge(&std::mem::take(&mut dense_ctx));
                }
            }
            prop_assert_eq!(agrees(ctx.counters(), &dense_ctx, &models), Ok(()));
            prop_assert_eq!(agrees(&ledger, &dense_ledger, &models), Ok(()));
            prop_assert_eq!(*ctx.counters() == ledger, dense_ctx == dense_ledger);
        }
    }

    /// Payload bytes are conserved exactly through any sequence of charges,
    /// node-local or interleaved.
    #[test]
    fn charges_conserve_bytes(
        ops in proptest::collection::vec(
            (arb_device(), arb_op(), arb_pattern(), 0u64..10_000, 0u64..64, any::<bool>()),
            1..40,
        )
    ) {
        let mut ctx = ThreadMem::new(0, 2);
        let mut expected = 0u64;
        for (device, op, pattern, bytes, accesses, interleave) in ops {
            let placement = if interleave {
                Placement::interleaved(device)
            } else {
                Placement::node(1, device)
            };
            ctx.charge_block(placement, op, pattern, bytes, accesses);
            expected += bytes;
        }
        prop_assert_eq!(ctx.counters().total_bytes(), expected);
    }

    /// Media bytes are never less than payload bytes (granularity rounding
    /// only ever inflates traffic) for node-local charges.
    #[test]
    fn media_at_least_payload(
        device in arb_device(),
        op in arb_op(),
        pattern in arb_pattern(),
        bytes in 1u64..100_000,
        accesses in 1u64..256,
    ) {
        let mut ctx = ThreadMem::new(0, 2);
        ctx.charge_block(Placement::node(0, device), op, pattern, bytes, accesses);
        let ctr = ctx.counters().get(AccessClass::new(
            device,
            Locality::Local,
            op,
            pattern,
        ));
        prop_assert!(ctr.media_bytes >= ctr.bytes.min(bytes));
        if pattern == AccessPattern::Seq {
            prop_assert_eq!(ctr.media_bytes, bytes);
        }
    }

    /// Simulated thread time is monotone in traffic: adding more charges
    /// never makes a thread faster.
    #[test]
    fn thread_time_is_monotone(
        base_bytes in 1u64..1_000_000,
        extra_bytes in 1u64..1_000_000,
        threads in 1u32..64,
        device in arb_device(),
    ) {
        let model = BandwidthModel::paper_machine();
        let mut a = ClassCounters::default();
        let class = AccessClass::new(device, Locality::Local, AccessOp::Read, AccessPattern::Seq);
        a.charge(class, base_bytes, base_bytes, 1);
        let mut b = a.clone();
        b.charge(class, extra_bytes, extra_bytes, 1);
        prop_assert!(model.thread_time(&b, threads) >= model.thread_time(&a, threads));
    }

    /// A device-saturated stream is never slower than one thread of a pool
    /// doing the same traffic.
    #[test]
    fn stream_time_lower_bounds_thread_time(
        bytes in 1u64..10_000_000,
        threads in 1u32..64,
        device in arb_device(),
        pattern in arb_pattern(),
    ) {
        let model = BandwidthModel::paper_machine();
        let mut c = ClassCounters::default();
        let class = AccessClass::new(device, Locality::Local, AccessOp::Read, pattern);
        c.charge(class, bytes, bytes, bytes / 4096 + 1);
        prop_assert!(model.stream_time(&c) <= model.thread_time(&c, threads));
    }

    /// Capacity through `MemSystem`: a reservation at a node placement books
    /// its bytes on that node, one at an interleaved placement an even split
    /// in node order (the remainder on node 0), and one whose share does not
    /// fit somewhere books nothing. After every reservation or release each
    /// node's `used` is what the live leases booked and `available(p)` is
    /// capacity minus `used`, summed over the nodes for an interleaved `p`.
    /// Dropping the leases returns usage to zero and the peaks survive,
    /// including the transient peak of a share that was taken and handed
    /// back when a later node's share did not fit.
    #[test]
    fn governor_accounting_balances(
        nodes in 1usize..4,
        dram in 1_000u64..20_000,
        steps in proptest::collection::vec(
            (0usize..4, arb_device(), 0u64..5_000, (0u8..5).prop_map(|roll| roll == 0)),
            1..30,
        )
    ) {
        const DEVICES: [DeviceKind; 3] = [DeviceKind::Dram, DeviceKind::Pm, DeviceKind::Ssd];
        let sys = MemSystem::new(Topology::new(nodes, 4, dram, dram * 8, dram * 2).unwrap());
        let cap = |node, device| sys.topology().capacity(node, device);
        let mut booked = vec![[0u64; 3]; nodes];
        let mut peak = vec![[0u64; 3]; nodes];
        let mut live = Vec::new();
        for (pick, device, bytes, release) in steps {
            let d = device.index();
            if release && !live.is_empty() {
                let (_lease, shares, d): (_, Vec<(usize, u64)>, usize) =
                    live.swap_remove(bytes as usize % live.len());
                for (node, share) in shares {
                    booked[node][d] -= share;
                }
            } else {
                let (place, shares) = if pick < nodes {
                    (Placement::node(pick, device), vec![(pick, bytes)])
                } else {
                    let n = nodes as u64;
                    let split = (0..nodes)
                        .map(|k| (k, bytes / n + if k == 0 { bytes % n } else { 0 }))
                        .collect();
                    (Placement::interleaved(device), split)
                };
                let fit = shares
                    .iter()
                    .take_while(|&&(node, share)| share <= cap(node, device) - booked[node][d])
                    .count();
                for &(node, share) in &shares[..fit] {
                    peak[node][d] = peak[node][d].max(booked[node][d] + share);
                }
                match sys.reserve(place, bytes) {
                    Ok(lease) => {
                        prop_assert_eq!(fit, shares.len(), "{} took {} bytes", place, bytes);
                        for &(node, share) in &shares {
                            booked[node][d] += share;
                        }
                        live.push((lease, shares, d));
                    }
                    Err(e) => prop_assert!(fit < shares.len(), "{} refused {} bytes: {}", place, bytes, e),
                }
            }
            for device in DEVICES {
                let d = device.index();
                let mut free = 0;
                for (node, used) in booked.iter().enumerate() {
                    prop_assert_eq!(sys.used(node, device), used[d]);
                    let left = cap(node, device) - used[d];
                    prop_assert_eq!(sys.available(Placement::node(node, device)), left);
                    free += left;
                }
                prop_assert_eq!(sys.available(Placement::interleaved(device)), free);
            }
        }
        drop(live);
        for (node, peaks) in peak.iter().enumerate() {
            for device in DEVICES {
                prop_assert_eq!(sys.used(node, device), 0);
                prop_assert_eq!(sys.peak(node, device), peaks[device.index()]);
            }
        }
    }

    /// Merging counters is associative with respect to the totals.
    #[test]
    fn counter_merge_totals(
        xs in proptest::collection::vec((0u64..10_000, 0u64..64), 1..20)
    ) {
        let class = AccessClass::new(
            DeviceKind::Pm,
            Locality::Remote,
            AccessOp::Write,
            AccessPattern::Rand,
        );
        let mut merged = ClassCounters::default();
        let mut total_bytes = 0;
        let mut total_accesses = 0;
        for (bytes, accesses) in xs {
            let mut c = ClassCounters::default();
            c.charge(class, bytes, bytes, accesses);
            merged.merge(&c);
            total_bytes += bytes;
            total_accesses += accesses;
        }
        prop_assert_eq!(merged.get(class).bytes, total_bytes);
        prop_assert_eq!(merged.total_accesses(), total_accesses);
    }

    /// SimDuration arithmetic: sums order-independent, max is max.
    #[test]
    fn duration_arithmetic(ns in proptest::collection::vec(0u64..1_000_000, 1..20)) {
        let forward: SimDuration = ns.iter().map(|&x| SimDuration::from_nanos(x)).sum();
        let backward: SimDuration = ns.iter().rev().map(|&x| SimDuration::from_nanos(x)).sum();
        prop_assert_eq!(forward, backward);
        let max = ns.iter().map(|&x| SimDuration::from_nanos(x))
            .fold(SimDuration::ZERO, SimDuration::max);
        prop_assert_eq!(max.as_nanos(), *ns.iter().max().unwrap());
    }
}
