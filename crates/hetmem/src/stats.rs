//! Human-readable summaries of access accounting — the reproduction's
//! stand-in for the Intel VTune profiling the paper uses in §III-D.

use crate::bandwidth::{AccessClass, AccessOp, AccessPattern, Locality};
use crate::device::DeviceKind;
use crate::tracker::ClassCounters;

/// Aggregated view of a phase's memory traffic.
#[derive(Debug, Clone)]
pub struct AccessSummary {
    pub total_bytes: u64,
    pub total_accesses: u64,
    pub remote_bytes: u64,
    pub random_bytes: u64,
    pub pm_bytes: u64,
    pub dram_bytes: u64,
    pub ssd_bytes: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub cpu_ops: u64,
    /// Per-class non-zero rows, for detailed reports.
    pub rows: Vec<ClassRow>,
}

/// One non-empty class in the summary.
#[derive(Debug, Clone)]
pub struct ClassRow {
    pub label: String,
    pub bytes: u64,
    pub media_bytes: u64,
    pub accesses: u64,
}

impl AccessSummary {
    /// Build a summary from merged counters.
    pub fn from_counters(counters: &ClassCounters) -> Self {
        let by = |pred: &dyn Fn(AccessClass) -> bool| {
            AccessClass::all()
                .filter(|&c| pred(c))
                .map(|c| counters.get(c).bytes)
                .sum::<u64>()
        };
        let rows = AccessClass::all()
            .filter_map(|c| {
                let ctr = counters.get(c);
                (ctr.bytes > 0 || ctr.accesses > 0).then(|| ClassRow {
                    label: c.to_string(),
                    bytes: ctr.bytes,
                    media_bytes: ctr.media_bytes,
                    accesses: ctr.accesses,
                })
            })
            .collect();
        AccessSummary {
            total_bytes: counters.total_bytes(),
            total_accesses: counters.total_accesses(),
            remote_bytes: by(&|c| c.locality == Locality::Remote),
            random_bytes: by(&|c| c.pattern == AccessPattern::Rand),
            pm_bytes: by(&|c| c.device == DeviceKind::Pm),
            dram_bytes: by(&|c| c.device == DeviceKind::Dram),
            ssd_bytes: by(&|c| c.device == DeviceKind::Ssd),
            read_bytes: by(&|c| c.op == AccessOp::Read),
            write_bytes: by(&|c| c.op == AccessOp::Write),
            cpu_ops: counters.cpu_ops(),
            rows,
        }
    }

    /// Fraction of bytes that crossed the interconnect (the ">43% remote"
    /// statistic of §III-D).
    pub fn remote_fraction(&self) -> f64 {
        fraction(self.remote_bytes, self.total_bytes)
    }

    /// Fraction of bytes accessed with a random pattern.
    pub fn random_fraction(&self) -> f64 {
        fraction(self.random_bytes, self.total_bytes)
    }

    /// Fraction of bytes served from PM (vs DRAM/SSD).
    pub fn pm_fraction(&self) -> f64 {
        fraction(self.pm_bytes, self.total_bytes)
    }
}

fn fraction(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

impl std::fmt::Display for AccessSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "traffic: {:.1} MiB in {} accesses ({:.1}% remote, {:.1}% random, {:.1}% PM)",
            self.total_bytes as f64 / (1 << 20) as f64,
            self.total_accesses,
            self.remote_fraction() * 100.0,
            self.random_fraction() * 100.0,
            self.pm_fraction() * 100.0,
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "  {:<16} {:>12} B payload {:>12} B media {:>10} accesses",
                row.label, row.bytes, row.media_bytes, row.accesses
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetvec::Placement;
    use crate::tracker::ThreadMem;

    #[test]
    fn summary_aggregates_axes() {
        let mut ctx = ThreadMem::new(0, 2);
        let pm0 = Placement::node(0, DeviceKind::Pm);
        let pm1 = Placement::node(1, DeviceKind::Pm);
        let dram0 = Placement::node(0, DeviceKind::Dram);
        ctx.charge_block(pm0, AccessOp::Read, AccessPattern::Seq, 100, 1);
        ctx.charge_block(pm1, AccessOp::Read, AccessPattern::Rand, 50, 1);
        ctx.charge_block(dram0, AccessOp::Write, AccessPattern::Seq, 50, 1);
        ctx.add_cpu_ops(42);

        let s = AccessSummary::from_counters(ctx.counters());
        assert_eq!(s.total_bytes, 200);
        assert_eq!(s.pm_bytes, 150);
        assert_eq!(s.dram_bytes, 50);
        assert_eq!(s.remote_bytes, 50);
        assert_eq!(s.random_bytes, 50);
        assert_eq!(s.read_bytes, 150);
        assert_eq!(s.write_bytes, 50);
        assert_eq!(s.cpu_ops, 42);
        assert_eq!(s.rows.len(), 3);
        assert!((s.remote_fraction() - 0.25).abs() < 1e-12);
        assert!((s.pm_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = AccessSummary::from_counters(&ClassCounters::default());
        assert_eq!(s.total_bytes, 0);
        assert_eq!(s.remote_fraction(), 0.0);
        assert!(s.rows.is_empty());
    }

    #[test]
    fn class_row_labels_are_stable() {
        // Exported labels are a wire format (metrics consumers and the
        // trace exporters key on them) — lock down the DEVICE-LOC-OP-PAT
        // scheme so a rename cannot slip through silently.
        let mut ctx = ThreadMem::new(0, 2);
        for (place, op, pat) in [
            (
                Placement::node(0, DeviceKind::Pm),
                AccessOp::Read,
                AccessPattern::Seq,
            ),
            (
                Placement::node(1, DeviceKind::Pm),
                AccessOp::Read,
                AccessPattern::Seq,
            ),
            (
                Placement::node(0, DeviceKind::Dram),
                AccessOp::Write,
                AccessPattern::Rand,
            ),
            (
                Placement::node(0, DeviceKind::Ssd),
                AccessOp::Read,
                AccessPattern::Seq,
            ),
        ] {
            ctx.charge_block(place, op, pat, 64, 1);
        }
        let s = AccessSummary::from_counters(ctx.counters());
        let labels: Vec<&str> = s.rows.iter().map(|r| r.label.as_str()).collect();
        for expect in ["PM-L-R-SEQ", "PM-R-R-SEQ", "DRAM-L-W-RAND", "SSD-L-R-SEQ"] {
            assert!(
                labels.contains(&expect),
                "missing label {expect} in {labels:?}"
            );
        }
    }

    #[test]
    fn display_renders() {
        let mut ctx = ThreadMem::new(0, 2);
        ctx.charge_block(
            Placement::node(0, DeviceKind::Pm),
            AccessOp::Read,
            AccessPattern::Seq,
            1 << 20,
            1,
        );
        let text = AccessSummary::from_counters(ctx.counters()).to_string();
        assert!(text.contains("PM-L-R-SEQ"));
        assert!(text.contains("1.0 MiB"));
    }
}
