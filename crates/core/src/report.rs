//! Run outputs: embeddings plus the simulated-time and traffic report.

use omega_embed::prone::ProneReport;
use omega_embed::Embedding;
use omega_hetmem::{AccessSummary, SimDuration};

/// The result of one end-to-end OMeGa run.
#[derive(Debug)]
pub struct OmegaRun {
    /// Learned embeddings, rows in original node order.
    pub embedding: Embedding,
    /// Simulated-time breakdown (reading / factorisation / propagation).
    pub report: ProneReport,
    /// Which variant produced this run.
    pub variant: &'static str,
    /// Merged traffic of every SpMM phase in the run (the VTune-style
    /// per-device/locality byte accounting of §III-D).
    pub traffic: AccessSummary,
}

impl OmegaRun {
    /// End-to-end simulated time (graph reading + embedding generation), the
    /// quantity Fig. 12 plots.
    pub fn total_time(&self) -> SimDuration {
        self.report.total()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: |V|={} d={} total={} (read {}, factorize {}, propagate {}; \
             SpMM {} across {} calls, {:.0}% of generation)",
            self.variant,
            self.embedding.nodes(),
            self.embedding.dim(),
            self.report.total(),
            self.report.read_time,
            self.report.factorization_time,
            self.report.propagation_time,
            self.report.spmm_time,
            self.report.spmm_count,
            self.report.spmm_share() * 100.0,
        )
    }
}

/// Pretty-print an access summary alongside a run (the VTune-style view of
/// §III-D).
pub fn traffic_report(summary: &AccessSummary) -> String {
    format!(
        "remote {:.1}% | random {:.1}% | PM share {:.1}% | {:.1} MiB moved",
        summary.remote_fraction() * 100.0,
        summary.random_fraction() * 100.0,
        summary.pm_fraction() * 100.0,
        summary.total_bytes as f64 / (1 << 20) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_hetmem::ClassCounters;

    fn sample_run() -> OmegaRun {
        OmegaRun {
            embedding: Embedding::from_row_major(2, 2, vec![0.0; 4]),
            report: ProneReport {
                read_time: SimDuration::from_millis(1),
                factorization_time: SimDuration::from_millis(2),
                propagation_time: SimDuration::from_millis(3),
                spmm_time: SimDuration::from_millis(4),
                spmm_count: 7,
            },
            variant: "OMeGa",
            traffic: AccessSummary::from_counters(&ClassCounters::default()),
        }
    }

    #[test]
    fn summary_renders() {
        let run = sample_run();
        assert_eq!(run.total_time(), SimDuration::from_millis(6));
        let s = run.summary();
        assert!(s.contains("OMeGa"));
        assert!(s.contains("7 calls"));
    }

    #[test]
    fn traffic_report_renders() {
        let s = traffic_report(&AccessSummary::from_counters(&ClassCounters::default()));
        assert!(s.contains("remote 0.0%"));
    }
}
