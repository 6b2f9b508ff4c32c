//! The Workload Feature-aware Prefetcher (WoFP, paper §III-C).
//!
//! SpMM's `get_dense_nnz` step fetches dense-matrix rows at the sparse
//! matrix's column indices — random accesses into PM. But indices repeat:
//! each dense column is multiplied against *every* workload row, so a column
//! index that appears in many rows is fetched many times. WoFP stages the
//! hottest `top-M` dense entries in a DRAM-resident key-value structure so
//! repeats hit DRAM instead of PM.
//!
//! Two prefetcher flavours, selected per workload (the hybrid rule):
//!
//! * **frequency-based** — count column-index occurrences inside the
//!   workload (the paper's back-end counting thread; here an accounted
//!   pre-pass) and keep the `top-M` most frequent. Used when the workload's
//!   average row length is high: `W_i / Rows ≥ |V| · η`.
//! * **degree-based** — rank columns by global in-degree, a static
//!   statistic that needs no counting. Used for the (majority) of thin
//!   workloads, exploiting that high in-degree predicts reuse.

use crate::workload::Workload;
use omega_graph::Csdb;
use std::collections::HashMap;

/// WoFP tuning parameters (swept in Fig. 19(b)/(c)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WofpConfig {
    /// Prefetcher-type selection threshold `η`: frequency-based when the
    /// workload's average row nnz ≥ `|V| · η`.
    pub eta: f64,
    /// Prefetch size factor `σ`: the top-M structure holds `M = W_i · σ`
    /// entries.
    pub sigma: f64,
}

impl Default for WofpConfig {
    fn default() -> Self {
        // Defaults from the PK sensitivity sweep's sweet spot (Fig. 19).
        WofpConfig {
            eta: 0.01,
            sigma: 0.05,
        }
    }
}

/// Which flavour a workload selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrefetcherKind {
    Frequency,
    Degree,
}

/// A built prefetcher for one workload: the membership set of dense-matrix
/// row indices staged in DRAM, plus accounting of how it was built.
#[derive(Debug)]
pub(crate) struct Prefetcher {
    kind: PrefetcherKind,
    /// Dense-row membership (index into the dense operand's rows). Kept as
    /// a direct-mapped bitmap over |V| for O(1) kernel-side tests.
    member: Vec<bool>,
    entries: usize,
    /// CPU operations spent building (counting pass / ranking), charged by
    /// the executor as prefetch overhead.
    pub build_cpu_ops: u64,
    /// Sparse-index bytes streamed during the counting pass.
    pub build_scan_bytes: u64,
}

impl Prefetcher {
    /// The hybrid selection rule: frequency-based iff
    /// `W_i / Rows_i ≥ |V| · η`.
    pub(crate) fn select_kind(
        cfg: &WofpConfig,
        workload: &Workload,
        total_cols: u32,
    ) -> PrefetcherKind {
        let rows = workload.rows.len().max(1) as f64;
        let avg_row_nnz = workload.nnzs as f64 / rows;
        if avg_row_nnz >= total_cols as f64 * cfg.eta {
            PrefetcherKind::Frequency
        } else {
            PrefetcherKind::Degree
        }
    }

    /// Build the prefetcher for a workload. `in_degrees` are the matrix's
    /// global per-column counts (precomputed once per SpMM).
    pub(crate) fn build(
        cfg: &WofpConfig,
        csdb: &Csdb,
        workload: &Workload,
        in_degrees: &[u64],
    ) -> Prefetcher {
        let kind = Self::select_kind(cfg, workload, csdb.cols());
        let m = ((workload.nnzs as f64 * cfg.sigma).round() as usize).min(workload.nnzs as usize);
        let mut member = vec![false; csdb.cols() as usize];
        if m == 0 {
            return Prefetcher {
                kind,
                member,
                entries: 0,
                build_cpu_ops: 0,
                build_scan_bytes: 0,
            };
        }

        let (top, build_cpu_ops, build_scan_bytes) = match kind {
            PrefetcherKind::Frequency => {
                // Counting pass over the workload's column indices.
                let mut freq: HashMap<u32, u64> = HashMap::new();
                let mut scanned = 0u64;
                for row in workload.rows.clone() {
                    let (cols, _) = csdb.row(row);
                    scanned += cols.len() as u64;
                    for &c in cols {
                        *freq.entry(c).or_insert(0) += 1;
                    }
                }
                let mut ranked: Vec<(u32, u64)> = freq.into_iter().collect();
                ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                ranked.truncate(m);
                // Hash-count (≈10 ops per index) plus top-M selection.
                let cpu = scanned * 10 + (ranked.len() as u64) * 8;
                (
                    ranked.into_iter().map(|(c, _)| c).collect::<Vec<u32>>(),
                    cpu,
                    scanned * 4,
                )
            }
            PrefetcherKind::Degree => {
                // Static ranking by *global* in-degree (the paper: "the
                // descending in-degree of the vertex"): no per-workload
                // counting, but globally hot columns may not occur in this
                // workload, which is what degrades it at high eta.
                let mut candidates: Vec<u32> = (0..csdb.cols()).collect();
                candidates.sort_unstable_by(|&a, &b| {
                    in_degrees[b as usize]
                        .cmp(&in_degrees[a as usize])
                        .then(a.cmp(&b))
                });
                candidates.truncate(m);
                let cpu = candidates.len() as u64;
                (candidates, cpu, 0)
            }
        };

        let entries = top.len();
        for c in top {
            member[c as usize] = true;
        }
        Prefetcher {
            kind,
            member,
            entries,
            build_cpu_ops,
            build_scan_bytes,
        }
    }

    #[inline]
    pub(crate) fn kind(&self) -> PrefetcherKind {
        self.kind
    }

    /// Number of dense rows staged (`M`, capped by distinct indices).
    #[inline]
    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    /// Whether dense row `c` is staged in DRAM.
    #[inline]
    pub(crate) fn contains(&self, c: u32) -> bool {
        self.member[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::{Csdb, RmatConfig};

    fn graph() -> Csdb {
        let csr = RmatConfig::social(1 << 10, 8_000, 3)
            .generate_csr()
            .unwrap();
        Csdb::from_csr(&csr).unwrap()
    }

    #[test]
    fn hybrid_selection_follows_eta_rule() {
        let g = graph();
        let w = Workload::contiguous(0, &g, 0, g.rows());
        let avg = w.nnzs as f64 / w.rows.len() as f64;
        // eta below avg/|V| -> frequency; above -> degree.
        let low = WofpConfig {
            eta: avg / g.cols() as f64 * 0.5,
            sigma: 0.05,
        };
        let high = WofpConfig {
            eta: avg / g.cols() as f64 * 2.0,
            sigma: 0.05,
        };
        assert_eq!(
            Prefetcher::select_kind(&low, &w, g.cols()),
            PrefetcherKind::Frequency
        );
        assert_eq!(
            Prefetcher::select_kind(&high, &w, g.cols()),
            PrefetcherKind::Degree
        );
    }

    #[test]
    fn frequency_prefetcher_stages_hot_columns() {
        let g = graph();
        let w = Workload::contiguous(0, &g, 0, g.rows() / 2);
        let ind = g.in_degrees();
        let cfg = WofpConfig {
            eta: 0.0, // force frequency
            sigma: 0.02,
        };
        let p = Prefetcher::build(&cfg, &g, &w, &ind);
        assert_eq!(p.kind(), PrefetcherKind::Frequency);
        assert!(p.entries() > 0);
        assert!(p.build_cpu_ops > 0);
        assert!(p.build_scan_bytes > 0);
        // The staged set contains the most frequent column of the workload.
        let mut freq = std::collections::HashMap::new();
        for row in w.rows.clone() {
            for &c in g.row(row).0 {
                *freq.entry(c).or_insert(0u64) += 1;
            }
        }
        let hottest = *freq.iter().max_by_key(|(_, &f)| f).unwrap().0;
        assert!(p.contains(hottest));
    }

    #[test]
    fn degree_prefetcher_is_cheap_and_ranked() {
        let g = graph();
        let w = Workload::contiguous(0, &g, g.rows() / 2, g.rows());
        let ind = g.in_degrees();
        let cfg = WofpConfig {
            eta: 1.0, // force degree
            sigma: 0.05,
        };
        let p = Prefetcher::build(&cfg, &g, &w, &ind);
        assert_eq!(p.kind(), PrefetcherKind::Degree);
        assert_eq!(p.build_scan_bytes, 0, "no counting pass");
        if p.entries() > 0 {
            // Every staged column has in-degree >= some unstaged candidate.
            let staged_min = (0..g.cols())
                .filter(|&c| p.contains(c))
                .map(|c| ind[c as usize])
                .min()
                .unwrap();
            assert!(staged_min > 0);
        }
    }

    #[test]
    fn sigma_zero_disables_staging() {
        let g = graph();
        let w = Workload::contiguous(0, &g, 0, g.rows());
        let cfg = WofpConfig {
            eta: 0.01,
            sigma: 0.0,
        };
        let p = Prefetcher::build(&cfg, &g, &w, &g.in_degrees());
        assert_eq!(p.entries(), 0);
        assert!(!p.contains(0));
    }

    #[test]
    fn sigma_scales_entries() {
        let g = graph();
        let w = Workload::contiguous(0, &g, 0, g.rows());
        let ind = g.in_degrees();
        let small = Prefetcher::build(
            &WofpConfig {
                eta: 0.0,
                sigma: 0.01,
            },
            &g,
            &w,
            &ind,
        );
        let large = Prefetcher::build(
            &WofpConfig {
                eta: 0.0,
                sigma: 0.10,
            },
            &g,
            &w,
            &ind,
        );
        assert!(large.entries() >= small.entries());
    }

    #[test]
    fn empty_workload() {
        let g = graph();
        let w = Workload::contiguous(0, &g, g.rows(), g.rows());
        let p = Prefetcher::build(&WofpConfig::default(), &g, &w, &g.in_degrees());
        assert_eq!(p.entries(), 0);
    }
}
