//! Compare two result files of `run.sh`: per workload and end-to-end
//! metric, the second set's median against the first's and the metric's
//! bound; values off the simulated clock and counts bit for bit.

use crate::catalogue::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second set's median is no worse than the first's by more than
    /// the bound.
    Within,
    /// Worse by more than the bound, and the spread is small enough to say so.
    Regressed,
    /// The run-to-run spread is wider than the bound: not unchanged.
    Unresolved,
    /// The spread is wider than the bound, yet every run of the second
    /// set reads better than every run of the first.
    Better,
    /// A value that must repeat exactly does not.
    Differs,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::Differs => "DIFFERS",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s.
pub fn worse_by(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let wide = spread(a).max(spread(b)) > bound;
    if wide {
        let all_better = a.iter().all(|&x| {
            b.iter().all(|&y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(a, b, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

fn get<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

/// The numbers of a JSON list.
fn numbers(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_seq).map_or(Vec::new(), |items| {
        items.iter().filter_map(Value::as_f64).collect()
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    omega_obs::json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// Print the comparison; exit code 0 when every metric is within its
/// bound or better, 1 when one regressed or an exact value differs, 2 when
/// none did but one is unresolved.
pub fn main(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            return 1;
        }
    };
    let same_seeds = get(&a, &["seed"]) == get(&b, &["seed"])
        && get(&a, &["repeats"]) == get(&b, &["repeats"])
        && get(&a, &["quick"]) == get(&b, &["quick"]);
    println!("workload metric median_a median_b worse_by spread_a spread_b bound verdict");
    let (mut bad, mut unresolved) = (0, 0);
    let mut count = |v: Verdict| match v {
        Verdict::Regressed | Verdict::Differs => bad += 1,
        Verdict::Unresolved => unresolved += 1,
        Verdict::Within | Verdict::Better => {}
    };
    for w in WORKLOADS {
        let values = |doc: &Value, group: &str, m: &Metric| {
            numbers(get(doc, &["workloads", w.name, group, m.name, "values"]))
        };
        for m in END_TO_END {
            let (va, vb) = (values(&a, "end_to_end", m), values(&b, "end_to_end", m));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let v = if m.clock.exact() && same_seeds && va != vb {
                Verdict::Differs
            } else {
                verdict(&va, &vb, m.better, bound)
            };
            count(v);
            println!(
                "{} {} {} {} {:+.4} {:.4} {:.4} {} {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                worse_by(&va, &vb, m.better),
                spread(&va),
                spread(&vb),
                bound,
                v.label()
            );
        }
        if !same_seeds {
            continue;
        }
        for m in PER_LAYER.iter().filter(|m| m.clock.exact()) {
            let (va, vb) = (values(&a, "per_layer", m), values(&b, "per_layer", m));
            if va != vb {
                count(Verdict::Differs);
                println!("{} {} {va:?} {vb:?} DIFFERS", w.name, m.name);
            }
        }
    }
    if !same_seeds {
        println!("# the sets differ in seed, repeats or length: exact values not compared");
    }
    println!("# {bad} regressed or differing, {unresolved} unresolved");
    match (bad, unresolved) {
        (0, 0) => 0,
        (0, _) => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_the_bound_in_either_direction() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let b = [104.0, 105.0, 103.0, 104.0];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Within);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Within);
        assert!((worse_by(&a, &b, Better::Lower) - 0.04).abs() < 1e-12);
        assert!((worse_by(&a, &b, Better::Higher) + 0.04).abs() < 1e-12);
    }

    #[test]
    fn regression_needs_the_worse_direction() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let b = [120.0, 121.0, 119.0, 120.0];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Within);
        assert_eq!(verdict(&b, &a, Better::Higher, 0.10), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [100.0, 140.0, 80.0, 120.0, 60.0];
        let same = [101.0, 139.0, 81.0, 119.0, 61.0];
        assert_eq!(
            verdict(&noisy, &same, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        let faster = [30.0, 50.0, 20.0, 40.0, 10.0];
        assert_eq!(
            verdict(&noisy, &faster, Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &faster, Better::Higher, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn single_runs_compare_by_value() {
        assert_eq!(
            verdict(&[10.0], &[10.5], Better::Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            verdict(&[10.0], &[12.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[0.0], &[0.0], Better::Lower, 0.10),
            Verdict::Within
        );
    }

    #[test]
    fn numbers_reads_a_list_by_path() {
        let doc = omega_obs::json::parse(r#"{"a": {"values": [1.5, 2]}}"#).unwrap();
        assert_eq!(numbers(get(&doc, &["a", "values"])), vec![1.5, 2.0]);
        assert!(numbers(get(&doc, &["a", "missing"])).is_empty());
    }
}
