//! `omega-cli` — command-line front end for the OMeGa system. [`USAGE`]
//! lists every flag; each subcommand is a module under `omega-cli/` that
//! takes the flags it reads from [`Opts`], which refuses the rest.

#[path = "omega-cli/embed.rs"]
mod embed;
#[path = "omega-cli/generate.rs"]
mod generate;
#[path = "omega-cli/opts.rs"]
mod opts;
#[path = "omega-cli/plane.rs"]
mod plane;
#[path = "omega-cli/profile.rs"]
mod profile;
#[path = "omega-cli/serve.rs"]
mod serve;
#[path = "omega-cli/serving.rs"]
mod serving;
#[path = "omega-cli/stats.rs"]
mod stats;

use omega_graph::{Csr, EdgeList, GraphBuilder};
use opts::Opts;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  omega-cli embed    --input <edge-list> --output <file> [--dim N]
                     [--threads N] [--wall-threads W] [--mode hetero|dram|pm]
                     [--no-wofp] [--no-nadp] [--no-asl]
                     [--trace-out <file>] [--metrics-out <file>]
                     [--profile-out <file>]
  omega-cli generate --nodes N --edges M [--seed S] --output <file>
  omega-cli stats    --input <edge-list>
  omega-cli serve    --requests N [--zipf S | --uniform]
                     [--input <emb> | --nodes N --dim D] [--seed S]
                     [--threads T] [--rows-per-shard R]
                     [--cache-shards C] [--batch B] [--cold pm|ssd]
                     [--topk-fraction F] [--k K] [--no-admission]
                     [--ivf-nlist L] [--ivf-nprobe P] (0 = auto;
                     both need --topk-fraction above 0)
                     [--fault-plan <file>]
                     [--trace-out <file>] [--metrics-out <file>]
                     [--profile-out <file>]
  omega-cli profile  --input <trace.json> [--top N]
  omega-cli plane    --replicas N --rate QPS [--horizon-ms M]
                     [--zipf S | --uniform] [--nodes N --dim D] [--seed S]
                     [--threads T] [--batch B] [--max-queue Q]
                     [--deadline-us D] [--hedge-wait-us H]
                     [--arrival poisson|diurnal|flash] [--topk-fraction F]
                     [--k K] [--rows-per-shard R] [--cache-shards C]
                     [--cold pm|ssd] [--fault-plan <file>]
                     [--trace-out <file>] [--metrics-out <file>]";

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    let opts = Opts::parse(cmd, rest)?;
    match cmd.as_str() {
        "embed" => embed::run(opts),
        "generate" => generate::run(opts),
        "stats" => stats::run(opts),
        "serve" => serve::run(opts),
        "plane" => plane::run(opts),
        "profile" => profile::run(opts),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn load_graph(path: &str) -> Result<Csr, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let list = EdgeList::parse(&text).map_err(|e| e.to_string())?;
    GraphBuilder::from_edge_list(&list)
        .build_csr()
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// A lookup of the counters in a metrics JSONL document.
    fn counter(jsonl: &str) -> impl Fn(&str) -> f64 {
        let rows = omega::obs::export::parse_metrics_jsonl(jsonl).unwrap();
        move |name| {
            rows.iter()
                .find(|(k, n, _)| k == "counter" && n == name)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        }
    }

    #[test]
    fn opts_parse_values_and_flags() {
        let args = s(&["--input", "a.txt", "--no-wofp", "--dim", "32"]);
        let mut o = Opts::parse("embed", &args).unwrap();
        assert_eq!(o.require::<String>("input").unwrap(), "a.txt");
        assert_eq!(o.get_or::<usize>("dim", 8).unwrap(), 32);
        assert!(o.flag("no-wofp").unwrap());
        assert!(!o.flag("no-nadp").unwrap());
        assert_eq!(o.get_or::<usize>("threads", 30).unwrap(), 30);
        // Every flag was taken, so nothing is left to refuse.
        assert_eq!(o.finish(), Ok(()));
    }

    #[test]
    fn opts_reject_bad_input() {
        assert!(Opts::parse("embed", &s(&["positional"])).is_err());
        let mut o = Opts::parse("embed", &s(&["--dim", "xyz"])).unwrap();
        assert!(o.get_or::<usize>("dim", 8).is_err());
        assert!(o.require::<String>("missing").is_err());
        let twice = Opts::parse("embed", &s(&["--dim", "8", "--dim", "9"]));
        assert_eq!(twice.err().as_deref(), Some("--dim given twice"));
        let mut o = Opts::parse("embed", &s(&["--dim", "--uniform", "5"])).unwrap();
        assert_eq!(o.get::<usize>("dim").unwrap_err(), "--dim needs a value");
        assert!(o
            .flag("uniform")
            .unwrap_err()
            .contains("--uniform takes no value"));
        let o = Opts::parse("embed", &s(&["--unread"])).unwrap();
        assert_eq!(o.finish().unwrap_err(), "embed does not take --unread");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&[])).is_err());
    }

    /// A flag a subcommand does not read, a switch with a value, a valued
    /// flag without one and a repeated flag are refused by name before
    /// anything runs.
    #[test]
    fn unread_and_malformed_flags_are_refused() {
        let cases: &[(&[&str], &str)] = &[
            (
                &["serve", "--requets", "5"],
                "serve does not take --requets",
            ),
            (&["serve", "--uniform", "5"], "--uniform takes no value"),
            (
                &["serve", "--no-admission", "yes"],
                "--no-admission takes no value",
            ),
            (
                &["serve", "--seed", "1", "--seed", "2"],
                "--seed given twice",
            ),
            (&["plane", "--rate"], "--rate needs a value"),
            (
                &["plane", "--ivf-nlist", "10"],
                "plane does not take --ivf-nlist",
            ),
            (
                &["plane", "--profile-out", "p.txt"],
                "plane does not take --profile-out",
            ),
            (
                &[
                    "embed",
                    "--input",
                    "unread.txt",
                    "--output",
                    "unwritten.txt",
                    "--no-asl",
                    "yes",
                ],
                "--no-asl takes no value",
            ),
            (
                &["serve", "--input", "unread.txt", "--nodes", "20000"],
                "drop them with --input",
            ),
            (
                &["serve", "--dim", "0", "--input", "unread.txt"],
                "drop them with --input",
            ),
            (
                &["serve", "--ivf-nlist", "0", "--ivf-nprobe", "0"],
                "give --topk-fraction above 0",
            ),
            (
                &["serve", "--ivf-nprobe", "4", "--topk-fraction", "0"],
                "give --topk-fraction above 0",
            ),
            (
                &["stats", "--input", "unread.txt", "--top", "3"],
                "stats does not take --top",
            ),
            (
                &["profile", "--input", "unread.json", "--k", "3"],
                "profile does not take --k",
            ),
        ];
        for (args, named) in cases {
            let err = run(&s(args)).unwrap_err();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }

    #[test]
    fn conflicting_and_degenerate_flags_are_rejected() {
        let err = run(&s(&["serve", "--zipf", "1.1", "--uniform"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run(&s(&["plane", "--zipf", "1.1", "--uniform"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run(&s(&["serve", "--requests", "0"])).unwrap_err();
        assert!(err.contains("--requests must be positive"), "{err}");
        let err = run(&s(&["plane", "--replicas", "0"])).unwrap_err();
        assert!(err.contains("--replicas must be positive"), "{err}");
        let err = run(&s(&["plane", "--rate", "-5"])).unwrap_err();
        assert!(err.contains("--rate must be positive"), "{err}");
        let err = run(&s(&["plane", "--rate", "nan"])).unwrap_err();
        assert!(err.contains("--rate must be finite"), "{err}");
        let err = run(&s(&["plane", "--rate", "inf"])).unwrap_err();
        assert!(err.contains("--rate must be finite"), "{err}");
        let err = run(&s(&["serve", "--zipf", "nan"])).unwrap_err();
        assert!(err.contains("--zipf must be finite"), "{err}");
        let err = run(&s(&["serve", "--zipf", "-0.5"])).unwrap_err();
        assert!(err.contains("--zipf must be at least 0"), "{err}");
        let err = run(&s(&["plane", "--arrival", "lumpy"])).unwrap_err();
        assert!(err.contains("unknown --arrival"), "{err}");
        let err = run(&s(&["serve", "--topk-fraction", "1.5"])).unwrap_err();
        assert!(err.contains("--topk-fraction"), "{err}");
        let err = run(&s(&["serve", "--nodes", "0"])).unwrap_err();
        assert!(err.contains("--nodes must be positive"), "{err}");
        let err = run(&s(&["serve", "--dim", "0"])).unwrap_err();
        assert!(err.contains("--dim must be positive"), "{err}");
        let err = run(&s(&["plane", "--dim", "0"])).unwrap_err();
        assert!(err.contains("--dim must be positive"), "{err}");
        // R-MAT needs two nodes to draw an edge between.
        for nodes in ["0", "1"] {
            let args = [
                "generate",
                "--nodes",
                nodes,
                "--edges",
                "10",
                "--output",
                "unwritten.txt",
            ];
            let err = run(&s(&args)).unwrap_err();
            assert!(err.contains("--nodes must be at least 2"), "{err}");
        }
        // One ablation at a time, and only of the hetero system.
        let embed = |flags: &[&str]| {
            let mut args = vec![
                "embed",
                "--input",
                "unread.txt",
                "--output",
                "unwritten.txt",
            ];
            args.extend_from_slice(flags);
            run(&s(&args)).unwrap_err()
        };
        let err = embed(&["--dim", "0"]);
        assert!(err.contains("--dim must be positive"), "{err}");
        let err = embed(&["--no-wofp", "--no-nadp"]);
        assert!(
            err.contains("--no-wofp and --no-nadp are mutually exclusive"),
            "{err}"
        );
        let err = embed(&["--no-asl", "--no-nadp", "--no-wofp"]);
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = embed(&["--mode", "pm", "--no-asl"]);
        assert!(
            err.contains("--no-asl") && err.contains("--mode pm"),
            "{err}"
        );
        let err = embed(&["--no-nadp", "--mode", "dram"]);
        assert!(
            err.contains("--no-nadp") && err.contains("--mode dram"),
            "{err}"
        );
    }

    /// A `--k` past any table answers every row: neither command reserves
    /// memory for `k` candidates (2^40 of them once asked for 8 TB).
    #[test]
    fn a_k_past_any_table_runs() {
        for command in ["serve", "plane"] {
            let mut args = vec![
                command,
                "--k",
                "1099511627776",
                "--topk-fraction",
                "0.5",
                "--nodes",
                "200",
                "--dim",
                "8",
            ];
            if command == "serve" {
                args.extend(["--requests", "200"]);
            }
            assert_eq!(run(&s(&args)), Ok(()), "{command}");
        }
    }

    /// The README's IVF line: the cold tier holds the index's cold lists
    /// beside the table (the table alone once filled it), and top-k
    /// queries go through the index.
    #[test]
    fn the_readme_ivf_line_places_its_lists_and_answers_through_them() {
        let dir = std::env::temp_dir().join("omega_cli_ivf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("m.jsonl");
        let mut args: Vec<&str> = "serve --requests 1000 --zipf 1.0 --nodes 20000 --dim 64 \
            --topk-fraction 0.05 --ivf-nlist 0 --ivf-nprobe 0 --metrics-out"
            .split_whitespace()
            .collect();
        args.push(metrics.to_str().unwrap());
        run(&s(&args)).unwrap();
        let counter = counter(&std::fs::read_to_string(&metrics).unwrap());
        assert!(counter("serve.ivf.queries") > 0.0);
        assert!(counter("serve.ivf.list.cold.bytes") > 0.0);
    }

    /// A word2vec header whose table could not be in the file is refused
    /// with the parse error, not by a capacity-overflow panic or an
    /// allocation abort; so is a row with more values than the header's
    /// dimension.
    #[test]
    fn serve_refuses_an_embedding_header_past_its_file() {
        let dir = std::env::temp_dir().join("omega_cli_header_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in [
            ("overflow", "4000000000 4000000000\n0 1 2\n"),
            ("terabytes", "3 1000000000000\n0 1 2\n"),
            ("long_row", "2 1\n0 1 9\n1 2\n"),
        ] {
            let path = dir.join(format!("{name}.txt"));
            std::fs::write(&path, text).unwrap();
            let path = path.to_str().unwrap();
            let err = run(&s(&["serve", "--requests", "10", "--input", path])).unwrap_err();
            assert!(
                err.contains("not a word2vec-text embedding"),
                "{name}: {err}"
            );
        }
    }

    /// A fault factor too large for the clock stops it at its end instead of
    /// wrapping it: one top-k query over 5 000 one-row cold shards adds up
    /// 5 000 spike delays, and a factor of 1e30 still reads no faster than
    /// one of 1e3. The spike starts at 1 ns, after the query's own row
    /// fetch, so it is the pass's cold reads that it slows.
    #[test]
    fn a_huge_fault_factor_stops_the_clock_instead_of_wrapping_it() {
        let dir = std::env::temp_dir().join("omega_cli_huge_factor_test");
        std::fs::create_dir_all(&dir).unwrap();
        let latency = |factor: &str| {
            let plan = dir.join(format!("plan_{factor}.txt"));
            let metrics = dir.join(format!("m_{factor}.jsonl"));
            std::fs::write(
                &plan,
                format!("seed = 1\nspike device=pm factor={factor} from_ns=1\n"),
            )
            .unwrap();
            run(&s(&[
                "serve",
                "--requests",
                "3",
                "--batch",
                "1",
                "--nodes",
                "5000",
                "--dim",
                "16",
                "--rows-per-shard",
                "1",
                "--topk-fraction",
                "1",
                "--fault-plan",
                plan.to_str().unwrap(),
                "--metrics-out",
                metrics.to_str().unwrap(),
            ]))
            .unwrap();
            let jsonl = std::fs::read_to_string(&metrics).unwrap();
            let rows = omega::obs::export::parse_metrics_jsonl(&jsonl).unwrap();
            rows.into_iter()
                .find(|(k, n, _)| k == "histogram" && n == "serve.latency_ns")
                .map(|(_, _, mean)| mean)
                .unwrap()
        };
        let means = ["1e3", "1e30", "1.7976931348623157e308"].map(latency);
        assert!(means[0] >= 120e6, "{means:?}");
        assert!(means.windows(2).all(|w| w[0] <= w[1]), "{means:?}");
        // The request plane's own nanosecond sums stop there too, and its
        // accounting identity still holds.
        let plan = dir.join("plan_1e30.txt");
        let args = [
            "plane",
            "--replicas",
            "2",
            "--horizon-ms",
            "5",
            "--nodes",
            "2000",
            "--dim",
            "16",
            "--topk-fraction",
            "0.5",
            "--fault-plan",
            plan.to_str().unwrap(),
        ];
        assert_eq!(run(&s(&args)), Ok(()));
    }

    /// An outage on a replica the plane does not have is refused before
    /// the run, not ignored.
    #[test]
    fn plane_refuses_an_outage_past_its_replicas() {
        let dir = std::env::temp_dir().join("omega_cli_outage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.txt");
        std::fs::write(&plan, "seed = 1\noutage replica=3 from_ms=0 until_ms=5\n").unwrap();
        let plan = plan.to_str().unwrap();
        let args = ["plane", "--nodes", "200", "--dim", "8", "--horizon-ms", "5"];
        let with = |replicas: &str| {
            let mut a = args.to_vec();
            a.extend(["--replicas", replicas, "--fault-plan", plan]);
            run(&s(&a))
        };
        let err = with("2").unwrap_err();
        assert!(
            err.contains("replica 3") && err.contains("--replicas is 2"),
            "{err}"
        );
        assert_eq!(with("4"), Ok(()));
    }

    #[test]
    fn plane_metrics_are_deterministic_across_wall_threads() {
        let dir = std::env::temp_dir().join("omega_cli_plane_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("m1.jsonl");
        let m8 = dir.join("m8.jsonl");
        let plane_args = |threads: &str, out: &std::path::Path| {
            s(&[
                "plane",
                "--replicas",
                "3",
                "--rate",
                "30000",
                "--horizon-ms",
                "20",
                "--nodes",
                "600",
                "--dim",
                "8",
                "--seed",
                "11",
                "--threads",
                threads,
                "--metrics-out",
                out.to_str().unwrap(),
            ])
        };
        run(&plane_args("1", &m1)).unwrap();
        run(&plane_args("8", &m8)).unwrap();
        let bytes = std::fs::read(&m1).unwrap();
        assert_eq!(
            bytes,
            std::fs::read(&m8).unwrap(),
            "plane metrics must be wall-thread independent"
        );
        let counter = counter(std::str::from_utf8(&bytes).unwrap());
        assert_eq!(
            counter("plane.admitted"),
            counter("plane.completed") + counter("plane.degraded") + counter("plane.dropped"),
            "terminal-state identity must hold in the exported metrics"
        );
    }

    #[test]
    fn serve_is_deterministic_and_zipf_head_stays_cached() {
        let dir = std::env::temp_dir().join("omega_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("m1.jsonl");
        let m2 = dir.join("m2.jsonl");
        let serve_args = |out: &std::path::Path| {
            s(&[
                "serve",
                "--requests",
                "2000",
                "--zipf",
                "1.0",
                "--nodes",
                "2000",
                "--dim",
                "8",
                "--seed",
                "7",
                "--rows-per-shard",
                "32",
                "--cache-shards",
                "8",
                "--metrics-out",
                out.to_str().unwrap(),
            ])
        };
        run(&serve_args(&m1)).unwrap();
        run(&serve_args(&m2)).unwrap();
        let a = std::fs::read(&m1).unwrap();
        assert_eq!(a, std::fs::read(&m2).unwrap(), "same seed, same bytes");

        let counter = counter(&String::from_utf8(a).unwrap());
        assert_eq!(counter("serve.requests"), 2000.0);
        assert!(
            counter("serve.cache.hit") > counter("serve.cache.miss"),
            "Zipf(1.0) head must stay DRAM-resident"
        );
    }

    #[test]
    fn serve_fault_plan_is_deterministic_and_zero_rate_is_identity() {
        let dir = std::env::temp_dir().join("omega_cli_fault_test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.txt");
        std::fs::write(
            &plan,
            "seed = 9\ntransient device=pm rate=0.05 penalty_us=5\n",
        )
        .unwrap();
        let zero = dir.join("zero.txt");
        std::fs::write(&zero, "seed = 9\n").unwrap();
        let serve_args = |plan: Option<&std::path::Path>, out: &std::path::Path| {
            let mut v = s(&[
                "serve",
                "--requests",
                "1500",
                "--zipf",
                "1.0",
                "--nodes",
                "2000",
                "--dim",
                "8",
                "--seed",
                "7",
                "--rows-per-shard",
                "32",
                "--cache-shards",
                "8",
                "--metrics-out",
                out.to_str().unwrap(),
            ]);
            if let Some(p) = plan {
                v.push("--fault-plan".into());
                v.push(p.to_str().unwrap().into());
            }
            v
        };

        let m1 = dir.join("m1.jsonl");
        let m2 = dir.join("m2.jsonl");
        run(&serve_args(Some(&plan), &m1)).unwrap();
        run(&serve_args(Some(&plan), &m2)).unwrap();
        let a = std::fs::read(&m1).unwrap();
        assert_eq!(
            a,
            std::fs::read(&m2).unwrap(),
            "same plan + same seed, same bytes"
        );
        let counter = counter(&String::from_utf8(a).unwrap());
        assert!(counter("fault.injected") > 0.0, "5% rate must fire");
        assert_eq!(
            counter("fault.injected"),
            counter("fault.retried") + counter("fault.hedge.won") + counter("serve.degraded"),
            "every injected fault resolves exactly once"
        );

        // A zero-rate plan must be byte-identical to no plan at all.
        let mz = dir.join("mz.jsonl");
        let mn = dir.join("mn.jsonl");
        run(&serve_args(Some(&zero), &mz)).unwrap();
        run(&serve_args(None, &mn)).unwrap();
        assert_eq!(
            std::fs::read(&mz).unwrap(),
            std::fs::read(&mn).unwrap(),
            "zero-rate plan is observationally free"
        );

        // Malformed plans are rejected with a pointer at the file.
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "transient device=floppy rate=0.1\n").unwrap();
        assert!(run(&serve_args(Some(&bad), &mz)).is_err());
    }

    #[test]
    fn generate_stats_embed_roundtrip() {
        let dir = std::env::temp_dir().join("omega_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.txt");
        let e = dir.join("e.txt");
        run(&s(&[
            "generate",
            "--nodes",
            "300",
            "--edges",
            "2000",
            "--seed",
            "5",
            "--output",
            g.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&["stats", "--input", g.to_str().unwrap()])).unwrap();
        run(&s(&[
            "embed",
            "--input",
            g.to_str().unwrap(),
            "--output",
            e.to_str().unwrap(),
            "--dim",
            "8",
            "--threads",
            "4",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&e).unwrap();
        assert!(text.lines().next().unwrap().ends_with(" 8"));
    }

    #[test]
    fn serve_profile_out_and_profile_report() {
        let dir = std::env::temp_dir().join("omega_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let t = dir.join("t.json");
        let c = dir.join("stacks.collapsed");
        let m1 = dir.join("m1.jsonl");
        let m2 = dir.join("m2.jsonl");
        let serve_args = |metrics: &std::path::Path, profiled: bool| {
            let mut v = s(&[
                "serve",
                "--requests",
                "1500",
                "--zipf",
                "1.0",
                "--nodes",
                "2000",
                "--dim",
                "8",
                "--seed",
                "7",
                "--threads",
                "4",
                "--topk-fraction",
                "0.25",
                "--metrics-out",
                metrics.to_str().unwrap(),
            ]);
            if profiled {
                v.extend(s(&[
                    "--trace-out",
                    t.to_str().unwrap(),
                    "--profile-out",
                    c.to_str().unwrap(),
                ]));
            }
            v
        };
        run(&serve_args(&m1, false)).unwrap();
        // Pin the dispatch policy for the profiled run: the bridged
        // `pool:` frames asserted below need real pool calls even on
        // single-core hosts, where the default adaptive policy would
        // (correctly) keep these tiny serve fan-outs inline.
        omega::par::with_dispatch_policy(omega::par::DispatchPolicy::always_parallel(), || {
            run(&serve_args(&m2, true)).unwrap()
        });
        // Profiling is wall-clock-only: metrics bytes must not move.
        assert_eq!(
            std::fs::read(&m1).unwrap(),
            std::fs::read(&m2).unwrap(),
            "--profile-out changed the metrics export"
        );
        let stacks = std::fs::read_to_string(&c).unwrap();
        assert!(
            stacks.lines().any(|l| l.starts_with("pool:")),
            "collapsed stacks lack pool worker frames:\n{stacks}"
        );
        for line in stacks.lines() {
            let (path, weight) = line.rsplit_once(' ').unwrap();
            assert!(!path.is_empty());
            weight.parse::<u64>().unwrap();
        }
        // The report mode renders a sorted self-time table from the trace.
        run(&s(&[
            "profile",
            "--input",
            t.to_str().unwrap(),
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(run(&s(&["profile", "--input", "/nonexistent.json"])).is_err());
    }

    #[test]
    fn embed_writes_trace_and_metrics() {
        let dir = std::env::temp_dir().join("omega_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = dir.join("g.txt");
        let e = dir.join("e.txt");
        let t = dir.join("t.json");
        let m = dir.join("m.jsonl");
        run(&s(&[
            "generate",
            "--nodes",
            "300",
            "--edges",
            "2000",
            "--seed",
            "9",
            "--output",
            g.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&[
            "embed",
            "--input",
            g.to_str().unwrap(),
            "--output",
            e.to_str().unwrap(),
            "--dim",
            "8",
            "--threads",
            "4",
            "--trace-out",
            t.to_str().unwrap(),
            "--metrics-out",
            m.to_str().unwrap(),
        ]))
        .unwrap();

        let doc = omega::obs::json::parse(&std::fs::read_to_string(&t).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_seq().unwrap();
        assert!(!events.is_empty());
        let rows =
            omega::obs::export::parse_metrics_jsonl(&std::fs::read_to_string(&m).unwrap()).unwrap();
        assert!(rows
            .iter()
            .any(|(k, n, v)| { k == "counter" && n == "mem.pm_bytes" && *v > 0.0 }));
    }
}
