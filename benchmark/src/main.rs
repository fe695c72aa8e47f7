//! The repository's benchmark: six workloads, end-to-end metrics from an
//! untraced pass and per-layer metrics from a separate traced pass. See
//! `README.md` in this directory and `BENCHMARK.json` at the repository
//! root.
//!
//! ```text
//! benchmark --workload NAME --seed S --seconds T --trace 0|1 [--out DIR]
//! benchmark suite [--workload NAME|all] [--seed S] [--seeds N] [--passes e2e|layers|both] [--seconds T] [--out DIR]
//! benchmark compare A.json B.json
//! ```
//!
//! The first form is what the pipeline calls: one workload, one pass, in
//! this process, and as the last line of its output one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `suite` runs every
//! selected workload in child processes of that form, so peak memory is per
//! workload: untraced, then traced, for seeds `S..S+N`. It prints every
//! metric by name with its unit and writes `DIR/results.json`, which
//! `compare` reads. All exit non-zero when an operation failed or an output
//! was wrong.

mod compare;
mod e2e;
mod inputs;
mod layers;
mod perlayer;
mod report;
mod serve;
mod trace;
mod workloads;

use e2e::Budget;
use fmm_serve::json::{self, Value};
use report::{obj, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Kind, Workload};

/// An end-to-end metric as `BENCHMARK.json` declares it; a unit test keeps
/// the two equal.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// The share of the baseline median by which it may get worse before
    /// `compare` calls it a regression.
    pub bound: f64,
    /// `compare` raises both medians to this before it takes their ratio,
    /// so noise on a reading near zero is not a regression.
    pub floor: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    floor: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
        floor,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    // Set-up of the order-5 workloads takes 4.6 ms, hence the 5 ms floor.
    end_to_end("setup_s", "s", true, 0.25, 5e-3),
    end_to_end("eval_s", "s", true, 0.25, 0.0),
    end_to_end("req_per_s", "1/s", false, 0.25, 0.0),
    end_to_end("err_rms", "relative", true, 0.15, 0.0),
    end_to_end("peak_rss_mb", "MB", true, 0.05, 0.0),
];

/// Which passes `suite` runs.
#[derive(Clone, Copy, PartialEq)]
enum Passes {
    EndToEnd,
    Layers,
    Both,
}

struct Args {
    workload: String,
    seed: u64,
    /// `suite`: how many consecutive seeds, one run of each pass per seed.
    seeds: u64,
    seconds: f64,
    /// The single-pass form: which pass.
    trace: Option<bool>,
    passes: Passes,
    out: PathBuf,
    smoke: bool,
}

fn default_out() -> PathBuf {
    // Build outputs and benchmark outputs share one ignored directory.
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("benchmark-out")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seeds: 1,
        seconds: 10.0,
        trace: None,
        passes: Passes::Both,
        out: default_out(),
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seeds" => args.seeds = value.parse().map_err(|_| bad("a count"))?,
            "--passes" => {
                args.passes = match value.as_str() {
                    "e2e" => Passes::EndToEnd,
                    "layers" => Passes::Layers,
                    "both" => Passes::Both,
                    _ => return Err(bad("e2e, layers or both")),
                }
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a duration in seconds"))?
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Where the numbers were taken: a result without its host means nothing.
fn host_fingerprint() -> Vec<(&'static str, Value)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", Value::Num(workloads::nproc() as f64)),
        (
            "kernel",
            Value::Str(fmm_core::Kernel::detect().name().to_string()),
        ),
        ("cpu", Value::Str(cpu)),
        ("commit", Value::Str(git_commit())),
    ]
}

/// The checked-out commit, read from `.git` without running git; a bare
/// checkout has none.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.to_string()
    }
}

/// One workload, one pass, in this process.
fn run_one(w: &Workload, args: &Args, traced: bool) -> Outcome {
    let (w, budget) = if args.smoke {
        (w.smoke(), Budget::smoke())
    } else {
        (w.clone(), Budget::full(args.seconds))
    };
    match (&w.kind, traced) {
        (Kind::Library(l), false) => e2e::run_library(l, args.seed, budget),
        (Kind::Library(l), true) => {
            perlayer::trace_library(w.name, l, args.seed, budget, &args.out)
        }
        (Kind::Serve(s), false) => serve::run_serve(s, args.seed, budget),
        (Kind::Serve(s), true) => perlayer::trace_serve(w.name, s, args.seed, budget, &args.out),
    }
}

/// The names a pass must print, all of them, exactly once.
fn expected_names(traced: bool) -> Vec<&'static str> {
    if traced {
        perlayer::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// The pipeline's form: one workload, one pass, in this process.
fn single_pass(args: &Args, traced: bool) -> ExitCode {
    let Some(w) = workloads::find(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; one of: {}",
            args.workload,
            workload_names().join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "{} seed {} trace {} host {}",
        w.name,
        args.seed,
        u8::from(traced),
        json::write(&obj(host_fingerprint()))
    );
    let mut outcome = run_one(&w, args, traced);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let complete =
        names == expected_names(traced) && outcome.metrics.iter().all(|m| m.value.is_finite());
    outcome.check(complete, || {
        "a metric is missing, repeated or not finite".into()
    });
    outcome.print();
    println!("{}", json::write(&outcome.timings_json()));
    println!("{}", json::write(&outcome.to_json()));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn workload_names() -> Vec<&'static str> {
    workloads::all().iter().map(|w| w.name).collect()
}

/// Run one pass in a child process of the single-pass form, echo what it
/// prints, and return the last two lines of its output: the timings and the
/// result object.
fn spawn_pass(
    args: &Args,
    workload: &str,
    seed: u64,
    traced: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.trim_end().rsplitn(3, '\n');
    let (Some(result), Some(timings), Some(log)) = (lines.next(), lines.next(), lines.next())
    else {
        return Err(format!("child printed no result ({})", output.status));
    };
    println!("{log}");
    let parse = |line| json::parse(line).map_err(|e| format!("child's output is not JSON: {e}"));
    Ok((parse(timings)?, parse(result)?))
}

fn suite(args: &Args) -> ExitCode {
    let selected: Vec<&str> = workload_names()
        .into_iter()
        .filter(|n| args.workload == "all" || args.workload == *n)
        .collect();
    if selected.is_empty() {
        eprintln!(
            "unknown workload {:?}; one of: all, {}",
            args.workload,
            workload_names().join(", ")
        );
        return ExitCode::from(2);
    }
    let passes: &[bool] = match args.passes {
        Passes::EndToEnd => &[false],
        Passes::Layers => &[true],
        Passes::Both => &[false, true],
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for seed in args.seed..args.seed + args.seeds {
        for name in &selected {
            for &traced in passes {
                match spawn_pass(args, name, seed, traced) {
                    Ok((timings, result)) => {
                        all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
                        runs.push(obj(vec![
                            ("workload", Value::Str(name.to_string())),
                            ("seed", Value::Num(seed as f64)),
                            ("trace", Value::Num(f64::from(u8::from(traced)))),
                            ("timings", timings),
                            ("result", result),
                        ]));
                    }
                    // The run is left out of the file, and `compare` fails
                    // on the pair it then misses.
                    Err(e) => {
                        eprintln!("{name} seed {seed} trace {}: {e}", u8::from(traced));
                        all_correct = false;
                    }
                }
            }
        }
    }
    let doc = obj(vec![
        ("host", obj(host_fingerprint())),
        ("seconds", Value::Num(args.seconds)),
        ("runs", Value::Arr(runs)),
    ]);
    let path = args.out.join("results.json");
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, json::write(&doc) + "\n"));
    match written {
        Ok(()) => println!("results: {}", path.display()),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            all_correct = false;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: an operation failed or an output was wrong");
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: benchmark --workload NAME --seed S --seconds T --trace 0|1 [--out DIR] [--smoke]
       benchmark suite [--workload NAME|all] [--seed S] [--seeds N] [--passes e2e|layers|both] [--seconds T] [--out DIR] [--smoke]
       benchmark compare A.json B.json";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("suite" | "compare")) => (c, &argv[1..]),
        _ => ("", &argv[..]),
    };
    if command == "compare" {
        return match rest {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (command, args.trace) {
        ("suite", None) => suite(&args),
        ("suite", Some(_)) => {
            eprintln!("suite takes --passes, not --trace\n{USAGE}");
            ExitCode::from(2)
        }
        (_, Some(traced)) => single_pass(&args, traced),
        (_, None) => {
            eprintln!("--trace 0|1 is required without a subcommand\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Arr(list)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key}")
        };
        list.iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_binary_prints() {
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let Some(Value::Arr(list)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (m, spec) in list.iter().zip(END_TO_END) {
            let better = if spec.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(m.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(spec.bound));
        }
        let layers: Vec<_> = perlayer::PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
        let Some(Value::Arr(list)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        let names: Vec<_> = list
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, workload_names());
    }

    /// Every workload, both passes, on tiny inputs: every metric named in
    /// `BENCHMARK.json` is printed exactly once with a finite value, and
    /// every correctness gate passes.
    #[test]
    fn smoke_every_workload_prints_every_metric() {
        let out = default_out().join(format!("smoke-{}", std::process::id()));
        for w in workloads::all() {
            for traced in [false, true] {
                let args = Args {
                    workload: w.name.into(),
                    seed: 1,
                    seeds: 1,
                    seconds: 0.0,
                    trace: Some(traced),
                    passes: Passes::Both,
                    out: out.clone(),
                    smoke: true,
                };
                let outcome = run_one(&w, &args, traced);
                let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, expected_names(traced), "{} trace {traced}", w.name);
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{} {} = {}", w.name, m.name, m.value);
                }
                assert!(outcome.attempted >= 1);
                assert!(
                    outcome.correct(),
                    "{} trace {traced}: {:?}",
                    w.name,
                    outcome.failures
                );
            }
        }
        let _ = std::fs::remove_dir_all(out);
    }

    /// The unfused replay assembles bit for bit what `evaluate`,
    /// `evaluate_forces` and mixed-precision `evaluate` return.
    #[test]
    fn replay_is_bitwise_equal_to_evaluate() {
        use fmm_core::{Fmm, FmmConfig, Precision};
        let positions = inputs::uniform(4096, 1);
        let charges = vec![1.0; 4096];
        let cases = [
            (FmmConfig::order(5), false),
            (FmmConfig::order(5), true),
            (FmmConfig::order(5).precision(Precision::Mixed), false),
        ];
        for (cfg, forces) in cases {
            let fmm = Fmm::new(cfg).unwrap();
            let want = e2e::call(&fmm, &positions, &charges, forces).unwrap();
            let mut tr = trace::Tracer::new(std::time::Instant::now(), 0);
            let got = layers::replay(&fmm, &positions, &charges, forces, &mut tr, 0);
            assert!(e2e::same_bits(got.bits(), (&want).into()));
            assert_eq!(got.counts.near_pairs, want.near_stats.pair_interactions);
            assert_eq!(tr.durations("core.replay").len(), 1);
            assert_eq!(tr.spans.len(), 7);
        }
    }
}
