//! `fmm-check` CLI: exhaustively model-check the serve control plane.
//!
//! ```text
//! fmm-check [--threads N] [--preemption-bound K] [--max-schedules M]
//!           [--model NAME] [--mutate MUT] [--list]
//! ```
//!
//! With no arguments: run every healthy model at `--threads` (default
//! 2) racing threads, print per-model explored-schedule counts, exit 0
//! iff every property holds under every explored schedule.
//!
//! `--mutate drop-double-check|drop-notify|key-order-pick|
//! swap-lock-order` runs the model carrying that seeded bug instead;
//! the checker must find the violating schedule, and the process exits
//! **non-zero naming the violated property** (the CI smoke test relies
//! on this; a mutant the checker misses exits 0, which `!` in CI turns
//! into a failure).

use std::process::ExitCode;

use fmm_check::{run_healthy, Mutation, HEALTHY_MODELS};
use fmm_sync::model::Options;

fn usage() -> ! {
    eprintln!(
        "usage: fmm-check [--threads N] [--preemption-bound K] [--max-schedules M] \
         [--model NAME] [--mutate {}] [--list]",
        Mutation::ALL.map(|m| m.name()).join("|")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let mut threads: usize = 2;
    let mut opts = Options::default();
    let mut only: Option<String> = None;
    let mut mutate: Option<Mutation> = None;
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> &str {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--threads" => threads = val("--threads").parse().unwrap_or_else(|_| usage()),
            "--preemption-bound" => {
                opts.preemption_bound = Some(
                    val("--preemption-bound")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--max-schedules" => {
                opts.max_schedules = val("--max-schedules").parse().unwrap_or_else(|_| usage())
            }
            "--model" => only = Some(val("--model").to_string()),
            "--mutate" => {
                mutate = Some(Mutation::parse(val("--mutate")).unwrap_or_else(|| usage()))
            }
            "--list" => {
                for m in HEALTHY_MODELS {
                    println!("{m}");
                }
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
    }
    if !(1..=4).contains(&threads) {
        eprintln!("--threads must be 1..=4 (exploration is exponential in threads)");
        usage();
    }

    if let Some(m) = mutate {
        let report = m.run(threads, &opts);
        println!(
            "fmm-check: seeded mutation {} → model {} (property {})",
            m.name(),
            report.name,
            report.property
        );
        return match report.result {
            Err(v) => {
                println!("  property {} VIOLATED — mutation caught:", report.property);
                for line in v.to_string().lines() {
                    println!("  {line}");
                }
                ExitCode::FAILURE
            }
            Ok(e) => {
                println!(
                    "  MUTANT SURVIVED: {} schedules explored ({}), no violation — \
                     the checker has a blind spot",
                    e.schedules,
                    if e.complete { "complete" } else { "truncated" }
                );
                ExitCode::SUCCESS
            }
        };
    }

    println!(
        "fmm-check: exploring control-plane interleavings \
         (threads={threads}, preemption bound={}, schedule budget={})",
        opts.preemption_bound
            .map(|b| b.to_string())
            .unwrap_or_else(|| "none".into()),
        if opts.max_schedules == 0 {
            "none".into()
        } else {
            opts.max_schedules.to_string()
        },
    );
    let names: Vec<&str> = match &only {
        Some(n) => {
            if !HEALTHY_MODELS.contains(&n.as_str()) {
                eprintln!("unknown model {n:?}; --list shows the models");
                return ExitCode::FAILURE;
            }
            vec![n.as_str()]
        }
        None => HEALTHY_MODELS.to_vec(),
    };
    let mut total: u64 = 0;
    let mut failed = Vec::new();
    for name in names {
        let report = run_healthy(name, threads, &opts).expect("listed model exists");
        match report.result {
            Ok(e) => {
                total += e.schedules;
                println!(
                    "  model {:<24} ok — {} schedules ({}), {} pruned, {} transitions  [{}]",
                    report.name,
                    e.schedules,
                    if e.complete { "complete" } else { "TRUNCATED" },
                    e.pruned,
                    e.transitions,
                    report.property
                );
            }
            Err(v) => {
                total += v.schedules;
                println!(
                    "  model {:<24} FAILED — property {} violated:",
                    report.name, report.property
                );
                for line in v.to_string().lines() {
                    println!("    {line}");
                }
                failed.push(report.property);
            }
        }
    }
    if failed.is_empty() {
        println!("fmm-check: all models hold ({total} schedules explored)");
        ExitCode::SUCCESS
    } else {
        eprintln!("fmm-check: VIOLATED properties: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
