//! `fmm-verify` CLI: statically check the SPMD communication program.
//!
//! ```text
//! cargo run -p fmm-verify -- check [--depth D] [--workers P] [--order O]
//!                                  [--forces] [--skip-lints]
//!                                  [--mutate flipped-halo|dropped-recv|reply-after-shutdown]
//! cargo run -p fmm-verify -- preflight [--depth D] [--workers P] [--order O]
//!                                      [--forces] [--balance]
//!                                      [--fabric inprocess|unix|tcp]
//!                                      [--capacity-bytes B]
//! ```
//!
//! `check` runs the static passes; `preflight` prices the same program's
//! budget on a transport model and gates it against a byte capacity —
//! the go/no-go a launcher runs before spawning ranks. Exit status 0 iff
//! every pass (or the capacity gate) is green; failures are named on
//! stderr (the CI smoke tests grep for them).

use std::process::ExitCode;

use fmm_machine::TransportModel;
use fmm_verify::{preflight_budget, run_checks, CheckConfig, Mutation};

fn usage() -> ! {
    eprintln!(
        "usage: fmm-verify check [--depth D] [--workers P] [--order O] \
         [--forces] [--balance] [--skip-lints] \
         [--mutate flipped-halo|dropped-recv|reply-after-shutdown]\n\
         \u{20}      fmm-verify preflight [--depth D] [--workers P] [--order O] \
         [--forces] [--balance] [--fabric inprocess|unix|tcp] [--capacity-bytes B]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let mode = it.next().map(String::as_str);
    if mode != Some("check") && mode != Some("preflight") {
        usage();
    }
    let mut cfg = CheckConfig::table4();
    let mut workers: Option<usize> = None;
    let mut fabric = "inprocess".to_string();
    let mut capacity_bytes: Option<u64> = None;
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> &str {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--depth" => cfg.depth = val("--depth").parse().unwrap_or_else(|_| usage()),
            "--workers" => workers = Some(val("--workers").parse().unwrap_or_else(|_| usage())),
            "--order" => cfg.order = val("--order").parse().unwrap_or_else(|_| usage()),
            "--forces" => cfg.with_fields = true,
            "--balance" => cfg.balance = true,
            "--mutate" => {
                cfg.mutate = Some(Mutation::parse(val("--mutate")).unwrap_or_else(|| usage()))
            }
            "--skip-lints" => cfg.skip_lints = true,
            "--fabric" => fabric = val("--fabric").to_string(),
            "--capacity-bytes" => {
                capacity_bytes = Some(val("--capacity-bytes").parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    if let Some(p) = workers {
        cfg.grid = fmm_spmd::vu_grid_for(p);
    }
    if cfg.grid.dims.iter().any(|&d| d > 1usize << cfg.depth) {
        eprintln!(
            "error: VU grid {:?} does not fit depth {} ({} leaf boxes per axis)",
            cfg.grid.dims,
            cfg.depth,
            1usize << cfg.depth
        );
        return ExitCode::FAILURE;
    }

    if mode == Some("preflight") {
        let Some(model) = TransportModel::by_name(&fabric) else {
            eprintln!("error: unknown fabric {fabric:?} (inprocess|unix|tcp)");
            return ExitCode::FAILURE;
        };
        println!(
            "fmm-verify: pre-flight depth={} workers={} grid={:?} order={} fabric={}{}",
            cfg.depth,
            cfg.grid.len(),
            cfg.grid.dims,
            cfg.order,
            model.name,
            capacity_bytes
                .map(|b| format!(" capacity={b}B"))
                .unwrap_or_default(),
        );
        let budget = preflight_budget(&cfg);
        return match fmm_machine::preflight(&budget, &model, capacity_bytes) {
            Ok(report) => {
                println!("fmm-verify: pre-flight ok: {report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fmm-verify: FAILED preflight: {e}");
                ExitCode::FAILURE
            }
        };
    }

    println!(
        "fmm-verify: checking CommProgram depth={} workers={} grid={:?} order={} ({}{}){}",
        cfg.depth,
        cfg.grid.len(),
        cfg.grid.dims,
        cfg.order,
        if cfg.with_fields {
            "forces near field"
        } else {
            "potentials near field"
        },
        if cfg.balance {
            ", cost-weighted partition"
        } else {
            ""
        },
        cfg.mutate
            .map(|m| format!(", mutation {m:?}"))
            .unwrap_or_default(),
    );
    let report = run_checks(&cfg);
    for pass in &report.passes {
        println!(
            "  pass {:<20} {} ({})",
            pass.name,
            if pass.ok { "ok" } else { "FAILED" },
            pass.detail
        );
    }
    if report.ok() {
        println!("fmm-verify: all {} passes green", report.passes.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("fmm-verify: FAILED passes: {}", report.failing().join(", "));
        ExitCode::FAILURE
    }
}
