//! Launch one FMM evaluation and emit a byte-exact evidence file.
//!
//! ```text
//! # in one process, over mpsc channels
//! fmm-launch --workers 4 --depth 4 --n 16384 --out a.bits
//!
//! # the same program as 4 OS processes over UNIX sockets
//! fmm-launch --workers 4 --depth 4 --n 16384 --out b.bits \
//!            --fabric unix:/tmp/fmm.sock --worker-bin target/release/fmm-worker
//!
//! cmp a.bits b.bits   # bitwise-identical fabrics
//!
//! # wait for external workers at an OS-chosen port
//! fmm-launch --workers 2 --fabric tcp:127.0.0.1:0
//! #   stderr: fmm-launch: rendezvous tcp:127.0.0.1:<port>, waiting for 2 ranks
//! fmm-worker --rank 0 --fabric tcp:127.0.0.1:<port>   # and rank 1
//! ```
//!
//! With `--fabric`, the address the ranks must dial is reported on
//! stderr before the launcher waits for them (for `tcp:host:0`, the port
//! the OS chose), and again on the summary line.
//!
//! The evidence file is the little-endian bit pattern of every potential
//! (and force component with `--forces`) followed by the per-phase
//! channel counters — so `cmp` across runs checks both numerics and data
//! motion byte for byte. With `--check-budget` the measured counters are
//! additionally checked against `communication_budget_with`: exact on
//! the deterministic phases, the shared 10% comparator elsewhere.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use fmm_core::{Balance, Executor, Fmm, FmmConfig};
use fmm_machine::{
    check_phases, communication_budget_with, predicted_bytes, predicted_messages, MeasuredPhase,
    ProgramConfig, VuGrid, DEFAULT_TOLERANCE,
};
use fmm_spmd::{FabricAddr, LaunchConfig, Partition, Rendezvous};

const USAGE: &str = "usage: fmm-launch --workers P [--depth D] [--n N] [--order K] \
[--balance uniform|cost] [--forces] [--out FILE] [--check-budget] [--capacity-bytes B] \
[--fabric unix:PATH|tcp:HOST:PORT [--worker-bin PATH]]";

/// The deterministic xorshift system every harness in this repo uses:
/// same seed, same particles, on every host.
fn uniform_system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts = (0..n).map(|_| [next(), next(), next()]).collect();
    let q = (0..n).map(|_| next() * 2.0 - 1.0).collect();
    (pts, q)
}

struct Opts {
    workers: usize,
    depth: u32,
    n: usize,
    order: usize,
    balance: Balance,
    forces: bool,
    out: Option<PathBuf>,
    check_budget: bool,
    capacity_bytes: Option<u64>,
    fabric: Option<FabricAddr>,
    worker_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workers: 4,
        depth: 4,
        n: 16384,
        order: 3,
        balance: Balance::Uniform,
        forces: false,
        out: None,
        check_budget: false,
        capacity_bytes: None,
        fabric: None,
        worker_bin: None,
    };
    let mut args = std::env::args().skip(1);
    let val = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" | "-p" => {
                o.workers = val(&mut args, "--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--depth" => {
                o.depth = val(&mut args, "--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?
            }
            "--n" => {
                o.n = val(&mut args, "--n")?
                    .parse()
                    .map_err(|e| format!("--n: {e}"))?
            }
            "--order" => {
                o.order = val(&mut args, "--order")?
                    .parse()
                    .map_err(|e| format!("--order: {e}"))?
            }
            "--balance" => {
                o.balance = match val(&mut args, "--balance")?.as_str() {
                    "uniform" => Balance::Uniform,
                    "cost" | "cost-weighted" => Balance::CostWeighted,
                    other => return Err(format!("unknown balance {other:?}")),
                }
            }
            "--forces" => o.forces = true,
            "--out" => o.out = Some(PathBuf::from(val(&mut args, "--out")?)),
            "--check-budget" => o.check_budget = true,
            "--capacity-bytes" => {
                o.capacity_bytes = Some(
                    val(&mut args, "--capacity-bytes")?
                        .parse()
                        .map_err(|e| format!("--capacity-bytes: {e}"))?,
                )
            }
            "--fabric" => o.fabric = Some(FabricAddr::parse(&val(&mut args, "--fabric")?)?),
            "--worker-bin" => o.worker_bin = Some(PathBuf::from(val(&mut args, "--worker-bin")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn run() -> Result<(), String> {
    let o = parse_args()?;
    fmm_spmd::install();
    let (pts, q) = uniform_system(o.n, 0x7ab1e4);
    let cfg = FmmConfig::order(o.order)
        .depth(o.depth)
        .executor(Executor::spmd(o.workers))
        .balance(o.balance);
    let fmm = Fmm::new(cfg).map_err(|e| e.to_string())?;
    let k = fmm.k();

    let mut fabric = "inprocess".to_string();
    let out = match &o.fabric {
        None => if o.forces {
            fmm.evaluate_forces(&pts, &q)
        } else {
            fmm.evaluate(&pts, &q)
        }
        .map_err(|e| e.to_string())?,
        Some(addr) => {
            let rendezvous = Rendezvous::bind(addr).map_err(|e| e.to_string())?;
            eprintln!(
                "fmm-launch: rendezvous {}, waiting for {} ranks",
                rendezvous.addr(),
                o.workers
            );
            fabric = rendezvous.addr().to_string();
            let lc = LaunchConfig {
                rendezvous: addr.clone(),
                workers: o.workers,
                with_fields: o.forces,
                worker_bin: o.worker_bin.clone(),
                capacity_bytes: o.capacity_bytes,
            };
            rendezvous
                .evaluate(&fmm, &pts, &q, &lc)
                .map_err(|e| e.to_string())?
        }
    };
    let report = out.spmd.as_ref().ok_or("spmd run attaches a report")?;

    // Evidence file: every f64 as its exact LE bit pattern, then the
    // per-phase counters. Byte-identical files <=> byte-identical runs.
    let mut bits = Vec::with_capacity(8 * out.potentials.len());
    for &p in &out.potentials {
        bits.extend_from_slice(&p.to_le_bytes());
    }
    if let Some(fields) = &out.fields {
        for f in fields {
            for c in f {
                bits.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    for ph in report.phases.iter() {
        bits.extend_from_slice(&ph.messages.to_le_bytes());
        bits.extend_from_slice(&ph.bytes.to_le_bytes());
        bits.extend_from_slice(&ph.local_words.to_le_bytes());
    }
    match &o.out {
        Some(path) => {
            std::fs::write(path, &bits).map_err(|e| format!("writing {}: {e}", path.display()))?
        }
        None => std::io::stdout()
            .write_all(&bits)
            .map_err(|e| format!("writing stdout: {e}"))?,
    }

    eprintln!(
        "fmm-launch: {} particles, depth {}, {} workers over {fabric}: \
         messages {:?}, {} evidence bytes",
        o.n,
        out.depth,
        report.workers,
        report.phases.iter().map(|p| p.messages).collect::<Vec<_>>(),
        bits.len(),
    );

    if o.check_budget {
        let part = report
            .partition
            .clone()
            .map(|splits| Partition::from_splits(out.depth, splits));
        let budget = communication_budget_with(
            &ProgramConfig {
                depth: out.depth,
                k,
                m: fmm.config().m_trunc,
                particles_per_box: o.n as f64 / 8f64.powi(out.depth as i32),
                vu_grid: VuGrid::new(report.vu_dims),
                supernodes: fmm.config().supernodes,
                sort_miss_fraction: 1.0 - 1.0 / o.workers as f64,
                forces_near: false,
            },
            part.as_ref(),
        );
        // Upward and downward move a schedule-determined set of K-box
        // rows: the measured counters must equal the model bit for bit.
        for i in [2usize, 3] {
            let (pm, pb) = (
                predicted_messages(&budget.phases[i].comm),
                predicted_bytes(&budget.phases[i].comm, k),
            );
            let (mm, mb) = (report.phases[i].messages, report.phases[i].bytes);
            if (pm, pb) != (mm, mb) {
                return Err(format!(
                    "phase {} counters ({mm} msgs, {mb} bytes) diverge from the \
                     budget ({pm} msgs, {pb} bytes)",
                    budget.phases[i].name
                ));
            }
        }
        // Near-field message count is deterministic too; payloads are
        // data-dependent, so bytes go through the 10% comparator below.
        let (pm, mm) = (
            predicted_messages(&budget.phases[5].comm),
            report.phases[5].messages,
        );
        if pm != mm {
            return Err(format!(
                "near-field message count {mm} diverges from the budget's {pm}"
            ));
        }
        let measured: Vec<MeasuredPhase> = report
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| MeasuredPhase {
                messages: p.messages,
                bytes: matches!(i, 1..=4).then_some(p.bytes),
            })
            .collect();
        let mismatches = check_phases(&budget, &measured, DEFAULT_TOLERANCE);
        if !mismatches.is_empty() {
            return Err(format!(
                "budget divergence:\n{}",
                mismatches
                    .iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            ));
        }
        eprintln!("fmm-launch: counters match communication_budget_with");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fmm-launch: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
