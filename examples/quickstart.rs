//! Quickstart: evaluate the potential of a uniform particle system with
//! Anderson's O(N) hierarchical method and compare against direct
//! summation.
//!
//! Run: `cargo run --release --example quickstart`
//!
//! Pass `-- --executor spmd --workers 8` to run the same computation
//! through the message-passing SPMD executor (worker threads as the VUs
//! of a CM-5-style grid over in-process channels; identical bits,
//! measured data motion). To run the ranks as OS processes over UNIX or
//! TCP sockets, launch them through a rendezvous with `fmm-launch
//! --fabric ... --worker-bin fmm-worker`; the output stays bitwise
//! identical.

use anderson_fmm::fmm_core::{relative_error_stats, Executor, Fmm, FmmConfig};
use anderson_fmm::{fmm_direct, fmm_spmd};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn executor_from_args() -> Executor {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    match value_of("--executor").map(String::as_str) {
        Some("spmd") => {
            let workers = value_of("--workers")
                .and_then(|w| w.parse().ok())
                .unwrap_or(8);
            fmm_spmd::install();
            Executor::spmd(workers)
        }
        Some("serial") => Executor::Serial,
        _ => Executor::Rayon,
    }
}

fn main() {
    // 1. A particle system: positions anywhere, charges (or masses) per
    //    particle. Here: 20,000 uniform points in the unit cube.
    let n = 20_000;
    let mut rng = SmallRng::seed_from_u64(7);
    let positions: Vec<[f64; 3]> = (0..n).map(|_| [rng.gen(), rng.gen(), rng.gen()]).collect();
    let charges = vec![1.0f64; n];

    // 2. Configure the method: integration order D = 5 is the paper's
    //    "four digits" configuration (K = 12 icosahedral rule); the depth,
    //    truncation and sphere radii default to calibrated values.
    let executor = executor_from_args();
    let fmm = Fmm::new(FmmConfig::order(5).executor(executor)).expect("valid configuration");

    // 3. Evaluate potentials at every particle in O(N).
    let out = fmm.evaluate(&positions, &charges).expect("evaluation");
    println!(
        "evaluated {} particles at hierarchy depth {}",
        out.potentials.len(),
        out.depth
    );
    if let Some(rep) = &out.spmd {
        let bytes: u64 = rep.phases.iter().map(|p| p.bytes).sum();
        let msgs: u64 = rep.phases.iter().map(|p| p.messages).sum();
        println!(
            "spmd: {} workers on a {:?} VU grid moved {:.2} MB in {} messages",
            rep.workers,
            rep.vu_dims,
            bytes as f64 / 1e6,
            msgs
        );
    }
    // Per-phase time, flops and rate. Every phase is timed around the code
    // that does its flops, so the rates are true by construction: T2 cannot
    // read above the host's GEMM peak.
    println!("{}", out.profile.table());

    // 4. Check against the O(N²) direct sum.
    let reference = fmm_direct::potentials(&positions, &charges);
    let stats = relative_error_stats(&out.potentials, &reference);
    println!(
        "accuracy vs direct: rms_rel = {:.3e} ({:.2} digits), max_rel = {:.3e}",
        stats.rms_rel,
        stats.digits(),
        stats.max_rel
    );
    assert!(stats.rms_rel < 1e-3, "expected ~4 digits");
}
