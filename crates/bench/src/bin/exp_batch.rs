//! **Batch against solo**: a batch of `R` same-shape requests through
//! `Fmm::evaluate_requests` against the same requests evaluated one by
//! one, per phase, with the traversal's `copied` counts, on
//! `Executor::Serial` and on the pool. Best of `reps` per side.
//!
//! Cases: R ∈ {8, 64} at 64 points, depth 2 (potentials), and R ∈ {2, 8}
//! at 2048 points, depth 3, with forces — the served request classes.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_batch [reps]`
//! (`reps` defaults to 20; `1` is a smoke run).

use fmm_bench::util::header;
use fmm_core::{BatchRequest, Executor, Fmm, FmmConfig, Phase};
use std::time::Duration;

fn system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
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

/// Best-of-`reps` (interactive, total) time and the `copied` count of
/// `run`.
fn best(reps: usize, run: impl Fn() -> (Duration, Duration, u64)) -> (Duration, Duration, u64) {
    let mut out = run();
    for _ in 1..reps {
        let (i, t, c) = run();
        out = (out.0.min(i), out.1.min(t), c);
    }
    out
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map_or(20, |s| s.parse().expect("reps"));
    header("Batch against solo: one hierarchy of R interleaved instances");
    println!(
        "{:>8} {:>3} {:>5} {:>3} {:>6} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6} | {:>10} {:>8}",
        "executor",
        "R",
        "n",
        "D",
        "forces",
        "int batch",
        "int solo",
        "ratio",
        "tot batch",
        "tot solo",
        "ratio",
        "copied b",
        "copied s"
    );
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for executor in [Executor::Serial, Executor::Rayon] {
        for (r, n, depth, forces) in [
            (8, 64, 2, false),
            (64, 64, 2, false),
            (2, 2048, 3, true),
            (8, 2048, 3, true),
        ] {
            let fmm = Fmm::new(FmmConfig::order(5).depth(depth).executor(executor)).unwrap();
            let systems: Vec<_> = (0..r).map(|i| system(n, 1000 + i as u64)).collect();
            let requests: Vec<BatchRequest> = systems
                .iter()
                .map(|(p, q)| BatchRequest {
                    positions: p,
                    charges: q,
                })
                .collect();
            let batch = best(reps, || {
                let out = fmm.evaluate_requests(&requests, forces).unwrap();
                let p = &out.profile;
                (
                    p.phase_time(Phase::Interactive),
                    p.total_time(),
                    out.traversal_flops.copied,
                )
            });
            let solo = best(reps, || {
                let mut acc = (Duration::ZERO, Duration::ZERO, 0);
                for q in &requests {
                    let out = fmm.evaluate_requests(&[*q], forces).unwrap();
                    let p = &out.profile;
                    acc.0 += p.phase_time(Phase::Interactive);
                    acc.1 += p.total_time();
                    acc.2 += out.traversal_flops.copied;
                }
                acc
            });
            println!(
                "{:>8} {:>3} {:>5} {:>3} {:>6} | {:>10.3} {:>10.3} {:>6.2} | {:>10.3} {:>10.3} {:>6.2} | {:>10} {:>8}",
                format!("{executor:?}"), r, n, depth, forces,
                ms(batch.0), ms(solo.0), ms(batch.0) / ms(solo.0),
                ms(batch.1), ms(solo.1), ms(batch.1) / ms(solo.1),
                batch.2, solo.2
            );
        }
    }
}
