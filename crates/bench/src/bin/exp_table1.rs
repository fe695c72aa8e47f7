//! **E11 — Paper Table 1 (our rows)**: efficiency and cycles/particle of
//! this implementation, with a Barnes–Hut quadrupole run in the same
//! harness (the class of codes the paper's Table 1 compares against) and
//! direct summation as the absolute baseline. Then the small-N crossover
//! of the three methods: direct, Barnes–Hut θ = 0.6 and Anderson D = 5 at
//! N = 2,000 and 16,000.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_table1 [n]`

use fmm_bench::util::{best_of, header, peak_gemm_gflops, rms_digits, time_s};
use fmm_bench::workloads::{direct_potentials, uniform, unit_charges};
use fmm_bh::BarnesHut;
use fmm_core::{Fmm, FmmConfig};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000);
    header("Table 1 — method comparison rows on this host");
    let positions = uniform(n, 1996);
    let charges = unit_charges(n);
    let ghz = 3.0;
    let ncpu = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    let peak = peak_gemm_gflops() * ncpu as f64; // crude machine peak
    println!(
        "N = {}, cores = {}, est. machine peak ≈ {:.1} Gflop/s\n",
        n, ncpu, peak
    );

    // Accuracy sampling against direct on a subset.
    let n_ref = 3000.min(n);
    let reference = direct_potentials(&positions[..n_ref], &charges[..n_ref]);

    println!(
        "{:<26} {:>10} {:>12} {:>14} {:>10} {:>7}",
        "method", "time (s)", "Gflop/s", "cycles/part", "eff (%)", "digits"
    );

    for d in [5usize, 14] {
        let fmm = Fmm::new(FmmConfig::order(d)).unwrap();
        let (t, out) = time_s(|| fmm.evaluate(&positions, &charges).unwrap());
        let flops = out.profile.total_flops() as f64;
        let acc = fmm
            .evaluate(&positions[..n_ref], &charges[..n_ref])
            .unwrap();
        let (_, digits) = rms_digits(&acc.potentials, &reference);
        println!(
            "{:<26} {:>10.3} {:>12.2} {:>14.0} {:>10.1} {:>7.2}",
            format!("Anderson D={} (K={})", d, fmm.k()),
            t,
            flops / t / 1e9,
            t * ghz * 1e9 * ncpu as f64 / n as f64,
            100.0 * flops / t / 1e9 / peak,
            digits
        );
    }

    for theta in [0.6f64, 0.3] {
        let (t_build, bh) = time_s(|| BarnesHut::build(&positions, &charges, 32));
        let (t_run, (pot, stats)) = time_s(|| bh.potentials(theta, false));
        let t = t_build + t_run;
        // Flops: node interactions ≈ 60 flops (quadrupole), pairs ≈ 10.
        let flops = stats.node_interactions as f64 * 60.0 + stats.pair_interactions as f64 * 10.0;
        let _ = pot;
        // Accuracy measured on the same n_ref subsystem as the FMM rows.
        let bh_small = BarnesHut::build(&positions[..n_ref], &charges[..n_ref], 32);
        let (pot_small, _) = bh_small.potentials(theta, false);
        let (_, digits) = rms_digits(&pot_small, &reference);
        println!(
            "{:<26} {:>10.3} {:>12.2} {:>14.0} {:>10.1} {:>7.2}",
            format!("Barnes-Hut θ={}", theta),
            t,
            flops / t / 1e9,
            t * ghz * 1e9 * ncpu as f64 / n as f64,
            100.0 * flops / t / 1e9 / peak,
            digits
        );
    }

    println!(
        "\nPaper's rows (256-node CM-5E, 100M particles): Anderson D=5: 27%\n\
         efficiency, 37K cycles/particle; D=14: 35%, 183K. BH quadrupole\n\
         codes: 26–30%, 97–266K cycles/particle. The comparable shape: the\n\
         FMM's flop rate (BLAS-heavy) exceeds BH's (irregular traversal),\n\
         while BH does fewer flops at low accuracy."
    );
    crossover();
}

/// Best-of-three wall time of each method at small N, on its own uniform
/// system. Direct summation is O(N²); the Barnes–Hut time includes its tree
/// build; the FMM's translation matrices are built once, outside the timing.
fn crossover() {
    header("Crossover — direct vs Barnes–Hut vs Anderson at small N");
    println!(
        "{:>8} {:>12} {:>14} {:>16}",
        "N", "direct (s)", "BH θ=0.6 (s)", "Anderson D=5 (s)"
    );
    let fmm = Fmm::new(FmmConfig::order(5)).unwrap();
    for n in [2_000usize, 16_000] {
        let positions = uniform(n, 31);
        let charges = unit_charges(n);
        let (t_direct, _) = best_of(3, || fmm_direct::potentials(&positions, &charges));
        let (t_bh, _) = best_of(3, || {
            BarnesHut::build(&positions, &charges, 32).potentials(0.6, false)
        });
        let (t_fmm, _) = best_of(3, || fmm.evaluate(&positions, &charges).unwrap());
        println!("{:>8} {:>12.4} {:>14.4} {:>16.4}", n, t_direct, t_bh, t_fmm);
    }
}
