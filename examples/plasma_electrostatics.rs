//! Electrostatics of a two-species plasma slab: mixed-sign charges, the
//! plasma-physics workload of the paper's introduction.
//!
//! Demonstrates: mixed-sign accuracy behaviour, higher-order
//! configuration (D = 14) when more digits are needed, and Debye-like
//! screening visible in the potential statistics.
//!
//! Run: `cargo run --release --example plasma_electrostatics [n]`

use anderson_fmm::fmm_core::{relative_error_stats, Fmm, FmmConfig};
use anderson_fmm::fmm_direct;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    assert!(
        n.is_multiple_of(2),
        "need an even particle count (two species)"
    );
    let mut rng = SmallRng::seed_from_u64(2026);

    // Electrons uniform in the slab; ions slightly clumped — a crude
    // two-species configuration with net charge zero.
    let mut positions = Vec::with_capacity(n);
    let mut charges = Vec::with_capacity(n);
    for _ in 0..n / 2 {
        positions.push([rng.gen(), rng.gen(), rng.gen::<f64>() * 0.5 + 0.25]);
        charges.push(-1.0);
    }
    for _ in 0..n / 2 {
        let cx: f64 = rng.gen();
        positions.push([
            (cx + 0.05 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
            rng.gen(),
            rng.gen::<f64>() * 0.5 + 0.25,
        ]);
        charges.push(1.0);
    }

    let reference = fmm_direct::potentials(&positions, &charges);
    let scale = (reference.iter().map(|p| p * p).sum::<f64>() / n as f64).sqrt();
    println!(
        "two-species slab: N = {}, net charge = {:+.1}, rms potential = {:.3}",
        n,
        charges.iter().sum::<f64>(),
        scale
    );

    println!(
        "\n{:>3} {:>5} {:>12} {:>7} {:>10}",
        "D", "K", "rms_rel", "digits", "time (ms)"
    );
    for d in [5usize, 9, 14] {
        let fmm = Fmm::new(FmmConfig::order(d)).expect("config");
        let t0 = std::time::Instant::now();
        let out = fmm.evaluate(&positions, &charges).expect("fmm");
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        let stats = relative_error_stats(&out.potentials, &reference);
        println!(
            "{:>3} {:>5} {:>12.3e} {:>7.2} {:>10.1}",
            d,
            fmm.k(),
            stats.rms_rel,
            stats.digits(),
            dt
        );
    }

    // Field energy check: Σ qᵢ Φᵢ ≥ ... for a screened neutral system the
    // interaction energy is negative (opposite charges attract).
    let fmm = Fmm::new(FmmConfig::order(9)).expect("config");
    let out = fmm.evaluate(&positions, &charges).expect("fmm");
    let energy: f64 = 0.5
        * charges
            .iter()
            .zip(&out.potentials)
            .map(|(q, p)| q * p)
            .sum::<f64>();
    println!(
        "\ninteraction energy ½Σqφ = {:.4} (negative: screening/binding), \
         per pair {:.3e}",
        energy,
        energy / (n as f64 * (n as f64 - 1.0) / 2.0)
    );
}
