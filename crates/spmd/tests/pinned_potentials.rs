//! `evaluate` potentials on the scalar tier against recorded bits: the
//! potentials twin of `pinned_forces.rs`. The travelling near field and
//! the T2/T3 sweeps may be reorganised freely, but on the scalar tier
//! their arithmetic, and so these bits, may not move.

use fmm_core::{Executor, Fmm, FmmConfig, Kernel};

/// 4 096 uniform points of the unit cube (about 8 per leaf box at depth
/// 3, so source runs of every length mod 8 occur) with charges in
/// [−1, 1), from an LCG: the same bits on every host.
fn uniform(n: usize) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut state = 0x00dd_5eed_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts = (0..n).map(|_| [next(), next(), next()]).collect();
    let q = (0..n).map(|_| 2.0 * next() - 1.0).collect();
    (pts, q)
}

fn fnv1a(h: &mut u64, v: f64) {
    for b in v.to_bits().to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn evaluate_potentials_reproduce_the_recorded_bits_on_every_executor() {
    fmm_spmd::install();
    let (pts, q) = uniform(4096);
    for executor in [Executor::Serial, Executor::Rayon, Executor::spmd(2)] {
        // The scalar tier runs everywhere, so the recorded bits do too.
        let cfg = FmmConfig::order(5)
            .depth(3)
            .kernel(Kernel::Scalar)
            .executor(executor);
        let out = Fmm::new(cfg).unwrap().evaluate(&pts, &q).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        out.potentials.iter().for_each(|&v| fnv1a(&mut h, v));
        assert_eq!(
            h, 0x3d83_b9c0_157e_05a6,
            "{executor:?}: potentials moved bits"
        );
    }
}
