//! `evaluate` potentials on the scalar tier against recorded bits: the
//! potentials twin of `pinned_forces.rs`. The symmetric near field and
//! the T2/T3 sweeps may be reorganised freely, but on the scalar tier
//! their arithmetic, and so these bits, may not move.
//!
//! Recorded when the near field moved from the travelling accumulator to
//! the symmetric rows (same box pairs, another summation order): the
//! largest |Δ| against the travelling sweep's bits was 5.7e-13 of
//! max |Φ| = 267 (2.1e-15 relative) at depth 3, 5.7e-14 (2.1e-16) at
//! depth 5. Re-recorded once when the translation set began storing one
//! T2 matrix per mirror orbit and the downward sweep ran T2 mirror by
//! mirror (same products, another order of offsets per accumulator; old
//! hashes `0xf4f15a14410f3a4a`, `0xb073251d657472ad`): the largest |Δ|
//! was 1.7e-13 of max |Φ| (6.5e-16 relative) at depth 3 and 1.8e-13
//! (6.9e-16) at depth 5.

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
            h, 0x48c0_f2fb_0a1e_7283,
            "{executor:?}: potentials moved bits"
        );
    }
}

/// The same at order 5 and depth 5, where the configuration turns the
/// supernode decomposition on: 98 parent-level and 91 leftover
/// child-level translations a box, on every executor.
#[test]
#[cfg_attr(debug_assertions, ignore = "depth-5 scalar sweeps: release only")]
fn supernode_potentials_reproduce_the_recorded_bits_on_every_executor() {
    fmm_spmd::install();
    let (pts, q) = uniform(4096);
    for executor in [Executor::Serial, Executor::Rayon, Executor::spmd(2)] {
        let cfg = FmmConfig::order(5)
            .depth(5)
            .kernel(Kernel::Scalar)
            .executor(executor);
        assert!(cfg.supernodes);
        let out = Fmm::new(cfg).unwrap().evaluate(&pts, &q).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        out.potentials.iter().for_each(|&v| fnv1a(&mut h, v));
        assert_eq!(
            h, 0x1e32_d336_b494_374c,
            "{executor:?}: potentials moved bits"
        );
    }
}
