//! Mixed-precision near field: the symmetric row sweep, potentials or
//! forces, over an f32 mirror of the binned particle arrays (8 lanes on
//! AVX2, 16 on AVX-512, 4 on NEON).
//!
//! The near field is direct summation — arithmetic-bound, embarrassingly
//! data-parallel, and *locally well-conditioned*: every target sums at
//! most a few thousand terms q/r with r bounded below by particle spacing
//! and above by (d+1) box sides, so no catastrophic cancellation is
//! amplified by the precision drop. That makes it the natural place to
//! trade precision for lane throughput (the far-field traversal stays in
//! f64 — its conditioning is what buys the method's tunable accuracy).
//! Kawai et al.'s low-accuracy GRAPE variants and Makino's
//! pseudo-particle formulation (PAPERS.md) establish the precedent.
//!
//! Accuracy (derived in DESIGN.md §5.5): per interaction the f32 kernel
//! carries ~1e-7 relative error (representation + refined rsqrt).
//! Crucially, f32 accumulation chains are bounded by *one run*: each
//! SIMD call sums at most one neighbour row's terms — the ≤ 2d+1 boxes of
//! one x-row, m ≈ 40 particles at 8 a leaf, for potentials (a row of the
//! half stencil, or the rest of the target's own box in the self pass)
//! and forces alike — in f32 lanes, and the partial is widened to f64
//! before joining the target's running sum. Source-side (third-law)
//! contributions are widened per term (the AVX-512 panel first sums a
//! source's terms from its two targets in f32). The worst-case f32 chain
//! error is therefore m·ε_f32: ≈ 40·6e-8 ≈ 2.4e-6 relative for a row at
//! 8 particles a leaf, ≈ 1.2e-5 at 40, whose terms rarely round the same
//! way — inside the bounds on
//! the standard 40k-particle depth-4 configuration that `tests/mixed.rs`
//! holds against the f64 near field and `fmm-direct`. (A
//! whole-neighbourhood f32 accumulator would grow linearly with the
//! ~10³-term target sum.)
//!
//! Arithmetic is f32; accumulation across runs is f64, so repeated
//! `evaluate()` calls stay deterministic for a fixed kernel choice.

use crate::near::{forces_rows, near_field_into, ColorSchedule, NearFieldStats};
use crate::particles::BinnedParticles;
use crate::serially;
use fmm_linalg::Kernel;
use fmm_tree::Separation;

/// f32 mirror of the sorted SoA particle arrays.
pub struct ParticlesF32 {
    pub x: Vec<f32>,
    pub y: Vec<f32>,
    pub z: Vec<f32>,
    pub q: Vec<f32>,
}

impl ParticlesF32 {
    /// Demote the sorted coordinate/charge arrays of `bp`.
    pub fn build(bp: &BinnedParticles) -> Self {
        let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        ParticlesF32 {
            x: narrow(&bp.x),
            y: narrow(&bp.y),
            z: narrow(&bp.z),
            q: narrow(&bp.q),
        }
    }
}

/// Mixed-precision near-field potentials: the symmetric row sweep
/// ([`crate::near::near_field_rows`]'s body) on the f32 mirror, the self
/// pass included, every call's target partial widened to f64 before it
/// joins `out`. Reports the same third-law-halved counters as the f64
/// sweep. `parallel = false` runs it [`serially`]; the flag, the
/// one-value separation, which is ignored, and the schedule, which only
/// names the leaf level, are kept only because `benchmark/` imports it
/// (ROADMAP item 1).
pub fn near_field_potentials_f32(
    kernel: Kernel,
    bp: &BinnedParticles,
    _sep: Separation,
    schedule: &ColorSchedule,
    parallel: bool,
    eps: f64,
    out: &mut [f64],
) -> NearFieldStats {
    if !parallel {
        return serially(|| near_field_potentials_f32(kernel, bp, _sep, schedule, true, eps, out));
    }
    assert_eq!(schedule.level, bp.level);
    near_field_into(kernel, std::slice::from_ref(bp), true, eps, out, None)
}

/// Mixed-precision near-field potentials **and** fields: the symmetric
/// row sweep's force exchange on the f32 mirror, every call's target sums
/// and source terms widened to f64 before they join `pot` and `field`.
/// Reports the same third-law-halved counters as the f64 sweep.
/// `parallel = false` runs it [`serially`]; the flag and the one-value
/// separation, which is ignored, are kept only because `benchmark/`
/// imports it (ROADMAP item 1).
pub fn near_field_forces_f32(
    kernel: Kernel,
    bp: &BinnedParticles,
    _sep: Separation,
    parallel: bool,
    eps: f64,
    pot: &mut [f64],
    field: &mut [[f64; 3]],
) -> NearFieldStats {
    if !parallel {
        return serially(|| near_field_forces_f32(kernel, bp, _sep, true, eps, pot, field));
    }
    forces_rows(kernel, bp, true, eps, pot, field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::near::{near_field_forces_softened, near_field_symmetric};
    use fmm_tree::Domain;

    fn build(n: usize, level: u32, seed: u64) -> BinnedParticles {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<[f64; 3]> = (0..n).map(|_| [next(), next(), next()]).collect();
        let q: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
        BinnedParticles::build(&pts, &q, Domain::unit(), level)
    }

    // Accuracy assertions below use the repo's standard metric
    // (`relative_error_stats`: error normalized by the *system RMS* of the
    // reference, the paper's ε₁ convention). Mixed-sign charges are the
    // hard case for potentials (the target sums cancel while the per-term
    // f32 error doesn't); random uniform points are the hard case for max
    // error (an unsoftened close pair at distance r amplifies the f32
    // coordinate representation error ~ε₃₂·L by L/r — irreducible in any
    // f32 scheme). The RMS bounds are tight; the max bounds carry the
    // close-pair amplification. See the module docs and DESIGN.md §5.5.

    #[test]
    fn f32_potentials_track_f64_and_count_identically() {
        let bp = build(3000, 3, 53);
        let (f64_out, st64) = near_field_symmetric(&bp);
        let schedule = ColorSchedule::build(3);
        for kernel in Kernel::available() {
            for parallel in [false, true] {
                let mut out = vec![0.0; bp.len()];
                let st = near_field_potentials_f32(
                    kernel,
                    &bp,
                    Separation::Two,
                    &schedule,
                    parallel,
                    0.0,
                    &mut out,
                );
                assert_eq!(st.pair_interactions, st64.pair_interactions);
                assert_eq!(st.box_pairs, st64.box_pairs);
                let stats = crate::error::relative_error_stats(&out, &f64_out);
                // Measured: rms ≈ 6.3e-7, max ≈ 1.4e-5 for every kernel.
                assert!(
                    stats.rms_rel < 3e-6 && stats.max_rel < 5e-5,
                    "{:?} par={}: rms {:.2e} max {:.2e}",
                    kernel,
                    parallel,
                    stats.rms_rel,
                    stats.max_rel
                );
            }
        }
    }

    #[test]
    fn f32_forces_track_f64() {
        let bp = build(1500, 2, 59);
        let mut pot64 = vec![0.0; bp.len()];
        let mut field64 = vec![[0.0; 3]; bp.len()];
        let st64 =
            near_field_forces_softened(&bp, Separation::Two, false, 0.0, &mut pot64, &mut field64);
        for kernel in Kernel::available() {
            let mut pot = vec![0.0; bp.len()];
            let mut field = vec![[0.0; 3]; bp.len()];
            let st = near_field_forces_f32(
                kernel,
                &bp,
                Separation::Two,
                true,
                0.0,
                &mut pot,
                &mut field,
            );
            assert_eq!(st.pair_interactions, st64.pair_interactions);
            let stats = crate::error::relative_error_stats(&pot, &pot64);
            // Measured: rms ≈ 8.4e-7, max ≈ 2.1e-5 for every kernel.
            assert!(
                stats.rms_rel < 3e-6 && stats.max_rel < 8e-5,
                "{:?} pot: rms {:.2e} max {:.2e}",
                kernel,
                stats.rms_rel,
                stats.max_rel
            );
            // Fields amplify the close-pair coordinate error by another
            // 1/r. Measured: rms ≈ 7.0e-6, max ≈ 2.8e-4.
            let flat: Vec<f64> = field.iter().flatten().copied().collect();
            let flat64: Vec<f64> = field64.iter().flatten().copied().collect();
            let fstats = crate::error::relative_error_stats(&flat, &flat64);
            assert!(
                fstats.rms_rel < 3e-5 && fstats.max_rel < 1e-3,
                "{:?} field: rms {:.2e} max {:.2e}",
                kernel,
                fstats.rms_rel,
                fstats.max_rel
            );
        }
    }
}
