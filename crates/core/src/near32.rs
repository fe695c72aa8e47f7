//! Mixed-precision near field: f32 SIMD sweeps over an f32 mirror of the
//! binned particle arrays (8 lanes on AVX2, 16 on AVX-512, 4 on NEON).
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
//! SIMD call sums at most one source box's terms (potentials; m ≈ 10–40
//! particles) or one neighbour row's (forces; the 2d+1 boxes of one x-row,
//! ≈ 5 times that) in f32 lanes, and the partial is widened to f64 before
//! joining the target's running sum. Source-side (third-law)
//! contributions are widened per term. The worst-case f32 chain error is
//! therefore m·ε_f32: ≈ 40·6e-8 ≈ 2.4e-6 relative for a box, ≈ 1.2e-5 for
//! a row, whose terms rarely round the same way — inside the bounds on
//! the standard 40k-particle depth-4 configuration that `tests/mixed.rs`
//! holds against the f64 near field and `fmm-direct`. (A
//! whole-neighbourhood f32 accumulator would grow linearly with the
//! ~10³-term target sum.)
//!
//! Arithmetic is f32; accumulation across runs is f64, so repeated
//! `evaluate()` calls stay deterministic for a fixed kernel choice.

use crate::near::{target_sweep, Cells, Forces, NearFieldStats, SharedOut, PAIR_FLOPS};
use crate::particles::BinnedParticles;
use fmm_linalg::{pairwise, Kernel};
use fmm_tree::{near_field_offsets, BoxCoord, Separation};
use rayon::prelude::*;

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

/// Symmetric f32 potentials within one box, excluding self terms. f32
/// arithmetic; each per-term contribution is widened to f64 on the
/// scatter side, and the per-target f32 chain is bounded by the box size.
fn self_box_potential_f32(
    ps: &ParticlesF32,
    range: std::ops::Range<usize>,
    eps2: f32,
    out: &mut [f64],
) -> u64 {
    let n = range.len();
    let base = range.start;
    let mut pairs = 0u64;
    for a in 0..n {
        let ia = base + a;
        let (xa, ya, za, qa) = (ps.x[ia], ps.y[ia], ps.z[ia], ps.q[ia]);
        let mut acc = 0.0f32;
        for (b, ob) in out.iter_mut().enumerate().take(n).skip(a + 1) {
            let ib = base + b;
            let dx = xa - ps.x[ib];
            let dy = ya - ps.y[ib];
            let dz = za - ps.z[ib];
            let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            acc += ps.q[ib] * inv_r;
            *ob += (qa * inv_r) as f64;
            pairs += 1;
        }
        out[a] += acc as f64;
    }
    pairs
}

#[inline]
fn add_stats(a: NearFieldStats, b: NearFieldStats) -> NearFieldStats {
    NearFieldStats {
        pair_interactions: a.pair_interactions + b.pair_interactions,
        box_pairs: a.box_pairs + b.box_pairs,
        flops: 0,
    }
}

/// Mixed-precision near-field potentials: the colored symmetric sweep run
/// on the f32 mirror, with every box-pair partial widened to f64 before
/// accumulation into `out`. Reports the same third-law-halved counters as
/// the f64 symmetric sweeps.
pub fn near_field_potentials_f32(
    kernel: Kernel,
    bp: &BinnedParticles,
    sep: Separation,
    schedule: &crate::near::ColorSchedule,
    parallel: bool,
    eps: f64,
    out: &mut [f64],
) -> NearFieldStats {
    assert_eq!(out.len(), bp.len());
    assert_eq!(schedule.level, bp.level);
    let ps = ParticlesF32::build(bp);
    let eps2 = (eps * eps) as f32;
    let level = bp.level;
    let side = 1u32 << level;
    let half: Vec<[i32; 3]> = near_field_offsets(sep)
        .into_iter()
        .filter(|o| *o > [0, 0, 0])
        .collect();

    let shared = SharedOut::new(out);
    let shared = &shared;
    let ps_ref = &ps;

    let process_block = |origin: &[u32; 3]| -> NearFieldStats {
        let mut st = NearFieldStats::default();
        let [ox, oy, oz] = *origin;
        for z in oz..(oz + crate::near::COLOR_BLOCK).min(side) {
            for y in oy..(oy + crate::near::COLOR_BLOCK).min(side) {
                for x in ox..(ox + crate::near::COLOR_BLOCK).min(side) {
                    let t = BoxCoord { level, x, y, z };
                    let t_range = bp.range(t.index());
                    if t_range.is_empty() {
                        continue;
                    }
                    // SAFETY: within one color phase no other block's task
                    // writes any box this task touches (the schedule's
                    // disjointness argument is precision-independent).
                    let t_out = unsafe { shared.slice(t_range.clone()) };
                    st.pair_interactions +=
                        self_box_potential_f32(ps_ref, t_range.clone(), eps2, t_out);
                    st.box_pairs += 1;
                    for &d in &half {
                        let Some(s) = t.offset(d) else { continue };
                        let s_range = bp.range(s.index());
                        if s_range.is_empty() {
                            continue;
                        }
                        // SAFETY: as above.
                        let s_out = unsafe { shared.slice(s_range.clone()) };
                        let xs = &ps_ref.x[s_range.clone()];
                        let ys = &ps_ref.y[s_range.clone()];
                        let zs = &ps_ref.z[s_range.clone()];
                        let qs = &ps_ref.q[s_range.clone()];
                        pairwise::exchange_f32_panel_with(
                            kernel,
                            &ps_ref.x[t_range.clone()],
                            &ps_ref.y[t_range.clone()],
                            &ps_ref.z[t_range.clone()],
                            &ps_ref.q[t_range.clone()],
                            eps2,
                            xs,
                            ys,
                            zs,
                            qs,
                            t_out,
                            s_out,
                        );
                        st.pair_interactions += (t_range.len() * s_range.len()) as u64;
                        st.box_pairs += 1;
                    }
                }
            }
        }
        st
    };

    let mut total = NearFieldStats::default();
    for color in &schedule.colors {
        // det: integer-counter reduction; block writes are conflict-free
        // within a color.
        let st = if parallel {
            color
                .par_iter()
                .map(process_block)
                .reduce(NearFieldStats::default, add_stats)
        } else {
            color
                .iter()
                .map(process_block)
                .fold(NearFieldStats::default(), add_stats)
        };
        total = add_stats(total, st);
    }
    total.flops = total.pair_interactions * PAIR_FLOPS;
    total
}

/// Mixed-precision near-field potentials **and** fields: the f64 force
/// sweep (`target_sweep`, `target_box`) over the f32 mirror, two targets
/// per source sweep through the f32 force panel; each run's partial (the
/// own row before and after the target, then each other neighbour row) is
/// widened to f64 before joining the target's accumulator.
pub fn near_field_forces_f32(
    kernel: Kernel,
    bp: &BinnedParticles,
    sep: Separation,
    parallel: bool,
    eps: f64,
    pot: &mut [f64],
    field: &mut [[f64; 3]],
) -> NearFieldStats {
    let ps = ParticlesF32::build(bp);
    let cells = Cells::new(&ps.x, &ps.y, &ps.z, &ps.q, |b| bp.range(b));
    let sum = Forces {
        kernel,
        eps2: (eps * eps) as f32,
    };
    target_sweep(bp, &cells, sep, parallel, &sum, pot, Some(field))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::near::{near_field_forces_softened, near_field_symmetric, ColorSchedule};
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
        let (f64_out, st64) = near_field_symmetric(&bp, Separation::Two);
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
