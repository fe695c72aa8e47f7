//! The one-sided side of experiment E13: the target-centric near field.
//!
//! Every target gathers from its own box and all 124 two-separation
//! neighbours, one [`pairwise::gather_with`] per neighbour *row* — the
//! ≤ 2d + 1 boxes of one x-row, one run of the binning, its own row split
//! at the target. Each output is written by its own target alone, so the
//! boxes are pool tasks without write conflicts, at the full directed
//! pair count: twice the pairs of the symmetric row sweep `fmm-core`
//! runs, which `exp_nearfield` times it against.

use fmm_core::near::{NearFieldStats, PAIR_FLOPS};
use fmm_core::particles::BinnedParticles;
use fmm_linalg::{pairwise, Kernel};
use fmm_tree::{BoxCoord, SEPARATION};
use rayon::prelude::*;

/// Target-centric near-field potentials of `bp`, softened by `eps`, added
/// into `out` (sorted particle order). Counts directed pairs and the box
/// pairs (own box included) with particles at both ends.
pub fn target_centric_potentials(
    kernel: Kernel,
    bp: &BinnedParticles,
    eps: f64,
    out: &mut [f64],
) -> NearFieldStats {
    assert_eq!(out.len(), bp.len());
    let (level, d, side) = (bp.level, SEPARATION, 1i32 << bp.level);
    let starts = &bp.binning.starts;
    let run = |first: usize, last: usize| starts[first] as usize..starts[last + 1] as usize;
    let mut boxes = Vec::with_capacity(starts.len() - 1);
    let mut rest = out;
    for b in 0..starts.len() - 1 {
        let (head, tail) = rest.split_at_mut(bp.range(b).len());
        boxes.push((b, head));
        rest = tail;
    }
    let one_box = |(b, out): &mut (usize, &mut [f64])| -> NearFieldStats {
        let tr = bp.range(*b);
        let mut st = NearFieldStats::default();
        if tr.is_empty() {
            return st;
        }
        let t = BoxCoord::from_index(level, *b);
        let x0 = (t.x as i32 - d).max(0) as usize;
        let x1 = (t.x as i32 + d).min(side - 1) as usize;
        let mut rows = Vec::new();
        for dz in -d..=d {
            for dy in -d..=d {
                let (y, z) = (t.y as i32 + dy, t.z as i32 + dz);
                if (0..side).contains(&y) && (0..side).contains(&z) {
                    let row = (z as usize * side as usize + y as usize) * side as usize;
                    let live = (row + x0..=row + x1).filter(|&s| !bp.range(s).is_empty());
                    st.box_pairs += live.count() as u64;
                    rows.push(run(row + x0, row + x1));
                }
            }
        }
        let src = |r: std::ops::Range<usize>| [&bp.x, &bp.y, &bp.z, &bp.q].map(|a| &a[r.clone()]);
        for (i, ti) in tr.clone().enumerate() {
            let (x, y, z) = (bp.x[ti], bp.y[ti], bp.z[ti]);
            for r in &rows {
                // The own row is split at the target.
                let parts = if r.contains(&ti) {
                    [r.start..ti, ti + 1..r.end]
                } else {
                    [r.clone(), 0..0]
                };
                for p in parts.into_iter().filter(|p| !p.is_empty()) {
                    st.pair_interactions += p.len() as u64;
                    let [xs, ys, zs, qs] = src(p);
                    out[i] += pairwise::gather_with(kernel, x, y, z, eps * eps, xs, ys, zs, qs);
                }
            }
        }
        st.flops = st.pair_interactions * PAIR_FLOPS;
        st
    };
    let sum = |mut a: NearFieldStats, b: NearFieldStats| {
        a.merge(&b);
        a
    };
    // det: integer counters only; each box writes its own outputs.
    boxes
        .par_iter_mut()
        .map(one_box)
        .reduce(NearFieldStats::default, sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::near_field_symmetric;
    use fmm_tree::Domain;

    #[test]
    fn gather_matches_the_symmetric_sweep_at_twice_its_pairs() {
        let unit = |i: usize| (i as f64 * 0.618_033_988_75).fract();
        let pts: Vec<[f64; 3]> = (0..900)
            .map(|i| [unit(i), unit(5 * i + 1), 0.5 * unit(9 * i + 2)])
            .collect();
        let q: Vec<f64> = (0..900).map(|i| unit(13 * i) - 0.5).collect();
        let bp = BinnedParticles::build(&pts, &q, Domain::unit(), 3);
        let (want, st_sym) = near_field_symmetric(&bp);
        let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for kernel in Kernel::available() {
            let mut got = vec![0.0; bp.len()];
            let st = target_centric_potentials(kernel, &bp, 0.0, &mut got);
            assert_eq!(st.pair_interactions, 2 * st_sym.pair_interactions);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() <= 1e-12 * scale, "{kernel:?}: {a} vs {b}");
            }
        }
    }
}
