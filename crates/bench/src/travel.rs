//! The paper's near-field schedule (§3.4), kept as the reproduction of
//! experiments E9 and E13: the travelling accumulator.
//!
//! The CM-5 code resolves the symmetric near field's write conflicts by
//! circularly shifting the leaf particle arrays, with a per-particle
//! accumulator riding along, through the half of the two-separation
//! neighbourhood, so that every unordered box pair meets exactly once,
//! and then shifting the accumulators home. [`TravelPath`] is that
//! itinerary; [`travelling_sweep`] runs it on one binning with the
//! library's exchange panel, so `exp_nearfield` can time it against the
//! symmetric row sweep `fmm-core` runs (the same 62 box pairs swept by
//! rows, conflicts resolved by plane colours) and the target-centric
//! gather; [`paper_budget`] prices its CSHIFTs on the CM-5E budget, where
//! `fmm_machine` prices the particle halo this repository's SPMD program
//! sends instead.
//!
//! The path is a unit-step snake over the lexicographically-positive half
//! of the (2d+1)³ neighbourhood (x-major): first the +z column at
//! x = y = 0, then the y-rows of the x = 0 plane, then the full (y, z)
//! planes at x = 1..d, each swept boustrophedon. Every step moves the
//! travelling data by one box along one axis and visits exactly one new
//! offset; 62 steps cover the 62 half-offsets of two-separation. Three
//! per-axis shifts return the accumulators to their home boxes.

use fmm_core::near::{NearFieldStats, PAIR_FLOPS};
use fmm_core::particles::BinnedParticles;
use fmm_linalg::{pairwise, Kernel};
use fmm_machine::{communication_budget, subgrid_extent, Counters, ProgramBudget, ProgramConfig};
use fmm_tree::{BoxCoord, SEPARATION};
use rayon::prelude::*;

/// One unit step of the travelling sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TravelStep {
    /// Axis moved along (0 = x, 1 = y, 2 = z).
    pub axis: usize,
    /// Direction of the move (+1 or −1).
    pub dir: i32,
    /// Cumulative offset (source − target) *after* the step — the
    /// half-offset this step visits.
    pub cum: [i32; 3],
}

/// The full travelling-accumulator itinerary at the method's separation.
#[derive(Debug, Clone)]
pub struct TravelPath {
    /// Unit steps, one visited half-offset each.
    pub steps: Vec<TravelStep>,
    /// Signed per-axis return displacement (home − final position).
    pub returns: [i32; 3],
}

impl Default for TravelPath {
    fn default() -> Self {
        Self::new()
    }
}

impl TravelPath {
    /// Build the canonical path over the half of the two-separation
    /// neighbourhood.
    pub fn new() -> Self {
        let d = SEPARATION;
        let mut steps = Vec::new();
        let mut cum = [0i32; 3];
        let push = |steps: &mut Vec<TravelStep>, cum: &mut [i32; 3], axis: usize, dir: i32| {
            cum[axis] += dir;
            steps.push(TravelStep {
                axis,
                dir,
                cum: *cum,
            });
        };

        // +z column at x = y = 0: offsets (0, 0, 1..d).
        for _ in 0..d {
            push(&mut steps, &mut cum, 2, 1);
        }
        // y-rows of the x = 0 plane: (0, 1..d, −d..d), z boustrophedon.
        for _ in 0..d {
            push(&mut steps, &mut cum, 1, 1);
            let zdir = if cum[2] > 0 { -1 } else { 1 };
            for _ in 0..2 * d {
                push(&mut steps, &mut cum, 2, zdir);
            }
        }
        // Full (y, z) planes at x = 1..d, snaked row by row.
        for _ in 0..d {
            push(&mut steps, &mut cum, 0, 1);
            // The plane is always entered at a y-extreme (segment B ends at
            // y = d, later planes end at ±d), so one y-direction covers it.
            let ydir = if cum[1] > 0 { -1 } else { 1 };
            loop {
                let zdir = if cum[2] > 0 { -1 } else { 1 };
                for _ in 0..2 * d {
                    push(&mut steps, &mut cum, 2, zdir);
                }
                if cum[1] == d * ydir {
                    break;
                }
                push(&mut steps, &mut cum, 1, ydir);
            }
        }
        let returns = [-cum[0], -cum[1], -cum[2]];
        TravelPath { steps, returns }
    }

    /// Logical CSHIFT invocations: one per unit step plus one per
    /// non-trivial return shift.
    pub fn cshift_count(&self) -> u64 {
        self.steps.len() as u64 + self.returns.iter().filter(|&&r| r != 0).count() as u64
    }

    /// Total box displacements along `axis`, visits plus return — what
    /// the byte model multiplies by the boundary cross-section.
    pub fn total_travel_along(&self, axis: usize) -> u64 {
        let steps = self.steps.iter().filter(|s| s.axis == axis).count() as u64;
        steps + self.returns[axis].unsigned_abs() as u64
    }
}

/// The whole-program budget of the paper's program: `fmm_machine`'s, with
/// the near phase priced as the travelling accumulator. One unit CSHIFT
/// per visited half-offset plus one per non-trivial return axis; each
/// unit displacement along axis a moves every VU's boundary plane
/// (leaf boxes / `s[a]` globally) across a VU seam and the rest within VU
/// memory, each box carrying its particles' x, y, z, q and accumulator,
/// scaled to K-boxes. An axis one VU spans wraps onto itself: pure local
/// motion.
pub fn paper_budget(cfg: &ProgramConfig) -> ProgramBudget {
    let mut budget = communication_budget(cfg);
    let mut near = Counters::default();
    if let Some(s) = subgrid_extent(cfg.depth, &cfg.vu_grid) {
        let path = TravelPath::new();
        let leaf_boxes = 1u64 << (3 * cfg.depth);
        near.cshifts += path.cshift_count();
        let total: u64 = (0..3)
            .map(|a| path.total_travel_along(a) * leaf_boxes)
            .sum();
        let crossing: u64 = (0..3)
            .filter(|&a| cfg.vu_grid.dims[a] > 1)
            .map(|a| path.total_travel_along(a) * (leaf_boxes / s[a] as u64))
            .sum();
        let words_per_box = cfg.particles_per_box * 5.0;
        let k = cfg.k as f64;
        near.off_vu_boxes += (crossing as f64 * words_per_box / k) as u64;
        near.local_box_moves += ((total - crossing) as f64 * words_per_box / k) as u64;
    }
    budget.phases[5].comm = near;
    budget
}

/// `buf`, laid out as `bp`'s particles, cut into one slice per leaf box.
fn per_box<'a>(bp: &BinnedParticles, mut buf: &'a mut [f64]) -> Vec<&'a mut [f64]> {
    let boxes = 0..bp.binning.starts.len() - 1;
    boxes
        .map(|b| {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(bp.binning.count(b));
            buf = tail;
            head
        })
        .collect()
}

/// Near-field potentials by the travelling accumulator, added into `out`
/// (sorted particle order): a self pass, one pool region per step of the
/// [`TravelPath`] in which every box exchanges with the box `cum` away —
/// its own potentials gathering, that box's accumulators scattering, so
/// each element is written by one box — and the return add. Reports the
/// same third-law-halved counts as the row sweep.
pub fn travelling_sweep(
    kernel: Kernel,
    bp: &BinnedParticles,
    eps: f64,
    out: &mut [f64],
) -> NearFieldStats {
    assert_eq!(out.len(), bp.len());
    let (eps2, level) = (eps * eps, bp.level);
    let (x, y, z, q) = (&bp.x, &bp.y, &bp.z, &bp.q);
    let mut acc = vec![0.0; bp.len()];
    let mut outs = per_box(bp, out);
    let mut accs = per_box(bp, &mut acc);
    let self_box = |(b, o): (usize, &mut &mut [f64])| -> NearFieldStats {
        let r = bp.range(b);
        for a in 0..r.len() {
            let (t, after) = o[a..].split_first_mut().expect("out holds the box");
            let (i, s) = (r.start + a, r.start + a + 1..r.end);
            let src = (&x[s.clone()], &y[s.clone()], &z[s.clone()], &q[s]);
            *t += pairwise::exchange_with(
                kernel, x[i], y[i], z[i], q[i], eps2, src.0, src.1, src.2, src.3, after,
            );
        }
        let n = r.len() as u64;
        let pairs = n * n.saturating_sub(1) / 2;
        let boxes = u64::from(n > 0);
        NearFieldStats {
            pair_interactions: pairs,
            box_pairs: boxes,
            flops: pairs * PAIR_FLOPS,
        }
    };
    let add = |mut a: NearFieldStats, b: NearFieldStats| {
        a.merge(&b);
        a
    };
    // det: integer counters only; each task writes its own box.
    let mut total = outs
        .par_iter_mut()
        .enumerate()
        .map(self_box)
        .reduce(NearFieldStats::default, add);
    for step in &TravelPath::new().steps {
        let mut free: Vec<Option<&mut [f64]>> = accs.iter_mut().map(|a| Some(&mut **a)).collect();
        let mut visits: Vec<_> = (outs.iter_mut().enumerate())
            .filter_map(|(b, o)| {
                let s = BoxCoord::from_index(level, b).offset(step.cum)?.index();
                Some((b, s, &mut **o, free[s].take().expect("a bijection")))
            })
            .collect();
        let visit = |(b, s, o, a): &mut (usize, usize, &mut [f64], &mut [f64])| {
            let (t, r) = (bp.range(*b), bp.range(*s));
            if t.is_empty() || r.is_empty() {
                return NearFieldStats::default();
            }
            pairwise::exchange_panel_with(
                kernel,
                &x[t.clone()],
                &y[t.clone()],
                &z[t.clone()],
                &q[t.clone()],
                eps2,
                &x[r.clone()],
                &y[r.clone()],
                &z[r.clone()],
                &q[r.clone()],
                o,
                a,
            );
            let pairs = (t.len() * r.len()) as u64;
            NearFieldStats {
                pair_interactions: pairs,
                box_pairs: 1,
                flops: pairs * PAIR_FLOPS,
            }
        };
        // det: integer counters only; each visit writes its own box and
        // accumulator.
        let steps = visits.par_iter_mut().map(visit);
        total = add(total, steps.reduce(NearFieldStats::default, add));
    }
    // The return shifts: every accumulator, home again, joins its
    // particle's potential once.
    drop(accs);
    for (o, a) in outs.into_iter().flatten().zip(&acc) {
        *o += a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::{near_field_symmetric, Domain};
    use fmm_tree::near_field_offsets;
    use std::collections::HashSet;

    #[test]
    fn visits_every_half_offset_exactly_once() {
        let visited: Vec<[i32; 3]> = TravelPath::new().steps.iter().map(|s| s.cum).collect();
        let unique: HashSet<[i32; 3]> = visited.iter().copied().collect();
        assert_eq!(visited.len(), unique.len(), "revisited offset");
        let half: HashSet<[i32; 3]> = near_field_offsets()
            .into_iter()
            .filter(|&o| o > [0, 0, 0])
            .collect();
        assert_eq!(unique, half, "path ≠ near_field_offsets half");
    }

    #[test]
    fn steps_are_unit_and_consistent() {
        let path = TravelPath::new();
        let mut cum = [0i32; 3];
        for s in &path.steps {
            assert!(s.dir == 1 || s.dir == -1);
            cum[s.axis] += s.dir;
            assert_eq!(cum, s.cum);
        }
        for (c, r) in cum.iter().zip(&path.returns) {
            assert_eq!(c + r, 0, "return must reach home");
        }
        assert_eq!(path.steps.len(), 62);
        assert_eq!(path.cshift_count(), 65); // 62 visits + 3 returns
    }

    #[test]
    fn travelling_matches_sequential_symmetric() {
        let pts = crate::workloads::uniform(3000, 7);
        let q: Vec<f64> = (0..3000)
            .map(|i| ((i * 7) % 11) as f64 / 5.0 - 1.0)
            .collect();
        let bp = BinnedParticles::build(&pts, &q, Domain::unit(), 3);
        let (want, st_want) = near_field_symmetric(&bp);
        for kernel in Kernel::available() {
            let mut got = vec![0.0; bp.len()];
            let st = travelling_sweep(kernel, &bp, 0.0, &mut got);
            assert_eq!(st, st_want, "{kernel:?}");
            for (a, b) in want.iter().zip(&got) {
                assert!(
                    (a - b).abs() < 1e-12 * (1.0 + a.abs()),
                    "{kernel:?}: {a} vs {b}"
                );
            }
        }
    }
}
