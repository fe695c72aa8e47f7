//! The canonical travelling-accumulator path for the symmetric near field.
//!
//! The paper resolves the near field's symmetric write conflicts with a
//! *travelling accumulator*: the leaf particle arrays (with a per-particle
//! accumulator riding along) are circularly shifted through the
//! d-separation neighbourhood so that every unordered box pair meets
//! exactly once, then returned home. The path below is the single source
//! of truth shared by the analytic model (`fmm_machine::program`), the
//! shared-memory emulation in `fmm-core`, and the message-passing
//! executor in `fmm-spmd` — all three count and accumulate in exactly this
//! order, which is what makes their results bitwise comparable.
//!
//! The path is a unit-step snake over the lexicographically-positive half
//! of the (2d+1)³ neighbourhood (the x-major order used by
//! `near_field_offsets`): first the +z column at x = y = 0, then the
//! y-rows of the x = 0 plane, then the full (y, z) planes at x = 1..d,
//! each swept boustrophedon. Every step moves the travelling data by one
//! box along one axis and visits exactly one new offset; 62 steps cover
//! the 62 half-offsets of two-separation. Three per-axis shifts return
//! the accumulators to their home boxes.

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

/// The full travelling-accumulator itinerary for separation `d`.
#[derive(Debug, Clone)]
pub struct TravelPath {
    /// Separation parameter d (2 for the paper's two-separation).
    pub d: i32,
    /// Unit steps, one visited half-offset each.
    pub steps: Vec<TravelStep>,
    /// Signed per-axis return displacement (home − final position).
    pub returns: [i32; 3],
}

impl TravelPath {
    /// Build the canonical path for separation `d ≥ 1`.
    pub fn new(d: i32) -> Self {
        assert!(d >= 1);
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
        TravelPath { d, steps, returns }
    }

    /// Unit steps taken along `axis` while visiting (excludes returns).
    pub fn unit_steps_along(&self, axis: usize) -> u64 {
        self.steps.iter().filter(|s| s.axis == axis).count() as u64
    }

    /// Absolute return displacement along `axis`.
    pub fn return_distance(&self, axis: usize) -> u64 {
        self.returns[axis].unsigned_abs() as u64
    }

    /// Total box-displacements along `axis`, visits plus return — the
    /// quantity the byte model multiplies by the boundary cross-section.
    pub fn total_travel_along(&self, axis: usize) -> u64 {
        self.unit_steps_along(axis) + self.return_distance(axis)
    }

    /// Logical CSHIFT invocations: one per unit step plus one per
    /// non-trivial return shift.
    pub fn cshift_count(&self) -> u64 {
        self.steps.len() as u64 + self.returns.iter().filter(|&&r| r != 0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{near_field_offsets, Separation};
    use std::collections::HashSet;

    fn half_offsets(d: i32) -> HashSet<[i32; 3]> {
        let mut set = HashSet::new();
        for x in -d..=d {
            for y in -d..=d {
                for z in -d..=d {
                    if [x, y, z] > [0, 0, 0] {
                        set.insert([x, y, z]);
                    }
                }
            }
        }
        set
    }

    #[test]
    fn visits_every_half_offset_exactly_once() {
        for d in 1..=3 {
            let path = TravelPath::new(d);
            let expect = half_offsets(d);
            let visited: Vec<[i32; 3]> = path.steps.iter().map(|s| s.cum).collect();
            let unique: HashSet<[i32; 3]> = visited.iter().copied().collect();
            assert_eq!(visited.len(), unique.len(), "d={}: revisited offset", d);
            assert_eq!(unique, expect, "d={}: wrong half set", d);
        }
        for sep in [Separation::One, Separation::Two] {
            let visited: HashSet<[i32; 3]> = TravelPath::new(sep.d())
                .steps
                .iter()
                .map(|s| s.cum)
                .collect();
            let half: HashSet<[i32; 3]> = near_field_offsets(sep)
                .into_iter()
                .filter(|&o| o > [0, 0, 0])
                .collect();
            assert_eq!(visited, half, "{:?}: path ≠ near_field_offsets half", sep);
        }
    }

    #[test]
    fn steps_are_unit_and_consistent() {
        let path = TravelPath::new(2);
        let mut cum = [0i32; 3];
        for s in &path.steps {
            assert!(s.dir == 1 || s.dir == -1);
            cum[s.axis] += s.dir;
            assert_eq!(cum, s.cum);
        }
        for (c, r) in cum.iter().zip(&path.returns) {
            assert_eq!(c + r, 0, "return must reach home");
        }
    }

    #[test]
    fn two_separation_counts_match_paper() {
        let path = TravelPath::new(2);
        assert_eq!(path.steps.len(), 62);
        assert_eq!(path.cshift_count(), 65); // 62 visits + 3 returns
        let per_axis: u64 = (0..3).map(|a| path.unit_steps_along(a)).sum();
        assert_eq!(per_axis, 62);
    }

    #[test]
    fn one_separation_counts() {
        let path = TravelPath::new(1);
        assert_eq!(path.steps.len(), 13); // half of 27 − 1
    }
}
