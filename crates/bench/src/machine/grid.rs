//! A distributed 3-D array of K-vectors with a counting CSHIFT.
//!
//! CSHIFT is CM Fortran's circular shift: after `cshift(axis, o)` every
//! box holds the data that was `o` boxes away along `axis` (wrapping).
//! The primitive both moves real data and accounts for its motion under
//! the block layout: a shift by `o` along an axis with subgrid extent `S`
//! moves a fraction `min(|o|,S)/S` of all boxes across VU boundaries and
//! copies the rest within VU memory — exactly the accounting behind the
//! paper's Fig. 6 discussion.

use fmm_machine::{BlockLayout, Counters};

/// A distributed grid: one K-vector per box.
#[derive(Debug, Clone)]
pub struct DistGrid {
    pub layout: BlockLayout,
    pub k: usize,
    /// Global-row-major storage (x fastest), `total_boxes * k` values.
    data: Vec<f64>,
}

impl DistGrid {
    /// Zero grid.
    pub fn new(layout: BlockLayout, k: usize) -> Self {
        DistGrid {
            layout,
            k,
            data: vec![0.0; layout.total_boxes() * k],
        }
    }

    /// Build with `f(global_coord, component)`.
    pub fn from_fn(
        layout: BlockLayout,
        k: usize,
        mut f: impl FnMut([usize; 3], usize) -> f64,
    ) -> Self {
        let mut g = DistGrid::new(layout, k);
        for z in 0..layout.global[2] {
            for y in 0..layout.global[1] {
                for x in 0..layout.global[0] {
                    let base = layout.global_index([x, y, z]) * k;
                    for c in 0..k {
                        g.data[base + c] = f([x, y, z], c);
                    }
                }
            }
        }
        g
    }

    /// The K-vector of a box.
    #[inline]
    pub fn get(&self, g: [usize; 3]) -> &[f64] {
        let base = self.layout.global_index(g) * self.k;
        &self.data[base..base + self.k]
    }

    /// Mutable K-vector of a box.
    #[inline]
    pub fn get_mut(&mut self, g: [usize; 3]) -> &mut [f64] {
        let base = self.layout.global_index(g) * self.k;
        &mut self.data[base..base + self.k]
    }

    /// Circular shift: afterwards box `b` holds what was at `b + offset`
    /// along `axis` (CM Fortran CSHIFT semantics with a positive shift
    /// fetching from higher indices). Counts one CSHIFT invocation plus
    /// the per-box motion it causes.
    pub fn cshift(&mut self, axis: usize, offset: i64, counters: &mut Counters) {
        assert!(axis < 3);
        let n = self.layout.global[axis] as i64;
        let o = offset.rem_euclid(n) as usize;
        counters.cshifts += 1;
        if o == 0 {
            return;
        }
        let s = self.layout.subgrid[axis];
        let total = self.layout.total_boxes() as u64;
        // Boxes whose source lives on a different VU: with a circular
        // shift the effective distance is min(o, n−o), saturating at the
        // subgrid extent (beyond which every box crosses); a single VU
        // along the axis never communicates.
        let eff = o.min(n as usize - o).min(s);
        let crossing = if self.layout.vu.dims[axis] == 1 {
            0
        } else {
            (eff as u64 * total) / s as u64
        };
        counters.off_vu_boxes += crossing;
        counters.local_box_moves += total - crossing;

        // Perform the rotation along the axis.
        let dims = self.layout.global;
        let k = self.k;
        let mut out = vec![0.0; self.data.len()];
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    let mut src = [x, y, z];
                    src[axis] = (src[axis] + o) % dims[axis];
                    let d = self.layout.global_index([x, y, z]) * k;
                    let sidx = self.layout.global_index(src) * k;
                    out[d..d + k].copy_from_slice(&self.data[sidx..sidx + k]);
                }
            }
        }
        self.data = out;
    }

    /// Shift by a 3-D offset (a sequence of per-axis CSHIFTs, as the CM
    /// runtime implements multi-axis shifts).
    pub fn cshift3(&mut self, offset: [i64; 3], counters: &mut Counters) {
        for (axis, &off_a) in offset.iter().enumerate() {
            if off_a != 0 {
                self.cshift(axis, off_a, counters);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_machine::VuGrid;

    fn small() -> DistGrid {
        let layout = BlockLayout::new([8, 8, 8], VuGrid::new([2, 2, 2]));
        DistGrid::from_fn(layout, 2, |g, c| {
            (g[0] * 100 + g[1] * 10 + g[2]) as f64 + c as f64 * 0.5
        })
    }

    #[test]
    fn cshift_moves_data_circularly() {
        let mut g = small();
        let mut c = Counters::default();
        g.cshift(0, 3, &mut c);
        // Box (0,0,0) now holds what was at (3,0,0).
        assert_eq!(g.get([0, 0, 0])[0], 300.0);
        // Wrap: box (6,0,0) holds what was at (9 mod 8, 0, 0) = (1,0,0).
        assert_eq!(g.get([6, 0, 0])[0], 100.0);
    }

    #[test]
    fn cshift_negative_offset() {
        let mut g = small();
        let mut c = Counters::default();
        g.cshift(1, -2, &mut c);
        assert_eq!(g.get([0, 2, 0])[0], 0.0);
        assert_eq!(g.get([0, 0, 0])[0], 60.0); // from (0, 6, 0)
    }

    #[test]
    fn cshift_counts_crossings() {
        let mut g = small(); // subgrid 4 per axis, 512 boxes
        let mut c = Counters::default();
        g.cshift(0, 1, &mut c);
        assert_eq!(c.cshifts, 1);
        // 1/4 of boxes cross a VU boundary.
        assert_eq!(c.off_vu_boxes, 128);
        assert_eq!(c.local_box_moves, 384);
        // Shift by the full subgrid: everything crosses.
        let mut c2 = Counters::default();
        g.cshift(0, 4, &mut c2);
        assert_eq!(c2.off_vu_boxes, 512);
        assert_eq!(c2.local_box_moves, 0);
    }

    #[test]
    fn cshift3_is_sequential_shifts() {
        let mut a = small();
        let mut b = small();
        let mut ca = Counters::default();
        let mut cb = Counters::default();
        a.cshift3([1, 2, 0], &mut ca);
        b.cshift(0, 1, &mut cb);
        b.cshift(1, 2, &mut cb);
        assert_eq!(ca.cshifts, 2);
        for z in 0..8 {
            for y in 0..8 {
                for x in 0..8 {
                    assert_eq!(a.get([x, y, z]), b.get([x, y, z]));
                }
            }
        }
    }

    #[test]
    fn zero_shift_is_noop_with_one_invocation() {
        let mut g = small();
        let before = g.get([5, 5, 5]).to_vec();
        let mut c = Counters::default();
        g.cshift(2, 0, &mut c);
        assert_eq!(c.cshifts, 1);
        assert_eq!(c.off_vu_boxes, 0);
        assert_eq!(g.get([5, 5, 5]), &before[..]);
    }
}
