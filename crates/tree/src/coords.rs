//! Box coordinates and flattened hierarchy storage.
//!
//! The paper embeds the hierarchy of grids in two layers of a 4-D array
//! (Fig. 3); in shared memory we use the simpler flattened analogue: one
//! contiguous buffer per quantity with per-level offsets, boxes within a
//! level stored row-major (x fastest). All conversions here are pure index
//! arithmetic and are exercised heavily by property tests.

/// A balanced hierarchy of depth `depth`: levels `0..=depth`, level l has
/// `2^l` boxes per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hierarchy {
    pub depth: u32,
}

impl Hierarchy {
    pub fn new(depth: u32) -> Self {
        assert!(depth <= 10, "depth {} would overflow box indices", depth);
        Hierarchy { depth }
    }

    /// Boxes per axis at level `l`.
    #[inline]
    pub fn boxes_per_axis(&self, l: u32) -> u32 {
        1 << l
    }

    /// Total boxes at level `l` (8^l).
    #[inline]
    pub fn boxes_at_level(&self, l: u32) -> usize {
        1usize << (3 * l)
    }

    /// Number of leaf boxes (8^depth).
    #[inline]
    pub fn leaf_boxes(&self) -> usize {
        self.boxes_at_level(self.depth)
    }

    /// Offset of level `l` in a flattened all-levels buffer
    /// (levels stored in increasing order: Σ_{k<l} 8^k = (8^l − 1)/7).
    #[inline]
    pub fn level_offset(&self, l: u32) -> usize {
        ((1usize << (3 * l)) - 1) / 7
    }

    /// Total boxes across all levels 0..=depth.
    #[inline]
    pub fn total_boxes(&self) -> usize {
        self.level_offset(self.depth + 1)
    }

    /// Iterate all box coordinates at level `l` in storage order.
    pub fn boxes(&self, l: u32) -> impl Iterator<Item = BoxCoord> {
        let n = self.boxes_per_axis(l);
        (0..n).flat_map(move |z| {
            (0..n).flat_map(move |y| (0..n).map(move |x| BoxCoord { level: l, x, y, z }))
        })
    }
}

/// Coordinates of one box: level plus integer grid position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoxCoord {
    pub level: u32,
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl BoxCoord {
    /// The root box.
    pub const ROOT: BoxCoord = BoxCoord {
        level: 0,
        x: 0,
        y: 0,
        z: 0,
    };

    /// Row-major index within the level (x fastest).
    #[inline]
    pub fn index(&self) -> usize {
        let n = 1usize << self.level;
        ((self.z as usize * n) + self.y as usize) * n + self.x as usize
    }

    /// Inverse of [`BoxCoord::index`].
    #[inline]
    pub fn from_index(level: u32, idx: usize) -> Self {
        let n = 1usize << level;
        let x = (idx % n) as u32;
        let y = ((idx / n) % n) as u32;
        let z = (idx / (n * n)) as u32;
        BoxCoord { level, x, y, z }
    }

    /// Index in a flattened all-levels buffer.
    #[inline]
    pub fn flat_index(&self, h: &Hierarchy) -> usize {
        h.level_offset(self.level) + self.index()
    }

    /// The parent box; `None` at the root.
    #[inline]
    pub fn parent(&self) -> Option<BoxCoord> {
        if self.level == 0 {
            None
        } else {
            Some(BoxCoord {
                level: self.level - 1,
                x: self.x >> 1,
                y: self.y >> 1,
                z: self.z >> 1,
            })
        }
    }

    /// Which of its parent's eight children this box is: bit 0 = x parity,
    /// bit 1 = y parity, bit 2 = z parity.
    #[inline]
    pub fn octant(&self) -> usize {
        ((self.x & 1) | ((self.y & 1) << 1) | ((self.z & 1) << 2)) as usize
    }

    /// The eight children, ordered by octant index.
    pub fn children(&self) -> [BoxCoord; 8] {
        let mut out = [*self; 8];
        for (oct, c) in out.iter_mut().enumerate() {
            c.level = self.level + 1;
            c.x = (self.x << 1) | (oct as u32 & 1);
            c.y = (self.y << 1) | ((oct as u32 >> 1) & 1);
            c.z = (self.z << 1) | ((oct as u32 >> 2) & 1);
        }
        out
    }

    /// The child at a given octant.
    #[inline]
    pub fn child(&self, octant: usize) -> BoxCoord {
        debug_assert!(octant < 8);
        BoxCoord {
            level: self.level + 1,
            x: (self.x << 1) | (octant as u32 & 1),
            y: (self.y << 1) | ((octant as u32 >> 1) & 1),
            z: (self.z << 1) | ((octant as u32 >> 2) & 1),
        }
    }

    /// The box at integer offset `(dx, dy, dz)` on the same level, or
    /// `None` if that falls outside the domain.
    #[inline]
    pub fn offset(&self, d: [i32; 3]) -> Option<BoxCoord> {
        let n = 1i64 << self.level;
        let x = self.x as i64 + d[0] as i64;
        let y = self.y as i64 + d[1] as i64;
        let z = self.z as i64 + d[2] as i64;
        if x < 0 || y < 0 || z < 0 || x >= n || y >= n || z >= n {
            None
        } else {
            Some(BoxCoord {
                level: self.level,
                x: x as u32,
                y: y as u32,
                z: z as u32,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_offsets_are_prefix_sums() {
        let h = Hierarchy::new(5);
        let mut acc = 0;
        for l in 0..=5 {
            assert_eq!(h.level_offset(l), acc);
            acc += h.boxes_at_level(l);
        }
        assert_eq!(h.total_boxes(), acc);
    }

    #[test]
    fn index_round_trip() {
        for level in 0..5u32 {
            let n = 1usize << (3 * level);
            for idx in (0..n).step_by(7.max(n / 64)) {
                let c = BoxCoord::from_index(level, idx);
                assert_eq!(c.index(), idx);
                assert_eq!(c.level, level);
            }
        }
    }

    #[test]
    fn parent_child_round_trip() {
        let c = BoxCoord {
            level: 4,
            x: 11,
            y: 6,
            z: 13,
        };
        let p = c.parent().unwrap();
        assert_eq!(
            p,
            BoxCoord {
                level: 3,
                x: 5,
                y: 3,
                z: 6
            }
        );
        let back = p.child(c.octant());
        assert_eq!(back, c);
    }

    #[test]
    fn children_have_distinct_octants() {
        let p = BoxCoord {
            level: 2,
            x: 1,
            y: 3,
            z: 2,
        };
        let kids = p.children();
        for (oct, k) in kids.iter().enumerate() {
            assert_eq!(k.octant(), oct);
            assert_eq!(k.parent().unwrap(), p);
        }
    }

    #[test]
    fn root_has_no_parent() {
        assert_eq!(BoxCoord::ROOT.parent(), None);
    }

    #[test]
    fn offset_respects_bounds() {
        let c = BoxCoord {
            level: 2,
            x: 0,
            y: 3,
            z: 1,
        };
        assert_eq!(c.offset([-1, 0, 0]), None);
        assert_eq!(c.offset([0, 1, 0]), None); // y = 4 out of range at level 2
        assert_eq!(
            c.offset([1, -1, 0]),
            Some(BoxCoord {
                level: 2,
                x: 1,
                y: 2,
                z: 1
            })
        );
    }

    #[test]
    fn boxes_iterator_in_storage_order() {
        let h = Hierarchy::new(3);
        for (i, b) in h.boxes(2).enumerate() {
            assert_eq!(b.index(), i);
        }
        assert_eq!(h.boxes(2).count(), 64);
    }

    #[test]
    fn flat_index_distinct_across_levels() {
        let h = Hierarchy::new(3);
        let mut seen = std::collections::HashSet::new();
        for l in 0..=3 {
            for b in h.boxes(l) {
                assert!(seen.insert(b.flat_index(&h)), "duplicate flat index");
            }
        }
        assert_eq!(seen.len(), h.total_boxes());
    }
}
