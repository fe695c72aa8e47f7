//! Near-field and interactive-field offset lists, and supernodes.
//!
//! With *d-separation* (paper §2.1) the near field of a box is the
//! (2d+1)³−1 boxes within d steps in every axis; the *interactive field*
//! of a box at level l is the part of its parent's near field (refined to
//! level l) outside its own near field. In 3-D with two-separation that is
//! 10³ − 5³ = 875 boxes per box, and the union over the eight siblings is
//! 11³ − 5³ = 1206 distinct offsets (the paper allocates the full 11³ =
//! 1331 cube of translation matrices for easy indexing).
//!
//! The *supernode* optimization (§2.3): a parent-level box all of whose
//! eight children lie in the interactive field can be translated once from
//! its parent-level outer approximation, reducing the effective number of
//! translations per box from 875 to 189 (98 supernodes + 91 leftover
//! children) — "a dramatic improvement in the overall performance, at the
//! cost of slightly decreased accuracy".

/// The d of the method's d-separation (paper §2.1): two boxes on every
/// axis, the paper's assumption throughout. The supernode decomposition
/// (875 → 189 translations) and every sphere radius the configuration
/// calibrates are defined for it alone.
pub const SEPARATION: i32 = 2;

/// Boxes in the near field, excluding the box itself: (2d+1)³ − 1.
pub const NEAR_FIELD_SIZE: usize = 124;

/// Interactive-field boxes of an interior box: 7·(2d+1)³.
pub const INTERACTIVE_FIELD_SIZE: usize = 875;

/// The near-field separation as a value. The method has one, two-separation
/// ([`SEPARATION`]); the type stays as `FmmConfig::separation` and as the
/// ignored argument of the few entry points the repository benchmark
/// calls with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Separation {
    Two,
}

/// Offsets of the near field (excluding `[0,0,0]`): the 124 boxes within
/// [`SEPARATION`] steps on every axis.
pub fn near_field_offsets() -> Vec<[i32; 3]> {
    let d = SEPARATION;
    let mut out = Vec::with_capacity(NEAR_FIELD_SIZE);
    for dz in -d..=d {
        for dy in -d..=d {
            for dx in -d..=d {
                if dx != 0 || dy != 0 || dz != 0 {
                    out.push([dx, dy, dz]);
                }
            }
        }
    }
    out
}

/// One row of the half stencil: the offsets `[dx, dy, dz]` for `dx` in
/// `dx`, one run of a row-major binning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalfRow {
    pub dy: i32,
    pub dz: i32,
    pub dx: std::ops::RangeInclusive<i32>,
}

/// The half stencil H of the symmetric near field, in sweep order: the
/// own row's boxes x+1 … x+d, then the rows (dy, dz) with dz > 0, or
/// dz = 0 and dy > 0, in row-major order, each x−d … x+d. Every source
/// lies after its target in row-major order, and each unordered pair of
/// neighbouring boxes is one target and one H-source: 62 offsets in 13
/// rows at two-separation.
pub fn half_stencil() -> Vec<HalfRow> {
    let d = SEPARATION;
    let mut rows = vec![HalfRow {
        dy: 0,
        dz: 0,
        dx: 1..=d,
    }];
    for dz in 0..=d {
        for dy in -d..=d {
            if dz > 0 || dy > 0 {
                rows.push(HalfRow { dy, dz, dx: -d..=d });
            }
        }
    }
    rows
}

/// The 62 offsets of [`half_stencil`], row by row.
pub fn half_offsets() -> Vec<[i32; 3]> {
    let rows = half_stencil().into_iter();
    rows.flat_map(|r| r.dx.map(move |dx| [dx, r.dy, r.dz]))
        .collect()
}

/// The boxes around an owned box that a rank running the symmetric sweep
/// over part of the grid reads: the difference set (H ∪ 0) − (H ∪ 0) of
/// the [`half_offsets`], without 0, in row-major order. An owned box's
/// rows reach `+H`; a *ghost target* — a box owned elsewhere whose rows
/// reach an owned one — sits at `−H`, and its rows at `−H + H`. The set
/// spans ±2d in x and y and ±d in z.
pub fn half_stencil_reach() -> Vec<[i32; 3]> {
    let mut half = half_offsets();
    half.push([0; 3]);
    let mut reach: Vec<[i32; 3]> = half
        .iter()
        .flat_map(|a| half.iter().map(move |b| [0, 1, 2].map(|i| a[i] - b[i])))
        .filter(|&o| o != [0; 3])
        .collect();
    reach.sort_unstable_by_key(|o| [o[2], o[1], o[0]]);
    reach.dedup();
    reach
}

#[inline]
fn in_near(o: [i32; 3], d: i32) -> bool {
    o[0].abs() <= d && o[1].abs() <= d && o[2].abs() <= d
}

/// Offsets of the interactive field of a box whose octant within its
/// parent is `octant` (each component 0 or 1). The offsets are in units of
/// the box's own level.
///
/// Derivation: the parent's near field consists of parents at offsets
/// P ∈ [−d,d]³; their children sit at child-level offsets 2P + e − octant
/// for e ∈ {0,1}³; the box's own near field [−d,d]³ (and itself) are
/// excluded. That yields 875 offsets spanning [−(2d+1)+oct, 2d+(1−oct)]
/// per axis — the paper's [−5+i, 4+i] range.
pub fn interactive_field_offsets(octant: [i32; 3]) -> Vec<[i32; 3]> {
    let d = SEPARATION;
    let mut out = Vec::with_capacity(INTERACTIVE_FIELD_SIZE);
    for pz in -d..=d {
        for py in -d..=d {
            for px in -d..=d {
                for e in 0..8 {
                    let o = [
                        2 * px + (e & 1) - octant[0],
                        2 * py + ((e >> 1) & 1) - octant[1],
                        2 * pz + ((e >> 2) & 1) - octant[2],
                    ];
                    if !in_near(o, d) {
                        out.push(o);
                    }
                }
            }
        }
    }
    out
}

/// The union of interactive-field offsets over all eight octants:
/// [−(2d+1), 2d+1]³ minus the near field — 1206 offsets.
pub fn interactive_field_union() -> Vec<[i32; 3]> {
    let d = SEPARATION;
    let w = 2 * d + 1;
    let mut out = Vec::new();
    for dz in -w..=w {
        for dy in -w..=w {
            for dx in -w..=w {
                let o = [dx, dy, dz];
                if !in_near(o, d) {
                    out.push(o);
                }
            }
        }
    }
    out
}

/// A supernode source: a parent-level box acting as a single T2 source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SupernodeOffset {
    /// Offset of the source *parent* box relative to the target's parent,
    /// in parent-level units.
    pub parent_offset: [i32; 3],
    /// Offset of the source parent's *centre* relative to the target box's
    /// centre, in **half** target-box units (so it is integral: the true
    /// offset is `center_offset_half / 2` target-box sides per axis).
    pub center_offset_half: [i32; 3],
}

/// The supernode decomposition of one octant's interactive field.
#[derive(Debug, Clone)]
pub struct SupernodeDecomposition {
    /// Whole parents translated once from their parent-level outer
    /// approximation.
    pub parents: Vec<SupernodeOffset>,
    /// Leftover child-level offsets translated individually.
    pub children: Vec<[i32; 3]>,
}

impl SupernodeDecomposition {
    /// Effective number of T2 translations (the paper's N_int = 189).
    pub fn translation_count(&self) -> usize {
        self.parents.len() + self.children.len()
    }

    /// Child-level boxes covered (must equal the plain interactive field).
    pub fn covered_boxes(&self) -> usize {
        self.parents.len() * 8 + self.children.len()
    }
}

/// Compute the supernode decomposition for a box of the given octant.
///
/// A parent at offset P (parent-level units, relative to the target's
/// parent) is a supernode iff all eight of its children fall outside the
/// target's near field. Child-level offsets of P's children are
/// 2P + e − octant, and the parent centre sits at child-level offset
/// 2P − octant + ½ per axis (stored doubled to stay integral).
pub fn supernode_decomposition(octant: [i32; 3]) -> SupernodeDecomposition {
    let d = SEPARATION;
    let mut parents = Vec::new();
    let mut children = Vec::new();
    for pz in -d..=d {
        for py in -d..=d {
            for px in -d..=d {
                let child = |e: i32| {
                    [
                        2 * px + (e & 1) - octant[0],
                        2 * py + ((e >> 1) & 1) - octant[1],
                        2 * pz + ((e >> 2) & 1) - octant[2],
                    ]
                };
                if (0..8).all(|e| !in_near(child(e), d)) {
                    parents.push(SupernodeOffset {
                        parent_offset: [px, py, pz],
                        center_offset_half: [
                            4 * px - 2 * octant[0] + 1,
                            4 * py - 2 * octant[1] + 1,
                            4 * pz - 2 * octant[2] + 1,
                        ],
                    });
                } else {
                    children.extend((0..8).map(child).filter(|&o| !in_near(o, d)));
                }
            }
        }
    }
    SupernodeDecomposition { parents, children }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn near_field_sizes() {
        assert_eq!(near_field_offsets().len(), NEAR_FIELD_SIZE);
        assert_eq!(NEAR_FIELD_SIZE, 124);
    }

    #[test]
    fn half_stencil_takes_each_neighbour_pair_once_and_after_its_target() {
        // Row-major index of an offset on a grid wide enough for it.
        let idx = |o: [i32; 3]| (o[2] * 100 + o[1]) * 100 + o[0];
        let half = half_offsets();
        assert_eq!(half_stencil().len(), 13);
        assert_eq!(half.len(), NEAR_FIELD_SIZE / 2);
        assert!(
            half.iter().all(|&o| idx(o) > 0),
            "a source precedes its target"
        );
        assert!(
            half.windows(2).all(|w| idx(w[0]) < idx(w[1])),
            "row-major order"
        );
        let set: HashSet<[i32; 3]> = half.iter().copied().collect();
        for o in near_field_offsets() {
            let neg = o.map(|c| -c);
            assert!(set.contains(&o) != set.contains(&neg), "{o:?}");
        }
        let reach = half_stencil_reach();
        let span = |a: usize| reach.iter().map(|o| o[a].abs()).max();
        assert_eq!([0, 1, 2].map(span), [Some(4), Some(4), Some(2)]);
        assert!(near_field_offsets().iter().all(|o| reach.contains(o)));
    }

    #[test]
    fn interactive_field_size_is_875_for_two_separation() {
        for oct in 0..8 {
            let o = [oct & 1, (oct >> 1) & 1, (oct >> 2) & 1];
            let f = interactive_field_offsets(o);
            assert_eq!(f.len(), INTERACTIVE_FIELD_SIZE, "octant {:?}", o);
            // No duplicates.
            let set: HashSet<_> = f.iter().collect();
            assert_eq!(set.len(), 875);
        }
    }

    #[test]
    fn interactive_field_range_matches_paper() {
        // Paper: offsets span [−5+i, 4+i] per axis with i ∈ {0,1}
        // (sign convention: our octant o gives [−4−o, 5−o]... verify both
        // bounds concretely for two-separation).
        for oct in 0..8 {
            let o = [oct & 1, (oct >> 1) & 1, (oct >> 2) & 1];
            let f = interactive_field_offsets(o);
            for axis in 0..3 {
                let lo = f.iter().map(|v| v[axis]).min().unwrap();
                let hi = f.iter().map(|v| v[axis]).max().unwrap();
                assert_eq!(lo, -4 - o[axis]);
                assert_eq!(hi, 5 - o[axis]);
            }
        }
    }

    #[test]
    fn union_is_1206() {
        let u = interactive_field_union();
        assert_eq!(u.len(), 1331 - 125);
        // And it is exactly the union over octants.
        let mut seen = HashSet::new();
        for oct in 0..8 {
            let o = [oct & 1, (oct >> 1) & 1, (oct >> 2) & 1];
            seen.extend(interactive_field_offsets(o));
        }
        let u_set: HashSet<_> = u.into_iter().collect();
        assert_eq!(seen, u_set);
    }

    #[test]
    fn interactive_and_near_disjoint_and_cover_parent_neighbourhood() {
        let near: HashSet<[i32; 3]> = near_field_offsets().into_iter().collect();
        for oct in 0..8 {
            let o = [oct & 1, (oct >> 1) & 1, (oct >> 2) & 1];
            let inter: HashSet<[i32; 3]> = interactive_field_offsets(o).into_iter().collect();
            assert!(inter.is_disjoint(&near));
            assert!(!inter.contains(&[0, 0, 0]));
            // near ∪ interactive ∪ {self} covers all children of the
            // parent's near-field parents: 10³ = 1000 boxes.
            assert_eq!(inter.len() + near.len() + 1, 1000);
        }
    }

    #[test]
    fn supernode_decomposition_gives_189_translations() {
        // The paper's headline: supernodes reduce N_int from 875 to 189.
        for oct in 0..8 {
            let o = [oct & 1, (oct >> 1) & 1, (oct >> 2) & 1];
            let sd = supernode_decomposition(o);
            assert_eq!(sd.covered_boxes(), 875, "octant {:?}", o);
            assert_eq!(sd.translation_count(), 189, "octant {:?}", o);
            assert_eq!(sd.parents.len(), 98);
            assert_eq!(sd.children.len(), 91);
        }
    }

    #[test]
    fn supernode_children_are_in_interactive_field() {
        let o = [1, 0, 1];
        let sd = supernode_decomposition(o);
        let inter: HashSet<[i32; 3]> = interactive_field_offsets(o).into_iter().collect();
        for c in &sd.children {
            assert!(inter.contains(c));
        }
        // Parents' children are in the interactive field too, and the
        // parent centre offsets are consistent: centre = mean of children.
        for p in &sd.parents {
            let mut sum = [0i32; 3];
            for e in 0..8 {
                let c = [
                    2 * p.parent_offset[0] + (e & 1) - o[0],
                    2 * p.parent_offset[1] + ((e >> 1) & 1) - o[1],
                    2 * p.parent_offset[2] + ((e >> 2) & 1) - o[2],
                ];
                assert!(inter.contains(&c));
                for (sa, &ca) in sum.iter_mut().zip(&c) {
                    *sa += 2 * ca; // doubled child-centre offset
                }
            }
            for (sa, pa) in sum.iter().zip(&p.center_offset_half) {
                // The mean of the doubled child-centre offsets is the
                // doubled parent-centre offset: (32P + 8 − 16o)/8 = 4P −
                // 2o + 1.
                assert_eq!(*sa, 8 * pa);
            }
        }
    }

    #[test]
    fn supernode_parents_farther_than_one_parent_box() {
        // Supernode sources must be well separated: each has some axis
        // with |parent_offset| ≥ 2 for two-separation.
        let sd = supernode_decomposition([0, 0, 0]);
        for p in &sd.parents {
            assert!(
                p.parent_offset.iter().any(|v| v.abs() >= 2),
                "{:?} too close",
                p.parent_offset
            );
        }
    }

    #[test]
    fn supernode_sources_enter_the_domain_from_level_3() {
        // Why the upward pass stops at level 2: no supernode source of a
        // level-2 box is a box of level 1, so nothing reads `far[1]`.
        // From level 3 on some are in the domain.
        use crate::BoxCoord;
        let in_domain = |level: u32| {
            let mut n = 0;
            for b in 0..1usize << (3 * level) {
                let t = BoxCoord::from_index(level, b);
                let parent = t.parent().unwrap();
                let sd = supernode_decomposition([t.x, t.y, t.z].map(|c| (c & 1) as i32));
                n += sd
                    .parents
                    .iter()
                    .filter(|p| parent.offset(p.parent_offset).is_some())
                    .count();
            }
            n
        };
        assert_eq!(in_domain(2), 0);
        assert!(in_domain(3) > 0);
    }
}
