//! Reusable traversal plan.
//!
//! `Fmm::evaluate` used to recompute, on every call, a family of values
//! that depend only on the hierarchy depth and the separation parameter:
//! the per-octant interactive-field offset lists, the supernode
//! decompositions, the T2 matrix lookups, the slab decomposition of every
//! level, the child gather/scatter index lists that turn panels of
//! parents into panels of children, every level's parent list and its
//! count of live T2 rows. None of this depends on the particles.
//!
//! A [`TraversalPlan`] hoists all of it into a one-time build, cached on
//! the driver per depth (the separation and rule size K are fixed per
//! `Fmm`). Repeated evaluations — the common case in a time-stepping
//! N-body loop, and the regime the paper's timings in §4 assume once the
//! translation matrices are precomputed (§3.3.4, Figs. 8–9) — then pay
//! only for the GEMMs and the particle work, not for re-deriving the
//! traversal's index structure.

use crate::near::ColorSchedule;
use crate::translations::TranslationSet;
use fmm_linalg::Kernel;
use fmm_tree::{interactive_field_offsets, supernode_decomposition, BoxCoord, Separation};

/// Children of one level's parents along one octant: for parent `p` (in
/// row-major box order), `idx[p]` is the child's box index at the child
/// level and `coord[p]` its (x, y, z) coordinate. These drive the T1/T3
/// panel gathers and scatters and the T2 source-offset arithmetic without
/// any per-row index decoding.
#[derive(Debug, Clone)]
pub struct ChildMap {
    pub idx: Vec<u32>,
    pub coord: Vec<[i32; 3]>,
}

/// Parents per T2 panel, at least: one parent row (`2^l` parents) once a
/// row is that long. A panel of fewer parents than this pays the GEMM's
/// per-call overhead on too few rows; see DESIGN.md §5.5.
pub(crate) const PANEL_MIN_PARENTS: usize = 8;

/// How the downward sweep into the children of one parent level is cut:
/// a slab group of `planes` consecutive parent z-planes is one unit of
/// parallel work (its children are one contiguous range of the child
/// level), and it is walked in panels of `panel` consecutive parents per
/// octant; every T2 matrix of an octant meets one panel per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct T2Blocking {
    pub(crate) panel: usize,
    pub(crate) planes: usize,
}

/// Precomputed structure for one parent level.
#[derive(Debug, Clone)]
pub struct LevelPlan {
    /// The parent level this entry describes.
    pub parent_level: u32,
    /// Slab decomposition: ranges of parent box indices, one z-plane each,
    /// whose children occupy disjoint contiguous ranges of the child level.
    pub slabs: Vec<(usize, usize)>,
    /// Per octant (index 0..8): the parents' children along that octant.
    pub children: Vec<ChildMap>,
    /// Every parent of the level, in box order: the target rows of a
    /// full-level sweep are sub-slices of this list.
    pub parents: Vec<u32>,
    /// T2 rows with an in-domain source in the downward sweep into this
    /// level's children, summed over octants and offsets; index 0 for the
    /// plain offset lists, 1 for the supernode decomposition. A sweep of
    /// the whole child level multiplies exactly this many rows per
    /// instance.
    pub t2_rows: [u64; 2],
}

impl LevelPlan {
    /// The blocking of the downward sweep into this level's children at
    /// rule size `k`, for a sweep spread over `threads` pool threads (1
    /// for a sequential sweep). A function of `(k, level, threads)`:
    ///
    /// - A T2 matrix is `8k²` bytes, and a call streams it once for its
    ///   panel's rows. A panel should hold at least `⌈k/4⌉` parents
    ///   (rounded up to a power of two), so its source and accumulator
    ///   rows (`16k` bytes each) weigh at least half the matrix. At
    ///   `k = 12` that is 4, below [`PANEL_MIN_PARENTS`], and the panel is
    ///   one parent row (`max(2^l, 8)` parents, clipped to a plane) as it
    ///   always was; at `k = 120` it is 32.
    /// - Where a plane holds fewer parents than that, a slab group takes
    ///   as many planes as the panel needs, but never so many that fewer
    ///   groups than `threads` remain.
    pub(crate) fn t2_blocking(&self, k: usize, threads: usize) -> T2Blocking {
        let n = 1usize << self.parent_level;
        let plane = n * n;
        let want = k.div_ceil(4).next_power_of_two();
        let most = prev_power_of_two((n / threads.max(1)).max(1));
        let planes = want.div_ceil(plane).min(most);
        let panel = want.max(n).max(PANEL_MIN_PARENTS).min(planes * plane);
        T2Blocking { panel, planes }
    }

    /// T2 source rows a full-level downward sweep of one instance under
    /// GEMM aggregation gathers into panels, at rule size `k`: none where
    /// its panels are cut within parent rows (every live run is then read
    /// in place), else every live row. The panel rule makes that a
    /// function of `k` and the level alone, whatever the thread count.
    pub fn t2_gathered_rows(&self, k: usize, supernodes: bool) -> u64 {
        let in_rows = self.t2_blocking(k, 1).panel <= 1 << self.parent_level;
        if in_rows {
            0
        } else {
            self.t2_rows[supernodes as usize]
        }
    }

    /// The slabs merged into groups of `planes` consecutive z-planes
    /// (`planes` a power of two, at most the plane count): ranges of
    /// parent box indices of equal length.
    pub(crate) fn slab_groups(&self, planes: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.slabs
            .chunks(planes)
            .map(|g| (g[0].0, g[g.len() - 1].1))
    }
}

fn prev_power_of_two(x: usize) -> usize {
    1 << (usize::BITS - 1 - x.leading_zeros())
}

/// Precomputed interaction structure for one child octant.
#[derive(Debug, Clone)]
pub struct OctantPlan {
    /// Plain interactive-field offsets (source − target, child-box units).
    pub offsets: Vec<[i32; 3]>,
    /// Dense-cube index of each offset's T2 matrix in
    /// [`TranslationSet::t2t`], parallel to `offsets`.
    pub t2_idx: Vec<u32>,
    /// Supernode parent-source offsets (parent-box units, applied to the
    /// target's parent coordinate).
    pub sn_parent_offsets: Vec<[i32; 3]>,
    /// Keys into [`TranslationSet::t2t_super`], parallel to
    /// `sn_parent_offsets`.
    pub sn_parent_keys: Vec<[i32; 3]>,
    /// Leftover child-level offsets of the supernode decomposition.
    pub sn_child_offsets: Vec<[i32; 3]>,
    /// Dense-cube T2 indices parallel to `sn_child_offsets`.
    pub sn_child_idx: Vec<u32>,
    /// Total translations per box under supernodes (parents + children).
    pub sn_translation_count: usize,
}

/// Everything the upward/downward passes and the near-field sweep need
/// that depends only on `(depth, separation)`. Built once, reused across
/// evaluations; see the module docs.
#[derive(Debug, Clone)]
pub struct TraversalPlan {
    pub depth: u32,
    pub separation: Separation,
    /// Microkernel family this plan was resolved for. Every consumer of a
    /// cached plan — the shared-memory passes, the near-field sweeps, the
    /// SPMD workers — dispatches through this field, so one `Fmm` always
    /// runs one kernel, bitwise-reproducibly, regardless of backend.
    pub kernel: Kernel,
    /// Per child octant (0..8).
    pub octants: Vec<OctantPlan>,
    /// Parent levels 1..depth, indexed by `parent_level − 1`.
    pub levels: Vec<LevelPlan>,
    /// Colored block schedule for the symmetric near-field sweep at the
    /// leaf level.
    pub near_schedule: ColorSchedule,
}

impl TraversalPlan {
    /// Build the plan for a hierarchy of `depth` levels at `separation`,
    /// recording the host-detected kernel.
    pub fn build(depth: u32, separation: Separation) -> Self {
        Self::build_with(depth, separation, Kernel::detect())
    }

    /// [`TraversalPlan::build`] with an explicit kernel choice.
    pub fn build_with(depth: u32, separation: Separation, kernel: Kernel) -> Self {
        let octants: Vec<OctantPlan> = (0..8usize)
            .map(|oct| {
                let o = [
                    (oct & 1) as i32,
                    ((oct >> 1) & 1) as i32,
                    ((oct >> 2) & 1) as i32,
                ];
                let offsets = interactive_field_offsets(o, separation);
                let t2_idx = offsets
                    .iter()
                    .map(|&off| TranslationSet::t2_index_for(separation, off) as u32)
                    .collect();
                let sd = supernode_decomposition(o, separation);
                let sn_translation_count = sd.translation_count();
                let sn_parent_offsets = sd.parents.iter().map(|p| p.parent_offset).collect();
                let sn_parent_keys = sd.parents.iter().map(|p| p.center_offset_half).collect();
                let sn_child_idx = sd
                    .children
                    .iter()
                    .map(|&off| TranslationSet::t2_index_for(separation, off) as u32)
                    .collect();
                OctantPlan {
                    offsets,
                    t2_idx,
                    sn_parent_offsets,
                    sn_parent_keys,
                    sn_child_offsets: sd.children,
                    sn_child_idx,
                    sn_translation_count,
                }
            })
            .collect();

        let levels = (1..depth.max(1))
            .map(|lp| {
                let n = 1usize << (3 * lp);
                let children = (0..8usize)
                    .map(|oct| {
                        let mut idx = Vec::with_capacity(n);
                        let mut coord = Vec::with_capacity(n);
                        for pi in 0..n {
                            let c = BoxCoord::from_index(lp, pi).child(oct);
                            idx.push(c.index() as u32);
                            coord.push([c.x as i32, c.y as i32, c.z as i32]);
                        }
                        ChildMap { idx, coord }
                    })
                    .collect();
                LevelPlan {
                    parent_level: lp,
                    slabs: parent_slabs(lp),
                    children,
                    parents: (0..n as u32).collect(),
                    t2_rows: [t2_rows(lp, &octants, false), t2_rows(lp, &octants, true)],
                }
            })
            .collect();

        TraversalPlan {
            depth,
            separation,
            kernel,
            octants,
            levels,
            near_schedule: ColorSchedule::build(depth),
        }
    }

    /// The [`LevelPlan`] for a parent level (1 ≤ `parent_level` < depth).
    #[inline]
    pub fn level(&self, parent_level: u32) -> &LevelPlan {
        &self.levels[(parent_level - 1) as usize]
    }

    /// Approximate heap footprint in bytes (for diagnostics).
    pub fn memory_bytes(&self) -> usize {
        let per_oct: usize = self
            .octants
            .iter()
            .map(|o| {
                (o.offsets.len() + o.sn_parent_offsets.len() * 2 + o.sn_child_offsets.len()) * 12
                    + (o.t2_idx.len() + o.sn_child_idx.len()) * 4
            })
            .sum();
        let per_level: usize = self
            .levels
            .iter()
            .map(|l| {
                l.slabs.len() * 16
                    + l.parents.len() * 4
                    + l.children
                        .iter()
                        .map(|c| c.idx.len() * 4 + c.coord.len() * 12)
                        .sum::<usize>()
            })
            .sum();
        per_oct + per_level
    }
}

/// T2 rows with an in-domain source, over the child level of `l_parent`:
/// per (octant, offset), the product over the three axes of the targets
/// whose source coordinate lies on its level's axis. Along one axis the
/// children `t = 2p + o` (`n` parents) reach `t + off` under a same-level
/// offset, which lies on the `2n`-box axis for the `t ≡ o (mod 2)` in
/// `[−off, 2n − off)`; under a parent-level (supernode) offset the parent
/// `p` reaches `p + off`, on the axis for `n − |off|` parents.
fn t2_rows(l_parent: u32, octants: &[OctantPlan], supernodes: bool) -> u64 {
    // An octant's offset lists, each flagged if it is parent-level.
    fn lists(op: &OctantPlan, supernodes: bool) -> [(&[[i32; 3]], bool); 2] {
        if supernodes {
            [(&op.sn_parent_offsets, true), (&op.sn_child_offsets, false)]
        } else {
            [(&op.offsets, false), (&[], false)]
        }
    }
    let n = 1i64 << l_parent; // parents per axis
    let all = octants.iter().flat_map(|op| lists(op, supernodes));
    let reach = all.flat_map(|(offs, _)| offs);
    let reach = reach.flatten().map(|c| c.abs() as i64).max().unwrap_or(0);
    // Per-axis counts by offset component, `[off + reach]`: same-level
    // ones by the octant's bit on the axis, then the parent-level one.
    let same_level = |o: i64, off: i64| {
        let (lo, hi) = ((-off).max(0), (2 * n - off).min(2 * n));
        // ⌈(x − o)/2⌉ counts the t ≡ o below x.
        let below = |x: i64| (x - o + 1).div_euclid(2);
        (below(hi) - below(lo)).max(0)
    };
    let span = -reach..=reach;
    let table = [
        span.clone()
            .map(|off| same_level(0, off))
            .collect::<Vec<_>>(),
        span.clone().map(|off| same_level(1, off)).collect(),
        span.map(|off| (n - off.abs()).max(0)).collect(),
    ];
    let mut rows = 0;
    for (oct, op) in octants.iter().enumerate() {
        for (offsets, parent_level) in lists(op, supernodes) {
            let axis = |d: usize| if parent_level { 2 } else { (oct >> d) & 1 };
            let axes = [0, 1, 2].map(|d| &table[axis(d)]);
            let at = |d: usize, off: &[i32; 3]| axes[d][(off[d] as i64 + reach) as usize];
            rows += offsets
                .iter()
                .map(|off| at(0, off) * at(1, off) * at(2, off))
                .sum::<i64>();
        }
    }
    rows as u64
}

/// Slab decomposition of a parent level: ranges of parent box indices, one
/// z-plane each, whose children occupy disjoint contiguous ranges of the
/// child level.
fn parent_slabs(l_parent: u32) -> Vec<(usize, usize)> {
    let n = 1usize << l_parent; // parents per axis
    let plane = n * n;
    (0..n).map(|z| (z * plane, (z + 1) * plane)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_maps_match_box_arithmetic() {
        let plan = TraversalPlan::build(3, Separation::Two);
        for lp in 1..3u32 {
            let lvl = plan.level(lp);
            assert_eq!(lvl.parent_level, lp);
            let n = 1usize << (3 * lp);
            for oct in 0..8 {
                let cm = &lvl.children[oct];
                assert_eq!(cm.idx.len(), n);
                for pi in (0..n).step_by(5) {
                    let c = BoxCoord::from_index(lp, pi).child(oct);
                    assert_eq!(cm.idx[pi] as usize, c.index());
                    assert_eq!(cm.coord[pi], [c.x as i32, c.y as i32, c.z as i32]);
                }
            }
        }
    }

    #[test]
    fn slabs_tile_each_level() {
        let plan = TraversalPlan::build(4, Separation::One);
        for lp in 1..4u32 {
            let lvl = plan.level(lp);
            let mut next = 0usize;
            for &(a, b) in &lvl.slabs {
                assert_eq!(a, next);
                assert!(b > a);
                next = b;
            }
            assert_eq!(next, 1usize << (3 * lp));
        }
    }

    #[test]
    fn octant_plans_are_consistent_with_tree_queries() {
        for sep in [Separation::One, Separation::Two] {
            let plan = TraversalPlan::build(2, sep);
            for (oct, op) in plan.octants.iter().enumerate() {
                let o = [
                    (oct & 1) as i32,
                    ((oct >> 1) & 1) as i32,
                    ((oct >> 2) & 1) as i32,
                ];
                assert_eq!(op.offsets, interactive_field_offsets(o, sep));
                assert_eq!(op.offsets.len(), op.t2_idx.len());
                let sd = supernode_decomposition(o, sep);
                assert_eq!(op.sn_translation_count, sd.translation_count());
                assert_eq!(op.sn_child_offsets, sd.children);
                assert_eq!(op.sn_parent_offsets.len(), op.sn_parent_keys.len());
            }
        }
    }

    #[test]
    fn t2_rows_match_a_box_by_box_count() {
        for sep in [Separation::One, Separation::Two] {
            let plan = TraversalPlan::build(4, sep);
            for l in 2..=4u32 {
                let mut rows = [0u64; 2];
                for b in 0..1usize << (3 * l) {
                    let c = BoxCoord::from_index(l, b);
                    let t = [c.x, c.y, c.z].map(|x| x as i32);
                    let op = &plan.octants[c.octant()];
                    let on = |x: [i32; 3], off: &[i32; 3], level: u32| {
                        (0..3).all(|d| (0..1 << level).contains(&(x[d] + off[d])))
                    };
                    let live = |offs: &[[i32; 3]]| offs.iter().filter(|o| on(t, o, l)).count();
                    rows[0] += live(&op.offsets) as u64;
                    let parent = t.map(|x| x >> 1);
                    let up = op.sn_parent_offsets.iter();
                    rows[1] += (up.filter(|o| on(parent, o, l - 1)).count()
                        + live(&op.sn_child_offsets)) as u64;
                }
                assert_eq!(plan.level(l - 1).t2_rows, rows, "{sep:?} level {l}");
            }
        }
    }

    #[test]
    fn t2_blocking_follows_k() {
        let plan = TraversalPlan::build(5, Separation::Two);
        let at = |lp: u32, k, threads| {
            let b = plan.level(lp).t2_blocking(k, threads);
            (b.panel, b.planes)
        };
        // K = 12: one parent row of at least 8 parents, one plane per slab.
        for threads in [1, 2, 8] {
            assert_eq!(at(1, 12, threads), (4, 1));
            assert_eq!(at(2, 12, threads), (8, 1));
            assert_eq!(at(3, 12, threads), (8, 1));
            assert_eq!(at(4, 12, threads), (16, 1));
        }
        // K = 120: 32-parent panels, over plane pairs where a plane holds
        // 16, unless that would leave a thread without a slab group.
        assert_eq!(at(2, 120, 2), (32, 2));
        assert_eq!(at(2, 120, 1), (32, 2));
        assert_eq!(at(2, 120, 4), (16, 1));
        assert_eq!(at(3, 120, 2), (32, 1));
        assert_eq!(at(1, 120, 1), (8, 2));
        assert_eq!(at(1, 120, 2), (4, 1));
        // Whether panels fall within parent rows does not depend on the
        // thread count (the copy count of a sweep relies on it).
        for lp in 1..5 {
            let n = 1usize << lp;
            for k in [6, 12, 72, 120] {
                let in_rows = plan.level(lp).t2_gathered_rows(k, false) == 0;
                for threads in [1, 2, 3, 8, 64] {
                    let rows = plan.level(lp).t2_blocking(k, threads).panel <= n;
                    assert_eq!(rows, in_rows, "level {lp} K={k} threads={threads}");
                }
            }
            assert_eq!(plan.level(lp).t2_gathered_rows(12, false) == 0, lp >= 3);
        }
        for lp in 1..5 {
            let groups: Vec<_> = plan.level(lp).slab_groups(2).collect();
            let n = 1usize << lp;
            assert_eq!(groups.len(), n.div_ceil(2));
            assert_eq!(groups.last().unwrap().1, n * n * n);
        }
    }

    #[test]
    fn near_schedule_is_for_leaf_level() {
        let plan = TraversalPlan::build(3, Separation::Two);
        assert_eq!(plan.near_schedule.level, 3);
        assert!(plan.memory_bytes() > 0);
    }

    #[test]
    fn plan_records_kernel() {
        assert_eq!(
            TraversalPlan::build(2, Separation::Two).kernel,
            Kernel::detect()
        );
        let forced = TraversalPlan::build_with(2, Separation::Two, Kernel::Scalar);
        assert_eq!(forced.kernel, Kernel::Scalar);
    }
}
