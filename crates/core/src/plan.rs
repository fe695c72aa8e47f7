//! Reusable traversal plan.
//!
//! `Fmm::evaluate` used to recompute, on every call, a family of values
//! that depend only on the hierarchy depth:
//! the per-octant interactive-field offset lists, the supernode
//! decompositions, the T2 matrix lookups and the order the downward sweep
//! applies them in, every level's parent list and its count of live T2
//! rows. None of this depends on the particles.
//!
//! A [`TraversalPlan`] hoists all of it into a one-time build, cached in
//! the driver's plan registry per depth and kernel. What depends on
//! neither — the octant plans, the shared T2 order and each level's live
//! T2 table — is built once per process and shared by every plan, so a
//! plan itself holds only its levels' parent lists. What arithmetic on a
//! box index gives, a parent's children and a level's parent planes, is
//! not stored at all: the paper addresses a box's children the same way
//! (§3.3). Repeated evaluations — the common case in a time-stepping
//! N-body loop, and the regime the paper's timings in §4 assume once the
//! translation matrices are precomputed (§3.3.4, Figs. 8–9) — then pay
//! only for the GEMMs and the particle work, not for re-deriving the
//! traversal's index structure.

use crate::near::ColorSchedule;
use crate::translations::{Served, TranslationSet};
use fmm_linalg::Kernel;
use fmm_tree::{interactive_field_offsets, supernode_decomposition, Separation};
use std::sync::OnceLock;

/// Parents per T2 panel, at least, where the panel follows the matrix
/// (K ≥ 17): one parent row once a row is that long.
const PANEL_MIN_PARENTS: usize = 8;

/// Parents a latency-bound (K ≤ 16) panel takes whole planes up to: a
/// level of at most this many parents is one panel on one thread.
const PANEL_LEVEL_PARENTS: usize = 64;

/// Elements the eight octants' accumulator panels of one slab hold at
/// most, `8 · panel · K · R` (256 KiB of `f64`).
const PANEL_ACC_ELEMS: usize = 1 << 15;

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
    /// Every parent of the level, in box order: the target rows of a
    /// full-level sweep are sub-slices of this list.
    pub parents: Vec<u32>,
}

impl LevelPlan {
    /// The box index at the child level of parent `pi`'s child along
    /// octant `oct` (bit `d` its offset along axis `d`): child `(2x + o_x,
    /// 2y + o_y, 2z + o_z)` of parent `(x, y, z)`, one more bit per axis.
    #[inline]
    pub(crate) fn child(&self, pi: u32, oct: usize) -> usize {
        let (b, pi) = (self.parent_level, pi as usize);
        let mask = (1 << b) - 1;
        let axis = |d: u32| ((pi >> (d * b) & mask) << 1 | (oct >> d & 1)) << (d * (b + 1));
        axis(0) | axis(1) | axis(2)
    }

    /// T2 rows with an in-domain source in the downward sweep into this
    /// level's children under a supernode setting, summed over octants
    /// and offsets: a sweep of the whole child level multiplies exactly
    /// this many rows per instance.
    pub fn t2_rows(&self, supernodes: bool) -> u64 {
        self.t2_live(supernodes).rows
    }

    /// The blocking of the downward sweep into this level's children at
    /// rule size `k` for `r` instances, for a sweep spread over `threads`
    /// pool threads (1 for a sequential sweep). A function of `(k, r,
    /// level, threads)`:
    ///
    /// - A T2 matrix is `8k²` bytes, and a call streams it once for its
    ///   panel's rows. A panel should hold at least `⌈k/4⌉` parents
    ///   (rounded up to a power of two), so its source and accumulator
    ///   rows (`16k` bytes each) weigh at least half the matrix. From
    ///   [`PANEL_MIN_PARENTS`] on (`k = 120`: 32) that is the panel, at
    ///   least one parent row, and a slab group takes as many planes as
    ///   it needs.
    /// - Below that (`k = 12`) a call costs its FMA latency chain and
    ///   listing its rows costs a pass over the schedule per panel, so a
    ///   panel is whole parent planes: the whole level where it holds at
    ///   most [`PANEL_LEVEL_PARENTS`], one plane deeper, cut to a power of
    ///   two so that the slab's accumulators stay within
    ///   [`PANEL_ACC_ELEMS`].
    /// - Either way a slab group never spans so many planes that fewer
    ///   groups than `threads` remain.
    pub(crate) fn t2_blocking(&self, k: usize, r: usize, threads: usize) -> T2Blocking {
        let n = 1usize << self.parent_level;
        let plane = n * n;
        let most = prev_power_of_two((n / threads.max(1)).max(1));
        let want = k.div_ceil(4).next_power_of_two();
        if want >= PANEL_MIN_PARENTS {
            let planes = want.div_ceil(plane).min(most);
            let panel = want.max(n).min(planes * plane);
            return T2Blocking { panel, planes };
        }
        let planes = (PANEL_LEVEL_PARENTS / plane).clamp(1, most);
        let fits = prev_power_of_two((PANEL_ACC_ELEMS / (8 * k * r.max(1))).max(1));
        T2Blocking {
            panel: (planes * plane).min(fits),
            planes,
        }
    }

    /// The level's T2 schedule under a supernode setting in the form the
    /// downward sweep lists rows from ([`LiveSchedule`]), built by the
    /// first sweep or row count that needs it and shared by every plan.
    pub(crate) fn t2_live(&self, supernodes: bool) -> &'static LiveSchedule {
        let cells = LIVE_SCHEDULES.get(self.parent_level as usize - 1);
        let cell = &cells.expect("a hierarchy is at most 10 levels deep")[supernodes as usize];
        cell.get_or_init(|| {
            LiveSchedule::new(&t2_schedules()[supernodes as usize], self.parent_level)
        })
    }

    /// Parents in one z-plane of the level.
    pub(crate) fn plane(&self) -> usize {
        1 << (2 * self.parent_level)
    }

    /// The level's z-planes in groups of `planes` consecutive ones
    /// (`planes` a power of two, at most the plane count): ranges of
    /// parent box indices of equal length, whose children occupy disjoint
    /// contiguous ranges of the child level.
    pub(crate) fn slab_groups(&self, planes: usize) -> impl Iterator<Item = (usize, usize)> {
        let (n, plane) = (1 << self.parent_level, self.plane());
        (0..n)
            .step_by(planes)
            .map(move |z| (z * plane, (z + planes).min(n) * plane))
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
    /// Dense-cube indices in [`TranslationSet::t2t_super`] of their
    /// matrices, keyed by the doubled parent-centre offset, parallel to
    /// `sn_parent_offsets`.
    pub sn_parent_idx: Vec<u32>,
    /// Leftover child-level offsets of the supernode decomposition.
    pub sn_child_offsets: Vec<[i32; 3]>,
    /// Dense-cube T2 indices parallel to `sn_child_offsets`.
    pub sn_child_idx: Vec<u32>,
}

/// One T2 offset list of an octant: source offsets and the matrix index
/// of each.
pub(crate) type T2List<'a> = (&'a [[i32; 3]], &'a [u32]);

impl OctantPlan {
    /// The plan of child octant `oct` (bit `d` its offset along axis `d`).
    fn new(oct: usize) -> Self {
        let o = [
            (oct & 1) as i32,
            ((oct >> 1) & 1) as i32,
            ((oct >> 2) & 1) as i32,
        ];
        let offsets = interactive_field_offsets(o);
        let t2_idx = offsets
            .iter()
            .map(|&off| TranslationSet::t2_index_for(off) as u32)
            .collect();
        let sd = supernode_decomposition(o);
        let sn_parent_offsets = sd.parents.iter().map(|p| p.parent_offset).collect();
        let sn_parent_idx = sd
            .parents
            .iter()
            .map(|p| TranslationSet::super_index_for(p.center_offset_half) as u32)
            .collect();
        let sn_child_idx = sd
            .children
            .iter()
            .map(|&off| TranslationSet::t2_index_for(off) as u32)
            .collect();
        OctantPlan {
            offsets,
            t2_idx,
            sn_parent_offsets,
            sn_parent_idx,
            sn_child_offsets: sd.children,
            sn_child_idx,
        }
    }

    /// The octant's T2 lists under a supernode setting, indexed by how many
    /// levels above the target their sources sit: `[0]` the same-level
    /// sources (matrices in [`TranslationSet::t2t`]), `[1]` the
    /// parent-level supernode sources ([`TranslationSet::t2t_super`]),
    /// empty without supernodes. A box applies `[1]` first.
    pub(crate) fn t2_lists(&self, supernodes: bool) -> [T2List<'_>; 2] {
        if supernodes {
            [
                (&self.sn_child_offsets, &self.sn_child_idx),
                (&self.sn_parent_offsets, &self.sn_parent_idx),
            ]
        } else {
            [(&self.offsets, &self.t2_idx), (&[], &[])]
        }
    }
}

/// One T2 product of the downward schedule: octant `oct`'s accumulator
/// panel takes `+= sources · M`, the sources `shift` levels above the
/// targets at `offset` from each target's box there (source − target),
/// and `M` the matrix `matrix` of that level's family (the `[shift]` list
/// of [`OctantPlan::t2_lists`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct T2Step {
    /// Components lie in [−5, 5].
    pub(crate) offset: [i8; 3],
    pub(crate) oct: u8,
    pub(crate) shift: u8,
    pub(crate) matrix: u16,
    /// Along axis `d`, the target parents `p` whose source lies inside
    /// the domain are those with `reach[d][0] ≤ p ≤ n + reach[d][1]`, at
    /// a level of `n` parents per axis (see [`T2Step::live`]).
    reach: [[i8; 2]; 3],
}

impl T2Step {
    fn new(oct: usize, shift: u8, offset: [i32; 3], matrix: u32) -> Self {
        // Same level: the child t = 2p + o reaches t + a, inside the 2n
        // boxes of its axis for ⌈(−o − a)/2⌉ ≤ p ≤ n + ⌊(−1 − o − a)/2⌋.
        // Parent level: p reaches p + a, inside for −a ≤ p ≤ n − 1 − a.
        let reach = std::array::from_fn(|d| {
            let (o, a) = (((oct >> d) & 1) as i32, offset[d]);
            let bounds = if shift == 0 {
                [(1 - o - a).div_euclid(2), (-1 - o - a).div_euclid(2)]
            } else {
                [-a, -1 - a]
            };
            bounds.map(|b| b as i8)
        });
        T2Step {
            offset: offset.map(|c| c as i8),
            oct: oct as u8,
            shift,
            matrix: matrix as u16,
            reach,
        }
    }

    /// Per axis, the target parents whose source lies inside the domain,
    /// `[first, last]`, at a level of `n` parents per axis; `None` where
    /// some axis has none, so that no box of the level reaches a source.
    pub(crate) fn live(&self, n: usize) -> Option<[[usize; 2]; 3]> {
        let n = n as isize;
        let mut live = [[0; 2]; 3];
        for (axis, [lo, hi]) in live.iter_mut().zip(self.reach) {
            let (lo, hi) = (isize::from(lo).max(0), (n + isize::from(hi)).min(n - 1));
            if lo > hi {
                return None;
            }
            *axis = [lo as usize, hi as usize];
        }
        Some(live)
    }

    /// The step at parent level `b` as the sweep lists it; the step must
    /// reach the domain there.
    fn at_level(&self, b: u32) -> LiveStep {
        let up = u32::from(self.shift);
        // Bits per axis of the source level; a same-level source is
        // displaced by the octant from the target parent's first child.
        let sb = b + 1 - up;
        let shifted = |d: usize| {
            let o = if up == 0 {
                (self.oct as i32 >> d) & 1
            } else {
                0
            };
            (o + i32::from(self.offset[d])) * (1 << (d as u32 * sb))
        };
        // The live parents [max(r0, 0), min(n + r1, n − 1)] of each axis
        // are `max(r0, 0)` in from the low end, `max(−1 − r1, 0)` from the
        // high end.
        let margin = |[r0, r1]: [i8; 2]| {
            let (lo, hi) = (r0.max(0) as u8, (-1 - r1).max(0) as u8);
            assert!(lo < 16 && hi < 16, "a source lies within five boxes");
            lo | hi << 4
        };
        LiveStep {
            delta: shifted(0) + shifted(1) + shifted(2),
            margins: self.reach.map(margin),
            oct: self.oct,
        }
    }
}

/// One step of a level's live T2 schedule, as the downward sweep lists
/// its rows: the parents with a source inside the domain form one box,
/// and a parent's source lies at a fixed box-index offset from the
/// parent's own base box at the source level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LiveStep {
    /// Source box index minus the target parent's base box index at the
    /// source level: the parent itself (parent level), or its first
    /// child (same level).
    pub(crate) delta: i32,
    /// Per axis, the live parents `[lo, n − 1 − hi]` at `n` parents per
    /// axis, as `lo | hi << 4`.
    margins: [u8; 3],
    pub(crate) oct: u8,
}

impl LiveStep {
    /// Per axis, the live parents `[first, last]` at `n` parents per axis.
    #[inline]
    pub(crate) fn live(&self, n: usize) -> [[usize; 2]; 3] {
        self.margins
            .map(|m| [usize::from(m & 15), n - 1 - usize::from(m >> 4)])
    }
}

/// The steps of one `(shift, matrix)`, consecutive, their octants
/// ascending: one T2 call of the downward sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LiveVisit {
    /// The visit's steps: `first..first + len` of the schedule's.
    first: u16,
    len: u8,
    pub(crate) shift: u8,
    pub(crate) matrix: u16,
}

/// Slots of [`LiveSchedule`]'s visit index: the T2 cube's 11³, then the
/// supernode cube's 10³.
const KEY_SLOTS: usize = 11 * 11 * 11 + 10 * 10 * 10;

/// A level's T2 schedule under one supernode setting, in the form the
/// downward sweep lists rows from: the shared order
/// ([`TraversalPlan::t2_schedule`]) without the steps that reach no
/// source inside the domain from any box of the level (only the children
/// of level 1 lose any), each step at that level, the visits that cut the
/// steps into one per matrix, and per matrix key its visit. Eight bytes a
/// step, six a visit, two a key slot: 68 KB for the 7,000 plain steps of
/// level 2 and deeper.
#[derive(Debug)]
pub(crate) struct LiveSchedule {
    steps: Vec<LiveStep>,
    pub(crate) visits: Vec<LiveVisit>,
    /// Per key slot (`shift · 11³ + matrix`), the index of its visit in
    /// `visits`, `u16::MAX` where no box of the level reaches it.
    visit_of: Vec<u16>,
    /// T2 rows with an in-domain source over the child level: per step,
    /// the product over the three axes of its live parents.
    rows: u64,
}

impl LiveSchedule {
    fn new(shared: &[T2Step], b: u32) -> Self {
        let mut steps: Vec<LiveStep> = Vec::with_capacity(shared.len());
        let (mut visits, mut rows): (Vec<LiveVisit>, u64) = (Vec::new(), 0);
        for s in shared {
            let Some(live) = s.live(1 << b) else {
                continue;
            };
            rows += live
                .iter()
                .map(|[lo, hi]| (hi + 1 - lo) as u64)
                .product::<u64>();
            // The shared order is key-major: a visit runs on while the
            // matrix holds.
            match visits.last_mut() {
                Some(v) if (v.shift, v.matrix) == (s.shift, s.matrix) => v.len += 1,
                _ => visits.push(LiveVisit {
                    first: u16::try_from(steps.len()).expect("a schedule has under 65,536 steps"),
                    len: 1,
                    shift: s.shift,
                    matrix: s.matrix,
                }),
            }
            steps.push(s.at_level(b));
        }
        let mut visit_of = vec![u16::MAX; KEY_SLOTS];
        for (i, v) in visits.iter().enumerate() {
            visit_of[key_slot(v.shift, v.matrix)] = i as u16;
        }
        LiveSchedule {
            steps,
            visits,
            visit_of,
            rows,
        }
    }

    /// The steps of visit `v`.
    #[inline]
    pub(crate) fn steps_of(&self, v: &LiveVisit) -> &[LiveStep] {
        &self.steps[usize::from(v.first)..][..usize::from(v.len)]
    }

    /// The visit of matrix `matrix` of the `shift` family, if a box of the
    /// level reaches it.
    #[inline]
    pub(crate) fn visit(&self, shift: u8, matrix: u16) -> Option<&LiveVisit> {
        let i = self.visit_of[key_slot(shift, matrix)];
        self.visits.get(usize::from(i))
    }

    /// The level's visits in the order the downward sweep runs them under
    /// the set `ts`, each with the point order it is read through and how
    /// `ts` serves its matrix: the set's groups ([`TranslationSet::t2_groups`],
    /// the identity first), in each the keys the level reaches.
    pub(crate) fn in_groups<'a>(
        &'a self,
        ts: &'a TranslationSet,
    ) -> impl Iterator<Item = (&'a LiveVisit, Served)> + 'a {
        const OTHER_SETTING: &str = "translation set was built for the other supernode setting";
        let families = [&ts.t2t, &ts.t2t_super];
        let keys = ts.t2_groups.iter().flatten();
        keys.filter_map(move |&(shift, matrix)| {
            let visit = self.visit(shift, matrix)?;
            let served = families[usize::from(shift)].get(usize::from(matrix));
            Some((visit, served.copied().flatten().expect(OTHER_SETTING)))
        })
    }
}

/// The slot of a `(shift, matrix)` key in [`LiveSchedule`]'s visit index.
#[inline]
fn key_slot(shift: u8, matrix: u16) -> usize {
    usize::from(shift) * 11 * 11 * 11 + usize::from(matrix)
}

/// Per parent level 1..=9 (a hierarchy is at most 10 levels deep) and
/// supernode setting, the level's [`LiveSchedule`], built by the first
/// call that needs it.
static LIVE_SCHEDULES: [[OnceLock<LiveSchedule>; 2]; 9] =
    [const { [OnceLock::new(), OnceLock::new()] }; 9];

/// Everything the upward/downward passes and the near-field sweep need
/// that depends only on the depth. Built once, reused across evaluations;
/// see the module docs.
#[derive(Debug, Clone)]
pub struct TraversalPlan {
    pub depth: u32,
    /// Microkernel family this plan was resolved for. Every consumer of a
    /// cached plan — the shared-memory passes, the near-field sweeps, the
    /// SPMD workers — dispatches through this field, so one `Fmm` always
    /// runs one kernel, bitwise-reproducibly, regardless of backend.
    pub kernel: Kernel,
    /// Per child octant (0..8). They depend on neither the depth nor
    /// the kernel, so every plan shares the ones the first plan built.
    pub octants: &'static [OctantPlan; 8],
    /// Parent levels 1..depth, indexed by `parent_level − 1`.
    pub levels: Vec<LevelPlan>,
    /// Every octant's T2 steps of one panel, grouped by matrix, index 0
    /// without supernodes and 1 with them: see [`t2_order`]. It depends
    /// on neither the depth nor the kernel, so every plan shares the one
    /// the first plan built.
    pub(crate) t2_schedule: &'static [Vec<T2Step>; 2],
    /// The leaf level the near field runs at; its colours, the z mod 3
    /// planes, follow from it (kept for `benchmark/`, ROADMAP item 1).
    pub near_schedule: ColorSchedule,
}

impl TraversalPlan {
    /// Build the plan for a hierarchy of `depth` levels, recording the
    /// host-detected kernel.
    pub fn build(depth: u32) -> Self {
        Self::with_kernel(depth, Kernel::detect())
    }

    /// [`TraversalPlan::with_kernel`] with the one-value separation
    /// argument the repository benchmark still passes (`benchmark/` is
    /// frozen); it is ignored.
    pub fn build_with(depth: u32, _sep: Separation, kernel: Kernel) -> Self {
        Self::with_kernel(depth, kernel)
    }

    /// [`TraversalPlan::build`] with an explicit kernel choice.
    pub fn with_kernel(depth: u32, kernel: Kernel) -> Self {
        let levels = (1..depth.max(1))
            .map(|lp| LevelPlan {
                parent_level: lp,
                parents: (0..1u32 << (3 * lp)).collect(),
            })
            .collect();
        TraversalPlan {
            depth,
            kernel,
            t2_schedule: t2_schedules(),
            octants: octant_plans(),
            levels,
            near_schedule: ColorSchedule::build(depth),
        }
    }

    /// The [`LevelPlan`] for a parent level (1 ≤ `parent_level` < depth).
    #[inline]
    pub fn level(&self, parent_level: u32) -> &LevelPlan {
        &self.levels[(parent_level - 1) as usize]
    }

    /// Approximate heap footprint in bytes (for diagnostics): the shared
    /// octant plans and T2 order, which no depth changes, and four bytes
    /// per parent of every level.
    pub fn memory_bytes(&self) -> usize {
        let per_oct: usize = self
            .octants
            .iter()
            .map(|o| {
                (o.offsets.len() + o.sn_parent_offsets.len() + o.sn_child_offsets.len()) * 12
                    + (o.t2_idx.len() + o.sn_parent_idx.len() + o.sn_child_idx.len()) * 4
            })
            .sum();
        let schedule: usize = self.t2_schedule.iter().map(Vec::len).sum();
        let parents: usize = self.levels.iter().map(|l| l.parents.len()).sum();
        per_oct + schedule * std::mem::size_of::<T2Step>() + parents * 4
    }
}

/// The octant plans every plan shares (see [`octant_plans`]).
static OCTANTS: OnceLock<[OctantPlan; 8]> = OnceLock::new();

/// The eight octants' plans, built by the first call in the process.
fn octant_plans() -> &'static [OctantPlan; 8] {
    OCTANTS.get_or_init(|| std::array::from_fn(OctantPlan::new))
}

/// The T2 schedules every plan shares (see [`t2_order`]).
static T2_SCHEDULES: OnceLock<[Vec<T2Step>; 2]> = OnceLock::new();

/// The shared T2 schedules, built by the first call in the process.
fn t2_schedules() -> &'static [Vec<T2Step>; 2] {
    T2_SCHEDULES.get_or_init(|| t2_order(octant_plans()))
}

/// The downward sweep's T2 steps for one panel under both supernode
/// settings, key-major: every octant's parent-level steps (shift 1), then
/// the same-level ones (shift 0), each family by matrix index ascending,
/// and per matrix the octants that use it in ascending order. A matrix's
/// steps are one visit; the order in which the sweep takes the visits is
/// the translation set's ([`LiveSchedule::in_groups`]), since which
/// mirror serves a key depends on the rule.
fn t2_order(octants: &[OctantPlan]) -> [Vec<T2Step>; 2] {
    [false, true].map(|supernodes| {
        let mut steps: Vec<T2Step> = octants
            .iter()
            .enumerate()
            .flat_map(|(oct, op)| {
                let lists = op.t2_lists(supernodes).into_iter().enumerate();
                lists.flat_map(move |(shift, (offsets, idx))| {
                    let list = offsets.iter().zip(idx);
                    list.map(move |(&off, &m)| T2Step::new(oct, shift as u8, off, m))
                })
            })
            .collect();
        steps.sort_unstable_by_key(|s| (std::cmp::Reverse(s.shift), s.matrix, s.oct));
        steps
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_tree::BoxCoord;

    #[test]
    fn child_maps_match_box_arithmetic() {
        let plan = TraversalPlan::build(5);
        for lp in 1..5u32 {
            let lvl = plan.level(lp);
            assert_eq!(lvl.parent_level, lp);
            let n = 1u32 << (3 * lp);
            assert_eq!(lvl.parents, (0..n).collect::<Vec<_>>());
            for oct in 0..8 {
                for pi in 0..n {
                    let c = BoxCoord::from_index(lp, pi as usize).child(oct);
                    assert_eq!(lvl.child(pi, oct), c.index(), "level {lp} {pi} {oct}");
                }
            }
        }
    }

    #[test]
    fn memory_bytes_is_the_shared_tables_plus_the_parent_lists() {
        // Depth 1 has no parent level: the octant plans and the shared T2
        // order alone, which every depth shares.
        let shared = TraversalPlan::build(1).memory_bytes();
        assert_eq!(shared, 255_360);
        for depth in 2..=7u32 {
            let parents: usize = (1..depth).map(|l| 1 << (3 * l)).sum();
            let plan = TraversalPlan::build(depth);
            assert_eq!(plan.memory_bytes(), shared + 4 * parents, "depth {depth}");
        }
    }

    #[test]
    fn plans_share_one_octant_geometry() {
        let a = TraversalPlan::with_kernel(2, Kernel::Scalar);
        let b = TraversalPlan::with_kernel(4, Kernel::Avx2Fma);
        assert!(std::ptr::eq(a.octants, b.octants));
        assert!(std::ptr::eq(a.t2_schedule, b.t2_schedule));
    }

    #[test]
    fn slabs_tile_each_level() {
        let plan = TraversalPlan::build(4);
        for lp in 1..4u32 {
            let lvl = plan.level(lp);
            let mut next = 0usize;
            for (a, b) in lvl.slab_groups(1) {
                assert_eq!(a, next);
                assert_eq!(b - a, 1 << (2 * lp), "one z-plane");
                next = b;
            }
            assert_eq!(next, 1usize << (3 * lp));
        }
    }

    #[test]
    fn octant_plans_are_consistent_with_tree_queries() {
        let plan = TraversalPlan::build(2);
        for (oct, op) in plan.octants.iter().enumerate() {
            let o = [
                (oct & 1) as i32,
                ((oct >> 1) & 1) as i32,
                ((oct >> 2) & 1) as i32,
            ];
            assert_eq!(op.offsets, interactive_field_offsets(o));
            assert_eq!(op.offsets.len(), op.t2_idx.len());
            let sd = supernode_decomposition(o);
            let translations = op.sn_parent_offsets.len() + op.sn_child_offsets.len();
            assert_eq!(translations, sd.translation_count());
            assert_eq!(op.sn_child_offsets, sd.children);
            assert_eq!(op.sn_parent_offsets.len(), op.sn_parent_idx.len());
        }
    }

    #[test]
    fn t2_rows_match_a_box_by_box_count() {
        let plan = TraversalPlan::build(4);
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
            let lvl = plan.level(l - 1);
            assert_eq!([false, true].map(|sn| lvl.t2_rows(sn)), rows, "level {l}");
        }
    }

    #[test]
    fn t2_blocking_follows_k() {
        let plan = TraversalPlan::build(5);
        let at = |lp: u32, k, threads| {
            let b = plan.level(lp).t2_blocking(k, 1, threads);
            (b.panel, b.planes)
        };
        // K = 12: whole planes, the whole level up to 64 parents on one
        // thread, never fewer slab groups than threads.
        assert_eq!(
            [1, 2, 8].map(|threads| at(1, 12, threads)),
            [(8, 2), (4, 1), (4, 1)]
        );
        assert_eq!(
            [1, 2, 8].map(|threads| at(2, 12, threads)),
            [(64, 4), (32, 2), (16, 1)]
        );
        for threads in [1, 2, 8] {
            assert_eq!(at(3, 12, threads), (64, 1));
            assert_eq!(at(4, 12, threads), (256, 1));
        }
        // Three instances' accumulators fit 256 KiB in 64-parent panels.
        let b = plan.level(4).t2_blocking(12, 3, 1);
        assert_eq!((b.panel, b.planes), (64, 1));
        // K = 120: 32-parent panels, over plane pairs where a plane holds
        // 16, unless that would leave a thread without a slab group.
        assert_eq!(at(2, 120, 2), (32, 2));
        assert_eq!(at(2, 120, 1), (32, 2));
        assert_eq!(at(2, 120, 4), (16, 1));
        assert_eq!(at(3, 120, 2), (32, 1));
        assert_eq!(at(1, 120, 1), (8, 2));
        assert_eq!(at(1, 120, 2), (4, 1));
        for lp in 1..5 {
            let groups: Vec<_> = plan.level(lp).slab_groups(2).collect();
            let n = 1usize << lp;
            assert_eq!(groups.len(), n.div_ceil(2));
            assert_eq!(groups.last().unwrap().1, n * n * n);
        }
    }

    /// The steps of one (octant, list) of a schedule, as (offset, matrix).
    fn restricted(steps: &[T2Step], oct: usize, shift: u8) -> Vec<([i32; 3], u32)> {
        let mine = steps
            .iter()
            .filter(|s| (s.oct as usize, s.shift) == (oct, shift));
        mine.map(|s| (s.offset.map(i32::from), u32::from(s.matrix)))
            .collect()
    }

    #[test]
    fn t2_schedule_holds_every_octant_step_once_key_major() {
        let plan = TraversalPlan::build(3);
        for supernodes in [false, true] {
            let steps = &plan.t2_schedule[supernodes as usize];
            let mut total = 0;
            for (oct, op) in plan.octants.iter().enumerate() {
                for (shift, (offsets, idx)) in op.t2_lists(supernodes).into_iter().enumerate() {
                    // The list, by matrix: an offset has one matrix.
                    let mut want: Vec<_> =
                        offsets.iter().copied().zip(idx.iter().copied()).collect();
                    want.sort_unstable_by_key(|&(_, m)| m);
                    assert_eq!(restricted(steps, oct, shift as u8), want, "{oct} {shift}");
                    total += want.len();
                }
            }
            // Every (octant, list, index) once, and nothing else.
            assert_eq!(steps.len(), total, "supernodes = {supernodes}");
            // The parent-level lists first, then by matrix and octant.
            let key = |s: &T2Step| (std::cmp::Reverse(s.shift), s.matrix, s.oct);
            assert!(steps.windows(2).all(|w| key(&w[0]) < key(&w[1])));
        }
    }

    /// Visits a schedule cuts into: runs of one `(shift, matrix)`.
    fn visits(steps: impl IntoIterator<Item = (u8, u16)>) -> usize {
        let mut keys: Vec<_> = steps.into_iter().collect();
        keys.dedup();
        keys.len()
    }

    #[test]
    fn t2_schedule_visit_counts_are_pinned() {
        let plan = TraversalPlan::build(3);
        let count = |supernodes: bool, shift: u8| {
            let steps = plan.t2_schedule[supernodes as usize].iter();
            let family: Vec<_> = steps.filter(|s| s.shift == shift).collect();
            (
                family.len(),
                visits(family.iter().map(|s| (s.shift, s.matrix))),
            )
        };
        // Plain lists: 8 × 875 products over 1206 matrices, one visit per
        // matrix (3,032 when the visits followed the neighbour blocks).
        assert_eq!(count(false, 0), (7000, 1206));
        // Supernodes: the 784 parent-level sources are one matrix each; the
        // 728 leftover child-level steps use 218 matrices (386 visits by
        // block).
        assert_eq!(count(true, 1), (784, 784));
        assert_eq!(count(true, 0), (728, 218));
        // Every level's table cuts its steps into one visit per matrix.
        for supernodes in [false, true] {
            for l in 1..3 {
                let table = plan.level(l).t2_live(supernodes);
                let keys = table.visits.iter().map(|v| (v.shift, v.matrix));
                assert_eq!(visits(keys), table.visits.len());
            }
        }
    }

    /// The order the sweep runs a level's visits in under a set: each
    /// visit of the level once, each one `(representative, mirror)` of
    /// the set, mirror by mirror with the identity first, under both
    /// supernode settings and rules with seven mirrors (order 5) and three
    /// (order 6).
    #[test]
    fn t2_groups_run_each_visit_once_mirror_by_mirror() {
        use fmm_sphere::SphereRule;
        let plan = TraversalPlan::build(3);
        for order in [5, 6] {
            let rule = SphereRule::for_order(order);
            for supernodes in [false, true] {
                let ts = TranslationSet::build(&rule, 3, 1.6, 1.0, supernodes);
                let families = [&ts.t2t, &ts.t2t_super];
                for l in 1..3 {
                    let table = plan.level(l).t2_live(supernodes);
                    let run: Vec<_> = table.in_groups(&ts).collect();
                    let what = format!("order {order} supernodes={supernodes} level {}", l + 1);
                    let mut seen: Vec<_> = run.iter().map(|(v, _)| (v.shift, v.matrix)).collect();
                    seen.sort_unstable();
                    let mut all: Vec<_> =
                        table.visits.iter().map(|v| (v.shift, v.matrix)).collect();
                    all.sort_unstable();
                    assert_eq!(seen, all, "{what}");
                    for (v, served) in &run {
                        let want = families[usize::from(v.shift)][usize::from(v.matrix)];
                        assert_eq!(Some(*served), want, "{what}");
                    }
                    let mirrors: Vec<u8> = run.iter().map(|(_, s)| s.mirror).collect();
                    assert!(mirrors.windows(2).all(|w| w[0] <= w[1]), "{what}");
                    assert_eq!(mirrors.first(), Some(&0), "{what}");
                    let groups = visits(mirrors.iter().map(|&m| (m, 0)));
                    assert_eq!(groups, 1 + rule.mirrors().len(), "{what}");
                }
            }
        }
    }

    /// Whether any box of level `l` takes a live row from `s`, box by box.
    fn reaches_the_domain(s: &T2Step, l: u32) -> bool {
        (0..1usize << (3 * l)).any(|b| {
            let c = BoxCoord::from_index(l, b);
            let t = [c.x, c.y, c.z].map(|x| x as i32);
            let (sl, t) = if s.shift == 1 {
                (l - 1, t.map(|x| x >> 1))
            } else {
                (l, t)
            };
            let inside = |d: usize| (0..1 << sl).contains(&(t[d] + i32::from(s.offset[d])));
            c.octant() == s.oct as usize && (0..3).all(inside)
        })
    }

    #[test]
    fn level_schedules_drop_exactly_the_steps_no_box_reaches() {
        let plan = TraversalPlan::build(4);
        for supernodes in [false, true] {
            let shared = &plan.t2_schedule[supernodes as usize];
            for l in 2..=4u32 {
                let table = plan.level(l - 1).t2_live(supernodes);
                // The shared order, minus the steps no box reaches, each at
                // the level.
                let kept: Vec<LiveStep> = shared
                    .iter()
                    .filter(|s| reaches_the_domain(s, l))
                    .map(|s| s.at_level(l - 1))
                    .collect();
                assert_eq!(table.steps, kept, "level {l} supernodes = {supernodes}");
                let visits = table.visits.iter().map(|v| table.steps_of(v).len());
                assert_eq!(visits.sum::<usize>(), table.steps.len());
                let dropped = shared.len() - table.steps.len();
                assert_eq!(dropped > 0, l == 2, "only level 2 drops steps");
            }
            // Level 2: of 7,000 plain steps 728 stay; with supernodes every
            // parent-level step goes.
            let level2 = plan.level(1).t2_live(supernodes);
            let same_level = shared.iter().filter(|s| s.shift == 0).count();
            if supernodes {
                assert_eq!(
                    (shared.len(), same_level, level2.steps.len()),
                    (1512, 728, 728)
                );
            } else {
                assert_eq!((shared.len(), level2.steps.len()), (7000, 728));
            }
            assert!(level2.visits.iter().all(|v| v.shift == 0));
        }
    }

    #[test]
    fn near_schedule_is_for_leaf_level() {
        let plan = TraversalPlan::build(3);
        assert_eq!(plan.near_schedule.level, 3);
        assert!(plan.memory_bytes() > 0);
    }

    #[test]
    fn plan_records_kernel() {
        assert_eq!(TraversalPlan::build(2).kernel, Kernel::detect());
        let forced = TraversalPlan::with_kernel(2, Kernel::Scalar);
        assert_eq!(forced.kernel, Kernel::Scalar);
    }
}
