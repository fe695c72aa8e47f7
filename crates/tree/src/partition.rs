//! Cost-weighted partitioning of the Morton curve, and the exchange plans a
//! partition induces.
//!
//! The paper's uniform VU layout assigns every worker the same *number* of
//! boxes, which collapses on clustered inputs (PetFMM and Hu/Gumerov/
//! Duraiswami both weight boxes by modelled work instead). A [`Partition`]
//! splits the *leaf Morton curve* at `p+1` cut points chosen so that each
//! contiguous segment carries (nearly) the same modelled cost; a box at a
//! coarser level is owned by whoever owns its first descendant leaf, so
//! ownership stays Morton-contiguous at every level and parent/child
//! relations cross at most one cut.
//!
//! The exchange-plan builders ([`child_flush`], [`parent_fetch`],
//! [`box_halo`], [`particle_halo`]) derive, from the
//! partition alone, exactly which box/cell rows cross an ownership boundary
//! in each phase. They are deliberately the *single source of truth*: the
//! SPMD schedule, the executor, and the machine-model communication budget
//! all consume the same [`Exchange`] values, which is what makes the budget
//! byte-exact against executor counters by construction.

use std::collections::{BTreeMap, BTreeSet};

use crate::coords::BoxCoord;
use crate::interaction::{
    interactive_field_offsets, interactive_field_union, near_field_offsets,
    supernode_decomposition, SEPARATION,
};
use crate::morton::{morton_decode, morton_encode};

/// Convert a Morton code at `level` to the row-major storage index used by
/// the flattened per-level buffers (x fastest).
#[inline]
pub fn morton_to_rowmajor(level: u32, code: u64) -> usize {
    let (x, y, z) = morton_decode(code);
    let n = 1usize << level;
    (z as usize * n + y as usize) * n + x as usize
}

/// Inverse of [`morton_to_rowmajor`].
#[inline]
pub fn rowmajor_to_morton(level: u32, idx: usize) -> u64 {
    let n = 1usize << level;
    let x = (idx % n) as u32;
    let y = ((idx / n) % n) as u32;
    let z = (idx / (n * n)) as u32;
    morton_encode(x, y, z)
}

/// A contiguous split of the leaf-level Morton curve across `p` workers.
///
/// `splits` has `p + 1` entries with `splits[0] = 0`,
/// `splits[p] = 8^depth`, nondecreasing; worker `r` owns leaf Morton codes
/// in `[splits[r], splits[r+1])`. Empty parts are legal (their interval is
/// empty). A coarser box is owned by the owner of its first descendant
/// leaf, so per-level ownership is also a prefix partition of that level's
/// Morton curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    depth: u32,
    splits: Vec<u64>,
}

impl Partition {
    /// Equal-count split: worker `r` gets leaves `[r·L/p, (r+1)·L/p)`.
    pub fn uniform(depth: u32, p: usize) -> Partition {
        assert!(p >= 1, "need at least one worker");
        let leaves = 1u64 << (3 * depth);
        let splits = (0..=p as u64).map(|r| r * leaves / p as u64).collect();
        Partition { depth, splits }
    }

    /// Build from explicit cut points (used by tests and the verifier's
    /// synthetic layouts). Panics unless the cuts are a valid cover.
    pub fn from_splits(depth: u32, splits: Vec<u64>) -> Partition {
        let leaves = 1u64 << (3 * depth);
        assert!(splits.len() >= 2, "need at least one part");
        assert_eq!(splits[0], 0, "first cut must be 0");
        assert_eq!(*splits.last().unwrap(), leaves, "last cut must be 8^depth");
        assert!(
            splits.windows(2).all(|w| w[0] <= w[1]),
            "cuts must be nondecreasing"
        );
        Partition { depth, splits }
    }

    /// Optimal-bottleneck contiguous split: minimises the maximum per-part
    /// cost over all ways of cutting the Morton curve into `p` contiguous
    /// segments. `costs` is indexed by leaf Morton code. A zero total falls
    /// back to the uniform split.
    pub fn cost_weighted(depth: u32, p: usize, costs: &[u64]) -> Partition {
        let leaves = 1usize << (3 * depth);
        assert_eq!(costs.len(), leaves, "one cost per leaf box");
        assert!(p >= 1, "need at least one worker");
        let total: u64 = costs.iter().sum();
        if total == 0 || p == 1 {
            return Partition::uniform(depth, p);
        }
        // Binary-search the smallest feasible bottleneck B: greedy packing
        // uses the fewest parts for a given B, so feasibility is monotone.
        let max_item = *costs.iter().max().unwrap();
        let (mut lo, mut hi) = (max_item, total);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if parts_needed(costs, mid) <= p {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let bottleneck = lo;
        // Greedy fill at the optimal bottleneck; unused parts stay empty at
        // the end of the curve.
        let mut splits = Vec::with_capacity(p + 1);
        splits.push(0u64);
        let mut acc = 0u64;
        for (i, &w) in costs.iter().enumerate() {
            if acc + w > bottleneck && splits.len() <= p {
                splits.push(i as u64);
                acc = 0;
            }
            acc += w;
        }
        while splits.len() < p + 1 {
            splits.push(leaves as u64);
        }
        splits[p] = leaves as u64;
        Partition { depth, splits }
    }

    /// Leaf depth of the partitioned hierarchy.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of workers (parts).
    #[inline]
    pub fn workers(&self) -> usize {
        self.splits.len() - 1
    }

    /// Total leaf boxes, 8^depth.
    #[inline]
    pub fn leaf_count(&self) -> u64 {
        1u64 << (3 * self.depth)
    }

    /// The cut points (length `workers() + 1`).
    #[inline]
    pub fn splits(&self) -> &[u64] {
        &self.splits
    }

    /// Owner of a leaf box by Morton code: the unique `r` with
    /// `code ∈ [splits[r], splits[r+1])`.
    #[inline]
    pub fn leaf_owner(&self, code: u64) -> usize {
        debug_assert!(code < self.leaf_count());
        // Largest r with splits[r] <= code; duplicate cuts denote empty
        // parts whose (empty) interval cannot contain the code.
        self.splits.partition_point(|&s| s <= code) - 1
    }

    /// Owner of a box at `level` by its Morton code at that level: the
    /// owner of its first descendant leaf.
    #[inline]
    pub fn owner_at(&self, level: u32, code: u64) -> usize {
        debug_assert!(level <= self.depth);
        self.leaf_owner(code << (3 * (self.depth - level)))
    }

    /// Owner of a box given as grid coordinates.
    #[inline]
    pub fn owner(&self, b: &BoxCoord) -> usize {
        self.owner_at(b.level, morton_encode(b.x, b.y, b.z))
    }

    /// Morton codes at `level` owned by worker `r` (a contiguous range:
    /// per-level ownership inherits the leaf prefix structure).
    pub fn owned_at(&self, r: usize, level: u32) -> std::ops::Range<u64> {
        debug_assert!(level <= self.depth);
        let m = 1u64 << (3 * (self.depth - level));
        let lo = self.splits[r].div_ceil(m);
        let hi = self.splits[r + 1].div_ceil(m);
        lo..hi.max(lo)
    }
}

/// Minimum number of contiguous parts needed so that no part exceeds `b`
/// (greedy packing; requires `b >= max(costs)`).
fn parts_needed(costs: &[u64], b: u64) -> usize {
    let mut parts = 1usize;
    let mut acc = 0u64;
    for &w in costs {
        if acc + w > b {
            parts += 1;
            acc = 0;
        }
        acc += w;
    }
    parts
}

/// Flops charged per pairwise potential interaction (3 subs, 3 mults, 2
/// adds, rsqrt, multiply–accumulate — the conventional count used when
/// comparing N-body codes): the cost model's pair weight and the near-field
/// sweeps' counter, which `fmm_core::near` re-exports.
pub const PAIR_FLOPS: u64 = 10;
/// Flops per pairwise potential+field interaction.
pub const PAIR_FORCE_FLOPS: u64 = 20;

/// Parameters of the a-priori cost model used to weight leaf boxes.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Sphere samples per box (K).
    pub k: usize,
    /// Inner-evaluation truncation order M.
    pub m_trunc: usize,
    /// Whether forces are evaluated (a near-field pair costs
    /// [`PAIR_FORCE_FLOPS`] instead of [`PAIR_FLOPS`]).
    pub with_fields: bool,
    /// Whether the downward pass runs the supernode decomposition, whose
    /// T2 rows a box is charged instead of its plain interactive field's.
    pub supernodes: bool,
}

/// Modelled flop cost per leaf Morton code.
///
/// `counts` holds per-leaf particle counts in row-major order (the binning
/// layout); the result is indexed by leaf *Morton* code so it can be fed
/// straight into [`Partition::cost_weighted`].
///
/// Charges, calibrated against the executor's own counters (see
/// DESIGN.md §8):
/// * near field — potentials and forces run the symmetric row sweep,
///   whose pairs are charged to the boxes whose particles they serve: box
///   `b` pays its `n·(n−1)/2` self pairs at the pair weight ([`PAIR_FLOPS`],
///   or [`PAIR_FORCE_FLOPS`] with fields) and half of every pair with an
///   in-domain neighbour, `n_b·n_s·weight/2`, whichever of the two is the
///   target (an SPMD rank runs its half-stencil rows and those of the
///   ghost targets whose rows reach it, so it works on both halves;
///   charging the target alone would pile the cost onto the lower-z box
///   of every pair);
/// * per particle — `10·K` for P2O and `6·K·(M+1)` for inner evaluation;
/// * per box at level l (charged to its first descendant leaf) —
///   `2K²` per T2 source that lies in the domain (the executors multiply
///   only those rows): its octant's interactive field, or under
///   supernodes its decomposition's leftover children and parent-level
///   sources; `2K²` for the T3 parent shift (l ≥ 3), and `8·2K²` for
///   forming its children's T1 contributions (2 ≤ l < depth).
pub fn leaf_costs(depth: u32, model: &CostModel, counts: &[usize]) -> Vec<u64> {
    let leaves = 1usize << (3 * depth);
    assert_eq!(counts.len(), leaves, "one particle count per leaf box");
    let k = model.k as u64;
    let gemm_row = 2 * k * k;
    let mut cost = vec![0u64; leaves];

    // Translation work at every level, charged to first descendant leaves.
    let octant = |o: usize| [o & 1, (o >> 1) & 1, (o >> 2) & 1].map(|b| b as i32);
    let plain: Vec<_> = (0..8)
        .map(|o| interactive_field_offsets(octant(o)))
        .collect();
    let decomposition: Vec<_> = (0..8).map(|o| supernode_decomposition(octant(o))).collect();
    // A box's in-domain T2 sources depend only on its octant and, per
    // axis, on its distance to either face up to the interactive field's
    // reach, which a parent-level source's (±d parents) does not exceed.
    let reach = 2 * SEPARATION as u32 + 1;
    let mut live_t2 = BTreeMap::new();
    for l in 2..=depth {
        let shift = 3 * (depth - l);
        let last = (1u32 << l) - 1;
        for code in 0..1u64 << (3 * l) {
            let (x, y, z) = morton_decode(code);
            let b = BoxCoord { level: l, x, y, z };
            let class = [x, y, z].map(|c| (c.min(reach), (last - c).min(reach)));
            let t2 = *live_t2.entry((b.octant(), class)).or_insert_with(|| {
                let live = |b: BoxCoord, o: &[i32; 3]| b.offset(*o).is_some();
                if !model.supernodes {
                    return plain[b.octant()].iter().filter(|o| live(b, o)).count() as u64;
                }
                let sd = &decomposition[b.octant()];
                let parent = b.parent().expect("level ≥ 2");
                let children = sd.children.iter().filter(|o| live(b, o)).count();
                let parents = sd.parents.iter().filter(|p| live(parent, &p.parent_offset));
                (children + parents.count()) as u64
            });
            let mut w = t2 * gemm_row;
            if l >= 3 {
                w += gemm_row; // T3 from the parent's local expansion
            }
            if l < depth {
                w += 8 * gemm_row; // T1 over this box's eight children
            }
            cost[(code << shift) as usize] += w;
        }
    }

    // Per-leaf particle work: P2O, inner evaluation, near-field pairs —
    // each pair charged to the owner of the box that computes it.
    let near = near_field_offsets();
    let pair = if model.with_fields {
        PAIR_FORCE_FLOPS
    } else {
        PAIR_FLOPS
    };
    for code in 0..leaves as u64 {
        let (x, y, z) = morton_decode(code);
        let b = BoxCoord {
            level: depth,
            x,
            y,
            z,
        };
        let nt = counts[b.index()] as u64;
        let mut w = nt * k * 10 + nt * k * (model.m_trunc as u64 + 1) * 6;
        let mut cross = 0u64;
        for &o in &near {
            if let Some(s) = b.offset(o) {
                cross += nt * counts[s.index()] as u64;
            }
        }
        // Symmetric: each pair with a neighbour is half b's.
        w += nt * nt.saturating_sub(1) / 2 * pair + cross * (pair / 2);
        cost[code as usize] += w;
    }
    cost
}

/// A static cross-owner data movement plan for one exchange step.
///
/// Per rank, `sends` lists `(dst, cells)` with destinations ascending and
/// cells ascending; `recvs` lists `(src, cells)` with sources ascending,
/// where the cells are exactly the sender's list (so the receiver knows the
/// row order of every incoming message without a header). Cell indices are
/// row-major at the level the plan was built for. At most one message per
/// ordered rank pair, and every rank posts all its sends before any
/// receive — which is deadlock-free at channel capacity 1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exchange {
    /// Per source rank: `(dst, cell indices)` ascending by `dst`.
    pub sends: Vec<Vec<(usize, Vec<usize>)>>,
    /// Per destination rank: `(src, cell indices)` ascending by `src`.
    pub recvs: Vec<Vec<(usize, Vec<usize>)>>,
}

impl Exchange {
    /// Assemble from a `(src, dst) → cells` map.
    fn from_pairs(p: usize, pairs: &BTreeMap<(usize, usize), BTreeSet<usize>>) -> Exchange {
        let mut sends = vec![Vec::new(); p];
        let mut recvs = vec![Vec::new(); p];
        // BTreeMap order gives ascending (src, dst); for a fixed src the
        // dsts ascend, and for a fixed dst the srcs ascend.
        for (&(src, dst), cells) in pairs {
            if cells.is_empty() {
                continue;
            }
            let list: Vec<usize> = cells.iter().copied().collect();
            sends[src].push((dst, list.clone()));
            recvs[dst].push((src, list));
        }
        Exchange { sends, recvs }
    }

    /// Total messages (ordered rank pairs with traffic).
    pub fn messages(&self) -> u64 {
        self.sends.iter().map(|s| s.len() as u64).sum()
    }

    /// Total cell rows moved across owners.
    pub fn rows(&self) -> u64 {
        self.sends
            .iter()
            .flat_map(|s| s.iter())
            .map(|(_, cells)| cells.len() as u64)
            .sum()
    }

    /// True when no traffic crosses an owner boundary.
    pub fn is_empty(&self) -> bool {
        self.sends.iter().all(|s| s.is_empty())
    }

    /// `rank`'s side of the plan.
    pub fn side(&self, rank: usize) -> Side<'_> {
        (&self.sends[rank], &self.recvs[rank])
    }
}

/// One rank's side of an exchange: the `(dst, cells)` messages it sends,
/// then the `(src, cells)` messages it receives.
pub type Side<'a> = (&'a [(usize, Vec<usize>)], &'a [(usize, Vec<usize>)]);

/// Upward-pass exchange for forming parents at `parent_level`: every child
/// box (level `parent_level + 1`) whose owner differs from its parent's
/// owner ships its far-field row to the parent's owner. Cells are row-major
/// at the *child* level.
pub fn child_flush(part: &Partition, parent_level: u32) -> Exchange {
    debug_assert!(parent_level < part.depth());
    let mut pairs: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
    for pc in 0..1u64 << (3 * parent_level) {
        let owner_p = part.owner_at(parent_level, pc);
        for oct in 0..8u64 {
            let cc = (pc << 3) | oct;
            let owner_c = part.owner_at(parent_level + 1, cc);
            if owner_c != owner_p {
                pairs
                    .entry((owner_c, owner_p))
                    .or_default()
                    .insert(morton_to_rowmajor(parent_level + 1, cc));
            }
        }
    }
    Exchange::from_pairs(part.workers(), &pairs)
}

/// Downward-pass exchange for the T3 shift at `level` (≥ 3): every box
/// whose parent lives on another owner fetches the parent's local-expansion
/// row. Cells are row-major at the *parent* level (`level − 1`).
pub fn parent_fetch(part: &Partition, level: u32) -> Exchange {
    debug_assert!((3..=part.depth()).contains(&level));
    let mut pairs: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
    for code in 0..1u64 << (3 * level) {
        let owner_b = part.owner_at(level, code);
        let pc = code >> 3;
        let owner_p = part.owner_at(level - 1, pc);
        if owner_p != owner_b {
            pairs
                .entry((owner_p, owner_b))
                .or_default()
                .insert(morton_to_rowmajor(level - 1, pc));
        }
    }
    Exchange::from_pairs(part.workers(), &pairs)
}

/// Downward-pass exchange of far-field rows at `level`: every in-domain
/// T2 source of a box on another owner ships its row to that box's owner
/// once. Without `supernodes` the sources are those of the targets at
/// `level` over the interactive-field union (of the eight octants). With
/// `supernodes` they are what the decomposition reads (its own octant's
/// lists): the leftover children of the targets at `level`, and the
/// parent-level sources of the targets one level down, box
/// `parent(t) + P` for each box `t` at `level + 1` and each supernode
/// offset `P`. Those rows are read from the same `far[level]` one level
/// later, and no other exchange ships them: `P` reaches ±d, inside the
/// parent's own near field. Cells are row-major at `level`.
pub fn box_halo(part: &Partition, level: u32, supernodes: bool) -> Exchange {
    debug_assert!((2..=part.depth()).contains(&level));
    let mut pairs: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
    let mut ship = |s: BoxCoord, owner_t: usize| {
        let owner_s = part.owner(&s);
        if owner_s != owner_t {
            pairs
                .entry((owner_s, owner_t))
                .or_default()
                .insert(s.index());
        }
    };
    let boxes = |l: u32| {
        (0..1u64 << (3 * l)).map(move |code| {
            let (x, y, z) = morton_decode(code);
            (part.owner_at(l, code), BoxCoord { level: l, x, y, z })
        })
    };
    if !supernodes {
        let union = interactive_field_union();
        for (owner_t, t) in boxes(level) {
            for s in union.iter().filter_map(|&off| t.offset(off)) {
                ship(s, owner_t);
            }
        }
        return Exchange::from_pairs(part.workers(), &pairs);
    }
    let decomposition: Vec<_> = (0..8)
        .map(|o| supernode_decomposition([o & 1, (o >> 1) & 1, (o >> 2) & 1]))
        .collect();
    for (owner_t, t) in boxes(level) {
        let children = &decomposition[t.octant()].children;
        for s in children.iter().filter_map(|&off| t.offset(off)) {
            ship(s, owner_t);
        }
    }
    if level < part.depth() {
        for (owner_t, t) in boxes(level + 1) {
            let parent = t.parent().expect("level + 1 > 0");
            let sn = &decomposition[t.octant()].parents;
            for s in sn.iter().filter_map(|p| parent.offset(p.parent_offset)) {
                ship(s, owner_t);
            }
        }
    }
    Exchange::from_pairs(part.workers(), &pairs)
}

/// Near-field particle exchange at the leaf level: every owned box pulls
/// the particles of the in-domain boxes `stencil` away from it that live
/// on other owners. The forces near field reads the near-field offsets,
/// the symmetric potentials sweep its ghost-target reach
/// ([`crate::interaction::half_stencil_reach`]). Cells are row-major leaf
/// indices.
pub fn particle_halo(part: &Partition, stencil: &[[i32; 3]]) -> Exchange {
    let depth = part.depth();
    let mut pairs: BTreeMap<(usize, usize), BTreeSet<usize>> = BTreeMap::new();
    for code in 0..part.leaf_count() {
        let owner_t = part.leaf_owner(code);
        let (x, y, z) = morton_decode(code);
        let t = BoxCoord {
            level: depth,
            x,
            y,
            z,
        };
        for &off in stencil {
            if let Some(s) = t.offset(off) {
                let owner_s = part.leaf_owner(morton_encode(s.x, s.y, s.z));
                if owner_s != owner_t {
                    pairs
                        .entry((owner_s, owner_t))
                        .or_default()
                        .insert(s.index());
                }
            }
        }
    }
    Exchange::from_pairs(part.workers(), &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::half_stencil_reach;

    fn pseudo_costs(leaves: usize, seed: u64) -> Vec<u64> {
        // Deterministic LCG with a heavy-tailed twist to mimic clustering.
        let mut state = seed | 1;
        (0..leaves)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = state >> 40;
                if u.is_multiple_of(17) {
                    u % 100_000
                } else {
                    u % 500
                }
            })
            .collect()
    }

    fn check_cover(part: &Partition) {
        let p = part.workers();
        let mut owner_seen = vec![0u64; p];
        let mut prev = None;
        for code in 0..part.leaf_count() {
            let r = part.leaf_owner(code);
            owner_seen[r] += 1;
            if let Some(prev) = prev {
                assert!(r >= prev, "owners must be monotone along the curve");
            }
            prev = Some(r);
        }
        let total: u64 = owner_seen.iter().sum();
        assert_eq!(total, part.leaf_count(), "exact cover, no box dropped");
        for (r, &seen) in owner_seen.iter().enumerate() {
            assert_eq!(
                seen,
                part.splits()[r + 1] - part.splits()[r],
                "interval sizes match ownership"
            );
        }
    }

    #[test]
    fn uniform_partition_is_an_exact_cover() {
        for depth in 1..=3 {
            for p in [1usize, 2, 3, 5, 8] {
                check_cover(&Partition::uniform(depth, p));
            }
        }
    }

    #[test]
    fn cost_weighted_is_an_exact_monotone_cover() {
        for depth in [2u32, 3] {
            let leaves = 1usize << (3 * depth);
            for p in [1usize, 2, 4, 7, 8] {
                for seed in [3u64, 99, 0xfeed] {
                    let costs = pseudo_costs(leaves, seed ^ depth as u64);
                    let part = Partition::cost_weighted(depth, p, &costs);
                    assert_eq!(part.workers(), p);
                    check_cover(&part);
                }
            }
        }
    }

    #[test]
    fn cost_weighted_bottleneck_is_optimal_small() {
        // Brute-force all 2-cut placements at depth 1 (8 leaves, p = 3).
        let costs = [5u64, 1, 1, 1, 9, 1, 1, 5];
        let part = Partition::cost_weighted(1, 3, &costs);
        let bn = |s: &[u64]| -> u64 {
            (0..s.len() - 1)
                .map(|r| costs[s[r] as usize..s[r + 1] as usize].iter().sum())
                .max()
                .unwrap()
        };
        let mut best = u64::MAX;
        for a in 0..=8u64 {
            for b in a..=8u64 {
                best = best.min(bn(&[0, a, b, 8]));
            }
        }
        assert_eq!(bn(part.splits()), best);
    }

    #[test]
    fn zero_costs_fall_back_to_uniform() {
        let costs = vec![0u64; 64];
        assert_eq!(
            Partition::cost_weighted(2, 4, &costs),
            Partition::uniform(2, 4)
        );
    }

    #[test]
    fn coarse_owner_matches_first_descendant_leaf() {
        let costs = pseudo_costs(512, 0xabcdef);
        let part = Partition::cost_weighted(3, 5, &costs);
        for l in 0..=3u32 {
            for code in 0..1u64 << (3 * l) {
                assert_eq!(
                    part.owner_at(l, code),
                    part.leaf_owner(code << (3 * (3 - l))),
                );
            }
        }
    }

    #[test]
    fn owned_ranges_partition_every_level() {
        let costs = pseudo_costs(512, 77);
        let part = Partition::cost_weighted(3, 6, &costs);
        for l in 0..=3u32 {
            let mut covered = 0u64;
            let mut cursor = 0u64;
            for r in 0..part.workers() {
                let range = part.owned_at(r, l);
                assert!(range.start >= cursor, "ranges in curve order");
                cursor = range.end.max(cursor);
                for code in range.clone() {
                    assert_eq!(part.owner_at(l, code), r);
                }
                covered += range.end - range.start;
            }
            assert_eq!(covered, 1u64 << (3 * l), "level {l} fully covered");
        }
    }

    #[test]
    fn morton_rowmajor_round_trip() {
        for level in 1..=4u32 {
            let n = 1usize << (3 * level);
            for idx in (0..n).step_by(1.max(n / 97)) {
                assert_eq!(
                    morton_to_rowmajor(level, rowmajor_to_morton(level, idx)),
                    idx
                );
            }
        }
    }

    fn endpoints_balanced(ex: &Exchange) {
        // Every send has exactly one matching recv with the same cells.
        for (src, sends) in ex.sends.iter().enumerate() {
            let mut prev_dst = None;
            for (dst, cells) in sends {
                if let Some(prev) = prev_dst {
                    assert!(*dst > prev, "sends ascend by destination");
                }
                prev_dst = Some(*dst);
                assert_ne!(*dst, src, "no self message");
                assert!(cells.windows(2).all(|w| w[0] < w[1]), "cells ascend");
                let matching = ex.recvs[*dst]
                    .iter()
                    .find(|(s, _)| *s == src)
                    .expect("matching recv");
                assert_eq!(&matching.1, cells, "receiver sees the sender's cells");
            }
        }
        let nsend: usize = ex.sends.iter().map(Vec::len).sum();
        let nrecv: usize = ex.recvs.iter().map(Vec::len).sum();
        assert_eq!(nsend, nrecv);
        assert_eq!(ex.messages(), nsend as u64);
    }

    #[test]
    fn plans_are_endpoint_balanced_and_ordered() {
        let costs = pseudo_costs(4096, 0x5eed);
        let part = Partition::cost_weighted(4, 8, &costs);
        for l in 2..4u32 {
            endpoints_balanced(&child_flush(&part, l));
        }
        for l in 3..=4u32 {
            endpoints_balanced(&parent_fetch(&part, l));
        }
        for l in 2..=4u32 {
            for supernodes in [false, true] {
                endpoints_balanced(&box_halo(&part, l, supernodes));
            }
        }
        endpoints_balanced(&particle_halo(&part, &near_field_offsets()));
        endpoints_balanced(&particle_halo(&part, &half_stencil_reach()));
    }

    #[test]
    fn single_worker_plans_are_empty() {
        let part = Partition::uniform(3, 1);
        assert!(child_flush(&part, 2).is_empty());
        assert!(parent_fetch(&part, 3).is_empty());
        assert!(box_halo(&part, 2, true).is_empty());
        assert!(box_halo(&part, 3, false).is_empty());
        assert!(particle_halo(&part, &near_field_offsets()).is_empty());
        assert!(particle_halo(&part, &half_stencil_reach()).is_empty());
    }

    #[test]
    fn supernode_halo_ships_what_the_decomposition_reads() {
        // Exactly the rows a target on another owner reads under
        // supernodes, written out from the decomposition box by box.
        let costs = pseudo_costs(4096, 0xface);
        let part = Partition::cost_weighted(4, 5, &costs);
        let octant = |t: &BoxCoord| {
            let o = t.octant() as i32;
            supernode_decomposition([o & 1, (o >> 1) & 1, (o >> 2) & 1])
        };
        for level in 2..=4u32 {
            let mut want: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
            for t in (0..1usize << (3 * level)).map(|i| BoxCoord::from_index(level, i)) {
                for s in octant(&t).children.iter().filter_map(|&o| t.offset(o)) {
                    want.insert((part.owner(&s), part.owner(&t), s.index()));
                }
            }
            let below = if level < 4 {
                1usize << (3 * (level + 1))
            } else {
                0
            };
            for t in (0..below).map(|i| BoxCoord::from_index(level + 1, i)) {
                let p = t.parent().unwrap();
                for s in octant(&t)
                    .parents
                    .iter()
                    .filter_map(|sn| p.offset(sn.parent_offset))
                {
                    want.insert((part.owner(&s), part.owner(&t), s.index()));
                }
            }
            want.retain(|(src, dst, _)| src != dst);
            let ex = box_halo(&part, level, true);
            let mut got = BTreeSet::new();
            for (src, sends) in ex.sends.iter().enumerate() {
                for (dst, cells) in sends {
                    got.extend(cells.iter().map(|&c| (src, *dst, c)));
                }
            }
            assert!(!got.is_empty());
            assert_eq!(got, want, "level {level}");
        }
    }

    #[test]
    fn leaf_costs_charge_particles_and_translations() {
        let depth = 2u32;
        let leaves = 64usize;
        let model = CostModel {
            k: 12,
            m_trunc: 3,
            with_fields: false,
            supernodes: false,
        };
        let empty = leaf_costs(depth, &model, &vec![0usize; leaves]);
        // Translation charges exist even with no particles…
        assert!(empty.iter().sum::<u64>() > 0);
        // …and adding particles strictly increases the charged leaf.
        let mut counts = vec![0usize; leaves];
        counts[17] = 40;
        let loaded = leaf_costs(depth, &model, &counts);
        let code = rowmajor_to_morton(depth, 17);
        assert!(loaded[code as usize] > empty[code as usize]);
        assert_eq!(
            loaded.iter().zip(&empty).filter(|(a, b)| a != b).count(),
            1,
            "an isolated box charges only its own leaf"
        );
    }
}
