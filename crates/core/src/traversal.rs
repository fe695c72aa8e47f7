//! The hierarchy traversal: upward (T1) and downward (T2 + T3) passes.
//!
//! This module is the reproduction of the paper's §3.3: every translation
//! is a K×K matrix, and all boxes at a level that share a matrix are
//! batched into a panel so the whole traversal "takes the form of a
//! collection of matrix–matrix multiplications". Parallelism follows the
//! paper's data-parallel model: boxes of one level are partitioned into
//! slabs of parent z-planes (the analogue of per-VU subgrids); slabs are
//! processed by rayon workers, each of which owns a disjoint, contiguous
//! range of the level's output buffer, so there are no write conflicts.
//! Levels are sequential, as in the paper. The sweeps take no executor:
//! every slab loop is a pool loop, which under [`serially`]
//! (`Executor::Serial`, an SPMD rank) is one piece on the calling thread.
//!
//! Every product is one row-indexed GEMM (`fmm_linalg`'s
//! `gemm_acc_rows_with`): each row of `A` and of `C` is named by its
//! offset, so rows are multiplied where they lie. A T1 call reads the
//! children of a panel of parents in the child level; a T2 call takes,
//! for one key, the live rows of every octant that uses it — one call
//! per visit — reading the sources in the level array and adding into
//! the octants' accumulator panels. The set stores one T2 matrix per
//! mirror orbit, so T2 runs mirror by mirror: a key served through a
//! mirror reads its stored matrix's rows in σ order into accumulators
//! held in σ's point order (DESIGN.md §5.2). At K = 12 a call costs about
//! what its FMA latency chain does whatever its row count (DESIGN.md
//! §5.5), so fewer, fuller calls are the speed.
//!
//! There is one body per sweep, [`upward_level`] and [`downward_level`],
//! and both take one hierarchy of `R` instances interleaved per box: the
//! instances share one plan and one translation set and go through the
//! same calls, each listed row being `R` rows `(s + i·K, c + i·K)` read
//! and written where they lie, with the source geometry computed once for
//! all of them — the paper's
//! aggregation trick replayed across *requests*. A solo evaluation is the
//! `R = 1` case. The GEMM microkernels compute every output row with
//! per-row accumulators and an identical k-loop order whatever rows share
//! the call, so neither the number of instances nor the panels change a
//! bit of any row (`fmm-linalg`'s `gemm_rows_are_independent_of_panel_height`
//! and `indexed_rows_equal_the_gathered_product` pin this).
//!
//! The target rows of a sweep are data, not loop bounds: a slab is a list
//! of parent indices per octant. [`upward_level`] / [`downward_level`]
//! pass the level's parent z-planes (every box of the level);
//! [`upward_rows`] / [`downward_rows`] pass an arbitrary subset — the
//! boxes one SPMD worker owns — through the same body, and write the same
//! bits to those rows that the full-level sweep writes.
//!
//! The index structure that arithmetic on a box index does not give — the
//! level's T2 schedule with each step's live parent box and source
//! offset, resolved T2 matrix positions — comes from a precomputed
//! [`TraversalPlan`], so a pass does no hash-map lookups; a parent's
//! child is its index with one octant bit spliced into each axis, and a
//! slab a range of whole parent planes. A pass only lists rows and runs
//! GEMMs. A panel's parents are cut once into boxes
//! of consecutive panel positions, and a step's rows are its live box
//! intersected with them, listed an x-run at a time: the listing costs
//! what the rows do, not what the panels times the schedule's steps do.
//!
//! Both the aggregated (GEMM) path and a per-box GEMV path are provided;
//! their ratio is the paper's Table 3 experiment.

use crate::field::FieldHierarchy;
use crate::plan::{LiveSchedule, LiveStep, LiveVisit, T2Blocking, TraversalPlan};
use crate::serially;
use crate::translations::TranslationSet;
use fmm_linalg::{gemm_acc_rows_with, gemm_flops, Kernel, Matrix};
use fmm_tree::BoxCoord;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Flop counters from a traversal: `2K²` per row a sweep actually
/// multiplied (a T2 row whose source lies outside the domain is not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalFlops {
    pub t1: u64,
    pub t2: u64,
    pub t3: u64,
    /// Elements copied within memory (the paper's "copying" overhead,
    /// linear in K where the GEMMs are quadratic): the downward sweep's
    /// scatter-add of every target row into its level. Every source row is
    /// multiplied where it lies.
    pub copied: u64,
}

impl std::ops::AddAssign for TraversalFlops {
    fn add_assign(&mut self, o: TraversalFlops) {
        self.t1 += o.t1;
        self.t2 += o.t2;
        self.t3 += o.t3;
        self.copied += o.copied;
    }
}

/// Execution strategy for the translation applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// One GEMV per box pair (the paper's level-2-BLAS baseline).
    Gemv,
    /// Panel-aggregated GEMMs (the paper's level-3-BLAS optimization).
    Gemm,
}

/// `acc[c..c + k] += a[s..s + k] · M_σ` for each `(s, c)` of `rows`, row
/// `p` of `M_σ` being the `k` elements of `m` from `m_rows[p]`: one GEMM,
/// or one GEMV per row skipping exact-zero samples. Through a mirror's σ, with `acc` held in
/// σ's point order, that is the product with the mirror's matrix written
/// out (DESIGN.md §5.2); T1 and T3 pass the identity.
#[allow(clippy::too_many_arguments)]
fn translate_rows(
    agg: Aggregation,
    kernel: Kernel,
    k: usize,
    a: &[f64],
    rows: &[(usize, usize)],
    m: &Matrix,
    m_rows: &[usize],
    acc: &mut [f64],
) {
    let m = m.as_slice();
    match agg {
        Aggregation::Gemm => gemm_acc_rows_with(kernel, k, k, a, rows, m, m_rows, acc),
        Aggregation::Gemv => {
            for &(s, c) in rows {
                let dst = &mut acc[c..c + k];
                for (&gi, &p) in a[s..s + k].iter().zip(m_rows) {
                    if gi == 0.0 {
                        continue;
                    }
                    for (dj, tj) in dst.iter_mut().zip(&m[p..p + k]) {
                        *dj += gi * tj;
                    }
                }
            }
        }
    }
}

/// Push the `r` instances' rows of one box pair, whose instance 0 rows
/// start at `s` (source) and `c` (accumulator): `(s + i·k, c + i·k)`.
#[inline]
fn push_instances(rows: &mut Vec<(usize, usize)>, (k, r): (usize, usize), s: usize, c: usize) {
    rows.extend((0..r).map(|i| (s + i * k, c + i * k)));
}

/// Upward pass: for levels l = depth−1 … 2 combine children's outer
/// samples into parents' (T1), stopping at level 2 as the paper does.
/// Nothing reads `far[1]`: T2 starts at level 2, whose supernode sources
/// all lie outside the domain, and T3 at level 3. Returns flop counters.
/// `parallel = false` runs it [`serially`]; the flag is kept only because
/// `benchmark/` imports it (ROADMAP item 1).
pub fn upward_pass(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    agg: Aggregation,
    parallel: bool,
) -> TraversalFlops {
    if !parallel {
        return serially(|| upward_pass(fh, ts, plan, agg, true));
    }
    let depth = fh.hierarchy.depth;
    debug_assert_eq!(plan.depth, depth);
    let mut flops = TraversalFlops::default();
    for l in (2..depth).rev() {
        flops += upward_level(fh, ts, plan, l, agg);
    }
    flops
}

/// The target rows of one slab of a sweep: the first box index of the
/// contiguous chunk of the level the slab writes (the level is cut into
/// as many equal chunks as there are slabs), and the rows themselves.
type Slab<R> = (usize, R);

/// One parent level of the upward pass, for every instance of `fh`:
/// combine the children at level `l + 1` into the parents at level `l`,
/// which are overwritten. Per (panel, octant) one call reads every
/// parent's child where it lies in the child level and adds into the
/// parent where it lies in its level.
pub fn upward_level(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    l: u32,
    agg: Aggregation,
) -> TraversalFlops {
    // Every parent is a target: the level's planes over its parent list.
    let lvl = plan.level(l);
    let slabs = lvl.slab_groups(1);
    let slabs: Vec<_> = slabs.map(|(p0, p1)| (p0, &lvl.parents[p0..p1])).collect();
    upward_sweep(fh, ts, plan, l, agg, &slabs)
}

/// [`upward_level`] restricted to the parents `parents` (box indices at
/// level `l`): exactly those rows of `far[l]` are overwritten, with the
/// bits the full-level sweep writes there. The SPMD backend's workers
/// sweep the parents they own through this.
pub fn upward_rows(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    l: u32,
    agg: Aggregation,
    parents: &[u32],
) -> TraversalFlops {
    upward_sweep(fh, ts, plan, l, agg, &[(0, parents)])
}

fn upward_sweep(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    l: u32,
    agg: Aggregation,
    slabs: &[Slab<&[u32]>],
) -> TraversalFlops {
    let (k, r) = (fh.k, fh.r);
    let kr = k * r; // one box's rows, the instances' adjacent
    let lvl = plan.level(l);
    let plane = lvl.plane();
    let chunk = fh.hierarchy.boxes_at_level(l) / slabs.len();

    // The child level to read, and the parent level cut into the chunks
    // the slabs own.
    let (lo, hi) = fh.far.split_at_mut(l as usize + 1);
    let children = &hi[0][..];
    let outs = lo[l as usize].par_chunks_mut(chunk * kr);

    slabs
        .par_iter()
        .zip(outs)
        .for_each(|(&(base, parents), out)| {
            // Panels of at most one parent plane (a full-level slab is one).
            let mut rows = Vec::with_capacity(plane.min(parents.len()) * r);
            for panel in parents.chunks(plane) {
                for &pi in panel {
                    out[(pi as usize - base) * kr..][..kr].fill(0.0);
                }
                for (oct, t1) in ts.t1t.iter().enumerate() {
                    rows.clear();
                    for &pi in panel {
                        let (s, c) = (lvl.child(pi, oct) * kr, (pi as usize - base) * kr);
                        push_instances(&mut rows, (k, r), s, c);
                    }
                    let identity = ts.identity_rows();
                    translate_rows(agg, plan.kernel, k, children, &rows, t1, identity, out);
                }
            }
        });

    let n_rows: usize = slabs.iter().map(|(_, parents)| parents.len()).sum();
    TraversalFlops {
        t1: gemm_flops(n_rows * r, k, k) * 8,
        ..TraversalFlops::default()
    }
}

/// Downward pass: for levels l = 2 … depth, convert interactive-field
/// outer samples to inner samples (T2, optionally with supernodes) and add
/// the parent's shifted inner samples (T3). `parallel = false` runs it
/// [`serially`]; the flag is kept only because `benchmark/` imports it
/// (ROADMAP item 1).
pub fn downward_pass(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    parallel: bool,
) -> TraversalFlops {
    if !parallel {
        return serially(|| downward_pass(fh, ts, plan, supernodes, agg, true));
    }
    let depth = fh.hierarchy.depth;
    debug_assert_eq!(plan.depth, depth);
    let mut flops = TraversalFlops::default();
    for l in 2..=depth {
        flops += downward_level(fh, ts, plan, supernodes, agg, l);
    }
    flops
}

/// One level of the downward pass, for every instance of `fh`: T2
/// (interactive field) plus T3 (parent inner shift) into `local[l]`, which
/// is zeroed first. The level is cut as the plan's `t2_blocking` says for
/// the rule size, the instance count and the pool's thread count (at
/// K = 12 whole parent planes a panel): slab groups of consecutive
/// parent z-planes run in parallel, each walked in panels of consecutive
/// parents per octant. Per panel every T2 matrix the level's schedule
/// reaches is one call over the live rows of every octant and instance
/// that uses it.
pub fn downward_level(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    l: u32,
) -> TraversalFlops {
    let threads = rayon::current_num_threads();
    let blocking = plan.level(l - 1).t2_blocking(fh.k, fh.r, threads);
    downward_blocked(fh, ts, plan, supernodes, agg, l, blocking)
}

/// [`downward_level`] with an explicit blocking: every box is a target,
/// along each octant the slab groups over the plan's parent list.
fn downward_blocked(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    l: u32,
    blocking: T2Blocking,
) -> TraversalFlops {
    let lvl = plan.level(l - 1);
    let slabs: Vec<_> = lvl
        .slab_groups(blocking.planes)
        .map(|(p0, p1)| (p0 * 8, [&lvl.parents[p0..p1]; 8]))
        .collect();
    let flops = downward_sweep(fh, ts, plan, supernodes, agg, l, blocking.panel, &slabs);
    let (r, k) = (fh.r, fh.k);
    debug_assert_eq!(flops.t2, lvl.t2_rows(supernodes) * gemm_flops(r, k, k));
    // Only the scatter-add of every target row copies.
    debug_assert_eq!(flops.copied, (lvl.parents.len() * 8 * r * k) as u64);
    flops
}

/// [`downward_level`] restricted to the target boxes `boxes` (box indices
/// at level `l`, in any order, sibling groups split freely): `local[l]`
/// is zeroed, then exactly those rows receive the bits the full-level
/// sweep writes there. The SPMD backend's workers sweep the boxes they
/// own through this.
pub fn downward_rows(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    l: u32,
    boxes: &[u32],
) -> TraversalFlops {
    let parents = octant_parents(l, boxes);
    let slab = [(0, std::array::from_fn(|oct| parents[oct].as_slice()))];
    let panel = plan.level(l - 1).t2_blocking(fh.k, fh.r, 1).panel;
    downward_sweep(fh, ts, plan, supernodes, agg, l, panel, &slab)
}

/// Per octant, the parents (at level `l − 1`) of those of `boxes` (at
/// level `l`) that are that octant's child, in the order of `boxes`.
fn octant_parents(l: u32, boxes: &[u32]) -> [Vec<u32>; 8] {
    let mut parents: [Vec<u32>; 8] = Default::default();
    for &b in boxes {
        let c = BoxCoord::from_index(l, b as usize);
        let parent = c.parent().expect("the downward pass starts at level 2");
        parents[c.octant()].push(parent.index() as u32);
    }
    parents
}

/// A box of a panel's parents, `lo..=hi` along each axis, listed in box
/// order at consecutive panel positions from `at`: parent (x, y, z) is
/// the panel's `at + (x − lo_x) + ((y − lo_y) + (z − lo_z)·w_y)·w_x`-th,
/// `w` the box's extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    lo: [usize; 3],
    hi: [usize; 3],
    at: usize,
}

impl Block {
    fn extent(&self, d: usize) -> usize {
        self.hi[d] + 1 - self.lo[d]
    }
}

/// `parents` (of a level of `2^b` per axis) cut into the fewest boxes
/// that a row-by-row merge finds: maximal x-runs of consecutive parents,
/// the x-runs of one plane stacked along y where they line up, and those
/// stacked along z where whole boxes line up. A panel of whole planes of
/// a full-level sweep is one box, an SPMD worker's half rows one box a
/// panel, a scattered subset a box a parent.
fn blocks_of(parents: &[u32], b: u32, blocks: &mut Vec<Block>) {
    let n = 1usize << b;
    blocks.clear();
    let mut at = 0;
    while at < parents.len() {
        let first = parents[at] as usize;
        let [x, y, z] = [first & (n - 1), (first >> b) & (n - 1), first >> (2 * b)];
        let rest = &parents[at + 1..parents.len().min(at + n - x)];
        let len = 1 + rest
            .iter()
            .zip(first + 1..)
            .take_while(|&(&p, want)| p as usize == want)
            .count();
        let (lo, hi) = ([x, y, z], [x + len - 1, y, z]);
        // The blocks so far hold positions `..at` in order, so the last
        // one ends where this x-run starts.
        let grows = blocks.last_mut().filter(|last| {
            let flat = last.lo[2] == last.hi[2];
            flat && (lo[0], hi[0], z) == (last.lo[0], last.hi[0], last.hi[2])
        });
        match grows {
            Some(last) if y == last.hi[1] + 1 => last.hi[1] = y,
            _ => {
                stack_planes(blocks);
                blocks.push(Block { lo, hi, at });
            }
        }
        at += len;
    }
    stack_planes(blocks);
}

/// Fold the last of `blocks`, one plane, into the box before it where it
/// is that box's next plane.
fn stack_planes(blocks: &mut Vec<Block>) {
    if let [.., below, last] = &mut blocks[..] {
        let lines_up = (0..2).all(|d| (last.lo[d], last.hi[d]) == (below.lo[d], below.hi[d]));
        let on_top = last.lo[2] == last.hi[2] && last.lo[2] == below.hi[2] + 1;
        if lines_up && on_top {
            below.hi[2] += 1;
            blocks.pop();
        }
    }
}

/// Push the rows of step `st` of a matrix visit over the blocks of its
/// octant's panel (parents of a level of `2^b` per axis) as `(source,
/// accumulator)` element offsets, for each of `r` instances: the source
/// box's rows in its level array (`shift` levels above the targets), and
/// `acc + j·kr` for the panel's `j`-th parent, `kr = k·r` a box's rows.
/// The step's live parents are a box; per block its intersection with
/// that box is listed plane by plane and row by row, one x-run a row,
/// whose sources lie 2 boxes apart (same level) or 1 (parent level). No
/// parent is tested on its own.
fn push_rows(
    st: &LiveStep,
    shift: u8,
    b: u32,
    blocks: &[Block],
    (k, r, acc): (usize, usize, usize),
    rows: &mut Vec<(usize, usize)>,
) {
    let live = st.live(1 << b);
    let up = u32::from(shift);
    let kr = k * r;
    // Bits per axis of the source level, and x-neighbours' source
    // distance.
    let (sb, step) = (b + 1 - up, (2 - up as usize) * kr);
    for bl in blocks {
        let lo: [usize; 3] = std::array::from_fn(|d| live[d][0].max(bl.lo[d]));
        let hi: [usize; 3] = std::array::from_fn(|d| live[d][1].min(bl.hi[d]));
        if (0..3).any(|d| lo[d] > hi[d]) {
            continue;
        }
        let (wx, len) = (bl.extent(0), hi[0] + 1 - lo[0]);
        for z in lo[2]..=hi[2] {
            let plane = bl.at + (z - bl.lo[2]) * bl.extent(1) * wx + lo[0] - bl.lo[0];
            for y in lo[1]..=hi[1] {
                // The base box of parent (lo_x, y, z) at the source level.
                let base = (lo[0] + (y << sb) + (z << (2 * sb))) << (1 - up);
                let s0 = base.wrapping_add_signed(st.delta as isize) * kr;
                let c0 = acc + (plane + (y - bl.lo[1]) * wx) * kr;
                for x in 0..len {
                    push_instances(rows, (k, r), s0 + x * step, c0 + x * kr);
                }
            }
        }
    }
}

/// The rows of matrix visit `v` of `schedule` for `r` instances, all its
/// octants' panels cut into `blocks`, each octant's accumulator panel
/// `panel` elements after the last (see [`push_rows`]).
fn list_visit(
    schedule: &LiveSchedule,
    v: &LiveVisit,
    b: u32,
    blocks: &[Vec<Block>; 8],
    (k, r, panel): (usize, usize, usize),
    rows: &mut Vec<(usize, usize)>,
) {
    rows.clear();
    for st in schedule.steps_of(v) {
        let oct = usize::from(st.oct);
        push_rows(st, v.shift, b, &blocks[oct], (k, r, oct * panel), rows);
    }
}

/// The element swaps that rewrite a `k`-row held in point order `from` in
/// point order `to`: element `j` becomes its old element `τ(j) =
/// from[to[j]]`. Both orders are sign flips' involutions, and flips
/// commute, so τ is an involution too: the move is the swaps `(j, τ(j))`
/// with `j < τ(j)`, in place.
fn swaps_between(from: &[usize], to: &[usize], swaps: &mut Vec<(usize, usize)>) {
    swaps.clear();
    for (j, &t) in to.iter().enumerate() {
        let tau = from[t];
        assert_eq!(from[to[tau]], j, "point orders whose move is no involution");
        if j < tau {
            swaps.push((j, tau));
        }
    }
}

/// Every accumulator row of a panel's parents (`kr` elements a parent,
/// octant `o`'s panel at `o · stride`), its `k`-rows each moved by
/// `swaps` ([`swaps_between`]).
fn reorder(
    acc: &mut [f64],
    panels: &[&[u32]; 8],
    (k, kr, stride): (usize, usize, usize),
    swaps: &[(usize, usize)],
) {
    for (oct, parents) in panels.iter().enumerate() {
        let rows = &mut acc[oct * stride..][..parents.len() * kr];
        for row in rows.chunks_exact_mut(k) {
            for &(i, j) in swaps {
                row.swap(i, j);
            }
        }
    }
}

/// Panel `sub` of a slab, along each octant: the parents from `sub ·
/// panel` on, at most `panel`, none where an octant has fewer.
fn panel_of<'a>(rows: &[&'a [u32]; 8], sub: usize, panel: usize) -> [&'a [u32]; 8] {
    std::array::from_fn(|oct| {
        let all = rows[oct];
        let from = (sub * panel).min(all.len());
        &all[from..(from + panel).min(all.len())]
    })
}

/// The downward body. A slab's rows are, per octant, the parents whose
/// child along that octant is a target; the child's index is the
/// parent's with the octant's bits spliced in (`LevelPlan::child`). A
/// slab is walked in panels of `panel` parents per octant, each with an
/// accumulator panel of its own, held parent-major like the levels (the
/// `R` instances' rows of one parent adjacent).
///
/// T3 runs into each octant's accumulator first. Then T2 runs mirror by
/// mirror (`LiveSchedule::in_groups`): the set stores one matrix per
/// mirror orbit, and each group is the keys served through one mirror
/// g, the identity first. Before a group every octant's accumulator is
/// re-permuted into σ_g's point order (pure moves); each key of the
/// group is one call over the live rows (source inside the domain) of
/// all its octants and instances, listed by [`push_rows`] from the
/// panel's [`Block`]s, read where they lie in the level arrays and
/// multiplied by the stored matrix with its rows read in σ_g order; the
/// scatter-add reads the accumulator back through the last group's σ.
/// Each accumulator element thus runs the chain the materialised
/// conjugates would give it in the same order of keys. Each accumulator
/// row appears at most once in a call. The GEMM computes each row
/// independently of the others, and a dropped all-zero row could only
/// have changed an accumulator holding −0.0, which one starting at +0.0
/// never does, so no bit depends on which rows share a call, nor on which
/// groups a panel skips.
#[allow(clippy::too_many_arguments)]
fn downward_sweep(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    l: u32,
    panel: usize,
    slabs: &[Slab<[&[u32]; 8]>],
) -> TraversalFlops {
    let (k, r) = (fh.k, fh.r);
    let kr = k * r; // one parent's rows
    let l_parent = l - 1;
    let lvl = plan.level(l_parent);
    let schedule = lvl.t2_live(supernodes);
    let chunk = fh.hierarchy.boxes_at_level(l) / slabs.len();
    let apply_t3 = l >= 3; // local field is zero above level 2
    let live_rows = AtomicU64::new(0);

    // Outer samples by shift (`far[l]`, `far[l − 1]`), the parent level's
    // inner samples, and the child level cut into the chunks the slabs
    // own.
    let far = [&fh.far[l as usize][..], &fh.far[l_parent as usize][..]];
    let (lo, hi) = fh.local.split_at_mut(l as usize);
    let local_parent = &lo[l_parent as usize][..];
    hi[0].fill(0.0);
    let outs = hi[0].par_chunks_mut(chunk * kr);

    slabs
        .par_iter()
        .zip(outs)
        .for_each(|(&(base, ref rows), out)| {
            let longest = rows.iter().map(|p| p.len()).max().unwrap_or(0);
            let cap = panel.min(longest);
            let mut acc_panels = vec![0.0; 8 * cap * kr];
            let mut live = Vec::with_capacity(8 * cap * r);
            let mut swaps = Vec::with_capacity(k / 2);
            let mut blocks: [Vec<Block>; 8] = Default::default();
            let mut n_live = 0u64;
            for sub in 0..longest.div_ceil(panel) {
                // This panel's parents along each octant, none where an
                // octant has no panel `sub`, and their blocks.
                let panels = panel_of(rows, sub, panel);
                for (parents, blocks) in panels.iter().zip(&mut blocks) {
                    blocks_of(parents, l_parent, blocks);
                }

                // ---- T3: parent inner → child inner -------------------
                for (oct, &parents) in panels.iter().enumerate() {
                    let acc0 = oct * cap * kr;
                    acc_panels[acc0..acc0 + parents.len() * kr].fill(0.0);
                    if apply_t3 && !parents.is_empty() {
                        live.clear();
                        for (j, &pi) in parents.iter().enumerate() {
                            push_instances(&mut live, (k, r), pi as usize * kr, acc0 + j * kr);
                        }
                        let t3 = &ts.t3t[oct];
                        translate_rows(
                            agg,
                            plan.kernel,
                            k,
                            local_parent,
                            &live,
                            t3,
                            ts.identity_rows(),
                            &mut acc_panels,
                        );
                    }
                }

                // ---- T2: interactive field, mirror by mirror ------------
                // The accumulators are held in point order `cur` of the
                // set's orders, the identity first.
                let mut cur = 0;
                for (visit, served) in schedule.in_groups(ts) {
                    list_visit(
                        schedule,
                        visit,
                        l_parent,
                        &blocks,
                        (k, r, cap * kr),
                        &mut live,
                    );
                    if live.is_empty() {
                        continue;
                    }
                    let mirror = usize::from(served.mirror);
                    if mirror != cur {
                        swaps_between(&ts.orders[cur], &ts.orders[mirror], &mut swaps);
                        reorder(&mut acc_panels, &panels, (k, kr, cap * kr), &swaps);
                        cur = mirror;
                    }
                    n_live += live.len() as u64;
                    let view = ts.view(served);
                    let src = far[usize::from(visit.shift)];
                    let (m, m_rows) = (view.matrix, view.rows);
                    translate_rows(agg, plan.kernel, k, src, &live, m, m_rows, &mut acc_panels);
                }

                // Scatter-add each parent's rows into its child, reading
                // point `σ(i)` of the accumulator into point `i`.
                let order = &ts.orders[cur];
                let accs = acc_panels.chunks(cap * kr);
                for (oct, (&parents, acc_panel)) in panels.iter().zip(accs).enumerate() {
                    for (rows, &pi) in acc_panel.chunks(kr).zip(parents) {
                        let at = (lvl.child(pi, oct) - base) * kr;
                        for (dst, src) in out[at..at + kr].chunks_mut(k).zip(rows.chunks(k)) {
                            for (dj, &p) in dst.iter_mut().zip(order) {
                                *dj += src[p];
                            }
                        }
                    }
                }
            }
            live_rows.fetch_add(n_live, Ordering::Relaxed);
        });

    // Exact counts: every multiplied row is a live T2 row or a T3 row,
    // and every target row is scattered once.
    let n_rows = r * slabs
        .iter()
        .flat_map(|(_, rows)| rows)
        .map(|p| p.len())
        .sum::<usize>();
    let t3_rows = if apply_t3 { n_rows } else { 0 };
    TraversalFlops {
        t1: 0,
        t2: gemm_flops(live_rows.into_inner() as usize, k, k),
        t3: gemm_flops(t3_rows, k, k),
        copied: (n_rows * k) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::T2Step;
    use crate::threads;
    use fmm_linalg::gemm_acc_with;
    use fmm_sphere::SphereRule;
    use fmm_tree::Hierarchy;

    /// A translation set serves one supernode setting (it holds only the
    /// T2 matrices that setting's traversal reaches).
    fn small_setup(
        depth: u32,
        supernodes: bool,
    ) -> (FieldHierarchy, TranslationSet, TraversalPlan) {
        let rule = SphereRule::for_order(3);
        let ts = TranslationSet::build(&rule, 4, 1.0, 1.0, supernodes);
        let fh = FieldHierarchy::new(Hierarchy::new(depth), rule.len());
        let plan = TraversalPlan::build(depth);
        (fh, ts, plan)
    }

    fn fill_pseudo(fh: &mut FieldHierarchy) {
        let depth = fh.hierarchy.depth as usize;
        let mut state = 777u64;
        for v in fh.far[depth].iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
    }

    /// The one-instance hierarchies `solo` interleaved into one of
    /// `solo.len()` instances.
    fn interleave(solo: &[FieldHierarchy]) -> FieldHierarchy {
        let (k, r) = (solo[0].k, solo.len());
        let mut fh = FieldHierarchy::instances(solo[0].hierarchy, k, r);
        for (i, one) in solo.iter().enumerate() {
            let levels = fh.far.iter_mut().chain(&mut fh.local);
            for (dst, src) in levels.zip(one.far.iter().chain(&one.local)) {
                for (b, row) in src.chunks(k).enumerate() {
                    dst[(b * r + i) * k..][..k].copy_from_slice(row);
                }
            }
        }
        fh
    }

    /// Instance `i` of `fh` as a hierarchy of its own.
    fn instance(fh: &FieldHierarchy, i: usize) -> FieldHierarchy {
        let (k, r) = (fh.k, fh.r);
        let mut one = FieldHierarchy::new(fh.hierarchy, k);
        let levels = one.far.iter_mut().chain(&mut one.local);
        for (dst, src) in levels.zip(fh.far.iter().chain(&fh.local)) {
            for (b, row) in dst.chunks_mut(k).enumerate() {
                row.copy_from_slice(&src[(b * r + i) * k..][..k]);
            }
        }
        one
    }

    #[test]
    fn upward_gemv_matches_gemm() {
        let (mut a, ts, plan) = small_setup(3, false);
        fill_pseudo(&mut a);
        let mut b = a.clone();
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        upward_pass(&mut b, &ts, &plan, Aggregation::Gemv, false);
        for l in 2..3usize {
            for (x, y) in a.far[l].iter().zip(&b.far[l]) {
                assert!((x - y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn downward_gemv_matches_gemm() {
        let (mut a, ts, plan) = small_setup(3, false);
        fill_pseudo(&mut a);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        let mut b = a.clone();
        downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        downward_pass(&mut b, &ts, &plan, false, Aggregation::Gemv, false);
        for (x, y) in a.local[3].iter().zip(&b.local[3]) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn downward_supernodes_use_plan_matrices() {
        // The supernode path resolves its matrices through the plan's
        // stored keys/indices; make sure that machinery runs and counts
        // fewer translations than the plain path (the end-to-end accuracy
        // check on physical data lives in the driver tests).
        let (mut a, ts, plan) = small_setup(3, false);
        fill_pseudo(&mut a);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        let mut b = a.clone();
        let plain = downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        let (_, ts_sup, _) = small_setup(3, true);
        let sup = downward_pass(&mut b, &ts_sup, &plan, true, Aggregation::Gemm, false);
        assert!(sup.t2 < plain.t2, "{} !< {}", sup.t2, plain.t2);
        assert!(b.local[3].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn upward_flops_counted() {
        let (mut a, ts, plan) = small_setup(4, false);
        fill_pseudo(&mut a);
        let f = upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        // Levels 3 and 2 are computed: 8·2K²·(8³ + 8²) with K = 6.
        let k = 6u64;
        assert_eq!(f.t1, 8 * 2 * k * k * (512 + 64));
    }

    #[test]
    fn upward_parallel_matches_sequential() {
        let (mut a, ts, plan) = small_setup(4, false);
        fill_pseudo(&mut a);
        let mut b = a.clone();
        threads(1).install(|| upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, true));
        threads(3).install(|| upward_pass(&mut b, &ts, &plan, Aggregation::Gemm, true));
        for l in 2..=4usize {
            for (x, y) in a.far[l].iter().zip(&b.far[l]) {
                assert_eq!(x.to_bits(), y.to_bits(), "far[{l}]");
            }
        }
    }

    #[test]
    fn downward_parallel_matches_sequential() {
        let (mut a, ts, plan) = small_setup(4, false);
        fill_pseudo(&mut a);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, true);
        let mut b = a.clone();
        let agg = Aggregation::Gemm;
        threads(1).install(|| downward_pass(&mut a, &ts, &plan, false, agg, true));
        threads(3).install(|| downward_pass(&mut b, &ts, &plan, false, agg, true));
        for l in 2..=4usize {
            for (x, y) in a.local[l].iter().zip(&b.local[l]) {
                assert_eq!(x.to_bits(), y.to_bits(), "local[{l}]");
            }
        }
    }

    #[test]
    fn instances_share_panels_without_changing_bits() {
        // Three instances interleaved in one hierarchy through the one
        // body, on one thread and with slabs split over three, against
        // each instance swept alone.
        for supernodes in [false, true] {
            let (mut pristine, mut solo) = (Vec::new(), Vec::new());
            for seed in 0..3u64 {
                let (mut fh, ts, plan) = small_setup(4, supernodes);
                fill_pseudo(&mut fh);
                fh.far[4].iter_mut().for_each(|v| *v *= 1.0 + seed as f64);
                pristine.push(fh.clone());
                upward_pass(&mut fh, &ts, &plan, Aggregation::Gemm, false);
                downward_pass(&mut fh, &ts, &plan, supernodes, Aggregation::Gemm, false);
                solo.push(fh);
            }
            let (_, ts, plan) = small_setup(4, supernodes);
            for n in [1, 3] {
                let mut fh = interleave(&pristine);
                threads(n).install(|| {
                    for l in (2..4).rev() {
                        upward_level(&mut fh, &ts, &plan, l, Aggregation::Gemm);
                    }
                    for l in 2..=4 {
                        let agg = Aggregation::Gemm;
                        downward_level(&mut fh, &ts, &plan, supernodes, agg, l);
                    }
                });
                for (i, want) in solo.iter().enumerate() {
                    let got = instance(&fh, i);
                    for l in 1..=4usize {
                        for (x, y) in got.far[l].iter().zip(&want.far[l]) {
                            assert_eq!(x.to_bits(), y.to_bits(), "far[{l}]");
                        }
                        for (x, y) in got.local[l].iter().zip(&want.local[l]) {
                            assert_eq!(x.to_bits(), y.to_bits(), "local[{l}]");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn target_subsets_write_the_full_sweeps_bits() {
        // What the SPMD workers sweep: a Morton range (cuts sibling groups
        // at both ends), a scattered set, and nothing at all — against the
        // full-level sweep, with T3 off (level 2) and on (levels 3, 4).
        use fmm_tree::partition::morton_to_rowmajor;
        const SENTINEL: f64 = 12345.678;
        let agg = Aggregation::Gemm;
        for supernodes in [false, true] {
            let (mut full, ts, plan) = small_setup(4, supernodes);
            fill_pseudo(&mut full);
            upward_pass(&mut full, &ts, &plan, agg, false);
            downward_pass(&mut full, &ts, &plan, supernodes, agg, false);
            for l in 2..=4u32 {
                let n = 1u32 << (3 * l);
                let morton_cut = 5..(n as u64 * 5 / 8 + 3);
                let subsets = [
                    morton_cut
                        .map(|code| morton_to_rowmajor(l, code) as u32)
                        .collect(),
                    (0..n).filter(|b| b % 3 == 1).collect(),
                    Vec::<u32>::new(),
                ];
                for boxes in &subsets {
                    let check = |got: &[f64], want: &[f64], rest: f64, what: &str| {
                        for (b, (g, w)) in got.chunks(6).zip(want.chunks(6)).enumerate() {
                            let target = boxes.contains(&(b as u32));
                            for (x, y) in g.iter().zip(w) {
                                let y = if target { *y } else { rest };
                                assert_eq!(x.to_bits(), y.to_bits(), "{what}[{l}] box {b}");
                            }
                        }
                    };
                    let li = l as usize;
                    if l < 4 {
                        let mut fh = full.clone();
                        fh.far[li].fill(SENTINEL);
                        let fl = upward_rows(&mut fh, &ts, &plan, l, agg, boxes);
                        check(&fh.far[li], &full.far[li], SENTINEL, "far");
                        assert_eq!(fl.t1, gemm_flops(boxes.len(), 6, 6) * 8);
                    }
                    let mut fh = full.clone();
                    fh.local[li].fill(SENTINEL);
                    let fl = downward_rows(&mut fh, &ts, &plan, supernodes, agg, l, boxes);
                    // The level is zeroed first, as in the full sweep.
                    check(&fh.local[li], &full.local[li], 0.0, "local");
                    assert_eq!(fl.t3, gemm_flops(boxes.len(), 6, 6) * (l >= 3) as u64);
                }
            }
        }
    }

    /// A run of consecutive parents of a panel: the first parent's box
    /// index, its position in the panel, and the run's length.
    type Run = (usize, usize, usize);

    /// `parents` cut into maximal runs of consecutive ascending box
    /// indices.
    fn runs_of(parents: &[u32], runs: &mut Vec<Run>) {
        runs.clear();
        for (j, &pi) in parents.iter().enumerate() {
            match runs.last_mut() {
                Some((first, _, len)) if *first + *len == pi as usize => *len += 1,
                _ => runs.push((pi as usize, j, 1)),
            }
        }
    }

    /// The per-row listing [`push_rows`] replaced, kept as its oracle:
    /// per run of the panel and parent row inside the step's y and z
    /// intervals, one x-run, from the shared [`T2Step`] itself.
    fn push_live(
        st: &T2Step,
        b: u32,
        runs: &[Run],
        (k, acc, kr): (usize, usize, usize),
        live: &mut Vec<(usize, usize)>,
    ) {
        let n = 1usize << b;
        let Some([[x0, x1], [y0, y1], [z0, z1]]) = st.live(n) else {
            return;
        };
        let up = st.shift as usize;
        let (sb, o) = (b + 1 - up as u32, if up == 0 { st.oct as usize } else { 0 });
        let src = |p: [usize; 3]| -> usize {
            let at = |d: usize| {
                let s = ((p[d] << (1 - up)) + ((o >> d) & 1)) as isize + isize::from(st.offset[d]);
                (s as usize) << (d as u32 * sb)
            };
            (at(0) + at(1) + at(2)) * k
        };
        let step = (2 - up) * k;
        for &(first, j0, len) in runs {
            let last = first + len - 1;
            for row in first >> b..=last >> b {
                let (y, z) = (row & (n - 1), row >> b);
                if y < y0 || y > y1 || z < z0 || z > z1 {
                    continue;
                }
                let row0 = row << b;
                let lo = x0.max(first.saturating_sub(row0));
                let hi = x1.min(last - row0);
                if lo > hi {
                    continue;
                }
                let (s0, c0) = (src([lo, y, z]), acc + (j0 + row0 + lo - first) * kr);
                live.extend((0..hi + 1 - lo).map(|x| (s0 + x * step, c0 + x * kr)));
            }
        }
    }

    /// Every visit's rows over the slabs `slabs` of level `l`'s sweep in
    /// panels of `panel`, as the sweep lists them, against [`push_live`]
    /// over the same panels, as sets; returns the rows listed. K = 12,
    /// one instance.
    fn assert_listing_is_per_row(
        plan: &TraversalPlan,
        supernodes: bool,
        l: u32,
        panel: usize,
        slabs: &[[&[u32]; 8]],
        what: &str,
    ) -> u64 {
        let (k, b) = (12, l - 1);
        let table = plan.level(b).t2_live(supernodes);
        // The level's steps: the shared order, less those no box reaches.
        let shared = plan.t2_schedule[supernodes as usize].iter().copied();
        let steps: Vec<T2Step> = shared.filter(|s| s.live(1 << b).is_some()).collect();
        let same =
            |x: &T2Step, y: &T2Step| (x.shift, x.matrix) == (y.shift, y.matrix) && x.oct < y.oct;
        assert_eq!(table.visits.len(), steps.chunk_by(same).count());
        let (mut blocks, mut runs) = (<[Vec<Block>; 8]>::default(), <[Vec<Run>; 8]>::default());
        let (mut got, mut want, mut total) = (Vec::new(), Vec::new(), 0);
        for rows in slabs {
            let longest = rows.iter().map(|p| p.len()).max().unwrap_or(0);
            let cap = panel.min(longest) * k;
            for sub in 0..longest.div_ceil(panel) {
                let panels = panel_of(rows, sub, panel);
                for (oct, parents) in panels.iter().enumerate() {
                    blocks_of(parents, b, &mut blocks[oct]);
                    runs_of(parents, &mut runs[oct]);
                }
                for (v, visit) in table.visits.iter().zip(steps.chunk_by(same)) {
                    list_visit(table, v, b, &blocks, (k, 1, cap), &mut got);
                    want.clear();
                    for st in visit {
                        let oct = st.oct as usize;
                        push_live(st, b, &runs[oct], (k, oct * cap, k), &mut want);
                    }
                    total += got.len() as u64;
                    got.sort_unstable();
                    want.sort_unstable();
                    assert!(
                        got == want,
                        "{what}: level {l} supernodes={supernodes} {v:?}"
                    );
                }
            }
        }
        total
    }

    fn listing_matches_the_per_row_reference(depth: u32) {
        use fmm_tree::partition::morton_to_rowmajor;
        let plan = TraversalPlan::build(depth);
        for supernodes in [false, true] {
            for l in 2..=depth {
                let lvl = plan.level(l - 1);
                // Full-level sweeps at the one- and two-thread blockings.
                for threads in [1, 2] {
                    let blocking = lvl.t2_blocking(12, 1, threads);
                    let groups = lvl.slab_groups(blocking.planes);
                    let slabs: Vec<_> = groups.map(|(p0, p1)| [&lvl.parents[p0..p1]; 8]).collect();
                    let what = format!("full level, {threads} threads");
                    let total = assert_listing_is_per_row(
                        &plan,
                        supernodes,
                        l,
                        blocking.panel,
                        &slabs,
                        &what,
                    );
                    assert_eq!(total, lvl.t2_rows(supernodes), "{what}");
                }
                // `downward_rows` subsets: a Morton range cutting sibling
                // groups, each rank's boxes at two SPMD ranks (half rows
                // along x), every other pair of rows (parent rows with
                // gaps between them), and every third box, last first.
                let (n, axis) = (1u32 << (3 * l), 1u32 << l);
                let morton = (5..u64::from(n) * 5 / 8 + 3).map(|c| morton_to_rowmajor(l, c) as u32);
                let half =
                    |rank: u32| (0..n).filter(move |b| (b % axis >= axis / 2) as u32 == rank);
                let subsets: [(&str, Vec<u32>); 5] = [
                    ("Morton range", morton.collect()),
                    ("rank 0 of 2", half(0).collect()),
                    ("rank 1 of 2", half(1).collect()),
                    ("row pairs", (0..n).filter(|b| b / axis % 4 < 2).collect()),
                    ("scattered", (0..n).rev().step_by(3).collect()),
                ];
                let panel = lvl.t2_blocking(12, 1, 1).panel;
                for (what, boxes) in &subsets {
                    let parents = octant_parents(l, boxes);
                    let slab = [std::array::from_fn(|oct| parents[oct].as_slice())];
                    assert_listing_is_per_row(&plan, supernodes, l, panel, &slab, what);
                }
            }
        }
    }

    #[test]
    fn t2_rows_listed_match_the_per_row_reference() {
        for depth in 2..=4 {
            listing_matches_the_per_row_reference(depth);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "depth-5 listing: release only")]
    fn t2_rows_listed_match_the_per_row_reference_at_depth_5() {
        listing_matches_the_per_row_reference(5);
    }

    #[test]
    fn blocks_cover_their_parents_in_panel_order() {
        let bl = |lo, hi, at| Block { lo, hi, at };
        // At 4 parents per axis: a full plane pair, half rows of two
        // planes, a run that starts and ends inside rows, and rows and
        // planes with gaps between them.
        let cases: [(Vec<u32>, Vec<Block>); 5] = [
            ((16..48).collect(), vec![bl([0, 0, 1], [3, 3, 2], 0)]),
            (
                (0..32).filter(|p| p % 4 < 2).collect(),
                vec![bl([0, 0, 0], [1, 3, 1], 0)],
            ),
            (
                (6..27).collect(),
                vec![
                    bl([2, 1, 0], [3, 1, 0], 0),
                    bl([0, 2, 0], [3, 3, 0], 2),
                    bl([0, 0, 1], [3, 1, 1], 10),
                    bl([0, 2, 1], [2, 2, 1], 18),
                ],
            ),
            (
                (0..4).chain(8..12).collect(),
                vec![bl([0, 0, 0], [3, 0, 0], 0), bl([0, 2, 0], [3, 2, 0], 4)],
            ),
            (
                (0..16).chain(32..48).collect(),
                vec![bl([0, 0, 0], [3, 3, 0], 0), bl([0, 0, 2], [3, 3, 2], 16)],
            ),
        ];
        let mut blocks = Vec::new();
        for (parents, want) in &cases {
            blocks_of(parents, 2, &mut blocks);
            assert_eq!(&blocks, want, "{parents:?}");
        }
    }

    /// Row by row, element `j` of each `k`-row of `acc` becomes its old
    /// element `order[j]`: for an involution σ, into σ's point order and
    /// back.
    fn permute_rows(acc: &mut [f64], k: usize, order: &[usize]) {
        for row in acc.chunks_exact_mut(k) {
            let old = row.to_vec();
            for (x, &p) in row.iter_mut().zip(order) {
                *x = old[p];
            }
        }
    }

    /// The sweep before panels followed K, on one instance: per parent
    /// plane, panels of one parent row (`max(2^l, 8)` parents),
    /// out-of-domain sources zero-filled, one dense GEMM per (panel,
    /// octant, offset), octant after octant. Each octant's offsets run in
    /// the order the set serves them, mirror by mirror (the identity
    /// first), in a mirror the parent-level sources first, then by matrix
    /// index; a product through mirror σ moves the accumulator into σ's
    /// point order, reads the stored matrix's rows in σ order and moves
    /// the accumulator back. Box geometry comes from `BoxCoord`, not from
    /// the plan.
    fn reference_level(
        fh: &mut FieldHierarchy,
        ts: &TranslationSet,
        plan: &TraversalPlan,
        supernodes: bool,
        l: u32,
    ) {
        assert_eq!(fh.r, 1, "the reference sweeps one instance");
        let (k, li) = (fh.k, l as usize);
        let families = [&ts.t2t, &ts.t2t_super];
        let lp = l - 1;
        fh.local[li].fill(0.0);
        let all: Vec<u32> = (0..1 << (3 * lp)).collect();
        for plane in all.chunks(1 << (2 * lp)) {
            for parents in plane.chunks((1 << lp).max(8)) {
                let np = parents.len();
                let dense: Vec<(usize, usize)> = (0..np).map(|i| (i * k, i * k)).collect();
                for (oct, op) in plan.octants.iter().enumerate() {
                    let kids: Vec<BoxCoord> = parents
                        .iter()
                        .map(|&pi| BoxCoord::from_index(lp, pi as usize).child(oct))
                        .collect();
                    let mut src = vec![0.0; np * k];
                    let mut acc = vec![0.0; np * k];
                    if l >= 3 {
                        for (j, &pi) in parents.iter().enumerate() {
                            let row = &fh.local[li - 1][pi as usize * k..][..k];
                            src[j * k..][..k].copy_from_slice(row);
                        }
                        let t3 = ts.t3t[oct].as_slice();
                        gemm_acc_with(plan.kernel, np, k, k, &src, t3, &mut acc);
                    }
                    let lists = op.t2_lists(supernodes);
                    let mut steps: Vec<(usize, [i32; 3], u32)> = Vec::new();
                    for shift in [1, 0] {
                        let (offsets, idx) = lists[shift];
                        steps.extend(offsets.iter().zip(idx).map(|(&o, &m)| (shift, o, m)));
                    }
                    let served = |&(shift, _, m): &(usize, [i32; 3], u32)| {
                        families[shift][m as usize].expect("the set serves every listed key")
                    };
                    steps.sort_by_key(|st| (served(st).mirror, std::cmp::Reverse(st.0), st.2));
                    for st in &steps {
                        let (shift, off) = (st.0, st.1);
                        let sl = li - shift;
                        let axis = 1i32 << sl;
                        for (j, kid) in kids.iter().enumerate() {
                            let c = [kid.x, kid.y, kid.z].map(|x| (x >> shift) as i32);
                            let s = [0, 1, 2].map(|d| c[d] + off[d]);
                            let dst = &mut src[j * k..][..k];
                            if s.iter().all(|x| (0..axis).contains(x)) {
                                let si = ((s[2] * axis + s[1]) * axis + s[0]) as usize;
                                dst.copy_from_slice(&fh.far[sl][si * k..][..k]);
                            } else {
                                dst.fill(0.0);
                            }
                        }
                        let view = ts.view(served(st));
                        permute_rows(&mut acc, k, view.order);
                        let m = view.matrix.as_slice();
                        gemm_acc_rows_with(plan.kernel, k, k, &src, &dense, m, view.rows, &mut acc);
                        permute_rows(&mut acc, k, view.order);
                    }
                    for (j, kid) in kids.iter().enumerate() {
                        let dst = fh.local[li][kid.index() * k..][..k].iter_mut();
                        for (d, s) in dst.zip(&acc[j * k..][..k]) {
                            *d += s;
                        }
                    }
                }
            }
        }
    }

    /// `downward_level` — with the blocking of a one- and a three-thread
    /// pool, and with every blocking `extra` lists — and `downward_rows`
    /// on a scattered box subset, against [`reference_level`] of each
    /// instance alone, bit for bit, on every kernel tier, with supernodes
    /// on and off, for one and three instances interleaved in one
    /// hierarchy. Level by level from the reference's own inputs.
    fn assert_blocked_sweep_is_reference(order: usize, depth: u32, extra: &[T2Blocking]) {
        let rule = SphereRule::for_order(order);
        let k = rule.len();
        for supernodes in [false, true] {
            let ts = TranslationSet::build(&rule, order, 1.0, 1.0, supernodes);
            for kernel in Kernel::available() {
                let plan = TraversalPlan::with_kernel(depth, kernel);
                for r in [1, 3] {
                    let mut want: Vec<FieldHierarchy> = (0..r)
                        .map(|i| {
                            let mut fh = FieldHierarchy::new(Hierarchy::new(depth), k);
                            fill_pseudo(&mut fh);
                            fh.far[depth as usize]
                                .iter_mut()
                                .for_each(|v| *v *= 1.0 + i as f64);
                            upward_pass(&mut fh, &ts, &plan, Aggregation::Gemm, false);
                            fh
                        })
                        .collect();
                    for l in 2..=depth {
                        let li = l as usize;
                        let input = interleave(&want);
                        for fh in &mut want {
                            reference_level(fh, &ts, &plan, supernodes, l);
                        }
                        let pool = [(1, None), (3, None)].into_iter();
                        let runs = pool.chain(extra.iter().map(|&b| (3, Some(b))));
                        for (n, blocking) in runs {
                            let mut got = input.clone();
                            let agg = Aggregation::Gemm;
                            let fl = threads(n).install(|| match blocking {
                                Some(b) => {
                                    downward_blocked(&mut got, &ts, &plan, supernodes, agg, l, b)
                                }
                                None => downward_level(&mut got, &ts, &plan, supernodes, agg, l),
                            });
                            let rows = plan.level(l - 1).t2_rows(supernodes);
                            assert_eq!(fl.t2, rows * gemm_flops(r, k, k));
                            for (i, w) in want.iter().enumerate() {
                                let g = instance(&got, i);
                                for (x, y) in g.local[li].iter().zip(&w.local[li]) {
                                    assert_eq!(
                                        x.to_bits(),
                                        y.to_bits(),
                                        "K={k} {kernel:?} supernodes={supernodes} R={r} \
                                         instance {i} level {l} threads={n} {blocking:?}"
                                    );
                                }
                            }
                        }
                        // Every third box, last first: panels of
                        // one-parent runs, no two parents adjacent.
                        let boxes: Vec<u32> = (0..1u32 << (3 * l)).rev().step_by(3).collect();
                        let mut got = input.clone();
                        let agg = Aggregation::Gemm;
                        downward_rows(&mut got, &ts, &plan, supernodes, agg, l, &boxes);
                        for (i, w) in want.iter().enumerate() {
                            let g = instance(&got, i);
                            let rows = g.local[li].chunks(k).zip(w.local[li].chunks(k));
                            for (b, (g, w)) in rows.enumerate() {
                                let target = boxes.contains(&(b as u32));
                                for (x, y) in g.iter().zip(w) {
                                    let y = if target { *y } else { 0.0 };
                                    assert_eq!(
                                        x.to_bits(),
                                        y.to_bits(),
                                        "K={k} {kernel:?} supernodes={supernodes} R={r} \
                                         instance {i} level {l} box {b} of a subset"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "depth-4 sweeps on every tier: release only"
    )]
    fn blocked_sweep_equals_reference_at_small_k() {
        // Blockings the pool's thread count alone would not reach at
        // K = 6: one-parent panels, panels across rows and planes, slab
        // groups of two planes and of the whole level.
        let extra = [1, 3, 16, 64].map(|panel| T2Blocking { panel, planes: 2 });
        assert_blocked_sweep_is_reference(3, 4, &extra);
        assert_blocked_sweep_is_reference(
            5,
            4,
            &[T2Blocking {
                panel: 8,
                planes: 8,
            }],
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "sweeps on every tier: release only")]
    fn blocked_sweep_equals_reference_at_the_serve_shapes() {
        // K = 12 at depths 2 and 3, the served request classes: level 2's
        // schedule drops all but 728 steps, and most visits of a panel
        // there fuse several octants.
        for depth in [2, 3] {
            assert_blocked_sweep_is_reference(5, depth, &[]);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "K = 120 sweeps: release only")]
    fn blocked_sweep_equals_reference_at_k120() {
        assert_blocked_sweep_is_reference(
            14,
            3,
            &[T2Blocking {
                panel: 16,
                planes: 1,
            }],
        );
    }

    /// Level 1 is dead: poisoning `far[1]` and `local[1]` with NaN before
    /// the downward pass moves no bit of any level below, at order 5
    /// (K = 12), supernodes on and off.
    fn level_one_is_never_read(depth: u32) {
        let rule = SphereRule::for_order(5);
        for supernodes in [false, true] {
            let ts = TranslationSet::build(&rule, 3, 1.6, 1.0, supernodes);
            let plan = TraversalPlan::build(depth);
            let mut clean = FieldHierarchy::new(Hierarchy::new(depth), rule.len());
            fill_pseudo(&mut clean);
            upward_pass(&mut clean, &ts, &plan, Aggregation::Gemm, true);
            let mut poisoned = clean.clone();
            poisoned.far[1].fill(f64::NAN);
            poisoned.local[1].fill(f64::NAN);
            for fh in [&mut clean, &mut poisoned] {
                downward_pass(fh, &ts, &plan, supernodes, Aggregation::Gemm, true);
            }
            for l in 2..=depth as usize {
                for (x, y) in clean.local[l].iter().zip(&poisoned.local[l]) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "supernodes={supernodes} local[{l}]"
                    );
                }
            }
        }
    }

    #[test]
    fn level_one_is_never_read_at_depth_3() {
        level_one_is_never_read(3);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "depth-5 sweeps: release only")]
    fn level_one_is_never_read_at_depth_5() {
        level_one_is_never_read(5);
    }

    #[test]
    fn empty_far_field_stays_zero() {
        let (mut a, ts, plan) = small_setup(3, false);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        assert!(a.local[3].iter().all(|&x| x == 0.0));
    }
}
