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
//! Levels are sequential, as in the paper.
//!
//! There is one body per sweep, [`upward_level`] and [`downward_level`],
//! and both take a slice of hierarchies: `R` instances that share one plan
//! and one translation set are gathered into a single instance-major panel
//! and run as ONE GEMM of `R · rows` per (panel, octant, offset), with the
//! source geometry of an offset computed once for all of them — the
//! paper's aggregation trick replayed across *requests*. A solo evaluation
//! is the `R = 1` case. The GEMM microkernels compute every output row
//! with per-row accumulators and an identical k-loop order whatever the
//! panel's row count, so neither the number of instances nor the panel
//! height changes a bit of any row (`fmm-linalg`'s
//! `gemm_rows_are_independent_of_panel_height` pins this).
//!
//! The target rows of a sweep are data, not loop bounds: a slab is a list
//! of parent indices per octant. [`upward_level`] / [`downward_level`]
//! pass the plan's slab ranges (every box of the level);
//! [`upward_rows`] / [`downward_rows`] pass an arbitrary subset — the
//! boxes one SPMD worker owns — through the same body, and write the same
//! bits to those rows that the full-level sweep writes.
//!
//! All index structure — slab ranges, child gather/scatter lists, offset
//! lists and resolved T2 matrix positions — comes from a precomputed
//! [`TraversalPlan`], so a pass does no per-box index decoding and no
//! hash-map lookups; it only gathers panels and runs GEMMs.
//!
//! Both the aggregated (GEMM) path and a per-box GEMV path are provided;
//! their ratio is the paper's Table 3 experiment.

use crate::field::FieldHierarchy;
use crate::plan::{T2Blocking, TraversalPlan};
use crate::translations::TranslationSet;
use fmm_linalg::{gemm_acc_strided_with, gemm_acc_with, gemm_flops, Kernel, Matrix};
use fmm_tree::BoxCoord;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Flop counters from a traversal: `2K²` per row a sweep actually
/// multiplied (a T2 row whose source lies outside the domain is not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalFlops {
    pub t1: u64,
    pub t2: u64,
    pub t3: u64,
    /// Elements moved by gathers/scatters (the paper's "copying" overhead,
    /// linear in K where the GEMMs are quadratic).
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

/// `acc += panel · m` over `rows` rows of `k` samples, as one GEMM or as
/// one GEMV per row. The GEMV arm skips exact-zero samples (the zero rows
/// of out-of-domain sources).
fn translate_acc(
    agg: Aggregation,
    kernel: Kernel,
    rows: usize,
    k: usize,
    panel: &[f64],
    m: &Matrix,
    acc: &mut [f64],
) {
    match agg {
        Aggregation::Gemm => gemm_acc_with(kernel, rows, k, k, panel, m.as_slice(), acc),
        Aggregation::Gemv => {
            for (g, dst) in panel.chunks(k).zip(acc.chunks_mut(k)) {
                for (i, &gi) in g.iter().enumerate() {
                    if gi == 0.0 {
                        continue;
                    }
                    for (dj, tj) in dst.iter_mut().zip(m.row(i)) {
                        *dj += gi * tj;
                    }
                }
            }
        }
    }
}

/// Gather the k-sample rows `idx` of a whole level `src` into a panel,
/// one row every `stride` samples.
fn gather_rows(
    src: &[f64],
    idx: impl Iterator<Item = usize>,
    k: usize,
    stride: usize,
    panel: &mut [f64],
) {
    for (dst, i) in panel.chunks_mut(stride).zip(idx) {
        dst[..k].copy_from_slice(&src[i * k..(i + 1) * k]);
    }
}

/// `(first, step)` when the indices `idx` are `first + step·i`, `step ≥ 1`
/// (a single index has step 1): rows a GEMM can read at one stride.
fn one_stride(idx: impl IntoIterator<Item = usize>) -> Option<(usize, usize)> {
    let mut idx = idx.into_iter();
    let first = idx.next()?;
    let Some(second) = idx.next() else {
        return Some((first, 1));
    };
    let step = second.checked_sub(first).filter(|&d| d > 0)?;
    let mut prev = second;
    for i in idx {
        if i.checked_sub(prev) != Some(step) {
            return None;
        }
        prev = i;
    }
    Some((first, step))
}

/// Run `do_slab` over the slabs of a level, each with the output chunks
/// (one per instance) that slab owns.
fn for_each_slab<'a, S: Send + Sync, F>(
    slabs: &[S],
    outs: &mut [Vec<&'a mut [f64]>],
    parallel: bool,
    do_slab: F,
) where
    F: Fn((&S, &mut Vec<&'a mut [f64]>)) + Sync + Send,
{
    if parallel {
        slabs.par_iter().zip(outs.par_iter_mut()).for_each(do_slab);
    } else {
        slabs.iter().zip(outs.iter_mut()).for_each(do_slab);
    }
}

/// Upward pass: for levels l = depth−1 … 1 combine children's outer
/// samples into parents' (T1). Returns flop counters.
pub fn upward_pass(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    agg: Aggregation,
    parallel: bool,
) -> TraversalFlops {
    let depth = fh.hierarchy.depth;
    debug_assert_eq!(plan.depth, depth);
    let mut flops = TraversalFlops::default();
    if depth < 3 {
        return flops;
    }
    // Level 1 is included (beyond the paper's level-2 stop) because the
    // supernode path at level 2 reads parent-level outer samples.
    for l in (1..depth).rev() {
        flops += upward_level(std::slice::from_mut(fh), ts, plan, l, agg, parallel);
    }
    flops
}

/// The target rows of one slab of a sweep: the first box index of the
/// contiguous chunk of the level the slab writes (the level is cut into
/// as many equal chunks as there are slabs), and the rows themselves.
type Slab<R> = (usize, R);

/// One parent level of the upward pass, for every instance of `fhs`:
/// combine the children at level `l + 1` into the parents at level `l`,
/// which are overwritten. Per (slab, octant) all instances' child panels
/// are gathered into one instance-major panel and translated together.
pub fn upward_level(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    l: u32,
    agg: Aggregation,
    parallel: bool,
) -> TraversalFlops {
    // Every parent is a target: the plan's slabs over its parent list.
    let lvl = plan.level(l);
    let slabs = lvl.slabs.iter();
    let slabs: Vec<_> = slabs.map(|&(p0, p1)| (p0, &lvl.parents[p0..p1])).collect();
    upward_sweep(fhs, ts, plan, l, agg, parallel, &slabs)
}

/// [`upward_level`] restricted to the parents `parents` (box indices at
/// level `l`): exactly those rows of `far[l]` are overwritten, with the
/// bits the full-level sweep writes there. The SPMD backend's workers
/// sweep the parents they own through this.
pub fn upward_rows(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    l: u32,
    agg: Aggregation,
    parents: &[u32],
) -> TraversalFlops {
    upward_sweep(fhs, ts, plan, l, agg, false, &[(0, parents)])
}

fn upward_sweep(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    l: u32,
    agg: Aggregation,
    parallel: bool,
    slabs: &[Slab<&[u32]>],
) -> TraversalFlops {
    let r = fhs.len();
    let k = fhs[0].k;
    let lvl = plan.level(l);
    let plane = lvl.slabs[0].1 - lvl.slabs[0].0;
    let chunk = fhs[0].hierarchy.boxes_at_level(l) / slabs.len();

    // Per instance: the child level to read, and the parent level cut
    // into the chunks the slabs own.
    let mut children: Vec<&[f64]> = Vec::with_capacity(r);
    let mut outs: Vec<Vec<&mut [f64]>> = slabs.iter().map(|_| Vec::with_capacity(r)).collect();
    for fh in fhs.iter_mut() {
        let (lo, hi) = fh.far.split_at_mut(l as usize + 1);
        children.push(&hi[0]);
        for (slot, chunk) in outs.iter_mut().zip(lo[l as usize].chunks_mut(chunk * k)) {
            slot.push(chunk);
        }
    }

    for_each_slab(slabs, &mut outs, parallel, |(&(base, parents), out)| {
        // Panels of at most one parent plane (a plan slab is exactly one).
        for rows in parents.chunks(plane) {
            let np = rows.len();
            let mut panel = vec![0.0; r * np * k];
            let mut acc = vec![0.0; r * np * k];
            for oct in 0..8 {
                let cidx = &lvl.children[oct].idx;
                let kids = || rows.iter().map(|&pi| cidx[pi as usize] as usize);
                for (src, panel) in children.iter().zip(panel.chunks_mut(np * k)) {
                    gather_rows(src, kids(), k, k, panel);
                }
                translate_acc(agg, plan.kernel, r * np, k, &panel, &ts.t1t[oct], &mut acc);
            }
            for (o, acc) in out.iter_mut().zip(acc.chunks(np * k)) {
                for (&pi, row) in rows.iter().zip(acc.chunks(k)) {
                    let at = (pi as usize - base) * k;
                    o[at..at + k].copy_from_slice(row);
                }
            }
        }
    });

    let n_rows: usize = slabs.iter().map(|(_, parents)| parents.len()).sum();
    TraversalFlops {
        t1: gemm_flops(n_rows, k, k) * 8 * r as u64,
        copied: (n_rows * 8 * k * r) as u64,
        ..TraversalFlops::default()
    }
}

/// One T2 offset list of a child octant with its matrices resolved from
/// the plan's stored indices/keys (no hash lookups inside the slab
/// loops). The source of child `t` under offset `off` is the box
/// `(t >> shift) + off` of level `l − shift`: `shift` is 0 for same-level
/// interactive sources and 1 for parent-level supernode sources.
struct OffsetList<'a> {
    offsets: &'a [[i32; 3]],
    matrices: Vec<&'a Matrix>,
    shift: u32,
}

fn resolve_offset_lists<'a>(
    ts: &'a TranslationSet,
    plan: &'a TraversalPlan,
    supernodes: bool,
) -> Vec<Vec<OffsetList<'a>>> {
    // A set holds the matrices of one supernode setting (see
    // `TranslationSet::build`).
    const OTHER_SETTING: &str = "translation set was built for the other supernode setting";
    let t2_at = |i: &u32| -> &'a Matrix { ts.t2t[*i as usize].as_ref().expect(OTHER_SETTING) };
    plan.octants
        .iter()
        .map(|op| {
            if supernodes {
                vec![
                    OffsetList {
                        offsets: &op.sn_parent_offsets,
                        matrices: op
                            .sn_parent_keys
                            .iter()
                            .map(|key| ts.t2t_super.get(key).expect(OTHER_SETTING))
                            .collect(),
                        shift: 1,
                    },
                    OffsetList {
                        offsets: &op.sn_child_offsets,
                        matrices: op.sn_child_idx.iter().map(t2_at).collect(),
                        shift: 0,
                    },
                ]
            } else {
                vec![OffsetList {
                    offsets: &op.offsets,
                    matrices: op.t2_idx.iter().map(t2_at).collect(),
                    shift: 0,
                }]
            }
        })
        .collect()
}

/// Downward pass: for levels l = 2 … depth, convert interactive-field
/// outer samples to inner samples (T2, optionally with supernodes) and add
/// the parent's shifted inner samples (T3).
pub fn downward_pass(
    fh: &mut FieldHierarchy,
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    parallel: bool,
) -> TraversalFlops {
    let depth = fh.hierarchy.depth;
    debug_assert_eq!(plan.depth, depth);
    let mut flops = TraversalFlops::default();
    for l in 2..=depth {
        let one = std::slice::from_mut(fh);
        flops += downward_level(one, ts, plan, supernodes, agg, parallel, l);
    }
    flops
}

/// What the downward sweep reads of one instance at level `l`.
struct DownwardSources<'a> {
    /// Outer samples by shift: `[far[l], far[l − 1]]`.
    far: [&'a [f64]; 2],
    local_parent: &'a [f64],
}

/// One level of the downward pass, for every instance of `fhs`: T2
/// (interactive field) plus T3 (parent inner shift) into `local[l]`, which
/// is zeroed first. The level is cut as the plan's `t2_blocking` says for
/// the rule size and the pool's thread count: slab groups of consecutive
/// parent z-planes run in parallel, each walked in panels of consecutive
/// parents per octant. Per (panel, octant, offset) the source geometry —
/// offset application, domain bounds, which rows are live — is computed
/// once and every instance's live rows go through one GEMM.
pub fn downward_level(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    parallel: bool,
    l: u32,
) -> TraversalFlops {
    let threads = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let blocking = plan.level(l - 1).t2_blocking(fhs[0].k, threads);
    downward_blocked(fhs, ts, plan, supernodes, agg, parallel, l, blocking)
}

/// [`downward_level`] with an explicit blocking: every box is a target,
/// along each octant the slab groups over the plan's parent list.
#[allow(clippy::too_many_arguments)]
fn downward_blocked(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    parallel: bool,
    l: u32,
    blocking: T2Blocking,
) -> TraversalFlops {
    let lvl = plan.level(l - 1);
    let slabs: Vec<_> = lvl
        .slab_groups(blocking.planes)
        .map(|(p0, p1)| (p0 * 8, [&lvl.parents[p0..p1]; 8]))
        .collect();
    let panel = blocking.panel;
    let flops = downward_sweep(fhs, ts, plan, supernodes, agg, parallel, l, panel, &slabs);
    let (r, k) = (fhs.len(), fhs[0].k);
    debug_assert_eq!(
        flops.t2,
        lvl.t2_rows[supernodes as usize] * gemm_flops(r, k, k)
    );
    if r == 1 && agg == Aggregation::Gemm {
        // T3 reads its panels' consecutive parents in place; T2 gathers
        // its live rows unless the panels lie within parent rows.
        let in_rows = panel <= 1 << (l - 1);
        let gathered = if in_rows {
            0
        } else {
            lvl.t2_rows[supernodes as usize]
        };
        let scattered = lvl.parents.len() as u64 * 8;
        debug_assert_eq!(flops.copied, (gathered + scattered) * k as u64);
    }
    flops
}

/// [`downward_level`] restricted to the target boxes `boxes` (box indices
/// at level `l`, in any order, sibling groups split freely): `local[l]`
/// is zeroed, then exactly those rows receive the bits the full-level
/// sweep writes there. The SPMD backend's workers sweep the boxes they
/// own through this.
pub fn downward_rows(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    l: u32,
    boxes: &[u32],
) -> TraversalFlops {
    let mut parents: [Vec<u32>; 8] = Default::default();
    for &b in boxes {
        let c = BoxCoord::from_index(l, b as usize);
        let parent = c.parent().expect("the downward pass starts at level 2");
        parents[c.octant()].push(parent.index() as u32);
    }
    let slab = [(0, std::array::from_fn(|oct| parents[oct].as_slice()))];
    let panel = plan.level(l - 1).t2_blocking(fhs[0].k, 1).panel;
    downward_sweep(fhs, ts, plan, supernodes, agg, false, l, panel, &slab)
}

/// The downward body. A slab's rows are, per octant, the parents whose
/// child along that octant is a target; the child's index and coordinate
/// come from the plan's child map. A slab is walked in panels of `panel`
/// parents per octant, held parent-major (the `R` instances' rows of one
/// parent adjacent), so parents that form one run are one run of rows.
///
/// Only live rows — those whose source lies in the domain — are
/// multiplied. Their accumulator rows are used in place when an offset's
/// live parents form one run (always, in a panel of one parent row), else
/// packed and copied back after the product; their sources are read in
/// place from the level array where one instance's run sits at one
/// stride there, else gathered into a panel. The GEMM
/// computes each row independently of the others, and a dropped
/// all-zero row could only have changed an accumulator holding −0.0,
/// which one starting at +0.0 never does, so no bit depends on which
/// rows share a call.
#[allow(clippy::too_many_arguments)]
fn downward_sweep(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    parallel: bool,
    l: u32,
    panel: usize,
    slabs: &[Slab<[&[u32]; 8]>],
) -> TraversalFlops {
    let r = fhs.len();
    let k = fhs[0].k;
    let kr = k * r; // one parent's rows
    let oct_lists = resolve_offset_lists(ts, plan, supernodes);
    let l_parent = l - 1;
    let lvl = plan.level(l_parent);
    let chunk = fhs[0].hierarchy.boxes_at_level(l) / slabs.len();
    let n_par = 1usize << l_parent; // parent-level axis length
    let apply_t3 = l >= 3; // local field is zero above level 2
    let (live_rows, copied_rows) = (AtomicU64::new(0), AtomicU64::new(0));
    // One instance's source rows at one stride are multiplied where they
    // lie (GEMM only): T3's parents wherever they are, T2's live sources
    // where panels are cut within parent rows, which in a full-level
    // sweep holds for every live run ([`LevelPlan::t2_gathered_rows`]
    // counts the rest). All other rows are gathered into a panel.
    let solo_gemm = agg == Aggregation::Gemm && r == 1;

    let mut sources: Vec<DownwardSources> = Vec::with_capacity(r);
    let mut outs: Vec<Vec<&mut [f64]>> = slabs.iter().map(|_| Vec::with_capacity(r)).collect();
    for fh in fhs.iter_mut() {
        let (lo, hi) = fh.local.split_at_mut(l as usize);
        hi[0].fill(0.0);
        sources.push(DownwardSources {
            far: [&fh.far[l as usize], &fh.far[l_parent as usize]],
            local_parent: &lo[l_parent as usize],
        });
        for (slot, chunk) in outs.iter_mut().zip(hi[0].chunks_mut(chunk * k)) {
            slot.push(chunk);
        }
    }

    // A panel is a run of at most `panel` of an octant's rows, and where
    // one parent row holds that many, of rows in one parent row: an
    // offset's live rows there are always one run (its x range).
    let in_rows = panel <= n_par;
    let row_len = if in_rows { n_par } else { usize::MAX };
    let row_of = |pi: u32| pi as usize / row_len;
    let cut = |rows: &[u32]| {
        let mut cuts: Vec<Range<usize>> = Vec::new();
        for (j, &pi) in rows.iter().enumerate() {
            match cuts.last_mut() {
                Some(c) if c.len() < panel && row_of(rows[c.start]) == row_of(pi) => c.end = j + 1,
                _ => cuts.push(j..j + 1),
            }
        }
        cuts
    };

    for_each_slab(slabs, &mut outs, parallel, |(&(base, ref rows), out)| {
        let cuts: [Vec<Range<usize>>; 8] = std::array::from_fn(|oct| cut(rows[oct]));
        let longest = rows.iter().map(|p| p.len()).max().unwrap_or(0);
        let cap = panel.min(longest);
        let mut src_panel = vec![0.0; cap * kr];
        let mut acc_panel = vec![0.0; cap * kr];
        let mut acc_packed = vec![0.0; cap * kr];
        // Source box of each row under the current offset.
        const OUTSIDE: usize = usize::MAX;
        let mut src_idx = vec![OUTSIDE; cap];
        // Target box of each row on the current list's source level.
        let mut targets = vec![([0i32; 3], 0isize); cap];
        let (mut n_live, mut n_copied) = (0u64, 0u64);
        for sub in 0..cuts.iter().map(Vec::len).max().unwrap_or(0) {
            for (oct, lists) in oct_lists.iter().enumerate() {
                // Rows of the panels: this panel's parents along `oct`.
                let Some(range) = cuts[oct].get(sub) else {
                    continue;
                };
                let parents = &rows[oct][range.clone()];
                let np = parents.len();
                let acc_panel = &mut acc_panel[..np * kr];
                let src_idx = &mut src_idx[..np];
                let targets = &mut targets[..np];
                let kids = &lvl.children[oct];
                acc_panel.fill(0.0);

                // ---- T3: parent inner → child inner -------------------
                if apply_t3 {
                    let at = || parents.iter().map(|&pi| pi as usize);
                    let t3 = &ts.t3t[oct];
                    if let Some((p0, step)) = solo_gemm.then(|| one_stride(at())).flatten() {
                        let a = &sources[0].local_parent[p0 * k..];
                        let m = t3.as_slice();
                        gemm_acc_strided_with(plan.kernel, np, k, k, a, step * k, m, acc_panel);
                    } else {
                        for (i, src) in sources.iter().enumerate() {
                            gather_rows(src.local_parent, at(), k, kr, &mut src_panel[i * k..]);
                        }
                        let a = &src_panel[..np * kr];
                        translate_acc(agg, plan.kernel, np * r, k, a, t3, acc_panel);
                        n_copied += (np * r) as u64;
                    }
                }

                // ---- T2: interactive field ----------------------------
                for list in lists {
                    let shift = list.shift as usize;
                    let bits = l - list.shift; // log2 of the source level's axis
                    let axis = 1u32 << bits;
                    let lin = |c: [i32; 3]| {
                        ((c[2] as isize) << (2 * bits)) + ((c[1] as isize) << bits) + c[0] as isize
                    };
                    // Each row's target box on the source level, with its
                    // linear index: an offset then only adds a constant.
                    for (target, &pi) in targets.iter_mut().zip(parents) {
                        let c = kids.coord[pi as usize].map(|x| x >> list.shift);
                        *target = (c, lin(c));
                    }
                    for (&off, &m) in list.offsets.iter().zip(&list.matrices) {
                        // A row's source box depends only on the plan, so
                        // it is located once for all instances, with the
                        // count and the first and last of the live rows.
                        let delta = lin(off);
                        let (mut nl, mut first, mut last) = (0, np, 0);
                        for (j, (si, &(c, at))) in src_idx.iter_mut().zip(&*targets).enumerate() {
                            // One unsigned compare per axis covers both ends.
                            *si = if (0..3).all(|d| ((c[d] + off[d]) as u32) < axis) {
                                (nl, first, last) = (nl + 1, first.min(j), j);
                                (at + delta) as usize
                            } else {
                                OUTSIDE
                            };
                        }
                        if nl == 0 {
                            continue;
                        }
                        n_live += nl as u64;
                        let run = last + 1 - first == nl;
                        let live = || (first..=last).filter(|&j| src_idx[j] != OUTSIDE);
                        let run_idx = || src_idx[first..=last].iter().copied();
                        let direct = solo_gemm && in_rows && run;
                        if let Some((s0, step)) = direct.then(|| one_stride(run_idx())).flatten() {
                            let a = &sources[0].far[shift][s0 * k..];
                            let acc = &mut acc_panel[first * k..(last + 1) * k];
                            let m = m.as_slice();
                            gemm_acc_strided_with(plan.kernel, nl, k, k, a, step * k, m, acc);
                            continue;
                        }
                        // Gather the live sources, packed (a run needs no
                        // filter).
                        for (i, src) in sources.iter().enumerate() {
                            let dst = &mut src_panel[i * k..];
                            if run {
                                gather_rows(src.far[shift], run_idx(), k, kr, dst);
                            } else {
                                gather_rows(src.far[shift], live().map(|j| src_idx[j]), k, kr, dst);
                            }
                        }
                        n_copied += (nl * r) as u64;
                        let a = &src_panel[..nl * kr];
                        if run {
                            let acc = &mut acc_panel[first * kr..(last + 1) * kr];
                            translate_acc(agg, plan.kernel, nl * r, k, a, m, acc);
                        } else {
                            let packed = &mut acc_packed[..nl * kr];
                            gather_rows(acc_panel, live(), kr, kr, packed);
                            translate_acc(agg, plan.kernel, nl * r, k, a, m, packed);
                            for (row, j) in packed.chunks(kr).zip(live()) {
                                acc_panel[j * kr..(j + 1) * kr].copy_from_slice(row);
                            }
                        }
                    }
                }

                // Scatter-add each parent's rows into its child, per instance.
                for (i, o) in out.iter_mut().enumerate() {
                    for (rows, &pi) in acc_panel.chunks(kr).zip(parents) {
                        let at = (kids.idx[pi as usize] as usize - base) * k;
                        for (dj, sj) in o[at..at + k].iter_mut().zip(&rows[i * k..]) {
                            *dj += sj;
                        }
                    }
                }
            }
        }
        live_rows.fetch_add(n_live, Ordering::Relaxed);
        copied_rows.fetch_add(n_copied, Ordering::Relaxed);
    });

    // Exact counts: every multiplied row is a live T2 row or a T3 row;
    // every source row gathered into a panel is copied once, and every
    // target row is scattered once. Packing accumulator rows is not
    // counted, so the flops do not depend on the blocking, and the copies
    // only on whether its panels lie within parent rows.
    let n_rows: usize = slabs
        .iter()
        .flat_map(|(_, rows)| rows)
        .map(|p| p.len())
        .sum();
    let (live, n_rows) = (live_rows.into_inner() * r as u64, (n_rows * r) as u64);
    let t3_rows = if apply_t3 { n_rows } else { 0 };
    TraversalFlops {
        t1: 0,
        t2: gemm_flops(live as usize, k, k),
        t3: gemm_flops(t3_rows as usize, k, k),
        copied: (copied_rows.into_inner() + n_rows) * k as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_sphere::SphereRule;
    use fmm_tree::{Hierarchy, Separation};

    /// A translation set serves one supernode setting (it holds only the
    /// T2 matrices that setting's traversal reaches).
    fn small_setup(
        depth: u32,
        supernodes: bool,
    ) -> (FieldHierarchy, TranslationSet, TraversalPlan) {
        let rule = SphereRule::for_order(3);
        let ts = TranslationSet::build(&rule, 4, 1.0, 1.0, Separation::Two, supernodes);
        let fh = FieldHierarchy::new(Hierarchy::new(depth), rule.len());
        let plan = TraversalPlan::build(depth, Separation::Two);
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

    #[test]
    fn upward_parallel_matches_sequential() {
        let (mut a, ts, plan) = small_setup(4, false);
        fill_pseudo(&mut a);
        let mut b = a.clone();
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        upward_pass(&mut b, &ts, &plan, Aggregation::Gemm, true);
        for l in 2..=4usize {
            for (x, y) in a.far[l].iter().zip(&b.far[l]) {
                assert!((x - y).abs() < 1e-12);
            }
        }
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
    fn downward_parallel_matches_sequential() {
        let (mut a, ts, plan) = small_setup(3, false);
        fill_pseudo(&mut a);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        let mut b = a.clone();
        downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        downward_pass(&mut b, &ts, &plan, false, Aggregation::Gemm, true);
        for l in 2..=3usize {
            for (x, y) in a.local[l].iter().zip(&b.local[l]) {
                assert!((x - y).abs() < 1e-12);
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
        // Levels 3, 2 and 1 are computed: 8·2K²·(8³ + 8² + 8) with K = 6.
        let k = 6u64;
        assert_eq!(f.t1, 8 * 2 * k * k * (512 + 64 + 8));
    }

    #[test]
    fn instances_share_panels_without_changing_bits() {
        // Three instances through the one body, sequential and with
        // parallel slabs, against each instance swept alone.
        for supernodes in [false, true] {
            let mut solo = Vec::new();
            for seed in 0..3u64 {
                let (mut fh, ts, plan) = small_setup(4, supernodes);
                fill_pseudo(&mut fh);
                fh.far[4].iter_mut().for_each(|v| *v *= 1.0 + seed as f64);
                let pristine = fh.clone();
                upward_pass(&mut fh, &ts, &plan, Aggregation::Gemm, false);
                downward_pass(&mut fh, &ts, &plan, supernodes, Aggregation::Gemm, false);
                solo.push((pristine, fh));
            }
            let (_, ts, plan) = small_setup(4, supernodes);
            for parallel in [false, true] {
                let mut fhs: Vec<FieldHierarchy> = solo.iter().map(|(p, _)| p.clone()).collect();
                for l in (1..4).rev() {
                    upward_level(&mut fhs, &ts, &plan, l, Aggregation::Gemm, parallel);
                }
                for l in 2..=4 {
                    let agg = Aggregation::Gemm;
                    downward_level(&mut fhs, &ts, &plan, supernodes, agg, parallel, l);
                }
                for (got, (_, want)) in fhs.iter().zip(&solo) {
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
                        let one = std::slice::from_mut(&mut fh);
                        let fl = upward_rows(one, &ts, &plan, l, agg, boxes);
                        check(&fh.far[li], &full.far[li], SENTINEL, "far");
                        assert_eq!(fl.t1, gemm_flops(boxes.len(), 6, 6) * 8);
                    }
                    let mut fh = full.clone();
                    fh.local[li].fill(SENTINEL);
                    let one = std::slice::from_mut(&mut fh);
                    let fl = downward_rows(one, &ts, &plan, supernodes, agg, l, boxes);
                    // The level is zeroed first, as in the full sweep.
                    check(&fh.local[li], &full.local[li], 0.0, "local");
                    assert_eq!(fl.t3, gemm_flops(boxes.len(), 6, 6) * (l >= 3) as u64);
                }
            }
        }
    }

    /// The sweep before panels followed K: per parent plane, panels of one
    /// parent row (`max(2^l, 8)` parents), instance-major, out-of-domain
    /// sources zero-filled, one dense GEMM per (panel, octant, offset).
    fn reference_level(
        fhs: &mut [FieldHierarchy],
        ts: &TranslationSet,
        plan: &TraversalPlan,
        supernodes: bool,
        l: u32,
    ) {
        let (r, k, li) = (fhs.len(), fhs[0].k, l as usize);
        let lists = resolve_offset_lists(ts, plan, supernodes);
        let lvl = plan.level(l - 1);
        for fh in fhs.iter_mut() {
            fh.local[li].fill(0.0);
        }
        for &(p0, p1) in &lvl.slabs {
            for parents in lvl.parents[p0..p1].chunks((1 << (l - 1)).max(8)) {
                let np = parents.len();
                let gemm = |src: &[f64], m: &Matrix, acc: &mut [f64]| {
                    gemm_acc_with(plan.kernel, r * np, k, k, src, m.as_slice(), acc)
                };
                for (oct, lists) in lists.iter().enumerate() {
                    let kids = &lvl.children[oct];
                    let mut src = vec![0.0; r * np * k];
                    let mut acc = vec![0.0; r * np * k];
                    if l >= 3 {
                        for (i, fh) in fhs.iter().enumerate() {
                            for (j, &pi) in parents.iter().enumerate() {
                                let row = &fh.local[li - 1][pi as usize * k..][..k];
                                src[(i * np + j) * k..][..k].copy_from_slice(row);
                            }
                        }
                        gemm(&src, &ts.t3t[oct], &mut acc);
                    }
                    for list in lists {
                        let sl = li - list.shift as usize;
                        let axis = 1i32 << sl;
                        for (&off, &m) in list.offsets.iter().zip(&list.matrices) {
                            for (i, fh) in fhs.iter().enumerate() {
                                for (j, &pi) in parents.iter().enumerate() {
                                    let c = kids.coord[pi as usize].map(|x| x >> list.shift);
                                    let s = [0, 1, 2].map(|d| c[d] + off[d]);
                                    let dst = &mut src[(i * np + j) * k..][..k];
                                    if s.iter().all(|x| (0..axis).contains(x)) {
                                        let si = ((s[2] * axis + s[1]) * axis + s[0]) as usize;
                                        dst.copy_from_slice(&fh.far[sl][si * k..][..k]);
                                    } else {
                                        dst.fill(0.0);
                                    }
                                }
                            }
                            gemm(&src, m, &mut acc);
                        }
                    }
                    for (i, fh) in fhs.iter_mut().enumerate() {
                        for (j, &pi) in parents.iter().enumerate() {
                            let ci = kids.idx[pi as usize] as usize;
                            let dst = fh.local[li][ci * k..][..k].iter_mut();
                            for (d, s) in dst.zip(&acc[(i * np + j) * k..][..k]) {
                                *d += s;
                            }
                        }
                    }
                }
            }
        }
    }

    /// `downward_level` — with the pool's blocking, sequentially, and with
    /// every blocking `extra` lists — against [`reference_level`], bit for
    /// bit, on every kernel tier, with supernodes on and off, for one and
    /// three instances. Level by level from the reference's own inputs.
    fn assert_blocked_sweep_is_reference(order: usize, depth: u32, extra: &[T2Blocking]) {
        let rule = SphereRule::for_order(order);
        let k = rule.len();
        for supernodes in [false, true] {
            let ts = TranslationSet::build(&rule, order, 1.0, 1.0, Separation::Two, supernodes);
            for kernel in Kernel::available() {
                let plan = TraversalPlan::build_with(depth, Separation::Two, kernel);
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
                        let input = want.clone();
                        reference_level(&mut want, &ts, &plan, supernodes, l);
                        let pool = [(false, None), (true, None)].into_iter();
                        let runs = pool.chain(extra.iter().map(|&b| (true, Some(b))));
                        for (parallel, blocking) in runs {
                            let mut got = input.clone();
                            let agg = Aggregation::Gemm;
                            let fl = match blocking {
                                Some(b) => downward_blocked(
                                    &mut got, &ts, &plan, supernodes, agg, parallel, l, b,
                                ),
                                None => downward_level(
                                    &mut got, &ts, &plan, supernodes, agg, parallel, l,
                                ),
                            };
                            let rows = plan.level(l - 1).t2_rows[supernodes as usize];
                            assert_eq!(fl.t2, rows * gemm_flops(r, k, k));
                            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                                for (x, y) in g.local[li].iter().zip(&w.local[li]) {
                                    assert_eq!(
                                        x.to_bits(),
                                        y.to_bits(),
                                        "K={k} {kernel:?} supernodes={supernodes} R={r} \
                                         instance {i} level {l} parallel={parallel} {blocking:?}"
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

    #[test]
    fn empty_far_field_stays_zero() {
        let (mut a, ts, plan) = small_setup(3, false);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        assert!(a.local[3].iter().all(|&x| x == 0.0));
    }
}
