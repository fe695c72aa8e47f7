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
use crate::plan::TraversalPlan;
use crate::translations::TranslationSet;
use fmm_linalg::{gemm_acc_with, gemm_flops, Kernel, Matrix};
use fmm_tree::BoxCoord;
use rayon::prelude::*;

/// Flop counters from a traversal.
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

/// Parents per T2 sub-panel, at least: a slab is walked in sub-panels of
/// one parent row (`max(2^l, 8)` parents), so the source and accumulator
/// panels stay cache-resident across the hundreds of offsets of an
/// octant, where a whole slab's panels stream through memory once per
/// offset. A constant, not a knob: see DESIGN.md §5.5 for the numbers.
const PANEL_MIN_PARENTS: usize = 8;

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

/// Gather the k-sample rows `idx` of a whole level `src` into a panel.
fn gather_rows(src: &[f64], idx: impl Iterator<Item = usize>, k: usize, panel: &mut [f64]) {
    for (dst, i) in panel.chunks_mut(k).zip(idx) {
        dst.copy_from_slice(&src[i * k..(i + 1) * k]);
    }
}

/// Scatter-add a panel into the children `cidx[p]` of `parents`, where
/// `dst` is the slice of the child level starting at child box index
/// `dst_base`.
fn scatter_add_children(
    dst: &mut [f64],
    dst_base: usize,
    cidx: &[u32],
    parents: &[u32],
    k: usize,
    panel: &[f64],
) {
    for (&pi, row) in parents.iter().zip(panel.chunks(k)) {
        let ci = cidx[pi as usize] as usize - dst_base;
        for (dj, sj) in dst[ci * k..(ci + 1) * k].iter_mut().zip(row) {
            *dj += sj;
        }
    }
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
    // Every parent is a target: the plan's slabs over an identity list.
    let ident: Vec<u32> = (0..1u32 << (3 * l)).collect();
    let slabs = plan.level(l).slabs.iter();
    let slabs: Vec<_> = slabs.map(|&(p0, p1)| (p0, &ident[p0..p1])).collect();
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
                    gather_rows(src, kids(), k, panel);
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
/// is zeroed first. Each slab is walked in sub-panels of one parent row
/// (`PANEL_MIN_PARENTS`); per (sub-panel, octant, offset) the source
/// geometry — offset application, domain bounds, the all-rows-invalid
/// skip — is computed once and every instance's rows go through one GEMM.
pub fn downward_level(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    parallel: bool,
    l: u32,
) -> TraversalFlops {
    // Every box is a target: along each octant, the plan's slabs over an
    // identity parent list.
    let ident: Vec<u32> = (0..1u32 << (3 * (l - 1))).collect();
    let slabs = plan.level(l - 1).slabs.iter();
    let slabs: Vec<_> = slabs
        .map(|&(p0, p1)| (p0 * 8, [&ident[p0..p1]; 8]))
        .collect();
    downward_sweep(fhs, ts, plan, supernodes, agg, parallel, l, &slabs)
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
    let rows = std::array::from_fn(|oct| parents[oct].as_slice());
    downward_sweep(fhs, ts, plan, supernodes, agg, false, l, &[(0, rows)])
}

/// The downward body. A slab's rows are, per octant, the parents whose
/// child along that octant is a target; the child's index and coordinate
/// come from the plan's child map.
#[allow(clippy::too_many_arguments)]
fn downward_sweep(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    parallel: bool,
    l: u32,
    slabs: &[Slab<[&[u32]; 8]>],
) -> TraversalFlops {
    let r = fhs.len();
    let k = fhs[0].k;
    let oct_lists = resolve_offset_lists(ts, plan, supernodes);
    let l_parent = l - 1;
    let lvl = plan.level(l_parent);
    let chunk = fhs[0].hierarchy.boxes_at_level(l) / slabs.len();
    let n_par = 1usize << l_parent; // parent-level axis length
    let apply_t3 = l >= 3; // local field is zero above level 2

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

    for_each_slab(slabs, &mut outs, parallel, |(&(base, ref rows), out)| {
        let longest = rows.iter().map(|p| p.len()).max().unwrap_or(0);
        let step = n_par.max(PANEL_MIN_PARENTS);
        let cap = step.min(longest);
        let mut src_panel = vec![0.0; r * cap * k];
        let mut acc_panel = vec![0.0; r * cap * k];
        // Source box of each row under the current offset.
        const OUTSIDE: usize = usize::MAX;
        let mut src_idx = vec![OUTSIDE; cap];
        // Target box of each row on the current list's source level.
        let mut targets = vec![([0i32; 3], 0isize); cap];
        for sub in 0..longest.div_ceil(step) {
            for (oct, lists) in oct_lists.iter().enumerate() {
                // Rows of the panels: this sub-panel's parents along `oct`.
                let Some(parents) = rows[oct].chunks(step).nth(sub) else {
                    continue;
                };
                let np = parents.len();
                let src_panel = &mut src_panel[..r * np * k];
                let acc_panel = &mut acc_panel[..r * np * k];
                let src_idx = &mut src_idx[..np];
                let targets = &mut targets[..np];
                let kids = &lvl.children[oct];
                acc_panel.fill(0.0);

                // ---- T3: parent inner → child inner -------------------
                if apply_t3 {
                    let at = || parents.iter().map(|&pi| pi as usize);
                    for (src, panel) in sources.iter().zip(src_panel.chunks_mut(np * k)) {
                        gather_rows(src.local_parent, at(), k, panel);
                    }
                    let t3 = &ts.t3t[oct];
                    translate_acc(agg, plan.kernel, r * np, k, src_panel, t3, acc_panel);
                }

                // ---- T2: interactive field ----------------------------
                for list in lists {
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
                        // it is located once for all instances.
                        let delta = lin(off);
                        let mut any = false;
                        for (si, &(c, base)) in src_idx.iter_mut().zip(targets.iter()) {
                            // One unsigned compare per axis covers both ends.
                            *si = if (0..3).all(|d| ((c[d] + off[d]) as u32) < axis) {
                                any = true;
                                (base + delta) as usize
                            } else {
                                OUTSIDE
                            };
                        }
                        if !any {
                            continue;
                        }
                        // Gather sources; out-of-domain sources are zero.
                        for (src, panel) in sources.iter().zip(src_panel.chunks_mut(np * k)) {
                            let far = src.far[list.shift as usize];
                            for (dst, &si) in panel.chunks_mut(k).zip(src_idx.iter()) {
                                if si == OUTSIDE {
                                    dst.fill(0.0);
                                } else {
                                    dst.copy_from_slice(&far[si * k..(si + 1) * k]);
                                }
                            }
                        }
                        translate_acc(agg, plan.kernel, r * np, k, src_panel, m, acc_panel);
                    }
                }

                // Scatter the accumulated panel into each instance's children.
                for (o, panel) in out.iter_mut().zip(acc_panel.chunks(np * k)) {
                    scatter_add_children(o, base, &kids.idx, parents, k, panel);
                }
            }
        }
    });

    // Flop accounting (interior-box counts; boundary boxes do less).
    let per_box_t2 = if supernodes {
        plan.octants[0].sn_translation_count as u64
    } else {
        plan.octants[0].offsets.len() as u64
    };
    let n_rows: usize = slabs
        .iter()
        .flat_map(|(_, rows)| rows)
        .map(|p| p.len())
        .sum();
    let level_gemm = gemm_flops(n_rows, k, k) * r as u64;
    TraversalFlops {
        t1: 0,
        t2: per_box_t2 * level_gemm,
        t3: if apply_t3 { level_gemm } else { 0 },
        copied: (n_rows * k * r) as u64 * (per_box_t2 + 2),
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

    #[test]
    fn empty_far_field_stays_zero() {
        let (mut a, ts, plan) = small_setup(3, false);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        assert!(a.local[3].iter().all(|&x| x == 0.0));
    }
}
