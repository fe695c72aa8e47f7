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
//! width changes a bit of any row (the Serial/Rayon/SPMD bitwise suites,
//! which compare one-row GEMMs against panels, pin this).
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

/// Gather the children `cidx[p0..p1]` (one octant of parents `p0..p1`) of
/// a whole child level `src` into a `(p1-p0) × k` panel.
fn gather_children(src: &[f64], cidx: &[u32], p0: usize, p1: usize, k: usize, panel: &mut [f64]) {
    debug_assert_eq!(panel.len(), (p1 - p0) * k);
    for (row, pi) in (p0..p1).enumerate() {
        let ci = cidx[pi] as usize;
        panel[row * k..(row + 1) * k].copy_from_slice(&src[ci * k..(ci + 1) * k]);
    }
}

/// Scatter-add a `(p1-p0) × k` panel into the children `cidx[p0..p1]`,
/// where `dst` is the slice of the child level starting at child box index
/// `dst_base`.
fn scatter_add_children(
    dst: &mut [f64],
    dst_base: usize,
    cidx: &[u32],
    p0: usize,
    p1: usize,
    k: usize,
    panel: &[f64],
) {
    for (row, pi) in (p0..p1).enumerate() {
        let ci = cidx[pi] as usize - dst_base;
        let d = &mut dst[ci * k..(ci + 1) * k];
        for (dj, sj) in d.iter_mut().zip(&panel[row * k..(row + 1) * k]) {
            *dj += sj;
        }
    }
}

/// Run `do_slab` over the slabs of a level, each with the output chunks
/// (one per instance) that slab owns.
fn for_each_slab<'a, F>(
    slabs: &[(usize, usize)],
    outs: &mut [Vec<&'a mut [f64]>],
    parallel: bool,
    do_slab: F,
) where
    F: Fn((&(usize, usize), &mut Vec<&'a mut [f64]>)) + Sync + Send,
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

/// One parent level of the upward pass, for every instance of `fhs`:
/// combine the children at level `l + 1` into the parents at level `l`,
/// which are overwritten. Per (slab, octant) all instances' child panels
/// are gathered into one instance-major panel and translated together.
/// Public so the SPMD backend's rank-0 Multigrid-embed region runs the
/// identical per-level code.
pub fn upward_level(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    l: u32,
    agg: Aggregation,
    parallel: bool,
) -> TraversalFlops {
    let r = fhs.len();
    let k = fhs[0].k;
    let n_parents = fhs[0].hierarchy.boxes_at_level(l);
    let lvl = plan.level(l);
    let slabs = &lvl.slabs;
    let plane = slabs[0].1 - slabs[0].0;

    // Per instance: the child level to read, and the parent level cut
    // into the chunks the slabs own.
    let mut children: Vec<&[f64]> = Vec::with_capacity(r);
    let mut outs: Vec<Vec<&mut [f64]>> = slabs.iter().map(|_| Vec::with_capacity(r)).collect();
    for fh in fhs.iter_mut() {
        let (lo, hi) = fh.far.split_at_mut(l as usize + 1);
        children.push(&hi[0]);
        for (slot, chunk) in outs.iter_mut().zip(lo[l as usize].chunks_mut(plane * k)) {
            slot.push(chunk);
        }
    }

    for_each_slab(slabs, &mut outs, parallel, |(&(p0, p1), out)| {
        let np = p1 - p0;
        let mut panel = vec![0.0; r * np * k];
        let mut acc = vec![0.0; r * np * k];
        for oct in 0..8 {
            let cidx = &lvl.children[oct].idx;
            for (src, rows) in children.iter().zip(panel.chunks_mut(np * k)) {
                gather_children(src, cidx, p0, p1, k, rows);
            }
            translate_acc(agg, plan.kernel, r * np, k, &panel, &ts.t1t[oct], &mut acc);
        }
        for (o, rows) in out.iter_mut().zip(acc.chunks(np * k)) {
            o.copy_from_slice(rows);
        }
    });

    TraversalFlops {
        t1: gemm_flops(n_parents, k, k) * 8 * r as u64,
        copied: (n_parents * 8 * k * r) as u64,
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
    let t2_at =
        |i: &u32| -> &'a Matrix { ts.t2t[*i as usize].as_ref().expect("interactive offset") };
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
                            .map(|key| &ts.t2t_super[key])
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
/// ([`PANEL_MIN_PARENTS`]); per (sub-panel, octant, offset) the source
/// geometry — offset application, domain bounds, the all-rows-invalid
/// skip — is computed once and every instance's rows go through one GEMM.
/// Public for the SPMD backend's rank-0 embed region, like
/// [`upward_level`].
pub fn downward_level(
    fhs: &mut [FieldHierarchy],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    supernodes: bool,
    agg: Aggregation,
    parallel: bool,
    l: u32,
) -> TraversalFlops {
    let r = fhs.len();
    let k = fhs[0].k;
    let n_boxes = fhs[0].hierarchy.boxes_at_level(l);
    let oct_lists = resolve_offset_lists(ts, plan, supernodes);
    let l_parent = l - 1;
    let lvl = plan.level(l_parent);
    let slabs = &lvl.slabs;
    let parent_plane = slabs[0].1 - slabs[0].0;
    let child_chunk = parent_plane * 8 * k; // children of one parent plane
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
        for (slot, chunk) in outs.iter_mut().zip(hi[0].chunks_mut(child_chunk)) {
            slot.push(chunk);
        }
    }

    for_each_slab(slabs, &mut outs, parallel, |(&(p0, p1), out)| {
        let step = n_par.max(PANEL_MIN_PARENTS).min(p1 - p0);
        let mut src_panel = vec![0.0; r * step * k];
        let mut acc_panel = vec![0.0; r * step * k];
        // Source box of each row under the current offset.
        const OUTSIDE: usize = usize::MAX;
        let mut src_idx = vec![OUTSIDE; step];
        // Target box of each row on the current list's source level.
        let mut targets = vec![([0i32; 3], 0isize); step];
        for s0 in (p0..p1).step_by(step) {
            let s1 = (s0 + step).min(p1);
            let np = s1 - s0;
            let src_panel = &mut src_panel[..r * np * k];
            let acc_panel = &mut acc_panel[..r * np * k];
            let src_idx = &mut src_idx[..np];
            let targets = &mut targets[..np];
            for (oct, lists) in oct_lists.iter().enumerate() {
                acc_panel.fill(0.0);

                // ---- T3: parent inner → child inner -------------------
                if apply_t3 {
                    for (src, panel) in sources.iter().zip(src_panel.chunks_mut(np * k)) {
                        panel.copy_from_slice(&src.local_parent[s0 * k..s1 * k]);
                    }
                    let t3 = &ts.t3t[oct];
                    translate_acc(agg, plan.kernel, r * np, k, src_panel, t3, acc_panel);
                }

                // ---- T2: interactive field ----------------------------
                // Targets: the octant-`oct` children of parents s0..s1, in
                // parent order (rows of the panels); their coordinates come
                // straight from the plan's child map.
                let coords = &lvl.children[oct].coord[s0..s1];
                for list in lists {
                    let bits = l - list.shift; // log2 of the source level's axis
                    let axis = 1u32 << bits;
                    let lin = |c: [i32; 3]| {
                        ((c[2] as isize) << (2 * bits)) + ((c[1] as isize) << bits) + c[0] as isize
                    };
                    // Each row's target box on the source level, with its
                    // linear index: an offset then only adds a constant.
                    for (target, t) in targets.iter_mut().zip(coords) {
                        let c = t.map(|x| x >> list.shift);
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
                let cidx = &lvl.children[oct].idx;
                for (o, panel) in out.iter_mut().zip(acc_panel.chunks(np * k)) {
                    scatter_add_children(o, p0 * 8, cidx, s0, s1, k, panel);
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
    let level_gemm = gemm_flops(n_boxes, k, k) * r as u64;
    TraversalFlops {
        t1: 0,
        t2: per_box_t2 * level_gemm,
        t3: if apply_t3 { level_gemm } else { 0 },
        copied: (n_boxes * k * r) as u64 * (per_box_t2 + 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_sphere::SphereRule;
    use fmm_tree::{Hierarchy, Separation};

    fn small_setup(depth: u32) -> (FieldHierarchy, TranslationSet, TraversalPlan) {
        let rule = SphereRule::for_order(3);
        let ts = TranslationSet::build(&rule, 4, 1.0, 1.0, Separation::Two, true);
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
        let (mut a, ts, plan) = small_setup(4);
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
        let (mut a, ts, plan) = small_setup(3);
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
        let (mut a, ts, plan) = small_setup(3);
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
        let (mut a, ts, plan) = small_setup(3);
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
        let (mut a, ts, plan) = small_setup(3);
        fill_pseudo(&mut a);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        let mut b = a.clone();
        let plain = downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        let sup = downward_pass(&mut b, &ts, &plan, true, Aggregation::Gemm, false);
        assert!(sup.t2 < plain.t2, "{} !< {}", sup.t2, plain.t2);
        assert!(b.local[3].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn upward_flops_counted() {
        let (mut a, ts, plan) = small_setup(4);
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
                let (mut fh, ts, plan) = small_setup(4);
                fill_pseudo(&mut fh);
                fh.far[4].iter_mut().for_each(|v| *v *= 1.0 + seed as f64);
                let pristine = fh.clone();
                upward_pass(&mut fh, &ts, &plan, Aggregation::Gemm, false);
                downward_pass(&mut fh, &ts, &plan, supernodes, Aggregation::Gemm, false);
                solo.push((pristine, fh));
            }
            let (_, ts, plan) = small_setup(4);
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
    fn empty_far_field_stays_zero() {
        let (mut a, ts, plan) = small_setup(3);
        upward_pass(&mut a, &ts, &plan, Aggregation::Gemm, false);
        downward_pass(&mut a, &ts, &plan, false, Aggregation::Gemm, false);
        assert!(a.local[3].iter().all(|&x| x == 0.0));
    }
}
