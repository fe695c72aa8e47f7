//! Near-field direct evaluation (§3.4).
//!
//! At the optimal hierarchy depth the direct evaluation in the near field
//! accounts for about half of all arithmetic, so its efficiency is crucial.
//! The particle–particle interactions are structured as neighbour box–box
//! interactions over the two-separation neighbourhood (124 neighbours);
//! exploiting Newton's third law halves that to 62
//! box–box interactions (the paper's Fig. 10 traversal).
//!
//! Two sweeps are production paths, and each has one body that every
//! executor runs — the Serial/Rayon driver over its own binning, an SPMD
//! worker over its cell store laid out row-major. No sweep takes an
//! executor: its loop is a pool loop, one piece on the calling thread
//! under [`crate::serially`] (`Executor::Serial`, every SPMD rank):
//!
//! * **potentials** — the symmetric row sweep ([`near_field_rows`], over
//!   part of the grid [`symmetric_rows`]), f64 or on an f32 mirror. It
//!   keeps the paper's 62 third-law box pairs per box, but sweeps them by
//!   *rows*: each target box exchanges with the ≤ 13 runs of its half
//!   stencil H ([`fmm_tree::half_stencil`]), all after it in row-major
//!   order, writing both ends into one output array through the
//!   two-target exchange panel. Leaf planes coloured by z mod 3 are
//!   conflict-free pool tasks. The paper resolves the conflicts with a
//!   travelling accumulator instead; an SPMD rank resolves its boundary
//!   by also running the *ghost targets* whose rows reach its boxes
//!   ([`TargetRole`]). The driver sweeps any number of same-depth
//!   particle sets together, deriving the geometry once;
//! * **forces** — the target-centric sweep
//!   ([`near_field_forces_softened_with`], per box
//!   [`near_field_forces_box`]): parallel over target boxes without write
//!   conflicts at the full 124-neighbour pair count, swept in pieces of
//!   near-equal pair count on the plan's kernel. A target gathers one
//!   neighbour *row* at a time — the 2d+1 boxes of one x-row, one run of
//!   a binning or of a row-major SPMD cell store (read through a [`Cells`]
//!   range lookup) — so 26 calls instead of 126, and pairs of targets
//!   share every row but their own through the two-target force panel.
//!
//! [`near_field_potentials_softened`] is the same target-centric sweep
//! with the potential gather: the oracle of the symmetric sweep and the
//! one-sided side of experiment E13. [`near_field_symmetric`] is the
//! sequential third-law sweep: the correctness oracle and the flop-count
//! reference for E13.
//!
//! The innermost particle–particle loops stream the SoA coordinate arrays
//! through the [`fmm_linalg::pairwise`] rsqrt microkernels (scalar, AVX2,
//! AVX-512, or NEON), dispatched per sweep by the [`Kernel`] recorded on
//! the traversal plan. The mixed-precision (f32 near field) sweeps live in
//! [`crate::near32`].

use crate::near32::ParticlesF32;
use crate::particles::BinnedParticles;
use crate::serially;
use fmm_linalg::{pairwise, Kernel};
use fmm_tree::{near_field_offsets, BoxCoord, Separation, NEAR_FIELD_SIZE, SEPARATION};
use rayon::prelude::*;
use std::ops::Range;

/// The pair flop counts, one definition with the cost model's.
pub use fmm_tree::partition::{PAIR_FLOPS, PAIR_FORCE_FLOPS};

/// Counters from a near-field sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NearFieldStats {
    /// Particle pair interactions evaluated (symmetric pairs counted
    /// once).
    pub pair_interactions: u64,
    /// Box–box interactions processed (self-box counted once).
    pub box_pairs: u64,
    /// Flops charged.
    pub flops: u64,
}

impl NearFieldStats {
    /// Accumulate another sweep's counters (batched evaluation sums its
    /// per-request sweeps).
    pub fn merge(&mut self, other: &NearFieldStats) {
        self.pair_interactions += other.pair_interactions;
        self.box_pairs += other.box_pairs;
        self.flops += other.flops;
    }
}

/// Leaf cells as flat SoA arrays with a per-box range lookup: what the
/// target-centric bodies read their sources through.
/// [`BinnedParticles::cells`] is a binning's own sorted arrays; an SPMD
/// worker hands in its cell store, where the force rows find every cell
/// in row-major order.
pub struct Cells<'a, L, T = f64> {
    x: &'a [T],
    y: &'a [T],
    z: &'a [T],
    q: &'a [T],
    range: L,
}

impl<'a, L: Fn(usize) -> Range<usize>, T> Cells<'a, L, T> {
    /// `range(b)` is the run of leaf box `b`'s particles in the four
    /// equally long arrays, empty if it has none.
    pub fn new(x: &'a [T], y: &'a [T], z: &'a [T], q: &'a [T], range: L) -> Self {
        assert!(x.len() == y.len() && y.len() == z.len() && z.len() == q.len());
        Cells { x, y, z, q, range }
    }
}

impl BinnedParticles {
    /// The binning's own cells: the sorted arrays under [`Self::range`].
    pub fn cells(&self) -> Cells<'_, impl Fn(usize) -> Range<usize> + '_> {
        Cells::new(&self.x, &self.y, &self.z, &self.q, |b| self.range(b))
    }
}

/// Split a buffer into per-box mutable slices following the binning CSR.
pub(crate) fn per_box_slices<'a, T>(
    bp: &BinnedParticles,
    mut buf: &'a mut [T],
) -> Vec<&'a mut [T]> {
    let n_boxes = bp.binning.starts.len() - 1;
    let mut out = Vec::with_capacity(n_boxes);
    let mut consumed = 0usize;
    for b in 0..n_boxes {
        let len = bp.binning.count(b);
        let (head, tail) = buf.split_at_mut(len);
        out.push(head);
        buf = tail;
        consumed += len;
    }
    debug_assert_eq!(consumed, bp.len());
    out
}

/// Target-centric near-field potentials: every target gathers from its own
/// box and all two-separation neighbours, one [`pairwise::gather_with`] per
/// neighbour row, on the sweep the forces run (`target_box`). `out` is
/// in **sorted** particle order. Parallelizes over cost-balanced pieces of
/// target boxes with no write conflicts. The oracle of the symmetric
/// sweep and the target-centric side of experiment E13.
pub fn near_field_potentials(bp: &BinnedParticles, out: &mut [f64]) -> NearFieldStats {
    near_field_potentials_softened(bp, 0.0, out)
}

/// [`near_field_potentials`] with Plummer softening: the pairwise kernel
/// becomes q/√(r² + ε²). Softening only touches the near field — with
/// ε well below the leaf box side the far-field approximations are
/// unaffected (their sources sit at distance ≥ (d+1−ρ)·side, so the
/// relative perturbation is O(ε²/r²)).
pub fn near_field_potentials_softened(
    bp: &BinnedParticles,
    eps: f64,
    out: &mut [f64],
) -> NearFieldStats {
    let sum = Potentials {
        kernel: Kernel::detect(),
        eps2: eps * eps,
    };
    target_sweep(bp, &bp.cells(), &sum, out, None)
}

/// Symmetric near field exploiting Newton's third law: each unordered box
/// pair is visited once (62 of the 124 neighbours, via the
/// lexicographically-positive half of the offset set), and both boxes'
/// particles are updated. Sequential and scalar — the paper's CM version
/// resolves the write conflicts with a travelling accumulator, the row
/// sweep with plane colours; this form exists to measure the ~2× pair
/// reduction (experiment E13) and as a reference result.
pub fn near_field_symmetric(bp: &BinnedParticles) -> (Vec<f64>, NearFieldStats) {
    let mut out = vec![0.0; bp.len()];
    let level = bp.level;
    let n_boxes = bp.binning.starts.len() - 1;
    let mut st = NearFieldStats::default();
    // Positive half: offsets that are lexicographically greater than zero.
    let half: Vec<[i32; 3]> = near_field_offsets()
        .into_iter()
        .filter(|o| *o > [0, 0, 0])
        .collect();
    debug_assert_eq!(half.len(), NEAR_FIELD_SIZE / 2);

    for b in 0..n_boxes {
        let t = BoxCoord::from_index(level, b);
        let t_range = bp.range(b);
        if t_range.is_empty() {
            continue;
        }
        // Own box, symmetric.
        {
            let (t0, t1) = (t_range.start, t_range.end);
            let mut local = vec![0.0; t1 - t0];
            let cells = [&bp.x, &bp.y, &bp.z, &bp.q].map(|a| &a[t_range.clone()]);
            st.pair_interactions += self_box(Kernel::Scalar, cells, 0.0, &mut local);
            st.box_pairs += 1;
            for (i, v) in local.into_iter().enumerate() {
                out[t0 + i] += v;
            }
        }
        for &d in &half {
            if let Some(s) = t.offset(d) {
                let s_range = bp.range(s.index());
                if s_range.is_empty() {
                    continue;
                }
                st.box_pairs += 1;
                // Both directions in one sweep over pairs.
                for ti in t_range.clone() {
                    let (tx, ty, tz, tq) = (bp.x[ti], bp.y[ti], bp.z[ti], bp.q[ti]);
                    let mut acc = 0.0;
                    for si in s_range.clone() {
                        let dx = tx - bp.x[si];
                        let dy = ty - bp.y[si];
                        let dz = tz - bp.z[si];
                        let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz).sqrt();
                        acc += bp.q[si] * inv_r;
                        out[si] += tq * inv_r;
                    }
                    out[ti] += acc;
                    st.pair_interactions += s_range.len() as u64;
                }
            }
        }
    }
    st.flops = st.pair_interactions * PAIR_FLOPS;
    (out, st)
}

/// What the traversal plan records for the near field: the leaf level,
/// whose z mod 3 planes are the symmetric sweep's colours. The type stays
/// because `benchmark/` passes `TraversalPlan::near_schedule` to
/// [`crate::near_field_potentials_f32`] (ROADMAP item 1).
#[derive(Debug, Clone)]
pub struct ColorSchedule {
    /// Hierarchy level this schedule was built for.
    pub level: u32,
}

impl ColorSchedule {
    /// The record for the leaf boxes of `level`.
    pub fn build(level: u32) -> Self {
        ColorSchedule { level }
    }
}

#[inline]
pub(crate) fn add_stats(mut a: NearFieldStats, b: NearFieldStats) -> NearFieldStats {
    a.merge(&b);
    a
}

/// Lane precision of the symmetric sweep: one target exchanging with a run
/// of sources, and a panel of targets against one run, in `Self`. Each
/// call's target partial and each source term joins its f64 output
/// widened (f32 partials per call, as [`crate::near32`] documents).
pub(crate) trait Lane: Copy + Send + Sync {
    /// The target's sum over `src`, returned; each source's term is added
    /// into its slot of `s_out`.
    fn one(kernel: Kernel, t: [Self; 4], eps2: Self, src: [&[Self]; 4], s_out: &mut [f64]) -> f64;
    /// [`Self::one`] for every target of `tgt`, each sum added into its
    /// slot of `t_out`.
    fn panel(
        kernel: Kernel,
        tgt: [&[Self]; 4],
        eps2: Self,
        src: [&[Self]; 4],
        t_out: &mut [f64],
        s_out: &mut [f64],
    );
}

impl Lane for f64 {
    fn one(kernel: Kernel, t: [f64; 4], eps2: f64, src: [&[f64]; 4], s_out: &mut [f64]) -> f64 {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (t, src);
        pairwise::exchange_with(kernel, tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out)
    }
    fn panel(
        kernel: Kernel,
        tgt: [&[f64]; 4],
        eps2: f64,
        src: [&[f64]; 4],
        t_out: &mut [f64],
        s_out: &mut [f64],
    ) {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (tgt, src);
        pairwise::exchange_panel_with(kernel, tx, ty, tz, tq, eps2, xs, ys, zs, qs, t_out, s_out)
    }
}

impl Lane for f32 {
    fn one(kernel: Kernel, t: [f32; 4], eps2: f32, src: [&[f32]; 4], s_out: &mut [f64]) -> f64 {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (t, src);
        let p = pairwise::exchange_f32_with(kernel, tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out);
        f64::from(p)
    }
    fn panel(
        kernel: Kernel,
        tgt: [&[f32]; 4],
        eps2: f32,
        src: [&[f32]; 4],
        t_out: &mut [f64],
        s_out: &mut [f64],
    ) {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (tgt, src);
        let k = kernel;
        pairwise::exchange_f32_panel_with(k, tx, ty, tz, tq, eps2, xs, ys, zs, qs, t_out, s_out)
    }
}

/// Potentials within one box, pairwise symmetric, excluding self terms:
/// each particle exchanges with the run after it in the box, `out` being
/// the box's. Returns the pairs.
fn self_box<T: Lane>(kernel: Kernel, [x, y, z, q]: [&[T]; 4], eps2: T, out: &mut [f64]) -> u64 {
    for a in 0..x.len() {
        let (o, after) = out[a..].split_first_mut().expect("out holds the box");
        let b = a + 1..;
        let src = [&x[b.clone()], &y[b.clone()], &z[b.clone()], &q[b]];
        *o += T::one(kernel, [x[a], y[a], z[a], q[a]], eps2, src, after);
    }
    let n = x.len() as u64;
    n * n.saturating_sub(1) / 2
}

/// Leaf cells in row-major cell order, what the symmetric sweep reads:
/// the particles `[x, y, z, q]` of cell `b` at `starts[b]..starts[b + 1]`
/// of the four arrays. A binning's own arrays and CSR are one; an SPMD
/// rank's cell store, laid out row-major, is another, its absent cells
/// empty.
#[derive(Clone, Copy)]
pub struct RowCells<'a, T = f64> {
    soa: [&'a [T]; 4],
    starts: &'a [u32],
}

impl<'a, T> RowCells<'a, T> {
    /// Panics unless the four arrays are equally long and `starts` is a
    /// nondecreasing cover of them.
    pub fn new(soa: [&'a [T]; 4], starts: &'a [u32]) -> Self {
        let n = soa[0].len();
        assert!(soa.iter().all(|a| a.len() == n), "four equal arrays");
        assert!(starts.first() == Some(&0) && starts.last() == Some(&(n as u32)));
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "starts ascend");
        RowCells { soa, starts }
    }

    /// The particles of the cells `boxes`, one run.
    fn run(&self, boxes: Range<usize>) -> Range<usize> {
        self.starts[boxes.start] as usize..self.starts[boxes.end] as usize
    }

    fn arrays(&self, run: Range<usize>) -> [&'a [T]; 4] {
        self.soa.map(|a| &a[run.clone()])
    }
}

impl BinnedParticles {
    /// The binning's own arrays as row-major cells.
    pub fn row_cells(&self) -> RowCells<'_> {
        RowCells::new([&self.x, &self.y, &self.z, &self.q], &self.binning.starts)
    }
}

/// What a leaf box is in a symmetric sweep over part of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetRole {
    /// Not a target: its H-rows reach no box that is computed here.
    Skip,
    /// Computed here: the self pass, then the whole half stencil.
    Own,
    /// A *ghost target*: computed elsewhere, run here over those of its
    /// H-rows that hold an owned box, for the source-side terms they add
    /// to them. Its own outputs are discarded.
    Ghost,
}

/// Counters of a symmetric sweep. `own` counts the owned targets' pairs
/// and box pairs (self pass included) and charges the flops of the pairs
/// with an owned box at one end: all of a self pair's, half of any other
/// (the target's half if the target is owned, the source's if the source
/// is). Each sums over any split of the grid to the whole sweep's, and
/// the flops charged to a box do not depend on which way H points.
/// `ghost` counts the ghost targets' pairs, box pairs and flops apart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    pub own: NearFieldStats,
    pub ghost: NearFieldStats,
}

fn add_sweep(mut a: SweepStats, b: SweepStats) -> SweepStats {
    a.own.merge(&b.own);
    a.ghost.merge(&b.ghost);
    a
}

// A pair's flops split evenly between its two boxes.
const _: () = assert!(PAIR_FLOPS.is_multiple_of(2));

/// Most rows of the half stencil: the own row's tail and 12 others.
const HALF_ROWS: usize = 13;

/// The potentials of each instance split into one slab per task: planes
/// `first`, `first + stride`, … of `level`, each slab running to the next
/// task's plane (or the end), so that a target in the task's plane owns
/// everything its H-rows write while no other task runs. With `stride`
/// 3 the planes of one colour; with 1 one plane each.
fn plane_slabs<'o, T>(
    insts: &[RowCells<'_, T>],
    outs: &'o mut [&mut [f64]],
    level: u32,
    first: u32,
    stride: u32,
) -> Vec<(u32, Vec<&'o mut [f64]>)> {
    let side = 1u32 << level;
    let plane = |c: &RowCells<'_, T>, z: u32| c.starts[(z.min(side) as usize) << (2 * level)];
    let mut rest: Vec<&'o mut [f64]> = outs.iter_mut().map(|o| &mut o[..]).collect();
    for (r, c) in rest.iter_mut().zip(insts) {
        *r = &mut std::mem::take(r)[plane(c, first) as usize..];
    }
    let mut tasks = Vec::new();
    for z in (first..side).step_by(stride as usize) {
        let slabs = rest.iter_mut().zip(insts).map(|(r, c)| {
            let len = (plane(c, z + stride) - plane(c, z)) as usize;
            let (slab, tail) = std::mem::take(r).split_at_mut(len);
            *r = tail;
            slab
        });
        tasks.push((z, slabs.collect()));
    }
    tasks
}

/// The symmetric near field by rows over `R` same-depth instances, each
/// writing both ends of every pair into its own `outs[i]` (sorted particle
/// order). The order is part of the definition, and depends on the depth
/// alone:
///
/// 1. the self pass of every [`TargetRole::Own`] box;
/// 2. colours 0, 1, 2 — the leaf planes with z mod 3 equal to it — and
///    within a colour the targets in z, y, x order, each running its
///    in-domain H-rows ([`fmm_tree::half_stencil`]) in stencil order: one
///    panel exchange of the box's particles against the row's run.
///
/// A target in plane z writes planes z … z + 2 only, so the planes of one
/// colour are pool tasks over disjoint slabs of the outputs, and within a
/// slab the target's run lies before its sources: every output element
/// receives its terms in the order above on any number of threads, and an
/// instance's bits do not depend on `R`. The geometry of each target is
/// computed once; the instances loop innermost.
pub(crate) fn symmetric_sweep<T: Lane>(
    kernel: Kernel,
    level: u32,
    eps2: T,
    insts: &[RowCells<'_, T>],
    outs: &mut [&mut [f64]],
    role: &(impl Fn(usize) -> TargetRole + Sync),
) -> SweepStats {
    assert_eq!(insts.len(), outs.len());
    for (c, o) in insts.iter().zip(outs.iter()) {
        assert_eq!(
            c.starts.len(),
            (1 << (3 * level)) + 1,
            "one run per leaf box"
        );
        assert_eq!(o.len(), c.soa[0].len());
    }
    let (side, plane_boxes) = (1i32 << level, 1usize << (2 * level));
    let self_pass = |(z, slabs): &mut (u32, Vec<&mut [f64]>)| -> SweepStats {
        let first = (*z as usize) * plane_boxes;
        let mut st = SweepStats::default();
        for b in first..first + plane_boxes {
            if role(b) != TargetRole::Own {
                continue;
            }
            for (c, slab) in insts.iter().zip(slabs.iter_mut()) {
                let (base, r) = (c.starts[first] as usize, c.run(b..b + 1));
                if !r.is_empty() {
                    let out = &mut slab[r.start - base..r.end - base];
                    let pairs = self_box(kernel, c.arrays(r), eps2, out);
                    st.own.pair_interactions += pairs;
                    st.own.box_pairs += 1;
                    st.own.flops += pairs * PAIR_FLOPS;
                }
            }
        }
        st
    };
    let stencil = fmm_tree::half_stencil();
    let exchanges = |(z, slabs): &mut (u32, Vec<&mut [f64]>)| -> SweepStats {
        let first = (*z as usize) * plane_boxes;
        let mut st = SweepStats::default();
        let mut rows: [Range<usize>; HALF_ROWS] = Default::default();
        for b in first..first + plane_boxes {
            let me = role(b);
            if me == TargetRole::Skip {
                continue;
            }
            let t = BoxCoord::from_index(level, b);
            let mut n_rows = 0;
            for h in &stencil {
                let (y, z) = (t.y as i32 + h.dy, t.z as i32 + h.dz);
                let lo = (t.x as i32 + h.dx.start()).max(0);
                let hi = (t.x as i32 + h.dx.end()).min(side - 1);
                if y >= side || z >= side || y < 0 || lo > hi {
                    continue;
                }
                let at = ((z * side + y) * side + lo) as usize;
                let row = at..at + (hi - lo + 1) as usize;
                if me == TargetRole::Own || row.clone().any(|s| role(s) == TargetRole::Own) {
                    rows[n_rows] = row;
                    n_rows += 1;
                }
            }
            for (c, slab) in insts.iter().zip(slabs.iter_mut()) {
                let (base, tr) = (c.starts[first] as usize, c.run(b..b + 1));
                if tr.is_empty() {
                    continue;
                }
                let (head, tail) = slab.split_at_mut(tr.end - base);
                let t_out = &mut head[tr.start - base..];
                for row in &rows[..n_rows] {
                    let sr = c.run(row.clone());
                    if sr.is_empty() {
                        continue;
                    }
                    let (mut live, mut owned) = (0, 0);
                    for s in row.clone() {
                        let n_s = c.run(s..s + 1).len();
                        live += u64::from(n_s > 0);
                        if role(s) == TargetRole::Own {
                            owned += n_s;
                        }
                    }
                    let (n_t, pairs) = (tr.len(), (tr.len() * sr.len()) as u64);
                    let half = PAIR_FLOPS / 2;
                    st.own.flops += (n_t * owned) as u64 * half;
                    let by = match me {
                        TargetRole::Own => {
                            st.own.flops += pairs * half;
                            &mut st.own
                        }
                        _ => &mut st.ghost,
                    };
                    by.box_pairs += live;
                    by.pair_interactions += pairs;
                    let s_out = &mut tail[sr.start - tr.end..sr.end - tr.end];
                    let (tgt, src) = (c.arrays(tr.clone()), c.arrays(sr));
                    T::panel(kernel, tgt, eps2, src, t_out, s_out);
                }
            }
        }
        st
    };
    // det: integer counters only; each task writes its own slabs.
    let mut tasks = plane_slabs(insts, outs, level, 0, 1);
    let tasks = tasks.par_iter_mut().map(self_pass);
    let mut total = tasks.reduce(SweepStats::default, add_sweep);
    for colour in 0..3 {
        let mut tasks = plane_slabs(insts, outs, level, colour, 3);
        let tasks = tasks.par_iter_mut().map(exchanges);
        total = add_sweep(total, tasks.reduce(SweepStats::default, add_sweep));
    }
    total.ghost.flops = total.ghost.pair_interactions * PAIR_FLOPS;
    total
}

/// The symmetric sweep over part of the grid, f64, one instance: `role`
/// says which boxes are computed here and which are ghost targets (see
/// [`TargetRole`]). `out` is laid out as `cells`. The SPMD workers run
/// this over their cell store; with every box [`TargetRole::Own`] it is
/// [`near_field_rows`].
pub fn symmetric_rows(
    kernel: Kernel,
    level: u32,
    cells: RowCells<'_>,
    eps2: f64,
    out: &mut [f64],
    role: impl Fn(usize) -> TargetRole + Sync,
) -> SweepStats {
    symmetric_sweep(kernel, level, eps2, &[cells], &mut [out], &role)
}

/// The symmetric near field of same-depth binnings, in f64 or, `mixed`,
/// on their f32 mirrors: [`symmetric_sweep`] with every box a target.
/// `outs[i]` is instance `i`'s potentials in **sorted** particle order;
/// counters are summed over the instances.
pub(crate) fn symmetric_binned(
    kernel: Kernel,
    bps: &[BinnedParticles],
    mixed: bool,
    eps: f64,
    outs: &mut [&mut [f64]],
) -> NearFieldStats {
    let Some(first) = bps.first() else {
        return NearFieldStats::default();
    };
    assert!(
        bps.iter().all(|bp| bp.level == first.level),
        "one sweep needs one depth"
    );
    let (level, all) = (first.level, |_| TargetRole::Own);
    let st = if mixed {
        let mirrors: Vec<ParticlesF32> = bps.iter().map(ParticlesF32::build).collect();
        let insts: Vec<RowCells<'_, f32>> = (mirrors.iter().zip(bps))
            .map(|(m, bp)| RowCells::new([&m.x, &m.y, &m.z, &m.q], &bp.binning.starts))
            .collect();
        symmetric_sweep(kernel, level, (eps * eps) as f32, &insts, outs, &all)
    } else {
        let insts: Vec<RowCells<'_>> = bps.iter().map(BinnedParticles::row_cells).collect();
        symmetric_sweep(kernel, level, eps * eps, &insts, outs, &all)
    };
    st.own
}

/// Near-field potentials by the symmetric row sweep on `kernel`, f64,
/// added into `out` (sorted particle order). Reports the same
/// third-law-halved counts as [`near_field_symmetric`].
pub fn near_field_rows(
    kernel: Kernel,
    bp: &BinnedParticles,
    eps: f64,
    out: &mut [f64],
) -> NearFieldStats {
    symmetric_binned(kernel, std::slice::from_ref(bp), false, eps, &mut [out])
}

/// The paper's schedule (§3.4) is a travelling accumulator; this entry
/// point now runs [`near_field_rows`], the same 62 box pairs and pair
/// counts swept by rows. `parallel = false` runs it [`serially`]; the
/// name, the flag and the one-value separation, which is ignored, are
/// kept only because `benchmark/` imports it (ROADMAP item 1).
pub fn near_field_travelling_with(
    kernel: Kernel,
    bp: &BinnedParticles,
    _sep: Separation,
    parallel: bool,
    eps: f64,
    out: &mut [f64],
) -> NearFieldStats {
    if !parallel {
        return serially(|| near_field_travelling_with(kernel, bp, _sep, true, eps, out));
    }
    near_field_rows(kernel, bp, eps, out)
}

/// Target-centric near-field potentials **and** fields (−∇Φ) with Plummer
/// softening (see [`near_field_potentials_softened`]). Outputs are in
/// sorted particle order. `parallel = false` runs it [`serially`]; the
/// flag and the one-value separation, which is ignored, are kept only
/// because `benchmark/` imports it (ROADMAP item 1).
pub fn near_field_forces_softened(
    bp: &BinnedParticles,
    _sep: Separation,
    parallel: bool,
    eps: f64,
    pot: &mut [f64],
    field: &mut [[f64; 3]],
) -> NearFieldStats {
    if !parallel {
        return serially(|| near_field_forces_softened(bp, _sep, true, eps, pot, field));
    }
    near_field_forces_softened_with(Kernel::detect(), bp, eps, pot, field)
}

/// [`near_field_forces_softened`] with an explicit kernel choice (the
/// driver passes the one recorded on the traversal plan).
pub fn near_field_forces_softened_with(
    kernel: Kernel,
    bp: &BinnedParticles,
    eps: f64,
    pot: &mut [f64],
    field: &mut [[f64; 3]],
) -> NearFieldStats {
    let sum = Forces {
        kernel,
        eps2: eps * eps,
    };
    target_sweep(bp, &bp.cells(), &sum, pot, Some(field))
}

/// Target-centric potential + field accumulation for the particles of leaf
/// box `b` of `level` (`target_box` on the f64 force kernels), targets
/// and sources both read through `cells`, which must hold every
/// neighbour row's boxes back to back in x order: each target sums its
/// own neighbour row split at itself, then the other rows of its
/// neighbourhood in (dz, dy) order. `po`/`fo` are the per-box output
/// slices of box `b`. The SPMD workers run the boxes they own through
/// this, over a cell store that holds their halo laid out row-major.
/// Returns the directed pairs and box pairs.
#[allow(clippy::too_many_arguments)]
pub fn near_field_forces_box<L: Fn(usize) -> Range<usize>>(
    kernel: Kernel,
    cells: &Cells<'_, L>,
    level: u32,
    b: usize,
    eps2: f64,
    po: &mut [f64],
    fo: &mut [[f64; 3]],
) -> NearFieldStats {
    let sum = Forces { kernel, eps2 };
    target_box(&sum, cells, level, b, |i, p, f| {
        po[i] += p;
        for a in 0..3 {
            fo[i][a] += f[a];
        }
    })
}

/// What a target-centric sweep sums over a run of sources in lane
/// precision `T`: the potential alone, or the potential and the field.
/// Sums are added into f64 accumulators, one run at a time.
pub(crate) trait RowSum<T>: Sync {
    /// Flops charged per directed pair.
    const PAIR_FLOPS: u64;
    /// Add target `t`'s sums over the run `src` into `p` and `f`.
    fn one(&self, t: [T; 3], src: [&[T]; 4], p: &mut f64, f: &mut [f64; 3]);
    /// [`Self::one`] for every target of `tgt`, each into its slots of `p`
    /// and `f`, with the same bits.
    fn panel(&self, tgt: [&[T]; 3], src: [&[T]; 4], p: &mut [f64], f: &mut [[f64; 3]]);
}

/// Potentials alone, f64: one [`pairwise::gather_with`] per target and run.
struct Potentials {
    kernel: Kernel,
    eps2: f64,
}

impl RowSum<f64> for Potentials {
    const PAIR_FLOPS: u64 = PAIR_FLOPS;
    fn one(&self, t: [f64; 3], [xs, ys, zs, qs]: [&[f64]; 4], p: &mut f64, _: &mut [f64; 3]) {
        *p += pairwise::gather_with(self.kernel, t[0], t[1], t[2], self.eps2, xs, ys, zs, qs);
    }
    fn panel(&self, tgt: [&[f64]; 3], src: [&[f64]; 4], p: &mut [f64], f: &mut [[f64; 3]]) {
        for (i, (p, f)) in p.iter_mut().zip(f).enumerate() {
            self.one(tgt.map(|c| c[i]), src, p, f);
        }
    }
}

/// Potentials and fields in `T`, each run's sums widened to f64: the
/// force gathers, two targets per source sweep through the panels.
pub(crate) struct Forces<T> {
    pub(crate) kernel: Kernel,
    pub(crate) eps2: T,
}

impl RowSum<f64> for Forces<f64> {
    const PAIR_FLOPS: u64 = PAIR_FORCE_FLOPS;
    fn one(&self, t: [f64; 3], [xs, ys, zs, qs]: [&[f64]; 4], p: &mut f64, f: &mut [f64; 3]) {
        let (k, e) = (self.kernel, self.eps2);
        let (sp, sf) = pairwise::force_gather_with(k, t[0], t[1], t[2], e, xs, ys, zs, qs);
        *p += sp;
        for a in 0..3 {
            f[a] += sf[a];
        }
    }
    fn panel(&self, tgt: [&[f64]; 3], src: [&[f64]; 4], p: &mut [f64], f: &mut [[f64; 3]]) {
        let ([tx, ty, tz], [xs, ys, zs, qs]) = (tgt, src);
        let (k, e) = (self.kernel, self.eps2);
        pairwise::force_gather_panel_with(k, tx, ty, tz, e, xs, ys, zs, qs, p, f);
    }
}

impl RowSum<f32> for Forces<f32> {
    const PAIR_FLOPS: u64 = PAIR_FORCE_FLOPS;
    fn one(&self, t: [f32; 3], [xs, ys, zs, qs]: [&[f32]; 4], p: &mut f64, f: &mut [f64; 3]) {
        let (k, e) = (self.kernel, self.eps2);
        let (sp, sf) = pairwise::force_gather_f32_with(k, t[0], t[1], t[2], e, xs, ys, zs, qs);
        *p += f64::from(sp);
        for a in 0..3 {
            f[a] += f64::from(sf[a]);
        }
    }
    fn panel(&self, tgt: [&[f32]; 3], src: [&[f32]; 4], p: &mut [f64], f: &mut [[f64; 3]]) {
        let ([tx, ty, tz], [xs, ys, zs, qs]) = (tgt, src);
        let (k, e) = (self.kernel, self.eps2);
        pairwise::force_gather_f32_panel_with(k, tx, ty, tz, e, xs, ys, zs, qs, p, f);
    }
}

/// Most rows a box gathers from: (2d + 1)².
const MAX_ROWS: usize = 25;

/// One box of a target-centric sweep, either precision, targets and
/// sources read through `cells`. A *row* is the boxes x−d … x+d of one
/// (y, z) in the neighbourhood, clipped to the domain, and one run of
/// sources: `cells` must hold a row's non-empty boxes back to back in x
/// order, as a binning and a row-major SPMD cell store do, and a row that
/// is not panics naming the box and the row. Each target sums its own row
/// split at itself — the run before it, then the run after it — then the
/// other rows in (dz, dy) order. A run's sums join the target's f64
/// accumulators whole, so a target's bits depend on that order alone;
/// pairs of targets share each other row through [`RowSum::panel`].
/// `emit(i, p, f)` hands over the sums of the box's `i`-th target. Returns
/// the directed pairs and the box pairs (own box included) with particles
/// at both ends.
pub(crate) fn target_box<T: Copy, L: Fn(usize) -> Range<usize>, S: RowSum<T>>(
    sum: &S,
    cells: &Cells<'_, L, T>,
    level: u32,
    b: usize,
    mut emit: impl FnMut(usize, f64, [f64; 3]),
) -> NearFieldStats {
    let t_range = (cells.range)(b);
    if t_range.is_empty() {
        return NearFieldStats::default();
    }
    let (t, d, side) = (BoxCoord::from_index(level, b), SEPARATION, 1i32 << level);
    let row_xs = (t.x as i32 - d).max(0) as u32..=(t.x as i32 + d).min(side - 1) as u32;
    let (mut sources, mut boxes) = (0, 0);
    // The run of the row at (y, z), empty if the row holds no particle.
    let mut row = |y: u32, z: u32| -> Range<usize> {
        let range = |x| (cells.range)(BoxCoord { level, x, y, z }.index());
        let mut run: Option<Range<usize>> = None;
        for r in row_xs.clone().map(range).filter(|r| !r.is_empty()) {
            boxes += 1;
            run = Some(match run {
                None => r,
                Some(run) => {
                    assert!(
                        run.end == r.start,
                        "box {b} of level {level}: the cells of row (y, z) = ({y}, {z}) \
                         are not back to back in x order"
                    );
                    run.start..r.end
                }
            });
        }
        let run = run.unwrap_or_default();
        sources += run.len();
        run
    };
    let own_row = row(t.y, t.z);
    let mut rows: [Range<usize>; MAX_ROWS] = Default::default();
    let mut n_rows = 0;
    for dz in -d..=d {
        for dy in -d..=d {
            let (y, z) = (t.y as i32 + dy, t.z as i32 + dz);
            if (dy, dz) == (0, 0) || !(0..side).contains(&y) || !(0..side).contains(&z) {
                continue;
            }
            let r = row(y as u32, z as u32);
            if !r.is_empty() {
                rows[n_rows] = r;
                n_rows += 1;
            }
        }
    }
    let src = |run: Range<usize>| [cells.x, cells.y, cells.z, cells.q].map(|a| &a[run.clone()]);
    let tgt = [
        &cells.x[t_range.clone()],
        &cells.y[t_range.clone()],
        &cells.z[t_range.clone()],
    ];
    let n_t = t_range.len();
    for a in (0..n_t).step_by(2) {
        let pair = a..(a + 2).min(n_t);
        let (mut p, mut f) = ([0.0; 2], [[0.0; 3]; 2]);
        for i in pair.clone() {
            let at = t_range.start + i;
            for run in [own_row.start..at, at + 1..own_row.end] {
                if !run.is_empty() {
                    let ti = tgt.map(|c| c[i]);
                    sum.one(ti, src(run), &mut p[i - a], &mut f[i - a]);
                }
            }
        }
        let (p, f) = (&mut p[..pair.len()], &mut f[..pair.len()]);
        for r in &rows[..n_rows] {
            sum.panel(tgt.map(|c| &c[pair.clone()]), src(r.clone()), p, f);
        }
        for (i, (p, f)) in pair.zip(p.iter().zip(f.iter())) {
            emit(i, *p, *f);
        }
    }
    let pairs = (n_t * (sources - 1)) as u64;
    NearFieldStats {
        pair_interactions: pairs,
        box_pairs: boxes as u64,
        flops: pairs * S::PAIR_FLOPS,
    }
}

/// Pieces per thread of a parallel target-centric sweep: several, so that
/// a pool handing out pieces one at a time can even out what the
/// pair-count estimate misses.
const PIECES_PER_THREAD: usize = 8;

/// Cut the row-major box range into `pieces` contiguous runs of near-equal
/// cost, a box costing its directed pair count `n_t · (n_t + Σ n_s)` over
/// its in-domain neighbours `s`. Returns the `pieces + 1` ascending box
/// boundaries, `0` first and the box count last; a piece may be empty
/// (one box can outweigh several pieces' share).
fn cut_pieces(bp: &BinnedParticles, offsets: &[[i32; 3]], pieces: usize) -> Vec<usize> {
    let n_boxes = bp.binning.starts.len() - 1;
    let costs: Vec<u64> = (0..n_boxes)
        .map(|b| {
            let t = BoxCoord::from_index(bp.level, b);
            let neighbours = offsets.iter().filter_map(|&d| t.offset(d));
            let near: usize = neighbours.map(|s| bp.binning.count(s.index())).sum();
            let n_t = bp.binning.count(b);
            (n_t * (n_t + near)) as u64
        })
        .collect();
    let total: u128 = costs.iter().map(|&c| c as u128).sum();
    let mut cuts = vec![0];
    let mut before = 0u128;
    for (b, &c) in costs.iter().enumerate() {
        // Piece k ends at the first box with k/pieces of the cost before it.
        while cuts.len() < pieces && before * pieces as u128 >= cuts.len() as u128 * total {
            cuts.push(b);
        }
        before += c as u128;
    }
    cuts.resize(pieces + 1, n_boxes);
    cuts
}

/// The target-centric sweep: [`target_box`] on every box of `bp`, reading
/// through `cells` (the binning's own, or a mirror of them in another
/// precision), `pot` and, where asked for, `field` in sorted particle
/// order. On more than one pool thread the sweep cuts the box range into
/// [`PIECES_PER_THREAD`] pieces per thread by cost — leaf occupancy on
/// clustered inputs is far too skewed to cut by box count — and hands each
/// its own `split_at_mut` of the outputs; on one thread it is a single
/// piece and skips the cost pass. Each output element is written by its
/// own target alone, so the result is bitwise the same wherever the cuts
/// fall.
pub(crate) fn target_sweep<T: Copy + Sync, L: Fn(usize) -> Range<usize> + Sync>(
    bp: &BinnedParticles,
    cells: &Cells<'_, L, T>,
    sum: &impl RowSum<T>,
    pot: &mut [f64],
    field: Option<&mut [[f64; 3]]>,
) -> NearFieldStats {
    assert_eq!(pot.len(), bp.len());
    assert!(field.as_ref().is_none_or(|f| f.len() == bp.len()));
    let starts = &bp.binning.starts;
    let threads = rayon::current_num_threads();
    let cuts = if threads > 1 {
        let offsets = near_field_offsets();
        cut_pieces(bp, &offsets, PIECES_PER_THREAD * threads)
    } else {
        vec![0, starts.len() - 1]
    };
    type Piece<'a> = (Range<usize>, &'a mut [f64], Option<&'a mut [[f64; 3]]>);
    let mut pieces: Vec<Piece<'_>> = Vec::with_capacity(cuts.len() - 1);
    let (mut pot, mut field) = (pot, field);
    for w in cuts.windows(2) {
        let len = (starts[w[1]] - starts[w[0]]) as usize;
        let (p_head, p_tail) = pot.split_at_mut(len);
        let (f_head, f_tail) = field.map(|f| f.split_at_mut(len)).unzip();
        pieces.push((w[0]..w[1], p_head, f_head));
        (pot, field) = (p_tail, f_tail);
    }
    let work = |(boxes, po, fo): &mut Piece<'_>| -> NearFieldStats {
        let base = starts[boxes.start] as usize;
        let mut st = NearFieldStats::default();
        for b in boxes.clone() {
            let at = bp.range(b).start - base;
            let box_st = target_box(sum, cells, bp.level, b, |i, p, f| {
                po[at + i] += p;
                if let Some(fo) = fo {
                    for a in 0..3 {
                        fo[at + i][a] += f[a];
                    }
                }
            });
            st.merge(&box_st);
        }
        st
    };
    // det: integer counters only; floats live in disjoint slices.
    let pieces = pieces.par_iter_mut();
    pieces.map(work).reduce(NearFieldStats::default, add_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads;
    use fmm_tree::Domain;

    fn pseudo_system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<[f64; 3]> = (0..n).map(|_| [next(), next(), next()]).collect();
        let q: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
        (pts, q)
    }

    /// Reference: all-pairs within the near-field neighbourhood, brute
    /// force over boxes.
    #[allow(clippy::needless_range_loop)]
    fn reference(bp: &BinnedParticles) -> Vec<f64> {
        let mut out = vec![0.0; bp.len()];
        let d = SEPARATION;
        let level = bp.level;
        for ti in 0..bp.len() {
            let tb = bp.domain.locate([bp.x[ti], bp.y[ti], bp.z[ti]], level);
            for si in 0..bp.len() {
                if si == ti {
                    continue;
                }
                let sb = bp.domain.locate([bp.x[si], bp.y[si], bp.z[si]], level);
                let near = (tb.x as i32 - sb.x as i32).abs() <= d
                    && (tb.y as i32 - sb.y as i32).abs() <= d
                    && (tb.z as i32 - sb.z as i32).abs() <= d;
                if near {
                    let dx = bp.x[ti] - bp.x[si];
                    let dy = bp.y[ti] - bp.y[si];
                    let dz = bp.z[ti] - bp.z[si];
                    out[ti] += bp.q[si] / (dx * dx + dy * dy + dz * dz).sqrt();
                }
            }
        }
        out
    }

    fn build(n: usize, level: u32, seed: u64) -> BinnedParticles {
        let (pts, q) = pseudo_system(n, seed);
        BinnedParticles::build(&pts, &q, Domain::unit(), level)
    }

    #[test]
    fn target_centric_matches_reference() {
        let bp = build(300, 2, 11);
        let mut out = vec![0.0; bp.len()];
        near_field_potentials(&bp, &mut out);
        let r = reference(&bp);
        for (a, b) in out.iter().zip(&r) {
            assert!((a - b).abs() < 1e-10, "{} vs {}", a, b);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let bp = build(500, 2, 13);
        let run = |n| {
            let mut out = vec![0.0; bp.len()];
            threads(n).install(|| near_field_potentials(&bp, &mut out));
            out
        };
        let (seq, par) = (run(1), run(3));
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_matches_target_centric() {
        let bp = build(400, 2, 17);
        let mut tc = vec![0.0; bp.len()];
        let st_tc = near_field_potentials(&bp, &mut tc);
        let (sym, st_sym) = near_field_symmetric(&bp);
        for (a, b) in tc.iter().zip(&sym) {
            assert!((a - b).abs() < 1e-10);
        }
        // Newton's third law halves the pair count (self-box pairs are
        // already symmetric in both).
        assert!(st_sym.pair_interactions < st_tc.pair_interactions);
        let cross_tc = st_tc.pair_interactions;
        let cross_sym = st_sym.pair_interactions;
        // Within rounding, sym ≈ (tc + self_pairs)/2; just require a
        // substantial reduction.
        assert!(
            (cross_sym as f64) < 0.65 * cross_tc as f64,
            "sym {} vs tc {}",
            cross_sym,
            cross_tc
        );
    }

    #[test]
    fn forces_match_finite_difference_of_potential() {
        let bp = build(200, 2, 19);
        let mut pot = vec![0.0; bp.len()];
        let mut field = vec![[0.0; 3]; bp.len()];
        near_field_forces_softened(&bp, Separation::Two, false, 0.0, &mut pot, &mut field);
        // Check potential part agrees with the potential-only kernel.
        let mut pot2 = vec![0.0; bp.len()];
        near_field_potentials(&bp, &mut pot2);
        for (a, b) in pot.iter().zip(&pot2) {
            assert!((a - b).abs() < 1e-10);
        }
        // Spot-check the field of the first sorted particle against a
        // finite difference of the near-field potential at its position.
        let i = 0usize;
        let h = 1e-6;
        let eval_at = |p: [f64; 3]| -> f64 {
            // Potential at point p due to all near-field particles of the
            // box containing particle i (kept fixed), excluding i itself.
            let tb = bp.domain.locate([bp.x[i], bp.y[i], bp.z[i]], bp.level);
            let d = 2;
            let mut acc = 0.0;
            for si in 0..bp.len() {
                if si == i {
                    continue;
                }
                let sb = bp.domain.locate([bp.x[si], bp.y[si], bp.z[si]], bp.level);
                let near = (tb.x as i32 - sb.x as i32).abs() <= d
                    && (tb.y as i32 - sb.y as i32).abs() <= d
                    && (tb.z as i32 - sb.z as i32).abs() <= d;
                if near {
                    let dx = p[0] - bp.x[si];
                    let dy = p[1] - bp.y[si];
                    let dz = p[2] - bp.z[si];
                    acc += bp.q[si] / (dx * dx + dy * dy + dz * dz).sqrt();
                }
            }
            acc
        };
        let p0 = [bp.x[i], bp.y[i], bp.z[i]];
        for a in 0..3 {
            let mut pp = p0;
            pp[a] += h;
            let mut pm = p0;
            pm[a] -= h;
            let fd = -(eval_at(pp) - eval_at(pm)) / (2.0 * h);
            assert!(
                (fd - field[i][a]).abs() < 1e-4 * (1.0 + fd.abs()),
                "axis {}: fd {} vs {}",
                a,
                fd,
                field[i][a]
            );
        }
    }

    type ForceOut = (Vec<f64>, Vec<[f64; 3]>, NearFieldStats);

    fn forces(bp: &BinnedParticles, kernel: Kernel) -> ForceOut {
        let mut pot = vec![0.0; bp.len()];
        let mut field = vec![[0.0; 3]; bp.len()];
        let st = near_field_forces_softened_with(kernel, bp, 0.0, &mut pot, &mut field);
        (pot, field, st)
    }

    fn assert_same_bits(a: &ForceOut, b: &ForceOut, what: &str) {
        assert_eq!(a.2, b.2, "{what}: counters");
        for (x, y) in a.0.iter().zip(&b.0) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: potential");
        }
        for (x, y) in a.1.iter().flatten().zip(b.1.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: field");
        }
    }

    #[test]
    fn scalar_force_sweep_is_the_exact_sqrt_loop_in_run_order() {
        // Pins both the summation order per target — its own row before
        // the target, its own row after it, then the other rows in
        // (dz, dy) order, each run summed on its own — and that
        // `Kernel::Scalar` is 1/√ exactly. A row is the x-neighbours of one
        // (y, z), one slice of the binning.
        let bp = build(700, 3, 61);
        let got = forces(&bp, Kernel::Scalar);
        let row = |t: BoxCoord, dy: i32, dz: i32| {
            let boxes = (-2..=2).filter_map(|dx| t.offset([dx, dy, dz]));
            let ranges: Vec<_> = boxes.map(|s| bp.range(s.index())).collect();
            ranges
                .first()
                .map_or(0..0, |r| r.start..ranges[ranges.len() - 1].end)
        };
        for b in 0..512 {
            let t = BoxCoord::from_index(3, b);
            for ti in bp.range(b) {
                let own = row(t, 0, 0);
                let mut runs = vec![own.start..ti, ti + 1..own.end];
                for dz in -2..=2 {
                    for dy in -2..=2 {
                        if (dy, dz) != (0, 0) && t.offset([0, dy, dz]).is_some() {
                            runs.push(row(t, dy, dz));
                        }
                    }
                }
                let (mut p_acc, mut f_acc) = (0.0, [0.0; 3]);
                for run in runs.into_iter().filter(|r| !r.is_empty()) {
                    let (mut p, mut f) = (0.0, [0.0; 3]);
                    for si in run {
                        let d = [
                            bp.x[ti] - bp.x[si],
                            bp.y[ti] - bp.y[si],
                            bp.z[ti] - bp.z[si],
                        ];
                        let inv_r = 1.0 / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 0.0).sqrt();
                        let qr = bp.q[si] * inv_r;
                        p += qr;
                        for a in 0..3 {
                            f[a] += qr * inv_r * inv_r * d[a];
                        }
                    }
                    p_acc += p;
                    for a in 0..3 {
                        f_acc[a] += f[a];
                    }
                }
                assert_eq!(got.0[ti].to_bits(), p_acc.to_bits(), "potential {ti}");
                assert_eq!(
                    got.1[ti].map(f64::to_bits),
                    f_acc.map(f64::to_bits),
                    "field {ti}"
                );
            }
        }
    }

    #[test]
    fn force_sweep_bits_do_not_depend_on_pieces() {
        // 1 100 of 1 500 particles sit in the eight boxes around the centre
        // of a 512-box grid: a count-based cut gives one thread nearly all
        // of the work, and the cost-based cuts fall inside the cluster.
        let (mut pts, q) = pseudo_system(1500, 67);
        for p in pts.iter_mut().take(1100) {
            *p = p.map(|c| 0.45 + 0.1 * c);
        }
        let bp = BinnedParticles::build(&pts, &q, Domain::unit(), 3);
        let mut counts: Vec<usize> = (0..512).map(|b| bp.binning.count(b)).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let hot: usize = counts[..512 / 20].iter().sum();
        assert!(hot > 1100, "5 % of the boxes must hold the cluster");
        for kernel in Kernel::available() {
            let seq = threads(1).install(|| forces(&bp, kernel));
            for n in [2, 3, 7] {
                let par = threads(n).install(|| forces(&bp, kernel));
                assert_same_bits(&seq, &par, &format!("{kernel:?}, {n} threads"));
            }
        }
    }

    #[test]
    fn row_forces_match_brute_force() {
        // 400 points in the lower half of a 512-box grid and 20 scattered
        // over all of it: rows clipped at every face, whole rows empty,
        // and empty boxes inside non-empty rows. Each target against
        // every source of its neighbourhood, to 1e-12 of Σ |q|/r (Σ |q|/r²
        // for the field), on every tier, on one thread and on three.
        let (mut pts, q) = pseudo_system(420, 73);
        for p in pts.iter_mut().take(400) {
            p[2] *= 0.5;
        }
        let bp = BinnedParticles::build(&pts, &q, Domain::unit(), 3);
        let empty = (0..512).filter(|&b| bp.binning.count(b) == 0).count();
        assert!(empty > 100, "{empty} empty boxes");
        for eps in [0.0, 0.02] {
            let (d, eps2) = (SEPARATION, eps * eps);
            let boxes: Vec<BoxCoord> = (0..bp.len())
                .map(|i| bp.domain.locate([bp.x[i], bp.y[i], bp.z[i]], 3))
                .collect();
            let mut want = vec![(0.0, [0.0; 3], 0.0, 0.0); bp.len()];
            let mut pairs = 0;
            for (ti, w) in want.iter_mut().enumerate() {
                for si in 0..bp.len() {
                    let (a, b) = (boxes[ti], boxes[si]);
                    let near = [(a.x, b.x), (a.y, b.y), (a.z, b.z)]
                        .iter()
                        .all(|&(u, v)| (u as i32 - v as i32).abs() <= d);
                    if si == ti || !near {
                        continue;
                    }
                    pairs += 1;
                    let dr = [
                        bp.x[ti] - bp.x[si],
                        bp.y[ti] - bp.y[si],
                        bp.z[ti] - bp.z[si],
                    ];
                    let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2] + eps2;
                    let r = r2.sqrt();
                    w.0 += bp.q[si] / r;
                    for (wf, dr) in w.1.iter_mut().zip(dr) {
                        *wf += bp.q[si] * dr / (r2 * r);
                    }
                    w.2 += bp.q[si].abs() / r;
                    w.3 += bp.q[si].abs() / r2;
                }
            }
            for kernel in Kernel::available() {
                for n in [1, 3] {
                    let what = format!("eps={eps} {kernel:?} threads={n}");
                    let mut pot = vec![0.0; bp.len()];
                    let mut field = vec![[0.0; 3]; bp.len()];
                    let st = threads(n).install(|| {
                        near_field_forces_softened_with(kernel, &bp, eps, &mut pot, &mut field)
                    });
                    assert_eq!(st.pair_interactions, pairs, "{what}");
                    for (i, &(p, f, sp, sf)) in want.iter().enumerate() {
                        assert!((pot[i] - p).abs() <= 1e-12 * sp, "{what}: potential {i}");
                        for a in 0..3 {
                            let err = (field[i][a] - f[a]).abs();
                            assert!(err <= 1e-12 * sf, "{what}: field {i}[{a}]");
                        }
                    }
                    let mut pot = vec![0.0; bp.len()];
                    let st =
                        threads(n).install(|| near_field_potentials_softened(&bp, eps, &mut pot));
                    assert_eq!(st.pair_interactions, pairs, "{what}");
                    for (i, &(p, _, sp, _)) in want.iter().enumerate() {
                        assert!((pot[i] - p).abs() <= 1e-12 * sp, "{what}: oracle {i}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row (y, z) = (1, 2) are not back to back")]
    fn a_row_out_of_x_order_panics_naming_the_row() {
        // One particle in each of boxes x = 0 and x = 1 of the row at
        // (y, z) = (1, 2) of level 2, boxes 36 and 37, held in the arrays
        // the other way round.
        let range = |b: usize| match b {
            37 => 0..1,
            36 => 1..2,
            _ => 0..0,
        };
        let (xs, q) = ([0.3, 0.1], [1.0, 1.0]);
        let cells = Cells::new(&xs, &[0.4; 2], &[0.6; 2], &q, range);
        let (mut po, mut fo) = ([0.0], [[0.0; 3]]);
        near_field_forces_box(Kernel::Scalar, &cells, 2, 36, 0.0, &mut po, &mut fo);
    }

    #[test]
    fn piece_cuts_survive_degenerate_inputs() {
        // Inputs whose cost sits in one box or in fewer boxes than there
        // are pieces. Every particle is in every other's neighbourhood, so
        // the near field alone must reproduce direct summation.
        let corner = |n: usize, lo: f64| -> Vec<[f64; 3]> {
            pseudo_system(n, 71)
                .0
                .iter()
                .map(|p| p.map(|c| lo + 0.1 * c))
                .collect()
        };
        let cases: [(&str, Vec<[f64; 3]>); 4] = [
            ("N = 1", vec![[0.3, 0.6, 0.2]]),
            ("one interior leaf", corner(200, 0.51)),
            ("the far-corner leaf alone", corner(40, 0.89)),
            (
                "three boxes, one particle each",
                vec![[0.1, 0.1, 0.1], [0.2, 0.1, 0.1], [0.3, 0.3, 0.1]],
            ),
        ];
        for (what, pts) in cases {
            let q: Vec<f64> = (0..pts.len()).map(|i| 1.0 - 0.3 * (i % 5) as f64).collect();
            let bp = BinnedParticles::build(&pts, &q, Domain::unit(), 3);
            for pieces in [1, 2, 16, 1000] {
                let cuts = cut_pieces(&bp, &near_field_offsets(), pieces);
                assert_eq!(cuts.len(), pieces + 1, "{what}");
                assert_eq!((cuts[0], cuts[pieces]), (0, 512), "{what}");
                assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{what}: {cuts:?}");
            }
            let got = threads(7).install(|| forces(&bp, Kernel::detect()));
            let one = threads(1).install(|| forces(&bp, Kernel::detect()));
            assert_same_bits(&got, &one, what);
            let sorted: Vec<[f64; 3]> =
                (0..bp.len()).map(|i| [bp.x[i], bp.y[i], bp.z[i]]).collect();
            let (want_p, want_f) = fmm_direct::potentials_and_fields(&sorted, &bp.q);
            let scale = want_f.iter().flatten().fold(1.0f64, |m, v| m.max(v.abs()));
            for (got_p, want_p) in got.0.iter().zip(&want_p) {
                assert!(
                    (got_p - want_p).abs() <= 1e-12 * (1.0 + want_p.abs()),
                    "{what}"
                );
            }
            for (got_f, want_f) in got.1.iter().flatten().zip(want_f.iter().flatten()) {
                assert!((got_f - want_f).abs() <= 1e-12 * scale, "{what}");
            }
        }
    }

    /// The documented order, written out on `Kernel::Scalar`: the self
    /// pass box by box, then colours 0, 1, 2, the targets of a colour in
    /// z, y, x order, and per target its in-domain H-rows in stencil
    /// order, one `exchange_with` per (target particle, run).
    fn reference_rows(bp: &BinnedParticles, eps2: f64) -> Vec<f64> {
        let mut out = vec![0.0; bp.len()];
        let (level, side) = (bp.level, 1i32 << bp.level);
        let src = |r: Range<usize>| [&bp.x, &bp.y, &bp.z, &bp.q].map(|a| &a[r.clone()]);
        let one = |ti: usize, [xs, ys, zs, qs]: [&[f64]; 4], s_out: &mut [f64]| {
            let (x, y, z, q) = (bp.x[ti], bp.y[ti], bp.z[ti], bp.q[ti]);
            pairwise::exchange_with(Kernel::Scalar, x, y, z, q, eps2, xs, ys, zs, qs, s_out)
        };
        for b in 0..1usize << (3 * level) {
            for ti in bp.range(b) {
                let (head, tail) = out.split_at_mut(ti + 1);
                head[ti] += one(
                    ti,
                    src(ti + 1..bp.range(b).end),
                    &mut tail[..bp.range(b).end - ti - 1],
                );
            }
        }
        for colour in 0..3 {
            for z in (colour..side).step_by(3) {
                for y in 0..side {
                    for x in 0..side {
                        let t = BoxCoord::from_index(level, ((z * side + y) * side + x) as usize);
                        let tr = bp.range(t.index());
                        for h in fmm_tree::half_stencil() {
                            let (ry, rz) = (y + h.dy, z + h.dz);
                            let lo = (x + h.dx.start()).max(0);
                            let hi = (x + h.dx.end()).min(side - 1);
                            if ry >= side || rz >= side || ry < 0 || lo > hi {
                                continue;
                            }
                            let at = |x: i32| ((rz * side + ry) * side + x) as usize;
                            let sr = bp.range(at(lo)).start..bp.range(at(hi)).end;
                            for ti in tr.clone() {
                                let (head, tail) = out.split_at_mut(sr.start);
                                head[ti] += one(ti, src(sr.clone()), &mut tail[..sr.len()]);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn rows(bp: &BinnedParticles, kernel: Kernel, eps: f64) -> (Vec<f64>, NearFieldStats) {
        let mut out = vec![0.0; bp.len()];
        let st = near_field_rows(kernel, bp, eps, &mut out);
        (out, st)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn scalar_rows_are_the_documented_order_bit_for_bit() {
        for (n, level, eps) in [(400usize, 2u32, 0.0), (3000, 3, 0.0), (2500, 3, 0.03)] {
            let bp = build(n, level, 31);
            let (got, _) = rows(&bp, Kernel::Scalar, eps);
            let want = reference_rows(&bp, eps * eps);
            assert_eq!(bits(&got), bits(&want), "n={n} level={level} eps={eps}");
        }
    }

    #[test]
    fn rows_match_sequential_symmetric_and_count_alike() {
        // Every dispatched kernel family, on one thread and on the pool:
        // counters exactly, values to rounding. Level 2 and 3.
        for (n, level) in [(400usize, 2u32), (3000, 3)] {
            let bp = build(n, level, 31);
            let (seq, st_seq) = near_field_symmetric(&bp);
            for kernel in Kernel::available() {
                for parallel in [false, true] {
                    let mut got = vec![0.0; bp.len()];
                    let sep = Separation::Two;
                    let st = near_field_travelling_with(kernel, &bp, sep, parallel, 0.0, &mut got);
                    for (a, b) in seq.iter().zip(&got) {
                        assert!(
                            (a - b).abs() < 1e-12 * (1.0 + a.abs()),
                            "n={n} level={level} {kernel:?} par={parallel}: {a} vs {b}"
                        );
                    }
                    assert_eq!(st, st_seq);
                }
            }
        }
    }

    /// Inputs that empty planes, crowd one box, sit on the far faces or
    /// leave a colour one or two planes deep.
    fn degenerate() -> Vec<(&'static str, BinnedParticles)> {
        let (pts, q) = pseudo_system(900, 83);
        let squeeze = |f: &dyn Fn([f64; 3]) -> [f64; 3]| -> Vec<[f64; 3]> {
            pts.iter().map(|&p| f(p)).collect()
        };
        let at =
            |pts: Vec<[f64; 3]>, level| BinnedParticles::build(&pts, &q, Domain::unit(), level);
        let far = |c: f64, above: f64| if c > above { 1.0 } else { c };
        vec![
            ("one box", at(squeeze(&|p| p.map(|c| 0.51 + 0.1 * c)), 3)),
            (
                "empty planes",
                at(squeeze(&|p| [p[0], p[1], 0.3 * p[2]]), 3),
            ),
            (
                "far faces",
                at(squeeze(&|p| [far(p[0], 0.7), far(p[1], 0.85), p[2]]), 3),
            ),
            ("depth 2", at(pts.clone(), 2)),
        ]
    }

    #[test]
    fn rows_give_one_set_of_bits_on_any_threads_and_degenerate_inputs() {
        let mut cases = degenerate();
        cases.push(("uniform", build(3000, 3, 43)));
        for (what, bp) in &cases {
            let (sym, st_sym) = near_field_symmetric(bp);
            let (scalar, _) = threads(4).install(|| rows(bp, Kernel::Scalar, 0.0));
            assert_eq!(bits(&scalar), bits(&reference_rows(bp, 0.0)), "{what}");
            for kernel in Kernel::available() {
                let one = threads(1).install(|| rows(bp, kernel, 0.0));
                assert_eq!(one.1, st_sym, "{what} {kernel:?}");
                let scale = sym.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                for (a, b) in one.0.iter().zip(&sym) {
                    assert!((a - b).abs() <= 1e-12 * scale, "{what} {kernel:?}");
                }
                for n in [2, 4] {
                    let par = threads(n).install(|| rows(bp, kernel, 0.0));
                    assert_eq!(bits(&par.0), bits(&one.0), "{what} {kernel:?} {n} threads");
                    assert_eq!(par.1, one.1);
                }
            }
        }
    }

    #[test]
    fn instances_swept_together_keep_their_bits() {
        let bps: Vec<BinnedParticles> = (0..3)
            .map(|i| build(300 + 50 * i, 2, 50 + i as u64))
            .collect();
        let kernel = Kernel::detect();
        for mixed in [false, true] {
            let mut together: Vec<Vec<f64>> = bps.iter().map(|bp| vec![0.0; bp.len()]).collect();
            let mut alone_stats = NearFieldStats::default();
            let alone: Vec<Vec<f64>> = bps
                .iter()
                .map(|bp| {
                    let mut out = vec![0.0; bp.len()];
                    let one = symmetric_binned(
                        kernel,
                        std::slice::from_ref(bp),
                        mixed,
                        0.0,
                        &mut [&mut out],
                    );
                    alone_stats.merge(&one);
                    out
                })
                .collect();
            let mut outs: Vec<&mut [f64]> = together.iter_mut().map(Vec::as_mut_slice).collect();
            let st = symmetric_binned(kernel, &bps, mixed, 0.0, &mut outs);
            assert_eq!(st, alone_stats);
            for (a, b) in together.iter().flatten().zip(alone.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits(), "mixed={mixed}");
            }
        }
    }

    #[test]
    fn ghost_targets_give_every_owned_box_the_full_sweeps_bits() {
        // What an SPMD rank runs: its boxes as `Own`, the boxes whose
        // H-rows reach one of them as `Ghost`, the rest skipped. Owned
        // particles get the full sweep's bits; owned counters sum to its.
        let (level, n) = (3, 512usize);
        let bp = build(3000, level, 47);
        let halo = fmm_tree::half_offsets();
        for kernel in Kernel::available() {
            let (want, want_st) = rows(&bp, kernel, 0.0);
            let mut sum = NearFieldStats::default();
            for part in 0..3 {
                let owned = |b: usize| (b * 7 / 3) % 3 == part;
                let role = |b: usize| {
                    let t = BoxCoord::from_index(level, b);
                    if owned(b) {
                        TargetRole::Own
                    } else if halo
                        .iter()
                        .filter_map(|&h| t.offset(h))
                        .any(|s| owned(s.index()))
                    {
                        TargetRole::Ghost
                    } else {
                        TargetRole::Skip
                    }
                };
                let mut got = vec![0.0; bp.len()];
                let st = symmetric_rows(kernel, level, bp.row_cells(), 0.0, &mut got, role);
                assert!(st.ghost.pair_interactions > 0);
                sum.merge(&st.own);
                for b in (0..n).filter(|&b| owned(b)) {
                    let r = bp.range(b);
                    assert_eq!(bits(&got[r.clone()]), bits(&want[r]), "{kernel:?} box {b}");
                }
            }
            assert_eq!(sum, want_st, "{kernel:?}");
        }
    }

    #[test]
    fn rows_softened_match_target_centric_softened() {
        let bp = build(600, 2, 37);
        let eps = 0.05;
        let mut tc = vec![0.0; bp.len()];
        near_field_potentials_softened(&bp, eps, &mut tc);
        let (col, _) = rows(&bp, Kernel::detect(), eps);
        for (a, b) in tc.iter().zip(&col) {
            assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()), "{} vs {}", a, b);
        }
    }

    #[test]
    fn empty_boxes_handled() {
        // Few particles at deep level: most boxes empty.
        let bp = build(10, 3, 29);
        let mut out = vec![0.0; bp.len()];
        let st = near_field_potentials(&bp, &mut out);
        assert!(st.pair_interactions <= 90);
    }
}
