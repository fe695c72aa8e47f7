//! Near-field direct evaluation (§3.4).
//!
//! At the optimal hierarchy depth the direct evaluation in the near field
//! accounts for about half of all arithmetic, so its efficiency is crucial.
//! The particle–particle interactions are structured as neighbour box–box
//! interactions over the d-separation neighbourhood (124 neighbours for
//! two-separation); exploiting Newton's third law halves that to 62
//! box–box interactions (the paper's Fig. 10 traversal).
//!
//! Two sweeps are production paths, and each has one body that every
//! executor runs — the Serial/Rayon driver over its own binning, an SPMD
//! worker over the boxes it owns with sources served from its cell store
//! through a [`Cells`] range lookup:
//!
//! * **potentials** — the travelling-accumulator sweep
//!   ([`near_field_travelling_with`]): a self pass ([`self_pass`]), one
//!   [`travelling_step`] per unit step of the canonical path, and the
//!   return add ([`return_add`]). It keeps the third-law 2× pair savings
//!   *and* parallelizes, because within one unit step every output and
//!   accumulator element is written by exactly one box. The driver sweeps
//!   any number of same-depth particle sets together, deriving the path
//!   geometry once;
//! * **forces** — the target-centric sweep
//!   ([`near_field_forces_softened_with`], per box
//!   [`near_field_forces_box`]): parallel over target boxes without write
//!   conflicts at the full 124-neighbour pair count, swept in pieces of
//!   near-equal pair count on the plan's kernel.
//!
//! [`near_field_symmetric`] is the sequential third-law sweep: the
//! correctness oracle and the flop-count reference for experiment E13.
//!
//! [`ColorSchedule`] — 4×4×4 blocks of leaf boxes colored by the 2×2×2
//! parity of their block coordinates, so that every color phase of a
//! symmetric sweep is conflict-free — is built here and recorded on the
//! traversal plan; its one consumer is the f32 sweep in [`crate::near32`].
//!
//! The innermost particle–particle loops stream the SoA coordinate arrays
//! through the [`fmm_linalg::pairwise`] rsqrt microkernels (scalar, AVX2,
//! AVX-512, or NEON), dispatched per sweep by the [`Kernel`] recorded on
//! the traversal plan. The mixed-precision (f32 near field) sweeps live in
//! [`crate::near32`].

use crate::particles::BinnedParticles;
use fmm_linalg::{pairwise, Kernel};
use fmm_tree::{near_field_offsets, BoxCoord, Separation};
use rayon::prelude::*;
use std::ops::Range;

/// Flops charged per pairwise potential interaction (3 subs, 3 mults, 2
/// adds, rsqrt, multiply–accumulate — the conventional count used when
/// comparing N-body codes).
pub const PAIR_FLOPS: u64 = 10;
/// Flops per pairwise potential+field interaction.
pub const PAIR_FORCE_FLOPS: u64 = 20;

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
/// near-field bodies read their sources through. [`BinnedParticles::cells`]
/// is a binning's own sorted arrays; an SPMD worker hands in its cell
/// store, where cells received from other ranks sit behind its own in
/// arrival order.
pub struct Cells<'a, L> {
    x: &'a [f64],
    y: &'a [f64],
    z: &'a [f64],
    q: &'a [f64],
    range: L,
}

impl<'a, L: Fn(usize) -> Range<usize>> Cells<'a, L> {
    /// `range(b)` is the run of leaf box `b`'s particles in the four
    /// equally long arrays, empty if it has none.
    pub fn new(x: &'a [f64], y: &'a [f64], z: &'a [f64], q: &'a [f64], range: L) -> Self {
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

/// Accumulate potentials of particles in `t_range` due to particles in
/// `s_range` (one direction).
#[inline]
fn box_pair_potential(
    kernel: Kernel,
    bp: &BinnedParticles,
    t_range: std::ops::Range<usize>,
    s_range: std::ops::Range<usize>,
    eps2: f64,
    out: &mut [f64],
) -> u64 {
    let xs = &bp.x[s_range.clone()];
    let ys = &bp.y[s_range.clone()];
    let zs = &bp.z[s_range.clone()];
    let qs = &bp.q[s_range.clone()];
    let mut pairs = 0u64;
    for (ti, o) in t_range.clone().zip(out.iter_mut()) {
        *o += pairwise::gather_with(kernel, bp.x[ti], bp.y[ti], bp.z[ti], eps2, xs, ys, zs, qs);
        pairs += s_range.len() as u64;
    }
    pairs
}

/// Potentials within one box, pairwise symmetric, excluding self terms.
#[inline]
fn self_box_potential(
    bp: &BinnedParticles,
    range: Range<usize>,
    eps2: f64,
    out: &mut [f64],
) -> u64 {
    let n = range.len();
    let base = range.start;
    let mut pairs = 0u64;
    for a in 0..n {
        let ia = base + a;
        let (xa, ya, za, qa) = (bp.x[ia], bp.y[ia], bp.z[ia], bp.q[ia]);
        let mut acc = 0.0;
        for (b, ob) in out.iter_mut().enumerate().take(n).skip(a + 1) {
            let ib = base + b;
            let dx = xa - bp.x[ib];
            let dy = ya - bp.y[ib];
            let dz = za - bp.z[ib];
            let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            acc += bp.q[ib] * inv_r;
            *ob += qa * inv_r;
            pairs += 1;
        }
        out[a] += acc;
    }
    pairs
}

/// Split a buffer into per-box mutable slices following the binning CSR.
fn per_box_slices<'a>(bp: &BinnedParticles, mut buf: &'a mut [f64]) -> Vec<&'a mut [f64]> {
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

/// Target-centric near field: every target box accumulates from itself and
/// all d-separation neighbours. `out` is in **sorted** particle order.
/// Parallelizes over target boxes with no write conflicts.
pub fn near_field_potentials(
    bp: &BinnedParticles,
    sep: Separation,
    parallel: bool,
    out: &mut [f64],
) -> NearFieldStats {
    near_field_potentials_softened(bp, sep, parallel, 0.0, out)
}

/// [`near_field_potentials`] with Plummer softening: the pairwise kernel
/// becomes q/√(r² + ε²). Softening only touches the near field — with
/// ε well below the leaf box side the far-field approximations are
/// unaffected (their sources sit at distance ≥ (d+1−ρ)·side, so the
/// relative perturbation is O(ε²/r²)).
pub fn near_field_potentials_softened(
    bp: &BinnedParticles,
    sep: Separation,
    parallel: bool,
    eps: f64,
    out: &mut [f64],
) -> NearFieldStats {
    let (kernel, eps2) = (Kernel::detect(), eps * eps);
    assert_eq!(out.len(), bp.len());
    let offsets = near_field_offsets(sep);
    let level = bp.level;
    let mut slices = per_box_slices(bp, out);

    let work = |(b, o): (usize, &mut &mut [f64])| -> NearFieldStats {
        let t = BoxCoord::from_index(level, b);
        let t_range = bp.range(b);
        let mut st = NearFieldStats::default();
        st.pair_interactions += self_box_potential(bp, t_range.clone(), eps2, o);
        st.box_pairs += 1;
        for &d in &offsets {
            if let Some(s) = t.offset(d) {
                let s_range = bp.range(s.index());
                if !s_range.is_empty() {
                    st.pair_interactions +=
                        box_pair_potential(kernel, bp, t_range.clone(), s_range, eps2, o);
                    st.box_pairs += 1;
                }
            }
        }
        st
    };

    // det: the reduction adds integer counters; potentials accumulate in
    // disjoint per-box slices, unaffected by the combine order.
    let total = if parallel {
        let boxes = slices.par_iter_mut().enumerate();
        boxes.map(work).reduce(NearFieldStats::default, add_stats)
    } else {
        let boxes = slices.iter_mut().enumerate();
        boxes.map(work).fold(NearFieldStats::default(), add_stats)
    };
    NearFieldStats {
        flops: total.pair_interactions * PAIR_FLOPS,
        ..total
    }
}

/// Symmetric near field exploiting Newton's third law: each unordered box
/// pair is visited once (62 of the 124 two-separation neighbours, via the
/// lexicographically-positive half of the offset set), and both boxes'
/// particles are updated. Sequential — the paper's CM version resolves the
/// write conflicts with a travelling accumulator; here the symmetric form
/// exists to measure the ~2× pair reduction (experiment E13) and as a
/// reference result.
pub fn near_field_symmetric(bp: &BinnedParticles, sep: Separation) -> (Vec<f64>, NearFieldStats) {
    let mut out = vec![0.0; bp.len()];
    let level = bp.level;
    let n_boxes = bp.binning.starts.len() - 1;
    let mut st = NearFieldStats::default();
    // Positive half: offsets that are lexicographically greater than zero.
    let half: Vec<[i32; 3]> = near_field_offsets(sep)
        .into_iter()
        .filter(|o| *o > [0, 0, 0])
        .collect();
    debug_assert_eq!(half.len(), sep.near_field_size() / 2);

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
            st.pair_interactions += self_box_potential(bp, t_range.clone(), 0.0, &mut local);
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

/// Edge length (in leaf boxes) of the blocks the colored schedule tiles the
/// leaf grid into. Must satisfy `BLOCK ≥ 2·d` so that the symmetric write
/// region of a block, `[−d, BLOCK−1+d]` per axis, spans at most `2·BLOCK`
/// boxes — the distance between same-color block origins on any axis they
/// differ in.
pub const COLOR_BLOCK: u32 = 4;

/// The 8-color block schedule for the conflict-free symmetric near field.
///
/// Leaf boxes are tiled into `COLOR_BLOCK`³ blocks; a block's color is the
/// 2×2×2 parity of its block coordinates. Two distinct blocks of the same
/// color differ by a multiple of `2·COLOR_BLOCK = 8` leaf boxes on every
/// axis they differ in, while a block's symmetric sweep only writes boxes
/// within `x ∈ [ox, ox+5]`, `y/z ∈ [oy−2, oy+5]` of its origin at
/// two-separation (the lexicographically-positive half-offsets have
/// `dx ∈ [0,2]`, `dy, dz ∈ [−2,2]`). Spans of 6 and 8 boxes never reach a
/// neighbour 8 away, so all writes within one color phase are disjoint.
///
/// Note the parity coloring must be applied to *blocks*, not individual
/// boxes: per-box 2×2×2 parity is unsound at two-separation (two same-color
/// boxes 4 apart both write the box between them, e.g. via offsets
/// `[1, 2, c]` and `[1, −2, c]`).
#[derive(Debug, Clone)]
pub struct ColorSchedule {
    /// Hierarchy level this schedule was built for.
    pub level: u32,
    /// Per color: origins (in leaf-box coordinates) of its blocks.
    pub colors: [Vec<[u32; 3]>; 8],
}

impl ColorSchedule {
    /// Build the schedule for all leaf boxes of `level`.
    pub fn build(level: u32) -> Self {
        let side = 1u32 << level;
        let nb = side.div_ceil(COLOR_BLOCK);
        let mut colors: [Vec<[u32; 3]>; 8] = Default::default();
        for bz in 0..nb {
            for by in 0..nb {
                for bx in 0..nb {
                    let color = ((bx & 1) | ((by & 1) << 1) | ((bz & 1) << 2)) as usize;
                    colors[color].push([bx * COLOR_BLOCK, by * COLOR_BLOCK, bz * COLOR_BLOCK]);
                }
            }
        }
        ColorSchedule { level, colors }
    }

    /// Total number of blocks across all colors.
    pub fn n_blocks(&self) -> usize {
        self.colors.iter().map(Vec::len).sum()
    }
}

/// Shared output buffer of a parallel symmetric sweep, this one's and the
/// colored f32 one's. The tasks of one step (or color) carve out disjoint
/// sub-slices, so handing each raw-pointer-derived `&mut [f64]` views is
/// sound.
pub(crate) struct SharedOut {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: the pointer is only dereferenced through `slice`, whose caller
// contract guarantees disjoint ranges across concurrently running tasks.
unsafe impl Sync for SharedOut {}
// SAFETY: as above — the wrapper carries no thread-affine state.
unsafe impl Send for SharedOut {}

impl SharedOut {
    pub(crate) fn new(buf: &mut [f64]) -> Self {
        SharedOut {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    /// # Safety
    /// `range` must not be viewed by any other task, nor by any other live
    /// slice of this buffer, while the returned one lives. Bounds are
    /// checked here: a range lookup the caller supplies may name anything.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self, range: Range<usize>) -> &mut [f64] {
        assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
    }
}

#[inline]
fn add_stats(mut a: NearFieldStats, b: NearFieldStats) -> NearFieldStats {
    a.merge(&b);
    a
}

/// Near-field potentials via the paper's travelling-accumulator sweep
/// (shared-memory emulation). The canonical [`fmm_machine::TravelPath`]
/// visits each lexicographically-positive half-offset once; at every step
/// each target box exchanges with the box `cum` away, gathering into `out`
/// and scattering into a separate travelling accumulator array, which is
/// added back at the end (the "return shifts"). Steps are ordered; within
/// a step each out/accumulator element is written by exactly one box, so
/// the parallel and sequential forms — and the message-passing executor,
/// whose workers call the same [`travelling_step`] on the boxes they own
/// — are bitwise identical.
/// Reports the same third-law-halved counts as [`near_field_symmetric`].
pub fn near_field_travelling_with(
    kernel: Kernel,
    bp: &BinnedParticles,
    sep: Separation,
    parallel: bool,
    eps: f64,
    out: &mut [f64],
) -> NearFieldStats {
    let bps = std::slice::from_ref(bp);
    travelling_sweep(kernel, bps, sep, parallel, eps, &mut [out])
}

/// The travelling sweep over `R` same-depth particle sets at once. The
/// geometry — the path itself, each step's `t ↦ t + cum` box map and its
/// domain clipping — depends only on the hierarchy depth and separation,
/// so it is computed once per (step, box) and the instances loop
/// innermost. For small requests the sweep is geometry-bound (tens of
/// steps × every box, a few particles each), so this is where batching a
/// serving workload actually pays.
///
/// Per instance the arithmetic does not depend on `R` or on `parallel`:
/// same self pass in box order, same ordered steps, same gather/scatter
/// into a per-instance accumulator, same return shift — so an instance's
/// output is bitwise identical however it is swept.
///
/// `outs[i]` is instance `i`'s potentials in **sorted** particle order;
/// counters are summed over the instances.
pub(crate) fn travelling_sweep(
    kernel: Kernel,
    bps: &[BinnedParticles],
    sep: Separation,
    parallel: bool,
    eps: f64,
    outs: &mut [&mut [f64]],
) -> NearFieldStats {
    assert_eq!(bps.len(), outs.len());
    let Some(first) = bps.first() else {
        return NearFieldStats::default();
    };
    let eps2 = eps * eps;
    for bp in bps {
        assert_eq!(bp.level, first.level, "one sweep needs one depth");
    }
    let mut total = NearFieldStats::default();
    for (bp, out) in bps.iter().zip(outs.iter_mut()) {
        total.merge(&self_pass(bp, eps2, parallel, out));
    }
    // Every box is a target, and a binning serves its own sources.
    let targets: Vec<u32> = (0..first.binning.starts.len() as u32 - 1).collect();
    let mut accs: Vec<Vec<f64>> = bps.iter().map(|bp| vec![0.0; bp.len()]).collect();
    let parts = bps.iter().zip(outs.iter_mut()).zip(&mut accs);
    let mut insts: Vec<_> = parts
        .map(|((bp, out), acc)| Travelling {
            bp,
            out,
            cells: bp.cells(),
            acc,
        })
        .collect();
    for step in &fmm_machine::TravelPath::new(sep.d()).steps {
        total.merge(&step_over(
            kernel, eps2, step.cum, &targets, parallel, &mut insts,
        ));
    }
    drop(insts);
    for (out, acc) in outs.iter_mut().zip(&accs) {
        return_add(out, acc);
    }
    total
}

/// Self interactions of a travelling sweep, symmetric within each box of
/// `bp`, added into `out` (sorted particle order).
pub fn self_pass(
    bp: &BinnedParticles,
    eps2: f64,
    parallel: bool,
    out: &mut [f64],
) -> NearFieldStats {
    assert_eq!(out.len(), bp.len());
    let mut slices = per_box_slices(bp, out);
    let work = |(b, o): (usize, &mut &mut [f64])| -> NearFieldStats {
        let t_range = bp.range(b);
        if t_range.is_empty() {
            return NearFieldStats::default();
        }
        let pairs = self_box_potential(bp, t_range, eps2, o);
        NearFieldStats {
            pair_interactions: pairs,
            box_pairs: 1,
            flops: pairs * PAIR_FLOPS,
        }
    };
    // det: integer-counter reduction over disjoint per-box slices.
    if parallel {
        let boxes = slices.par_iter_mut().enumerate();
        boxes.map(work).reduce(NearFieldStats::default, add_stats)
    } else {
        let boxes = slices.iter_mut().enumerate();
        boxes.map(work).fold(NearFieldStats::default(), add_stats)
    }
}

/// One instance of a travelling step: the target boxes' particles and
/// potentials in `bp`'s sorted order, the source cells by origin box —
/// wherever they sit — and the travelling accumulators laid out as those.
pub struct Travelling<'a, L> {
    pub bp: &'a BinnedParticles,
    pub out: &'a mut [f64],
    pub cells: Cells<'a, L>,
    pub acc: &'a mut [f64],
}

/// One unit step of the travelling sweep over the target boxes `targets`:
/// each exchanges with the cell `cum` away, gathering into its own run of
/// `out` and scattering into that cell's run of `acc`. Targets must be
/// distinct; then every element is written by one box, and a sweep that
/// covers the boxes by any split into calls, in any order, writes the bits
/// of the full one. The SPMD workers step the boxes they own through this.
pub fn travelling_step<L: Fn(usize) -> Range<usize> + Sync>(
    kernel: Kernel,
    eps2: f64,
    cum: [i32; 3],
    targets: &[u32],
    one: &mut Travelling<'_, L>,
) -> NearFieldStats {
    step_over(kernel, eps2, cum, targets, false, std::slice::from_mut(one))
}

/// [`travelling_step`] over same-depth instances, the instances innermost.
/// The boxes of a step are independent — box t writes out[t] and
/// acc[t + cum], both bijections of t — so they may run in parallel
/// without changing bits; `parallel` stays in this module because that
/// holds only for distinct targets under an injective range lookup.
fn step_over<L: Fn(usize) -> Range<usize> + Sync>(
    kernel: Kernel,
    eps2: f64,
    cum: [i32; 3],
    targets: &[u32],
    parallel: bool,
    insts: &mut [Travelling<'_, L>],
) -> NearFieldStats {
    let Some(first) = insts.first() else {
        return NearFieldStats::default();
    };
    let level = first.bp.level;
    for t in insts.iter() {
        assert_eq!(t.out.len(), t.bp.len());
        assert_eq!(t.acc.len(), t.cells.q.len());
    }
    let shared: Vec<(SharedOut, SharedOut)> = insts
        .iter_mut()
        .map(|t| (SharedOut::new(t.out), SharedOut::new(t.acc)))
        .collect();
    let insts = &*insts;
    let step_work = |&b: &u32| -> NearFieldStats {
        let mut st = NearFieldStats::default();
        let b = b as usize;
        let Some(s) = BoxCoord::from_index(level, b).offset(cum) else {
            return st;
        };
        let s_idx = s.index();
        for (t, (out, acc)) in insts.iter().zip(&shared) {
            let (bp, cells) = (t.bp, &t.cells);
            let t_range = bp.range(b);
            if t_range.is_empty() {
                continue;
            }
            let s_range = (cells.range)(s_idx);
            if s_range.is_empty() {
                continue;
            }
            // SAFETY: t ↦ t_range and t ↦ s_range are injective over the
            // boxes of a parallel step, a sequential one holds one pair of
            // slices at a time, and `out`/`acc` are distinct arrays.
            let t_out = unsafe { out.slice(t_range.clone()) };
            // SAFETY: same disjointness argument as `t_out`, on `acc`.
            let s_acc = unsafe { acc.slice(s_range.clone()) };
            let xs = &cells.x[s_range.clone()];
            let ys = &cells.y[s_range.clone()];
            let zs = &cells.z[s_range.clone()];
            let qs = &cells.q[s_range.clone()];
            for (i, ti) in t_range.enumerate() {
                t_out[i] += pairwise::exchange_with(
                    kernel, bp.x[ti], bp.y[ti], bp.z[ti], bp.q[ti], eps2, xs, ys, zs, qs, s_acc,
                );
                st.pair_interactions += s_range.len() as u64;
            }
            st.box_pairs += 1;
        }
        st.flops = st.pair_interactions * PAIR_FLOPS;
        st
    };
    // det: integer-counter reduction; each box owns its accumulators.
    if parallel {
        let boxes = targets.par_iter();
        boxes
            .map(step_work)
            .reduce(NearFieldStats::default, add_stats)
    } else {
        let boxes = targets.iter();
        boxes
            .map(step_work)
            .fold(NearFieldStats::default(), add_stats)
    }
}

/// The return shifts of a travelling sweep: accumulators that are home
/// again join their cells' potentials, once.
pub fn return_add(out: &mut [f64], acc: &[f64]) {
    assert_eq!(out.len(), acc.len());
    for (o, a) in out.iter_mut().zip(acc) {
        *o += *a;
    }
}

/// Target-centric near-field potentials **and** fields (−∇Φ) with Plummer
/// softening (see [`near_field_potentials_softened`]). Outputs are in
/// sorted particle order.
pub fn near_field_forces_softened(
    bp: &BinnedParticles,
    sep: Separation,
    parallel: bool,
    eps: f64,
    pot: &mut [f64],
    field: &mut [[f64; 3]],
) -> NearFieldStats {
    near_field_forces_softened_with(Kernel::detect(), bp, sep, parallel, eps, pot, field)
}

/// [`near_field_forces_softened`] with an explicit kernel choice (the
/// driver passes the one recorded on the traversal plan).
pub fn near_field_forces_softened_with(
    kernel: Kernel,
    bp: &BinnedParticles,
    sep: Separation,
    parallel: bool,
    eps: f64,
    pot: &mut [f64],
    field: &mut [[f64; 3]],
) -> NearFieldStats {
    let (eps2, cells) = (eps * eps, bp.cells());
    target_sweep(bp, sep, parallel, pot, field, |b, offsets, po, fo| {
        near_field_forces_box(kernel, &cells, bp.level, b, offsets, eps2, po, fo)
    })
}

/// Target-centric potential + field accumulation for the particles of leaf
/// box `b` of `level`, targets and sources both read through `cells`.
/// `po`/`fo` are the per-box output slices of box `b`; `offsets` is the
/// full near-field offset list. The SPMD workers run the boxes they own
/// through this, over a cell store that holds their halo.
#[allow(clippy::too_many_arguments)]
pub fn near_field_forces_box<L: Fn(usize) -> Range<usize>>(
    kernel: Kernel,
    cells: &Cells<'_, L>,
    level: u32,
    b: usize,
    offsets: &[[i32; 3]],
    eps2: f64,
    po: &mut [f64],
    fo: &mut [[f64; 3]],
) -> u64 {
    let (x, y, z, q) = (cells.x, cells.y, cells.z, cells.q);
    target_box(level, b, offsets, &cells.range, po, fo, |ti, r| {
        let (xs, ys, zs) = (&x[r.clone()], &y[r.clone()], &z[r.clone()]);
        pairwise::force_gather_with(kernel, x[ti], y[ti], z[ti], eps2, xs, ys, zs, &q[r])
    })
}

/// One box of a target-centric sweep, either precision; `range` places a
/// box's particles in the arrays `gather` reads. Each target sums the run
/// of its own box before itself, the run after itself, then every
/// non-empty in-domain neighbour run in `offsets` order; `gather(ti, run)`
/// returns one run's `(potential, field)`, which joins the target's
/// accumulator whole. A target's bits depend on that order alone. Returns
/// the directed pair count.
pub(crate) fn target_box(
    level: u32,
    b: usize,
    offsets: &[[i32; 3]],
    range: &impl Fn(usize) -> Range<usize>,
    po: &mut [f64],
    fo: &mut [[f64; 3]],
    gather: impl Fn(usize, Range<usize>) -> (f64, [f64; 3]),
) -> u64 {
    let t_range = range(b);
    if t_range.is_empty() {
        return 0;
    }
    let t = BoxCoord::from_index(level, b);
    let neighbours = offsets.iter().filter_map(|&d| t.offset(d));
    let runs: Vec<Range<usize>> = neighbours
        .map(|s| range(s.index()))
        .filter(|r| !r.is_empty())
        .collect();
    for (ti, (p_out, f_out)) in t_range.clone().zip(po.iter_mut().zip(fo.iter_mut())) {
        let mut p_acc = 0.0;
        let mut f_acc = [0.0; 3];
        let own = [t_range.start..ti, ti + 1..t_range.end];
        for r in own.iter().chain(&runs).filter(|r| !r.is_empty()) {
            let (p, f) = gather(ti, r.clone());
            p_acc += p;
            for a in 0..3 {
                f_acc[a] += f[a];
            }
        }
        *p_out += p_acc;
        for a in 0..3 {
            f_out[a] += f_acc[a];
        }
    }
    let sources: usize = runs.iter().map(Range::len).sum();
    (t_range.len() * (t_range.len() - 1 + sources)) as u64
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

/// The target-centric sweep both precisions share: `per_box(b, offsets,
/// po, fo)` on every box, `pot`/`field` in sorted particle order. A
/// parallel sweep cuts the box range into [`PIECES_PER_THREAD`] pieces per
/// thread by cost — leaf occupancy on clustered inputs is far too skewed
/// to cut by box count — and hands each its own `split_at_mut` of the
/// outputs; a sequential one is a single piece and skips the cost pass.
/// Each output element is written by its own target alone, so the result
/// is bitwise the same wherever the cuts fall.
pub(crate) fn target_sweep(
    bp: &BinnedParticles,
    sep: Separation,
    parallel: bool,
    pot: &mut [f64],
    field: &mut [[f64; 3]],
    per_box: impl Fn(usize, &[[i32; 3]], &mut [f64], &mut [[f64; 3]]) -> u64 + Sync,
) -> NearFieldStats {
    assert_eq!(pot.len(), bp.len());
    assert_eq!(field.len(), bp.len());
    let offsets = near_field_offsets(sep);
    let starts = &bp.binning.starts;
    let cuts = if parallel {
        cut_pieces(
            bp,
            &offsets,
            PIECES_PER_THREAD * rayon::current_num_threads(),
        )
    } else {
        vec![0, starts.len() - 1]
    };
    type Piece<'a> = (Range<usize>, &'a mut [f64], &'a mut [[f64; 3]]);
    let mut pieces: Vec<Piece<'_>> = Vec::with_capacity(cuts.len() - 1);
    let (mut pot, mut field) = (pot, field);
    for w in cuts.windows(2) {
        let len = (starts[w[1]] - starts[w[0]]) as usize;
        let (p_head, p_tail) = pot.split_at_mut(len);
        let (f_head, f_tail) = field.split_at_mut(len);
        pieces.push((w[0]..w[1], p_head, f_head));
        (pot, field) = (p_tail, f_tail);
    }
    let work = |(boxes, po, fo): &mut Piece<'_>| -> u64 {
        let base = starts[boxes.start] as usize;
        let slot = |b| bp.range(b).start - base..bp.range(b).end - base;
        let per_box = |b| per_box(b, &offsets, &mut po[slot(b)], &mut fo[slot(b)]);
        boxes.clone().map(per_box).sum()
    };
    // det: integer pair counts only; floats live in disjoint slices.
    let pairs: u64 = if parallel {
        pieces.par_iter_mut().map(work).sum()
    } else {
        pieces.iter_mut().map(work).sum()
    };
    NearFieldStats {
        pair_interactions: pairs,
        box_pairs: 0,
        flops: pairs * PAIR_FORCE_FLOPS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn reference(bp: &BinnedParticles, sep: Separation) -> Vec<f64> {
        let mut out = vec![0.0; bp.len()];
        let d = sep.d();
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
        near_field_potentials(&bp, Separation::Two, false, &mut out);
        let r = reference(&bp, Separation::Two);
        for (a, b) in out.iter().zip(&r) {
            assert!((a - b).abs() < 1e-10, "{} vs {}", a, b);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let bp = build(500, 2, 13);
        let mut seq = vec![0.0; bp.len()];
        let mut par = vec![0.0; bp.len()];
        near_field_potentials(&bp, Separation::Two, false, &mut seq);
        near_field_potentials(&bp, Separation::Two, true, &mut par);
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_matches_target_centric() {
        for sep in [Separation::One, Separation::Two] {
            let bp = build(400, 2, 17);
            let mut tc = vec![0.0; bp.len()];
            let st_tc = near_field_potentials(&bp, sep, false, &mut tc);
            let (sym, st_sym) = near_field_symmetric(&bp, sep);
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
    }

    #[test]
    fn forces_match_finite_difference_of_potential() {
        let bp = build(200, 2, 19);
        let mut pot = vec![0.0; bp.len()];
        let mut field = vec![[0.0; 3]; bp.len()];
        near_field_forces_softened(&bp, Separation::Two, false, 0.0, &mut pot, &mut field);
        // Check potential part agrees with the potential-only kernel.
        let mut pot2 = vec![0.0; bp.len()];
        near_field_potentials(&bp, Separation::Two, false, &mut pot2);
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

    fn forces(bp: &BinnedParticles, kernel: Kernel, parallel: bool) -> ForceOut {
        let mut pot = vec![0.0; bp.len()];
        let mut field = vec![[0.0; 3]; bp.len()];
        let sep = Separation::Two;
        let st =
            near_field_forces_softened_with(kernel, bp, sep, parallel, 0.0, &mut pot, &mut field);
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
        // Pins both the summation order per target — own box before the
        // target, own box after it, then neighbours in offset order, each
        // run summed on its own — and that `Kernel::Scalar` is 1/√ exactly.
        let bp = build(700, 2, 61);
        let got = forces(&bp, Kernel::Scalar, true);
        let offsets = near_field_offsets(Separation::Two);
        for b in 0..64 {
            let t = BoxCoord::from_index(2, b);
            let own = bp.range(b);
            for ti in own.clone() {
                let mut runs = vec![own.start..ti, ti + 1..own.end];
                runs.extend(
                    offsets
                        .iter()
                        .filter_map(|&d| t.offset(d))
                        .map(|s| bp.range(s.index())),
                );
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
            let seq = forces(&bp, kernel, false);
            for threads in [1, 2, 3, 7] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let par = pool.install(|| forces(&bp, kernel, true));
                assert_same_bits(&seq, &par, &format!("{kernel:?}, {threads} threads"));
            }
        }
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
                let cuts = cut_pieces(&bp, &near_field_offsets(Separation::Two), pieces);
                assert_eq!(cuts.len(), pieces + 1, "{what}");
                assert_eq!((cuts[0], cuts[pieces]), (0, 512), "{what}");
                assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{what}: {cuts:?}");
            }
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(7)
                .build()
                .unwrap();
            let got = pool.install(|| forces(&bp, Kernel::detect(), true));
            assert_same_bits(&got, &forces(&bp, Kernel::detect(), false), what);
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

    #[test]
    fn travelling_matches_sequential_symmetric() {
        // Every dispatched kernel family, sequential and parallel, must
        // reproduce the sequential scalar oracle: counters exactly, values
        // to rounding. Level 2 and 3, both separations.
        for (n, level) in [(400usize, 2u32), (3000, 3)] {
            for sep in [Separation::One, Separation::Two] {
                let bp = build(n, level, 31);
                let (seq, st_seq) = near_field_symmetric(&bp, sep);
                for kernel in Kernel::available() {
                    for parallel in [false, true] {
                        let mut trav = vec![0.0; bp.len()];
                        let st =
                            near_field_travelling_with(kernel, &bp, sep, parallel, 0.0, &mut trav);
                        for (a, b) in seq.iter().zip(&trav) {
                            assert!(
                                (a - b).abs() < 1e-12 * (1.0 + a.abs()),
                                "n={n} level={level} {sep:?} {kernel:?} par={parallel}: {a} vs {b}"
                            );
                        }
                        assert_eq!(st, st_seq);
                    }
                }
            }
        }
    }

    #[test]
    fn travelling_step_over_box_subsets_writes_the_full_sweeps_bits() {
        // What the SPMD workers run: every step over a Morton range (cuts
        // sibling groups at both ends), a scattered set, nothing at all and
        // the rest, with the sources served from a store that holds the
        // cells in another order than the binning, gaps between them —
        // against the full sweep, on every kernel tier.
        use fmm_tree::partition::morton_to_rowmajor;
        let (sep, level, n) = (Separation::Two, 3, 512u32);
        let bp = build(3000, level, 43);
        let mut store: [Vec<f64>; 4] = Default::default();
        let mut start_of = vec![0; n as usize];
        for b in (0..n as usize).rev() {
            start_of[b] = store[0].len();
            for (arr, src) in store.iter_mut().zip([&bp.x, &bp.y, &bp.z, &bp.q]) {
                arr.extend_from_slice(&src[bp.range(b)]);
                arr.push(f64::NAN);
            }
        }
        let range = |b: usize| start_of[b]..start_of[b] + bp.binning.count(b);
        let [x, y, z, q] = &store;
        let morton: Vec<u32> = (5..n as u64 * 5 / 8 + 3)
            .map(|code| morton_to_rowmajor(level, code) as u32)
            .collect();
        let rest = || (0..n).filter(|b| !morton.contains(b));
        let subsets = [
            morton.clone(),
            rest().filter(|b| b % 3 == 1).collect(),
            Vec::new(),
            rest().filter(|b| b % 3 != 1).collect(),
        ];
        for kernel in Kernel::available() {
            let mut want = vec![0.0; bp.len()];
            let want_st = near_field_travelling_with(kernel, &bp, sep, false, 0.0, &mut want);
            let mut got = vec![0.0; bp.len()];
            let mut acc = vec![0.0; x.len()];
            let mut st = self_pass(&bp, 0.0, false, &mut got);
            for step in &fmm_machine::TravelPath::new(sep.d()).steps {
                for boxes in &subsets {
                    let mut one = Travelling {
                        bp: &bp,
                        out: &mut got,
                        cells: Cells::new(x, y, z, q, range),
                        acc: &mut acc,
                    };
                    st.merge(&travelling_step(kernel, 0.0, step.cum, boxes, &mut one));
                }
            }
            for b in 0..n as usize {
                return_add(&mut got[bp.range(b)], &acc[range(b)]);
            }
            assert_eq!(st, want_st, "{kernel:?}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
            }
        }
    }

    #[test]
    fn travelling_instances_swept_together_keep_their_bits() {
        let bps: Vec<BinnedParticles> = (0..3)
            .map(|i| build(300 + 50 * i, 2, 50 + i as u64))
            .collect();
        let kernel = Kernel::detect();
        let mut together: Vec<Vec<f64>> = bps.iter().map(|bp| vec![0.0; bp.len()]).collect();
        let mut alone_stats = NearFieldStats::default();
        let alone: Vec<Vec<f64>> = bps
            .iter()
            .map(|bp| {
                let mut out = vec![0.0; bp.len()];
                alone_stats.merge(&near_field_travelling_with(
                    kernel,
                    bp,
                    Separation::Two,
                    true,
                    0.0,
                    &mut out,
                ));
                out
            })
            .collect();
        let mut outs: Vec<&mut [f64]> = together.iter_mut().map(Vec::as_mut_slice).collect();
        let st = travelling_sweep(kernel, &bps, Separation::Two, false, 0.0, &mut outs);
        assert_eq!(st, alone_stats);
        for (a, b) in together.iter().flatten().zip(alone.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn colored_schedule_covers_all_blocks_once() {
        for level in 1..=4u32 {
            let schedule = ColorSchedule::build(level);
            let side = 1u32 << level;
            let nb = side.div_ceil(COLOR_BLOCK);
            assert_eq!(schedule.n_blocks(), (nb * nb * nb) as usize);
            let mut seen = std::collections::HashSet::new();
            for color in &schedule.colors {
                for o in color {
                    assert!(seen.insert(*o), "block {:?} scheduled twice", o);
                    assert!(o.iter().all(|&c| c < side));
                }
            }
        }
    }

    #[test]
    fn travelling_softened_matches_target_centric_softened() {
        let bp = build(600, 2, 37);
        let eps = 0.05;
        let mut tc = vec![0.0; bp.len()];
        near_field_potentials_softened(&bp, Separation::Two, false, eps, &mut tc);
        let mut col = vec![0.0; bp.len()];
        near_field_travelling_with(Kernel::detect(), &bp, Separation::Two, true, eps, &mut col);
        for (a, b) in tc.iter().zip(&col) {
            assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()), "{} vs {}", a, b);
        }
    }

    #[test]
    fn one_separation_touches_fewer_pairs() {
        let bp = build(600, 2, 23);
        let mut o1 = vec![0.0; bp.len()];
        let mut o2 = vec![0.0; bp.len()];
        let s1 = near_field_potentials(&bp, Separation::One, false, &mut o1);
        let s2 = near_field_potentials(&bp, Separation::Two, false, &mut o2);
        assert!(s1.pair_interactions < s2.pair_interactions);
        assert!(s1.box_pairs < s2.box_pairs);
    }

    #[test]
    fn empty_boxes_handled() {
        // Few particles at deep level: most boxes empty.
        let bp = build(10, 3, 29);
        let mut out = vec![0.0; bp.len()];
        let st = near_field_potentials(&bp, Separation::Two, false, &mut out);
        assert!(st.pair_interactions <= 90);
    }
}
