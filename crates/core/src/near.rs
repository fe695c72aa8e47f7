//! Near-field direct evaluation (§3.4).
//!
//! At the optimal hierarchy depth the direct evaluation in the near field
//! accounts for about half of all arithmetic, so its efficiency is crucial.
//! The particle–particle interactions are structured as neighbour box–box
//! interactions over the two-separation neighbourhood (124 neighbours);
//! exploiting Newton's third law halves that to 62
//! box–box interactions (the paper's Fig. 10 traversal).
//!
//! One sweep is the production path, for potentials and forces alike, and
//! it has one body that every executor runs — the Serial/Rayon driver
//! over its own binning, an SPMD worker over its cell store laid out
//! row-major. The sweep takes no executor: its loop is a pool loop, one
//! piece on the calling thread under [`crate::serially`]
//! (`Executor::Serial`, every SPMD rank).
//!
//! The symmetric row sweep ([`symmetric_rows`], [`near_field_rows`]),
//! f64 or on an f32 mirror, keeps the paper's 62 third-law box pairs per
//! box, but sweeps them by *rows*: each target box exchanges with the
//! ≤ 13 runs of its half stencil H ([`fmm_tree::half_stencil`]), all
//! after it in row-major order, writing both ends into one set of outputs
//! through the two-target exchange panel. Its lane parameter is the
//! output kind: the potential alone, or the potential and the field
//! (−∇Φ), whose exchange gives the source `−q_t·r⁻³·Δ` where the target
//! gets `q_s·r⁻³·Δ`. Leaf planes coloured by z mod 3 are conflict-free
//! pool tasks. The paper resolves the conflicts with a travelling
//! accumulator instead; an SPMD rank resolves its boundary by also
//! running the *ghost targets* whose rows reach its boxes
//! ([`TargetRole`]). The driver sweeps any number of same-depth particle
//! sets together, deriving the geometry once.
//!
//! [`near_field_symmetric`] is the sequential third-law potential sweep:
//! the correctness oracle and the flop-count reference for E13, whose
//! one-sided (target-centric) side lives in `fmm-bench`.
//!
//! The innermost particle–particle loops stream the SoA coordinate arrays
//! through the [`fmm_linalg::pairwise`] rsqrt microkernels (scalar, AVX2,
//! AVX-512, or NEON), dispatched per sweep by the [`Kernel`] recorded on
//! the traversal plan. The mixed-precision (f32 near field) entry points
//! live in [`crate::near32`].

use crate::near32::ParticlesF32;
use crate::particles::BinnedParticles;
use crate::serially;
use fmm_linalg::{pairwise, Kernel};
use fmm_tree::{near_field_offsets, BoxCoord, Separation, NEAR_FIELD_SIZE};
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
            st.pair_interactions += self_box(Kernel::Scalar, cells, 0.0, [&mut local[..]]);
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

/// Lane precision `Self` and output kind of the symmetric sweep: `N` f64
/// outputs per particle, the potential (`N = 1`) or the potential and
/// the field (`N = 4`), from one target exchanging with a run of sources
/// and a panel of targets against one run. Each call's target sums and
/// each source term join the f64 outputs widened (f32 partials per call,
/// as [`crate::near32`] documents).
pub(crate) trait Lane<const N: usize>: Copy + Send + Sync {
    /// Flops charged per pair.
    const PAIR_FLOPS: u64;
    /// The target's sums over `src`, returned; each source's terms are
    /// added into its slots of `s_out`.
    fn one(
        kernel: Kernel,
        t: [Self; 4],
        eps2: Self,
        src: [&[Self]; 4],
        s_out: [&mut [f64]; N],
    ) -> [f64; N];
    /// [`Self::one`] for every target of `tgt`, each target's sums added
    /// into its slots of `t_out`.
    fn panel(
        kernel: Kernel,
        tgt: [&[Self]; 4],
        eps2: Self,
        src: [&[Self]; 4],
        t_out: [&mut [f64]; N],
        s_out: [&mut [f64]; N],
    );
}

impl Lane<1> for f64 {
    const PAIR_FLOPS: u64 = PAIR_FLOPS;
    fn one(k: Kernel, t: [f64; 4], e: f64, src: [&[f64]; 4], [s]: [&mut [f64]; 1]) -> [f64; 1] {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (t, src);
        [pairwise::exchange_with(
            k, tx, ty, tz, tq, e, xs, ys, zs, qs, s,
        )]
    }
    fn panel(
        k: Kernel,
        tgt: [&[f64]; 4],
        e: f64,
        src: [&[f64]; 4],
        [t]: [&mut [f64]; 1],
        [s]: [&mut [f64]; 1],
    ) {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (tgt, src);
        pairwise::exchange_panel_with(k, tx, ty, tz, tq, e, xs, ys, zs, qs, t, s)
    }
}

impl Lane<1> for f32 {
    const PAIR_FLOPS: u64 = PAIR_FLOPS;
    fn one(k: Kernel, t: [f32; 4], e: f32, src: [&[f32]; 4], [s]: [&mut [f64]; 1]) -> [f64; 1] {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (t, src);
        [pairwise::exchange_f32_with(k, tx, ty, tz, tq, e, xs, ys, zs, qs, s).into()]
    }
    fn panel(
        k: Kernel,
        tgt: [&[f32]; 4],
        e: f32,
        src: [&[f32]; 4],
        [t]: [&mut [f64]; 1],
        [s]: [&mut [f64]; 1],
    ) {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (tgt, src);
        pairwise::exchange_f32_panel_with(k, tx, ty, tz, tq, e, xs, ys, zs, qs, t, s)
    }
}

impl Lane<4> for f64 {
    const PAIR_FLOPS: u64 = PAIR_FORCE_FLOPS;
    fn one(k: Kernel, t: [f64; 4], e: f64, src: [&[f64]; 4], s: [&mut [f64]; 4]) -> [f64; 4] {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (t, src);
        pairwise::force_exchange_with(k, tx, ty, tz, tq, e, xs, ys, zs, qs, s)
    }
    fn panel(
        k: Kernel,
        tgt: [&[f64]; 4],
        e: f64,
        src: [&[f64]; 4],
        t: [&mut [f64]; 4],
        s: [&mut [f64]; 4],
    ) {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (tgt, src);
        pairwise::force_exchange_panel_with(k, tx, ty, tz, tq, e, xs, ys, zs, qs, t, s)
    }
}

impl Lane<4> for f32 {
    const PAIR_FLOPS: u64 = PAIR_FORCE_FLOPS;
    fn one(k: Kernel, t: [f32; 4], e: f32, src: [&[f32]; 4], s: [&mut [f64]; 4]) -> [f64; 4] {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (t, src);
        pairwise::force_exchange_f32_with(k, tx, ty, tz, tq, e, xs, ys, zs, qs, s).map(f64::from)
    }
    fn panel(
        k: Kernel,
        tgt: [&[f32]; 4],
        e: f32,
        src: [&[f32]; 4],
        t: [&mut [f64]; 4],
        s: [&mut [f64]; 4],
    ) {
        let ([tx, ty, tz, tq], [xs, ys, zs, qs]) = (tgt, src);
        pairwise::force_exchange_f32_panel_with(k, tx, ty, tz, tq, e, xs, ys, zs, qs, t, s)
    }
}

/// The outputs of one box within a box, pairwise symmetric, excluding
/// self terms: each particle exchanges with the run after it in the box,
/// `out` being the box's. Returns the pairs.
fn self_box<T: Lane<N>, const N: usize>(
    kernel: Kernel,
    [x, y, z, q]: [&[T]; 4],
    eps2: T,
    mut out: [&mut [f64]; N],
) -> u64 {
    for a in 0..x.len() {
        let b = a + 1..;
        let src = [&x[b.clone()], &y[b.clone()], &z[b.clone()], &q[b]];
        let after = out.each_mut().map(|o| &mut o[a + 1..]);
        let sums = T::one(kernel, [x[a], y[a], z[a], q[a]], eps2, src, after);
        for (o, s) in out.iter_mut().zip(sums) {
            o[a] += s;
        }
    }
    let n = x.len() as u64;
    n * n.saturating_sub(1) / 2
}

/// Leaf cells in row-major cell order, what every near-field body reads:
/// the particles `[x, y, z, q]` of cell `b` at `starts[b]..starts[b + 1]`
/// of the four arrays, so the cells `first..=last` of an x-row are the one
/// run `starts[first]..starts[last + 1]`. A binning's own arrays and CSR
/// are one; an SPMD rank's cell store, laid out row-major, is another, its
/// absent cells empty.
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
const _: () = assert!(PAIR_FLOPS.is_multiple_of(2) && PAIR_FORCE_FLOPS.is_multiple_of(2));

/// Most rows of the half stencil: the own row's tail and 12 others.
const HALF_ROWS: usize = 13;

/// Plane tasks: a plane and each instance's slabs of the outputs.
type Slabs<'o, const N: usize> = Vec<(u32, Vec<[&'o mut [f64]; N]>)>;

/// The outputs of each instance split into one slab per task: planes
/// `first`, `first + stride`, … of `level`, each slab running to the next
/// task's plane (or the end), so that a target in the task's plane owns
/// everything its H-rows write while no other task runs. With `stride`
/// 3 the planes of one colour; with 1 one plane each.
fn plane_slabs<'o, T, const N: usize>(
    insts: &[RowCells<'_, T>],
    outs: &'o mut [[&mut [f64]; N]],
    level: u32,
    first: u32,
    stride: u32,
) -> Slabs<'o, N> {
    let side = 1u32 << level;
    let plane = |c: &RowCells<'_, T>, z: u32| c.starts[(z.min(side) as usize) << (2 * level)];
    let mut rest: Vec<[&'o mut [f64]; N]> = (outs.iter_mut().zip(insts))
        .map(|(o, c)| o.each_mut().map(|o| &mut o[plane(c, first) as usize..]))
        .collect();
    let mut tasks = Vec::new();
    for z in (first..side).step_by(stride as usize) {
        let slabs = rest.iter_mut().zip(insts).map(|(r, c)| {
            let len = (plane(c, z + stride) - plane(c, z)) as usize;
            r.each_mut().map(|r| {
                let (slab, tail) = std::mem::take(r).split_at_mut(len);
                *r = tail;
                slab
            })
        });
        tasks.push((z, slabs.collect()));
    }
    tasks
}

/// The symmetric near field by rows over `R` same-depth instances, each
/// writing both ends of every pair into its own `outs[i]` (sorted particle
/// order), the `N` outputs of `T`'s [`Lane`]. The order is part of the
/// definition, and depends on the depth alone:
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
/// instance's bits do not depend on `R`. A pass deals its plane tasks
/// into one bin per thread by their particle counts ([`balanced`]), so a
/// cluster's heavy planes of one colour land on different threads. The
/// geometry of each target is computed once; the instances loop
/// innermost.
pub(crate) fn symmetric_sweep<T: Lane<N>, const N: usize>(
    kernel: Kernel,
    level: u32,
    eps2: T,
    insts: &[RowCells<'_, T>],
    outs: &mut [[&mut [f64]; N]],
    role: &(impl Fn(usize) -> TargetRole + Sync),
) -> SweepStats {
    assert_eq!(insts.len(), outs.len());
    for (c, o) in insts.iter().zip(outs.iter()) {
        assert_eq!(
            c.starts.len(),
            (1 << (3 * level)) + 1,
            "one run per leaf box"
        );
        assert!(o.iter().all(|o| o.len() == c.soa[0].len()));
    }
    let (side, plane_boxes) = (1i32 << level, 1usize << (2 * level));
    let self_pass = |(z, slabs): &mut (u32, Vec<[&mut [f64]; N]>)| -> SweepStats {
        let first = (*z as usize) * plane_boxes;
        let mut st = SweepStats::default();
        for b in first..first + plane_boxes {
            if role(b) != TargetRole::Own {
                continue;
            }
            for (c, slab) in insts.iter().zip(slabs.iter_mut()) {
                let (base, r) = (c.starts[first] as usize, c.run(b..b + 1));
                if !r.is_empty() {
                    let out = slab
                        .each_mut()
                        .map(|s| &mut s[r.start - base..r.end - base]);
                    let pairs = self_box(kernel, c.arrays(r), eps2, out);
                    st.own.pair_interactions += pairs;
                    st.own.box_pairs += 1;
                    st.own.flops += pairs * T::PAIR_FLOPS;
                }
            }
        }
        st
    };
    let stencil = fmm_tree::half_stencil();
    let exchanges = |(z, slabs): &mut (u32, Vec<[&mut [f64]; N]>)| -> SweepStats {
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
                // Each output splits after the target's run: the target's
                // slots, and the tail its H-rows lie in.
                let mut tail = slab.each_mut().map(|s| &mut **s);
                let mut t_out = tail.each_mut().map(|s| {
                    let (head, rest) = std::mem::take(s).split_at_mut(tr.end - base);
                    *s = rest;
                    &mut head[tr.start - base..]
                });
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
                    let half = T::PAIR_FLOPS / 2;
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
                    let s_out = tail
                        .each_mut()
                        .map(|s| &mut s[sr.start - tr.end..sr.end - tr.end]);
                    let (tgt, src) = (c.arrays(tr.clone()), c.arrays(sr));
                    let t_out = t_out.each_mut().map(|t| &mut **t);
                    T::panel(kernel, tgt, eps2, src, t_out, s_out);
                }
            }
        }
        st
    };
    // Particles in plane z over all instances, for the planes' costs.
    let in_plane = |z: u32| -> u64 {
        let at = |z: u32| (z.min(side as u32) as usize) * plane_boxes;
        let n = insts.iter().map(|c| c.starts[at(z + 1)] - c.starts[at(z)]);
        n.map(u64::from).sum()
    };
    let self_cost = |z: u32| in_plane(z).pow(2);
    let row_cost = |z: u32| in_plane(z) * (in_plane(z) + in_plane(z + 1) + in_plane(z + 2));
    // det: integer counters only; each task writes its own slabs, in
    // whichever bin it lands.
    let mut bins = balanced(plane_slabs(insts, outs, level, 0, 1), |t| self_cost(t.0));
    let bins = bins.par_iter_mut().map(|bin| {
        bin.iter_mut()
            .map(self_pass)
            .fold(SweepStats::default(), add_sweep)
    });
    let mut total = bins.reduce(SweepStats::default, add_sweep);
    for colour in 0..3 {
        let tasks = plane_slabs(insts, outs, level, colour, 3);
        let mut bins = balanced(tasks, |t| row_cost(t.0));
        let bins = bins.par_iter_mut().map(|bin| {
            bin.iter_mut()
                .map(exchanges)
                .fold(SweepStats::default(), add_sweep)
        });
        total = add_sweep(total, bins.reduce(SweepStats::default, add_sweep));
    }
    total.ghost.flops = total.ghost.pair_interactions * T::PAIR_FLOPS;
    total
}

/// `tasks` dealt into one bin per pool thread, or fewer: heaviest first,
/// each onto the lightest bin so far, ties to the first; a bin keeps its
/// tasks in their given order. A colour's plane tasks are independent, so
/// the bins change no bit; they only keep a clustered input's few heavy
/// planes off one thread.
fn balanced<T>(tasks: Vec<T>, cost: impl Fn(&T) -> u64) -> Vec<Vec<T>> {
    let costs: Vec<u64> = tasks.iter().map(cost).collect();
    let mut loads = vec![0u64; rayon::current_num_threads().clamp(1, tasks.len().max(1))];
    let mut heaviest: Vec<usize> = (0..tasks.len()).collect();
    heaviest.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let mut bin_of = vec![0; tasks.len()];
    for i in heaviest {
        let lightest = (0..loads.len())
            .min_by_key(|&b| loads[b])
            .expect("one bin at least");
        loads[lightest] += costs[i];
        bin_of[i] = lightest;
    }
    let mut bins: Vec<Vec<T>> = loads.iter().map(|_| Vec::new()).collect();
    for (t, b) in tasks.into_iter().zip(bin_of) {
        bins[b].push(t);
    }
    bins
}

/// The symmetric sweep over part of the grid, f64, one instance: `role`
/// says which boxes are computed here and which are ghost targets (see
/// [`TargetRole`]). Returns the potentials and, `with_fields`, the three
/// field components, each laid out as `cells`. The SPMD workers run this
/// over their cell store, for both outputs alike; with every box
/// [`TargetRole::Own`] it is the sweep of [`near_field_rows`].
pub fn symmetric_rows(
    kernel: Kernel,
    level: u32,
    cells: RowCells<'_>,
    eps2: f64,
    with_fields: bool,
    role: impl Fn(usize) -> TargetRole + Sync,
) -> (Vec<Vec<f64>>, SweepStats) {
    fn run<const N: usize>(
        kernel: Kernel,
        level: u32,
        cells: RowCells<'_>,
        eps2: f64,
        role: &(impl Fn(usize) -> TargetRole + Sync),
    ) -> (Vec<Vec<f64>>, SweepStats)
    where
        f64: Lane<N>,
    {
        let mut bufs = [(); N].map(|_| vec![0.0; cells.soa[0].len()]);
        let mut outs = [bufs.each_mut().map(Vec::as_mut_slice)];
        let st = symmetric_sweep(kernel, level, eps2, &[cells], &mut outs, role);
        (bufs.into(), st)
    }
    if with_fields {
        run::<4>(kernel, level, cells, eps2, &role)
    } else {
        run::<1>(kernel, level, cells, eps2, &role)
    }
}

/// The symmetric near field of same-depth binnings, in f64 or, `mixed`,
/// on their f32 mirrors: [`symmetric_sweep`] with every box a target,
/// added into `pot` and, `Some`, `field`. The instances' runs lie back to
/// back, each in sorted particle order: instance `i`'s potentials in its
/// `len` slots of `pot`, its three field components one after another in
/// its `3·len` slots of `field`. Counters are summed over the instances.
pub(crate) fn near_field_into(
    kernel: Kernel,
    bps: &[BinnedParticles],
    mixed: bool,
    eps: f64,
    pot: &mut [f64],
    field: Option<&mut [f64]>,
) -> NearFieldStats {
    fn run<const N: usize>(
        kernel: Kernel,
        bps: &[BinnedParticles],
        mixed: bool,
        eps: f64,
        (mut pot, mut field): (&mut [f64], &mut [f64]),
    ) -> NearFieldStats
    where
        f64: Lane<N>,
        f32: Lane<N>,
    {
        let Some(first) = bps.first() else {
            return NearFieldStats::default();
        };
        assert!(
            bps.iter().all(|bp| bp.level == first.level),
            "one sweep needs one depth"
        );
        let mut outs: Vec<[&mut [f64]; N]> = Vec::with_capacity(bps.len());
        for n in bps.iter().map(BinnedParticles::len) {
            let (p, f);
            (p, pot) = std::mem::take(&mut pot).split_at_mut(n);
            (f, field) = std::mem::take(&mut field).split_at_mut((N - 1) * n);
            let mut parts = std::iter::once(p).chain(f.chunks_exact_mut(n.max(1)));
            outs.push([(); N].map(|_| parts.next().unwrap_or_default()));
        }
        let (level, all) = (first.level, |_| TargetRole::Own);
        let st = if mixed {
            let mirrors: Vec<ParticlesF32> = bps.iter().map(ParticlesF32::build).collect();
            let insts: Vec<RowCells<'_, f32>> = (mirrors.iter().zip(bps))
                .map(|(m, bp)| RowCells::new([&m.x, &m.y, &m.z, &m.q], &bp.binning.starts))
                .collect();
            symmetric_sweep(kernel, level, (eps * eps) as f32, &insts, &mut outs, &all)
        } else {
            let insts: Vec<RowCells<'_>> = bps.iter().map(BinnedParticles::row_cells).collect();
            symmetric_sweep(kernel, level, eps * eps, &insts, &mut outs, &all)
        };
        st.own
    }
    match field {
        Some(field) => run::<4>(kernel, bps, mixed, eps, (pot, field)),
        None => run::<1>(kernel, bps, mixed, eps, (pot, &mut [])),
    }
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
    near_field_into(kernel, std::slice::from_ref(bp), false, eps, out, None)
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

/// The symmetric sweep's potentials and fields of one binning, f64 or,
/// `mixed`, on its f32 mirror: potentials added into `pot`, fields into
/// `field`, both in sorted particle order.
pub(crate) fn forces_rows(
    kernel: Kernel,
    bp: &BinnedParticles,
    mixed: bool,
    eps: f64,
    pot: &mut [f64],
    field: &mut [[f64; 3]],
) -> NearFieldStats {
    let n = bp.len();
    let mut f = vec![0.0; 3 * n];
    let one = std::slice::from_ref(bp);
    let st = near_field_into(kernel, one, mixed, eps, pot, Some(&mut f));
    for (i, o) in field.iter_mut().enumerate() {
        for a in 0..3 {
            o[a] += f[a * n + i];
        }
    }
    st
}

/// Near-field potentials **and** fields (−∇Φ) with Plummer softening
/// q/√(r² + ε²), by the symmetric row sweep on the detected kernel, added
/// into `pot` and `field` (sorted particle order). Softening only touches the near field — with ε well
/// below the leaf box side the far-field approximations are unaffected
/// (their sources sit at distance ≥ (d+1−ρ)·side, so the relative
/// perturbation is O(ε²/r²)). `parallel = false` runs it [`serially`];
/// the flag and the one-value separation, which is ignored, are kept only
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
    forces_rows(Kernel::detect(), bp, false, eps, pot, field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads;
    use fmm_tree::{Domain, SEPARATION};

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
    /// force over boxes, softened by `eps2`; and the directed pairs.
    #[allow(clippy::needless_range_loop)]
    fn reference(bp: &BinnedParticles, eps2: f64) -> (Vec<f64>, u64) {
        let mut out = vec![0.0; bp.len()];
        let mut directed = 0;
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
                    out[ti] += bp.q[si] / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
                    directed += 1;
                }
            }
        }
        (out, directed)
    }

    fn build(n: usize, level: u32, seed: u64) -> BinnedParticles {
        let (pts, q) = pseudo_system(n, seed);
        BinnedParticles::build(&pts, &q, Domain::unit(), level)
    }

    #[test]
    fn rows_match_reference() {
        let bp = build(300, 2, 11);
        let (out, _) = rows(&bp, Kernel::detect(), 0.0);
        let (r, _) = reference(&bp, 0.0);
        for (a, b) in out.iter().zip(&r) {
            assert!((a - b).abs() < 1e-10, "{} vs {}", a, b);
        }
    }

    #[test]
    fn symmetric_halves_the_directed_pairs() {
        // Newton's third law: each unordered pair once, self-box pairs
        // included, so exactly half the directed pairs of the
        // neighbourhood.
        let bp = build(400, 2, 17);
        let (want, directed) = reference(&bp, 0.0);
        let (sym, st_sym) = near_field_symmetric(&bp);
        for (a, b) in want.iter().zip(&sym) {
            assert!((a - b).abs() < 1e-10);
        }
        assert_eq!(2 * st_sym.pair_interactions, directed);
    }

    #[test]
    fn forces_match_finite_difference_of_potential() {
        let bp = build(200, 2, 19);
        let mut pot = vec![0.0; bp.len()];
        let mut field = vec![[0.0; 3]; bp.len()];
        near_field_forces_softened(&bp, Separation::Two, false, 0.0, &mut pot, &mut field);
        // The potential half is the potential sweep's arithmetic, bit for
        // bit.
        let (pot2, _) = rows(&bp, Kernel::detect(), 0.0);
        assert_eq!(bits(&pot), bits(&pot2));
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

    fn forces(bp: &BinnedParticles, kernel: Kernel, eps: f64) -> ForceOut {
        let mut pot = vec![0.0; bp.len()];
        let mut field = vec![[0.0; 3]; bp.len()];
        let st = forces_rows(kernel, bp, false, eps, &mut pot, &mut field);
        (pot, field, st)
    }

    fn assert_same_bits(a: &ForceOut, b: &ForceOut, what: &str) {
        assert_eq!(a.2, b.2, "{what}: counters");
        assert_eq!(bits(&a.0), bits(&b.0), "{what}: potential");
        assert_eq!(
            bits(a.1.as_flattened()),
            bits(b.1.as_flattened()),
            "{what}: field"
        );
    }

    #[test]
    fn force_rows_bits_do_not_depend_on_threads() {
        // 1 100 of 1 500 particles sit in the eight boxes around the centre
        // of a 512-box grid: the heavy planes share a colour's tasks with
        // nearly empty ones.
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
            let seq = threads(1).install(|| forces(&bp, kernel, 0.0));
            for n in [2, 3, 7] {
                let par = threads(n).install(|| forces(&bp, kernel, 0.0));
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
            let mut directed = 0;
            for (ti, w) in want.iter_mut().enumerate() {
                for si in 0..bp.len() {
                    let (a, b) = (boxes[ti], boxes[si]);
                    let near = [(a.x, b.x), (a.y, b.y), (a.z, b.z)]
                        .iter()
                        .all(|&(u, v)| (u as i32 - v as i32).abs() <= d);
                    if si == ti || !near {
                        continue;
                    }
                    directed += 1;
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
                    let (pot, field, st) = threads(n).install(|| forces(&bp, kernel, eps));
                    assert_eq!(2 * st.pair_interactions, directed, "{what}");
                    for (i, &(p, f, sp, sf)) in want.iter().enumerate() {
                        assert!((pot[i] - p).abs() <= 1e-12 * sp, "{what}: potential {i}");
                        for a in 0..3 {
                            let err = (field[i][a] - f[a]).abs();
                            assert!(err <= 1e-12 * sf, "{what}: field {i}[{a}]");
                        }
                    }
                    let (pot, st) = threads(n).install(|| rows(&bp, kernel, eps));
                    assert_eq!(2 * st.pair_interactions, directed, "{what}");
                    for (i, &(p, _, sp, _)) in want.iter().enumerate() {
                        assert!((pot[i] - p).abs() <= 1e-12 * sp, "{what}: rows {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn forces_survive_degenerate_inputs() {
        // Inputs whose work sits in one box or in a few boxes. Every
        // particle is in every other's neighbourhood, so the near field
        // alone must reproduce direct summation.
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
            let got = threads(7).install(|| forces(&bp, Kernel::detect(), 0.0));
            let one = threads(1).install(|| forces(&bp, Kernel::detect(), 0.0));
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
    /// order, one `exchange_with` (`force_exchange_with`, `with_fields`)
    /// per (target particle, run). Returns the potentials, then the field
    /// components.
    fn reference_rows(bp: &BinnedParticles, eps2: f64, with_fields: bool) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; bp.len()]; if with_fields { 4 } else { 1 }];
        let (level, side) = (bp.level, 1i32 << bp.level);
        let src = |r: Range<usize>| [&bp.x, &bp.y, &bp.z, &bp.q].map(|a| &a[r.clone()]);
        // Target `ti` against the run `r`, whose outputs start at `r.start`.
        let mut one = |ti: usize, r: Range<usize>| {
            let (x, y, z, q) = (bp.x[ti], bp.y[ti], bp.z[ti], bp.q[ti]);
            let [xs, ys, zs, qs] = src(r.clone());
            let (heads, mut tails): (Vec<_>, Vec<_>) =
                out.iter_mut().map(|o| o.split_at_mut(r.start)).unzip();
            let mut s_out = tails.iter_mut().map(|t| &mut t[..r.len()]);
            let k = Kernel::Scalar;
            let sums = if with_fields {
                let s_out = [(); 4].map(|_| s_out.next().unwrap());
                pairwise::force_exchange_with(k, x, y, z, q, eps2, xs, ys, zs, qs, s_out).to_vec()
            } else {
                let s_out = s_out.next().unwrap();
                vec![pairwise::exchange_with(
                    k, x, y, z, q, eps2, xs, ys, zs, qs, s_out,
                )]
            };
            for (h, s) in heads.into_iter().zip(sums) {
                h[ti] += s;
            }
        };
        for b in 0..1usize << (3 * level) {
            for ti in bp.range(b) {
                one(ti, ti + 1..bp.range(b).end);
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
                                one(ti, sr.clone());
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

    /// The sweep's outputs, potentials then field components, as bits.
    fn all_bits(out: &ForceOut) -> Vec<Vec<u64>> {
        let field = (0..3).map(|a| out.1.iter().map(|f| f[a].to_bits()).collect());
        std::iter::once(bits(&out.0)).chain(field).collect()
    }

    #[test]
    fn scalar_rows_are_the_documented_order_bit_for_bit() {
        for (n, level, eps) in [(400usize, 2u32, 0.0), (3000, 3, 0.0), (2500, 3, 0.03)] {
            let bp = build(n, level, 31);
            let what = format!("n={n} level={level} eps={eps}");
            let (got, _) = rows(&bp, Kernel::Scalar, eps);
            let want = reference_rows(&bp, eps * eps, false);
            assert_eq!(bits(&got), bits(&want[0]), "{what}");
            let got = forces(&bp, Kernel::Scalar, eps);
            let want: Vec<Vec<u64>> = reference_rows(&bp, eps * eps, true)
                .iter()
                .map(|v| bits(v))
                .collect();
            assert_eq!(all_bits(&got), want, "{what} forces");
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
            assert_eq!(
                bits(&scalar),
                bits(&reference_rows(bp, 0.0, false)[0]),
                "{what}"
            );
            for kernel in Kernel::available() {
                let one = threads(1).install(|| rows(bp, kernel, 0.0));
                assert_eq!(one.1, st_sym, "{what} {kernel:?}");
                let scale = sym.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                for (a, b) in one.0.iter().zip(&sym) {
                    assert!((a - b).abs() <= 1e-12 * scale, "{what} {kernel:?}");
                }
                let one_f = threads(1).install(|| forces(bp, kernel, 0.0));
                assert_eq!(bits(&one_f.0), bits(&one.0), "{what} {kernel:?}: forces' Φ");
                for n in [2, 4] {
                    let par = threads(n).install(|| rows(bp, kernel, 0.0));
                    assert_eq!(bits(&par.0), bits(&one.0), "{what} {kernel:?} {n} threads");
                    assert_eq!(par.1, one.1);
                    let par_f = threads(n).install(|| forces(bp, kernel, 0.0));
                    assert_same_bits(&par_f, &one_f, &format!("{what} {kernel:?} {n} threads"));
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
        for (mixed, with_fields) in [(false, false), (true, false), (false, true), (true, true)] {
            let what = format!("mixed={mixed} forces={with_fields}");
            // Each instance's potentials, then its field components.
            let sweep = |bps: &[BinnedParticles]| {
                let n: usize = bps.iter().map(BinnedParticles::len).sum();
                let (mut pot, mut field) = (vec![0.0; n], vec![0.0; 3 * n]);
                let f = with_fields.then_some(&mut field[..]);
                let st = near_field_into(kernel, bps, mixed, 0.0, &mut pot, f);
                (pot, field, st)
            };
            let (pot, field, st) = sweep(&bps);
            let (mut alone_stats, mut at) = (NearFieldStats::default(), 0);
            for bp in &bps {
                let (p, f, st) = sweep(std::slice::from_ref(bp));
                alone_stats.merge(&st);
                let n = bp.len();
                assert_eq!(bits(&p), bits(&pot[at..at + n]), "{what}");
                assert_eq!(bits(&f), bits(&field[3 * at..3 * (at + n)]), "{what}");
                at += n;
            }
            assert_eq!(st, alone_stats, "{what}");
        }
    }

    #[test]
    fn ghost_targets_give_every_owned_box_the_full_sweeps_bits() {
        // What an SPMD rank runs: its boxes as `Own`, the boxes whose
        // H-rows reach one of them as `Ghost`, the rest skipped. Owned
        // particles get the full sweep's bits, potentials and forces
        // alike, over one set of ghost targets; owned counters sum to the
        // full sweep's.
        let (level, n) = (3, 512usize);
        let bp = build(3000, level, 47);
        let halo = fmm_tree::half_offsets();
        for kernel in Kernel::available() {
            for with_fields in [false, true] {
                let what = format!("{kernel:?} forces={with_fields}");
                let (want, want_st) =
                    symmetric_rows(kernel, level, bp.row_cells(), 0.0, with_fields, |_| {
                        TargetRole::Own
                    });
                let mut sum = NearFieldStats::default();
                let mut ghost_pairs = [0; 3];
                for (part, ghosts) in ghost_pairs.iter_mut().enumerate() {
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
                    let cells = bp.row_cells();
                    let (got, st) = symmetric_rows(kernel, level, cells, 0.0, with_fields, role);
                    *ghosts = st.ghost.pair_interactions;
                    assert!(*ghosts > 0);
                    sum.merge(&st.own);
                    for b in (0..n).filter(|&b| owned(b)) {
                        let r = bp.range(b);
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(bits(&g[r.clone()]), bits(&w[r.clone()]), "{what} box {b}");
                        }
                    }
                }
                assert_eq!(sum, want_st.own, "{what}");
            }
        }
    }

    #[test]
    fn rows_softened_match_reference() {
        let bp = build(600, 2, 37);
        let eps = 0.05;
        let (want, _) = reference(&bp, eps * eps);
        let (col, _) = rows(&bp, Kernel::detect(), eps);
        for (a, b) in want.iter().zip(&col) {
            assert!((a - b).abs() < 1e-10 * (1.0 + a.abs()), "{} vs {}", a, b);
        }
    }

    #[test]
    fn empty_boxes_handled() {
        // Few particles at deep level: most boxes empty.
        let bp = build(10, 3, 29);
        let (_, st) = rows(&bp, Kernel::detect(), 0.0);
        assert!(st.pair_interactions <= 45);
    }
}
