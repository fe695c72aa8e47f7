//! The per-worker SPMD program: the five FMM phases of the paper's §2.2,
//! executed over block-distributed boxes with explicit communication only.
//!
//! Bitwise identity with the serial backend is a hard invariant, kept by
//! running the *same* per-box arithmetic in the same order:
//! * P2O/eval run `fmm_core::driver::{p2o, eval_local}` over the worker's
//!   own binning (other boxes are empty and skipped);
//! * T1/T2/T3 run one-row `gemm_acc` calls per owned box — rows of a GEMM
//!   are independent, so one-row products equal the corresponding rows of
//!   the serial panel products bit for bit;
//! * a box whose T2 source is out of domain still multiplies a zero row
//!   whenever the serial slab ran the panel GEMM (the `any` predicate
//!   below reproduces the serial slab test), because `0.0 + (−0.0)`
//!   rounds differently from skipping the addition;
//! * the near field runs the identical travelling-accumulator sweep with
//!   the slots physically shifted between workers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fmm_core::driver::{eval_local, p2o, Fmm};
use fmm_core::field::FieldHierarchy;
use fmm_core::near::{
    near_field_forces_box, pair_exchange_with, self_box_potential, NearFieldStats, PAIR_FLOPS,
    PAIR_FORCE_FLOPS,
};
use fmm_core::particles::BinnedParticles;
use fmm_core::stats::Counters;
use fmm_core::translations::TranslationSet;
use fmm_core::traversal::{downward_level, upward_level, Aggregation};
use fmm_core::TraversalPlan;
use fmm_linalg::{gemm_acc_with, gemm_flops};
use fmm_machine::{subgrid_extent, BlockLayout};
use fmm_tree::morton::morton_decode;
use fmm_tree::partition::morton_to_rowmajor;
use fmm_tree::{near_field_offsets, BoxCoord, Domain, Hierarchy};

use crate::collectives::{
    all_to_allv, broadcast_from_root, exchange_rows, gather_level_to_root, halo_exchange_axis,
    particle_exchange, particle_halo_axis, shift_slots, shift_slots_part, CellParticles, Slot,
};
use crate::fabric::WorkerCtx;
use crate::schedule::{cell_index, CommProgram, Step, StepKind};

/// Read-only inputs shared by all workers.
pub(crate) struct Shared<'a> {
    pub fmm: &'a Fmm,
    pub positions: &'a [[f64; 3]],
    pub charges: &'a [f64],
    pub domain: Domain,
    pub depth: u32,
    pub with_fields: bool,
    pub plan: &'a TraversalPlan,
    /// The communication schedule — the same [`CommProgram`] the static
    /// analyzer in `fmm-verify` checks. Every collective call below is
    /// cued by one of its steps; no schedule decision is made here.
    pub program: &'a CommProgram,
}

/// A worker's read cursor over one phase's steps. Each collective the
/// worker runs consumes the matching step; the `debug_assert` on the tag
/// pins the fabric's tag counter to the program's static tag sequence, so
/// an executor/schedule divergence fails loudly in debug builds.
struct Cursor<'a> {
    steps: &'a [Step],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn new(steps: &'a [Step]) -> Self {
        Cursor { steps, i: 0 }
    }

    /// Consume the next step, which must exist and satisfy `want`.
    fn next(&mut self, ctx: &WorkerCtx, want: impl Fn(&StepKind) -> bool) -> &'a Step {
        let st = &self.steps[self.i];
        self.i += 1;
        debug_assert!(want(&st.kind), "schedule mismatch at step {st:?}");
        debug_assert_eq!(ctx.tags.peek(), st.tag, "tag drift at step {st:?}");
        st
    }

    /// Consume the next step iff it satisfies `want` (schedule-driven
    /// branches: the program says whether the collective runs).
    fn next_if(&mut self, ctx: &WorkerCtx, want: impl Fn(&StepKind) -> bool) -> Option<&'a Step> {
        let st = self.steps.get(self.i)?;
        if !want(&st.kind) {
            return None;
        }
        self.i += 1;
        debug_assert_eq!(ctx.tags.peek(), st.tag, "tag drift at step {st:?}");
        Some(st)
    }

    /// Every step of the phase must have been consumed.
    fn finish(self) {
        debug_assert_eq!(self.i, self.steps.len(), "unconsumed schedule steps");
    }
}

/// One worker's contribution to the evaluation.
pub(crate) struct WorkerOut {
    pub counters: Counters,
    /// Original input index of each locally-sorted particle.
    pub orig: Vec<usize>,
    /// Combined far + near potential per local particle.
    pub pot: Vec<f64>,
    pub fields: Option<Vec<[f64; 3]>>,
    pub near_stats: NearFieldStats,
    pub p2o_flops: u64,
    pub eval_flops: u64,
    /// GEMM flops this worker performed in the upward/downward traversal
    /// (T1 + T2 + T3) — the per-worker load-balance signal the report's
    /// `worker_flops` aggregates.
    pub traversal_flops: u64,
    /// Wall time of [sort, p2o, upward, downward, eval, near].
    pub times: [Duration; 6],
}

/// Does a whole parent plane of level `l` have any in-domain T2 source at
/// this (octant parity `o`, offset `off`) along one of x/y — i.e. does any
/// parent coordinate `q ∈ [0, 2^(l−1))` put `2q + o + off` inside
/// `[0, 2^l)`? Where it has none, no serial panel multiplies this offset,
/// so the worker skips it too. (The serial sweep's row-blocked panels skip
/// somewhat more; the zero-row multiplies kept here add ±0 to an
/// accumulator that started at +0, which leaves its bits alone.)
#[inline]
fn axis_has_source(l: u32, o: i64, off: i64) -> bool {
    let n = 1i64 << l;
    let np = n >> 1;
    let base = o + off;
    let qmin = 0i64.max((1 - base).div_euclid(2));
    let qmax = (np - 1).min((n - 1 - base).div_euclid(2));
    qmin <= qmax
}

/// T2 + T3 for this worker's boxes of a distributed level `l`, bitwise
/// identical to the serial `downward_level`: one-row GEMMs are rows of
/// the serial panel products, and each box writes only its own row, so
/// any enumeration of the owned boxes gives the serial bits. Returns the
/// GEMM flops performed (zero-row multiplies included, as the serial
/// closed form counts them).
#[allow(clippy::too_many_arguments)]
fn downward_owned(
    ctx: &mut WorkerCtx,
    boxes: impl Iterator<Item = BoxCoord>,
    local_parent: &[f64],
    local_cur: &mut [f64],
    far_cur: &[f64],
    ts: &TranslationSet,
    plan: &TraversalPlan,
    l: u32,
    k: usize,
) -> u64 {
    let n_axis = 1i64 << l;
    let apply_t3 = l >= 3;
    // Serial zeroes the whole level, then *adds* each box's accumulator
    // into it; replicate both steps so −0.0 sums keep their sign behavior.
    for v in local_cur.iter_mut() {
        *v = 0.0;
    }
    let zero_row = vec![0.0; k];
    let mut acc = vec![0.0; k];
    let mut flops = 0u64;
    for c in boxes {
        let oct = c.octant();
        let op = &plan.octants[oct];
        for v in acc.iter_mut() {
            *v = 0.0;
        }
        if apply_t3 {
            let pi = c.parent().expect("l >= 3").index();
            gemm_acc_with(
                plan.kernel,
                1,
                k,
                k,
                &local_parent[pi * k..(pi + 1) * k],
                ts.t3t[oct].as_slice(),
                &mut acc,
            );
        }
        let o = [(c.x & 1) as i64, (c.y & 1) as i64, (c.z & 1) as i64];
        let sz_base = 2 * ((c.z >> 1) as i64) + o[2];
        for (j, &off) in op.offsets.iter().enumerate() {
            let sz = sz_base + off[2] as i64;
            let any = (0..n_axis).contains(&sz)
                && axis_has_source(l, o[0], off[0] as i64)
                && axis_has_source(l, o[1], off[1] as i64);
            if !any {
                continue;
            }
            let m = ts.t2t[op.t2_idx[j] as usize]
                .as_ref()
                .expect("interactive offset has a T2 matrix");
            let s = [c.x as i64 + off[0] as i64, c.y as i64 + off[1] as i64, sz];
            if s.iter().all(|&v| v >= 0 && v < n_axis) {
                let si = ((s[2] * n_axis + s[1]) * n_axis + s[0]) as usize;
                gemm_acc_with(
                    plan.kernel,
                    1,
                    k,
                    k,
                    &far_cur[si * k..(si + 1) * k],
                    m.as_slice(),
                    &mut acc,
                );
            } else {
                // The slab GEMM ran with this row zeroed; do the same.
                gemm_acc_with(plan.kernel, 1, k, k, &zero_row, m.as_slice(), &mut acc);
            }
        }
        let ci = c.index();
        for (d, s) in local_cur[ci * k..(ci + 1) * k].iter_mut().zip(&acc) {
            *d += *s;
        }
        ctx.counters
            .add_local_words((op.offsets.len() as u64 + 2) * k as u64);
        flops += (op.offsets.len() as u64 + apply_t3 as u64) * gemm_flops(1, k, k);
    }
    flops
}

pub(crate) fn worker_main(mut ctx: WorkerCtx, sh: &Shared<'_>) -> WorkerOut {
    let rank = ctx.rank;
    let p = ctx.p();
    let depth = sh.depth;
    let n_axis = 1usize << depth;
    let leaf = BlockLayout::new([n_axis; 3], ctx.grid);
    let cfg = sh.fmm.config();
    let k = sh.fmm.k();
    let ts = sh.fmm.translations();
    let mut times = [Duration::ZERO; 6];
    let mut tflops = 0u64;

    // ---- Phase 0: sort. Block-distributed input particles are routed to
    // the worker owning their leaf box (the paper's coordinate sort).
    let t0 = Instant::now();
    let n = sh.positions.len();
    let (i0, i1) = (rank * n / p, (rank + 1) * n / p);
    let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); p];
    for i in i0..i1 {
        let b = sh.domain.locate(sh.positions[i], depth);
        let w = leaf.vu_of([b.x as usize, b.y as usize, b.z as usize]);
        outgoing[w].extend_from_slice(&[
            sh.positions[i][0],
            sh.positions[i][1],
            sh.positions[i][2],
            sh.charges[i],
            i as f64,
        ]);
    }
    let mut cur = Cursor::new(&sh.program.phases[0]);
    let st = cur.next(&ctx, |k| matches!(k, StepKind::Router));
    // The model prices the whole redistribution as one router send
    // (zero at p = 1, where the router moves nothing).
    ctx.count_op(st.logical_msgs);
    let mine = all_to_allv(&mut ctx, outgoing);
    cur.finish();
    let m_loc = mine.len() / 5;
    let mut pos = Vec::with_capacity(m_loc);
    let mut q = Vec::with_capacity(m_loc);
    let mut orig = Vec::with_capacity(m_loc);
    for ch in mine.chunks_exact(5) {
        pos.push([ch[0], ch[1], ch[2]]);
        q.push(ch[3]);
        orig.push(ch[4] as usize);
    }
    let bp = BinnedParticles::build(&pos, &q, sh.domain, depth);
    let orig_sorted = bp.binning.gather(&orig);
    times[0] = t0.elapsed();

    // ---- Phase 1: P2O over owned leaf boxes (all other boxes are empty
    // in this worker's binning and skipped).
    ctx.set_phase(1);
    let t0 = Instant::now();
    let mut fh = FieldHierarchy::new(Hierarchy::new(depth), k);
    let leaf_side = sh.domain.box_side(depth);
    let a_leaf = cfg.outer_ratio * leaf_side;
    let p2o_flops = p2o(
        &bp,
        sh.fmm.rule(),
        a_leaf,
        depth,
        false,
        &mut fh.far[depth as usize],
    );
    times[1] = t0.elapsed();

    // ---- Phase 2: upward pass. Distributed levels combine per owned
    // parent (children are co-located with their parent under the block
    // layout); once a level no longer fills the VU grid, its children are
    // combined to rank 0 (Multigrid embedding) and the remaining levels
    // run there serially.
    ctx.set_phase(2);
    let t0 = Instant::now();
    let mut cur = Cursor::new(&sh.program.phases[2]);
    if depth >= 3 {
        for l in (1..depth).rev() {
            if subgrid_extent(l, &ctx.grid).is_some() {
                let lay = BlockLayout::new([1usize << l; 3], ctx.grid);
                let (lo, hi) = fh.far.split_at_mut(l as usize + 1);
                let parents = &mut lo[l as usize];
                let children = &hi[0];
                for li in 0..lay.boxes_per_vu() {
                    let g = lay.global_of(rank, li);
                    let pb = BoxCoord {
                        level: l,
                        x: g[0] as u32,
                        y: g[1] as u32,
                        z: g[2] as u32,
                    };
                    let out = {
                        let pi = pb.index();
                        &mut parents[pi * k..(pi + 1) * k]
                    };
                    for oct in 0..8 {
                        let ci = pb.child(oct).index();
                        gemm_acc_with(
                            sh.plan.kernel,
                            1,
                            k,
                            k,
                            &children[ci * k..(ci + 1) * k],
                            ts.t1t[oct].as_slice(),
                            out,
                        );
                    }
                    ctx.counters.add_local_words(8 * k as u64);
                    tflops += gemm_flops(8, k, k);
                }
            } else {
                if cur
                    .next_if(
                        &ctx,
                        |kd| matches!(kd, StepKind::Gather { level } if *level == l + 1),
                    )
                    .is_some()
                {
                    gather_level_to_root(&mut ctx, &mut fh.far[(l + 1) as usize], l + 1, k);
                }
                if rank == 0 {
                    let one = std::slice::from_mut(&mut fh);
                    let fl = upward_level(one, ts, sh.plan, l, Aggregation::Gemm, false);
                    ctx.counters.add_local_words(fl.copied);
                    tflops += fl.t1;
                }
            }
        }
    }
    cur.finish();
    times[2] = t0.elapsed();

    // ---- Phase 3: downward pass. Embedded levels run on rank 0; the
    // first distributed level receives its parents' locals by broadcast;
    // each distributed level halo-exchanges the far field and then runs
    // T2 + T3 per owned box.
    ctx.set_phase(3);
    let t0 = Instant::now();
    let sep = cfg.separation;
    let mut cur = Cursor::new(&sh.program.phases[3]);
    for l in 2..=depth {
        if !sh.program.has_box_halo(l) {
            // Multigrid-embedded level: rank 0 computes it serially.
            if rank == 0 {
                let one = std::slice::from_mut(&mut fh);
                let fl = downward_level(one, ts, sh.plan, false, Aggregation::Gemm, false, l);
                ctx.counters.add_local_words(fl.copied);
                tflops += fl.t2 + fl.t3;
            }
            continue;
        }
        if cur
            .next_if(
                &ctx,
                |kd| matches!(kd, StepKind::Broadcast { level } if *level == l - 1),
            )
            .is_some()
        {
            broadcast_from_root(&mut ctx, &mut fh.local[(l - 1) as usize]);
        }
        for _ in 0..3 {
            let st = cur.next(
                &ctx,
                |kd| matches!(kd, StepKind::BoxHalo { level, .. } if *level == l),
            );
            let StepKind::BoxHalo { axis, .. } = st.kind else {
                unreachable!()
            };
            ctx.count_op(st.logical_msgs);
            halo_exchange_axis(
                &mut ctx,
                &mut fh.far[l as usize],
                l,
                axis,
                sh.program.ghost,
                k,
            );
        }
        let lay = BlockLayout::new([1usize << l; 3], ctx.grid);
        let (lo, hi) = fh.local.split_at_mut(l as usize);
        tflops += downward_owned(
            &mut ctx,
            (0..lay.boxes_per_vu()).map(|li| {
                let g = lay.global_of(rank, li);
                BoxCoord {
                    level: l,
                    x: g[0] as u32,
                    y: g[1] as u32,
                    z: g[2] as u32,
                }
            }),
            &lo[(l - 1) as usize],
            &mut hi[0],
            &fh.far[l as usize],
            ts,
            sh.plan,
            l,
            k,
        );
    }
    cur.finish();
    times[3] = t0.elapsed();

    // ---- Phase 4: evaluate leaf inner approximations at owned particles.
    ctx.set_phase(4);
    let t0 = Instant::now();
    let b_leaf = cfg.inner_ratio * leaf_side;
    let mut pot = vec![0.0; bp.len()];
    let mut far_field = sh.with_fields.then(|| vec![[0.0; 3]; bp.len()]);
    let eval_flops = eval_local(
        &bp,
        sh.fmm.rule(),
        cfg.m_trunc,
        b_leaf,
        depth,
        false,
        &fh.local[depth as usize],
        &mut pot,
        far_field.as_deref_mut(),
    );
    times[4] = t0.elapsed();

    // ---- Phase 5: near field.
    ctx.set_phase(5);
    let t0 = Instant::now();
    let eps2 = cfg.softening * cfg.softening;
    let mut near_pot = vec![0.0; bp.len()];
    let mut near_field = sh.with_fields.then(|| vec![[0.0; 3]; bp.len()]);
    let mut stats = NearFieldStats::default();
    if let Some(near_f) = near_field.as_mut() {
        // Forces are target-centric: fetch true neighbor particles to
        // ghost depth d (no wrap) and run the serial per-box kernel over
        // the halo-extended binning.
        let own = |c: usize| -> Option<CellParticles> {
            let g = [c % n_axis, (c / n_axis) % n_axis, c / (n_axis * n_axis)];
            if leaf.vu_of(g) != rank {
                return None;
            }
            let r = bp.range(c);
            Some(CellParticles {
                xs: bp.x[r.clone()].to_vec(),
                ys: bp.y[r.clone()].to_vec(),
                zs: bp.z[r.clone()].to_vec(),
                qs: bp.q[r].to_vec(),
            })
        };
        let mut store: BTreeMap<usize, CellParticles> = BTreeMap::new();
        let mut cur = Cursor::new(&sh.program.phases[5]);
        for _ in 0..3 {
            let st = cur.next(&ctx, |kd| matches!(kd, StepKind::ParticleHalo { .. }));
            let StepKind::ParticleHalo { axis } = st.kind else {
                unreachable!()
            };
            ctx.count_op(st.logical_msgs);
            particle_halo_axis(&mut ctx, depth, sep.d() as usize, axis, &own, &mut store);
        }
        cur.finish();
        let mut pos2: Vec<[f64; 3]> = Vec::with_capacity(bp.len());
        let mut q2: Vec<f64> = Vec::with_capacity(bp.len());
        for i in 0..bp.len() {
            pos2.push([bp.x[i], bp.y[i], bp.z[i]]);
            q2.push(bp.q[i]);
        }
        for cell in store.values() {
            for j in 0..cell.len() {
                pos2.push([cell.xs[j], cell.ys[j], cell.zs[j]]);
                q2.push(cell.qs[j]);
            }
        }
        // Stable binning keeps each box's particles in owner order, so
        // per-box source order equals the serial global binning's.
        let bph = BinnedParticles::build(&pos2, &q2, sh.domain, depth);
        let offsets = near_field_offsets(sep);
        let mut pot_h = vec![0.0; bph.len()];
        let mut f_h = vec![[0.0; 3]; bph.len()];
        for li in 0..leaf.boxes_per_vu() {
            let g = leaf.global_of(rank, li);
            let bi = cell_index(g, n_axis);
            let rh = bph.range(bi);
            stats.pair_interactions += near_field_forces_box(
                &bph,
                bi,
                &offsets,
                eps2,
                &mut pot_h[rh.clone()],
                &mut f_h[rh],
            );
        }
        for li in 0..leaf.boxes_per_vu() {
            let g = leaf.global_of(rank, li);
            let bi = cell_index(g, n_axis);
            for (dst, src) in bp.range(bi).zip(bph.range(bi)) {
                near_pot[dst] = pot_h[src];
                near_f[dst] = f_h[src];
            }
        }
        stats.flops = stats.pair_interactions * PAIR_FORCE_FLOPS;
    } else {
        // Potentials use the symmetric travelling-accumulator sweep: each
        // owned box's particles + partial accumulator ride a slot that
        // CSHIFTs along the snake itinerary, exactly as the serial
        // emulation (and the paper's CM implementation) orders it.
        for li in 0..leaf.boxes_per_vu() {
            let g = leaf.global_of(rank, li);
            let bi = cell_index(g, n_axis);
            let r = bp.range(bi);
            if !r.is_empty() {
                stats.pair_interactions +=
                    self_box_potential(&bp, r.clone(), eps2, &mut near_pot[r]);
                stats.box_pairs += 1;
            }
        }
        let mut slots: BTreeMap<usize, Slot> = BTreeMap::new();
        for li in 0..leaf.boxes_per_vu() {
            let g = leaf.global_of(rank, li);
            let bi = cell_index(g, n_axis);
            let r = bp.range(bi);
            slots.insert(
                bi,
                Slot {
                    origin: bi,
                    cell: CellParticles {
                        xs: bp.x[r.clone()].to_vec(),
                        ys: bp.y[r.clone()].to_vec(),
                        zs: bp.z[r.clone()].to_vec(),
                        qs: bp.q[r.clone()].to_vec(),
                    },
                    acc: vec![0.0; r.len()],
                },
            );
        }
        let mut cur = Cursor::new(&sh.program.phases[5]);
        while let Some(st) = cur.next_if(&ctx, |kd| matches!(kd, StepKind::SlotShift { .. })) {
            let StepKind::SlotShift { axis, delta, visit } = st.kind else {
                unreachable!()
            };
            shift_slots(&mut ctx, &mut slots, axis, delta, &leaf, n_axis);
            ctx.count_op(st.logical_msgs);
            // Return shifts (no visit) only move the accumulators home.
            let Some(cum) = visit else { continue };
            for li in 0..leaf.boxes_per_vu() {
                let g = leaf.global_of(rank, li);
                let bi = cell_index(g, n_axis);
                let t_range = bp.range(bi);
                if t_range.is_empty() {
                    continue;
                }
                let t = BoxCoord::from_index(depth, bi);
                let Some(s) = t.offset(cum) else {
                    continue;
                };
                let slot = slots.get_mut(&bi).expect("slot coverage is total");
                debug_assert_eq!(slot.origin, s.index());
                if slot.cell.is_empty() {
                    continue;
                }
                let t_out = &mut near_pot[t_range.clone()];
                for (i, ti) in t_range.clone().enumerate() {
                    t_out[i] += pair_exchange_with(
                        sh.plan.kernel,
                        bp.x[ti],
                        bp.y[ti],
                        bp.z[ti],
                        bp.q[ti],
                        eps2,
                        &slot.cell.xs,
                        &slot.cell.ys,
                        &slot.cell.zs,
                        &slot.cell.qs,
                        &mut slot.acc,
                    );
                    stats.pair_interactions += slot.cell.len() as u64;
                }
                stats.box_pairs += 1;
            }
        }
        cur.finish();
        for li in 0..leaf.boxes_per_vu() {
            let g = leaf.global_of(rank, li);
            let bi = cell_index(g, n_axis);
            let slot = &slots[&bi];
            debug_assert_eq!(slot.origin, bi);
            for (o, a) in near_pot[bp.range(bi)].iter_mut().zip(&slot.acc) {
                *o += *a;
            }
        }
        stats.flops = stats.pair_interactions * PAIR_FLOPS;
    }
    times[5] = t0.elapsed();

    // Combine far + near exactly as the serial driver does.
    if let (Some(ff), Some(nf)) = (far_field.as_mut(), near_field.as_ref()) {
        for (a, b) in ff.iter_mut().zip(nf) {
            for d in 0..3 {
                a[d] += b[d];
            }
        }
    }
    for (f, nr) in pot.iter_mut().zip(&near_pot) {
        *f += nr;
    }

    WorkerOut {
        counters: ctx.counters,
        orig: orig_sorted,
        pot,
        fields: far_field,
        near_stats: stats,
        p2o_flops,
        eval_flops,
        traversal_flops: tflops,
        times,
    }
}

/// The cost-weighted variant of [`worker_main`]: ownership follows the
/// Morton-curve [`fmm_tree::Partition`] carried by the program's
/// [`crate::schedule::PartitionSchedule`] instead of the block layout, and
/// every collective is a precomputed [`fmm_tree::Exchange`]. The per-box
/// arithmetic is byte-for-byte the uniform path's: one-row GEMMs in octant
/// order, the identical travelling-slot itinerary, the same stable
/// rebinning — only *which worker* runs each box changes, and each box's
/// results are written solely by its owner, so outputs stay bitwise equal
/// to the serial backend.
pub(crate) fn worker_main_part(mut ctx: WorkerCtx, sh: &Shared<'_>) -> WorkerOut {
    let rank = ctx.rank;
    let p = ctx.p();
    let depth = sh.depth;
    let n_axis = 1usize << depth;
    let psched = sh
        .program
        .partition
        .as_ref()
        .expect("partitioned worker needs a partition schedule");
    let part = &psched.partition;
    let cfg = sh.fmm.config();
    let k = sh.fmm.k();
    let ts = sh.fmm.translations();
    let mut times = [Duration::ZERO; 6];
    let mut tflops = 0u64;

    // ---- Phase 0: sort. Particles are routed to the *partition* owner of
    // their leaf box; everything downstream of the router is unchanged.
    let t0 = Instant::now();
    let n = sh.positions.len();
    let (i0, i1) = (rank * n / p, (rank + 1) * n / p);
    let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); p];
    for i in i0..i1 {
        let b = sh.domain.locate(sh.positions[i], depth);
        let w = part.owner(&b);
        outgoing[w].extend_from_slice(&[
            sh.positions[i][0],
            sh.positions[i][1],
            sh.positions[i][2],
            sh.charges[i],
            i as f64,
        ]);
    }
    let mut cur = Cursor::new(&sh.program.phases[0]);
    let st = cur.next(&ctx, |k| matches!(k, StepKind::Router));
    ctx.count_op(st.logical_msgs);
    let mine = all_to_allv(&mut ctx, outgoing);
    cur.finish();
    let m_loc = mine.len() / 5;
    let mut pos = Vec::with_capacity(m_loc);
    let mut q = Vec::with_capacity(m_loc);
    let mut orig = Vec::with_capacity(m_loc);
    for ch in mine.chunks_exact(5) {
        pos.push([ch[0], ch[1], ch[2]]);
        q.push(ch[3]);
        orig.push(ch[4] as usize);
    }
    let bp = BinnedParticles::build(&pos, &q, sh.domain, depth);
    let orig_sorted = bp.binning.gather(&orig);
    times[0] = t0.elapsed();

    // ---- Phase 1: P2O over owned leaf boxes, exactly as the uniform path.
    ctx.set_phase(1);
    let t0 = Instant::now();
    let mut fh = FieldHierarchy::new(Hierarchy::new(depth), k);
    let leaf_side = sh.domain.box_side(depth);
    let a_leaf = cfg.outer_ratio * leaf_side;
    let p2o_flops = p2o(
        &bp,
        sh.fmm.rule(),
        a_leaf,
        depth,
        false,
        &mut fh.far[depth as usize],
    );
    times[1] = t0.elapsed();

    // ---- Phase 2: upward pass. No Multigrid embedding: every level down
    // to 2 is computed by the partition's owners. One child-row flush per
    // parent level brings each owned parent its eight children's rows.
    ctx.set_phase(2);
    let t0 = Instant::now();
    let mut cur = Cursor::new(&sh.program.phases[2]);
    if depth >= 3 {
        for l in (2..depth).rev() {
            let st = cur.next(
                &ctx,
                |kd| matches!(kd, StepKind::ChildFlush { level } if *level == l + 1),
            );
            ctx.count_op(st.logical_msgs);
            exchange_rows(
                &mut ctx,
                &mut fh.far[(l + 1) as usize],
                psched.child_flush_at(l + 1),
                k,
            );
            let (lo, hi) = fh.far.split_at_mut(l as usize + 1);
            let parents = &mut lo[l as usize];
            let children = &hi[0];
            for code in part.owned_at(rank, l) {
                let (x, y, z) = morton_decode(code);
                let pb = BoxCoord { level: l, x, y, z };
                let out = {
                    let pi = pb.index();
                    &mut parents[pi * k..(pi + 1) * k]
                };
                for oct in 0..8 {
                    let ci = pb.child(oct).index();
                    gemm_acc_with(
                        sh.plan.kernel,
                        1,
                        k,
                        k,
                        &children[ci * k..(ci + 1) * k],
                        ts.t1t[oct].as_slice(),
                        out,
                    );
                }
                ctx.counters.add_local_words(8 * k as u64);
                tflops += gemm_flops(8, k, k);
            }
        }
    }
    cur.finish();
    times[2] = t0.elapsed();

    // ---- Phase 3: downward pass. Per level: fetch the owned boxes'
    // parent locals (l ≥ 3), exchange the interactive-field far rows, then
    // run T2 + T3 over the owned Morton range.
    ctx.set_phase(3);
    let t0 = Instant::now();
    let sep = cfg.separation;
    let mut cur = Cursor::new(&sh.program.phases[3]);
    for l in 2..=depth {
        if l >= 3 {
            let st = cur.next(
                &ctx,
                |kd| matches!(kd, StepKind::ParentFetch { level } if *level == l),
            );
            ctx.count_op(st.logical_msgs);
            exchange_rows(
                &mut ctx,
                &mut fh.local[(l - 1) as usize],
                psched.parent_fetch_at(l),
                k,
            );
        }
        let st = cur.next(
            &ctx,
            |kd| matches!(kd, StepKind::PartBoxHalo { level } if *level == l),
        );
        ctx.count_op(st.logical_msgs);
        exchange_rows(&mut ctx, &mut fh.far[l as usize], psched.box_halo_at(l), k);
        let (lo, hi) = fh.local.split_at_mut(l as usize);
        tflops += downward_owned(
            &mut ctx,
            part.owned_at(rank, l).map(|code| {
                let (x, y, z) = morton_decode(code);
                BoxCoord { level: l, x, y, z }
            }),
            &lo[(l - 1) as usize],
            &mut hi[0],
            &fh.far[l as usize],
            ts,
            sh.plan,
            l,
            k,
        );
    }
    cur.finish();
    times[3] = t0.elapsed();

    // ---- Phase 4: evaluate leaf inner approximations at owned particles.
    ctx.set_phase(4);
    let t0 = Instant::now();
    let b_leaf = cfg.inner_ratio * leaf_side;
    let mut pot = vec![0.0; bp.len()];
    let mut far_field = sh.with_fields.then(|| vec![[0.0; 3]; bp.len()]);
    let eval_flops = eval_local(
        &bp,
        sh.fmm.rule(),
        cfg.m_trunc,
        b_leaf,
        depth,
        false,
        &fh.local[depth as usize],
        &mut pot,
        far_field.as_deref_mut(),
    );
    times[4] = t0.elapsed();

    // ---- Phase 5: near field.
    ctx.set_phase(5);
    let t0 = Instant::now();
    let eps2 = cfg.softening * cfg.softening;
    let mut near_pot = vec![0.0; bp.len()];
    let mut near_field = sh.with_fields.then(|| vec![[0.0; 3]; bp.len()]);
    let mut stats = NearFieldStats::default();
    if let Some(near_f) = near_field.as_mut() {
        // Forces: the clipped neighbor halo moves in one planned exchange,
        // then the serial per-box kernel runs over the halo-extended
        // binning (stable binning keeps serial source order).
        let own = |c: usize| -> CellParticles {
            let r = bp.range(c);
            CellParticles {
                xs: bp.x[r.clone()].to_vec(),
                ys: bp.y[r.clone()].to_vec(),
                zs: bp.z[r.clone()].to_vec(),
                qs: bp.q[r].to_vec(),
            }
        };
        let mut store: BTreeMap<usize, CellParticles> = BTreeMap::new();
        let mut cur = Cursor::new(&sh.program.phases[5]);
        let st = cur.next(&ctx, |kd| matches!(kd, StepKind::PartParticleHalo));
        ctx.count_op(st.logical_msgs);
        particle_exchange(&mut ctx, &psched.particle_halo, &own, &mut store);
        cur.finish();
        let mut pos2: Vec<[f64; 3]> = Vec::with_capacity(bp.len());
        let mut q2: Vec<f64> = Vec::with_capacity(bp.len());
        for i in 0..bp.len() {
            pos2.push([bp.x[i], bp.y[i], bp.z[i]]);
            q2.push(bp.q[i]);
        }
        for cell in store.values() {
            for j in 0..cell.len() {
                pos2.push([cell.xs[j], cell.ys[j], cell.zs[j]]);
                q2.push(cell.qs[j]);
            }
        }
        let bph = BinnedParticles::build(&pos2, &q2, sh.domain, depth);
        let offsets = near_field_offsets(sep);
        let mut pot_h = vec![0.0; bph.len()];
        let mut f_h = vec![[0.0; 3]; bph.len()];
        for code in part.owned_at(rank, depth) {
            let bi = morton_to_rowmajor(depth, code);
            let rh = bph.range(bi);
            stats.pair_interactions += near_field_forces_box(
                &bph,
                bi,
                &offsets,
                eps2,
                &mut pot_h[rh.clone()],
                &mut f_h[rh],
            );
        }
        for code in part.owned_at(rank, depth) {
            let bi = morton_to_rowmajor(depth, code);
            for (dst, src) in bp.range(bi).zip(bph.range(bi)) {
                near_pot[dst] = pot_h[src];
                near_f[dst] = f_h[src];
            }
        }
        stats.flops = stats.pair_interactions * PAIR_FORCE_FLOPS;
    } else {
        // Potentials: the identical travelling-accumulator itinerary, with
        // each hop routed by partition ownership instead of the grid ring.
        for code in part.owned_at(rank, depth) {
            let bi = morton_to_rowmajor(depth, code);
            let r = bp.range(bi);
            if !r.is_empty() {
                stats.pair_interactions +=
                    self_box_potential(&bp, r.clone(), eps2, &mut near_pot[r]);
                stats.box_pairs += 1;
            }
        }
        let mut slots: BTreeMap<usize, Slot> = BTreeMap::new();
        for code in part.owned_at(rank, depth) {
            let bi = morton_to_rowmajor(depth, code);
            let r = bp.range(bi);
            slots.insert(
                bi,
                Slot {
                    origin: bi,
                    cell: CellParticles {
                        xs: bp.x[r.clone()].to_vec(),
                        ys: bp.y[r.clone()].to_vec(),
                        zs: bp.z[r.clone()].to_vec(),
                        qs: bp.q[r.clone()].to_vec(),
                    },
                    acc: vec![0.0; r.len()],
                },
            );
        }
        let mut cur = Cursor::new(&sh.program.phases[5]);
        while let Some(st) = cur.next_if(&ctx, |kd| matches!(kd, StepKind::SlotShift { .. })) {
            let StepKind::SlotShift { axis, delta, visit } = st.kind else {
                unreachable!()
            };
            shift_slots_part(
                &mut ctx,
                &mut slots,
                axis,
                delta,
                part,
                psched.slot_route_at(axis, delta),
                n_axis,
            );
            ctx.count_op(st.logical_msgs);
            let Some(cum) = visit else { continue };
            for code in part.owned_at(rank, depth) {
                let bi = morton_to_rowmajor(depth, code);
                let t_range = bp.range(bi);
                if t_range.is_empty() {
                    continue;
                }
                let t = BoxCoord::from_index(depth, bi);
                let Some(s) = t.offset(cum) else {
                    continue;
                };
                let slot = slots.get_mut(&bi).expect("slot coverage is total");
                debug_assert_eq!(slot.origin, s.index());
                if slot.cell.is_empty() {
                    continue;
                }
                let t_out = &mut near_pot[t_range.clone()];
                for (i, ti) in t_range.clone().enumerate() {
                    t_out[i] += pair_exchange_with(
                        sh.plan.kernel,
                        bp.x[ti],
                        bp.y[ti],
                        bp.z[ti],
                        bp.q[ti],
                        eps2,
                        &slot.cell.xs,
                        &slot.cell.ys,
                        &slot.cell.zs,
                        &slot.cell.qs,
                        &mut slot.acc,
                    );
                    stats.pair_interactions += slot.cell.len() as u64;
                }
                stats.box_pairs += 1;
            }
        }
        cur.finish();
        for code in part.owned_at(rank, depth) {
            let bi = morton_to_rowmajor(depth, code);
            let slot = &slots[&bi];
            debug_assert_eq!(slot.origin, bi);
            for (o, a) in near_pot[bp.range(bi)].iter_mut().zip(&slot.acc) {
                *o += *a;
            }
        }
        stats.flops = stats.pair_interactions * PAIR_FLOPS;
    }
    times[5] = t0.elapsed();

    if let (Some(ff), Some(nf)) = (far_field.as_mut(), near_field.as_ref()) {
        for (a, b) in ff.iter_mut().zip(nf) {
            for d in 0..3 {
                a[d] += b[d];
            }
        }
    }
    for (f, nr) in pot.iter_mut().zip(&near_pot) {
        *f += nr;
    }

    WorkerOut {
        counters: ctx.counters,
        orig: orig_sorted,
        pot,
        fields: far_field,
        near_stats: stats,
        p2o_flops,
        eval_flops,
        traversal_flops: tflops,
        times,
    }
}
