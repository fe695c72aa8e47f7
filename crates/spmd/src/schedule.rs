//! The communication program: a first-class IR of the SPMD executor's
//! schedule, derivable from `(VuGrid, depth, K, supernodes)` alone —
//! before any particle exists. The output kind rides along for the
//! executor; potentials and forces share one schedule.
//!
//! The paper's communication structure is *statically schedulable*: which
//! CSHIFTs run, which ranks exchange halo cells, how the Multigrid-embedded
//! levels gather and broadcast — all of it is a pure function of the
//! machine shape and the hierarchy, not of the data. [`CommProgram`]
//! reifies that schedule as a list of per-phase [`Step`]s, and is consumed
//! from both sides:
//!
//! * the executor (one interpreter, `exec.rs`) walks the program step by
//!   step and dispatches each [`StepKind`] to its collective — phase order,
//!   levels, axes, shift directions and tag sequence all come from here,
//!   nowhere else;
//! * the static analyzer (`fmm-verify`) lowers every step to its per-rank
//!   send/receive endpoints via [`Step::ops_for`] and proves endpoint
//!   matching, deadlock freedom and budget conformance without launching a
//!   thread.
//!
//! Because both sides read the same structure, a schedule bug (flipped
//! shift direction, dropped receive) is visible to the analyzer exactly as
//! it would be executed.
//!
//! Endpoint enumeration reuses the identical per-rank plan functions the
//! collectives run ([`axis_plan`] under [`axis_exchange`]): the sender-side enumeration rebuilds the receiver's
//! plan just like the wire protocol does, so the endpoint-matching pass is
//! a real proof that both ends agree, not a tautology.

use std::collections::BTreeMap;

pub use fmm_machine::{near_halo_widths, near_stencil};
use fmm_machine::{subgrid_extent, BlockLayout, VuGrid};
use fmm_tree::partition::{box_halo, child_flush, parent_fetch, particle_halo};
use fmm_tree::SEPARATION;

pub use fmm_tree::{Exchange, Partition, Side};

/// Index of the global grid cell `g` on an `n`-per-axis level.
#[inline]
pub fn cell_index(g: [usize; 3], n: usize) -> usize {
    (g[2] * n + g[1]) * n + g[0]
}

/// What a message carries. Receives are only compatible with sends of the
/// same payload type (the channels are typed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Payload {
    /// Particle records (positions, charges, bookkeeping).
    Particles,
    /// K-sample box vectors of a far/local field level.
    Boxes,
}

/// Statically known payload volume in f64 words, or data-dependent.
///
/// `Exact` counts the words the executor's byte counters charge (envelope
/// metadata such as per-box indices is excluded on both sides, so static
/// and measured bytes are comparable 1:1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volume {
    Exact(u64),
    Dynamic,
}

/// One communication action of one rank within a step, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Send {
        to: usize,
        words: Volume,
        payload: Payload,
    },
    Recv {
        from: usize,
        payload: Payload,
    },
}

/// The collective family of a step and its static parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Personalized all-to-all through the router (the coordinate sort).
    Router,
    /// Binomial-tree gather of a distributed level's far field to rank 0
    /// (the upward Multigrid-embed transition).
    Gather { level: u32 },
    /// Binomial-tree broadcast of rank 0's local field of `level` to all
    /// ranks (re-entering the distributed region downward); under
    /// supernodes its far field too, the parent-level T2 sources of
    /// `level + 1`.
    Broadcast { level: u32 },
    /// One axis phase of the wrapped box-halo CSHIFT exchange at `level`.
    BoxHalo { level: u32, axis: usize },
    /// One axis phase of the clipped particle-halo exchange at the leaf
    /// level, [`near_halo_widths`] deep: the near field's whole-cell
    /// halo.
    ParticleHalo { axis: usize },
    /// Partitioned upward exchange: child far-field rows of `level` (the
    /// *child* level) flush to the owners of their parents, per the
    /// partition's [`fmm_tree::child_flush`] plan.
    ChildFlush { level: u32 },
    /// Partitioned downward exchange: parent local-expansion rows
    /// (level − 1) fetched by the owners of boxes at `level` for the T3
    /// shift, per [`fmm_tree::parent_fetch`].
    ParentFetch { level: u32 },
    /// Partitioned interactive-field exchange of far rows at `level`
    /// (under supernodes with the next level's parent-level sources), per
    /// [`fmm_tree::box_halo`].
    PartBoxHalo { level: u32 },
    /// Partitioned leaf particle exchange for the near field: one step
    /// covering the whole clipped [`near_stencil`], per
    /// [`fmm_tree::particle_halo`].
    PartParticleHalo,
}

/// One step of the program: a collective call every rank makes at the same
/// point, burning exactly one fabric tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub kind: StepKind,
    /// The fabric tag this step uses — the global sequence number of the
    /// collective call. Every rank's tag counter agrees by construction.
    pub tag: u64,
    /// Logical message count the machine model charges for this step
    /// (CSHIFT invocations / router operations / broadcast stages /
    /// point-to-point sends), summed over the whole machine.
    pub logical_msgs: u64,
}

/// The precomputed exchange plans of a cost-weighted (Morton-partitioned)
/// program. The plans are built once from the [`Partition`] by
/// [`CommProgram::build_partitioned`] and then consumed by *both* the
/// executor's collectives and the static lowering ([`Step::ops_for`]), so
/// the analyzed endpoints are the executed endpoints by construction.
#[derive(Debug, Clone)]
pub struct PartitionSchedule {
    /// The leaf Morton-curve split driving every plan below.
    pub partition: Partition,
    /// Per *child* level (descending), the upward child-row flush.
    pub child_flush: Vec<(u32, Exchange)>,
    /// Per level `l ≥ 3`, the parent local-row fetch for T3.
    pub parent_fetch: Vec<(u32, Exchange)>,
    /// Per level `l ≥ 2`, the interactive-field far-row exchange.
    pub box_halo: Vec<(u32, Exchange)>,
    /// The one-shot leaf particle exchange of the near field.
    pub particle_halo: Exchange,
}

impl PartitionSchedule {
    /// The child-flush plan whose rows live at `child_level`.
    pub fn child_flush_at(&self, child_level: u32) -> &Exchange {
        &self
            .child_flush
            .iter()
            .find(|(l, _)| *l == child_level)
            .expect("scheduled child level has a plan")
            .1
    }

    /// The parent-fetch plan serving the T3 shift at `level`.
    pub fn parent_fetch_at(&self, level: u32) -> &Exchange {
        &self
            .parent_fetch
            .iter()
            .find(|(l, _)| *l == level)
            .expect("scheduled fetch level has a plan")
            .1
    }

    /// The interactive-field exchange plan at `level`.
    pub fn box_halo_at(&self, level: u32) -> &Exchange {
        &self
            .box_halo
            .iter()
            .find(|(l, _)| *l == level)
            .expect("scheduled halo level has a plan")
            .1
    }
}

/// The whole communication program of one evaluation, phase by phase, in
/// [`fmm_core::SpmdReport::PHASE_NAMES`] order.
#[derive(Debug, Clone)]
pub struct CommProgram {
    pub grid: VuGrid,
    pub depth: u32,
    /// Box vector length (sphere samples per box).
    pub k: usize,
    /// Box-halo ghost depth: 2d + 1 covers the asymmetric reach of the
    /// plain T2 field; the supernode decomposition's leftover children
    /// reach d + 1, and its parent-level sources d boxes of the parent
    /// level, so 2d (the paper's four boxes at d = 2) covers both.
    pub ghost: usize,
    /// Forces (potentials and fields) vs potentials alone: what the
    /// executor's near-field sweep writes. Both run the symmetric rows
    /// over one set of ghost targets, so the schedule does not depend on
    /// it.
    pub with_fields: bool,
    /// The downward pass runs the supernode decomposition: level l's T2
    /// also reads far rows of level l − 1, which the parent level's halo
    /// and the embedded broadcast then carry.
    pub supernodes: bool,
    /// `Some` when the program runs over a cost-weighted Morton partition
    /// instead of the uniform block layout.
    pub partition: Option<PartitionSchedule>,
    pub phases: [Vec<Step>; 6],
}

impl CommProgram {
    /// Derive the schedule. Pure: depends only on the arguments.
    pub fn build(grid: VuGrid, depth: u32, k: usize, with_fields: bool, supernodes: bool) -> Self {
        let p = grid.len();
        let ghost = ghost_depth(supernodes);
        let mut phases: [Vec<Step>; 6] = Default::default();
        let mut tag = 0u64;
        let mut push = |phases: &mut [Vec<Step>; 6], phase: usize, kind, logical_msgs| {
            phases[phase].push(Step {
                kind,
                tag,
                logical_msgs,
            });
            tag += 1;
        };

        // Phase 0 — sort: one router operation (a no-op message-wise at
        // p = 1, but the collective still runs and burns its tag).
        push(&mut phases, 0, StepKind::Router, (p > 1) as u64);

        // Phase 2 — upward, parent levels depth − 1 … 2: a single
        // binomial gather at the transition from the block-distributed
        // levels into the Multigrid-embed region (child level still
        // distributed, parent level not). Level 1 is never formed, so a
        // grid on which level 2 is distributed gathers nothing.
        for l in (2..depth).rev() {
            if subgrid_extent(l, &grid).is_none() && subgrid_extent(l + 1, &grid).is_some() {
                push(
                    &mut phases,
                    2,
                    StepKind::Gather { level: l + 1 },
                    p as u64 - 1,
                );
            }
        }

        // Phase 3 — downward: re-entering the distributed region
        // broadcasts the embedded parent level once, then every
        // distributed level runs one wrapped halo exchange (three axis
        // phases, two CSHIFT ops each on the model's ledger). Supernode
        // sources need no step of their own: they are far rows of the
        // parent level within ±d, which its halo (ghost ≥ d) or the
        // broadcast already put on every rank, and nothing overwrites
        // `far` on the way down.
        let l_first = (2..=depth).find(|&l| subgrid_extent(l, &grid).is_some());
        for l in 2..=depth {
            if subgrid_extent(l, &grid).is_none() {
                continue;
            }
            if Some(l) == l_first && l >= 3 && subgrid_extent(l - 1, &grid).is_none() {
                push(
                    &mut phases,
                    3,
                    StepKind::Broadcast { level: l - 1 },
                    p.trailing_zeros() as u64,
                );
            }
            for axis in 0..3 {
                push(&mut phases, 3, StepKind::BoxHalo { level: l, axis }, 2);
            }
        }

        // Phase 5 — near field: one clipped particle halo in three axis
        // phases, two CSHIFT-ledger ops each, as deep as the ghost targets
        // read ([`near_halo_widths`]).
        for axis in 0..3 {
            push(&mut phases, 5, StepKind::ParticleHalo { axis }, 2);
        }

        CommProgram {
            grid,
            depth,
            k,
            ghost,
            with_fields,
            supernodes,
            partition: None,
            phases,
        }
    }

    /// Derive the partitioned schedule of a cost-weighted run: the same
    /// phase structure as [`CommProgram::build`], but every exchange is a
    /// precomputed [`Exchange`] plan of the Morton `partition` rather than
    /// a block-layout collective. Every level stays distributed (no
    /// Multigrid embedding — coarse ownership follows first-descendant
    /// leaves instead), and each step's `logical_msgs` is its plan's exact
    /// machine-wide message count, which is what
    /// `fmm_machine::communication_budget_with` prices.
    pub fn build_partitioned(
        grid: VuGrid,
        depth: u32,
        k: usize,
        with_fields: bool,
        supernodes: bool,
        partition: Partition,
    ) -> Self {
        assert_eq!(
            grid.len(),
            partition.workers(),
            "partition workers must match the VU grid"
        );
        assert_eq!(depth, partition.depth(), "partition depth must match");
        let p = grid.len();
        let ghost = ghost_depth(supernodes);
        let mut phases: [Vec<Step>; 6] = Default::default();
        let mut tag = 0u64;
        let mut push = |phases: &mut [Vec<Step>; 6], phase: usize, kind, logical_msgs| {
            phases[phase].push(Step {
                kind,
                tag,
                logical_msgs,
            });
            tag += 1;
        };

        // Phase 0 — sort: one router operation, as in the uniform build.
        push(&mut phases, 0, StepKind::Router, (p > 1) as u64);

        // Phase 2 — upward: one child-row flush per computed parent level,
        // finest first (parents of the leaves down to level 2). Levels 1
        // and 0 are never consumed by T2/T3 and are skipped, exactly as
        // the partitioned budget prices it.
        let mut cf = Vec::new();
        if depth >= 3 {
            for l in (2..depth).rev() {
                let ex = child_flush(&partition, l);
                push(
                    &mut phases,
                    2,
                    StepKind::ChildFlush { level: l + 1 },
                    ex.messages(),
                );
                cf.push((l + 1, ex));
            }
        }

        // Phase 3 — downward: per level, a parent local-row fetch (l ≥ 3)
        // followed by the interactive-field far-row exchange, which under
        // supernodes also ships the next level's parent-level sources.
        let mut pf = Vec::new();
        let mut bh = Vec::new();
        for l in 2..=depth {
            if l >= 3 {
                let ex = parent_fetch(&partition, l);
                push(
                    &mut phases,
                    3,
                    StepKind::ParentFetch { level: l },
                    ex.messages(),
                );
                pf.push((l, ex));
            }
            let ex = box_halo(&partition, l, supernodes);
            push(
                &mut phases,
                3,
                StepKind::PartBoxHalo { level: l },
                ex.messages(),
            );
            bh.push((l, ex));
        }

        // Phase 5 — near field: the whole clipped particle halo of the
        // near stencil in one planned exchange.
        let ph_ex = particle_halo(&partition, &near_stencil());
        push(&mut phases, 5, StepKind::PartParticleHalo, ph_ex.messages());

        CommProgram {
            grid,
            depth,
            k,
            ghost,
            with_fields,
            supernodes,
            partition: Some(PartitionSchedule {
                partition,
                child_flush: cf,
                parent_fetch: pf,
                box_halo: bh,
                particle_halo: ph_ex,
            }),
            phases,
        }
    }

    /// Total number of steps (= fabric tags burned per rank).
    pub fn step_count(&self) -> usize {
        self.phases.iter().map(Vec::len).sum()
    }

    /// All steps in tag order.
    pub fn steps(&self) -> impl Iterator<Item = (usize, &Step)> {
        self.phases
            .iter()
            .enumerate()
            .flat_map(|(i, ph)| ph.iter().map(move |s| (i, s)))
    }
}

/// The box-halo ghost depth of [`CommProgram::ghost`]: 2d + 1 boxes, or
/// 2d under supernodes.
fn ghost_depth(supernodes: bool) -> usize {
    2 * SEPARATION as usize + usize::from(!supernodes)
}

/// One direction of a rank's [`Side`] of an exchange, owned: `(peer,
/// cells)` per message.
pub type Messages = Vec<(usize, Vec<usize>)>;

/// The halo cells rank `who` must obtain in axis phase `axis` of a block-
/// layout halo exchange `g[a]` deep along axis `a`, grouped by source rank
/// (BTreeMap ⇒ deterministic order), in window enumeration order — senders
/// rebuild the same plan, so both ends agree on the per-message layout
/// without exchanging metadata. With `wrap` (box halos, CSHIFT semantics)
/// cells are wrapped global indices; without (the particle halo of the
/// forces near field) cells outside the domain simply don't exist, so
/// ranges intersect `[0, n)` and no coordinate wraps.
///
/// Phase structure (the CSHIFT corner-forwarding trick): phase `a` extends
/// the slab along axis `a` only, but enumerates the *already extended*
/// range on axes `< a`, so corner/edge cells ride later phases instead of
/// needing diagonal neighbors.
pub fn axis_plan(
    lay: &BlockLayout,
    who: [usize; 3],
    axis: usize,
    g: [usize; 3],
    n: usize,
    wrap: bool,
) -> BTreeMap<usize, Vec<usize>> {
    let s = lay.subgrid;
    let ni = n as i64;
    let lo: Vec<i64> = (0..3).map(|a| (who[a] * s[a]) as i64).collect();
    let clip = |r: std::ops::Range<i64>| {
        if wrap {
            r
        } else {
            r.start.max(0)..r.end.min(ni)
        }
    };
    let ranges: Vec<Vec<i64>> = (0..3)
        .map(|a| {
            let (si, gi) = (s[a] as i64, g[a] as i64);
            if a < axis {
                clip(lo[a] - gi..lo[a] + si + gi).collect()
            } else if a == axis {
                clip(lo[a] - gi..lo[a])
                    .chain(clip(lo[a] + si..lo[a] + si + gi))
                    .collect()
            } else {
                (lo[a]..lo[a] + si).collect()
            }
        })
        .collect();
    let mut plan: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &z in &ranges[2] {
        for &y in &ranges[1] {
            for &x in &ranges[0] {
                let w = [x, y, z].map(|c| c.rem_euclid(ni) as usize);
                let mut src_c = who;
                src_c[axis] = w[axis] / s[axis];
                let src = lay.vu.rank(src_c);
                plan.entry(src).or_default().push(cell_index(w, n));
            }
        }
    }
    plan
}

/// `rank`'s side of one axis phase of a block-layout halo exchange, in the
/// shape of an [`Exchange`]'s entries: it serves every rank along `axis`
/// whose plan names it (ascending), then receives what its own plan names
/// (sources ascending). `plan_of(who)` is the phase's [`axis_plan`]. The
/// collectives and the static lowering both walk this.
pub fn axis_exchange(
    grid: &VuGrid,
    rank: usize,
    axis: usize,
    plan_of: impl Fn([usize; 3]) -> BTreeMap<usize, Vec<usize>>,
) -> (Messages, Messages) {
    let my = grid.coords(rank);
    let mut sends = Vec::new();
    for other in (0..grid.dims[axis]).filter(|&o| o != my[axis]) {
        let mut dst_c = my;
        dst_c[axis] = other;
        if let Some(cells) = plan_of(dst_c).remove(&rank) {
            sends.push((grid.rank(dst_c), cells));
        }
    }
    (sends, plan_of(my).into_iter().collect())
}

impl Step {
    /// Rank `rank`'s ordered communication actions for this step — the
    /// exact sequence of sends and receives the executor performs, with
    /// statically known payload volumes where the data is data-independent.
    ///
    /// This is the lowering the analyzer checks; it calls the same plan
    /// functions the collectives run.
    pub fn ops_for(&self, prog: &CommProgram, rank: usize) -> Vec<Op> {
        let grid = &prog.grid;
        let p = grid.len();
        let k = prog.k as u64;
        let mut ops = Vec::new();
        match self.kind {
            StepKind::Router => {
                // all_to_allv: send to every other rank in ascending rank
                // order (possibly empty chunks), then receive from every
                // other rank in ascending rank order.
                for w in 0..p {
                    if w != rank {
                        ops.push(Op::Send {
                            to: w,
                            words: Volume::Dynamic,
                            payload: Payload::Particles,
                        });
                    }
                }
                for w in 0..p {
                    if w != rank {
                        ops.push(Op::Recv {
                            from: w,
                            payload: Payload::Particles,
                        });
                    }
                }
            }
            StepKind::Gather { level } => {
                // Binomial combine: stage s halves the holder set. A rank
                // retires by sending everything it holds — its own chunk
                // plus the 2^s − 1 chunks absorbed in earlier stages.
                let boxes_pv = (1u64 << (3 * level)) / p as u64;
                let stages = p.trailing_zeros();
                for s in 0..stages {
                    let bit = 1usize << s;
                    if !rank.is_multiple_of(bit) {
                        continue;
                    }
                    if rank & bit != 0 {
                        ops.push(Op::Send {
                            to: rank - bit,
                            words: Volume::Exact(boxes_pv * (1 << s) * k),
                            payload: Payload::Boxes,
                        });
                        break; // retired
                    } else if rank + bit < p {
                        ops.push(Op::Recv {
                            from: rank + bit,
                            payload: Payload::Boxes,
                        });
                    }
                }
            }
            StepKind::Broadcast { level } => {
                // Binomial spread, high stage first: rank r receives once
                // (at its lowest set bit) and forwards in every later
                // stage. The whole level buffer travels each hop, the
                // far one beside it under supernodes.
                let buffers = 1 + prog.supernodes as u64;
                let words = buffers * (1u64 << (3 * level)) * k;
                let stages = p.trailing_zeros();
                for s in (0..stages).rev() {
                    let bit = 1usize << s;
                    let span = bit << 1;
                    if rank.is_multiple_of(span) {
                        ops.push(Op::Send {
                            to: rank + bit,
                            words: Volume::Exact(words),
                            payload: Payload::Boxes,
                        });
                    } else if rank.is_multiple_of(bit) {
                        ops.push(Op::Recv {
                            from: rank - bit,
                            payload: Payload::Boxes,
                        });
                    }
                }
            }
            StepKind::BoxHalo { level, axis } => {
                let n = 1usize << level;
                let lay = BlockLayout::new([n; 3], *grid);
                let g = [prog.ghost; 3];
                let plan_of = |who| axis_plan(&lay, who, axis, g, n, true);
                let (sends, mut recvs) = axis_exchange(grid, rank, axis, plan_of);
                // The wrap-aliased self entry is local motion, not a message.
                recvs.retain(|(src, _)| *src != rank);
                exchange_ops((&sends, &recvs), Some(k), Payload::Boxes, &mut ops);
            }
            StepKind::ParticleHalo { axis } => {
                let n = 1usize << prog.depth;
                let lay = BlockLayout::new([n; 3], *grid);
                let g = near_halo_widths();
                let plan_of = |who| axis_plan(&lay, who, axis, g, n, false);
                let (sends, recvs) = axis_exchange(grid, rank, axis, plan_of);
                exchange_ops((&sends, &recvs), None, Payload::Particles, &mut ops);
            }
            StepKind::ChildFlush { level } => {
                let side = part_sched(prog).child_flush_at(level).side(rank);
                exchange_ops(side, Some(k), Payload::Boxes, &mut ops);
            }
            StepKind::ParentFetch { level } => {
                let side = part_sched(prog).parent_fetch_at(level).side(rank);
                exchange_ops(side, Some(k), Payload::Boxes, &mut ops);
            }
            StepKind::PartBoxHalo { level } => {
                let side = part_sched(prog).box_halo_at(level).side(rank);
                exchange_ops(side, Some(k), Payload::Boxes, &mut ops);
            }
            StepKind::PartParticleHalo => {
                let side = part_sched(prog).particle_halo.side(rank);
                exchange_ops(side, None, Payload::Particles, &mut ops);
            }
        }
        ops
    }
}

fn part_sched(prog: &CommProgram) -> &PartitionSchedule {
    prog.partition
        .as_ref()
        .expect("partitioned step kinds only appear in partitioned programs")
}

/// Lower one rank's side of an exchange: all sends (destinations
/// ascending, `Exact` when every cell row carries `row_words` f64 words),
/// then all receives (sources ascending) — the order the executor's
/// exchange collectives use, deadlock-free at channel capacity 1 because
/// each ordered rank pair carries at most one message.
fn exchange_ops(
    (sends, recvs): Side<'_>,
    row_words: Option<u64>,
    payload: Payload,
    ops: &mut Vec<Op>,
) {
    for (dst, cells) in sends {
        ops.push(Op::Send {
            to: *dst,
            words: match row_words {
                Some(w) => Volume::Exact(cells.len() as u64 * w),
                None => Volume::Dynamic,
            },
            payload,
        });
    }
    for (src, _) in recvs {
        ops.push(Op::Recv {
            from: *src,
            payload,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vu_grid_for;

    #[test]
    fn tags_are_contiguous_and_phase_ordered() {
        for p in [1usize, 2, 8, 128] {
            for depth in 2..=4u32 {
                let prog = CommProgram::build(vu_grid_for(p), depth, 6, false, false);
                let tags: Vec<u64> = prog.steps().map(|(_, s)| s.tag).collect();
                let expect: Vec<u64> = (0..tags.len() as u64).collect();
                assert_eq!(tags, expect, "p={p} depth={depth}");
            }
        }
    }

    #[test]
    fn table4_message_totals_match_pr2() {
        // The exact per-phase logical message counts PR 2 asserted at
        // runtime on the Table-4 configuration, now derived statically.
        let prog = CommProgram::build(VuGrid::new([8, 4, 4]), 4, 6, false, false);
        let msgs: Vec<u64> = prog
            .phases
            .iter()
            .map(|ph| ph.iter().map(|s| s.logical_msgs).sum())
            .collect();
        assert_eq!(msgs, [1, 0, 127, 19, 0, 6]);
    }

    #[test]
    fn both_near_fields_are_one_halo() {
        // The same three axis phases, as deep as the ghost targets read:
        // 2d in x and y, d in z.
        let pot = CommProgram::build(vu_grid_for(8), 3, 6, false, false);
        let frc = CommProgram::build(vu_grid_for(8), 3, 6, true, false);
        assert_eq!(pot.phases, frc.phases);
        assert_eq!(pot.phases[5].len(), 3);
        assert_eq!(near_halo_widths(), [4, 4, 2]);
        let lay = BlockLayout::new([8; 3], pot.grid);
        let plans = (0..3).map(|axis| axis_plan(&lay, [0; 3], axis, near_halo_widths(), 8, false));
        let received: usize = plans
            .flat_map(|p| p.into_values())
            .map(|cells| cells.len())
            .sum();
        // Rank 0 of [2, 2, 2] owns a 4³ corner: 8·8·6 − 4³.
        assert_eq!(received, 320);
        for r in 0..8 {
            for (a, b) in pot.phases[5].iter().zip(&frc.phases[5]) {
                assert_eq!(a.ops_for(&pot, r), b.ops_for(&frc, r), "rank {r}");
            }
        }
    }

    /// p = 128 lays the ranks on `[8, 4, 4]`: at depth 6 levels 0–2 are
    /// Multigrid-embedded on rank 0 and level 3 is the first distributed
    /// one. Under supernodes its T2 reads far rows of level 2 that only
    /// rank 0 computed, so the one broadcast carries `far[2]` beside
    /// `local[2]`: twice the words on every hop, the same hops.
    #[test]
    fn embedded_broadcast_carries_far_rows_under_supernodes() {
        let (grid, depth, k) = (vu_grid_for(128), 6, 12);
        let [plain, sn] = [false, true].map(|on| CommProgram::build(grid, depth, k, false, on));
        assert_eq!((plain.ghost, sn.ghost), (5, 4));
        // Every rank's broadcast ops, sends reduced to their words.
        let broadcast = |prog: &CommProgram| -> Vec<(Op, u64)> {
            let steps = prog.phases[3].iter();
            let mut bc = steps.filter(|st| matches!(st.kind, StepKind::Broadcast { .. }));
            let st = bc.next().expect("the embedded level is broadcast");
            assert_eq!(st.kind, StepKind::Broadcast { level: 2 });
            assert!(bc.next().is_none());
            let ops = (0..grid.len()).flat_map(|r| st.ops_for(prog, r));
            ops.map(|op| match op {
                Op::Send { to, words, payload } => {
                    let Volume::Exact(w) = words else {
                        panic!("a broadcast's volume is static")
                    };
                    let op = Op::Send {
                        to,
                        words: Volume::Dynamic,
                        payload,
                    };
                    (op, w)
                }
                recv => (recv, 0),
            })
            .collect()
        };
        let (plain_ops, sn_ops) = (broadcast(&plain), broadcast(&sn));
        let sends = plain_ops.iter().filter(|(_, w)| *w > 0).count();
        assert_eq!(sends, 127);
        assert_eq!(plain_ops.len(), sn_ops.len());
        // The same hops, each carrying `far[2]` beside `local[2]`.
        let level_words = 64 * k as u64;
        for ((op, w), (op_sn, w_sn)) in plain_ops.iter().zip(&sn_ops) {
            assert_eq!(op, op_sn);
            assert!(*w == 0 || (*w, *w_sn) == (level_words, 2 * level_words));
        }
        // The same steps otherwise, tag for tag.
        assert_eq!(plain.phases, sn.phases);
    }

    #[test]
    fn partitioned_tags_are_contiguous_and_phase_ordered() {
        for p in [1usize, 2, 8] {
            for depth in 2..=4u32 {
                for with_fields in [false, true] {
                    let prog = CommProgram::build_partitioned(
                        vu_grid_for(p),
                        depth,
                        6,
                        with_fields,
                        false,
                        Partition::uniform(depth, p),
                    );
                    let tags: Vec<u64> = prog.steps().map(|(_, s)| s.tag).collect();
                    let expect: Vec<u64> = (0..tags.len() as u64).collect();
                    assert_eq!(tags, expect, "p={p} depth={depth} forces={with_fields}");
                    assert!(prog.partition.is_some());
                }
            }
        }
    }

    #[test]
    fn partitioned_near_halo_reads_the_near_stencil() {
        // One planned exchange whose cells are exactly the stencil's
        // neighbours of each rank's boxes on other ranks, for either
        // output kind.
        let part = Partition::uniform(3, 8);
        for with_fields in [false, true] {
            let prog = CommProgram::build_partitioned(
                vu_grid_for(8),
                3,
                6,
                with_fields,
                false,
                part.clone(),
            );
            assert_eq!(prog.phases[5].len(), 1);
            let ps = prog.partition.as_ref().unwrap();
            let stencil = near_stencil();
            for rank in 0..8 {
                let mut want = std::collections::BTreeSet::new();
                for b in 0..512 {
                    let t = fmm_tree::BoxCoord::from_index(3, b);
                    if part.owner(&t) != rank {
                        continue;
                    }
                    for s in stencil.iter().filter_map(|&o| t.offset(o)) {
                        if part.owner(&s) != rank {
                            want.insert(s.index());
                        }
                    }
                }
                let got: std::collections::BTreeSet<usize> = ps.particle_halo.recvs[rank]
                    .iter()
                    .flat_map(|(_, c)| c.iter().copied())
                    .collect();
                assert_eq!(got, want, "rank {rank} forces={with_fields}");
            }
        }
    }

    #[test]
    fn single_worker_partitioned_plans_are_silent() {
        // p = 1 owns everything: every exchange is empty and every step's
        // logical message count is zero, like the uniform p = 1 program.
        for with_fields in [false, true] {
            let prog = CommProgram::build_partitioned(
                vu_grid_for(1),
                3,
                6,
                with_fields,
                false,
                Partition::uniform(3, 1),
            );
            for (_, s) in prog.steps() {
                assert_eq!(s.logical_msgs, 0, "step {s:?}");
            }
            let ps = prog.partition.as_ref().unwrap();
            assert!(ps.particle_halo.is_empty());
            for (_, ex) in ps
                .child_flush
                .iter()
                .chain(&ps.parent_fetch)
                .chain(&ps.box_halo)
            {
                assert!(ex.is_empty());
            }
        }
    }
}
