//! The per-worker SPMD program: one interpreter over the [`CommProgram`].
//!
//! [`worker_main`] runs the sort and the five FMM phases of the paper's
//! §2.2 on one rank. It decides nothing about the schedule and does no
//! translation arithmetic of its own:
//!
//! * **Communication.** Each phase walks its steps of the program, and
//!   [`Worker::step`] dispatches every [`StepKind`] to its collective in
//!   one `match`. The uniform block-layout program (router, gather and
//!   broadcast around the Multigrid-embedded levels, wrapped CSHIFT halos,
//!   a clipped particle halo) and the cost-weighted one (planned
//!   [`fmm_tree::Exchange`]s) are the same control
//!   flow fed different steps. The step *is* the call, so the remaining
//!   invariants are hard ones, in release builds too: the fabric's tag
//!   counter equals the step's tag, and a phase consumes all its steps —
//!   otherwise the worker panics naming rank, phase and step.
//! * **Ownership.** One [`Ownership`] value answers "which rank owns this
//!   leaf" and "which boxes of this level does this rank compute": the
//!   block layout (a Multigrid-embedded level is simply "rank 0 owns every
//!   box, the others none") or the Morton [`fmm_tree::Partition`].
//! * **Arithmetic.** A rank runs its phases under [`fmm_core::serially`],
//!   a one-thread scope of the pool, so the sweeps it calls are the
//!   shared-memory executors' own bodies, each loop one piece on the
//!   rank's thread. P2O and evaluation run
//!   `fmm_core::driver::{p2o, eval_local}` over the worker's own binning
//!   (other boxes are empty and skipped). T1/T2/T3 run
//!   `fmm_core::traversal::{upward_rows, downward_rows}` — the sweep's
//!   panel loop, handed the owned boxes instead of the plan's slabs. The
//!   near field runs over the rank's [`CellStore`] — its own cells plus
//!   the particle halo the program's steps bring, laid out row-major once
//!   they are all in, so every row reads one run as in a binning:
//!   `fmm_core::near::symmetric_rows`, potentials or forces, over the
//!   owned boxes and the *ghost targets*, boxes owned elsewhere whose
//!   half-stencil rows reach an owned one, in the serial sweep's order, so
//!   each owned particle receives the serial calls in the serial order and
//!   nothing is shipped back.
//!
//! Bitwise identity with the serial backend is a hard invariant. It holds
//! because a GEMM row does not depend on the height of the panel it sits
//! in, because each box's row is written by its owner alone, and because
//! stable binning keeps every leaf's particles in the serial order.

use std::iter::Peekable;
use std::time::{Duration, Instant};

use fmm_core::driver::{eval_local, p2o, Fmm};
use fmm_core::field::FieldHierarchy;
use fmm_core::near::{symmetric_rows, NearFieldStats, TargetRole};
use fmm_core::particles::BinnedParticles;
use fmm_core::stats::{Counters, SpmdReport};
use fmm_core::traversal::{downward_rows, upward_rows, Aggregation};
use fmm_core::TraversalPlan;
use fmm_machine::{subgrid_extent, BlockLayout};
use fmm_tree::partition::morton_to_rowmajor;
use fmm_tree::{BoxCoord, Domain, Hierarchy};

use crate::cells::CellStore;
use crate::collectives::{
    all_to_allv, broadcast_from_root, exchange_rows, gather_level_to_root, halo_exchange_axis,
    particle_exchange, particle_halo_axis,
};
use crate::fabric::WorkerCtx;
use crate::schedule::{
    cell_index, near_halo_widths, CommProgram, PartitionSchedule, Step, StepKind,
};

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
    /// one of its steps; no schedule decision is made here.
    pub program: &'a CommProgram,
}

/// One worker's contribution to the evaluation.
#[derive(Default)]
pub struct WorkerOut {
    pub counters: Counters,
    /// Original input index of each locally-sorted particle.
    pub orig: Vec<usize>,
    /// Combined far + near potential per local particle.
    pub pot: Vec<f64>,
    pub fields: Option<Vec<[f64; 3]>>,
    pub near_stats: NearFieldStats,
    /// Pairs the near field ran for ghost targets: work done here for
    /// boxes that [`Self::near_stats`] counts on their owners.
    pub ghost_pairs: u64,
    pub p2o_flops: u64,
    pub eval_flops: u64,
    /// GEMM flops this worker performed in the upward/downward traversal
    /// (T1 + T2 + T3) — the per-worker load-balance signal the report's
    /// `worker_flops` aggregates.
    pub traversal_flops: u64,
    /// Wall time of [sort, p2o, upward, downward, eval, near].
    pub times: [Duration; 6],
    /// The part of each phase's wall time spent blocked in a receive.
    pub wait: [Duration; 6],
}

/// Which rank computes which box.
enum Ownership<'a> {
    /// The uniform block layout on the VU grid, given at the leaf level.
    /// A level with fewer boxes than VUs along some axis is
    /// Multigrid-embedded: rank 0 owns every box of it, the others none.
    Block(BlockLayout),
    /// The cost-weighted Morton partition, with the exchange plans it
    /// induces.
    Part(&'a PartitionSchedule),
}

impl<'a> Ownership<'a> {
    fn owner(&self, leaf_box: &BoxCoord) -> usize {
        match self {
            Ownership::Block(leaf) => leaf.vu_of([
                leaf_box.x as usize,
                leaf_box.y as usize,
                leaf_box.z as usize,
            ]),
            Ownership::Part(ps) => ps.partition.owner(leaf_box),
        }
    }

    /// Row-major indices of the boxes of `level` that `rank` computes.
    fn owned(&self, rank: usize, level: u32) -> Vec<u32> {
        let n = 1usize << level;
        match self {
            Ownership::Block(leaf) if subgrid_extent(level, &leaf.vu).is_some() => {
                let lay = BlockLayout::new([n; 3], leaf.vu);
                (0..lay.boxes_per_vu())
                    .map(|li| cell_index(lay.global_of(rank, li), n) as u32)
                    .collect()
            }
            Ownership::Block(_) if rank == 0 => (0..(n * n * n) as u32).collect(),
            Ownership::Block(_) => Vec::new(),
            // Levels 0 and 1 feed no T2/T3, and the partitioned program
            // flushes no children to them.
            Ownership::Part(_) if level < 2 => Vec::new(),
            Ownership::Part(ps) => {
                let codes = ps.partition.owned_at(rank, level);
                codes
                    .map(|code| morton_to_rowmajor(level, code) as u32)
                    .collect()
            }
        }
    }

    /// The exchange plans of a partitioned program's steps.
    fn plans(&self) -> &'a PartitionSchedule {
        match self {
            Ownership::Part(ps) => ps,
            Ownership::Block(_) => panic!("partitioned step in a block-layout program"),
        }
    }
}

/// The level whose sweep a box-row step must precede: children gather or
/// flush *up* to their parents' level, a broadcast hands the parents'
/// locals *down*, halos and parent fetches serve their own level.
fn feeds(kind: &StepKind) -> Option<u32> {
    match *kind {
        StepKind::Gather { level } | StepKind::ChildFlush { level } => Some(level - 1),
        StepKind::Broadcast { level } => Some(level + 1),
        StepKind::BoxHalo { level, .. }
        | StepKind::ParentFetch { level }
        | StepKind::PartBoxHalo { level } => Some(level),
        _ => None,
    }
}

/// Cell coverage is total — every neighbour cell the near field reads is
/// on the rank once the halo steps have run. Here it is not: `st` left
/// this rank without `origin`.
fn cell_missing(whereabouts: &str, st: &Step, origin: usize) -> ! {
    panic!("{whereabouts}: step {st:?} needs origin cell {origin}, which is not on this rank")
}

/// A phase's unconsumed steps.
type Steps<'s> = Peekable<std::slice::Iter<'s, Step>>;

/// One rank's state: everything a step can move, plus the output so far.
struct Worker<'a> {
    ctx: WorkerCtx,
    sh: &'a Shared<'a>,
    own: Ownership<'a>,
    /// Particle records `[x, y, z, q, input index]`: one list per
    /// destination rank before the router step, this rank's own after it.
    records: Vec<Vec<f64>>,
    /// This rank's particles binned by leaf box; none until the sort.
    bp: BinnedParticles,
    fh: FieldHierarchy,
    /// Near field: the leaf cells on this rank; none until that phase.
    store: CellStore,
    out: WorkerOut,
}

/// One rank's program. Its phases run [`fmm_core::serially`]: every sweep
/// they call runs on this thread.
pub(crate) fn worker_main<'a>(ctx: WorkerCtx, sh: &'a Shared<'a>) -> WorkerOut {
    let own = match &sh.program.partition {
        Some(ps) => Ownership::Part(ps),
        None => Ownership::Block(BlockLayout::new([1usize << sh.depth; 3], ctx.grid)),
    };
    let mut w = Worker {
        ctx,
        sh,
        own,
        records: Vec::new(),
        bp: BinnedParticles::build(&[], &[], sh.domain, sh.depth),
        fh: FieldHierarchy::new(Hierarchy::new(sh.depth), sh.fmm.k()),
        store: CellStore::default(),
        out: WorkerOut::default(),
    };
    let phases: [fn(&mut Worker<'a>, &mut Steps<'_>); 6] = [
        Worker::sort,
        Worker::p2o,
        Worker::upward,
        Worker::downward,
        Worker::eval,
        Worker::near,
    ];
    fmm_core::serially(|| {
        for (ph, run) in phases.into_iter().enumerate() {
            w.ctx.set_phase(ph);
            let t0 = Instant::now();
            let mut steps = sh.program.phases[ph].iter().peekable();
            run(&mut w, &mut steps);
            if let Some(st) = steps.next() {
                panic!("{}: step {st:?} was never executed", w.whereabouts());
            }
            w.out.times[ph] = t0.elapsed();
        }
    });
    w.out.counters = w.ctx.counters;
    w.out.wait = w.ctx.wait;
    w.out
}

impl Worker<'_> {
    fn whereabouts(&self) -> String {
        let phase = SpmdReport::PHASE_NAMES[self.ctx.counters.phase()];
        format!("spmd rank {} in phase {phase}", self.ctx.rank)
    }

    /// Execute one step of the program: the collective its kind names,
    /// over the data its parameters name.
    fn step(&mut self, st: &Step) {
        assert_eq!(
            self.ctx.tags.peek(),
            st.tag,
            "{}: tag drift at step {st:?}",
            self.whereabouts()
        );
        let Worker { ctx, sh, own, .. } = self;
        let (k, depth) = (sh.fmm.k(), sh.depth);
        // The one place a step's messages go on the ledger; the collectives
        // count the bytes they move.
        ctx.count_op(st.logical_msgs);
        let (far, local) = (&mut self.fh.far, &mut self.fh.local);
        match st.kind {
            StepKind::Router => {
                let outgoing = std::mem::take(&mut self.records);
                self.records = vec![all_to_allv(ctx, outgoing)];
            }
            StepKind::Gather { level } => {
                gather_level_to_root(ctx, &mut far[level as usize], level, k)
            }
            StepKind::Broadcast { level } if sh.program.supernodes => {
                // The next level's supernode sources ride with the locals.
                let (local, far) = (&mut local[level as usize], &mut far[level as usize]);
                let mut both = [&local[..], &far[..]].concat();
                broadcast_from_root(ctx, &mut both);
                let (l, f) = both.split_at(local.len());
                local.copy_from_slice(l);
                far.copy_from_slice(f);
            }
            StepKind::Broadcast { level } => broadcast_from_root(ctx, &mut local[level as usize]),
            StepKind::BoxHalo { level, axis } => {
                let ghost = sh.program.ghost;
                halo_exchange_axis(ctx, &mut far[level as usize], level, axis, ghost, k)
            }
            StepKind::ChildFlush { level } => {
                let plan = own.plans().child_flush_at(level);
                exchange_rows(ctx, &mut far[level as usize], plan.side(ctx.rank), k)
            }
            StepKind::ParentFetch { level } => {
                let plan = own.plans().parent_fetch_at(level);
                exchange_rows(ctx, &mut local[level as usize - 1], plan.side(ctx.rank), k)
            }
            StepKind::PartBoxHalo { level } => {
                let plan = own.plans().box_halo_at(level);
                exchange_rows(ctx, &mut far[level as usize], plan.side(ctx.rank), k)
            }
            StepKind::ParticleHalo { axis } => {
                let g = near_halo_widths();
                particle_halo_axis(ctx, depth, axis, g, &mut self.store)
            }
            StepKind::PartParticleHalo => {
                let side = own.plans().particle_halo.side(ctx.rank);
                particle_exchange(ctx, side, &mut self.store)
            }
        }
    }

    /// Run the steps that must precede the sweep of `level`.
    fn exchange_for(&mut self, steps: &mut Steps<'_>, level: u32) {
        while let Some(st) = steps.next_if(|st| feeds(&st.kind) == Some(level)) {
            self.step(st);
        }
    }

    /// Phase 0: block-distributed input particles are routed to the worker
    /// owning their leaf box (the paper's coordinate sort).
    fn sort(&mut self, steps: &mut Steps<'_>) {
        let (sh, rank, p) = (self.sh, self.ctx.rank, self.ctx.p());
        let n = sh.positions.len();
        self.records = vec![Vec::new(); p];
        for i in rank * n / p..(rank + 1) * n / p {
            let [x, y, z] = sh.positions[i];
            let owner = self.own.owner(&sh.domain.locate([x, y, z], sh.depth));
            self.records[owner].extend_from_slice(&[x, y, z, sh.charges[i], i as f64]);
        }
        for st in steps {
            self.step(st);
        }
        let mine = self.records.pop().unwrap_or_default();
        let m_loc = mine.len() / 5;
        let mut pos = Vec::with_capacity(m_loc);
        let mut q = Vec::with_capacity(m_loc);
        let mut orig = Vec::with_capacity(m_loc);
        for ch in mine.chunks_exact(5) {
            pos.push([ch[0], ch[1], ch[2]]);
            q.push(ch[3]);
            orig.push(ch[4] as usize);
        }
        self.bp = BinnedParticles::build(&pos, &q, sh.domain, sh.depth);
        self.out.orig = self.bp.binning.gather(&orig);
    }

    /// Phase 1: P2O over owned leaf boxes (every other box is empty in
    /// this worker's binning and skipped).
    fn p2o(&mut self, _: &mut Steps<'_>) {
        let (sh, depth) = (self.sh, self.sh.depth);
        let a_leaf = sh.fmm.config().outer_ratio * sh.domain.box_side(depth);
        let far_leaf = &mut self.fh.far[depth as usize];
        self.out.p2o_flops = p2o(&self.bp, sh.fmm.rule(), a_leaf, depth, true, far_leaf);
    }

    /// Phase 2: per parent level down to 2, as `traversal::upward_pass`,
    /// whatever child rows the program moves, then T1 over the owned
    /// parents.
    fn upward(&mut self, steps: &mut Steps<'_>) {
        let sh = self.sh;
        for l in (2..sh.depth).rev() {
            self.exchange_for(steps, l);
            let parents = self.own.owned(self.ctx.rank, l);
            let ts = sh.fmm.translations();
            let fl = upward_rows(&mut self.fh, ts, sh.plan, l, Aggregation::Gemm, &parents);
            self.ctx.counters.add_local_words(fl.copied);
            self.out.traversal_flops += fl.t1;
        }
    }

    /// Phase 3: per level, the parent locals and interactive-field far
    /// rows the program moves, then T2 + T3 over the owned boxes. Under
    /// supernodes T2 also reads parent-level far rows, which the parent
    /// level's steps brought earlier.
    fn downward(&mut self, steps: &mut Steps<'_>) {
        let sh = self.sh;
        let supernodes = sh.fmm.config().supernodes;
        for l in 2..=sh.depth {
            self.exchange_for(steps, l);
            let boxes = self.own.owned(self.ctx.rank, l);
            let ts = sh.fmm.translations();
            let fl = downward_rows(
                &mut self.fh,
                ts,
                sh.plan,
                supernodes,
                Aggregation::Gemm,
                l,
                &boxes,
            );
            self.ctx.counters.add_local_words(fl.copied);
            self.out.traversal_flops += fl.t2 + fl.t3;
        }
    }

    /// Phase 4: evaluate leaf inner approximations at owned particles.
    fn eval(&mut self, _: &mut Steps<'_>) {
        let (sh, depth) = (self.sh, self.sh.depth);
        let cfg = sh.fmm.config();
        let b_leaf = cfg.inner_ratio * sh.domain.box_side(depth);
        self.out.pot = vec![0.0; self.bp.len()];
        self.out.fields = sh.with_fields.then(|| vec![[0.0; 3]; self.bp.len()]);
        self.out.eval_flops = eval_local(
            &self.bp,
            sh.fmm.rule(),
            cfg.m_trunc,
            b_leaf,
            depth,
            true,
            &self.fh.local[depth as usize],
            &mut self.out.pot,
            self.out.fields.as_deref_mut(),
        );
        // Nothing reads the hierarchy again: free it before the near field
        // allocates, as the serial driver does.
        self.fh.far.clear();
        self.fh.local.clear();
    }

    /// Phase 5: the near field, added onto the far-field results exactly
    /// as the serial driver combines them.
    fn near(&mut self, steps: &mut Steps<'_>) {
        let sh = self.sh;
        let cfg = sh.fmm.config();
        let (kernel, eps2, depth) = (sh.plan.kernel, cfg.softening * cfg.softening, sh.depth);
        let owned = self.own.owned(self.ctx.rank, depth);
        // A cell found missing after the steps have run is laid to the last.
        let last = sh.program.phases[5]
            .last()
            .expect("the near phase has steps");
        // The halo brings every cell the near field reads for the owned
        // boxes, each in its owner's order, which is the serial binning's;
        // laid out row-major, every row a target reads is one run holding
        // the serial run's values. The store takes the particles over: the
        // binning keeps only its ranges.
        self.store = CellStore::seed(&self.bp, &owned);
        let bp = &mut self.bp;
        (bp.x, bp.y, bp.z, bp.q) = Default::default();
        for st in steps {
            self.step(st);
        }
        self.store.lay_out_row_major();
        let here = self.whereabouts();
        let starts = self.store.starts();
        // The serial symmetric sweep over the owned boxes and the ghost
        // targets, whose source-side terms on owned particles arrive in
        // the serial order; the store's other outputs are dropped. The
        // owned boxes' rows and the ghost targets must be here.
        let mut role = vec![TargetRole::Skip; 1 << (3 * depth)];
        for &b in &owned {
            role[b as usize] = TargetRole::Own;
        }
        let half = fmm_tree::half_offsets();
        for &b in &owned {
            let s = BoxCoord::from_index(depth, b as usize);
            for h in &half {
                // A box of s's rows, and the target with s in its rows.
                let (row, target) = (s.offset(*h), s.offset(h.map(|c| -c)));
                for c in row.iter().chain(&target).map(BoxCoord::index) {
                    if self.store.range(c).is_none() {
                        cell_missing(&here, last, c);
                    }
                }
                if let Some(t) = target.filter(|t| role[t.index()] == TargetRole::Skip) {
                    role[t.index()] = TargetRole::Ghost;
                }
            }
        }
        let cells = self.store.row_cells(&starts);
        let (outs, st) = symmetric_rows(kernel, depth, cells, eps2, sh.with_fields, |b| role[b]);
        // Far + near, each owned particle's near outputs added in place.
        let mut fields = self.out.fields.as_deref_mut();
        for b in owned.iter().map(|&b| b as usize) {
            let at = self.store.range(b).expect("an owned cell is here");
            for (i, j) in self.bp.range(b).zip(at) {
                if let Some(f) = fields.as_deref_mut() {
                    for d in 0..3 {
                        f[i][d] += outs[1 + d][j];
                    }
                }
                self.out.pot[i] += outs[0][j];
            }
        }
        self.out.ghost_pairs = st.ghost.pair_interactions;
        let stats = st.own;
        self.out.near_stats = stats;
    }
}
