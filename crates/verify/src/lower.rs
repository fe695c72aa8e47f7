//! Lowering: expand a [`CommProgram`] into every rank's concrete,
//! ordered send/receive endpoints, step by step.
//!
//! The lowered form is what the passes analyze. It is produced by the
//! same [`fmm_spmd::schedule::Step::ops_for`] the executor's collectives
//! mirror, so a property proven of the lowered program is a property of
//! the program the workers run.
//!
//! Mutations for the analyzer's own smoke tests are applied *here*, to
//! the lowered endpoints, not to the schedule builder: flipping a whole
//! halo step coherently (sends and receives together) would produce a
//! different but still valid exchange, which no analyzer should reject.
//! The interesting faults are one-sided — a sender serving the wrong side
//! while receivers still expect the old one, a rank that forgets to post a
//! receive — and those are exactly what the mutations inject.

use fmm_spmd::schedule::{CommProgram, Op, StepKind};

/// One step of the lowered program: the schedule step plus every rank's
/// ordered op list.
#[derive(Debug, Clone)]
pub struct LoweredStep {
    /// Phase index (0..6, `SpmdReport` order).
    pub phase: usize,
    pub kind: StepKind,
    pub tag: u64,
    pub logical_msgs: u64,
    /// `ops[rank]` is rank `rank`'s op sequence, in execution order.
    pub ops: Vec<Vec<Op>>,
}

/// The fully lowered communication program.
#[derive(Debug, Clone)]
pub struct Lowered {
    pub program: CommProgram,
    pub steps: Vec<LoweredStep>,
}

/// Expand every step of `prog` to per-rank endpoints.
pub fn lower(prog: &CommProgram) -> Lowered {
    let p = prog.grid.len();
    let steps = prog
        .steps()
        .map(|(phase, st)| LoweredStep {
            phase,
            kind: st.kind,
            tag: st.tag,
            logical_msgs: st.logical_msgs,
            ops: (0..p).map(|rank| st.ops_for(prog, rank)).collect(),
        })
        .collect();
    Lowered {
        program: prog.clone(),
        steps,
    }
}

/// A schedule fault injected for the mutation smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Every sender of the first near-field particle-halo step serves the
    /// rank mirrored across itself along the step's axis instead of the
    /// one it names; receivers keep expecting the scheduled sources. A
    /// rank at the domain face then sends around the wrap, where nobody
    /// expects it, so on an axis of ≥ 3 ranks the endpoints no longer
    /// pair up.
    FlippedHalo,
    /// Rank 0 forgets to post its first receive, leaving one send
    /// unmatched.
    DroppedRecv,
    /// The serve lifecycle machine grows a shutdown-tagged edge into
    /// `Reply` (a handler answering on the shutdown path). Applied when
    /// the machine is built, not here — see `run_checks`.
    ReplyAfterShutdown,
}

impl Mutation {
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "flipped-halo" => Some(Mutation::FlippedHalo),
            "dropped-recv" => Some(Mutation::DroppedRecv),
            "reply-after-shutdown" => Some(Mutation::ReplyAfterShutdown),
            _ => None,
        }
    }
}

/// Apply `m` to the lowered program in place. Panics if the program has
/// no site for the mutation (e.g. a partitioned program has no axis
/// halo, a p = 1 program has no receives) — the smoke test must pick a
/// configuration where the fault exists.
pub fn apply_mutation(low: &mut Lowered, m: Mutation) {
    match m {
        Mutation::FlippedHalo => {
            let grid = low.program.grid;
            let step = low
                .steps
                .iter_mut()
                .find(|s| matches!(s.kind, StepKind::ParticleHalo { .. }))
                .expect("program has a particle-halo axis phase to flip");
            let StepKind::ParticleHalo { axis } = step.kind else {
                unreachable!()
            };
            assert!(
                grid.dims[axis] >= 3,
                "a mirrored axis of < 3 ranks is endpoint-equivalent; \
                 use a grid with >= 3 VUs along axis {axis}"
            );
            let dims = grid.dims[axis] as i64;
            for (rank, ops) in step.ops.iter_mut().enumerate() {
                let my = grid.coords(rank);
                for op in ops.iter_mut() {
                    if let Op::Send { to, .. } = op {
                        let mut c = grid.coords(*to);
                        c[axis] = (2 * my[axis] as i64 - c[axis] as i64).rem_euclid(dims) as usize;
                        *to = grid.rank(c);
                    }
                }
            }
        }
        Mutation::DroppedRecv => {
            let step = low
                .steps
                .iter_mut()
                .find(|s| s.ops[0].iter().any(|o| matches!(o, Op::Recv { .. })))
                .expect("program has a receive on rank 0 to drop");
            let i = step.ops[0]
                .iter()
                .position(|o| matches!(o, Op::Recv { .. }))
                .unwrap();
            step.ops[0].remove(i);
        }
        // Not a schedule fault: this mutation lives in the lifecycle
        // machine, which `run_checks` builds mutated instead.
        Mutation::ReplyAfterShutdown => {}
    }
}
