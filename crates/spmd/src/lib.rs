//! # fmm-spmd — a message-passing SPMD executor behind the machine model
//!
//! The machine model in `fmm-machine` *prices* the FMM's communication on a
//! CM-5-style distributed machine; this crate *executes* it. N worker
//! ranks play the VUs of a [`fmm_machine::VuGrid`], each owning its boxes
//! outright — a block of the uniform layout, or a segment of the
//! cost-weighted Morton [`Partition`]. No shared mutable arrays exist:
//! every datum that moves between workers goes through an explicit
//! [`Transport`], so the per-phase byte and message counters measured here
//! are the program's actual data motion — directly comparable against
//! `fmm_machine::communication_budget`.
//!
//! There are two schedules and one interpreter. [`CommProgram::build`]
//! (wrapped CSHIFTs, Multigrid embedding) and
//! [`CommProgram::build_partitioned`] (planned exchanges) are data; one
//! worker body walks either, step by step, and runs `fmm-core`'s own panel
//! sweeps over the boxes its rank owns. The mapping decides where the rows
//! live, never how they are computed.
//!
//! The channel primitives mirror the CM runtime (see `DESIGN.md`, "The
//! SPMD runtime"): a personalized all-to-all (the data router) for the
//! post-sort particle redistribution, grid CSHIFTs with circular wrap for
//! the downward halo and the near-field travelling accumulators, and
//! tree-structured combine/spread for the coarse levels where boxes are
//! fewer than VUs (the Multigrid embedding).
//!
//! Three fabrics carry the same `CommProgram`
//! ([`fmm_core::Fabric`]): in-process `mpsc` channels (the default),
//! UNIX-domain sockets, and TCP — the socket fabrics framing every
//! message with the length-prefixed `FMMW` codec ([`transport`]). The
//! [`distributed`] module runs the same program across OS processes
//! (`fmm-worker` ranks joining a rendezvous).
//!
//! Results are **bitwise identical** to the serial and rayon backends for
//! every worker count, fabric and balance mode: every box's row goes
//! through the same sweep in the same order, only the data lives elsewhere.
//!
//! ## Usage
//!
//! ```
//! use fmm_core::{Executor, Fmm, FmmConfig};
//!
//! fmm_spmd::install(); // register the backend once per process
//! let fmm = Fmm::new(FmmConfig::order(3).depth(2).executor(Executor::spmd(4))).unwrap();
//! let positions: Vec<[f64; 3]> = (0..64)
//!     .map(|i| {
//!         let f = i as f64 / 64.0;
//!         [f, (f * 7.3) % 1.0, (f * 3.1) % 1.0]
//!     })
//!     .collect();
//! let out = fmm.evaluate(&positions, &vec![1.0; 64]).unwrap();
//! assert_eq!(out.spmd.unwrap().workers, 4);
//! ```

#![forbid(unsafe_code)]

pub mod cells;
pub mod collectives;
pub mod distributed;
mod exec;
pub mod fabric;
pub mod schedule;
pub mod transport;

use std::io;
use std::time::Duration;

use fmm_core::driver::{EvalOutput, Fmm, FmmError};
use fmm_core::near::NearFieldStats;
use fmm_core::stats::Counters;
use fmm_core::traversal::TraversalFlops;
use fmm_core::{
    Balance, Domain, Fabric, Phase, Profile, Separation, SpmdOptions, SpmdReport, TraversalPlan,
};
use fmm_linalg::gemm_flops;
use fmm_machine::VuGrid;
use fmm_tree::partition::{leaf_costs, CostModel};
use transport::MeshStream;

pub use distributed::{evaluate_distributed, worker_join, LaunchConfig};
pub use exec::WorkerOut;
pub use fabric::{
    channel_ctxs, run_ctxs, run_workers, ChannelTransport, TagAllocator, Transport, WorkerCtx,
};
pub use schedule::{CommProgram, Partition};
pub use transport::{FabricAddr, SocketTransport};

/// Register this crate as the backend for [`fmm_core::Executor::Spmd`].
/// Idempotent; call once before evaluating.
pub fn install() {
    fmm_core::driver::install_spmd_backend(run_spmd);
}

/// Arrange `p` workers (a power of two) on a VU grid, spreading factors of
/// two across x, y, z round-robin: 2 → `[2,1,1]`, 8 → `[2,2,2]`,
/// 128 → `[8,4,4]`.
pub fn vu_grid_for(p: usize) -> VuGrid {
    assert!(p.is_power_of_two(), "worker count must be a power of two");
    let mut dims = [1usize; 3];
    let mut axis = 0;
    let mut left = p;
    while left > 1 {
        dims[axis] *= 2;
        left /= 2;
        axis = (axis + 1) % 3;
    }
    VuGrid::new(dims)
}

/// Build the cost-weighted Morton partition for one input: bin particle
/// counts per leaf box, price every leaf with the calibrated
/// [`CostModel`] (near-field pairs + its share of the translation work),
/// and cut the Morton curve at the optimal bottleneck. Deterministic in
/// the input, so every worker count and executor sees the same partition.
#[allow(clippy::too_many_arguments)]
pub fn cost_partition(
    positions: &[[f64; 3]],
    domain: Domain,
    depth: u32,
    workers: usize,
    k: usize,
    m_trunc: usize,
    with_fields: bool,
    sep: Separation,
) -> Partition {
    let n = 1usize << depth;
    let mut counts = vec![0usize; n * n * n];
    for &pos in positions {
        let b = domain.locate(pos, depth);
        counts[b.index()] += 1;
    }
    let model = CostModel {
        k,
        m_trunc,
        with_fields,
        sep,
    };
    let costs = leaf_costs(depth, &model, &counts);
    Partition::cost_weighted(depth, workers, &costs)
}

/// Wire `p = grid.len()` worker contexts over the selected fabric, all in
/// one process: `mpsc` channels, a UNIX socket-pair mesh, or a loopback
/// TCP mesh. The socket meshes run the exact framing of the
/// multi-process path, which is what makes single-process equivalence
/// tests across fabrics meaningful.
pub fn fabric_ctxs(grid: VuGrid, fabric: Fabric) -> io::Result<Vec<WorkerCtx>> {
    let p = grid.len();
    match fabric {
        Fabric::InProcess => Ok(channel_ctxs(grid)),
        #[cfg(unix)]
        Fabric::Unix => socket_ctxs(grid, transport::unix_pair_mesh(p)?),
        #[cfg(not(unix))]
        Fabric::Unix => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the unix fabric needs UNIX-domain sockets",
        )),
        Fabric::Tcp => socket_ctxs(grid, transport::tcp_loopback_mesh(p)?),
    }
}

/// One context per row of a socket mesh, rank `r` on `mesh[r]`.
fn socket_ctxs<S: MeshStream>(
    grid: VuGrid,
    mesh: Vec<Vec<Option<S>>>,
) -> io::Result<Vec<WorkerCtx>> {
    let ctx = |(rank, row)| {
        Ok(WorkerCtx::new(
            rank,
            grid,
            Box::new(SocketTransport::new(rank, row)?),
        ))
    };
    mesh.into_iter().enumerate().map(ctx).collect()
}

/// One source of truth for the communication schedule: the executor walks
/// this program, `fmm-verify` statically checks it, and the distributed
/// workers rebuild the identical one from the job description.
pub(crate) fn build_program(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    domain: Domain,
    depth: u32,
    grid: VuGrid,
    with_fields: bool,
    balance: Balance,
) -> CommProgram {
    let cfg = fmm.config();
    match balance {
        Balance::Uniform => CommProgram::build(
            grid,
            depth,
            fmm.k(),
            cfg.separation.d() as usize,
            with_fields,
        ),
        Balance::CostWeighted => CommProgram::build_partitioned(
            grid,
            depth,
            fmm.k(),
            cfg.separation.d() as usize,
            with_fields,
            cost_partition(
                positions,
                domain,
                depth,
                grid.len(),
                fmm.k(),
                cfg.m_trunc,
                with_fields,
                cfg.separation,
            ),
        ),
    }
}

/// The backend entry point matching [`fmm_core::driver::SpmdBackend`].
fn run_spmd(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    domain: Domain,
    with_fields: bool,
    opts: SpmdOptions,
) -> Result<EvalOutput, FmmError> {
    let cfg = fmm.config();
    let workers = opts.workers;
    let depth = cfg.depth.resolve(positions.len());
    let grid = vu_grid_for(workers);
    let n_axis = 1usize << depth;
    if grid.dims.iter().any(|&d| d > n_axis) {
        return Err(FmmError::InvalidConfig(format!(
            "Executor::spmd({workers}) lays workers on a {:?} grid, but depth {depth} \
             has only {n_axis} leaf boxes per axis; reduce workers or increase depth",
            grid.dims,
        )));
    }
    let program = build_program(
        fmm,
        positions,
        domain,
        depth,
        grid,
        with_fields,
        cfg.balance,
    );
    let ctxs = fabric_ctxs(grid, opts.transport).map_err(|e| {
        FmmError::InvalidConfig(format!(
            "cannot wire the {} fabric for {workers} workers: {e}",
            opts.transport.name()
        ))
    })?;
    Ok(run_program(fmm, positions, charges, domain, &program, ctxs))
}

/// Run `program` with one worker thread per pre-wired context and
/// assemble the result.
fn run_program(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    domain: Domain,
    program: &CommProgram,
    ctxs: Vec<WorkerCtx>,
) -> EvalOutput {
    let plan = fmm.plan_for(program.depth);
    let shared = exec::Shared {
        fmm,
        positions,
        charges,
        domain,
        depth: program.depth,
        with_fields: program.with_fields,
        plan: &plan,
        program,
    };
    let outs = run_ctxs(ctxs, |ctx| exec::worker_main(ctx, &shared));
    assemble(fmm, &plan, program, positions.len(), domain, outs)
}

/// Assemble per-worker outputs into one [`EvalOutput`]: scatter results
/// back to original particle order, merge counters and stats, take each
/// phase's time as the slowest rank's (no rank is special under
/// `Balance::CostWeighted`). Shared between the thread launcher and the
/// multi-process launcher in [`distributed`] — the aggregation must be
/// identical or the fabrics would diverge at the last step.
pub(crate) fn assemble(
    fmm: &Fmm,
    plan: &TraversalPlan,
    program: &CommProgram,
    n: usize,
    domain: Domain,
    outs: Vec<exec::WorkerOut>,
) -> EvalOutput {
    let (grid, depth, with_fields) = (program.grid, program.depth, program.with_fields);
    let workers = grid.len();
    let mut potentials = vec![0.0; n];
    let mut fields = with_fields.then(|| vec![[0.0; 3]; n]);
    let mut counters = Counters::default();
    let mut stats = NearFieldStats::default();
    let (mut p2o_flops, mut eval_flops) = (0u64, 0u64);
    let mut worker_busy_ns = Vec::with_capacity(outs.len());
    let mut worker_wait_ns = Vec::with_capacity(outs.len());
    let mut worker_flops = Vec::with_capacity(outs.len());
    for w in &outs {
        let (wall, wait): (Duration, Duration) = (w.times.iter().sum(), w.wait.iter().sum());
        worker_busy_ns.push(wall.saturating_sub(wait).as_nanos() as u64);
        worker_wait_ns.push(wait.as_nanos() as u64);
        worker_flops.push(w.p2o_flops + w.traversal_flops + w.eval_flops + w.near_stats.flops);
        for (i, &o) in w.orig.iter().enumerate() {
            potentials[o] = w.pot[i];
            if let (Some(f), Some(wf)) = (fields.as_mut(), w.fields.as_ref()) {
                f[o] = wf[i];
            }
        }
        counters.merge(&w.counters);
        stats.pair_interactions += w.near_stats.pair_interactions;
        stats.box_pairs += w.near_stats.box_pairs;
        stats.flops += w.near_stats.flops;
        p2o_flops += w.p2o_flops;
        eval_flops += w.eval_flops;
    }

    // Nominal traversal flop counters, closed-form — identical to the
    // serial per-level accounting (the live T2 rows come from the plan).
    // The workers' own sweep counters do not sum to it: a partitioned run
    // never computes level 1.
    let k = fmm.k();
    let mut tfl = TraversalFlops::default();
    if depth >= 3 {
        for l in 1..depth {
            let n_parents = 1usize << (3 * l);
            tfl.t1 += gemm_flops(n_parents, k, k) * 8;
            tfl.copied += (n_parents * 8 * k) as u64;
        }
    }
    for l in 2..=depth {
        let n_boxes = 1u64 << (3 * l);
        let lvl = plan.level(l - 1);
        let live = lvl.t2_rows[0]; // no supernodes under SPMD
        let t3_rows = if l >= 3 { n_boxes } else { 0 };
        tfl.t2 += live * gemm_flops(1, k, k);
        tfl.t3 += t3_rows * gemm_flops(1, k, k);
        // T3 reads its sources in place, T2 where its panels allow.
        tfl.copied += (lvl.t2_gathered_rows(k, false) + n_boxes) * k as u64;
    }

    let mut profile = Profile::new();
    let phase_of = [
        Phase::Sort,
        Phase::P2O,
        Phase::Upward,
        Phase::Interactive, // downward wall time, as in the serial driver
        Phase::Eval,
        Phase::Near,
    ];
    for (i, ph) in phase_of.into_iter().enumerate() {
        let slowest = outs.iter().map(|w| w.times[i]).max();
        profile.add_time(ph, slowest.unwrap_or_default());
    }
    profile.add_flops(Phase::P2O, p2o_flops);
    profile.add_flops(Phase::Upward, tfl.t1);
    profile.add_flops(Phase::Interactive, tfl.t2);
    profile.add_flops(Phase::Downward, tfl.t3);
    profile.add_flops(Phase::Eval, eval_flops);
    profile.add_flops(Phase::Near, stats.flops);

    EvalOutput {
        potentials,
        fields,
        offsets: vec![0, n],
        profile,
        depth,
        near_stats: stats,
        traversal_flops: tfl,
        domain,
        spmd: Some(SpmdReport {
            workers,
            vu_dims: grid.dims,
            phases: counters,
            worker_busy_ns,
            worker_wait_ns,
            worker_flops,
            partition: program
                .partition
                .as_ref()
                .map(|ps| ps.partition.splits().to_vec()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::FmmConfig;

    /// A loopback-TCP endpoint whose every receive dawdles for `NAP` first.
    struct Sleepy(SocketTransport);
    const NAP: Duration = Duration::from_millis(30);

    impl Transport for Sleepy {
        fn send(&mut self, to: usize, tag: u64, data: Vec<f64>) {
            self.0.send(to, tag, data)
        }
        fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
            std::thread::sleep(NAP);
            self.0.recv(from, tag)
        }
        fn kind(&self) -> &'static str {
            "sleepy"
        }
    }

    type Edit = fn(&mut CommProgram);

    /// A depth-3 potentials run on two ranks over `ctxs`, with the program
    /// passed through `edit` first.
    fn two_rank_run(ctxs: Vec<WorkerCtx>, edit: Edit) -> EvalOutput {
        let fmm = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        let positions: Vec<[f64; 3]> = (0..600)
            .map(|i| {
                let f = i as f64 / 600.0;
                [f, (f * 7.3) % 1.0, (f * 3.1) % 1.0]
            })
            .collect();
        let charges = vec![1.0; positions.len()];
        let (domain, grid) = (Domain::bounding(&positions), vu_grid_for(2));
        let mut program = build_program(&fmm, &positions, domain, 3, grid, false, Balance::Uniform);
        edit(&mut program);
        run_program(&fmm, &positions, &charges, domain, &program, ctxs)
    }

    #[test]
    #[cfg_attr(miri, ignore)] // runs the SIMD kernels
    fn blocked_receives_are_wait_not_busy() {
        let grid = vu_grid_for(2);
        let mesh = transport::tcp_loopback_mesh(2).unwrap().into_iter();
        let ctxs = mesh
            .enumerate()
            .map(|(rank, row)| {
                let wire = Sleepy(SocketTransport::new(rank, row).unwrap());
                WorkerCtx::new(rank, grid, Box::new(wire))
            })
            .collect();
        let t0 = std::time::Instant::now();
        let out = two_rank_run(ctxs, |_| {});
        let wall = t0.elapsed().as_nanos() as u64;
        let rep = out.spmd.unwrap();
        let nap = NAP.as_nanos() as u64;
        for rank in 0..2 {
            // Each rank receives at least thrice: the router and the
            // x-axis halo of levels 2 and 3. Busy plus wait is the sum of
            // the rank's phase timers, which the wall clock bounds — so
            // busy has no room for the naps.
            let (busy, wait) = (rep.worker_busy_ns[rank], rep.worker_wait_ns[rank]);
            assert!(wait >= 3 * nap, "rank {rank} waited only {wait} ns");
            assert!(
                busy + wait <= wall,
                "rank {rank}: busy {busy} + wait {wait} > {wall}"
            );
        }
        // The profile takes each phase from its slowest rank, naps included.
        let profile: Duration = Phase::ALL
            .iter()
            .map(|&ph| out.profile.phase_time(ph))
            .sum();
        assert!(profile.as_nanos() as u64 >= 3 * nap);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_program_the_worker_cannot_follow_panics_with_rank_phase_and_step() {
        // In release builds too: the checks are `assert!`s. A drifted tag,
        // a step no phase code consumes, and every x-axis shift dropped
        // (tags closed up): no slot crosses to rank 0, whose boxes at the
        // boundary then visit origin cells it never received. (Rank 1 is
        // left needing nothing, so nobody blocks in a receive.)
        let cases: [(Edit, [&str; 3]); 3] = [
            (
                |p| p.phases[3][0].tag += 1,
                ["downward(T2+T3)", "tag drift", "BoxHalo"],
            ),
            (
                |p| p.phases[4].push(p.phases[5][0]),
                ["eval", "never executed", "SlotShift"],
            ),
            (
                |p| {
                    let first = p.phases[5][0].tag;
                    let x_shift = |st: &schedule::Step| {
                        matches!(st.kind, schedule::StepKind::SlotShift { axis: 0, .. })
                    };
                    p.phases[5].retain(|st| !x_shift(st));
                    for (st, tag) in p.phases[5].iter_mut().zip(first..) {
                        st.tag = tag;
                    }
                },
                ["near", "SlotShift", "needs origin cell"],
            ),
        ];
        for (edit, wants) in cases {
            let run = || two_rank_run(channel_ctxs(vu_grid_for(2)), edit);
            let panic = std::panic::catch_unwind(run).map(drop).unwrap_err();
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            for want in ["rank 0"].iter().chain(&wants) {
                assert!(msg.contains(want), "{want:?} missing from {msg:?}");
            }
        }
    }

    #[test]
    fn grid_factorization_round_robins() {
        assert_eq!(vu_grid_for(1).dims, [1, 1, 1]);
        assert_eq!(vu_grid_for(2).dims, [2, 1, 1]);
        assert_eq!(vu_grid_for(4).dims, [2, 2, 1]);
        assert_eq!(vu_grid_for(8).dims, [2, 2, 2]);
        assert_eq!(vu_grid_for(32).dims, [4, 4, 2]);
        assert_eq!(vu_grid_for(128).dims, [8, 4, 4]);
    }
}
