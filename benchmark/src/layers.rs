//! Every call the benchmark makes below the facade lives in this file.
//!
//! The end-to-end pass uses only `Fmm`, `FmmConfig`, `Executor`,
//! `Precision`, `fmm_spmd::install`, `fmm_serve::{Server, ServeConfig,
//! protocol}` and `fmm_direct::potentials_at`. The per-layer pass times
//! the public functions of each layer from outside, and those calls are
//! confined here so that a later signature change needs a follow-up to
//! this one file. The README lists them as the layer API the benchmark
//! depends on.

use crate::e2e::{Bits, Budget};
use crate::trace::Tracer;
use fmm_core::driver::{eval_local, p2o};
use fmm_core::field::FieldHierarchy;
use fmm_core::near::{near_field_forces_softened, near_field_travelling_with};
use fmm_core::near32::{near_field_forces_f32, near_field_potentials_f32};
use fmm_core::particles::BinnedParticles;
use fmm_core::traversal::{downward_pass, upward_pass, Aggregation};
use fmm_core::{BatchRequest, Domain, Fmm, Kernel, Precision, SpmdReport, TraversalPlan};
use fmm_linalg::pairwise::{exchange_f32_with, exchange_with};
use fmm_linalg::{gemm_acc, gemm_flops};
use fmm_machine::compare::{predicted_bytes, predicted_messages};
use fmm_machine::{communication_budget_with, ProgramConfig, TransportModel, VuGrid};
use fmm_serve::protocol::{decode_evaluate, encode_evaluate, EvalRequest};
use fmm_serve::Server;
use fmm_tree::Hierarchy;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Exact counts of one replayed evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayCounts {
    pub p2o_flops: u64,
    pub upward_flops: u64,
    pub downward_flops: u64,
    pub eval_flops: u64,
    pub near_pairs: u64,
    pub occupancy_mean: f64,
    pub occupancy_max: usize,
}

pub struct Replayed {
    pub potentials: Vec<f64>,
    pub fields: Option<Vec<[f64; 3]>>,
    pub counts: ReplayCounts,
}

impl Replayed {
    pub fn bits(&self) -> Bits<'_> {
        Bits {
            potentials: &self.potentials,
            fields: self.fields.as_deref(),
        }
    }
}

/// One evaluation through the public, unfused phase functions, in the
/// order and with the arguments `fmm_core::driver` uses, one span per
/// phase under a `core.replay` span. The repository documents the fused
/// default as bitwise equal to these phases, and the caller asserts the
/// assembled result is bitwise equal to `evaluate*()`.
///
/// The replay span's self time is what `evaluate` does outside its phases:
/// the plan lookup, allocating the hierarchy and output arrays, summing far
/// and near parts and scattering back to input order.
pub fn replay(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    forces: bool,
    tr: &mut Tracer,
    rep: u32,
) -> Replayed {
    let cfg = fmm.config();
    let par = cfg.parallel;
    let mixed = cfg.precision == Precision::Mixed;
    tr.span("core.replay", rep, |tr| {
        let domain = Domain::bounding(positions);
        let depth = cfg.depth.resolve(positions.len());
        let k = fmm.k();
        let plan = fmm.plan_for(depth);

        let bp = tr.span("core.sort", rep, |_| {
            BinnedParticles::build(positions, charges, domain, depth)
        });

        let mut fh = FieldHierarchy::new(Hierarchy::new(depth), k);
        let leaf_side = domain.box_side(depth);
        let a_leaf = cfg.outer_ratio * leaf_side;
        let b_leaf = cfg.inner_ratio * leaf_side;
        let mut far_pot = vec![0.0; bp.len()];
        let mut far_field = forces.then(|| vec![[0.0; 3]; bp.len()]);

        let p2o_flops = tr.span("core.p2o", rep, |_| {
            p2o(
                &bp,
                fmm.rule(),
                a_leaf,
                depth,
                par,
                &mut fh.far[depth as usize],
            )
        });
        let up = tr.span("core.upward", rep, |_| {
            upward_pass(&mut fh, fmm.translations(), &plan, Aggregation::Gemm, par)
        });
        let down = tr.span("core.downward", rep, |_| {
            downward_pass(
                &mut fh,
                fmm.translations(),
                &plan,
                cfg.supernodes,
                Aggregation::Gemm,
                par,
            )
        });
        let eval_flops = tr.span("core.eval", rep, |_| {
            eval_local(
                &bp,
                fmm.rule(),
                cfg.m_trunc,
                b_leaf,
                depth,
                par,
                &fh.local[depth as usize],
                &mut far_pot,
                far_field.as_deref_mut(),
            )
        });

        let mut near_pot = vec![0.0; bp.len()];
        let mut near_field = forces.then(|| vec![[0.0; 3]; bp.len()]);
        let near = tr.span("core.near", rep, |_| match (&mut near_field, mixed) {
            (Some(nf), false) => near_field_forces_softened(
                &bp,
                cfg.separation,
                par,
                cfg.softening,
                &mut near_pot,
                nf,
            ),
            (Some(nf), true) => near_field_forces_f32(
                plan.kernel,
                &bp,
                cfg.separation,
                par,
                cfg.softening,
                &mut near_pot,
                nf,
            ),
            (None, false) => near_field_travelling_with(
                plan.kernel,
                &bp,
                cfg.separation,
                par,
                cfg.softening,
                &mut near_pot,
            ),
            (None, true) => near_field_potentials_f32(
                plan.kernel,
                &bp,
                cfg.separation,
                &plan.near_schedule,
                par,
                cfg.softening,
                &mut near_pot,
            ),
        });

        if let (Some(ff), Some(nf)) = (far_field.as_mut(), near_field.as_ref()) {
            for (a, b) in ff.iter_mut().zip(nf) {
                for d in 0..3 {
                    a[d] += b[d];
                }
            }
        }
        for (f, n) in far_pot.iter_mut().zip(&near_pot) {
            *f += n;
        }
        let (occupancy_mean, occupancy_max) = bp.occupancy();
        Replayed {
            potentials: bp.binning.scatter(&far_pot),
            fields: far_field.map(|ff| bp.binning.scatter(&ff)),
            counts: ReplayCounts {
                p2o_flops,
                upward_flops: up.t1,
                downward_flops: down.t2 + down.t3,
                eval_flops,
                near_pairs: near.pair_interactions,
                occupancy_mean,
                occupancy_max,
            },
        }
    })
}

/// Best wall time of `batches` runs of `f`, in seconds.
fn best_of(batches: usize, mut f: impl FnMut()) -> f64 {
    (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn probe_matrix(len: usize, modulus: usize, scale: f64) -> Vec<f64> {
    (0..len).map(|i| (i % modulus) as f64 * scale).collect()
}

/// Rate of back-to-back `m×k · k×n` products, 2²⁵ multiply-adds to a
/// batch, best of 9 batches.
fn gemm_gflops(m: usize, k: usize, n: usize, budget: Budget) -> f64 {
    let reps = budget.reps((1 << 25) / (m * k * n) + 1);
    let a = probe_matrix(m * k, 97, 0.013);
    let b = probe_matrix(k * n, 89, 0.017);
    let mut c = vec![0.0; m * n];
    gemm_acc(m, k, n, &a, &b, &mut c);
    let t = best_of(budget.reps(9), || {
        for _ in 0..reps {
            gemm_acc(m, k, n, black_box(&a), black_box(&b), &mut c);
        }
    });
    black_box(&c);
    (reps as u64 * gemm_flops(m, k, n)) as f64 / t / 1e9
}

/// This host's single-thread GEMM peak in Gflop/s, measured in this run:
/// the best rate over several cache-resident square shapes, so the probe
/// measures the arithmetic units and not the memory system. It is the
/// denominator of every arithmetic efficiency.
pub fn gemm_peak_gflops(budget: Budget) -> f64 {
    [64usize, 96, 128, 192]
        .into_iter()
        .map(|n| gemm_gflops(n, n, n, budget))
        .fold(0.0, f64::max)
}

/// Single-thread rate of the translation-shaped product, a K×K matrix
/// against a K×2048 panel.
pub fn gemm_k_gflops(k: usize, budget: Budget) -> f64 {
    gemm_gflops(k, k, 2048, budget)
}

const BLOCK: usize = 256;

/// Coordinates of the probe's box pair: one axis of a target box at offset
/// `o`; the source box sits two units further along every axis.
fn block_axis(o: f64) -> Vec<f64> {
    (0..BLOCK)
        .map(|i| o + (i * 37 % 101) as f64 * 0.0097)
        .collect()
}

/// Million interactions per second of `exchange(i, s_out)`, one target
/// against the 256 sources, swept over the 256 targets of a cache-resident
/// box pair.
fn block_minter_s(budget: Budget, mut exchange: impl FnMut(usize, &mut [f64]) -> f64) -> f64 {
    let mut s_out = vec![0.0; BLOCK];
    let mut t_out = vec![0.0; BLOCK];
    let reps = budget.reps(64);
    let t = best_of(budget.reps(9), || {
        for _ in 0..reps {
            for (i, t) in t_out.iter_mut().enumerate() {
                *t += exchange(i, &mut s_out);
            }
        }
    });
    black_box((&t_out, &s_out));
    (reps * BLOCK * BLOCK) as f64 / t / 1e6
}

/// Single-thread peak of the f64 pairwise exchange kernel on one
/// cache-resident 256×256 box pair, in million interactions per second.
pub fn pairwise_peak_minter_s(budget: Budget) -> f64 {
    let kernel = Kernel::detect();
    let [tx, ty, tz, sx, sy, sz] = [0.0, 0.3, 0.6, 2.0, 2.3, 2.6].map(block_axis);
    let q = vec![1.0; BLOCK];
    block_minter_s(budget, |i, s_out| {
        exchange_with(
            kernel, tx[i], ty[i], tz[i], q[i], 0.0, &sx, &sy, &sz, &q, s_out,
        )
    })
}

/// The same for the f32 exchange kernel of the mixed-precision near field.
pub fn pairwise_f32_peak_minter_s(budget: Budget) -> f64 {
    let kernel = Kernel::detect();
    let [tx, ty, tz, sx, sy, sz] = [0.0, 0.3, 0.6, 2.0, 2.3, 2.6].map(|o| {
        block_axis(o)
            .iter()
            .map(|&x| x as f32)
            .collect::<Vec<f32>>()
    });
    let q = vec![1.0f32; BLOCK];
    block_minter_s(budget, |i, s_out| {
        f64::from(exchange_f32_with(
            kernel, tx[i], ty[i], tz[i], q[i], 0.0, &sx, &sy, &sz, &q, s_out,
        ))
    })
}

/// Seconds to build the traversal plan `evaluate` would build for `depth`,
/// and its size in bytes.
pub fn plan_build(fmm: &Fmm, depth: u32) -> (f64, usize) {
    let cfg = fmm.config();
    let t0 = Instant::now();
    let plan = TraversalPlan::build_with(depth, cfg.separation, cfg.resolve_kernel());
    let s = t0.elapsed().as_secs_f64();
    (s, black_box(plan).memory_bytes())
}

/// What one SPMD evaluation moved between ranks, from `EvalOutput.spmd`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredComm {
    pub messages: u64,
    pub bytes: u64,
    pub upward_bytes: u64,
    pub downward_bytes: u64,
    pub near_bytes: u64,
    pub flop_imbalance: f64,
}

const PHASE_UPWARD: usize = 2;
const PHASE_DOWNWARD: usize = 3;
const PHASE_NEAR: usize = 5;

pub fn measured_comm(report: &SpmdReport) -> MeasuredComm {
    let p = report.phases.phases();
    MeasuredComm {
        messages: p.iter().map(|x| x.messages).sum(),
        bytes: p.iter().map(|x| x.bytes).sum(),
        upward_bytes: p[PHASE_UPWARD].bytes,
        downward_bytes: p[PHASE_DOWNWARD].bytes,
        near_bytes: p[PHASE_NEAR].bytes,
        flop_imbalance: report.flop_imbalance(),
    }
}

/// What the machine model predicts the same evaluation moves, for the
/// uniform block layout, and what the in-process transport model says
/// moving it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedComm {
    pub messages: u64,
    pub bytes: u64,
    pub upward_bytes: u64,
    pub downward_bytes: u64,
    pub comm_s: f64,
}

pub fn predicted_comm(
    fmm: &Fmm,
    n: usize,
    depth: u32,
    report: &SpmdReport,
    forces: bool,
) -> PredictedComm {
    let k = fmm.k();
    let budget = communication_budget_with(
        &ProgramConfig {
            depth,
            k,
            m: fmm.config().m_trunc,
            particles_per_box: n as f64 / 8f64.powi(depth as i32),
            vu_grid: VuGrid::new(report.vu_dims),
            supernodes: fmm.config().supernodes,
            sort_miss_fraction: 1.0 - 1.0 / report.workers as f64,
            forces_near: forces,
        },
        None,
    );
    let bytes_of = |i: usize| predicted_bytes(&budget.phases[i].comm, k);
    let messages = budget
        .phases
        .iter()
        .map(|p| predicted_messages(&p.comm))
        .sum();
    let bytes = (0..budget.phases.len()).map(bytes_of).sum();
    PredictedComm {
        messages,
        bytes,
        upward_bytes: bytes_of(PHASE_UPWARD),
        downward_bytes: bytes_of(PHASE_DOWNWARD),
        comm_s: TransportModel::in_process().seconds(messages, bytes),
    }
}

/// Requests per second of one `evaluate_batch` over `systems`, and its
/// speed-up over evaluating the same systems one `evaluate` at a time.
/// Best of five each, after a warm call of both.
pub fn batch_speedup(
    fmm: &Fmm,
    systems: &[(Vec<[f64; 3]>, Vec<f64>)],
    budget: Budget,
) -> (f64, f64) {
    let requests: Vec<BatchRequest> = systems
        .iter()
        .map(|(p, q)| BatchRequest {
            positions: p,
            charges: q,
        })
        .collect();
    let solo = || {
        for (p, q) in systems {
            black_box(
                fmm.evaluate(p, q)
                    .expect("solo evaluate of a generated request"),
            );
        }
    };
    let batch = || {
        black_box(
            fmm.evaluate_batch(&requests)
                .expect("evaluate_batch of generated requests"),
        );
    };
    solo();
    batch();
    let t_solo = best_of(budget.reps(5), solo);
    let t_batch = best_of(budget.reps(5), batch);
    (systems.len() as f64 / t_batch, t_solo / t_batch)
}

/// Encode and decode throughput of the binary door's codec on `req`, in
/// MB of payload per second (best of 20 batches).
pub fn codec_mb_s(req: &EvalRequest, budget: Budget) -> (f64, f64) {
    let frame = encode_evaluate(req);
    let mb = frame.len() as f64 / 1e6;
    let reps = budget.reps(20);
    let enc = best_of(budget.reps(20), || {
        for _ in 0..reps {
            black_box(encode_evaluate(black_box(req)));
        }
    });
    let dec = best_of(budget.reps(20), || {
        for _ in 0..reps {
            black_box(decode_evaluate(black_box(&frame[1..])).expect("own frame decodes"));
        }
    });
    (reps as f64 * mb / enc, reps as f64 * mb / dec)
}

/// The server's own counters, read after the timed section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeCounters {
    pub mean_batch: f64,
    pub solo_fraction: f64,
    pub queue_depth_peak: u64,
    pub errors_total: u64,
    pub plan_builds: u64,
    pub plan_hits: u64,
}

pub fn serve_counters(server: &Server) -> ServeCounters {
    let m = &server.engine().metrics;
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let batches = load(&m.batches_total).max(1) as f64;
    let registry = server.engine().registry().stats();
    ServeCounters {
        mean_batch: load(&m.batched_requests_total) as f64 / batches,
        solo_fraction: load(&m.solo_batches_total) as f64 / batches,
        queue_depth_peak: load(&m.queue_depth_peak),
        errors_total: load(&m.errors_total),
        plan_builds: registry.plan_builds,
        plan_hits: registry.plan_hits,
    }
}
