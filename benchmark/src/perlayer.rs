//! The traced pass: per-layer numbers from spans the benchmark records
//! around its own calls into each layer (`layers.rs`), next to the exact
//! counts the program reports about itself.
//!
//! Every run prints every per-layer metric. A layer the workload bypasses
//! reports 0 — no work done, no time spent — so a metric that reads 0 on
//! a workload is the statement that the workload does not exercise it.

use crate::e2e::{self, Bits, Budget, Problem};
use crate::inputs::{request_points, sample_indices};
use crate::layers::{self, ReplayCounts};
use crate::report::{median, percentile, Outcome};
use crate::serve::{self, Traffic};
use crate::trace::Tracer;
use crate::workloads::{nproc, Dist, Exec, Library, Serve, MEDIUM, SMALL};
use fmm_core::{Balance, EvalOutput, Executor, Fmm, FmmConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric with its unit, in the order they are printed.
/// `BENCHMARK.json` lists the same names; a unit test keeps them equal.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.gemm_peak_gflops", "Gflop/s"),
    ("linalg.gemm_k_gflops", "Gflop/s"),
    ("linalg.pairwise_peak_minter_s", "Minter/s"),
    ("linalg.pairwise_f32_peak_minter_s", "Minter/s"),
    ("core.sort.s", "s"),
    ("core.sort.particles_per_s", "1/s"),
    ("core.sort.leaf_occupancy_mean", "count"),
    ("core.sort.leaf_occupancy_max", "count"),
    ("core.p2o.s", "s"),
    ("core.p2o.flops", "flops"),
    ("core.upward.s", "s"),
    ("core.upward.flops", "flops"),
    ("core.downward.s", "s"),
    ("core.downward.flops", "flops"),
    ("core.downward.gemm_efficiency", "ratio"),
    ("core.eval.s", "s"),
    ("core.eval.flops", "flops"),
    ("core.near.s", "s"),
    ("core.near.pairs", "count"),
    ("core.near.minter_s", "Minter/s"),
    ("core.near.efficiency", "ratio"),
    ("core.total_flops", "flops"),
    ("core.arith_efficiency", "ratio"),
    ("core.traversal_share", "ratio"),
    ("core.replay_s", "s"),
    ("core.replay_over_eval", "ratio"),
    ("core.field_err_rms", "relative"),
    ("core.plan.build_s", "s"),
    ("core.plan.bytes", "bytes"),
    ("core.plan.builds", "count"),
    ("core.translations.build_s", "s"),
    ("core.executor.serial_eval_s", "s"),
    ("core.executor.speedup_vs_serial", "ratio"),
    ("core.executor.parallel_efficiency", "ratio"),
    ("spmd.messages", "count"),
    ("spmd.bytes", "bytes"),
    ("spmd.upward_bytes", "bytes"),
    ("spmd.downward_bytes", "bytes"),
    ("spmd.near_bytes", "bytes"),
    ("spmd.flop_imbalance", "ratio"),
    ("spmd.overhead_s", "s"),
    ("spmd.bytes_per_s", "bytes/s"),
    ("spmd.uniform_flop_imbalance", "ratio"),
    ("spmd.cw_flop_imbalance", "ratio"),
    ("spmd.cw_over_uniform_s", "ratio"),
    ("machine.predicted_messages", "count"),
    ("machine.predicted_bytes", "bytes"),
    ("machine.predicted_upward_bytes", "bytes"),
    ("machine.predicted_downward_bytes", "bytes"),
    ("machine.predicted_comm_s", "s"),
    ("machine.model_over_measured", "ratio"),
    ("core.batch.r64_req_per_s", "1/s"),
    ("core.batch.r64_speedup", "ratio"),
    ("serve.protocol.encode_mb_s", "MB/s"),
    ("serve.protocol.decode_mb_s", "MB/s"),
    ("serve.small_p50_ms", "ms"),
    ("serve.small_p99_ms", "ms"),
    ("serve.medium_p50_ms", "ms"),
    ("serve.medium_p99_ms", "ms"),
    ("serve.batcher.mean_batch", "count"),
    ("serve.batcher.solo_fraction", "ratio"),
    ("serve.batcher.queue_depth_peak", "count"),
    ("serve.errors_total", "count"),
    ("serve.registry.plan_builds", "count"),
    ("serve.registry.plan_hits", "count"),
    ("serve.engine.small_solo_ms", "ms"),
    ("serve.engine.medium_solo_ms", "ms"),
    ("serve.overhead_small_ms", "ms"),
    ("serve.overhead_medium_ms", "ms"),
    ("trace.overhead_fraction", "ratio"),
];

/// The per-layer values of one run; what is never set prints as 0.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn emit(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.push(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// A short untraced baseline of the entry point: its median call time.
fn baseline(budget: Budget) -> Budget {
    Budget {
        seconds: 0.0,
        min_reps: budget.min_reps.min(5),
        warmups: budget.warmups.min(1),
        ..budget
    }
}

fn write_trace(tr: &Tracer, workload: &str, out_dir: &Path, out: &mut Outcome) {
    let path = out_dir.join(format!("trace_{workload}.json"));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, tr.chrome_trace(workload)));
    out.check(written.is_ok(), || {
        format!("writing {}: {:?}", path.display(), written.as_ref().err())
    });
    println!("  trace: {} ({} spans)", path.display(), tr.spans.len());
}

/// The single-thread peaks of this run and the `linalg` metrics.
struct Peaks {
    gemm_gflops: f64,
    pairwise_minter_s: f64,
    pairwise_f32_minter_s: f64,
}

fn probe_linalg(k: usize, budget: Budget, v: &mut Values) -> Peaks {
    let peaks = Peaks {
        gemm_gflops: layers::gemm_peak_gflops(budget),
        pairwise_minter_s: layers::pairwise_peak_minter_s(budget),
        pairwise_f32_minter_s: layers::pairwise_f32_peak_minter_s(budget),
    };
    v.set("linalg.gemm_peak_gflops", peaks.gemm_gflops);
    v.set("linalg.gemm_k_gflops", layers::gemm_k_gflops(k, budget));
    v.set("linalg.pairwise_peak_minter_s", peaks.pairwise_minter_s);
    v.set(
        "linalg.pairwise_f32_peak_minter_s",
        peaks.pairwise_f32_minter_s,
    );
    peaks
}

/// Replay the problem through the unfused phases `n_reps` times, assert
/// each assembly is bitwise equal to `want`, and report the median self
/// time and the exact counts of every `core` phase. Returns the median
/// replay time.
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    forces: bool,
    want: Bits,
    n_reps: u32,
    peaks: &Peaks,
    tr: &mut Tracer,
    v: &mut Values,
    out: &mut Outcome,
) -> f64 {
    let mut counts: Option<ReplayCounts> = None;
    for rep in 0..n_reps {
        let r = layers::replay(fmm, positions, charges, forces, tr, rep);
        out.check(e2e::same_bits(r.bits(), want), || {
            "unfused replay differs bitwise from evaluate".into()
        });
        out.check(counts.is_none_or(|c| c == r.counts), || {
            "replay counts differ between repetitions".into()
        });
        counts = Some(r.counts);
    }
    let Some(c) = counts else { return 0.0 };
    let self_s = |name: &str| median(&tr.self_times(name));
    let (sort, p2o, up, down, eval, near) = (
        self_s("core.sort"),
        self_s("core.p2o"),
        self_s("core.upward"),
        self_s("core.downward"),
        self_s("core.eval"),
        self_s("core.near"),
    );
    let replay_s = median(&tr.durations("core.replay"));
    // The replay runs on the instance's executor: rayon threads, or one.
    let threads = if fmm.config().parallel { nproc() } else { 1 } as f64;
    let pair_peak = if fmm.config().precision == fmm_core::Precision::Mixed {
        peaks.pairwise_f32_minter_s
    } else {
        peaks.pairwise_minter_s
    };
    v.set("core.sort.s", sort);
    v.set("core.sort.particles_per_s", positions.len() as f64 / sort);
    v.set("core.sort.leaf_occupancy_mean", c.occupancy_mean);
    v.set("core.sort.leaf_occupancy_max", c.occupancy_max as f64);
    v.set("core.p2o.s", p2o);
    v.set("core.p2o.flops", c.p2o_flops as f64);
    v.set("core.upward.s", up);
    v.set("core.upward.flops", c.upward_flops as f64);
    v.set("core.downward.s", down);
    v.set("core.downward.flops", c.downward_flops as f64);
    v.set(
        "core.downward.gemm_efficiency",
        c.downward_flops as f64 / down / (threads * peaks.gemm_gflops * 1e9),
    );
    v.set("core.eval.s", eval);
    v.set("core.eval.flops", c.eval_flops as f64);
    v.set("core.near.s", near);
    v.set("core.near.pairs", c.near_pairs as f64);
    v.set("core.near.minter_s", c.near_pairs as f64 / near / 1e6);
    v.set(
        "core.near.efficiency",
        c.near_pairs as f64 / near / (threads * pair_peak * 1e6),
    );
    v.set("core.traversal_share", (p2o + up + down + eval) / replay_s);
    v.set("core.replay_s", replay_s);
    replay_s
}

/// `core.plan.*`, `core.translations.build_s`.
fn plan_layers(spec: &Library, problem: &Problem, n_reps: u32, v: &mut Values, out: &mut Outcome) {
    let (build_s, bytes) = layers::plan_build(&problem.fmm, problem.depth);
    v.set("core.plan.build_s", build_s);
    v.set("core.plan.bytes", bytes as f64);
    v.set(
        "core.plan.builds",
        e2e::check_plan_builds(problem, out) as f64,
    );
    let new_s: Vec<f64> = (0..n_reps)
        .map(|_| {
            let t0 = Instant::now();
            let f = Fmm::new(spec.config());
            let s = t0.elapsed().as_secs_f64();
            out.check(f.is_ok(), || "Fmm::new failed".into());
            s
        })
        .collect();
    v.set("core.translations.build_s", median(&new_s));
}

/// Median time of `n_reps` calls, each under a span, and the last output.
#[allow(clippy::too_many_arguments)]
fn spanned_calls(
    span: &'static str,
    fmm: &Fmm,
    problem: &Problem,
    forces: bool,
    n_reps: u32,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (f64, Option<EvalOutput>) {
    let mut last = None;
    for rep in 0..n_reps {
        let r = tr.span(span, rep, |_| {
            e2e::call(fmm, &problem.positions, &problem.charges, forces)
        });
        out.check(r.is_ok(), || {
            format!("{span} failed: {:?}", r.as_ref().err())
        });
        last = r.ok();
    }
    (median(&tr.durations(span)), last)
}

/// The plain single-thread baseline of the same problem, and what the
/// workload's executor makes of its threads.
#[allow(clippy::too_many_arguments)]
fn executor_layers(
    spec: &Library,
    problem: &Problem,
    eval_s: f64,
    n_reps: u32,
    tr: &mut Tracer,
    v: &mut Values,
    out: &mut Outcome,
) -> f64 {
    let Ok(serial) = Fmm::new(spec.config().executor(Executor::Serial)) else {
        out.check(false, || "Fmm::new(Executor::Serial) failed".into());
        return 0.0;
    };
    // One untimed call builds the serial instance's plan.
    let warm = e2e::call(&serial, &problem.positions, &problem.charges, spec.forces);
    out.check(warm.is_ok(), || "serial warm-up failed".into());
    let (serial_s, _) = spanned_calls(
        "core.executor.serial_evaluate",
        &serial,
        problem,
        spec.forces,
        n_reps,
        tr,
        out,
    );
    v.set("core.executor.serial_eval_s", serial_s);
    // With more threads than processors a speed-up says nothing about the
    // executor; both ratios then stay 0, which reads "unresolved".
    if spec.threads() <= nproc() {
        v.set("core.executor.speedup_vs_serial", serial_s / eval_s);
        v.set(
            "core.executor.parallel_efficiency",
            serial_s / eval_s / spec.threads() as f64,
        );
    }
    serial_s
}

/// Measured against predicted data motion of the SPMD workload.
fn spmd_layers(
    spec: &Library,
    problem: &Problem,
    got: &EvalOutput,
    eval_s: f64,
    serial_s: f64,
    v: &mut Values,
    out: &mut Outcome,
) {
    let Some(report) = got.spmd.as_ref() else {
        out.check(false, || "SPMD evaluation returned no SpmdReport".into());
        return;
    };
    let m = layers::measured_comm(report);
    let p = layers::predicted_comm(&problem.fmm, spec.n, problem.depth, report, spec.forces);
    v.set("spmd.messages", m.messages as f64);
    v.set("spmd.bytes", m.bytes as f64);
    v.set("spmd.upward_bytes", m.upward_bytes as f64);
    v.set("spmd.downward_bytes", m.downward_bytes as f64);
    v.set("spmd.near_bytes", m.near_bytes as f64);
    v.set("spmd.flop_imbalance", m.flop_imbalance);
    v.set("machine.predicted_messages", p.messages as f64);
    v.set("machine.predicted_bytes", p.bytes as f64);
    v.set("machine.predicted_upward_bytes", p.upward_bytes as f64);
    v.set("machine.predicted_downward_bytes", p.downward_bytes as f64);
    v.set("machine.predicted_comm_s", p.comm_s);
    out.check(
        m.upward_bytes == p.upward_bytes && m.downward_bytes == p.downward_bytes,
        || {
            format!(
                "traversal bytes measured {}/{} differ from predicted {}/{}",
                m.upward_bytes, m.downward_bytes, p.upward_bytes, p.downward_bytes
            )
        },
    );
    // What the executor and fabric add to a perfectly split serial run.
    let overhead_s = eval_s - serial_s / report.workers as f64;
    v.set("spmd.overhead_s", overhead_s);
    if overhead_s > 0.0 {
        v.set("spmd.bytes_per_s", m.bytes as f64 / overhead_s);
        v.set("machine.model_over_measured", p.comm_s / overhead_s);
    }
}

/// Uniform block layout against the cost-weighted partition at p = 2 on a
/// clustered input: what balancing flops buys in time.
fn balance_layers(
    spec: &Library,
    problem: &Problem,
    n_reps: u32,
    tr: &mut Tracer,
    v: &mut Values,
    out: &mut Outcome,
) {
    fmm_spmd::install();
    let mut run = |balance: Balance, span: &'static str| -> Option<(f64, f64)> {
        let fmm = Fmm::new(spec.config().executor(Executor::spmd(2)).balance(balance)).ok()?;
        e2e::call(&fmm, &problem.positions, &problem.charges, spec.forces).ok()?;
        let (s, last) = spanned_calls(span, &fmm, problem, spec.forces, n_reps, tr, out);
        let imbalance = layers::measured_comm(last?.spmd.as_ref()?).flop_imbalance;
        Some((s, imbalance))
    };
    let uniform = run(Balance::Uniform, "spmd.uniform_evaluate");
    let weighted = run(Balance::CostWeighted, "spmd.cost_weighted_evaluate");
    out.check(uniform.is_some() && weighted.is_some(), || {
        "SPMD balance comparison failed to evaluate".into()
    });
    if let (Some((u_s, u_imb)), Some((w_s, w_imb))) = (uniform, weighted) {
        v.set("spmd.uniform_flop_imbalance", u_imb);
        v.set("spmd.cw_flop_imbalance", w_imb);
        v.set("spmd.cw_over_uniform_s", w_s / u_s);
    }
}

/// The per-layer metrics of a library workload.
pub fn trace_library(
    workload: &str,
    spec: &Library,
    seed: u64,
    budget: Budget,
    out_dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let mut v = Values::default();
    let mut tr = Tracer::new(Instant::now(), 0);
    // Every traced call is repeated three times; the median is reported.
    let n_reps = budget.reps(3) as u32;
    let Some(problem) = e2e::set_up(spec, seed, &mut out) else {
        return out;
    };

    // Untraced reference, then the same entry point under a span: the
    // difference is what tracing costs.
    let (times, _, first) = e2e::timed_calls(&problem, spec.forces, baseline(budget), &mut out);
    let eval_s = median(&times);
    let Some(first) = first else { return out };
    let (spanned_s, _) = spanned_calls(
        "evaluate",
        &problem.fmm,
        &problem,
        spec.forces,
        n_reps,
        &mut tr,
        &mut out,
    );
    v.set("trace.overhead_fraction", spanned_s / eval_s - 1.0);

    let peaks = probe_linalg(problem.fmm.k(), budget, &mut v);

    // Rank-internal phases of the SPMD executor cannot be reached from
    // outside, so its replay is of the same problem on the default
    // executor; every executor gives the same bits.
    let shared_memory;
    let replay_fmm = if spec.exec == Exec::Spmd2 {
        let built = Fmm::new(spec.config().executor(Executor::Rayon));
        out.check(built.is_ok(), || "Fmm::new for the replay failed".into());
        let Ok(built) = built else { return out };
        shared_memory = built;
        &shared_memory
    } else {
        &problem.fmm
    };
    let replay_s = replay_layers(
        replay_fmm,
        &problem.positions,
        &problem.charges,
        spec.forces,
        (&first).into(),
        n_reps,
        &peaks,
        &mut tr,
        &mut v,
        &mut out,
    );
    v.set("core.replay_over_eval", replay_s / eval_s);

    let cores = spec.threads().min(nproc()) as f64;
    let total_flops = first.profile.total_flops();
    let arith = total_flops as f64 / eval_s / (cores * peaks.gemm_gflops * 1e9);
    v.set("core.total_flops", total_flops as f64);
    v.set("core.arith_efficiency", arith);
    // A single unoptimised pass of the unit test measures nothing.
    out.check(arith <= 1.0 || budget.smoke, || {
        format!("core.arith_efficiency {arith:.3} above 1: flop counter or peak probe is wrong")
    });

    if let Some(fields) = first.fields.as_deref() {
        let sample = sample_indices(spec.n, spec.samples, seed);
        let err = e2e::field_error(fields, &problem.positions, &problem.charges, &sample);
        v.set("core.field_err_rms", err);
        out.check(err <= spec.field_err_bound, || {
            format!(
                "core.field_err_rms {err:.3e} above the bound {:.3e}",
                spec.field_err_bound
            )
        });
    }

    let serial_s = executor_layers(spec, &problem, eval_s, n_reps, &mut tr, &mut v, &mut out);
    if spec.exec == Exec::Spmd2 {
        spmd_layers(spec, &problem, &first, eval_s, serial_s, &mut v, &mut out);
    }
    if spec.dist == Dist::Plummer {
        balance_layers(spec, &problem, n_reps, &mut tr, &mut v, &mut out);
    }
    plan_layers(spec, &problem, n_reps, &mut v, &mut out);

    write_trace(&tr, workload, out_dir, &mut out);
    v.emit(&mut out);
    out
}

/// Median solo `evaluate*` time in ms over a class's canned requests, each
/// under a span: what the engine alone costs for that class.
fn solo_ms(
    spec: &Serve,
    traffic: &Traffic,
    class: usize,
    span: &'static str,
    budget: Budget,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> f64 {
    let c = &spec.classes[class];
    let Ok(fmm) = Fmm::new(FmmConfig::order(c.order).depth(c.depth)) else {
        out.check(false, || "Fmm::new for solo timing failed".into());
        return 0.0;
    };
    for (rep, canned) in traffic.pools[0][class]
        .iter()
        .cycle()
        .take(1 + budget.reps(32))
        .enumerate()
    {
        let req = &canned.request;
        let r = tr.span(span, rep as u32, |_| {
            e2e::call(&fmm, &req.positions, &req.charges, c.forces)
        });
        out.check(r.is_ok(), || "solo evaluate failed".into());
    }
    // The first call built the plan.
    median(&tr.durations(span)[1..]) * 1e3
}

/// The per-layer metrics of the served workload.
pub fn trace_serve(
    workload: &str,
    spec: &Serve,
    seed: u64,
    budget: Budget,
    out_dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let mut v = Values::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 0);
    // Every traced call is repeated three times; the median is reported.
    let n_reps = budget.reps(3) as u32;
    let traffic = Traffic::build(spec, seed, &mut out);
    if !out.correct() {
        return out;
    }
    let started = serve::start_server(&traffic, &mut out);
    out.check(started.is_ok(), || {
        format!("server start failed: {:?}", started.as_ref().err())
    });
    let Ok((server, _)) = started else { return out };

    // A short untraced section, then the counted section with client-side
    // spans; the small-class medians of the two give the tracing overhead.
    let counted = |requests: usize| Budget {
        seconds: 0.0,
        min_reps: requests,
        warmups: 0,
        ..budget
    };
    let untraced_requests = (spec.traced_requests / 6).max(4);
    let addr = server.local_addr();
    let untraced = serve::run_mix(
        addr,
        &traffic,
        spec.warmup,
        counted(untraced_requests),
        None,
    );
    let traced = serve::run_mix(
        addr,
        &traffic,
        0,
        counted(spec.traced_requests),
        Some(epoch),
    );
    let counters = layers::serve_counters(&server);
    serve::stop_server(server);
    serve::count_mix(&untraced, &mut out);
    serve::count_mix(&traced, &mut out);
    if traced.latencies.iter().any(Vec::is_empty) || untraced.latencies[SMALL].is_empty() {
        return out;
    }
    for lane in traced.tracers {
        tr.absorb(lane);
    }

    let ms = |class: usize, p: f64| percentile(&traced.latencies[class], p) * 1e3;
    let (small_p50, medium_p50) = (ms(SMALL, 50.0), ms(MEDIUM, 50.0));
    v.set("serve.small_p50_ms", small_p50);
    v.set("serve.small_p99_ms", ms(SMALL, 99.0));
    v.set("serve.medium_p50_ms", medium_p50);
    v.set("serve.medium_p99_ms", ms(MEDIUM, 99.0));
    v.set(
        "trace.overhead_fraction",
        small_p50 / (median(&untraced.latencies[SMALL]) * 1e3) - 1.0,
    );

    v.set("serve.batcher.mean_batch", counters.mean_batch);
    v.set("serve.batcher.solo_fraction", counters.solo_fraction);
    v.set(
        "serve.batcher.queue_depth_peak",
        counters.queue_depth_peak as f64,
    );
    v.set("serve.errors_total", counters.errors_total as f64);
    v.set("serve.registry.plan_builds", counters.plan_builds as f64);
    v.set("serve.registry.plan_hits", counters.plan_hits as f64);
    serve::check_counters(spec, &counters, &mut out);

    // The same requests with no server: class latency minus this is what
    // the window, socket, codec and queue add.
    let small_solo = solo_ms(
        spec,
        &traffic,
        SMALL,
        "serve.engine.solo_small",
        budget,
        &mut tr,
        &mut out,
    );
    let medium_solo = solo_ms(
        spec,
        &traffic,
        MEDIUM,
        "serve.engine.solo_medium",
        budget,
        &mut tr,
        &mut out,
    );
    v.set("serve.engine.small_solo_ms", small_solo);
    v.set("serve.engine.medium_solo_ms", medium_solo);
    v.set("serve.overhead_small_ms", small_p50 - small_solo);
    v.set("serve.overhead_medium_ms", medium_p50 - medium_solo);

    let medium = &traffic.pools[0][MEDIUM][0];
    let (encode, decode) = layers::codec_mb_s(&medium.request, budget);
    v.set("serve.protocol.encode_mb_s", encode);
    v.set("serve.protocol.decode_mb_s", decode);

    // Coalescing at its best: 64 small requests as one batch.
    let small = &spec.classes[SMALL];
    if let Ok(fmm) = Fmm::new(FmmConfig::order(small.order).depth(small.depth)) {
        let systems: Vec<_> = (0..budget.reps(64) as u64)
            .map(|i| (request_points(small.n, seed, 99, 0, i), vec![1.0; small.n]))
            .collect();
        let (req_per_s, speedup) = layers::batch_speedup(&fmm, &systems, budget);
        v.set("core.batch.r64_req_per_s", req_per_s);
        v.set("core.batch.r64_speedup", speedup);
    }

    // What the engine does for the medium class, layer by layer; the
    // replay must reproduce the bits the server was held to.
    let class = &spec.classes[MEDIUM];
    let request = &medium.request;
    let solo = Fmm::new(FmmConfig::order(class.order).depth(class.depth)).and_then(|fmm| {
        let first = e2e::call(&fmm, &request.positions, &request.charges, class.forces)?;
        Ok((fmm, first))
    });
    out.check(solo.is_ok(), || {
        format!("medium solo evaluate failed: {:?}", solo.as_ref().err())
    });
    if let Ok((fmm, first)) = solo {
        let peaks = probe_linalg(fmm.k(), budget, &mut v);
        let replay_s = replay_layers(
            &fmm,
            &request.positions,
            &request.charges,
            class.forces,
            medium.bits(),
            n_reps,
            &peaks,
            &mut tr,
            &mut v,
            &mut out,
        );
        v.set("core.replay_over_eval", replay_s / (medium_solo * 1e-3));
        v.set("core.total_flops", first.profile.total_flops() as f64);
    }

    write_trace(&tr, workload, out_dir, &mut out);
    v.emit(&mut out);
    out
}
