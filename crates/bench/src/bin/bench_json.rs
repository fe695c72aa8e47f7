//! Machine-readable SPMD reports: emits `BENCH_spmd.json` and
//! `BENCH_balance.json`.
//!
//! 1. **SPMD data motion** — the message-passing executor's measured
//!    per-phase messages/bytes against `fmm_machine::communication_budget`
//!    on the Table-4 configuration, plus wall-clock scaling over worker
//!    counts; written to `BENCH_spmd.json`.
//!
//! 2. **Load balance** — per-worker flop and busy-time spreads of the
//!    uniform block layout vs the cost-weighted partition on clustered
//!    distributions (Plummer, two-cluster) at p ∈ {2, 8}; written to
//!    `BENCH_balance.json`. The flop counters are deterministic, so
//!    `--check` gates them strictly: cost-weighted imbalance must stay
//!    under 10% at p = 8 where uniform exceeds 3x, with bitwise-identical
//!    outputs.
//!
//! Kernel, near-field, end-to-end and serving *times* are the business of
//! the repository benchmark (`benchmark/`, `BENCHMARK.json`), not of this
//! binary.
//!
//! JSON is written by hand — the harness has no serde dependency.
//!
//! Run: `cargo run --release -p fmm-bench --bin bench_json [--seeded|--check]`
//!
//! `--seeded` drops every wall-clock number: two runs produce
//! byte-identical `BENCH_spmd.json` and `BENCH_balance.json`, which CI
//! diffs to pin executor determinism.
//!
//! `--check` runs only the deterministic load-balance gate and writes
//! nothing.

use fmm_bench::workloads::{mixed_charges, uniform, unit_charges, Distribution};
use fmm_core::{Balance, Executor, Fmm, FmmConfig, SpmdReport};
use fmm_machine::{communication_budget, Counters, ProgramConfig, VuGrid};
use std::fmt::Write as _;

/// Minimal JSON object builder (strings, numbers, raw nested values).
#[derive(Default)]
struct Obj {
    body: String,
}

impl Obj {
    fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":{}", key, value);
        self
    }

    fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.field(key, format_args!("\"{}\"", value))
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn json_array(items: impl IntoIterator<Item = String>) -> String {
    let v: Vec<String> = items.into_iter().collect();
    format!("[{}]", v.join(","))
}

/// Predicted (logical messages, payload bytes) of one model phase: CSHIFT
/// invocations, router ops, and point-to-point sends each count one
/// message; `off_vu_boxes` / `broadcast_boxes` are K-box units of payload.
fn model_motion(c: &Counters, k: usize) -> (u64, u64) {
    (
        c.cshifts + c.sends + c.broadcast_stages,
        (c.off_vu_boxes + c.broadcast_boxes) * k as u64 * 8,
    )
}

/// The SPMD executor's measured data motion against the machine model, on
/// the Table-4 configuration, plus (when not `--seeded`) wall-clock
/// scaling over worker counts. Everything emitted under `--seeded` is a
/// pure function of the seed — byte-identical across runs.
fn bench_spmd(seeded: bool) -> String {
    fmm_spmd::install();
    let (depth, workers, n) = (4u32, 128usize, 16_384usize);
    let pts = uniform(n, 2026);
    let q = unit_charges(n);
    let fmm = Fmm::new(
        FmmConfig::order(3)
            .depth(depth)
            .executor(Executor::spmd(workers)),
    )
    .unwrap();
    let k = fmm.k();
    let out = fmm.evaluate(&pts, &q).unwrap();
    let report = out.spmd.expect("spmd report");
    let budget = communication_budget(&ProgramConfig {
        depth,
        k,
        m: fmm.config().m_trunc,
        particles_per_box: n as f64 / 8f64.powi(depth as i32),
        vu_grid: VuGrid::new(report.vu_dims),
        supernodes: false,
        sort_miss_fraction: 1.0 - 1.0 / workers as f64,
        forces_near: false,
    });

    let mut phases = Vec::new();
    for (pb, m) in budget.phases.iter().zip(&report.phases) {
        let (pm, pbytes) = model_motion(&pb.comm, k);
        println!(
            "spmd {:<16} messages {:>4} (model {:>4})   bytes {:>12} (model {:>12})",
            pb.name, m.messages, pm, m.bytes, pbytes
        );
        let mut o = Obj::default();
        o.str_field("name", pb.name)
            .field("measured_messages", m.messages)
            .field("predicted_messages", pm)
            .field("measured_bytes", m.bytes)
            .field("predicted_bytes", pbytes)
            .field("local_words", m.local_words);
        phases.push(o.finish());
    }
    let mut t4 = Obj::default();
    t4.field("depth", depth)
        .field("workers", workers)
        .field(
            "vu_dims",
            format_args!(
                "[{},{},{}]",
                report.vu_dims[0], report.vu_dims[1], report.vu_dims[2]
            ),
        )
        .field("n_particles", n)
        .field("k", k)
        .field("phases", json_array(phases));

    let mut root = Obj::default();
    root.field("seeded", seeded).field("table4", t4.finish());

    if !seeded {
        let sn = 60_000;
        let spts = uniform(sn, 4242);
        let sq = unit_charges(sn);
        let mut t1 = 0.0;
        let mut entries = Vec::new();
        for p in [1usize, 2, 4, 8] {
            let f = Fmm::new(FmmConfig::order(3).depth(4).executor(Executor::spmd(p))).unwrap();
            let t0 = std::time::Instant::now();
            f.evaluate(&spts, &sq).unwrap();
            let t = t0.elapsed().as_secs_f64();
            if p == 1 {
                t1 = t;
            }
            println!(
                "spmd scaling n={} depth=4  p={:<3} {:.1} ms  ({:.2}x)",
                sn,
                p,
                t * 1e3,
                t1 / t
            );
            let mut o = Obj::default();
            o.field("workers", p)
                .field("n_particles", sn)
                .field("seconds", format_args!("{:.6}", t))
                .field("speedup", format_args!("{:.3}", t1 / t));
            entries.push(o.finish());
        }
        root.field("scaling", json_array(entries));
    }
    root.finish()
}

/// One distribution × worker-count load-balance comparison, for the
/// `--check` gate.
struct BalanceCase {
    dist: Distribution,
    workers: usize,
    uniform_imbalance: f64,
    cost_weighted_imbalance: f64,
    bitwise_identical: bool,
}

/// Per-worker load spread, uniform block layout vs cost-weighted
/// partition, on the clustered distributions at p ∈ {2, 8} — written to
/// `BENCH_balance.json`. The flop counters (and the partition cuts) are
/// pure functions of the seed; busy wall-clock columns are added only
/// outside `--seeded` so the seeded file diffs byte-for-byte.
fn bench_balance(seeded: bool) -> (String, Vec<BalanceCase>) {
    fmm_spmd::install();
    let (depth, n) = (4u32, 32_768usize);
    let mut cases = Vec::new();
    let mut entries = Vec::new();
    for dist in [Distribution::Plummer, Distribution::TwoCluster] {
        let pts = dist.positions(n, 99);
        let q = mixed_charges(n, 100);
        for p in [2usize, 8] {
            let run = |bal: Balance| {
                Fmm::new(
                    FmmConfig::order(3)
                        .depth(depth)
                        .executor(Executor::spmd(p))
                        .balance(bal),
                )
                .unwrap()
                .evaluate(&pts, &q)
                .unwrap()
            };
            let uni = run(Balance::Uniform);
            let cw = run(Balance::CostWeighted);
            let bitwise = uni
                .potentials
                .iter()
                .zip(&cw.potentials)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            let side = |rep: &SpmdReport| {
                let mut o = Obj::default();
                o.field("flop_min", rep.worker_flops.iter().min().unwrap())
                    .field("flop_max", rep.worker_flops.iter().max().unwrap())
                    .field(
                        "flop_imbalance",
                        format_args!("{:.4}", rep.flop_imbalance()),
                    )
                    .field(
                        "worker_flops",
                        json_array(rep.worker_flops.iter().map(|f| f.to_string())),
                    );
                if let Some(cuts) = &rep.partition {
                    o.field(
                        "partition_cuts",
                        json_array(cuts.iter().map(|c| c.to_string())),
                    );
                }
                if !seeded {
                    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
                    o.field("busy_min_ms", ms(*rep.worker_busy_ns.iter().min().unwrap()))
                        .field("busy_max_ms", ms(*rep.worker_busy_ns.iter().max().unwrap()))
                        .field(
                            "busy_imbalance",
                            format_args!("{:.4}", rep.busy_imbalance()),
                        )
                        .field("wait_max_ms", ms(*rep.worker_wait_ns.iter().max().unwrap()));
                }
                o.finish()
            };
            let ru = uni.spmd.as_ref().unwrap();
            let rc = cw.spmd.as_ref().unwrap();
            println!(
                "balance {:<12} p={:<2} uniform flop imbalance {:>6.3}  cost-weighted {:>6.3}  bitwise {}",
                dist.name(),
                p,
                ru.flop_imbalance(),
                rc.flop_imbalance(),
                bitwise
            );
            let mut o = Obj::default();
            o.str_field("distribution", dist.name())
                .field("workers", p)
                .field("uniform", side(ru))
                .field("cost_weighted", side(rc))
                .field("bitwise_identical", bitwise);
            entries.push(o.finish());
            cases.push(BalanceCase {
                dist,
                workers: p,
                uniform_imbalance: ru.flop_imbalance(),
                cost_weighted_imbalance: rc.flop_imbalance(),
                bitwise_identical: bitwise,
            });
        }
    }
    let mut root = Obj::default();
    root.field("seeded", seeded)
        .field("n_particles", n)
        .field("depth", depth)
        .field("cases", json_array(entries));
    (root.finish(), cases)
}

/// The deterministic load-balance gate shared by `--check` and CI: at
/// p = 8 the cost-weighted partition must stay under 10% flop imbalance
/// on distributions where the uniform layout exceeds 3x max/mean, and
/// rebalancing must not change one bit of the output.
fn balance_failures(cases: &[BalanceCase]) -> Vec<String> {
    let mut failures = Vec::new();
    for c in cases {
        if !c.bitwise_identical {
            failures.push(format!(
                "{} p={}: cost-weighted output differs bitwise from uniform",
                c.dist.name(),
                c.workers
            ));
        }
        if c.workers == 8 {
            if c.uniform_imbalance <= 2.0 {
                failures.push(format!(
                    "{} p=8: uniform layout imbalance {:.3} no longer exceeds 3x max/mean",
                    c.dist.name(),
                    c.uniform_imbalance
                ));
            }
            if c.cost_weighted_imbalance >= 0.10 {
                failures.push(format!(
                    "{} p=8: cost-weighted flop imbalance {:.3} breaches the 10% bound",
                    c.dist.name(),
                    c.cost_weighted_imbalance
                ));
            }
        }
    }
    failures
}

fn main() {
    let seeded = std::env::args().any(|a| a == "--seeded");
    let check = std::env::args().any(|a| a == "--check");

    if check {
        // The load-balance gate is flop-counter based — deterministic, so
        // no tolerance applies.
        let (_, cases) = bench_balance(true);
        let failures = balance_failures(&cases);
        if failures.is_empty() {
            println!("\nbench --check: load balance within bounds");
        } else {
            eprintln!("\nbench --check: load balance out of bounds:");
            for f in &failures {
                eprintln!("  {}", f);
            }
            std::process::exit(1);
        }
        return;
    }

    let spmd = bench_spmd(seeded);
    std::fs::write("BENCH_spmd.json", &spmd).expect("write BENCH_spmd.json");
    println!("wrote BENCH_spmd.json");
    let (balance, _) = bench_balance(seeded);
    std::fs::write("BENCH_balance.json", &balance).expect("write BENCH_balance.json");
    println!("wrote BENCH_balance.json");
}
