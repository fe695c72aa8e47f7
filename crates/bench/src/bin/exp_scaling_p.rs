//! **E9 — §4 / abstract parallel-scaling claim**: "the speed of the code
//! scales linearly with the number of processors", with communication
//! "about 10–25%" of the traversal.
//!
//! Part 1 measures rayon speedup over 1..ncpu threads at fixed N (the
//! shared-memory analogue of the paper's processor scaling). Part 2 runs
//! the *real* message-passing executor (`fmm-spmd`) over worker counts —
//! actual data motion through channels, not a simulation. Part 3 uses
//! the machine simulator to report the communication share of the
//! traversal on CM-5E-like configurations, reproducing the 10–25% claim.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_scaling_p [n]`

use fmm_bench::machine::ghost::{fetch, FetchStrategy};
use fmm_bench::machine::{cost::CostModel, grid::DistGrid};
use fmm_bench::util::{header, time_s};
use fmm_bench::workloads::{uniform, unit_charges};
use fmm_core::{Executor, Fmm, FmmConfig};
use fmm_machine::{BlockLayout, Counters, VuGrid};
use fmm_tree::{interactive_field_union, Separation};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000);

    header("Scaling in P — rayon threads on one host");
    let positions = uniform(n, 4242);
    let charges = unit_charges(n);
    let ncpu = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    println!("N = {}, host cores: {}", n, ncpu);
    println!(
        "{:>8} {:>10} {:>9} {:>11}",
        "threads", "time (s)", "speedup", "efficiency"
    );
    let mut t1 = 0.0;
    let mut threads = 1;
    while threads <= ncpu {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let fmm = Fmm::new(FmmConfig::order(5)).unwrap();
        let (t, _) = pool.install(|| time_s(|| fmm.evaluate(&positions, &charges).unwrap()));
        if threads == 1 {
            t1 = t;
        }
        println!(
            "{:>8} {:>10.3} {:>9.2} {:>10.1}%",
            threads,
            t,
            t1 / t,
            100.0 * t1 / t / threads as f64
        );
        threads *= 2;
    }

    header("Scaling in P — SPMD message-passing executor");
    fmm_spmd::install();
    // The SPMD runs use a smaller N: every inter-worker datum really
    // crosses a channel, and the point here is speedup shape + measured
    // traffic, not peak throughput.
    let sn = (n / 8).max(10_000);
    let spts = uniform(sn, 4242);
    let sq = unit_charges(sn);
    println!("N = {}, executor = Executor::spmd(p)", sn);
    println!(
        "{:>8} {:>10} {:>9} {:>11} {:>14} {:>12}",
        "workers", "time (s)", "speedup", "efficiency", "msgs (total)", "MB moved"
    );
    let mut ts1 = 0.0;
    let mut p = 1;
    while p <= 8 {
        let fmm = Fmm::new(FmmConfig::order(5).executor(Executor::spmd(p))).unwrap();
        let (t, out) = time_s(|| fmm.evaluate(&spts, &sq).unwrap());
        if p == 1 {
            ts1 = t;
        }
        let rep = out.spmd.expect("spmd report");
        let msgs: u64 = rep.phases.iter().map(|ph| ph.messages).sum();
        let bytes: u64 = rep.phases.iter().map(|ph| ph.bytes).sum();
        println!(
            "{:>8} {:>10.3} {:>9.2} {:>10.1}% {:>14} {:>12.2}",
            p,
            t,
            ts1 / t,
            100.0 * ts1 / t / p as f64,
            msgs,
            bytes as f64 / 1e6
        );
        p *= 2;
    }

    header("Communication share of the traversal (simulator, per level)");
    // A 256-node (1024-VU) machine at the paper's 100M-particle depth-8
    // hierarchy: level 8 has 256³ boxes → 16³ subgrids; level 7 → 8³; etc.
    let cost = CostModel::cm5e();
    let k = 12;
    println!(
        "{:>6} {:>10} {:>9} {:>13} {:>13} {:>8}",
        "level", "subgrid", "T2 flops", "comm (s)", "compute (s)", "comm %"
    );
    for (level, sub) in [(8u32, 16usize), (7, 8), (6, 4)] {
        let vu = VuGrid::new([16, 8, 8]); // 1024 VUs
        let layout = BlockLayout::new([16 * sub, 8 * sub, 8 * sub], vu);
        let grid = DistGrid::from_fn(layout, 1, |_, _| 0.0);
        let r = fetch(
            &grid,
            FetchStrategy::LinearizedAliased,
            &interactive_field_union(Separation::Two),
        );
        let comm = cost.time_s(&r.counters, k);
        // Per-VU T2 compute: boxes_per_vu × 875 × 2K² flops.
        let t2_flops = layout.boxes_per_vu() as u64 * 875 * 2 * (k * k) as u64;
        let compute = cost.time_s(
            &Counters {
                flops: t2_flops,
                ..Default::default()
            },
            k,
        );
        println!(
            "{:>6} {:>7}³ {:>10.2e} {:>13.4} {:>13.4} {:>7.1}%",
            level,
            sub,
            t2_flops as f64,
            comm,
            compute,
            100.0 * comm / (comm + compute)
        );
    }
    println!(
        "\nPaper: communication is ~12% of traversal time for K=12 (depth 8)\n\
         and ~25% for K=72 (depth 7); overall communication 10–25%. The\n\
         simulator shows the same regime: small at deep levels (large\n\
         subgrids), growing as subgrids shrink toward the root."
    );
}
