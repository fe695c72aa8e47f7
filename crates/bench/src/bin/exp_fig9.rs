//! **E6 — Paper Fig. 9**: precomputing the 1331 T2 translation matrices —
//! (a) all-redundant vs parallel-compute + replicate as K varies on a
//! 256-node machine; (b) the compute and replicate components across
//! machine sizes (32/64/256 nodes).
//!
//! Paper: parallel+replicate is up to an order of magnitude faster; the
//! parallel compute time shrinks on larger machines while the replication
//! time (which dominates) grows only 10–20% per doubling, so the total
//! rises at most 62% from 32 to 256 nodes.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_fig9`

use fmm_bench::machine::cost::CostModel;
use fmm_bench::machine::replication::{precompute_cost, ReplicationStrategy};
use fmm_bench::util::{header, measured_build_table};
use fmm_core::TranslationSet;

const N_MAT: usize = 1331;

fn main() {
    let cost = CostModel::cm5e();

    header("Fig. 9(a) — 1331 T2 matrices on a 256-node (1024-VU) CM-5E model");
    println!(
        "{:>4} {:>3} {:>16} {:>16} {:>8}",
        "K", "M", "all-redundant", "par+replicate", "ratio"
    );
    for (k, m) in [(12usize, 3usize), (24, 4), (32, 4), (50, 5), (72, 8)] {
        let red = precompute_cost(
            N_MAT,
            k,
            m,
            1024,
            ReplicationStrategy::ComputeAllRedundant,
            0,
            &cost,
        );
        let rep = precompute_cost(
            N_MAT,
            k,
            m,
            1024,
            ReplicationStrategy::ComputeAndReplicate { group: None },
            N_MAT,
            &cost,
        );
        println!(
            "{:>4} {:>3} {:>15.2}s {:>15.2}s {:>8.1}",
            k,
            m,
            red.total_s(),
            rep.total_s(),
            red.total_s() / rep.total_s()
        );
    }

    header("Fig. 9(b) — compute vs replicate components across machine sizes");
    println!(
        "{:>6} {:>5} {:>4} {:>14} {:>14} {:>14}",
        "nodes", "VUs", "K", "compute (s)", "replicate (s)", "total (s)"
    );
    for (k, m) in [(12usize, 3usize), (72, 8)] {
        for nodes in [32usize, 64, 256] {
            let vus = nodes * 4;
            let rep = precompute_cost(
                N_MAT,
                k,
                m,
                vus,
                ReplicationStrategy::ComputeAndReplicate { group: None },
                N_MAT,
                &cost,
            );
            println!(
                "{:>6} {:>5} {:>4} {:>14.3} {:>14.3} {:>14.3}",
                nodes,
                vus,
                k,
                rep.compute_s,
                rep.replicate_s,
                rep.total_s()
            );
        }
        println!();
    }
    header(
        "Measured on this host, one core — TranslationSet::build: 1206 T2 + 16 T1/T3 stored, \
         one built per mirror orbit (model: 1331 on one VU)",
    );
    measured_build_table(N_MAT, |rule, m| {
        let ts = TranslationSet::build(rule, m, 1.6, 1.0, false);
        (ts.built(), ts.derived())
    });
    println!();
    println!(
        "Paper: compute-in-parallel shrinks with machine size; replication\n\
         dominates and grows mildly with machine size (their total grew ≤62%\n\
         from 32 to 256 nodes). Our pipelined-spread model keeps replication\n\
         flat in machine size — same ordering, milder growth; see\n\
         EXPERIMENTS.md for the comparison."
    );
}
