//! **E5 — Paper Fig. 8**: precomputing the eight T1 (T3) translation
//! matrices — compute on every VU vs compute in parallel + replicate,
//! with and without grouping into eight-VU groups, as K varies.
//!
//! Paper: compute+replicate costs 66%→24% of all-redundant as K goes
//! 12→72; grouping cuts the replication by 1.75×→1.26×.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_fig8`

use fmm_bench::machine::cost::CostModel;
use fmm_bench::machine::replication::{precompute_cost, ReplicationStrategy};
use fmm_bench::util::{header, measured_build_table};
use fmm_core::TranslationSet;

fn main() {
    header("Fig. 8 — computation vs replication for the 8 T1/T3 matrices (1024 VUs)");
    let n_vus = 1024;
    let n_mat = 8;
    let cost = CostModel::cm5e();
    println!(
        "{:>4} {:>3} {:>14} {:>14} {:>14} {:>16} {:>16}",
        "K",
        "M",
        "all-redundant",
        "par+replicate",
        "par+rep(grp 8)",
        "rep share(all)",
        "rep share(grp)"
    );
    for (k, m) in [(12usize, 3usize), (24, 4), (32, 4), (50, 5), (72, 8)] {
        let red = precompute_cost(
            n_mat,
            k,
            m,
            n_vus,
            ReplicationStrategy::ComputeAllRedundant,
            0,
            &cost,
        );
        let rep = precompute_cost(
            n_mat,
            k,
            m,
            n_vus,
            ReplicationStrategy::ComputeAndReplicate { group: None },
            n_mat,
            &cost,
        );
        let grp = precompute_cost(
            n_mat,
            k,
            m,
            n_vus,
            ReplicationStrategy::ComputeAndReplicate { group: Some(8) },
            n_mat,
            &cost,
        );
        println!(
            "{:>4} {:>3} {:>13.2}ms {:>13.2}ms {:>13.2}ms {:>15.0}% {:>15.0}%",
            k,
            m,
            red.total_s() * 1e3,
            rep.total_s() * 1e3,
            grp.total_s() * 1e3,
            100.0 * rep.replicate_s / rep.total_s(),
            100.0 * grp.replicate_s / grp.total_s()
        );
    }
    header(
        "Measured on this host, one core — the 8 T1 + 8 T3 matrices, one pair built per \
         mirror orbit of the octants (model: 16 on one VU)",
    );
    measured_build_table(16, |rule, m| {
        let (t1t, t3t, built) = TranslationSet::build_t1_t3(rule, m, 1.6, 1.0);
        (built, t1t.len() + t3t.len() - built)
    });
    println!(
        "\nPaper: parallel-compute+replicate costs 66%→24% of the all-redundant\n\
         scheme as K grows 12→72; grouping (8 VUs) reduces the replication\n\
         cost by 1.75×→1.26× (latency-dominated at small K, bandwidth at large)."
    );
}
