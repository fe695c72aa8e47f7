//! **E9b — abstract communication/efficiency claims**: the whole-program
//! communication budget of the paper's two 100M-particle configurations,
//! assembled from the budget oracle's per-phase counting, the near field
//! priced as the paper's travelling accumulator (`fmm_bench::travel`).
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_budget`

use fmm_bench::machine::cost::CostModel;
use fmm_bench::travel::paper_budget;
use fmm_bench::util::header;
use fmm_machine::ProgramConfig;

fn show(name: &str, cfg: &ProgramConfig, cost: &CostModel) {
    let b = paper_budget(cfg);
    println!(
        "\n-- {} (depth {}, K = {}, {:.0}M particles, {} VUs, supernodes {}) --",
        name,
        cfg.depth,
        cfg.k,
        cfg.n_particles() / 1e6,
        cfg.vu_grid.len(),
        cfg.supernodes
    );
    println!(
        "{:<18} {:>12} {:>14} {:>12}",
        "phase", "comm (s)", "flops", "compute (s)"
    );
    for p in &b.phases {
        println!(
            "{:<18} {:>12.3} {:>14.3e} {:>12.3}",
            p.name,
            cost.time_s(&p.comm, b.config_k),
            p.compute_flops as f64,
            p.compute_flops as f64 * cost.flop_ns * 1e-9
        );
    }
    println!(
        "communication fraction: {:.1}%   efficiency (at 50% kernel efficiency): {:.1}%",
        100.0 * cost.comm_fraction(&b),
        100.0 * cost.efficiency(&b, cost.flop_ns / 2.0)
    );
}

fn main() {
    header("Whole-program communication budget (paper: comm 10–25%, efficiency ~35%)");
    let cost = CostModel::cm5e();
    show("D = 5", &ProgramConfig::paper_d5(), &cost);
    show("D = 14", &ProgramConfig::paper_d14(), &cost);
    println!(
        "\nThe D=5 budget reproduces the paper's communication share; the\n\
         D=14 one shows the *minimal* data motion for K=72 is compute-bound\n\
         (~2%) — the paper's 25% there includes CM runtime overheads beyond\n\
         minimal motion (whole-subgrid moves, per-call costs). See\n\
         EXPERIMENTS.md."
    );
}
