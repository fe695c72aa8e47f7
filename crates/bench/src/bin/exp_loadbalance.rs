//! **E14 — §3.5 load balance of the non-adaptive method**: the box work
//! is perfectly balanced by construction; the particle work (P2O,
//! evaluation, near field) is at the mercy of the distribution.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_loadbalance`

use fmm_bench::balance::analyze;
use fmm_bench::sort::CoordinateSortKey;
use fmm_bench::util::header;
use fmm_bench::workloads::{clustered, jittered_grid, uniform};
use fmm_tree::{assign_boxes, bin_particles, Domain};

fn main() {
    header("Load balance of the non-adaptive decomposition (§3.5)");
    let n = 262_144;
    let level = 5; // 32³ leaf boxes over 128 VUs
    let vu_grid = [8u32, 4, 4];
    println!(
        "N = {}, level {} (32³ boxes), 128 VUs ({}×{}×{} grid)\n",
        n, level, vu_grid[0], vu_grid[1], vu_grid[2]
    );
    println!(
        "{:<26} {:>14} {:>14} {:>18}",
        "distribution", "particle imbal", "near-pair imbal", "near eff. bound"
    );
    let cases: [(&str, Vec<[f64; 3]>); 4] = [
        ("uniform", uniform(n, 41)),
        ("jittered grid (j=0.5)", jittered_grid(64, 0.5, 42)),
        ("jittered grid (j=2.0)", jittered_grid(64, 2.0, 43)),
        ("clustered (Plummer-like)", clustered(n, 44)),
    ];
    let domain = Domain::unit();
    let layout = CoordinateSortKey::for_vu_grid(level, vu_grid);
    for (name, pts) in cases {
        let ids = assign_boxes(&pts, &domain, level);
        let binning = bin_particles(&ids, 1 << (3 * level));
        let lb = analyze(&binning, level, layout);
        println!(
            "{:<26} {:>13.2}× {:>13.2}× {:>17.1}%",
            name,
            lb.particle_imbalance(),
            lb.near_imbalance(),
            100.0 * lb.near_efficiency_bound()
        );
    }
    println!(
        "\nThe paper's method is explicitly non-adaptive: box work (the\n\
         traversal) is perfectly balanced at every level, while particle\n\
         work tracks the distribution — fine for the uniform and\n\
         near-uniform systems all its measurements use, and the reason\n\
         adaptive O(N) methods (its §5 outlook) matter for clustered ones."
    );
}
