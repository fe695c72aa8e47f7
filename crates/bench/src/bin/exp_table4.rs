//! **E3 — Paper Table 4**: data-motion needs of the four interactive-field
//! fetch strategies on a 32-node (128-VU) machine with 8³ subgrids.
//!
//! Paper anchors: direct-aliased fetches exactly the ghost volume (3,584
//! boxes per VU); the linearized unaliased snake is 7.4× faster than
//! direct CSHIFTs; linearized aliased beats direct aliased by ~1.5× (per-
//! CSHIFT overhead dominates the many small region fetches).
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_table4`

use fmm_bench::machine::ghost::{fetch, ghost_volume, FetchStrategy};
use fmm_bench::machine::{cost::CostModel, grid::DistGrid};
use fmm_bench::util::header;
use fmm_machine::{BlockLayout, VuGrid};
use fmm_tree::interactive_field_union;

fn main() {
    header("Table 4 — interactive-field fetch strategies (32-node CM-5E model, S=8³)");
    // The paper's machine: 32 nodes × 4 VUs = 128 VUs, local subgrids 8³.
    let layout = BlockLayout::new([64, 32, 32], VuGrid::new([8, 4, 4]));
    let k = 12;
    let grid = DistGrid::from_fn(layout, k, |g, c| {
        (g[0] * 1_000_000 + g[1] * 1000 + g[2]) as f64 + c as f64 * 0.125
    });
    let offsets: Vec<[i32; 3]> = interactive_field_union();
    println!(
        "VUs: {}, subgrid: {:?}, ghost volume per VU: {}",
        layout.vu.len(),
        layout.subgrid,
        ghost_volume(&layout)
    );
    let cost = CostModel::cm5e();
    println!(
        "\n{:<38} {:>12} {:>12} {:>9} {:>11} {:>9}",
        "method", "off-VU boxes", "local moves", "#CSHIFTs", "time(model)", "relative"
    );
    let mut times = Vec::new();
    let mut rows = Vec::new();
    for strat in FetchStrategy::ALL {
        let r = fetch(&grid, strat, &offsets);
        let t = cost.time_s(&r.counters, k);
        times.push(t);
        rows.push((strat, r.counters, t));
    }
    let tmin = times.iter().cloned().fold(f64::INFINITY, f64::min);
    for (strat, c, t) in rows {
        println!(
            "{:<38} {:>12} {:>12} {:>9} {:>10.4}s {:>9.2}",
            strat.name(),
            c.off_vu_boxes,
            c.local_box_moves,
            c.cshifts,
            t,
            t / tmin
        );
    }
    println!(
        "\nPaper's measured cells (OCR-legible ones): direct-aliased fetches\n\
         3,584 non-local boxes; linearized-unaliased ≈7.4× faster than direct\n\
         CSHIFTs at K=12; linearized-aliased ≈1.5× faster than direct-aliased.\n\
         Our forwarding variant of linearized-aliased moves the exact ghost\n\
         volume in 6 shifts (the paper's CMF variant moved whole subgrids)."
    );
}
