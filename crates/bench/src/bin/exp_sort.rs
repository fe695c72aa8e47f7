//! **E12 — §3.2 coordinate sort**: sorting particles by keys built from
//! VU-address and local-address bits aligns particles with the VUs owning
//! their leaf boxes, turning the 1-D → 4-D reshape into a local copy.
//!
//! Measures, for uniform / jittered / clustered distributions, the
//! fraction of particles whose sorted-array VU equals the owner VU of
//! their leaf box (the paper: "for a uniform particle distribution … each
//! particle … will be allocated to the same VU"; "for a near uniform
//! distribution … most particles").
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_sort`

use fmm_bench::sort::{coordinate_sort, CoordinateSortKey};
use fmm_bench::util::header;
use fmm_bench::workloads::{clustered, jittered_grid, uniform};
use fmm_tree::Domain;

fn locality_fraction(positions: &[[f64; 3]], level: u32, vu_grid: [u32; 3]) -> f64 {
    let domain = Domain::unit();
    let layout = CoordinateSortKey::for_vu_grid(level, vu_grid);
    let (perm, _keys) = coordinate_sort(positions, &domain, level, layout);
    let n = positions.len() as u64;
    let n_vus = layout.vu_count();
    // Sorted array is block-distributed over VUs: sorted index i lives on
    // VU floor(i * n_vus / n). The box's owner VU comes from the layout.
    let mut matches = 0u64;
    for (i, &orig) in perm.iter().enumerate() {
        let p = positions[orig as usize];
        let owner = layout.vu_of(domain.locate(p, level));
        let holder = (i as u64 * n_vus) / n;
        if owner == holder {
            matches += 1;
        }
    }
    matches as f64 / n as f64
}

fn main() {
    header("Coordinate sort — particle/box VU locality (§3.2)");
    let n = 262_144; // 2048 per VU on the 128-VU machine below
    let level = 5; // 32³ leaf boxes
    let vu_grid = [8u32, 4, 4]; // 128 VUs, 4×8×8 subgrids
    println!(
        "N = {}, leaf level {} (32³ boxes), {}×{}×{} = 128 VUs\n",
        n, level, vu_grid[0], vu_grid[1], vu_grid[2]
    );
    println!("{:<28} {:>18}", "distribution", "on-owner fraction");
    let cases: [(&str, Vec<[f64; 3]>); 4] = [
        ("uniform", uniform(n, 7)),
        ("jittered grid (j=0.5)", jittered_grid(64, 0.5, 8)),
        ("jittered grid (j=2.0)", jittered_grid(64, 2.0, 9)),
        ("clustered (Plummer-like)", clustered(n, 10)),
    ];
    for (name, pts) in cases {
        let f = locality_fraction(&pts, level, vu_grid);
        println!("{:<28} {:>17.1}%", name, 100.0 * f);
    }
    println!(
        "\nPaper: with ≥1 leaf box per VU and a uniform distribution, every\n\
         particle lands on its box's VU (no communication in the reshape);\n\
         near-uniform distributions keep most particles local; clustered\n\
         ones degrade — the load-balance limitation of the non-adaptive\n\
         method (§3.5)."
    );
}
