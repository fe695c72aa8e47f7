//! **E13 — §3.4 near-field symmetry**: Newton's third law turns 124
//! neighbour box–box interactions into 62, roughly halving the pairwise
//! work; the CSHIFTs that carry the travelling accumulators are 10–15% of
//! the near-field time on the CM-5E. Times three schedules of the same
//! near field on the detected kernel, on one thread (the serial column,
//! taken inside `fmm_core::serially`) and on the pool: the target-centric
//! gather (`fmm_bench::gather`: all 124 neighbours, one `gather_with` per
//! neighbour row), the
//! paper's travelling accumulator (`fmm_bench::travel`, 62 box pairs, one
//! pool region per step), and the symmetric rows `fmm-core` runs (the
//! same 62 box pairs, ≤ 13 panel exchanges per box, z mod 3 plane
//! colours). Then the forces' pair counts on the same input: the 124
//! directed neighbours a target-centric force sweep pays against the
//! third-law rows `fmm-core` runs for forces too.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_nearfield [n] [depth]`
//! (no arguments: N = 262,144 at depth 5, then N = 100,000 at depth 4).

use fmm_bench::gather::target_centric_potentials;
use fmm_bench::machine::cost::CostModel;
use fmm_bench::travel::travelling_sweep;
use fmm_bench::util::{best_of, header};
use fmm_bench::workloads::{uniform, unit_charges};
use fmm_core::near::near_field_forces_softened;
use fmm_core::particles::BinnedParticles;
use fmm_core::{
    near_field_rows, near_field_symmetric, serially, Kernel, NearFieldStats, Separation,
};
use fmm_machine::Counters;
use fmm_tree::Domain;

fn main() {
    let mut args = std::env::args().skip(1).map(|s| s.parse().ok());
    let cases = match (args.next().flatten(), args.next().flatten()) {
        (None, _) => vec![(262_144, 5), (100_000, 4)],
        (Some(n), depth) => vec![(n, depth.unwrap_or(4) as u32)],
    };
    header("Near field — exploiting Newton's third law (§3.4)");
    let mut last = None;
    for &(n, depth) in &cases {
        last = Some((n, depth, sweeps(n, depth)));
    }
    let (n, depth, sym) = last.expect("one case at least");
    cshift_share(n, depth, &sym);
}

/// One problem: every schedule's pair and box-pair counts and times, and
/// each result against the scalar symmetric one, whose counts it returns.
fn sweeps(n: usize, depth: u32) -> NearFieldStats {
    let positions = uniform(n, 55);
    let charges = unit_charges(n);
    let bp = BinnedParticles::build(&positions, &charges, Domain::unit(), depth);
    let kernel = Kernel::detect();
    println!(
        "N = {}, depth {} ({} leaf boxes), kernel {:?}\n",
        n,
        depth,
        1 << (3 * depth),
        kernel
    );
    let time = |sweep: &dyn Fn(&mut [f64]) -> NearFieldStats| {
        let mut out = vec![0.0; n];
        let mut run = || {
            best_of(3, || {
                out.iter_mut().for_each(|x| *x = 0.0);
                sweep(&mut out)
            })
        };
        let ((serial, st), (pool, _)) = (serially(&mut run), run());
        (serial, pool, st, out)
    };
    let gather = time(&|out| target_centric_potentials(kernel, &bp, 0.0, out));
    let travel = time(&|out| travelling_sweep(kernel, &bp, 0.0, out));
    let rows = time(&|out| near_field_rows(kernel, &bp, 0.0, out));
    let (t_sym, (pot_sym, st_sym)) = best_of(1, || near_field_symmetric(&bp));

    println!(
        "{:<28} {:>14} {:>12} {:>12} {:>12}",
        "sweep", "pair inters", "box pairs", "serial (s)", "pool (s)"
    );
    let row = |name: &str, st: &NearFieldStats, serial: f64, pool: Option<f64>| {
        let pool = pool.map_or("—".to_string(), |t| format!("{t:.3}"));
        let (pairs, boxes) = (st.pair_interactions, st.box_pairs);
        println!("{name:<28} {pairs:>14} {boxes:>12} {serial:>12.3} {pool:>12}");
    };
    row(
        "target-centric rows (124)",
        &gather.2,
        gather.0,
        Some(gather.1),
    );
    row("travelling (62)", &travel.2, travel.0, Some(travel.1));
    row("symmetric rows (62)", &rows.2, rows.0, Some(rows.1));
    row("symmetric, scalar (62)", &st_sym, t_sym, None);
    println!(
        "pair reduction: {:.2}×; rows over travelling: {:.2}× serial, {:.2}× pool; \
         rows over gather: {:.2}× serial, {:.2}× pool",
        gather.2.pair_interactions as f64 / st_sym.pair_interactions as f64,
        rows.0 / travel.0,
        rows.1 / travel.1,
        rows.0 / gather.0,
        rows.1 / gather.1
    );
    let scale = pot_sym.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let worst = |pot: &[f64]| {
        let diff = pot.iter().zip(&pot_sym).map(|(a, b)| (a - b).abs());
        diff.fold(0.0f64, f64::max) / scale
    };
    println!(
        "(symmetric result checksum {:.6e}; max |Δ| / max |Φ| against it: \
         target-centric {:.1e}, travelling {:.1e}, rows {:.1e})\n",
        pot_sym.iter().sum::<f64>(),
        worst(&gather.3),
        worst(&travel.3),
        worst(&rows.3)
    );
    let mut field = vec![[0.0; 3]; n];
    let mut pot = vec![0.0; n];
    let forces = near_field_forces_softened(&bp, Separation::Two, true, 0.0, &mut pot, &mut field);
    println!(
        "forces pairs: target-centric (124, directed) {}, third-law rows (62) {}: {:.2}×\n",
        gather.2.pair_interactions,
        forces.pair_interactions,
        gather.2.pair_interactions as f64 / forces.pair_interactions as f64
    );
    st_sym
}

/// The simulated CM-5E's CSHIFT share of the travelling sweep.
fn cshift_share(n: usize, depth: u32, st_sym: &NearFieldStats) {
    // CSHIFT share model: the travelling-accumulator scheme does 62
    // single-step CSHIFTs of the 4-D particle arrays per sweep. Lay this
    // problem's leaf grid over a 64-VU machine (4³ subgrids) and compare
    // the per-VU shift cost against the per-VU pairwise compute.
    let cost = CostModel::cm5e();
    let n_vus = 64u64;
    let boxes_per_vu = (1u64 << (3 * depth)) / n_vus; // 4³ = 64
    let subgrid_axis = 4u64;
    let parts_per_box = (n as u64 >> (3 * depth)).max(1);
    let comm = Counters {
        cshifts: 62,
        // a unit CSHIFT moves 1/S of each VU's particle boxes off-VU
        off_vu_boxes: 62 * boxes_per_vu / subgrid_axis * parts_per_box,
        local_box_moves: 62 * boxes_per_vu * (subgrid_axis - 1) / subgrid_axis * parts_per_box,
        ..Default::default()
    };
    let t_comm = cost.time_s(&comm, 4); // x,y,z,q per particle
    let flops = Counters {
        flops: st_sym.flops / n_vus,
        ..Default::default()
    };
    let t_comp = cost.time_s(&flops, 1);
    println!(
        "simulated CM-5E near-field ({} VUs): CSHIFT share = {:.1}% (paper: 10–15%)",
        n_vus,
        100.0 * t_comm / (t_comm + t_comp)
    );
}
