//! **E13 — §3.4 near-field symmetry**: Newton's third law turns 124
//! neighbour box–box interactions into 62, roughly halving the pairwise
//! work; the CSHIFTs that carry the travelling accumulators are 10–15% of
//! the near-field time on the CM-5E. Also prices the one-sided gather (the
//! target-centric sweep, one `gather_with` per neighbour row) against the
//! travelling accumulator (§3.4's schedule), on one thread (the serial
//! column, taken inside `fmm_core::serially`) and on the pool, on the
//! detected kernel.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_nearfield [n] [depth]`

use fmm_bench::machine::cost::CostModel;
use fmm_bench::util::{best_of, header};
use fmm_bench::workloads::{uniform, unit_charges};
use fmm_core::particles::BinnedParticles;
use fmm_core::{
    near_field_potentials, near_field_symmetric, near_field_travelling_with, serially, Kernel,
};
use fmm_machine::Counters;
use fmm_tree::{Domain, Separation};

fn main() {
    let mut args = std::env::args().skip(1).map(|s| s.parse().ok());
    let n: usize = args.next().flatten().unwrap_or(100_000);
    let depth = args.next().flatten().unwrap_or(4) as u32;
    header("Near field — exploiting Newton's third law (§3.4)");
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

    let mut out = vec![0.0; n];
    let mut gather = || {
        best_of(3, || {
            out.iter_mut().for_each(|x| *x = 0.0);
            near_field_potentials(&bp, &mut out)
        })
    };
    let ((t_tc, st_tc), (t_tc_par, _)) = (serially(&mut gather), gather());
    let pot_tc = out.clone();
    let mut travel = || {
        best_of(3, || {
            out.iter_mut().for_each(|x| *x = 0.0);
            near_field_travelling_with(kernel, &bp, Separation::Two, true, 0.0, &mut out)
        })
    };
    let ((t_tr, st_tr), (t_tr_par, _)) = (serially(&mut travel), travel());
    let (t_sym, (pot_sym, st_sym)) = best_of(1, || near_field_symmetric(&bp));

    println!(
        "{:<28} {:>14} {:>12} {:>12} {:>12}",
        "sweep", "pair inters", "box pairs", "serial (s)", "rayon (s)"
    );
    let row = |name: &str, pairs: u64, boxes: u64, serial: f64, rayon: Option<f64>| {
        let rayon = rayon.map_or("—".to_string(), |t| format!("{t:.3}"));
        println!("{name:<28} {pairs:>14} {boxes:>12} {serial:>12.3} {rayon:>12}");
    };
    let (pairs, boxes) = (st_tc.pair_interactions, st_tc.box_pairs);
    row(
        "target-centric rows (124)",
        pairs,
        boxes,
        t_tc,
        Some(t_tc_par),
    );
    let (pairs, boxes) = (st_tr.pair_interactions, st_tr.box_pairs);
    row("travelling (62)", pairs, boxes, t_tr, Some(t_tr_par));
    let (pairs, boxes) = (st_sym.pair_interactions, st_sym.box_pairs);
    row("symmetric, scalar (62)", pairs, boxes, t_sym, None);
    println!(
        "pair reduction: {:.2}×; travelling over row gather: {:.2}× serial, {:.2}× rayon",
        st_tc.pair_interactions as f64 / st_sym.pair_interactions as f64,
        t_tr / t_tc,
        t_tr_par / t_tc_par
    );
    let scale = pot_sym.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let worst = |pot: &[f64]| {
        let diff = pot.iter().zip(&pot_sym).map(|(a, b)| (a - b).abs());
        diff.fold(0.0f64, f64::max) / scale
    };
    println!(
        "(symmetric result checksum {:.6e}; max |Δ| / max |Φ| against it: \
         target-centric {:.1e}, travelling {:.1e})",
        pot_sym.iter().sum::<f64>(),
        worst(&pot_tc),
        worst(&out)
    );

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
        "\nsimulated CM-5E near-field ({} VUs): CSHIFT share = {:.1}% (paper: 10–15%)",
        n_vus,
        100.0 * t_comm / (t_comm + t_comp)
    );
}
