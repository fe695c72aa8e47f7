//! **E10b — §2.3 supernodes**: reducing the effective interactive field
//! from 875 to 189 translations per box, "a dramatic improvement in the
//! overall performance, at the cost of slightly decreased accuracy".
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_supernode [n]`

use fmm_bench::util::{header, rms_digits, time_s};
use fmm_bench::workloads::{direct_potentials, uniform, unit_charges};
use fmm_core::{Fmm, FmmConfig, Phase};
use fmm_tree::{supernode_decomposition, Separation};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    header("Supernodes — 875 → 189 interactive-field translations (§2.3)");
    let sd = supernode_decomposition([0, 0, 0], Separation::Two);
    println!(
        "decomposition: {} parent supernodes + {} leftover children = {} translations (covers {})",
        sd.parents.len(),
        sd.children.len(),
        sd.translation_count(),
        sd.covered_boxes()
    );

    let positions = uniform(n, 321);
    let charges = unit_charges(n);
    // Accuracy reference on a subsampled system (direct is O(N²)).
    let n_ref = 3000.min(n);
    let ref_pos = &positions[..n_ref];
    let ref_q = &charges[..n_ref];
    let reference = direct_potentials(ref_pos, ref_q);

    println!(
        "\n{:>11} {:>10} {:>14} {:>14} {:>12} {:>7}",
        "supernodes", "time (s)", "T2 time (s)", "T2 flops", "rms_rel", "digits"
    );
    for sup in [false, true] {
        let fmm = Fmm::new(FmmConfig::order(5).depth(4).supernodes(sup)).unwrap();
        let (t, out) = time_s(|| fmm.evaluate(&positions, &charges).unwrap());
        let t2 = out.profile.phase_time(Phase::Interactive).as_secs_f64();
        let acc_out = fmm.evaluate(ref_pos, ref_q).unwrap();
        let (rms, digits) = rms_digits(&acc_out.potentials, &reference);
        println!(
            "{:>11} {:>10.3} {:>14.3} {:>14.2e} {:>12.3e} {:>7.2}",
            sup, t, t2, out.traversal_flops.t2 as f64, rms, digits
        );
    }
    println!(
        "\nThe T2 translations per interior box drop by 875/189 ≈ 4.6×; the\n\
         flop count, the rows actually multiplied, drops less where boundary\n\
         boxes are a large share (4.1× at depth 4). The paper calls the\n\
         accuracy cost \"slightly decreased\" — quantified here (parent-level\n\
         sources sit at a worse a/r ratio, so some digits are lost)."
    );
}
