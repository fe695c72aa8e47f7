//! Integration tests: end-to-end accuracy of the FMM against direct
//! summation across configurations and particle distributions.

use anderson_fmm::fmm_core::{relative_error_stats, Fmm, FmmConfig};
use anderson_fmm::fmm_direct;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn uniform(n: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| [rng.gen(), rng.gen(), rng.gen()]).collect()
}

fn clustered(n: usize, seed: u64) -> Vec<[f64; 3]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = if rng.gen::<bool>() { 0.25 } else { 0.75 };
            [
                c + 0.1 * (rng.gen::<f64>() - 0.5),
                c + 0.1 * (rng.gen::<f64>() - 0.5),
                0.5 + 0.45 * (rng.gen::<f64>() * 2.0 - 1.0),
            ]
        })
        .collect()
}

#[test]
fn four_digits_at_order_5() {
    let n = 4000;
    let pts = uniform(n, 1);
    let q = vec![1.0; n];
    let reference = fmm_direct::potentials(&pts, &q);
    for depth in [2u32, 3] {
        let fmm = Fmm::new(FmmConfig::order(5).depth(depth)).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        let st = relative_error_stats(&out.potentials, &reference);
        assert!(
            st.digits() > 3.3,
            "depth {}: only {:.2} digits (rms {:.2e})",
            depth,
            st.digits(),
            st.rms_rel
        );
    }
}

#[test]
fn seven_digits_at_order_14() {
    let n = 2000;
    let pts = uniform(n, 2);
    let q = vec![1.0; n];
    let reference = fmm_direct::potentials(&pts, &q);
    let fmm = Fmm::new(FmmConfig::order(14).depth(2)).unwrap();
    let out = fmm.evaluate(&pts, &q).unwrap();
    let st = relative_error_stats(&out.potentials, &reference);
    assert!(
        st.digits() > 6.5,
        "only {:.2} digits (rms {:.2e})",
        st.digits(),
        st.rms_rel
    );
}

#[test]
fn accuracy_holds_for_clustered_distribution() {
    // The non-adaptive method loses *efficiency* on clustered systems, not
    // correctness.
    let n = 3000;
    let pts = clustered(n, 3);
    let q = vec![1.0; n];
    let reference = fmm_direct::potentials(&pts, &q);
    let fmm = Fmm::new(FmmConfig::order(5).depth(3)).unwrap();
    let out = fmm.evaluate(&pts, &q).unwrap();
    let st = relative_error_stats(&out.potentials, &reference);
    assert!(st.digits() > 3.0, "digits {:.2}", st.digits());
}

#[test]
fn supernodes_trade_little_accuracy_for_many_fewer_flops() {
    let n = 4000;
    let pts = uniform(n, 4);
    let q = vec![1.0; n];
    let reference = fmm_direct::potentials(&pts, &q);
    let plain = Fmm::new(FmmConfig::order(5).depth(3).supernodes(false)).unwrap();
    let sup = Fmm::new(FmmConfig::order(5).depth(3).supernodes(true)).unwrap();
    let out_plain = plain.evaluate(&pts, &q).unwrap();
    let out_sup = sup.evaluate(&pts, &q).unwrap();
    let st_plain = relative_error_stats(&out_plain.potentials, &reference);
    let st_sup = relative_error_stats(&out_sup.potentials, &reference);
    // Many fewer T2 flops: 875 → 189 translations per interior box
    // (≈4.6×). The counts are the rows actually multiplied, and at depth
    // 3 most boxes touch the boundary: 137,664 → 40,000 live rows (3.4×),
    // each 2K² flops at K = 12…
    assert_eq!(out_plain.traversal_flops.t2, 137_664 * 2 * 12 * 12);
    assert_eq!(out_sup.traversal_flops.t2, 40_000 * 2 * 12 * 12);
    // …at under half a digit of accuracy.
    assert!(
        st_sup.digits() > st_plain.digits() - 0.5,
        "plain {:.2} vs supernode {:.2} digits",
        st_plain.digits(),
        st_sup.digits()
    );
}

#[test]
fn one_separation_works_but_less_accurately() {
    use anderson_fmm::fmm_tree::Separation;
    let n = 3000;
    let pts = uniform(n, 5);
    let q = vec![1.0; n];
    let reference = fmm_direct::potentials(&pts, &q);
    // One-separation needs a tighter outer radius (T2 distance shrinks to
    // 2 − inner).
    let cfg1 = FmmConfig::order(5)
        .depth(3)
        .separation(Separation::One)
        .radii(0.95, 0.9);
    let fmm1 = Fmm::new(cfg1).unwrap();
    let out1 = fmm1.evaluate(&pts, &q).unwrap();
    let st1 = relative_error_stats(&out1.potentials, &reference);
    let fmm2 = Fmm::new(FmmConfig::order(5).depth(3)).unwrap();
    let out2 = fmm2.evaluate(&pts, &q).unwrap();
    let st2 = relative_error_stats(&out2.potentials, &reference);
    assert!(
        st1.digits() > 1.5,
        "one-separation digits {:.2}",
        st1.digits()
    );
    assert!(
        st2.digits() > st1.digits(),
        "two-separation ({:.2}) should beat one-separation ({:.2})",
        st2.digits(),
        st1.digits()
    );
}

#[test]
fn forces_agree_with_direct() {
    let n = 1500;
    let pts = uniform(n, 6);
    let q = vec![1.0; n];
    let (_, ref_field) = fmm_direct::potentials_and_fields(&pts, &q);
    let fmm = Fmm::new(FmmConfig::order(7).depth(2)).unwrap();
    let out = fmm.evaluate_forces(&pts, &q).unwrap();
    let field = out.fields.unwrap();
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..n {
        for a in 0..3 {
            let e = field[i][a] - ref_field[i][a];
            num += e * e;
            den += ref_field[i][a] * ref_field[i][a];
        }
    }
    let rel = (num / den).sqrt();
    assert!(rel < 1e-3, "relative field error {:.2e}", rel);
}

#[test]
fn deeper_hierarchy_does_not_lose_accuracy() {
    let n = 8000;
    let pts = uniform(n, 8);
    let q = vec![1.0; n];
    let reference = fmm_direct::potentials(&pts, &q);
    let mut digits = Vec::new();
    for depth in [2u32, 3, 4] {
        let fmm = Fmm::new(FmmConfig::order(5).depth(depth)).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        let st = relative_error_stats(&out.potentials, &reference);
        digits.push(st.digits());
    }
    for (i, d) in digits.iter().enumerate() {
        assert!(*d > 3.2, "depth {}: {:.2} digits", i + 2, d);
    }
}

#[test]
fn mixed_sign_charges_absolute_error_matches_unit_charge_scale() {
    // The relative metric degrades for mixed signs (reference fluctuates
    // near zero) but the absolute RMS error should stay comparable.
    let n = 3000;
    let pts = uniform(n, 9);
    let q_unit = vec![1.0; n];
    let mut rng = SmallRng::seed_from_u64(10);
    let q_mixed: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    let fmm = Fmm::new(FmmConfig::order(5).depth(3)).unwrap();

    let ref_unit = fmm_direct::potentials(&pts, &q_unit);
    let out_unit = fmm.evaluate(&pts, &q_unit).unwrap();
    let st_unit = relative_error_stats(&out_unit.potentials, &ref_unit);

    let ref_mixed = fmm_direct::potentials(&pts, &q_mixed);
    let out_mixed = fmm.evaluate(&pts, &q_mixed).unwrap();
    let st_mixed = relative_error_stats(&out_mixed.potentials, &ref_mixed);

    // Charges have ~1/√3 the RMS magnitude; allow an order of magnitude.
    assert!(
        st_mixed.rms_abs < st_unit.rms_abs * 10.0,
        "mixed abs {:.2e} vs unit abs {:.2e}",
        st_mixed.rms_abs,
        st_unit.rms_abs
    );
}

#[test]
fn softening_perturbs_only_close_pairs() {
    // With ε far below the interparticle spacing, softened ≈ unsoftened;
    // with ε comparable to it, only the near field changes (bounded
    // potentials at close encounters) while far potentials stay put.
    let n = 2000;
    let pts = uniform(n, 77);
    let q = vec![1.0; n];
    let base = Fmm::new(FmmConfig::order(5).depth(3)).unwrap();
    let tiny = Fmm::new(FmmConfig::order(5).depth(3).softening(1e-9)).unwrap();
    let p0 = base.evaluate(&pts, &q).unwrap().potentials;
    let p1 = tiny.evaluate(&pts, &q).unwrap().potentials;
    for (a, b) in p0.iter().zip(&p1) {
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
    }
    // ε of half a leaf side: potentials drop (soft kernel is weaker), and
    // only by a bounded amount.
    let soft = Fmm::new(FmmConfig::order(5).depth(3).softening(0.06)).unwrap();
    let p2 = soft.evaluate(&pts, &q).unwrap().potentials;
    for (a, b) in p0.iter().zip(&p2) {
        assert!(b < a, "softened potential must be smaller: {} vs {}", b, a);
        assert!(
            a - b < 0.3 * a,
            "softening changed the far field too: {} vs {}",
            a,
            b
        );
    }
}

#[test]
fn softened_forces_bounded_at_coincident_particles() {
    // Two nearly-coincident particles: unsoftened forces blow up, softened
    // ones stay bounded by q/ε².
    let mut pts = uniform(500, 88);
    pts[1] = [pts[0][0] + 1e-12, pts[0][1], pts[0][2]];
    let q = vec![1.0; 500];
    let eps = 1e-3;
    let fmm = Fmm::new(FmmConfig::order(5).depth(2).softening(eps)).unwrap();
    let out = fmm.evaluate_forces(&pts, &q).unwrap();
    let f = out.fields.unwrap();
    let bound = 1.0 / (eps * eps) + 1e6; // pair bound + rest of system
    for i in [0usize, 1] {
        for fa in &f[i] {
            assert!(fa.abs() < bound, "unbounded softened force {}", fa);
        }
    }
}
