//! Bit pins for the lane-blocked series body: every kernel row equals a
//! plain one-point-at-a-time evaluation written from `legendre_all` /
//! `legendre_all_with_deriv`, **to the bit**, whatever the lane width makes
//! of K — K below one block (4, 6), exactly one (8), a block and a tail
//! (12, 28, 50) and whole blocks only (120). A series body that is faster
//! because it reassociates, fuses or multiplies by a reciprocal fails here.

use fmm_sphere::legendre::{legendre_all, legendre_all_with_deriv};
use fmm_sphere::{
    dot, inner_kernel_row, inner_kernel_row_grad, inner_kernel_row_with_grad, norm,
    outer_kernel_row, outer_kernel_row_grad, scale, SphereRule, Vec3,
};
use proptest::prelude::*;
use std::sync::OnceLock;

const TRUNCATIONS: [usize; 5] = [1, 2, 3, 8, 20];

fn rules() -> &'static [SphereRule] {
    static RULES: OnceLock<Vec<SphereRule>> = OnceLock::new();
    RULES.get_or_init(|| {
        vec![
            SphereRule::tetrahedron(),
            SphereRule::octahedron(),
            SphereRule::cube(),
            SphereRule::icosahedron(),
            SphereRule::product(6),
            SphereRule::product(9),
            SphereRule::product(14),
        ]
    })
}

#[test]
fn rules_cover_every_block_shape() {
    let k: Vec<usize> = rules().iter().map(|r| r.len()).collect();
    assert_eq!(k, [4, 6, 8, 12, 28, 50, 120]);
}

/// Value rows, outer (`t^{n+1}`, `t = a/r`) or inner (`tⁿ`, `t = r/a`).
fn reference_row(rule: &SphereRule, m: usize, a: f64, x: Vec3, outer: bool) -> Vec<f64> {
    let r = norm(x);
    if r == 0.0 {
        assert!(!outer);
        return rule.weights.clone();
    }
    let xhat = scale(x, 1.0 / r);
    let t = if outer { a / r } else { r / a };
    let mut powers = vec![0.0; m + 1];
    let mut tp = if outer { t } else { 1.0 };
    for pw in powers.iter_mut() {
        *pw = tp;
        tp *= t;
    }
    let mut p = vec![0.0; m + 1];
    rule.points
        .iter()
        .zip(&rule.weights)
        .map(|(&s, &w)| {
            let u = dot(s, xhat).clamp(-1.0, 1.0);
            legendre_all(m, u, &mut p);
            let mut acc = 0.0;
            for n in 0..=m {
                acc += (2 * n + 1) as f64 * powers[n] * p[n];
            }
            acc * w
        })
        .collect()
}

fn reference_outer_grad(rule: &SphereRule, m: usize, a: f64, x: Vec3) -> [Vec<f64>; 3] {
    let r = norm(x);
    let xhat = scale(x, 1.0 / r);
    let t = a / r;
    let mut powers = vec![0.0; m + 1];
    let mut tp = t;
    for pw in powers.iter_mut() {
        *pw = tp;
        tp *= t;
    }
    let (mut p, mut dp) = (vec![0.0; m + 1], vec![0.0; m + 1]);
    let mut rows = [vec![], vec![], vec![]];
    for (&s, &w) in rule.points.iter().zip(&rule.weights) {
        let u = dot(s, xhat).clamp(-1.0, 1.0);
        legendre_all_with_deriv(m, u, &mut p, &mut dp);
        let (mut cr, mut cs) = (0.0, 0.0);
        for n in 0..=m {
            let c = (2 * n + 1) as f64 * powers[n];
            cr -= c * (n + 1) as f64 * p[n];
            cs += c * dp[n];
        }
        for d in 0..3 {
            rows[d].push(w * (cr * xhat[d] + cs * (s[d] - u * xhat[d])) / r);
        }
    }
    rows
}

fn reference_inner_grad(rule: &SphereRule, m: usize, a: f64, x: Vec3) -> [Vec<f64>; 3] {
    let r = norm(x);
    let mut rows = [vec![], vec![], vec![]];
    if r == 0.0 {
        for (&s, &w) in rule.points.iter().zip(&rule.weights) {
            for d in 0..3 {
                rows[d].push(if m >= 1 { w * 3.0 * s[d] / a } else { 0.0 });
            }
        }
        return rows;
    }
    let xhat = scale(x, 1.0 / r);
    let mut powers = vec![0.0; m + 1];
    let mut tp = 1.0 / a;
    for pw in powers.iter_mut().skip(1) {
        *pw = tp;
        tp *= r / a;
    }
    let (mut p, mut dp) = (vec![0.0; m + 1], vec![0.0; m + 1]);
    for (&s, &w) in rule.points.iter().zip(&rule.weights) {
        let u = dot(s, xhat).clamp(-1.0, 1.0);
        legendre_all_with_deriv(m, u, &mut p, &mut dp);
        let mut gx = [0.0; 3];
        for n in 1..=m {
            let c = (2 * n + 1) as f64 * powers[n];
            let cn = c * n as f64 * p[n];
            let cd = c * dp[n];
            for d in 0..3 {
                gx[d] += cn * xhat[d] + cd * (s[d] - u * xhat[d]);
            }
        }
        for d in 0..3 {
            rows[d].push(w * gx[d]);
        }
    }
    rows
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn grad_bits(rows: &[Vec<f64>; 3]) -> [Vec<u64>; 3] {
    [bits(&rows[0]), bits(&rows[1]), bits(&rows[2])]
}

/// All rows of one rule and truncation at `x` against the references.
/// `x = 0` checks the inner rows only (the outer ones panic there).
fn assert_rows_match(rule: &SphereRule, m: usize, a: f64, x: Vec3) {
    let k = rule.len();
    let tag = format!("K={k} M={m} a={a} x={x:?}");
    // NaN-filled outputs: an entry the body skipped cannot pass.
    let blank = || vec![f64::NAN; k];
    let blank3 = || [blank(), blank(), blank()];

    let mut row = blank();
    inner_kernel_row(rule, m, a, x, &mut row);
    let inner = bits(&reference_row(rule, m, a, x, false));
    assert_eq!(bits(&row), inner, "inner_kernel_row {tag}");

    let mut rows = blank3();
    inner_kernel_row_grad(rule, m, a, x, &mut rows);
    let inner_grad = grad_bits(&reference_inner_grad(rule, m, a, x));
    assert_eq!(grad_bits(&rows), inner_grad, "inner_kernel_row_grad {tag}");

    let (mut row, mut rows) = (blank(), blank3());
    inner_kernel_row_with_grad(rule, m, a, x, &mut row, &mut rows);
    assert_eq!(bits(&row), inner, "inner_kernel_row_with_grad {tag}");
    assert_eq!(
        grad_bits(&rows),
        inner_grad,
        "inner_kernel_row_with_grad {tag}"
    );

    if norm(x) == 0.0 {
        return;
    }
    let mut row = blank();
    outer_kernel_row(rule, m, a, x, &mut row);
    assert_eq!(
        bits(&row),
        bits(&reference_row(rule, m, a, x, true)),
        "outer_kernel_row {tag}"
    );

    let mut rows = blank3();
    outer_kernel_row_grad(rule, m, a, x, &mut rows);
    assert_eq!(
        grad_bits(&rows),
        grad_bits(&reference_outer_grad(rule, m, a, x)),
        "outer_kernel_row_grad {tag}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Directions: arbitrary, along a coordinate axis, along a sphere
    /// point of the rule (both make `s·x̂` reach the ±1 clamp), each at
    /// |x| log-uniform over 1e-3 … 1e3.
    #[test]
    fn every_row_equals_the_scalar_reference_to_the_bit(
        kind in 0usize..3,
        pick in 0usize..120,
        v in (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        log_mag in -3.0f64..3.0,
        a in 0.5f64..3.0,
    ) {
        let sign = if v.0 < 0.0 { -1.0 } else { 1.0 };
        for rule in rules() {
            let dir = match kind {
                0 => [v.0, v.1, v.2],
                1 => {
                    let mut e = [0.0; 3];
                    e[pick % 3] = sign;
                    e
                }
                _ => scale(rule.points[pick % rule.len()], sign),
            };
            if norm(dir) < 1e-3 {
                continue;
            }
            let x = scale(dir, 10f64.powf(log_mag) / norm(dir));
            for m in TRUNCATIONS {
                assert_rows_match(rule, m, a, x);
            }
        }
    }
}

#[test]
fn inner_rows_at_the_centre_are_pinned() {
    for rule in rules() {
        for m in [0, 1, 8] {
            assert_rows_match(rule, m, 1.7, [0.0; 3]);
        }
        // The value row there is the weights, exactly.
        let mut row = vec![0.0; rule.len()];
        inner_kernel_row(rule, 8, 1.7, [0.0; 3], &mut row);
        assert_eq!(bits(&row), bits(&rule.weights));
    }
}

#[test]
fn truncation_zero_is_the_monopole_term() {
    for rule in rules() {
        assert_rows_match(rule, 0, 1.3, [0.3, -2.0, 0.9]);
    }
}

#[test]
#[should_panic(expected = "outer_kernel_row: x = [0.0, 0.0, 0.0] is the sphere centre")]
fn outer_row_at_the_centre_panics_by_name() {
    let rule = SphereRule::icosahedron();
    let mut row = vec![0.0; rule.len()];
    outer_kernel_row(&rule, 3, 1.0, [0.0; 3], &mut row);
}

#[test]
#[should_panic(expected = "outer_kernel_row_grad: x = [0.0, 0.0, 0.0] is the sphere centre")]
fn outer_grad_row_at_the_centre_panics_by_name() {
    let rule = SphereRule::icosahedron();
    let mut rows = [vec![0.0; 12], vec![0.0; 12], vec![0.0; 12]];
    outer_kernel_row_grad(&rule, 3, 1.0, [0.0; 3], &mut rows);
}

#[test]
#[should_panic(expected = "is the sphere centre")]
fn outer_approx_evaluated_at_its_centre_panics() {
    let rule = SphereRule::icosahedron();
    let c = [0.5, -1.0, 2.0];
    let outer = fmm_sphere::OuterApprox::from_particles(&rule, c, 1.0, &[c], &[1.0]);
    outer.evaluate(&rule, 3, c);
}
