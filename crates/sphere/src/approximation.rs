//! Anderson's outer- and inner-sphere approximations.
//!
//! The *outer* approximation represents the potential field **outside** a
//! sphere of radius `a` due to sources inside it, from K samples of the
//! potential on the sphere (paper eq. (15)):
//!
//!   Φ(x) ≈ Σᵢ \[ Σₙ₌₀^M (2n+1)(a/r)ⁿ⁺¹ Pₙ(sᵢ·x̂) \] g(a sᵢ) wᵢ ,  r = |x| > a
//!
//! The *inner* approximation represents the potential **inside** the sphere
//! due to sources far outside it (paper eq. (16); interior Poisson kernel,
//! exponent n — see the crate docs for the OCR note):
//!
//!   Ψ(x) ≈ Σᵢ \[ Σₙ₌₀^M (2n+1)(r/a)ⁿ Pₙ(sᵢ·x̂) \] g(a sᵢ) wᵢ ,  r = |x| < a
//!
//! Both are *linear* in the samples g, which is why every translation
//! operator of the method is a K×K matrix: its (j,i) entry is the kernel
//! row of destination point j against source point i. This module provides
//! the kernel rows (and their gradients for force evaluation) plus
//! convenience wrapper types used by examples and tests.

use crate::quadrature::SphereRule;
use crate::{dot, norm, scale, sub, Vec3};

/// Sphere points whose series are carried side by side. The M − 1 Legendre
/// steps of one point are a chain of dependent divides; the chains of
/// different points are independent, so a block of them keeps the divider
/// busy instead of waiting out its latency. Chosen by measurement on the
/// 1222-matrix build at K = 120, M = 8 (ns per matrix entry, page faults
/// and transposition included): width 1 ≈ 35, 2 ≈ 22, 4 ≈ 12.6, 8 ≈ 9,
/// 16 ≈ 9.8, against ≈ 6.7 for seven divides at the divider's throughput.
const LANES: usize = 8;

/// The one Legendre-series body behind every kernel row: the series of the
/// `L` sphere points `i0..i0 + L` at direction `xhat`, value into
/// `row[i0..]` (`VALUE`) and gradient into `grad[d][i0..]` (`GRAD`), for
/// the outer (`OUTER`) or the inner element. It carries `P_{n−1}, P_n` (and
/// `P'_{n−2}, P'_{n−1}` under `GRAD`) per lane through
///
///   (n+1) P_{n+1} = (2n+1) u Pₙ − n P_{n−1},   Pₙ' = P'_{n−2} + (2n−1) P_{n−1}
///
/// and adds term n as it is produced, so nothing is stored per degree. The
/// radial factors are the running products `tv` (value) and `tg`
/// (gradient), started at `tv0`/`tg0` and multiplied by `t` per term.
///
/// Every lane performs, in order, exactly the operations of a scalar
/// evaluation from [`crate::legendre::legendre_all_with_deriv`] — no
/// reciprocal, no fused multiply-add, no reassociation — so the width is
/// invisible in the result: `L = 1` finishes the `K mod LANES` points and
/// the tests hold every row equal to that scalar reference to the bit.
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn series_block<const L: usize, const OUTER: bool, const VALUE: bool, const GRAD: bool>(
    rule: &SphereRule,
    m: usize,
    xhat: Vec3,
    r: f64,
    t: f64,
    (tv0, tg0): (f64, f64),
    i0: usize,
    row: &mut [f64],
    grad: &mut [Vec<f64>; 3],
) {
    let pts: &[Vec3; L] = rule.points[i0..i0 + L].try_into().expect("block of L");
    let wts: &[f64; L] = rule.weights[i0..i0 + L].try_into().expect("block of L");
    let mut u = [0.0; L];
    let mut perp = [[0.0; L]; 3]; // s − u x̂
    for l in 0..L {
        u[l] = dot(pts[l], xhat).clamp(-1.0, 1.0);
        if GRAD {
            for d in 0..3 {
                perp[d][l] = pts[l][d] - u[l] * xhat[d];
            }
        }
    }

    let mut pm1 = [0.0; L];
    let mut p = [1.0; L];
    let mut dpm1 = [0.0; L];
    let mut dp = [0.0; L];
    let mut acc = [0.0; L];
    // Outer: [0] the coefficient of x̂/r, [1] that of (s − u x̂)/r.
    // Inner: the gradient's three components.
    let mut ga = [[0.0; L]; 3];
    let (mut tv, mut tg) = (tv0, tg0);
    for n in 0..=m {
        if n == 1 {
            (pm1, p, dpm1, dp) = (p, u, dp, [1.0; L]);
        } else if n >= 2 {
            let (a, b, c) = ((2 * n - 1) as f64, (n - 1) as f64, n as f64);
            for l in 0..L {
                let next = (a * u[l] * p[l] - b * pm1[l]) / c;
                if GRAD {
                    let dnext = dpm1[l] + a * p[l];
                    dpm1[l] = dp[l];
                    dp[l] = dnext;
                }
                pm1[l] = p[l];
                p[l] = next;
            }
        }
        if VALUE {
            let c = (2 * n + 1) as f64 * tv;
            for l in 0..L {
                acc[l] += c * p[l];
            }
            tv *= t;
        }
        if GRAD && OUTER {
            // dΦ/dx = Σₙ (2n+1) t^{n+1} [ −(n+1)/r Pₙ(u) x̂ + Pₙ'(u)(s − u x̂)/r ]
            let c = (2 * n + 1) as f64 * tg;
            let cn = c * (n + 1) as f64;
            for l in 0..L {
                ga[0][l] -= cn * p[l];
                ga[1][l] += c * dp[l];
            }
            tg *= t;
        } else if GRAD && n >= 1 {
            // ∇[(r/a)ⁿ Pₙ(u)] = r^{n−1}/aⁿ [ n Pₙ(u) x̂ + Pₙ'(u)(s − u x̂) ];
            // the n = 0 term has zero gradient.
            let c = (2 * n + 1) as f64 * tg;
            let cn = c * n as f64;
            for l in 0..L {
                let (cp, cd) = (cn * p[l], c * dp[l]);
                for d in 0..3 {
                    ga[d][l] += cp * xhat[d] + cd * perp[d][l];
                }
            }
            tg *= t;
        }
    }

    for l in 0..L {
        if VALUE {
            row[i0 + l] = acc[l] * wts[l];
        }
        if GRAD {
            for d in 0..3 {
                grad[d][i0 + l] = if OUTER {
                    wts[l] * (ga[0][l] * xhat[d] + ga[1][l] * perp[d][l]) / r
                } else {
                    wts[l] * ga[d][l]
                };
            }
        }
    }
}

/// [`series_block`] over all K points of the rule at `x`: blocks of
/// [`LANES`], then the remainder one point at a time through the same code.
/// The inner element at its centre is exact and needs no series: the value
/// row is the weights (only n = 0 survives: the spherical mean), the
/// gradient `3 sᵢ wᵢ / a` (only n = 1). The outer element has no value there.
#[inline(always)]
fn kernel_rows<const OUTER: bool, const VALUE: bool, const GRAD: bool>(
    rule: &SphereRule,
    m: usize,
    a: f64,
    x: Vec3,
    row: &mut [f64],
    grad: &mut [Vec<f64>; 3],
) {
    let k = rule.len();
    assert!(!VALUE || row.len() == k, "value row must have K entries");
    assert!(
        !GRAD || grad.iter().all(|g| g.len() == k),
        "gradient rows must have K entries"
    );
    let r = norm(x);
    if !OUTER && r == 0.0 {
        if VALUE {
            row.copy_from_slice(&rule.weights);
        }
        if GRAD {
            for (i, (&s, &w)) in rule.points.iter().zip(&rule.weights).enumerate() {
                for d in 0..3 {
                    grad[d][i] = if m >= 1 { w * 3.0 * s[d] / a } else { 0.0 };
                }
            }
        }
        return;
    }
    let xhat = scale(x, 1.0 / r);
    // Outer: (a/r)^{n+1} for value and gradient alike. Inner: (r/a)^n for
    // the value, r^{n−1}/aⁿ from n = 1 for the gradient.
    let (t, t0) = if OUTER {
        (a / r, (a / r, a / r))
    } else {
        (r / a, (1.0, 1.0 / a))
    };
    let full = k - k % LANES;
    for i0 in (0..full).step_by(LANES) {
        series_block::<LANES, OUTER, VALUE, GRAD>(rule, m, xhat, r, t, t0, i0, row, grad);
    }
    for i0 in full..k {
        series_block::<1, OUTER, VALUE, GRAD>(rule, m, xhat, r, t, t0, i0, row, grad);
    }
}

/// A release build would otherwise fill the row with NaN and carry on.
#[track_caller]
fn assert_off_centre(function: &str, x: Vec3) {
    assert!(
        norm(x) > 0.0,
        "{function}: x = {x:?} is the sphere centre, where the outer approximation is undefined"
    );
}

/// Fill `row[i] = wᵢ Σₙ₌₀^M (2n+1)(a/r)ⁿ⁺¹ Pₙ(sᵢ·x̂)` so that the outer
/// approximation at `x` (relative to the sphere centre) is `row · g`.
///
/// Panics if `x` is the centre: the outer element is only ever evaluated
/// in the far field, `r > 0`.
pub fn outer_kernel_row(rule: &SphereRule, m: usize, a: f64, x: Vec3, row: &mut [f64]) {
    assert_off_centre("outer_kernel_row", x);
    kernel_rows::<true, true, false>(rule, m, a, x, row, &mut Default::default());
}

/// Fill `row[i] = wᵢ Σₙ₌₀^M (2n+1)(r/a)ⁿ Pₙ(sᵢ·x̂)` so that the inner
/// approximation at `x` (relative to the sphere centre) is `row · g`.
///
/// Well-defined at the centre (only the n = 0 term survives: the value at
/// the centre of a harmonic function is its spherical mean).
pub fn inner_kernel_row(rule: &SphereRule, m: usize, a: f64, x: Vec3, row: &mut [f64]) {
    kernel_rows::<false, true, false>(rule, m, a, x, row, &mut Default::default());
}

/// Gradient version of [`outer_kernel_row`]: fills `rows[d][i]` with
/// ∂/∂x_d of the outer kernel, so that ∇Φ(x) = (rows[0]·g, rows[1]·g,
/// rows[2]·g). Panics if `x` is the centre.
pub fn outer_kernel_row_grad(
    rule: &SphereRule,
    m: usize,
    a: f64,
    x: Vec3,
    rows: &mut [Vec<f64>; 3],
) {
    assert_off_centre("outer_kernel_row_grad", x);
    kernel_rows::<true, false, true>(rule, m, a, x, &mut [], rows);
}

/// Gradient version of [`inner_kernel_row`]. Well-defined at the centre
/// (where only the n = 1 term contributes: ∇ = 3 sᵢ / a).
pub fn inner_kernel_row_grad(
    rule: &SphereRule,
    m: usize,
    a: f64,
    x: Vec3,
    rows: &mut [Vec<f64>; 3],
) {
    kernel_rows::<false, false, true>(rule, m, a, x, &mut [], rows);
}

/// [`inner_kernel_row`] and [`inner_kernel_row_grad`] in one pass over the
/// same `Pₙ`: what a force evaluation needs per particle. Each output has
/// the bits the separate calls give.
pub fn inner_kernel_row_with_grad(
    rule: &SphereRule,
    m: usize,
    a: f64,
    x: Vec3,
    row: &mut [f64],
    rows: &mut [Vec<f64>; 3],
) {
    kernel_rows::<false, true, true>(rule, m, a, x, row, rows);
}

/// An outer (far-field) sphere approximation: centre, radius, and the K
/// potential samples on the sphere.
#[derive(Debug, Clone)]
pub struct OuterApprox {
    pub center: Vec3,
    pub radius: f64,
    pub g: Vec<f64>,
}

impl OuterApprox {
    /// Construct from point sources (positions absolute, charges q):
    /// g_i = Σ_j q_j / |a sᵢ + c − x_j|.
    pub fn from_particles(
        rule: &SphereRule,
        center: Vec3,
        radius: f64,
        positions: &[Vec3],
        charges: &[f64],
    ) -> Self {
        assert_eq!(positions.len(), charges.len());
        let g = rule
            .points
            .iter()
            .map(|&s| {
                let sp = [
                    center[0] + radius * s[0],
                    center[1] + radius * s[1],
                    center[2] + radius * s[2],
                ];
                positions
                    .iter()
                    .zip(charges)
                    .map(|(&x, &q)| q / norm(sub(sp, x)))
                    .sum()
            })
            .collect();
        OuterApprox { center, radius, g }
    }

    /// Evaluate the approximation at an absolute point `x` outside the
    /// sphere, truncating the Legendre series at `m`.
    pub fn evaluate(&self, rule: &SphereRule, m: usize, x: Vec3) -> f64 {
        let mut row = vec![0.0; rule.len()];
        outer_kernel_row(rule, m, self.radius, sub(x, self.center), &mut row);
        row.iter().zip(&self.g).map(|(r, g)| r * g).sum()
    }

    /// Gradient of the approximation at an absolute point `x`.
    pub fn evaluate_grad(&self, rule: &SphereRule, m: usize, x: Vec3) -> Vec3 {
        let mut rows = [
            vec![0.0; rule.len()],
            vec![0.0; rule.len()],
            vec![0.0; rule.len()],
        ];
        outer_kernel_row_grad(rule, m, self.radius, sub(x, self.center), &mut rows);
        let mut g = [0.0; 3];
        for d in 0..3 {
            g[d] = rows[d].iter().zip(&self.g).map(|(r, gg)| r * gg).sum();
        }
        g
    }
}

/// An inner (local-field) sphere approximation: centre, radius, and the K
/// potential samples on the sphere.
#[derive(Debug, Clone)]
pub struct InnerApprox {
    pub center: Vec3,
    pub radius: f64,
    pub g: Vec<f64>,
}

impl InnerApprox {
    /// Construct from far sources by sampling their exact potential on the
    /// sphere.
    pub fn from_particles(
        rule: &SphereRule,
        center: Vec3,
        radius: f64,
        positions: &[Vec3],
        charges: &[f64],
    ) -> Self {
        let g = rule
            .points
            .iter()
            .map(|&s| {
                let sp = [
                    center[0] + radius * s[0],
                    center[1] + radius * s[1],
                    center[2] + radius * s[2],
                ];
                positions
                    .iter()
                    .zip(charges)
                    .map(|(&x, &q)| q / norm(sub(sp, x)))
                    .sum()
            })
            .collect();
        InnerApprox { center, radius, g }
    }

    /// Evaluate the approximation at an absolute point `x` inside the
    /// sphere.
    pub fn evaluate(&self, rule: &SphereRule, m: usize, x: Vec3) -> f64 {
        let mut row = vec![0.0; rule.len()];
        inner_kernel_row(rule, m, self.radius, sub(x, self.center), &mut row);
        row.iter().zip(&self.g).map(|(r, g)| r * g).sum()
    }

    /// Gradient of the approximation at an absolute point `x`.
    pub fn evaluate_grad(&self, rule: &SphereRule, m: usize, x: Vec3) -> Vec3 {
        let mut rows = [
            vec![0.0; rule.len()],
            vec![0.0; rule.len()],
            vec![0.0; rule.len()],
        ];
        inner_kernel_row_grad(rule, m, self.radius, sub(x, self.center), &mut rows);
        let mut g = [0.0; 3];
        for d in 0..3 {
            g[d] = rows[d].iter().zip(&self.g).map(|(r, gg)| r * gg).sum();
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::SphereRule;

    #[test]
    fn point_charge_at_centre_exact() {
        // g = q/a on the whole sphere; only n = 0 survives and gives q/r
        // exactly for any rule and any M ≥ 0.
        let rule = SphereRule::icosahedron();
        let outer = OuterApprox::from_particles(&rule, [0.0; 3], 1.0, &[[0.0; 3]], &[2.5]);
        for &r in &[1.5, 2.0, 10.0] {
            let v = outer.evaluate(&rule, 0, [r, 0.0, 0.0]);
            assert!((v - 2.5 / r).abs() < 1e-12, "r={} v={}", r, v);
        }
    }

    #[test]
    fn off_centre_charge_converges_with_distance() {
        // The error decays with distance until it hits the discretization
        // floor ~ (|p|/a)^(D+1) — Anderson's error analysis, and the reason
        // the paper's Table 2 tunes the sphere radii per integration order.
        let rule = SphereRule::icosahedron();
        let m = 2;
        let q = 1.0;
        let p = [0.3, 0.1, -0.2]; // |p| ≈ 0.374, floor ≈ 5e-4
        let outer = OuterApprox::from_particles(&rule, [0.0; 3], 1.0, &[p], &[q]);
        let mut last = f64::INFINITY;
        for &r in &[2.0, 4.0, 8.0] {
            let x = [r, 0.0, 0.0];
            let exact = q / norm(sub(x, p));
            let err = (outer.evaluate(&rule, m, x) - exact).abs() / exact;
            assert!(err < last * 0.9, "error not decaying: r={} err={}", r, err);
            last = err;
        }
        assert!(last < 2e-3, "far-field error too large: {}", last);
        // A higher-degree rule lowers the floor at the same geometry.
        let rule14 = SphereRule::product(14);
        let outer14 = OuterApprox::from_particles(&rule14, [0.0; 3], 1.0, &[p], &[q]);
        let x = [8.0, 0.0, 0.0];
        let exact = q / norm(sub(x, p));
        let err14 = (outer14.evaluate(&rule14, 7, x) - exact).abs() / exact;
        assert!(
            err14 < last / 50.0,
            "D=14 floor {} not ≪ D=5 floor {}",
            err14,
            last
        );
    }

    #[test]
    fn inner_value_at_centre_is_spherical_mean() {
        let rule = SphereRule::product(8);
        let sources = [[5.0, 1.0, 0.0], [-4.0, 2.0, 3.0]];
        let charges = [1.0, -2.0];
        let inner = InnerApprox::from_particles(&rule, [0.0; 3], 1.0, &sources, &charges);
        let mean: f64 = inner.g.iter().zip(&rule.weights).map(|(g, w)| g * w).sum();
        let v = inner.evaluate(&rule, 6, [0.0; 3]);
        assert!((v - mean).abs() < 1e-13);
        // And the spherical mean of a harmonic function equals its value at
        // the centre (mean value property), so this should be close to the
        // true potential at the origin.
        let exact: f64 = sources
            .iter()
            .zip(&charges)
            .map(|(&s, &q)| q / norm(s))
            .sum();
        assert!((v - exact).abs() < 1e-6, "v={} exact={}", v, exact);
    }

    #[test]
    fn inner_reconstructs_far_potential() {
        let rule = SphereRule::product(10);
        let sources = [[6.0, -1.0, 2.0], [0.0, 7.0, -3.0], [-5.0, -5.0, 5.0]];
        let charges = [1.0, 0.5, -1.5];
        let a = 1.0;
        let inner = InnerApprox::from_particles(&rule, [0.0; 3], a, &sources, &charges);
        for x in [[0.2, 0.1, 0.0], [-0.3, 0.3, 0.2], [0.0, 0.0, 0.45]] {
            let exact: f64 = sources
                .iter()
                .zip(&charges)
                .map(|(&s, &q)| q / norm(sub(x, s)))
                .sum();
            let v = inner.evaluate(&rule, 5, x);
            assert!(
                (v - exact).abs() < 1e-4 * exact.abs().max(1.0),
                "x={:?} v={} exact={}",
                x,
                v,
                exact
            );
        }
    }

    #[test]
    fn outer_gradient_matches_finite_difference() {
        let rule = SphereRule::icosahedron();
        let outer = OuterApprox::from_particles(
            &rule,
            [0.0; 3],
            1.0,
            &[[0.2, -0.1, 0.3], [-0.2, 0.0, 0.1]],
            &[1.0, 2.0],
        );
        let m = 4;
        let x = [2.0, 1.0, -1.5];
        let g = outer.evaluate_grad(&rule, m, x);
        let h = 1e-6;
        for d in 0..3 {
            let mut xp = x;
            xp[d] += h;
            let mut xm = x;
            xm[d] -= h;
            let fd = (outer.evaluate(&rule, m, xp) - outer.evaluate(&rule, m, xm)) / (2.0 * h);
            assert!((fd - g[d]).abs() < 1e-6, "d={} fd={} an={}", d, fd, g[d]);
        }
    }

    #[test]
    fn inner_gradient_matches_finite_difference() {
        let rule = SphereRule::product(8);
        let inner = InnerApprox::from_particles(&rule, [0.0; 3], 1.0, &[[5.0, 2.0, -1.0]], &[3.0]);
        let m = 5;
        for x in [[0.3, -0.2, 0.1], [0.0, 0.0, 0.0]] {
            let g = inner.evaluate_grad(&rule, m, x);
            let h = 1e-6;
            for d in 0..3 {
                let mut xp = x;
                xp[d] += h;
                let mut xm = x;
                xm[d] -= h;
                let fd = (inner.evaluate(&rule, m, xp) - inner.evaluate(&rule, m, xm)) / (2.0 * h);
                assert!(
                    (fd - g[d]).abs() < 1e-5,
                    "x={:?} d={} fd={} an={}",
                    x,
                    d,
                    fd,
                    g[d]
                );
            }
        }
    }

    #[test]
    fn kernel_rows_linear_in_g() {
        // evaluate(g1 + g2) == evaluate(g1) + evaluate(g2): the element is
        // linear in the samples, the property that makes translations
        // matrices.
        let rule = SphereRule::icosahedron();
        let x = [3.0, 0.5, 1.0];
        let mut row = vec![0.0; rule.len()];
        outer_kernel_row(&rule, 3, 1.0, x, &mut row);
        let g1: Vec<f64> = (0..rule.len()).map(|i| i as f64).collect();
        let g2: Vec<f64> = (0..rule.len()).map(|i| (i * i) as f64 * 0.1).collect();
        let e = |g: &[f64]| -> f64 { row.iter().zip(g).map(|(r, g)| r * g).sum() };
        let sum: Vec<f64> = g1.iter().zip(&g2).map(|(a, b)| a + b).collect();
        assert!((e(&sum) - e(&g1) - e(&g2)).abs() < 1e-10);
    }

    #[test]
    fn higher_truncation_not_worse_in_far_field() {
        let rule = SphereRule::product(14);
        let p = [0.4, -0.3, 0.2];
        let outer = OuterApprox::from_particles(&rule, [0.0; 3], 1.0, &[p], &[1.0]);
        let x = [5.0, 2.0, 1.0];
        let exact = 1.0 / norm(sub(x, p));
        let err_low = (outer.evaluate(&rule, 1, x) - exact).abs();
        let err_high = (outer.evaluate(&rule, 7, x) - exact).abs();
        assert!(err_high < err_low);
        // M = 7 reaches the D = 14 discretization floor (~8e-6 relative at
        // this geometry); it cannot do better than the rule's degree allows.
        assert!(err_high < 1e-4 * exact);
    }
}
