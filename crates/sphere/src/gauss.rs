//! Gauss–Legendre quadrature on [−1, 1].
//!
//! Used to build product quadrature rules on the sphere: an `nθ`-point
//! Gauss rule in cos θ crossed with an equispaced trapezoid rule in φ
//! integrates spherical polynomials exactly up to degree
//! min(2·nθ − 1, nφ − 1).

use crate::legendre::legendre_all_with_deriv;

/// Nodes and weights of the `n`-point Gauss–Legendre rule on [−1, 1],
/// nodes ascending.
///
/// The positive nodes are roots of Pₙ found by Newton iteration from the
/// Chebyshev-like initial guess; weights are 2 / ((1 − x²) Pₙ'(x)²).
/// Accurate to ~1e-15 for the modest n (≤ 64) used by sphere rules.
///
/// The rule is symmetric by construction, not by luck of rounding: node
/// n−1−i is exactly −(node i) with the same weight, and an odd rule's
/// middle node is exactly 0.0. A product rule's z mirror, which the
/// translation set derives matrices from, rests on this.
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1, "need at least one node");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let mut p = vec![0.0; n + 1];
    let mut dp = vec![0.0; n + 1];
    // The cos ladder's first n/2 guesses are the positive roots, descending.
    for i in 0..n / 2 {
        // Initial guess (Abramowitz & Stegun 25.4.38-style).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        for _ in 0..100 {
            legendre_all_with_deriv(n, x, &mut p, &mut dp);
            let dx = p[n] / dp[n];
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let w = weight(n, x, &mut p, &mut dp);
        (nodes[n - 1 - i], weights[n - 1 - i]) = (x, w);
        (nodes[i], weights[i]) = (-x, w);
    }
    if n % 2 == 1 {
        weights[n / 2] = weight(n, 0.0, &mut p, &mut dp);
    }
    (nodes, weights)
}

/// The Gauss weight 2 / ((1 − x²) Pₙ'(x)²) of node x.
fn weight(n: usize, x: f64, p: &mut [f64], dp: &mut [f64]) -> f64 {
    legendre_all_with_deriv(n, x, p, dp);
    2.0 / ((1.0 - x * x) * dp[n] * dp[n])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn integrate(n: usize, f: impl Fn(f64) -> f64) -> f64 {
        let (x, w) = gauss_legendre(n);
        x.iter().zip(&w).map(|(&xi, &wi)| wi * f(xi)).sum()
    }

    #[test]
    fn weights_sum_to_two() {
        for n in 1..40 {
            let (_, w) = gauss_legendre(n);
            let s: f64 = w.iter().sum();
            assert!((s - 2.0).abs() < 1e-13, "n={} sum={}", n, s);
        }
    }

    #[test]
    fn exact_for_polynomials_up_to_2n_minus_1() {
        for n in 1..12usize {
            for d in 0..=(2 * n - 1) {
                let approx = integrate(n, |x| x.powi(d as i32));
                let exact = if d % 2 == 1 {
                    0.0
                } else {
                    2.0 / (d as f64 + 1.0)
                };
                assert!(
                    (approx - exact).abs() < 1e-12,
                    "n={} d={} approx={} exact={}",
                    n,
                    d,
                    approx,
                    exact
                );
            }
        }
    }

    #[test]
    fn not_exact_beyond_degree() {
        // x^(2n) is not integrated exactly by the n-point rule.
        let n = 3;
        let approx = integrate(n, |x| x.powi(2 * n as i32));
        let exact = 2.0 / (2.0 * n as f64 + 1.0);
        assert!((approx - exact).abs() > 1e-6);
    }

    #[test]
    fn nodes_bit_symmetric_and_sorted() {
        for n in 1..=64 {
            let (x, w) = gauss_legendre(n);
            for i in 0..n {
                let j = n - 1 - i;
                let mirror = if i == j { 0.0 } else { -x[j] };
                assert_eq!(x[i].to_bits(), mirror.to_bits(), "n = {n}, node {i}");
                assert_eq!(w[i].to_bits(), w[j].to_bits(), "n = {n}, weight {i}");
            }
            assert!(x.windows(2).all(|p| p[0] < p[1]), "n = {n}: not ascending");
        }
    }

    /// FNV-1a over every node and weight bit for n = 1..=11 (every rule an
    /// order ≤ 21 uses), recorded from the Newton iteration over all n roots
    /// and a sort, before the rule was made symmetric by construction. For
    /// these n that iteration happened to be bit-symmetric already, so the
    /// rebuilt rule must not move a bit of them.
    #[test]
    fn bits_are_pinned_through_n_11() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for n in 1..=11 {
            let (x, w) = gauss_legendre(n);
            for v in x.iter().chain(&w) {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 0xc2aa_a228_56cb_5365);
    }

    #[test]
    fn transcendental_integral_converges() {
        // ∫_{-1}^{1} e^x dx = e - 1/e.
        let exact = std::f64::consts::E - 1.0 / std::f64::consts::E;
        let approx = integrate(12, f64::exp);
        assert!((approx - exact).abs() < 1e-13);
    }
}
