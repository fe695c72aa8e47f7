//! Quadrature rules on the unit sphere.
//!
//! Anderson's method needs a rule `{(sᵢ, wᵢ)}` exact for spherical
//! polynomials up to a chosen *integration order* D; D controls the error
//! decay rate of the sphere approximations (the paper's Table 2). The
//! paper uses K = 12 points for D = 5 (the icosahedral rule) and a 72-point
//! rule for D = 14 (McLaren's rule, whose coefficients are not in the
//! paper). We provide the classical polyhedral designs for low D and
//! Gauss × trapezoid product rules for arbitrary D — the behaviour of the
//! method depends on D, not on which minimal rule realizes it (see
//! DESIGN.md §3 for this substitution).
//!
//! Weights are normalized to sum to 1 (spherical mean convention).

use crate::gauss::gauss_legendre;
use crate::Vec3;

/// How a [`SphereRule`] was constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SphereRuleKind {
    /// Regular tetrahedron vertices: K = 4, exact to degree 2.
    Tetrahedron,
    /// Regular octahedron vertices: K = 6, exact to degree 3.
    Octahedron,
    /// Cube vertices: K = 8, exact to degree 3.
    Cube,
    /// Regular icosahedron vertices: K = 12, exact to degree 5 (the paper's
    /// D = 5 configuration).
    Icosahedron,
    /// Gauss–Legendre × trapezoid product rule, exact to the stored degree.
    Product,
}

/// A sign flip of the coordinate axes that maps a rule onto itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mirror {
    /// Bit c set: axis c is negated — the encoding of an octant index, so
    /// the flip sends child octant `oct` to `oct ^ flips`.
    pub flips: usize,
    /// `sigma[i]`: the point the flip sends point i to. An involution.
    pub sigma: Vec<usize>,
}

impl Mirror {
    /// The flipped vector.
    #[inline]
    pub fn apply<T: Copy + std::ops::Neg<Output = T>>(&self, v: [T; 3]) -> [T; 3] {
        std::array::from_fn(|c| {
            if self.flips >> c & 1 == 1 {
                -v[c]
            } else {
                v[c]
            }
        })
    }
}

/// A quadrature rule on the unit sphere: K points, K weights summing to 1,
/// exact for spherical polynomials of total degree ≤ `degree`.
#[derive(Debug, Clone)]
pub struct SphereRule {
    pub kind: SphereRuleKind,
    pub degree: usize,
    pub points: Vec<Vec3>,
    pub weights: Vec<f64>,
}

impl SphereRule {
    /// Number of integration points K.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Spherical mean of `f` under the rule.
    pub fn integrate(&self, mut f: impl FnMut(Vec3) -> f64) -> f64 {
        self.points
            .iter()
            .zip(&self.weights)
            .map(|(&p, &w)| w * f(p))
            .sum()
    }

    /// The non-identity sign flips g ∈ {±1}³ under which the rule is
    /// invariant: g·sᵢ equals some s_σ(i) by value (so ±0.0 match) with a
    /// weight of the same bits. A kernel row depends on its point only
    /// through |x| and sᵢ·x, both exact under a flip, so the row at g·x is
    /// the row at x permuted by σ, to the bit. The tetrahedron has its 3
    /// double flips; the octahedron, cube and icosahedron all 7; a product
    /// rule only the z flip (its Gauss nodes are symmetric by construction,
    /// its azimuths are not under rounding).
    pub fn mirrors(&self) -> Vec<Mirror> {
        (1..8)
            .filter_map(|flips| {
                let mut mirror = Mirror {
                    flips,
                    sigma: Vec::with_capacity(self.len()),
                };
                for (s, w) in self.points.iter().zip(&self.weights) {
                    let image = mirror.apply(*s);
                    let j = self
                        .points
                        .iter()
                        .zip(&self.weights)
                        .position(|(t, v)| *t == image && v.to_bits() == w.to_bits())?;
                    mirror.sigma.push(j);
                }
                Some(mirror)
            })
            .collect()
    }

    /// The regular tetrahedron rule: K = 4, degree 2.
    pub fn tetrahedron() -> Self {
        let s = 1.0 / 3f64.sqrt();
        let points = vec![[s, s, s], [s, -s, -s], [-s, s, -s], [-s, -s, s]];
        let weights = vec![0.25; 4];
        SphereRule {
            kind: SphereRuleKind::Tetrahedron,
            degree: 2,
            points,
            weights,
        }
    }

    /// The regular octahedron rule: K = 6, degree 3.
    pub fn octahedron() -> Self {
        let points = vec![
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ];
        let weights = vec![1.0 / 6.0; 6];
        SphereRule {
            kind: SphereRuleKind::Octahedron,
            degree: 3,
            points,
            weights,
        }
    }

    /// The cube-vertex rule: K = 8, degree 3.
    pub fn cube() -> Self {
        let s = 1.0 / 3f64.sqrt();
        let mut points = Vec::with_capacity(8);
        for &x in &[-s, s] {
            for &y in &[-s, s] {
                for &z in &[-s, s] {
                    points.push([x, y, z]);
                }
            }
        }
        let weights = vec![0.125; 8];
        SphereRule {
            kind: SphereRuleKind::Cube,
            degree: 3,
            points,
            weights,
        }
    }

    /// The regular icosahedron rule: K = 12, degree 5. This is the paper's
    /// D = 5 / K = 12 configuration.
    pub fn icosahedron() -> Self {
        let phi = (1.0 + 5f64.sqrt()) / 2.0;
        let norm = (1.0 + phi * phi).sqrt();
        let a = 1.0 / norm;
        let b = phi / norm;
        // Cyclic permutations of (0, ±1, ±φ) / |(1, φ)|.
        let mut points = Vec::with_capacity(12);
        for &s1 in &[-1.0, 1.0] {
            for &s2 in &[-1.0, 1.0] {
                points.push([0.0, s1 * a, s2 * b]);
                points.push([s1 * a, s2 * b, 0.0]);
                points.push([s2 * b, 0.0, s1 * a]);
            }
        }
        let weights = vec![1.0 / 12.0; 12];
        SphereRule {
            kind: SphereRuleKind::Icosahedron,
            degree: 5,
            points,
            weights,
        }
    }

    /// Gauss–Legendre (in cos θ) × trapezoid (in φ) product rule exact to
    /// degree `d`: `⌈(d+1)/2⌉ × (d+1)` points.
    pub fn product(d: usize) -> Self {
        let n_theta = d / 2 + 1; // 2·n_theta − 1 ≥ d
        let n_phi = d + 1; // trapezoid exact for e^{imφ}, |m| ≤ n_phi − 1
        let (ct, wt) = gauss_legendre(n_theta);
        let mut points = Vec::with_capacity(n_theta * n_phi);
        let mut weights = Vec::with_capacity(n_theta * n_phi);
        for (i, &c) in ct.iter().enumerate() {
            let s = (1.0 - c * c).max(0.0).sqrt();
            for j in 0..n_phi {
                let phi = 2.0 * std::f64::consts::PI * j as f64 / n_phi as f64;
                points.push([s * phi.cos(), s * phi.sin(), c]);
                // Gauss weight integrates dμ/2 over cosθ; trapezoid gives
                // 1/n_phi of the azimuthal mean.
                weights.push(wt[i] / 2.0 / n_phi as f64);
            }
        }
        SphereRule {
            kind: SphereRuleKind::Product,
            degree: d,
            points,
            weights,
        }
    }

    /// The smallest built-in rule exact to integration order `d`
    /// (polyhedral designs where available, product rule otherwise).
    pub fn for_order(d: usize) -> Self {
        match d {
            0..=2 => SphereRule::tetrahedron(),
            3 => SphereRule::octahedron(),
            4 | 5 => SphereRule::icosahedron(),
            _ => SphereRule::product(d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harmonics::solid_harmonic_basis_count;
    use crate::harmonics::spherical_harmonic_real;

    fn check_exactness(rule: &SphereRule) {
        // A rule of degree D must annihilate all real spherical harmonics
        // Y_l^m with 1 ≤ l ≤ D (their spherical mean is 0) and give 1 for
        // the constant.
        let w_sum: f64 = rule.weights.iter().sum();
        assert!((w_sum - 1.0).abs() < 1e-13, "weights sum {}", w_sum);
        for l in 1..=rule.degree {
            for m in -(l as i64)..=(l as i64) {
                let v = rule.integrate(|p| spherical_harmonic_real(l, m, p));
                assert!(
                    v.abs() < 1e-10,
                    "{:?} degree {} fails Y_{}^{}: {}",
                    rule.kind,
                    rule.degree,
                    l,
                    m,
                    v
                );
            }
        }
    }

    #[test]
    fn all_points_on_unit_sphere() {
        for rule in [
            SphereRule::tetrahedron(),
            SphereRule::octahedron(),
            SphereRule::cube(),
            SphereRule::icosahedron(),
            SphereRule::product(9),
            SphereRule::product(14),
        ] {
            for p in &rule.points {
                let n = crate::norm(*p);
                assert!((n - 1.0).abs() < 1e-12, "{:?}: |p| = {}", rule.kind, n);
            }
        }
    }

    #[test]
    fn polyhedral_rules_exact() {
        check_exactness(&SphereRule::tetrahedron());
        check_exactness(&SphereRule::octahedron());
        check_exactness(&SphereRule::cube());
        check_exactness(&SphereRule::icosahedron());
    }

    #[test]
    fn product_rules_exact() {
        for d in [4, 6, 7, 9, 11, 14] {
            check_exactness(&SphereRule::product(d));
        }
    }

    #[test]
    fn icosahedron_not_degree_6() {
        // The icosahedral rule is a 5-design but not a 6-design: some
        // degree-6 harmonic must have non-zero mean under it.
        let rule = SphereRule::icosahedron();
        let mut worst: f64 = 0.0;
        for m in -6..=6 {
            let v = rule.integrate(|p| spherical_harmonic_real(6, m, p));
            worst = worst.max(v.abs());
        }
        assert!(worst > 1e-6, "icosahedron unexpectedly exact at degree 6");
    }

    #[test]
    fn for_order_selects_smallest() {
        assert_eq!(SphereRule::for_order(2).len(), 4);
        assert_eq!(SphereRule::for_order(3).len(), 6);
        assert_eq!(SphereRule::for_order(5).len(), 12);
        assert_eq!(SphereRule::for_order(5).kind, SphereRuleKind::Icosahedron);
        let r14 = SphereRule::for_order(14);
        assert_eq!(r14.kind, SphereRuleKind::Product);
        assert_eq!(r14.len(), 8 * 15);
    }

    #[test]
    fn mirrors_per_rule_kind() {
        let flips =
            |rule: &SphereRule| -> Vec<usize> { rule.mirrors().iter().map(|g| g.flips).collect() };
        assert_eq!(flips(&SphereRule::tetrahedron()), [3, 5, 6]);
        assert_eq!(flips(&SphereRule::octahedron()), [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(flips(&SphereRule::cube()), [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(flips(&SphereRule::icosahedron()), [1, 2, 3, 4, 5, 6, 7]);
        // From d = 1: product(0) is the one point (1, 0, 0), which the y
        // flip also fixes.
        for d in 1..=24 {
            assert_eq!(flips(&SphereRule::product(d)), [4], "product({d})");
        }
        for rule in [SphereRule::icosahedron(), SphereRule::product(14)] {
            for g in rule.mirrors() {
                for (i, &j) in g.sigma.iter().enumerate() {
                    assert_eq!(g.sigma[j], i, "σ is an involution");
                    assert_eq!(g.apply(rule.points[i]), rule.points[j]);
                }
            }
        }
    }

    #[test]
    fn counts_documented() {
        // Touch the harmonics helper to document basis sizes per degree.
        assert_eq!(solid_harmonic_basis_count(5), 36);
    }

    #[test]
    fn integrate_constant_and_linear() {
        let rule = SphereRule::product(7);
        assert!((rule.integrate(|_| 3.5) - 3.5).abs() < 1e-13);
        assert!(rule.integrate(|p| p[0] + 2.0 * p[1] - p[2]).abs() < 1e-13);
        // mean of z² over sphere is 1/3.
        assert!((rule.integrate(|p| p[2] * p[2]) - 1.0 / 3.0).abs() < 1e-13);
    }
}
