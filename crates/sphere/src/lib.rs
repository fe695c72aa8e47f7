//! # fmm-sphere — sphere quadrature and Anderson's computational elements
//!
//! Anderson's variant of the fast multipole method ("an implementation of
//! the fast multipole method without multipoles") represents the far field
//! of a particle cluster by *potential samples on a sphere* plus Poisson's
//! formula, instead of multipole coefficients. This crate provides:
//!
//! * Legendre polynomials and derivatives ([`legendre`]),
//! * Gauss–Legendre nodes/weights ([`gauss`]),
//! * quadrature rules on the unit sphere exact to a chosen polynomial
//!   degree D ([`quadrature`]): polyhedral designs (tetrahedron,
//!   octahedron, cube, icosahedron) and Gauss×trapezoid product rules for
//!   arbitrary D,
//! * the outer (far-field) and inner (local-field) sphere approximations of
//!   Anderson's method, including analytic gradients ([`approximation`]),
//! * solid harmonics used to test quadrature exactness ([`harmonics`]).
//!
//! ## Conventions
//!
//! Quadrature weights are normalized to sum to **1** (they compute the
//! *spherical mean*), which absorbs the 1/4π factor of Poisson's formula:
//!
//! outer:  Φ(x) ≈ Σᵢ \[ Σₙ₌₀^M (2n+1) (a/r)ⁿ⁺¹ Pₙ(sᵢ·x̂) \] g(a sᵢ) wᵢ
//!
//! inner:  Ψ(x) ≈ Σᵢ \[ Σₙ₌₀^M (2n+1) (r/a)ⁿ   Pₙ(sᵢ·x̂) \] g(a sᵢ) wᵢ
//!
//! With these conventions a unit point charge at the sphere centre, sampled
//! as g = 1/a, reproduces Φ(x) = 1/r exactly from the n = 0 term alone —
//! the first unit test of the crate.

#![forbid(unsafe_code)]

pub mod approximation;
pub mod gauss;
pub mod harmonics;
pub mod legendre;
pub mod quadrature;

pub use approximation::{
    inner_kernel_row, inner_kernel_row_grad, inner_kernel_row_with_grad, outer_kernel_row,
    outer_kernel_row_grad, InnerApprox, OuterApprox,
};
pub use quadrature::{Mirror, SphereRule, SphereRuleKind};

/// A point or vector in 3-space. A plain array keeps the crate
/// dependency-free and lets slices of points be viewed as flat f64 buffers.
pub type Vec3 = [f64; 3];

/// Euclidean norm.
#[inline]
pub fn norm(v: Vec3) -> f64 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

/// Dot product.
#[inline]
pub fn dot(a: Vec3, b: Vec3) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// `a - b`.
#[inline]
pub fn sub(a: Vec3, b: Vec3) -> Vec3 {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

/// `a + b`.
#[inline]
pub fn add(a: Vec3, b: Vec3) -> Vec3 {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// `s * a`.
#[inline]
pub fn scale(a: Vec3, s: f64) -> Vec3 {
    [a[0] * s, a[1] * s, a[2] * s]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_ops() {
        let a = [1.0, 2.0, 2.0];
        assert!((norm(a) - 3.0).abs() < 1e-15);
        assert_eq!(dot(a, [1.0, 0.0, 0.0]), 1.0);
        assert_eq!(sub(a, a), [0.0; 3]);
        assert_eq!(add(a, scale(a, -1.0)), [0.0; 3]);
    }
}
