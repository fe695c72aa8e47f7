//! One SIMD vector type per tier and precision behind the [`Lanes`]
//! trait: all a tier contributes to this crate's microkernels, the GEMM
//! tile ([`crate::kernel`]) and the near-field bodies ([`crate::pairwise`]).
//! Each body is written once over `Lanes` and reached only through
//! concrete entry points (`kernel::x86::gemm_acc_rows_avx512`, …), one
//! instantiation each under the tier's `#[target_feature]` and neither
//! generic nor `#[inline]`: each is compiled once, here, so the copy a
//! rate probe times is the copy every executor runs. The GEMM has one
//! entry point per tier, the row-indexed one the traversal calls.
//!
//! This header is the table of record for what a tier is. The GEMM tile
//! is rows × vectors × lanes; rsqrt seed, Newton–Raphson steps and lane
//! sum are the pairwise kernels'.
//!
//! | tier     | `Lanes` f64 / f32             | lanes  | GEMM tile | rsqrt seed f64 / f32                             | NR steps | lane sum                              |
//! |----------|-------------------------------|--------|-----------|--------------------------------------------------|----------|---------------------------------------|
//! | scalar   | — (own bodies)                | 1 / 1  | —         | `1.0 / x.sqrt()`, exact                          | —        | running sum in source order           |
//! | avx2+fma | `__m256d` / `__m256`          | 4 / 8  | 2 × 4 × 4 | `rsqrt_ps` (2⁻¹²) of the f32-narrowed r² / of r² | 3 / 2    | halves, then pairs, then the last two |
//! | avx512   | `__m512d` / `__m512`          | 8 / 16 | 4 × 4 × 8 | `rsqrt14_pd` / `rsqrt14_ps` (2⁻¹⁴)               | 2 / 1    | `_mm512_reduce_add_{pd,ps}`           |
//! | neon     | `float64x2_t` / `float32x4_t` | 2 / 4  | 2 × 4 × 2 | `vrsqrte` (~2⁻⁸)                                 | 3 / 2    | `vaddvq`                              |
//!
//! The GEMM is `gemm_acc_rows_with`, each row of `A` and `C` at its own
//! offsets. Its scalar tier goes row by row, rank-1 updates in pairs of
//! `p`. A vector GEMM column is `c ← fma(a_ip, b_pj, c)` for `p`
//! ascending, from the stored `c`.
//!
//! What a tier does after its last whole vector, of sources (pairwise) or
//! of columns (GEMM):
//!
//! | tier     | `gather` | `exchange`, panel | `exchange_f32`, panel | `force_exchange`, panel | `force_exchange_f32`, panel | GEMM   |
//! |----------|----------|-------------------|-----------------------|-------------------------|-----------------------------|--------|
//! | avx2+fma | scalar   | scalar            | scalar                | scalar                  | scalar                      | scalar |
//! | avx512   | masked   | masked            | masked                | masked                  | masked                      | masked |
//! | neon     | scalar   | scalar            | scalar                | scalar                  | scalar                      | scalar |
//!
//! *masked*: one more vector under a mask of the live leading lanes
//! ([`Lanes::FULL`] shifted down), the dead lanes neither read nor
//! written. *scalar*: a pairwise body hands the rest of the run to the
//! scalar body, seeded with the vector partial sums; a GEMM column is
//! `c + Σ_p a_ip·b_pj`, the sum formed from 0 apart from `c`, unfused.
//! The policy is a const parameter of each body, named where each entry
//! point instantiates it. The two exchanges are one body, whose output
//! count (the potential, or the potential and the field) is another
//! const parameter. A panel (either exchange, f64 or f32) is two targets
//! per source sweep on AVX-512, the odd last one alone; on the other
//! tiers it is one single-target call per target, so it has their tails. `tests/gemm_bits.rs` and `tests/pairwise_bits.rs` hold
//! every x86 tier to these rows, bit for bit.
//!
//! Checked on x86: the generic bodies at NEON's widths and tail policy
//! through a portable lane type (unit tests here and in `pairwise.rs`).
//! Still needing an aarch64 host: the two NEON impls at the end of this
//! file — one intrinsic per method bar `rsqrt_nr` and the f32 scatter —
//! which CI cross-builds and lints but no one here can run.

// Hosts with no vector tier still build the vector bodies' source.
#![cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(dead_code, unused_macros)
)]

use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// `f64` or `f32`: what a lane holds and the scalar bodies compute in.
pub(crate) trait Real:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + Into<f64>
{
    const ZERO: Self;
    const ONE: Self;
    fn sqrt(self) -> Self;
}

impl Real for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
}

impl Real for f32 {
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    #[inline(always)]
    fn sqrt(self) -> f32 {
        f32::sqrt(self)
    }
}

/// One SIMD vector of `WIDTH` lanes of `Elem`. Implemented for the x86
/// and NEON register types below; each method there is the named
/// intrinsic(s) and nothing else.
///
/// A `mask` names the lanes a memory operation touches, bit `l` for lane
/// `l`: [`Lanes::FULL`] in every whole-vector iteration, `FULL` shifted
/// down to the live leading lanes in a masked tail. Only a tier with
/// `MASKED_TAIL` honours it; the others are only ever handed `FULL`,
/// which the bodies check at compile time.
///
/// # Safety
/// Every method requires the CPU features of the implementing type's tier
/// (module header), and the pointer it takes, if any, to be valid for the
/// lanes its mask names.
pub(crate) trait Lanes: Copy {
    type Elem: Real;
    const WIDTH: usize;
    const FULL: u16 = u16::MAX >> (16 - Self::WIDTH);
    const MASKED_TAIL: bool = false;

    unsafe fn splat(v: Self::Elem) -> Self;
    /// The lanes in `mask` from `p`, unaligned; the rest 0.
    unsafe fn load(p: *const Self::Elem, mask: u16) -> Self;
    /// The lanes in `mask` to `p`, unaligned; the memory of the rest untouched.
    unsafe fn store(p: *mut Self::Elem, v: Self, mask: u16);
    unsafe fn sub(a: Self, b: Self) -> Self;
    unsafe fn mul(a: Self, b: Self) -> Self;
    /// `a·b + c`, fused.
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
    /// `r2^{-1/2}` per lane: the tier's seed instruction refined by its
    /// number of Newton–Raphson steps.
    unsafe fn rsqrt_nr(r2: Self) -> Self;
    /// `r2` with the lanes outside `mask` set to 1.
    #[inline(always)]
    unsafe fn pin_dead(r2: Self, _mask: u16) -> Self {
        r2
    }
    /// Sum of the lanes, in the tier's own association.
    unsafe fn hsum(v: Self) -> Self::Elem;
    // Each default below is written in terms of the other: an f32 type
    // implements `scatter_add`, an f64 type `scatter_fma`.
    /// `out[l] += v[l]` for the f64 slots in `mask`. f32 lanes are widened
    /// first, so source-side rounding never accumulates in f32; for f64
    /// lanes `v·1 + out` in one rounding is the exact sum.
    #[inline(always)]
    unsafe fn scatter_add(out: *mut f64, v: Self, mask: u16) {
        Self::scatter_fma(out, v, Self::splat(Self::Elem::ONE), mask)
    }
    /// `out[l] += a[l]·b[l]`: f32 lanes round the product and widen it,
    /// f64 lanes fuse it into one rounding.
    #[inline(always)]
    unsafe fn scatter_fma(out: *mut f64, a: Self, b: Self, mask: u16) {
        Self::scatter_add(out, Self::mul(a, b), mask)
    }
    #[inline(always)]
    unsafe fn zero() -> Self {
        Self::splat(Self::Elem::ZERO)
    }
}

/// The [`Lanes`] methods that are one intrinsic each, by its name; `load`,
/// `store` and `fma` also by their argument order.
macro_rules! one_intrinsic {
    (
        splat = $splat:ident, sub = $sub:ident, mul = $mul:ident,
        load($p:ident, $mask:ident) = $load:expr,
        store($sp:ident, $sv:ident, $smask:ident) = $store:expr,
        fma($a:ident, $b:ident, $c:ident) = $fma:expr
    ) => {
        #[inline(always)]
        unsafe fn splat(v: Self::Elem) -> Self {
            $splat(v)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            $sub(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            $mul(a, b)
        }
        #[inline(always)]
        unsafe fn load($p: *const Self::Elem, $mask: u16) -> Self {
            $load
        }
        #[inline(always)]
        unsafe fn store($sp: *mut Self::Elem, $sv: Self, $smask: u16) {
            $store
        }
        #[inline(always)]
        unsafe fn fma($a: Self, $b: Self, $c: Self) -> Self {
            $fma
        }
    };
}

// ---------------------------------------------------------------- x86-64

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;
    use core::arch::x86_64::*;

    /// AVX2+FMA, f64.
    impl Lanes for __m256d {
        type Elem = f64;
        const WIDTH: usize = 4;
        one_intrinsic! {
            splat = _mm256_set1_pd, sub = _mm256_sub_pd, mul = _mm256_mul_pd,
            load(p, _mask) = _mm256_loadu_pd(p),
            store(p, v, _mask) = _mm256_storeu_pd(p, v),
            fma(a, b, c) = _mm256_fmadd_pd(a, b, c)
        }
        /// ~4e-4 → 1e-7 → 1e-14 → ~1 ulp.
        #[inline(always)]
        unsafe fn rsqrt_nr(r2: Self) -> Self {
            let mut y = _mm256_cvtps_pd(_mm_rsqrt_ps(_mm256_cvtpd_ps(r2)));
            let half = _mm256_set1_pd(0.5);
            let three = _mm256_set1_pd(3.0);
            for _ in 0..3 {
                // y ← ½·y·(3 − r²·y²)
                let y2 = _mm256_mul_pd(y, y);
                let t = _mm256_fnmadd_pd(r2, y2, three);
                y = _mm256_mul_pd(_mm256_mul_pd(half, y), t);
            }
            y
        }
        #[inline(always)]
        unsafe fn hsum(v: Self) -> f64 {
            let lo = _mm256_castpd256_pd128(v);
            let hi = _mm256_extractf128_pd(v, 1);
            let s = _mm_add_pd(lo, hi);
            _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
        }
        #[inline(always)]
        unsafe fn scatter_fma(out: *mut f64, a: Self, b: Self, mask: u16) {
            Self::store(out, Self::fma(a, b, Self::load(out, mask)), mask)
        }
    }

    /// AVX-512, f64.
    impl Lanes for __m512d {
        type Elem = f64;
        const WIDTH: usize = 8;
        const MASKED_TAIL: bool = true;
        one_intrinsic! {
            splat = _mm512_set1_pd, sub = _mm512_sub_pd, mul = _mm512_mul_pd,
            load(p, mask) = _mm512_maskz_loadu_pd(mask as __mmask8, p),
            store(p, v, mask) = _mm512_mask_storeu_pd(p, mask as __mmask8, v),
            fma(a, b, c) = _mm512_fmadd_pd(a, b, c)
        }
        /// 2⁻¹⁴ → ~6e-9 → ~5e-17, i.e. ~1 ulp.
        #[inline(always)]
        unsafe fn rsqrt_nr(r2: Self) -> Self {
            let mut y = _mm512_rsqrt14_pd(r2);
            let half = _mm512_set1_pd(0.5);
            let three = _mm512_set1_pd(3.0);
            for _ in 0..2 {
                let y2 = _mm512_mul_pd(y, y);
                let t = _mm512_fnmadd_pd(r2, y2, three);
                y = _mm512_mul_pd(_mm512_mul_pd(half, y), t);
            }
            y
        }
        #[inline(always)]
        unsafe fn hsum(v: Self) -> f64 {
            _mm512_reduce_add_pd(v)
        }
        #[inline(always)]
        unsafe fn pin_dead(r2: Self, mask: u16) -> Self {
            _mm512_mask_mov_pd(_mm512_set1_pd(1.0), mask as __mmask8, r2)
        }
        #[inline(always)]
        unsafe fn scatter_fma(out: *mut f64, a: Self, b: Self, mask: u16) {
            Self::store(out, Self::fma(a, b, Self::load(out, mask)), mask)
        }
    }

    /// AVX2+FMA, f32.
    impl Lanes for __m256 {
        type Elem = f32;
        const WIDTH: usize = 8;
        one_intrinsic! {
            splat = _mm256_set1_ps, sub = _mm256_sub_ps, mul = _mm256_mul_ps,
            load(p, _mask) = _mm256_loadu_ps(p),
            store(p, v, _mask) = _mm256_storeu_ps(p, v),
            fma(a, b, c) = _mm256_fmadd_ps(a, b, c)
        }
        #[inline(always)]
        unsafe fn rsqrt_nr(r2: Self) -> Self {
            let mut y = _mm256_rsqrt_ps(r2);
            let half = _mm256_set1_ps(0.5);
            let three = _mm256_set1_ps(3.0);
            for _ in 0..2 {
                let y2 = _mm256_mul_ps(y, y);
                let t = _mm256_fnmadd_ps(r2, y2, three);
                y = _mm256_mul_ps(_mm256_mul_ps(half, y), t);
            }
            y
        }
        #[inline(always)]
        unsafe fn hsum(v: Self) -> f32 {
            let lo = _mm256_castps256_ps128(v);
            let hi = _mm256_extractf128_ps(v, 1);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
            _mm_cvtss_f32(s)
        }
        #[inline(always)]
        unsafe fn scatter_add(out: *mut f64, v: Self, _mask: u16) {
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
            let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
            _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), lo));
            _mm256_storeu_pd(out.add(4), _mm256_add_pd(_mm256_loadu_pd(out.add(4)), hi));
        }
    }

    /// AVX-512, f32.
    impl Lanes for __m512 {
        type Elem = f32;
        const WIDTH: usize = 16;
        const MASKED_TAIL: bool = true;
        one_intrinsic! {
            splat = _mm512_set1_ps, sub = _mm512_sub_ps, mul = _mm512_mul_ps,
            load(p, mask) = _mm512_maskz_loadu_ps(mask, p),
            store(p, v, mask) = _mm512_mask_storeu_ps(p, mask, v),
            fma(a, b, c) = _mm512_fmadd_ps(a, b, c)
        }
        /// 2⁻¹⁴ → ~6e-9, below f32 epsilon.
        #[inline(always)]
        unsafe fn rsqrt_nr(r2: Self) -> Self {
            let y = _mm512_rsqrt14_ps(r2);
            let y2 = _mm512_mul_ps(y, y);
            let t = _mm512_fnmadd_ps(r2, y2, _mm512_set1_ps(3.0));
            _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.5), y), t)
        }
        #[inline(always)]
        unsafe fn hsum(v: Self) -> f32 {
            _mm512_reduce_add_ps(v)
        }
        #[inline(always)]
        unsafe fn pin_dead(r2: Self, mask: u16) -> Self {
            _mm512_mask_mov_ps(_mm512_set1_ps(1.0), mask, r2)
        }
        /// Per 8-lane half. The upper half is skipped when it is all dead,
        /// since `out.add(8)` may then lie past `s_out`; it comes out via
        /// an f64x4-pair bitcast (`extractf32x8` would need AVX-512DQ).
        #[inline(always)]
        unsafe fn scatter_add(out: *mut f64, v: Self, mask: u16) {
            let (mlo, mhi) = (mask as __mmask8, (mask >> 8) as __mmask8);
            let lo = _mm512_cvtps_pd(_mm512_castps512_ps256(v));
            _mm512_mask_storeu_pd(out, mlo, _mm512_add_pd(_mm512_maskz_loadu_pd(mlo, out), lo));
            if mhi != 0 {
                let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
                let (out, hi) = (out.add(8), _mm512_cvtps_pd(hi));
                _mm512_mask_storeu_pd(out, mhi, _mm512_add_pd(_mm512_maskz_loadu_pd(mhi, out), hi));
            }
        }
    }
}

// --------------------------------------------------------------- aarch64

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::Lanes;
    use core::arch::aarch64::*;

    /// `vrsqrte` seed (~2⁻⁸) + 3 `vrsqrts` steps.
    impl Lanes for float64x2_t {
        type Elem = f64;
        const WIDTH: usize = 2;
        one_intrinsic! {
            splat = vdupq_n_f64, sub = vsubq_f64, mul = vmulq_f64,
            load(p, _mask) = vld1q_f64(p),
            store(p, v, _mask) = vst1q_f64(p, v),
            fma(a, b, c) = vfmaq_f64(c, a, b)
        }
        #[inline(always)]
        unsafe fn rsqrt_nr(r2: Self) -> Self {
            let mut y = vrsqrteq_f64(r2);
            for _ in 0..3 {
                y = vmulq_f64(y, vrsqrtsq_f64(vmulq_f64(r2, y), y));
            }
            y
        }
        #[inline(always)]
        unsafe fn hsum(v: Self) -> f64 {
            vaddvq_f64(v)
        }
        #[inline(always)]
        unsafe fn scatter_fma(out: *mut f64, a: Self, b: Self, mask: u16) {
            Self::store(out, Self::fma(a, b, Self::load(out, mask)), mask)
        }
    }

    /// `vrsqrte` seed + 2 `vrsqrts` steps.
    impl Lanes for float32x4_t {
        type Elem = f32;
        const WIDTH: usize = 4;
        one_intrinsic! {
            splat = vdupq_n_f32, sub = vsubq_f32, mul = vmulq_f32,
            load(p, _mask) = vld1q_f32(p),
            store(p, v, _mask) = vst1q_f32(p, v),
            fma(a, b, c) = vfmaq_f32(c, a, b)
        }
        #[inline(always)]
        unsafe fn rsqrt_nr(r2: Self) -> Self {
            let mut y = vrsqrteq_f32(r2);
            for _ in 0..2 {
                y = vmulq_f32(y, vrsqrtsq_f32(vmulq_f32(r2, y), y));
            }
            y
        }
        #[inline(always)]
        unsafe fn hsum(v: Self) -> f32 {
            vaddvq_f32(v)
        }
        #[inline(always)]
        unsafe fn scatter_add(out: *mut f64, v: Self, _mask: u16) {
            let lo = vcvt_f64_f32(vget_low_f32(v));
            let hi = vcvt_high_f64_f32(v);
            vst1q_f64(out, vaddq_f64(vld1q_f64(out), lo));
            vst1q_f64(out.add(2), vaddq_f64(vld1q_f64(out.add(2)), hi));
        }
    }
}

// The scalar tier's model serves `tests/gemm_bits.rs` only.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../tests/gemm_model/mod.rs"]
mod gemm_model;

#[cfg(test)]
mod tests {
    use super::gemm_model::{assert_matches_model, Tier};
    use super::{Lanes, Real};
    use crate::kernel::gemm_acc_body;

    /// `self·a + b`, fused: the array lanes' `fma`.
    trait MulAdd {
        fn mul_add(self, a: Self, b: Self) -> Self;
    }

    impl MulAdd for f64 {
        fn mul_add(self, a: f64, b: f64) -> f64 {
            f64::mul_add(self, a, b)
        }
    }

    impl MulAdd for f32 {
        fn mul_add(self, a: f32, b: f32) -> f32 {
            f32::mul_add(self, a, b)
        }
    }

    /// NEON's shape without NEON: `N` lanes in a plain array (2 of f64, 4 of
    /// f32), an exact `1/sqrt` where NEON refines an estimate, no masked
    /// tail, and the f32 scatter in widened pieces. What it shares with
    /// the NEON tier is everything but the intrinsics: loop bounds, the
    /// hand-off to the scalar tail and the indexing of every load and store.
    impl<T: Real + MulAdd, const N: usize> Lanes for [T; N] {
        type Elem = T;
        const WIDTH: usize = N;
        unsafe fn splat(v: T) -> Self {
            [v; N]
        }
        unsafe fn load(p: *const T, _mask: u16) -> Self {
            core::array::from_fn(|l| *p.add(l))
        }
        unsafe fn store(p: *mut T, v: Self, _mask: u16) {
            for (l, x) in v.into_iter().enumerate() {
                *p.add(l) = x;
            }
        }
        unsafe fn sub(a: Self, b: Self) -> Self {
            core::array::from_fn(|l| a[l] - b[l])
        }
        unsafe fn mul(a: Self, b: Self) -> Self {
            core::array::from_fn(|l| a[l] * b[l])
        }
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
            core::array::from_fn(|l| a[l].mul_add(b[l], c[l]))
        }
        unsafe fn rsqrt_nr(r2: Self) -> Self {
            r2.map(|x| T::ONE / x.sqrt())
        }
        unsafe fn hsum(v: Self) -> T {
            let mut sum = T::ZERO;
            for x in v {
                sum += x;
            }
            sum
        }
        unsafe fn scatter_add(out: *mut f64, v: Self, _mask: u16) {
            for (l, x) in v.into_iter().enumerate() {
                *out.add(l) += x.into();
            }
        }
    }

    /// The row-indexed GEMM body at NEON's width and tail policy (2 × 4 ×
    /// 2, scalar tail columns) and at AVX2's (2 × 4 × 4), its rows handed
    /// over last to first, holds to the same model as every hardware tier
    /// in `tests/gemm_bits.rs`.
    #[test]
    fn gemm_body_through_array_lanes_matches_the_model() {
        fn check<L: Lanes<Elem = f64>>() {
            let tier = Tier::Vector {
                width: L::WIDTH,
                masked: false,
            };
            let what = format!("[f64; {}] rows", L::WIDTH);
            assert_matches_model(tier, &what, |m, k, n, a, b, c| {
                let rows: Vec<_> = (0..m).rev().map(|i| (i * k, i * n)).collect();
                // SAFETY: the array lanes need no CPU feature, and every
                // row lies inside the model's `m × k` and `m × n` slices.
                unsafe { gemm_acc_body::<L, 2, false>(k, n, a, &rows, b, c) }
            });
        }
        check::<[f64; 2]>();
        check::<[f64; 4]>();
    }
}
