//! Pairwise particle–particle microkernels for the near field.
//!
//! One target against a contiguous SoA run of sources, `Σ q_s/√(r²+ε²)`,
//! in three flavours: *gather* (target-only accumulation), *exchange*
//! (the symmetric Newton's-third-law form — the target gathers while each
//! source accumulates the reciprocal term) and *force gather* (potential
//! and field `Σ q_s·r⁻³·Δ` together). Each flavour exists in f64 and in
//! f32, dispatched over the same [`Kernel`] families as the GEMM path:
//!
//! | kernel   | f64 lanes | f32 lanes | rsqrt seed        | NR steps f64/f32 |
//! |----------|-----------|-----------|-------------------|------------------|
//! | scalar   | 1         | 1         | `1.0/x.sqrt()`    | — (exact)        |
//! | avx2+fma | 4         | 8         | `rsqrt_ps` (2⁻¹²) | 3 / 2            |
//! | avx512   | 8         | 16        | `rsqrt14` (2⁻¹⁴)  | 2 / 1            |
//! | neon     | 2         | 4         | `vrsqrte` (~2⁻⁸)  | 3 / 2            |
//!
//! Newton–Raphson squares the relative error each step (`e ← 3/2·e²`), so
//! the f64 paths land at ~1 ulp (2⁻¹⁴ → 2⁻²⁷ → 2⁻⁵³ for AVX-512) and the
//! f32 paths land below f32 machine epsilon. The f32 kernels power the
//! mixed-precision near field; their error budget is derived in DESIGN.md
//! §5.5 ("Kernel tiers and precision modes").

use crate::kernel::Kernel;

/// f64 gather: `Σ q_s/√(r²+ε²)` of one target against a source run.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gather_with(
    kernel: Kernel,
    tx: f64,
    ty: f64,
    tz: f64,
    eps2: f64,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
) -> f64 {
    debug_assert!(ys.len() == xs.len() && zs.len() == xs.len() && qs.len() == xs.len());
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers obtain the kernel from detect()/supported().
        Kernel::Avx2Fma => unsafe { x86::gather_avx2(tx, ty, tz, eps2, xs, ys, zs, qs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Kernel::Avx512 => unsafe { x86::gather_avx512(tx, ty, tz, eps2, xs, ys, zs, qs) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        Kernel::Neon => unsafe { arm::gather_neon(tx, ty, tz, eps2, xs, ys, zs, qs) },
        _ => gather_scalar(tx, ty, tz, eps2, xs, ys, zs, qs),
    }
}

/// f64 exchange: the target gathers `Σ q_s·r⁻¹` (returned) while each
/// source accumulates `q_t·r⁻¹` into `s_out`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn exchange_with(
    kernel: Kernel,
    tx: f64,
    ty: f64,
    tz: f64,
    tq: f64,
    eps2: f64,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    s_out: &mut [f64],
) -> f64 {
    debug_assert!(
        ys.len() == xs.len()
            && zs.len() == xs.len()
            && qs.len() == xs.len()
            && s_out.len() == xs.len()
    );
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers obtain the kernel from detect()/supported().
        Kernel::Avx2Fma => unsafe {
            x86::exchange_avx2(tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Kernel::Avx512 => unsafe {
            x86::exchange_avx512(tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out)
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        Kernel::Neon => unsafe { arm::exchange_neon(tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out) },
        _ => exchange_scalar(tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out),
    }
}

/// f32 exchange (mixed-precision symmetric near field). Every pairwise
/// term is computed in f32, but each source's contribution is widened to
/// f64 before the scatter-add into `s_out`, so f32 rounding never
/// *accumulates* on the source side — the caller likewise adds the
/// returned target partial into an f64 accumulator per call. This keeps
/// the f32 error per output at O(per-term) instead of O(chain length),
/// which is what the documented ≤1e-5 near-field bound relies on (see
/// DESIGN.md §5.5).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn exchange_f32_with(
    kernel: Kernel,
    tx: f32,
    ty: f32,
    tz: f32,
    tq: f32,
    eps2: f32,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    s_out: &mut [f64],
) -> f32 {
    debug_assert!(
        ys.len() == xs.len()
            && zs.len() == xs.len()
            && qs.len() == xs.len()
            && s_out.len() == xs.len()
    );
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers obtain the kernel from detect()/supported().
        Kernel::Avx2Fma => unsafe {
            x86::exchange_f32_avx2(tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Kernel::Avx512 => unsafe {
            x86::exchange_f32_avx512(tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out)
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        Kernel::Neon => unsafe {
            arm::exchange_f32_neon(tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out)
        },
        _ => exchange_f32_scalar(tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out),
    }
}

/// f32 exchange over a whole panel of targets against one source box.
/// Semantically one [`exchange_f32_with`] call per target — each target's
/// f32 partial is widened into `t_out[i]`, each source's per-term
/// contributions into `s_out[j]` — but the AVX-512 path serves two
/// targets per source sweep: source coordinates load once per chunk, the
/// two rsqrt chains interleave, and the pair's source-side contributions
/// are summed in f32 (one extra rounding within the box pair, inside the
/// documented error model) before a single widened scatter-add. Other
/// kernels fall back to the per-target routine.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn exchange_f32_panel_with(
    kernel: Kernel,
    txs: &[f32],
    tys: &[f32],
    tzs: &[f32],
    tqs: &[f32],
    eps2: f32,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    t_out: &mut [f64],
    s_out: &mut [f64],
) {
    debug_assert!(
        tys.len() == txs.len()
            && tzs.len() == txs.len()
            && tqs.len() == txs.len()
            && t_out.len() == txs.len()
    );
    debug_assert!(
        ys.len() == xs.len()
            && zs.len() == xs.len()
            && qs.len() == xs.len()
            && s_out.len() == xs.len()
    );
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers obtain the kernel from detect()/supported();
        // slice lengths checked above.
        Kernel::Avx512 => unsafe {
            x86::exchange_f32_panel_avx512(txs, tys, tzs, tqs, eps2, xs, ys, zs, qs, t_out, s_out)
        },
        _ => {
            for (i, t) in t_out.iter_mut().enumerate() {
                *t += exchange_f32_with(
                    kernel, txs[i], tys[i], tzs[i], tqs[i], eps2, xs, ys, zs, qs, s_out,
                ) as f64;
            }
        }
    }
}

/// f32 potential + field gather: returns `(Σ q·r⁻¹, Σ q·r⁻³·Δ)` for one
/// target against a source run (mixed-precision force near field).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn force_gather_f32_with(
    kernel: Kernel,
    tx: f32,
    ty: f32,
    tz: f32,
    eps2: f32,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
) -> (f32, [f32; 3]) {
    debug_assert!(ys.len() == xs.len() && zs.len() == xs.len() && qs.len() == xs.len());
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers obtain the kernel from detect()/supported().
        Kernel::Avx2Fma => unsafe { x86::force_gather_f32_avx2(tx, ty, tz, eps2, xs, ys, zs, qs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Kernel::Avx512 => unsafe { x86::force_gather_f32_avx512(tx, ty, tz, eps2, xs, ys, zs, qs) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        Kernel::Neon => unsafe { arm::force_gather_f32_neon(tx, ty, tz, eps2, xs, ys, zs, qs) },
        _ => force_gather_f32_scalar(tx, ty, tz, eps2, xs, ys, zs, qs),
    }
}

/// f64 potential + field gather: returns `(Σ q·r⁻¹, Σ q·r⁻³·Δ)` for one
/// target against a source run (the target-centric force near field). The
/// target must not be among the sources: a caller whose target sits inside
/// the source block gathers over the sub-runs before and after it.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn force_gather_with(
    kernel: Kernel,
    tx: f64,
    ty: f64,
    tz: f64,
    eps2: f64,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
) -> (f64, [f64; 3]) {
    debug_assert!(ys.len() == xs.len() && zs.len() == xs.len() && qs.len() == xs.len());
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers obtain the kernel from detect()/supported().
        Kernel::Avx2Fma => unsafe { x86::force_gather_avx2(tx, ty, tz, eps2, xs, ys, zs, qs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Kernel::Avx512 => unsafe { x86::force_gather_avx512(tx, ty, tz, eps2, xs, ys, zs, qs) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        Kernel::Neon => unsafe { arm::force_gather_neon(tx, ty, tz, eps2, xs, ys, zs, qs) },
        _ => force_gather_scalar(tx, ty, tz, eps2, xs, ys, zs, qs),
    }
}

// ---------------------------------------------------------------- scalar

#[allow(clippy::too_many_arguments)]
fn gather_scalar(
    tx: f64,
    ty: f64,
    tz: f64,
    eps2: f64,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
) -> f64 {
    let mut acc = 0.0;
    for j in 0..xs.len() {
        let dx = tx - xs[j];
        let dy = ty - ys[j];
        let dz = tz - zs[j];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        acc += qs[j] / r2.sqrt();
    }
    acc
}

#[allow(clippy::too_many_arguments)]
fn exchange_scalar(
    tx: f64,
    ty: f64,
    tz: f64,
    tq: f64,
    eps2: f64,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    s_out: &mut [f64],
) -> f64 {
    let mut acc = 0.0;
    for j in 0..xs.len() {
        let dx = tx - xs[j];
        let dy = ty - ys[j];
        let dz = tz - zs[j];
        let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
        acc += qs[j] * inv_r;
        s_out[j] += tq * inv_r;
    }
    acc
}

#[allow(clippy::too_many_arguments)]
fn exchange_f32_scalar(
    tx: f32,
    ty: f32,
    tz: f32,
    tq: f32,
    eps2: f32,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    s_out: &mut [f64],
) -> f32 {
    let mut acc = 0.0f32;
    for j in 0..xs.len() {
        let dx = tx - xs[j];
        let dy = ty - ys[j];
        let dz = tz - zs[j];
        let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
        acc += qs[j] * inv_r;
        s_out[j] += (tq * inv_r) as f64;
    }
    acc
}

#[allow(clippy::too_many_arguments)]
fn force_gather_f32_scalar(
    tx: f32,
    ty: f32,
    tz: f32,
    eps2: f32,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
) -> (f32, [f32; 3]) {
    let mut p = 0.0f32;
    let mut f = [0.0f32; 3];
    for j in 0..xs.len() {
        let dx = tx - xs[j];
        let dy = ty - ys[j];
        let dz = tz - zs[j];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        let inv_r = 1.0 / r2.sqrt();
        let qr = qs[j] * inv_r;
        p += qr;
        let qr3 = qr * inv_r * inv_r;
        f[0] += qr3 * dx;
        f[1] += qr3 * dy;
        f[2] += qr3 * dz;
    }
    (p, f)
}

#[allow(clippy::too_many_arguments)]
fn force_gather_scalar(
    tx: f64,
    ty: f64,
    tz: f64,
    eps2: f64,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
) -> (f64, [f64; 3]) {
    let mut p = 0.0;
    let mut f = [0.0; 3];
    for j in 0..xs.len() {
        let dx = tx - xs[j];
        let dy = ty - ys[j];
        let dz = tz - zs[j];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        let inv_r = 1.0 / r2.sqrt();
        let qr = qs[j] * inv_r;
        p += qr;
        // −∇(q/r) = q (x_t − x_s) / r³
        let qr3 = qr * inv_r * inv_r;
        f[0] += qr3 * dx;
        f[1] += qr3 * dy;
        f[2] += qr3 * dz;
    }
    (p, f)
}

// ---------------------------------------------------------------- x86-64

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// 4-lane f64 `x^{-1/2}`: `rsqrt_ps` seed widened + 3 Newton–Raphson
    /// refinements (~4e-4 → 1e-7 → 1e-14 → ~1 ulp).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rsqrt_nr(r2: __m256d) -> __m256d {
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

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// 8-lane f64 `x^{-1/2}`: `rsqrt14_pd` seed (2⁻¹⁴) + 2 refinements
    /// (2⁻¹⁴ → ~6e-9 → ~5e-17, i.e. ~1 ulp).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn rsqrt_nr_512(r2: __m512d) -> __m512d {
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

    /// 8-lane f32 `x^{-1/2}`: `rsqrt_ps` seed (2⁻¹²) + 2 refinements.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rsqrt_nr_ps(r2: __m256) -> __m256 {
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

    /// 16-lane f32 `x^{-1/2}`: `rsqrt14_ps` seed (2⁻¹⁴) + 1 refinement
    /// (→ ~6e-9, below f32 epsilon).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn rsqrt_nr_ps_512(r2: __m512) -> __m512 {
        let y = _mm512_rsqrt14_ps(r2);
        let y2 = _mm512_mul_ps(y, y);
        let t = _mm512_fnmadd_ps(r2, y2, _mm512_set1_ps(3.0));
        _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.5), y), t)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_ps(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// # Safety
    /// Requires AVX2+FMA; SoA slices must have equal lengths.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gather_avx2(
        tx: f64,
        ty: f64,
        tz: f64,
        eps2: f64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        qs: &[f64],
    ) -> f64 {
        let n = xs.len();
        let txv = _mm256_set1_pd(tx);
        let tyv = _mm256_set1_pd(ty);
        let tzv = _mm256_set1_pd(tz);
        let e2v = _mm256_set1_pd(eps2);
        let mut acc = _mm256_setzero_pd();
        let mut j = 0;
        while j + 4 <= n {
            let dx = _mm256_sub_pd(txv, _mm256_loadu_pd(xs.as_ptr().add(j)));
            let dy = _mm256_sub_pd(tyv, _mm256_loadu_pd(ys.as_ptr().add(j)));
            let dz = _mm256_sub_pd(tzv, _mm256_loadu_pd(zs.as_ptr().add(j)));
            let r2 = _mm256_fmadd_pd(
                dz,
                dz,
                _mm256_fmadd_pd(dy, dy, _mm256_fmadd_pd(dx, dx, e2v)),
            );
            let qv = _mm256_loadu_pd(qs.as_ptr().add(j));
            acc = _mm256_fmadd_pd(qv, rsqrt_nr(r2), acc);
            j += 4;
        }
        let mut total = hsum(acc);
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            total += qs[j] / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            j += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX2+FMA; all slices (including `s_out`) equal lengths.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn exchange_avx2(
        tx: f64,
        ty: f64,
        tz: f64,
        tq: f64,
        eps2: f64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        qs: &[f64],
        s_out: &mut [f64],
    ) -> f64 {
        let n = xs.len();
        let txv = _mm256_set1_pd(tx);
        let tyv = _mm256_set1_pd(ty);
        let tzv = _mm256_set1_pd(tz);
        let tqv = _mm256_set1_pd(tq);
        let e2v = _mm256_set1_pd(eps2);
        let mut acc = _mm256_setzero_pd();
        let mut j = 0;
        while j + 4 <= n {
            let dx = _mm256_sub_pd(txv, _mm256_loadu_pd(xs.as_ptr().add(j)));
            let dy = _mm256_sub_pd(tyv, _mm256_loadu_pd(ys.as_ptr().add(j)));
            let dz = _mm256_sub_pd(tzv, _mm256_loadu_pd(zs.as_ptr().add(j)));
            let r2 = _mm256_fmadd_pd(
                dz,
                dz,
                _mm256_fmadd_pd(dy, dy, _mm256_fmadd_pd(dx, dx, e2v)),
            );
            let inv_r = rsqrt_nr(r2);
            acc = _mm256_fmadd_pd(_mm256_loadu_pd(qs.as_ptr().add(j)), inv_r, acc);
            let so = s_out.as_mut_ptr().add(j);
            _mm256_storeu_pd(so, _mm256_fmadd_pd(tqv, inv_r, _mm256_loadu_pd(so)));
            j += 4;
        }
        let mut total = hsum(acc);
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            total += qs[j] * inv_r;
            s_out[j] += tq * inv_r;
            j += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX-512F; SoA slices must have equal lengths.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gather_avx512(
        tx: f64,
        ty: f64,
        tz: f64,
        eps2: f64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        qs: &[f64],
    ) -> f64 {
        let n = xs.len();
        let txv = _mm512_set1_pd(tx);
        let tyv = _mm512_set1_pd(ty);
        let tzv = _mm512_set1_pd(tz);
        let e2v = _mm512_set1_pd(eps2);
        let mut acc = _mm512_setzero_pd();
        let mut j = 0;
        while j + 8 <= n {
            let dx = _mm512_sub_pd(txv, _mm512_loadu_pd(xs.as_ptr().add(j)));
            let dy = _mm512_sub_pd(tyv, _mm512_loadu_pd(ys.as_ptr().add(j)));
            let dz = _mm512_sub_pd(tzv, _mm512_loadu_pd(zs.as_ptr().add(j)));
            let r2 = _mm512_fmadd_pd(
                dz,
                dz,
                _mm512_fmadd_pd(dy, dy, _mm512_fmadd_pd(dx, dx, e2v)),
            );
            let qv = _mm512_loadu_pd(qs.as_ptr().add(j));
            acc = _mm512_fmadd_pd(qv, rsqrt_nr_512(r2), acc);
            j += 8;
        }
        let mut total = _mm512_reduce_add_pd(acc);
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            total += qs[j] / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            j += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX-512F; all slices (including `s_out`) equal lengths.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn exchange_avx512(
        tx: f64,
        ty: f64,
        tz: f64,
        tq: f64,
        eps2: f64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        qs: &[f64],
        s_out: &mut [f64],
    ) -> f64 {
        let n = xs.len();
        let txv = _mm512_set1_pd(tx);
        let tyv = _mm512_set1_pd(ty);
        let tzv = _mm512_set1_pd(tz);
        let tqv = _mm512_set1_pd(tq);
        let e2v = _mm512_set1_pd(eps2);
        let mut acc = _mm512_setzero_pd();
        let mut j = 0;
        while j + 8 <= n {
            let dx = _mm512_sub_pd(txv, _mm512_loadu_pd(xs.as_ptr().add(j)));
            let dy = _mm512_sub_pd(tyv, _mm512_loadu_pd(ys.as_ptr().add(j)));
            let dz = _mm512_sub_pd(tzv, _mm512_loadu_pd(zs.as_ptr().add(j)));
            let r2 = _mm512_fmadd_pd(
                dz,
                dz,
                _mm512_fmadd_pd(dy, dy, _mm512_fmadd_pd(dx, dx, e2v)),
            );
            let inv_r = rsqrt_nr_512(r2);
            acc = _mm512_fmadd_pd(_mm512_loadu_pd(qs.as_ptr().add(j)), inv_r, acc);
            let so = s_out.as_mut_ptr().add(j);
            _mm512_storeu_pd(so, _mm512_fmadd_pd(tqv, inv_r, _mm512_loadu_pd(so)));
            j += 8;
        }
        let mut total = _mm512_reduce_add_pd(acc);
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            total += qs[j] * inv_r;
            s_out[j] += tq * inv_r;
            j += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX2+FMA; all slices (including `s_out`) equal lengths.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn exchange_f32_avx2(
        tx: f32,
        ty: f32,
        tz: f32,
        tq: f32,
        eps2: f32,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        qs: &[f32],
        s_out: &mut [f64],
    ) -> f32 {
        let n = xs.len();
        let txv = _mm256_set1_ps(tx);
        let tyv = _mm256_set1_ps(ty);
        let tzv = _mm256_set1_ps(tz);
        let tqv = _mm256_set1_ps(tq);
        let e2v = _mm256_set1_ps(eps2);
        let mut acc = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let dx = _mm256_sub_ps(txv, _mm256_loadu_ps(xs.as_ptr().add(j)));
            let dy = _mm256_sub_ps(tyv, _mm256_loadu_ps(ys.as_ptr().add(j)));
            let dz = _mm256_sub_ps(tzv, _mm256_loadu_ps(zs.as_ptr().add(j)));
            let r2 = _mm256_fmadd_ps(
                dz,
                dz,
                _mm256_fmadd_ps(dy, dy, _mm256_fmadd_ps(dx, dx, e2v)),
            );
            let inv_r = rsqrt_nr_ps(r2);
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(qs.as_ptr().add(j)), inv_r, acc);
            // Widen each source's f32 contribution to f64 for the
            // scatter-add, so source-side rounding never accumulates.
            let contrib = _mm256_mul_ps(tqv, inv_r);
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(contrib));
            let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(contrib, 1));
            let so = s_out.as_mut_ptr().add(j);
            _mm256_storeu_pd(so, _mm256_add_pd(_mm256_loadu_pd(so), lo));
            _mm256_storeu_pd(so.add(4), _mm256_add_pd(_mm256_loadu_pd(so.add(4)), hi));
            j += 8;
        }
        let mut total = hsum_ps(acc);
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            total += qs[j] * inv_r;
            s_out[j] += (tq * inv_r) as f64;
            j += 1;
        }
        total
    }

    /// # Safety
    /// Requires AVX-512F; all slices (including `s_out`) equal lengths.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn exchange_f32_avx512(
        tx: f32,
        ty: f32,
        tz: f32,
        tq: f32,
        eps2: f32,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        qs: &[f32],
        s_out: &mut [f64],
    ) -> f32 {
        let n = xs.len();
        let txv = _mm512_set1_ps(tx);
        let tyv = _mm512_set1_ps(ty);
        let tzv = _mm512_set1_ps(tz);
        let tqv = _mm512_set1_ps(tq);
        let e2v = _mm512_set1_ps(eps2);
        let mut acc = _mm512_setzero_ps();
        let mut j = 0;
        while j + 16 <= n {
            let dx = _mm512_sub_ps(txv, _mm512_loadu_ps(xs.as_ptr().add(j)));
            let dy = _mm512_sub_ps(tyv, _mm512_loadu_ps(ys.as_ptr().add(j)));
            let dz = _mm512_sub_ps(tzv, _mm512_loadu_ps(zs.as_ptr().add(j)));
            let r2 = _mm512_fmadd_ps(
                dz,
                dz,
                _mm512_fmadd_ps(dy, dy, _mm512_fmadd_ps(dx, dx, e2v)),
            );
            let inv_r = rsqrt_nr_ps_512(r2);
            acc = _mm512_fmadd_ps(_mm512_loadu_ps(qs.as_ptr().add(j)), inv_r, acc);
            // Widen the 16 f32 contributions to f64 for the scatter-add.
            // The upper 8 lanes come out via an f64x4-pair bitcast
            // (extractf32x8 would need AVX-512DQ; extractf64x4 is plain F).
            let contrib = _mm512_mul_ps(tqv, inv_r);
            let lo8 = _mm512_castps512_ps256(contrib);
            let hi8 = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(contrib), 1));
            let so = s_out.as_mut_ptr().add(j);
            _mm512_storeu_pd(so, _mm512_add_pd(_mm512_loadu_pd(so), _mm512_cvtps_pd(lo8)));
            let so8 = so.add(8);
            _mm512_storeu_pd(
                so8,
                _mm512_add_pd(_mm512_loadu_pd(so8), _mm512_cvtps_pd(hi8)),
            );
            j += 16;
        }
        if j < n {
            // Masked tail: one more 16-lane iteration with dead lanes
            // zeroed, since a box holds few enough particles that a scalar
            // tail would dominate the call. Dead lanes of r2 hold
            // tx²+ty²+tz²+eps2, which can be 0, so they are pinned to 1.0
            // to keep rsqrt finite (0·∞ = NaN would poison acc); the f64
            // scatter-add is write-masked per 8-lane half.
            let m: __mmask16 = (1u16 << (n - j)) - 1;
            let dx = _mm512_sub_ps(txv, _mm512_maskz_loadu_ps(m, xs.as_ptr().add(j)));
            let dy = _mm512_sub_ps(tyv, _mm512_maskz_loadu_ps(m, ys.as_ptr().add(j)));
            let dz = _mm512_sub_ps(tzv, _mm512_maskz_loadu_ps(m, zs.as_ptr().add(j)));
            let r2 = _mm512_fmadd_ps(
                dz,
                dz,
                _mm512_fmadd_ps(dy, dy, _mm512_fmadd_ps(dx, dx, e2v)),
            );
            let r2 = _mm512_mask_mov_ps(_mm512_set1_ps(1.0), m, r2);
            let inv_r = rsqrt_nr_ps_512(r2);
            acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, qs.as_ptr().add(j)), inv_r, acc);
            let contrib = _mm512_mul_ps(tqv, inv_r);
            let lo8 = _mm512_castps512_ps256(contrib);
            let hi8 = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(contrib), 1));
            let so = s_out.as_mut_ptr().add(j);
            let (mlo, mhi) = ((m & 0xff) as __mmask8, (m >> 8) as __mmask8);
            let cur = _mm512_maskz_loadu_pd(mlo, so);
            _mm512_mask_storeu_pd(so, mlo, _mm512_add_pd(cur, _mm512_cvtps_pd(lo8)));
            if mhi != 0 {
                let so8 = so.add(8);
                let cur = _mm512_maskz_loadu_pd(mhi, so8);
                _mm512_mask_storeu_pd(so8, mhi, _mm512_add_pd(cur, _mm512_cvtps_pd(hi8)));
            }
        }
        _mm512_reduce_add_ps(acc)
    }

    /// Two-target f32 exchange: one pass over the source box serves a
    /// pair of targets. Source coordinates are loaded once per chunk, the
    /// two rsqrt chains interleave (twice the ILP of the single-target
    /// kernel), and the targets' source-side contributions are summed in
    /// f32 — one extra rounding within the box pair — before the single
    /// widened scatter-add.
    ///
    /// # Safety
    /// Requires AVX-512F; source slices and `s_out` equal lengths.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn exchange_f32_pair_avx512(
        t0: [f32; 4],
        t1: [f32; 4],
        eps2: f32,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        qs: &[f32],
        s_out: &mut [f64],
    ) -> (f32, f32) {
        let n = xs.len();
        let tx0 = _mm512_set1_ps(t0[0]);
        let ty0 = _mm512_set1_ps(t0[1]);
        let tz0 = _mm512_set1_ps(t0[2]);
        let tq0 = _mm512_set1_ps(t0[3]);
        let tx1 = _mm512_set1_ps(t1[0]);
        let ty1 = _mm512_set1_ps(t1[1]);
        let tz1 = _mm512_set1_ps(t1[2]);
        let tq1 = _mm512_set1_ps(t1[3]);
        let e2v = _mm512_set1_ps(eps2);
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut j = 0;
        while j + 16 <= n {
            let xv = _mm512_loadu_ps(xs.as_ptr().add(j));
            let yv = _mm512_loadu_ps(ys.as_ptr().add(j));
            let zv = _mm512_loadu_ps(zs.as_ptr().add(j));
            let qv = _mm512_loadu_ps(qs.as_ptr().add(j));
            let dx0 = _mm512_sub_ps(tx0, xv);
            let dy0 = _mm512_sub_ps(ty0, yv);
            let dz0 = _mm512_sub_ps(tz0, zv);
            let dx1 = _mm512_sub_ps(tx1, xv);
            let dy1 = _mm512_sub_ps(ty1, yv);
            let dz1 = _mm512_sub_ps(tz1, zv);
            let r20 = _mm512_fmadd_ps(
                dz0,
                dz0,
                _mm512_fmadd_ps(dy0, dy0, _mm512_fmadd_ps(dx0, dx0, e2v)),
            );
            let r21 = _mm512_fmadd_ps(
                dz1,
                dz1,
                _mm512_fmadd_ps(dy1, dy1, _mm512_fmadd_ps(dx1, dx1, e2v)),
            );
            let inv0 = rsqrt_nr_ps_512(r20);
            let inv1 = rsqrt_nr_ps_512(r21);
            acc0 = _mm512_fmadd_ps(qv, inv0, acc0);
            acc1 = _mm512_fmadd_ps(qv, inv1, acc1);
            let contrib = _mm512_fmadd_ps(tq1, inv1, _mm512_mul_ps(tq0, inv0));
            let lo8 = _mm512_castps512_ps256(contrib);
            let hi8 = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(contrib), 1));
            let so = s_out.as_mut_ptr().add(j);
            _mm512_storeu_pd(so, _mm512_add_pd(_mm512_loadu_pd(so), _mm512_cvtps_pd(lo8)));
            let so8 = so.add(8);
            _mm512_storeu_pd(
                so8,
                _mm512_add_pd(_mm512_loadu_pd(so8), _mm512_cvtps_pd(hi8)),
            );
            j += 16;
        }
        if j < n {
            // Masked tail (see exchange_f32_avx512): dead lanes zeroed, r2
            // pinned to 1.0, scatter write-masked per 8-lane half.
            let m: __mmask16 = (1u16 << (n - j)) - 1;
            let xv = _mm512_maskz_loadu_ps(m, xs.as_ptr().add(j));
            let yv = _mm512_maskz_loadu_ps(m, ys.as_ptr().add(j));
            let zv = _mm512_maskz_loadu_ps(m, zs.as_ptr().add(j));
            let qv = _mm512_maskz_loadu_ps(m, qs.as_ptr().add(j));
            let dx0 = _mm512_sub_ps(tx0, xv);
            let dy0 = _mm512_sub_ps(ty0, yv);
            let dz0 = _mm512_sub_ps(tz0, zv);
            let dx1 = _mm512_sub_ps(tx1, xv);
            let dy1 = _mm512_sub_ps(ty1, yv);
            let dz1 = _mm512_sub_ps(tz1, zv);
            let one = _mm512_set1_ps(1.0);
            let r20 = _mm512_fmadd_ps(
                dz0,
                dz0,
                _mm512_fmadd_ps(dy0, dy0, _mm512_fmadd_ps(dx0, dx0, e2v)),
            );
            let r21 = _mm512_fmadd_ps(
                dz1,
                dz1,
                _mm512_fmadd_ps(dy1, dy1, _mm512_fmadd_ps(dx1, dx1, e2v)),
            );
            let inv0 = rsqrt_nr_ps_512(_mm512_mask_mov_ps(one, m, r20));
            let inv1 = rsqrt_nr_ps_512(_mm512_mask_mov_ps(one, m, r21));
            acc0 = _mm512_fmadd_ps(qv, inv0, acc0);
            acc1 = _mm512_fmadd_ps(qv, inv1, acc1);
            let contrib = _mm512_fmadd_ps(tq1, inv1, _mm512_mul_ps(tq0, inv0));
            let lo8 = _mm512_castps512_ps256(contrib);
            let hi8 = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(contrib), 1));
            let so = s_out.as_mut_ptr().add(j);
            let (mlo, mhi) = ((m & 0xff) as __mmask8, (m >> 8) as __mmask8);
            let cur = _mm512_maskz_loadu_pd(mlo, so);
            _mm512_mask_storeu_pd(so, mlo, _mm512_add_pd(cur, _mm512_cvtps_pd(lo8)));
            if mhi != 0 {
                let so8 = so.add(8);
                let cur = _mm512_maskz_loadu_pd(mhi, so8);
                _mm512_mask_storeu_pd(so8, mhi, _mm512_add_pd(cur, _mm512_cvtps_pd(hi8)));
            }
        }
        (_mm512_reduce_add_ps(acc0), _mm512_reduce_add_ps(acc1))
    }

    /// Panel of targets against one source box: pairs of targets share
    /// each source sweep; an odd final target falls back to the
    /// single-target kernel.
    ///
    /// # Safety
    /// Requires AVX-512F; target slices equal lengths, source slices and
    /// `s_out` equal lengths, `t_out.len() == txs.len()`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn exchange_f32_panel_avx512(
        txs: &[f32],
        tys: &[f32],
        tzs: &[f32],
        tqs: &[f32],
        eps2: f32,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        qs: &[f32],
        t_out: &mut [f64],
        s_out: &mut [f64],
    ) {
        let nt = txs.len();
        let mut a = 0;
        while a + 2 <= nt {
            let (p0, p1) = exchange_f32_pair_avx512(
                [txs[a], tys[a], tzs[a], tqs[a]],
                [txs[a + 1], tys[a + 1], tzs[a + 1], tqs[a + 1]],
                eps2,
                xs,
                ys,
                zs,
                qs,
                s_out,
            );
            t_out[a] += p0 as f64;
            t_out[a + 1] += p1 as f64;
            a += 2;
        }
        if a < nt {
            t_out[a] +=
                exchange_f32_avx512(txs[a], tys[a], tzs[a], tqs[a], eps2, xs, ys, zs, qs, s_out)
                    as f64;
        }
    }

    /// # Safety
    /// Requires AVX2+FMA; SoA slices must have equal lengths.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn force_gather_f32_avx2(
        tx: f32,
        ty: f32,
        tz: f32,
        eps2: f32,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        qs: &[f32],
    ) -> (f32, [f32; 3]) {
        let n = xs.len();
        let txv = _mm256_set1_ps(tx);
        let tyv = _mm256_set1_ps(ty);
        let tzv = _mm256_set1_ps(tz);
        let e2v = _mm256_set1_ps(eps2);
        let mut pacc = _mm256_setzero_ps();
        let mut fx = _mm256_setzero_ps();
        let mut fy = _mm256_setzero_ps();
        let mut fz = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let dx = _mm256_sub_ps(txv, _mm256_loadu_ps(xs.as_ptr().add(j)));
            let dy = _mm256_sub_ps(tyv, _mm256_loadu_ps(ys.as_ptr().add(j)));
            let dz = _mm256_sub_ps(tzv, _mm256_loadu_ps(zs.as_ptr().add(j)));
            let r2 = _mm256_fmadd_ps(
                dz,
                dz,
                _mm256_fmadd_ps(dy, dy, _mm256_fmadd_ps(dx, dx, e2v)),
            );
            let inv_r = rsqrt_nr_ps(r2);
            let qr = _mm256_mul_ps(_mm256_loadu_ps(qs.as_ptr().add(j)), inv_r);
            pacc = _mm256_add_ps(pacc, qr);
            let qr3 = _mm256_mul_ps(qr, _mm256_mul_ps(inv_r, inv_r));
            fx = _mm256_fmadd_ps(qr3, dx, fx);
            fy = _mm256_fmadd_ps(qr3, dy, fy);
            fz = _mm256_fmadd_ps(qr3, dz, fz);
            j += 8;
        }
        let mut p = hsum_ps(pacc);
        let mut f = [hsum_ps(fx), hsum_ps(fy), hsum_ps(fz)];
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let inv_r = 1.0 / r2.sqrt();
            let qr = qs[j] * inv_r;
            p += qr;
            let qr3 = qr * inv_r * inv_r;
            f[0] += qr3 * dx;
            f[1] += qr3 * dy;
            f[2] += qr3 * dz;
            j += 1;
        }
        (p, f)
    }

    /// # Safety
    /// Requires AVX-512F; SoA slices must have equal lengths.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn force_gather_f32_avx512(
        tx: f32,
        ty: f32,
        tz: f32,
        eps2: f32,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        qs: &[f32],
    ) -> (f32, [f32; 3]) {
        let n = xs.len();
        let txv = _mm512_set1_ps(tx);
        let tyv = _mm512_set1_ps(ty);
        let tzv = _mm512_set1_ps(tz);
        let e2v = _mm512_set1_ps(eps2);
        let mut pacc = _mm512_setzero_ps();
        let mut fx = _mm512_setzero_ps();
        let mut fy = _mm512_setzero_ps();
        let mut fz = _mm512_setzero_ps();
        let mut j = 0;
        while j + 16 <= n {
            let dx = _mm512_sub_ps(txv, _mm512_loadu_ps(xs.as_ptr().add(j)));
            let dy = _mm512_sub_ps(tyv, _mm512_loadu_ps(ys.as_ptr().add(j)));
            let dz = _mm512_sub_ps(tzv, _mm512_loadu_ps(zs.as_ptr().add(j)));
            let r2 = _mm512_fmadd_ps(
                dz,
                dz,
                _mm512_fmadd_ps(dy, dy, _mm512_fmadd_ps(dx, dx, e2v)),
            );
            let inv_r = rsqrt_nr_ps_512(r2);
            let qr = _mm512_mul_ps(_mm512_loadu_ps(qs.as_ptr().add(j)), inv_r);
            pacc = _mm512_add_ps(pacc, qr);
            let qr3 = _mm512_mul_ps(qr, _mm512_mul_ps(inv_r, inv_r));
            fx = _mm512_fmadd_ps(qr3, dx, fx);
            fy = _mm512_fmadd_ps(qr3, dy, fy);
            fz = _mm512_fmadd_ps(qr3, dz, fz);
            j += 16;
        }
        if j < n {
            // Masked tail (see exchange_f32_avx512): q is zeroed on dead
            // lanes so qr and qr3 vanish there; r2 is pinned to 1.0 to
            // keep rsqrt finite.
            let m: __mmask16 = (1u16 << (n - j)) - 1;
            let dx = _mm512_sub_ps(txv, _mm512_maskz_loadu_ps(m, xs.as_ptr().add(j)));
            let dy = _mm512_sub_ps(tyv, _mm512_maskz_loadu_ps(m, ys.as_ptr().add(j)));
            let dz = _mm512_sub_ps(tzv, _mm512_maskz_loadu_ps(m, zs.as_ptr().add(j)));
            let r2 = _mm512_fmadd_ps(
                dz,
                dz,
                _mm512_fmadd_ps(dy, dy, _mm512_fmadd_ps(dx, dx, e2v)),
            );
            let r2 = _mm512_mask_mov_ps(_mm512_set1_ps(1.0), m, r2);
            let inv_r = rsqrt_nr_ps_512(r2);
            let qr = _mm512_mul_ps(_mm512_maskz_loadu_ps(m, qs.as_ptr().add(j)), inv_r);
            pacc = _mm512_add_ps(pacc, qr);
            let qr3 = _mm512_mul_ps(qr, _mm512_mul_ps(inv_r, inv_r));
            fx = _mm512_fmadd_ps(qr3, dx, fx);
            fy = _mm512_fmadd_ps(qr3, dy, fy);
            fz = _mm512_fmadd_ps(qr3, dz, fz);
        }
        let p = _mm512_reduce_add_ps(pacc);
        let f = [
            _mm512_reduce_add_ps(fx),
            _mm512_reduce_add_ps(fy),
            _mm512_reduce_add_ps(fz),
        ];
        (p, f)
    }

    /// # Safety
    /// Requires AVX2+FMA; SoA slices must have equal lengths.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn force_gather_avx2(
        tx: f64,
        ty: f64,
        tz: f64,
        eps2: f64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        qs: &[f64],
    ) -> (f64, [f64; 3]) {
        let n = xs.len();
        let txv = _mm256_set1_pd(tx);
        let tyv = _mm256_set1_pd(ty);
        let tzv = _mm256_set1_pd(tz);
        let e2v = _mm256_set1_pd(eps2);
        let mut pacc = _mm256_setzero_pd();
        let mut fx = _mm256_setzero_pd();
        let mut fy = _mm256_setzero_pd();
        let mut fz = _mm256_setzero_pd();
        let mut j = 0;
        while j + 4 <= n {
            let dx = _mm256_sub_pd(txv, _mm256_loadu_pd(xs.as_ptr().add(j)));
            let dy = _mm256_sub_pd(tyv, _mm256_loadu_pd(ys.as_ptr().add(j)));
            let dz = _mm256_sub_pd(tzv, _mm256_loadu_pd(zs.as_ptr().add(j)));
            let r2 = _mm256_fmadd_pd(
                dz,
                dz,
                _mm256_fmadd_pd(dy, dy, _mm256_fmadd_pd(dx, dx, e2v)),
            );
            let inv_r = rsqrt_nr(r2);
            let qr = _mm256_mul_pd(_mm256_loadu_pd(qs.as_ptr().add(j)), inv_r);
            pacc = _mm256_add_pd(pacc, qr);
            let qr3 = _mm256_mul_pd(qr, _mm256_mul_pd(inv_r, inv_r));
            fx = _mm256_fmadd_pd(qr3, dx, fx);
            fy = _mm256_fmadd_pd(qr3, dy, fy);
            fz = _mm256_fmadd_pd(qr3, dz, fz);
            j += 4;
        }
        let mut p = hsum(pacc);
        let mut f = [hsum(fx), hsum(fy), hsum(fz)];
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let inv_r = 1.0 / r2.sqrt();
            let qr = qs[j] * inv_r;
            p += qr;
            let qr3 = qr * inv_r * inv_r;
            f[0] += qr3 * dx;
            f[1] += qr3 * dy;
            f[2] += qr3 * dz;
            j += 1;
        }
        (p, f)
    }

    /// # Safety
    /// Requires AVX-512F; SoA slices must have equal lengths.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn force_gather_avx512(
        tx: f64,
        ty: f64,
        tz: f64,
        eps2: f64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        qs: &[f64],
    ) -> (f64, [f64; 3]) {
        let n = xs.len();
        let txv = _mm512_set1_pd(tx);
        let tyv = _mm512_set1_pd(ty);
        let tzv = _mm512_set1_pd(tz);
        let e2v = _mm512_set1_pd(eps2);
        let mut pacc = _mm512_setzero_pd();
        let mut fx = _mm512_setzero_pd();
        let mut fy = _mm512_setzero_pd();
        let mut fz = _mm512_setzero_pd();
        let mut j = 0;
        while j + 8 <= n {
            let dx = _mm512_sub_pd(txv, _mm512_loadu_pd(xs.as_ptr().add(j)));
            let dy = _mm512_sub_pd(tyv, _mm512_loadu_pd(ys.as_ptr().add(j)));
            let dz = _mm512_sub_pd(tzv, _mm512_loadu_pd(zs.as_ptr().add(j)));
            let r2 = _mm512_fmadd_pd(
                dz,
                dz,
                _mm512_fmadd_pd(dy, dy, _mm512_fmadd_pd(dx, dx, e2v)),
            );
            let inv_r = rsqrt_nr_512(r2);
            let qr = _mm512_mul_pd(_mm512_loadu_pd(qs.as_ptr().add(j)), inv_r);
            pacc = _mm512_add_pd(pacc, qr);
            let qr3 = _mm512_mul_pd(qr, _mm512_mul_pd(inv_r, inv_r));
            fx = _mm512_fmadd_pd(qr3, dx, fx);
            fy = _mm512_fmadd_pd(qr3, dy, fy);
            fz = _mm512_fmadd_pd(qr3, dz, fz);
            j += 8;
        }
        if j < n {
            // Masked tail (see exchange_f32_avx512): a leaf holds ~8 particles
            // on the clustered force workloads, so most runs are all tail.
            // q is zeroed on dead lanes so qr and qr3 vanish there; r2 is
            // pinned to 1.0 to keep rsqrt finite.
            let m: __mmask8 = (1u8 << (n - j)) - 1;
            let dx = _mm512_sub_pd(txv, _mm512_maskz_loadu_pd(m, xs.as_ptr().add(j)));
            let dy = _mm512_sub_pd(tyv, _mm512_maskz_loadu_pd(m, ys.as_ptr().add(j)));
            let dz = _mm512_sub_pd(tzv, _mm512_maskz_loadu_pd(m, zs.as_ptr().add(j)));
            let r2 = _mm512_fmadd_pd(
                dz,
                dz,
                _mm512_fmadd_pd(dy, dy, _mm512_fmadd_pd(dx, dx, e2v)),
            );
            let r2 = _mm512_mask_mov_pd(_mm512_set1_pd(1.0), m, r2);
            let inv_r = rsqrt_nr_512(r2);
            let qr = _mm512_mul_pd(_mm512_maskz_loadu_pd(m, qs.as_ptr().add(j)), inv_r);
            pacc = _mm512_add_pd(pacc, qr);
            let qr3 = _mm512_mul_pd(qr, _mm512_mul_pd(inv_r, inv_r));
            fx = _mm512_fmadd_pd(qr3, dx, fx);
            fy = _mm512_fmadd_pd(qr3, dy, fy);
            fz = _mm512_fmadd_pd(qr3, dz, fz);
        }
        let p = _mm512_reduce_add_pd(pacc);
        let f = [
            _mm512_reduce_add_pd(fx),
            _mm512_reduce_add_pd(fy),
            _mm512_reduce_add_pd(fz),
        ];
        (p, f)
    }
}

// --------------------------------------------------------------- aarch64

#[cfg(target_arch = "aarch64")]
mod arm {
    use core::arch::aarch64::*;

    /// 2-lane f64 `x^{-1/2}`: `vrsqrte` seed (~2⁻⁸) + 3 `vrsqrts` steps.
    #[inline]
    unsafe fn rsqrt_nr_f64(r2: float64x2_t) -> float64x2_t {
        let mut y = vrsqrteq_f64(r2);
        for _ in 0..3 {
            y = vmulq_f64(y, vrsqrtsq_f64(vmulq_f64(r2, y), y));
        }
        y
    }

    /// 4-lane f32 `x^{-1/2}`: `vrsqrte` seed + 2 `vrsqrts` steps.
    #[inline]
    unsafe fn rsqrt_nr_f32(r2: float32x4_t) -> float32x4_t {
        let mut y = vrsqrteq_f32(r2);
        for _ in 0..2 {
            y = vmulq_f32(y, vrsqrtsq_f32(vmulq_f32(r2, y), y));
        }
        y
    }

    /// # Safety
    /// SoA slices must have equal lengths (NEON is always present).
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gather_neon(
        tx: f64,
        ty: f64,
        tz: f64,
        eps2: f64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        qs: &[f64],
    ) -> f64 {
        let n = xs.len();
        let txv = vdupq_n_f64(tx);
        let tyv = vdupq_n_f64(ty);
        let tzv = vdupq_n_f64(tz);
        let e2v = vdupq_n_f64(eps2);
        let mut acc = vdupq_n_f64(0.0);
        let mut j = 0;
        while j + 2 <= n {
            let dx = vsubq_f64(txv, vld1q_f64(xs.as_ptr().add(j)));
            let dy = vsubq_f64(tyv, vld1q_f64(ys.as_ptr().add(j)));
            let dz = vsubq_f64(tzv, vld1q_f64(zs.as_ptr().add(j)));
            let r2 = vfmaq_f64(vfmaq_f64(vfmaq_f64(e2v, dx, dx), dy, dy), dz, dz);
            acc = vfmaq_f64(acc, vld1q_f64(qs.as_ptr().add(j)), rsqrt_nr_f64(r2));
            j += 2;
        }
        let mut total = vaddvq_f64(acc);
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            total += qs[j] / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            j += 1;
        }
        total
    }

    /// # Safety
    /// All slices (including `s_out`) must have equal lengths.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn exchange_neon(
        tx: f64,
        ty: f64,
        tz: f64,
        tq: f64,
        eps2: f64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        qs: &[f64],
        s_out: &mut [f64],
    ) -> f64 {
        let n = xs.len();
        let txv = vdupq_n_f64(tx);
        let tyv = vdupq_n_f64(ty);
        let tzv = vdupq_n_f64(tz);
        let tqv = vdupq_n_f64(tq);
        let e2v = vdupq_n_f64(eps2);
        let mut acc = vdupq_n_f64(0.0);
        let mut j = 0;
        while j + 2 <= n {
            let dx = vsubq_f64(txv, vld1q_f64(xs.as_ptr().add(j)));
            let dy = vsubq_f64(tyv, vld1q_f64(ys.as_ptr().add(j)));
            let dz = vsubq_f64(tzv, vld1q_f64(zs.as_ptr().add(j)));
            let r2 = vfmaq_f64(vfmaq_f64(vfmaq_f64(e2v, dx, dx), dy, dy), dz, dz);
            let inv_r = rsqrt_nr_f64(r2);
            acc = vfmaq_f64(acc, vld1q_f64(qs.as_ptr().add(j)), inv_r);
            let so = s_out.as_mut_ptr().add(j);
            vst1q_f64(so, vfmaq_f64(vld1q_f64(so), tqv, inv_r));
            j += 2;
        }
        let mut total = vaddvq_f64(acc);
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            total += qs[j] * inv_r;
            s_out[j] += tq * inv_r;
            j += 1;
        }
        total
    }

    /// # Safety
    /// All slices (including `s_out`) must have equal lengths.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn exchange_f32_neon(
        tx: f32,
        ty: f32,
        tz: f32,
        tq: f32,
        eps2: f32,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        qs: &[f32],
        s_out: &mut [f64],
    ) -> f32 {
        let n = xs.len();
        let txv = vdupq_n_f32(tx);
        let tyv = vdupq_n_f32(ty);
        let tzv = vdupq_n_f32(tz);
        let tqv = vdupq_n_f32(tq);
        let e2v = vdupq_n_f32(eps2);
        let mut acc = vdupq_n_f32(0.0);
        let mut j = 0;
        while j + 4 <= n {
            let dx = vsubq_f32(txv, vld1q_f32(xs.as_ptr().add(j)));
            let dy = vsubq_f32(tyv, vld1q_f32(ys.as_ptr().add(j)));
            let dz = vsubq_f32(tzv, vld1q_f32(zs.as_ptr().add(j)));
            let r2 = vfmaq_f32(vfmaq_f32(vfmaq_f32(e2v, dx, dx), dy, dy), dz, dz);
            let inv_r = rsqrt_nr_f32(r2);
            acc = vfmaq_f32(acc, vld1q_f32(qs.as_ptr().add(j)), inv_r);
            // Widen each source's f32 contribution to f64 for the
            // scatter-add, so source-side rounding never accumulates.
            let contrib = vmulq_f32(tqv, inv_r);
            let so = s_out.as_mut_ptr().add(j);
            let lo = vcvt_f64_f32(vget_low_f32(contrib));
            let hi = vcvt_high_f64_f32(contrib);
            vst1q_f64(so, vaddq_f64(vld1q_f64(so), lo));
            vst1q_f64(so.add(2), vaddq_f64(vld1q_f64(so.add(2)), hi));
            j += 4;
        }
        let mut total = vaddvq_f32(acc);
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            let inv_r = 1.0 / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            total += qs[j] * inv_r;
            s_out[j] += (tq * inv_r) as f64;
            j += 1;
        }
        total
    }

    /// # Safety
    /// SoA slices must have equal lengths.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn force_gather_f32_neon(
        tx: f32,
        ty: f32,
        tz: f32,
        eps2: f32,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        qs: &[f32],
    ) -> (f32, [f32; 3]) {
        let n = xs.len();
        let txv = vdupq_n_f32(tx);
        let tyv = vdupq_n_f32(ty);
        let tzv = vdupq_n_f32(tz);
        let e2v = vdupq_n_f32(eps2);
        let mut pacc = vdupq_n_f32(0.0);
        let mut fx = vdupq_n_f32(0.0);
        let mut fy = vdupq_n_f32(0.0);
        let mut fz = vdupq_n_f32(0.0);
        let mut j = 0;
        while j + 4 <= n {
            let dx = vsubq_f32(txv, vld1q_f32(xs.as_ptr().add(j)));
            let dy = vsubq_f32(tyv, vld1q_f32(ys.as_ptr().add(j)));
            let dz = vsubq_f32(tzv, vld1q_f32(zs.as_ptr().add(j)));
            let r2 = vfmaq_f32(vfmaq_f32(vfmaq_f32(e2v, dx, dx), dy, dy), dz, dz);
            let inv_r = rsqrt_nr_f32(r2);
            let qr = vmulq_f32(vld1q_f32(qs.as_ptr().add(j)), inv_r);
            pacc = vaddq_f32(pacc, qr);
            let qr3 = vmulq_f32(qr, vmulq_f32(inv_r, inv_r));
            fx = vfmaq_f32(fx, qr3, dx);
            fy = vfmaq_f32(fy, qr3, dy);
            fz = vfmaq_f32(fz, qr3, dz);
            j += 4;
        }
        let mut p = vaddvq_f32(pacc);
        let mut f = [vaddvq_f32(fx), vaddvq_f32(fy), vaddvq_f32(fz)];
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let inv_r = 1.0 / r2.sqrt();
            let qr = qs[j] * inv_r;
            p += qr;
            let qr3 = qr * inv_r * inv_r;
            f[0] += qr3 * dx;
            f[1] += qr3 * dy;
            f[2] += qr3 * dz;
            j += 1;
        }
        (p, f)
    }

    /// # Safety
    /// SoA slices must have equal lengths.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn force_gather_neon(
        tx: f64,
        ty: f64,
        tz: f64,
        eps2: f64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        qs: &[f64],
    ) -> (f64, [f64; 3]) {
        let n = xs.len();
        let txv = vdupq_n_f64(tx);
        let tyv = vdupq_n_f64(ty);
        let tzv = vdupq_n_f64(tz);
        let e2v = vdupq_n_f64(eps2);
        let mut pacc = vdupq_n_f64(0.0);
        let mut fx = vdupq_n_f64(0.0);
        let mut fy = vdupq_n_f64(0.0);
        let mut fz = vdupq_n_f64(0.0);
        let mut j = 0;
        while j + 2 <= n {
            let dx = vsubq_f64(txv, vld1q_f64(xs.as_ptr().add(j)));
            let dy = vsubq_f64(tyv, vld1q_f64(ys.as_ptr().add(j)));
            let dz = vsubq_f64(tzv, vld1q_f64(zs.as_ptr().add(j)));
            let r2 = vfmaq_f64(vfmaq_f64(vfmaq_f64(e2v, dx, dx), dy, dy), dz, dz);
            let inv_r = rsqrt_nr_f64(r2);
            let qr = vmulq_f64(vld1q_f64(qs.as_ptr().add(j)), inv_r);
            pacc = vaddq_f64(pacc, qr);
            let qr3 = vmulq_f64(qr, vmulq_f64(inv_r, inv_r));
            fx = vfmaq_f64(fx, qr3, dx);
            fy = vfmaq_f64(fy, qr3, dy);
            fz = vfmaq_f64(fz, qr3, dz);
            j += 2;
        }
        let mut p = vaddvq_f64(pacc);
        let mut f = [vaddvq_f64(fx), vaddvq_f64(fy), vaddvq_f64(fz)];
        while j < n {
            let dx = tx - xs[j];
            let dy = ty - ys[j];
            let dz = tz - zs[j];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let inv_r = 1.0 / r2.sqrt();
            let qr = qs[j] * inv_r;
            p += qr;
            let qr3 = qr * inv_r * inv_r;
            f[0] += qr3 * dx;
            f[1] += qr3 * dy;
            f[2] += qr3 * dz;
            j += 1;
        }
        (p, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// Sources placed ≥ ~0.1 away from the target so 1/r is well scaled.
    fn soa(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = pseudo(seed, n).iter().map(|v| 0.2 + v).collect();
        let ys = pseudo(seed + 1, n);
        let zs = pseudo(seed + 2, n);
        let qs: Vec<f64> = pseudo(seed + 3, n).iter().map(|v| v * 2.0 - 1.0).collect();
        (xs, ys, zs, qs)
    }

    #[test]
    fn f64_gather_and_exchange_agree_across_kernels() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 16, 31, 200] {
            let (xs, ys, zs, qs) = soa(n, 42);
            let want = gather_with(Kernel::Scalar, 0.0, 0.1, -0.05, 1e-6, &xs, &ys, &zs, &qs);
            let mut want_s = vec![0.1; n];
            let want_x = exchange_with(
                Kernel::Scalar,
                0.0,
                0.1,
                -0.05,
                0.7,
                1e-6,
                &xs,
                &ys,
                &zs,
                &qs,
                &mut want_s,
            );
            for kernel in Kernel::available() {
                let got = gather_with(kernel, 0.0, 0.1, -0.05, 1e-6, &xs, &ys, &zs, &qs);
                assert!(
                    (got - want).abs() < 1e-12 * (1.0 + want.abs()),
                    "{:?} gather n={}: {} vs {}",
                    kernel,
                    n,
                    got,
                    want
                );
                let mut s = vec![0.1; n];
                let got_x = exchange_with(
                    kernel, 0.0, 0.1, -0.05, 0.7, 1e-6, &xs, &ys, &zs, &qs, &mut s,
                );
                assert!((got_x - want_x).abs() < 1e-12 * (1.0 + want_x.abs()));
                for (a, b) in s.iter().zip(&want_s) {
                    assert!(
                        (a - b).abs() < 1e-12 * (1.0 + b.abs()),
                        "{:?} exchange s_out n={}",
                        kernel,
                        n
                    );
                }
            }
        }
    }

    /// `|got − want| ≤ 1e-13 · scale` on the potential and every field
    /// component, `scale` being the same sum over `|q|` (no cancellation).
    fn assert_force_close(
        got: (f64, [f64; 3]),
        want: (f64, [f64; 3]),
        scale: (f64, f64),
        what: &str,
    ) {
        assert!(
            (got.0 - want.0).abs() <= 1e-13 * scale.0,
            "{what} potential: {} vs {}",
            got.0,
            want.0
        );
        for d in 0..3 {
            assert!(
                (got.1[d] - want.1[d]).abs() <= 1e-13 * scale.1,
                "{what} field[{d}]: {} vs {}",
                got.1[d],
                want.1[d]
            );
        }
    }

    /// `(Σ|q|·r⁻¹, Σ|q|·r⁻²)` of a target against a source run.
    fn force_scale(
        t: [f64; 3],
        eps2: f64,
        src: &(Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>),
    ) -> (f64, f64) {
        let (xs, ys, zs, qs) = src;
        let mut scale = (0.0, 0.0);
        for j in 0..xs.len() {
            let r2 =
                (t[0] - xs[j]).powi(2) + (t[1] - ys[j]).powi(2) + (t[2] - zs[j]).powi(2) + eps2;
            scale.0 += qs[j].abs() / r2.sqrt();
            scale.1 += qs[j].abs() / r2;
        }
        scale
    }

    #[test]
    fn force_gather_agrees_across_kernels() {
        let t = [0.0, 0.1, -0.05];
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 537] {
            let src = soa(n, 23);
            let (xs, ys, zs, qs) = &src;
            for eps in [0.0, 0.05] {
                let eps2 = eps * eps;
                let want =
                    force_gather_with(Kernel::Scalar, t[0], t[1], t[2], eps2, xs, ys, zs, qs);
                let scale = force_scale(t, eps2, &src);
                for kernel in Kernel::available() {
                    let got = force_gather_with(kernel, t[0], t[1], t[2], eps2, xs, ys, zs, qs);
                    assert_force_close(got, want, scale, &format!("{kernel:?} n={n} eps={eps}"));
                }
            }
        }
    }

    #[test]
    fn force_gather_around_a_target_inside_the_source_block_is_finite() {
        // The near field's self box: the target is one of the sources, and
        // the caller gathers over the runs before and after it. Unsoftened,
        // nothing in either run (live lane or dead) may meet r = 0.
        let n = 17;
        let src = soa(n, 31);
        let (xs, ys, zs, qs) = &src;
        for i in [0, n / 2, n - 1] {
            let t = [xs[i], ys[i], zs[i]];
            let halves = |kernel| {
                let a = force_gather_with(
                    kernel,
                    t[0],
                    t[1],
                    t[2],
                    0.0,
                    &xs[..i],
                    &ys[..i],
                    &zs[..i],
                    &qs[..i],
                );
                let b = force_gather_with(
                    kernel,
                    t[0],
                    t[1],
                    t[2],
                    0.0,
                    &xs[i + 1..],
                    &ys[i + 1..],
                    &zs[i + 1..],
                    &qs[i + 1..],
                );
                (
                    a.0 + b.0,
                    [a.1[0] + b.1[0], a.1[1] + b.1[1], a.1[2] + b.1[2]],
                )
            };
            let want = halves(Kernel::Scalar);
            let mut rest = src.clone();
            rest.3[i] = 0.0;
            rest.0[i] += 1.0;
            let scale = force_scale(t, 0.0, &rest);
            for kernel in Kernel::available() {
                let got = halves(kernel);
                assert!(got.0.is_finite() && got.1.iter().all(|v| v.is_finite()));
                assert_force_close(got, want, scale, &format!("{kernel:?} split at {i}"));
            }
        }
    }

    #[test]
    fn force_gather_dead_lanes_contribute_exactly_zero() {
        // A target at the origin with ε = 0 puts r² = 0 on every dead lane
        // of a masked tail; unpinned, 0·rsqrt(0) = NaN would poison the
        // sums. Every tier must stay finite and agree with the scalar body.
        for n in [1usize, 7, 9, 15] {
            let src = soa(n, 41);
            let (xs, ys, zs, qs) = &src;
            let want = force_gather_with(Kernel::Scalar, 0.0, 0.0, 0.0, 0.0, xs, ys, zs, qs);
            let scale = force_scale([0.0; 3], 0.0, &src);
            for kernel in Kernel::available() {
                let got = force_gather_with(kernel, 0.0, 0.0, 0.0, 0.0, xs, ys, zs, qs);
                assert_force_close(got, want, scale, &format!("{kernel:?} origin n={n}"));
                // AVX-512 is the masked-tail tier: padding the run to whole
                // vectors with zero charges puts the same values in the
                // same lanes, so the bits must not move. (Tiers with a
                // scalar tail associate the padded sum differently.)
                if kernel == Kernel::Avx512 {
                    let pad = |v: &[f64], fill: f64| {
                        let mut v = v.to_vec();
                        v.resize(n.next_multiple_of(8), fill);
                        v
                    };
                    let padded = force_gather_with(
                        kernel,
                        0.0,
                        0.0,
                        0.0,
                        0.0,
                        &pad(xs, 1.0),
                        &pad(ys, 0.0),
                        &pad(zs, 0.0),
                        &pad(qs, 0.0),
                    );
                    assert_eq!(got.0.to_bits(), padded.0.to_bits(), "n={n}");
                    for d in 0..3 {
                        assert_eq!(got.1[d].to_bits(), padded.1[d].to_bits(), "n={n} [{d}]");
                    }
                }
            }
        }
    }

    #[test]
    fn f32_kernels_agree_with_f32_scalar() {
        for n in [0usize, 1, 5, 8, 15, 16, 17, 33, 120] {
            let (xs, ys, zs, qs) = soa(n, 7);
            let xs: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
            let ys: Vec<f32> = ys.iter().map(|&v| v as f32).collect();
            let zs: Vec<f32> = zs.iter().map(|&v| v as f32).collect();
            let qs: Vec<f32> = qs.iter().map(|&v| v as f32).collect();
            let (wp, wf) =
                force_gather_f32_with(Kernel::Scalar, 0.0, 0.1, -0.05, 0.0, &xs, &ys, &zs, &qs);
            let mut want_s = vec![0.0f64; n];
            let want_x = exchange_f32_with(
                Kernel::Scalar,
                0.0,
                0.1,
                -0.05,
                0.7,
                0.0,
                &xs,
                &ys,
                &zs,
                &qs,
                &mut want_s,
            );
            // The SIMD f32 paths use refined rsqrt estimates: a few f32
            // ulps per term, so compare at ~1e-5 relative.
            let tol = |r: f32| 1e-5 * (1.0 + r.abs());
            for kernel in Kernel::available() {
                let (gp, gf) =
                    force_gather_f32_with(kernel, 0.0, 0.1, -0.05, 0.0, &xs, &ys, &zs, &qs);
                assert!((gp - wp).abs() < tol(wp), "{:?} n={}", kernel, n);
                for d in 0..3 {
                    assert!(
                        (gf[d] - wf[d]).abs() < 10.0 * tol(wf[d]),
                        "{:?} force[{}] n={}: {} vs {}",
                        kernel,
                        d,
                        n,
                        gf[d],
                        wf[d]
                    );
                }
                let mut s = vec![0.0f64; n];
                let got_x = exchange_f32_with(
                    kernel, 0.0, 0.1, -0.05, 0.7, 0.0, &xs, &ys, &zs, &qs, &mut s,
                );
                assert!((got_x - want_x).abs() < tol(want_x));
                for (a, b) in s.iter().zip(&want_s) {
                    assert!((a - b).abs() < 1e-5 * (1.0 + b.abs()));
                }
            }
        }
    }

    #[test]
    fn f32_panel_matches_per_target_calls() {
        // The panel entry point must agree with one exchange_f32_with call
        // per target. The AVX-512 pair path sums the two targets' source
        // contributions in f32 before widening — one extra rounding — so
        // the comparison is at f32 tolerance, not bitwise.
        for (nt, n) in [(1usize, 17usize), (2, 16), (5, 33), (8, 120), (29, 29)] {
            let (sx, sy, sz, sq) = soa(n, 11);
            let (tx, ty, tz, tq) = soa(nt, 13);
            let f = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
            let (sx, sy, sz, sq) = (f(&sx), f(&sy), f(&sz), f(&sq));
            let (tx, ty, tz, tq) = (f(&tx), f(&ty), f(&tz), f(&tq));
            for kernel in Kernel::available() {
                let mut want_t = vec![0.0f64; nt];
                let mut want_s = vec![0.0f64; n];
                for i in 0..nt {
                    want_t[i] += exchange_f32_with(
                        kernel,
                        tx[i],
                        ty[i],
                        tz[i],
                        tq[i],
                        1e-4,
                        &sx,
                        &sy,
                        &sz,
                        &sq,
                        &mut want_s,
                    ) as f64;
                }
                let mut got_t = vec![0.0f64; nt];
                let mut got_s = vec![0.0f64; n];
                exchange_f32_panel_with(
                    kernel, &tx, &ty, &tz, &tq, 1e-4, &sx, &sy, &sz, &sq, &mut got_t, &mut got_s,
                );
                for (a, b) in got_t.iter().zip(&want_t) {
                    assert!(
                        (a - b).abs() < 1e-5 * (1.0 + b.abs()),
                        "{:?} panel t_out nt={} n={}: {} vs {}",
                        kernel,
                        nt,
                        n,
                        a,
                        b
                    );
                }
                for (a, b) in got_s.iter().zip(&want_s) {
                    assert!(
                        (a - b).abs() < 1e-5 * (1.0 + b.abs()),
                        "{:?} panel s_out nt={} n={}: {} vs {}",
                        kernel,
                        nt,
                        n,
                        a,
                        b
                    );
                }
            }
        }
    }
}
