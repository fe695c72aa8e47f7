//! Pairwise particle–particle microkernels for the near field.
//!
//! One target against a contiguous SoA run of sources, `Σ q_s/√(r²+ε²)`,
//! in three shapes: *gather* (target-only accumulation), *exchange* (the
//! symmetric Newton's-third-law form — the target gathers while each
//! source accumulates the reciprocal term into an f64 `s_out`; one target
//! per source sweep, or two) and *force gather* (potential and field
//! `Σ q_s·r⁻³·Δ` together). Each shape is written once over the crate's
//! `Lanes` vector type and serves both precisions; a tier is a set of
//! concrete entry points (`x86::gather_avx2`, …) that [`Kernel`] dispatch
//! selects among, and `lanes.rs`'s header tabulates what each tier is. The
//! scalar tier is its own exact-`sqrt` bodies, which the vector tiers also
//! run over whatever a run leaves after its last whole vector, seeded with
//! the vector partial sums. The f32 kernels power the mixed-precision near
//! field, whose error budget is derived in DESIGN.md §5.5.
//!
//! Newton–Raphson squares the relative error each step (`e ← 3/2·e²`), so
//! the f64 paths land at ~1 ulp (2⁻¹⁴ → 2⁻²⁷ → 2⁻⁵³ for AVX-512) and the
//! f32 paths below f32 machine epsilon. x86 steps are
//! `y ← ½y·(3 − r²y²)` with one `fnmadd`; NEON's are `y ← y·vrsqrts(r²y, y)`.
//! `r² + ε²` is `fma(Δz, Δz, fma(Δy, Δy, fma(Δx, Δx, ε²)))` on every
//! vector tier and `Δx² + Δy² + Δz² + ε²`, unfused, on the scalar one.
//!
//! In a masked tail, dead lanes load 0 for every coordinate and charge
//! and have r² pinned to 1 (it would be `|t|² + ε²`, which can be 0, and
//! 0·∞ = NaN would poison the sums), so they add exactly 0, and the
//! `s_out` update is write-masked. A box holds few enough particles that
//! a scalar tail would dominate those calls. Only AVX-512 has the
//! two-target bodies, the exchange ([`exchange_panel_with`],
//! [`exchange_f32_panel_with`]) and the force gather
//! ([`force_gather_panel_with`], [`force_gather_f32_panel_with`]); the
//! other tiers serve a panel one single-target call per target. A force
//! panel returns each target's single-target bits; an exchange panel sums
//! a pair's source-side terms first.

// Hosts with no vector tier still build the vector bodies' source.
#![cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(dead_code)
)]

use crate::kernel::Kernel;
use crate::lanes::{Lanes, Real};

/// The vector bodies read every slice through raw pointers up to the
/// first one's length, so the safe entry points check the lengths — in
/// release builds too — before they dispatch.
macro_rules! assert_equal_lengths {
    ($first:ident, $($rest:ident),+) => {
        assert!(
            $($rest.len() == $first.len())&&+,
            "pairwise: slices of unequal lengths"
        )
    };
}

/// A single-target operation's safe entry: the length check, then
/// [`Kernel`] dispatch of the same arguments to the tier's entry point.
macro_rules! dispatch {
    (
        $kernel:ident,
        [$avx2:ident, $avx512:ident, $neon:ident, $scalar:ident],
        ($($target:ident),+),
        ($($slice:ident),+)
    ) => {{
        assert_equal_lengths!($($slice),+);
        match $kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: callers obtain the kernel from detect()/supported();
            // slice lengths checked above.
            Kernel::Avx2Fma => unsafe { x86::$avx2($($target),+, $($slice),+) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Kernel::Avx512 => unsafe { x86::$avx512($($target),+, $($slice),+) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is architecturally guaranteed on aarch64; lengths as above.
            Kernel::Neon => unsafe { arm::$neon($($target),+, $($slice),+) },
            _ => scalar::$scalar($($target),+, $($slice),+),
        }
    }};
}

/// f64 gather: `Σ q_s/√(r²+ε²)` of one target against a source run.
/// Panics if the four source slices differ in length.
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
    dispatch!(
        kernel,
        [gather_avx2, gather_avx512, gather_neon, gather_scalar],
        (tx, ty, tz, eps2),
        (xs, ys, zs, qs)
    )
}

/// f64 exchange: the target gathers `Σ q_s·r⁻¹` (returned) while each
/// source accumulates `q_t·r⁻¹` into `s_out`.
/// Panics if the source slices and `s_out` differ in length.
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
    dispatch!(
        kernel,
        [
            exchange_avx2,
            exchange_avx512,
            exchange_neon,
            exchange_scalar
        ],
        (tx, ty, tz, tq, eps2),
        (xs, ys, zs, qs, s_out)
    )
}

/// f32 exchange (mixed-precision symmetric near field). Every pairwise
/// term is computed in f32, but each source's contribution is widened to
/// f64 before the scatter-add into `s_out`, so f32 rounding never
/// *accumulates* on the source side — the caller likewise adds the
/// returned target partial into an f64 accumulator per call. This keeps
/// the f32 error per output at O(per-term) instead of O(chain length),
/// which is what the documented ≤1e-5 near-field bound relies on (see
/// DESIGN.md §5.5).
/// Panics if the source slices and `s_out` differ in length.
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
    dispatch!(
        kernel,
        [
            exchange_f32_avx2,
            exchange_f32_avx512,
            exchange_f32_neon,
            exchange_f32_scalar
        ],
        (tx, ty, tz, tq, eps2),
        (xs, ys, zs, qs, s_out)
    )
}

/// A panel operation's safe entry: the length checks, then AVX-512's
/// two-target entry point, or on any other tier one single-target
/// exchange per target, its sum added into the target's `t_out` slot.
macro_rules! panel_dispatch {
    (
        $kernel:ident, $avx512:ident, $single:ident,
        ($txs:ident, $tys:ident, $tzs:ident, $tqs:ident), $eps2:ident,
        ($($src:ident),+), $t_out:ident, $s_out:ident
    ) => {{
        assert_equal_lengths!($txs, $tys, $tzs, $tqs, $t_out);
        assert_equal_lengths!($($src),+, $s_out);
        match $kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: callers obtain the kernel from detect()/supported();
            // slice lengths checked above.
            Kernel::Avx512 => unsafe {
                x86::$avx512($txs, $tys, $tzs, $tqs, $eps2, $($src),+, $t_out, $s_out)
            },
            _ => {
                for (i, t) in $t_out.iter_mut().enumerate() {
                    let (tx, ty, tz, tq) = ($txs[i], $tys[i], $tzs[i], $tqs[i]);
                    *t += f64::from($single($kernel, tx, ty, tz, tq, $eps2, $($src),+, $s_out));
                }
            }
        }
    }};
}

/// f64 exchange over a whole panel of targets against one source run.
/// The same sums as one [`exchange_with`] call per target, each target's
/// added into `t_out[i]`, each source's into `s_out[j]`; but the AVX-512
/// path serves two targets per source sweep: source coordinates load once
/// per vector, the two rsqrt chains interleave, and the pair's source-side
/// terms are summed in one vector (one more rounding per source and pair)
/// before a single add into `s_out`. Other kernels run the per-target
/// routine, bit for bit.
/// Panics if the target slices and `t_out`, or the source slices and
/// `s_out`, differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn exchange_panel_with(
    kernel: Kernel,
    txs: &[f64],
    tys: &[f64],
    tzs: &[f64],
    tqs: &[f64],
    eps2: f64,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    t_out: &mut [f64],
    s_out: &mut [f64],
) {
    panel_dispatch!(
        kernel,
        exchange_panel_avx512,
        exchange_with,
        (txs, tys, tzs, tqs),
        eps2,
        (xs, ys, zs, qs),
        t_out,
        s_out
    )
}

/// f32 exchange over a whole panel of targets against one source box:
/// [`exchange_panel_with`] in f32. Each target's f32 partial is widened
/// into `t_out[i]`, each source's per-term contributions into `s_out[j]`;
/// on AVX-512 a pair's source-side contributions are summed in f32 (one
/// extra rounding within the box pair, inside the documented error model)
/// before a single widened scatter-add.
/// Panics if the target slices and `t_out`, or the source slices and
/// `s_out`, differ in length.
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
    panel_dispatch!(
        kernel,
        exchange_f32_panel_avx512,
        exchange_f32_with,
        (txs, tys, tzs, tqs),
        eps2,
        (xs, ys, zs, qs),
        t_out,
        s_out
    )
}

/// f32 potential + field gather: returns `(Σ q·r⁻¹, Σ q·r⁻³·Δ)` for one
/// target against a source run (mixed-precision force near field).
/// Panics if the four source slices differ in length.
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
    dispatch!(
        kernel,
        [
            force_gather_f32_avx2,
            force_gather_f32_avx512,
            force_gather_f32_neon,
            force_gather_f32_scalar
        ],
        (tx, ty, tz, eps2),
        (xs, ys, zs, qs)
    )
}

/// f64 potential + field gather: returns `(Σ q·r⁻¹, Σ q·r⁻³·Δ)` for one
/// target against a source run (the target-centric force near field). The
/// target must not be among the sources: a caller whose target sits inside
/// the source block gathers over the sub-runs before and after it.
/// Panics if the four source slices differ in length.
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
    dispatch!(
        kernel,
        [
            force_gather_avx2,
            force_gather_avx512,
            force_gather_neon,
            force_gather_scalar
        ],
        (tx, ty, tz, eps2),
        (xs, ys, zs, qs)
    )
}

/// A force panel's safe entry: the length checks, then AVX-512's
/// two-target entry point, or on any other tier one single-target force
/// gather per target, its sums widened and added into the target's slots.
macro_rules! force_panel_dispatch {
    (
        $kernel:ident, $avx512:ident, $single:ident,
        ($txs:ident, $tys:ident, $tzs:ident), $eps2:ident,
        ($($src:ident),+), $p_out:ident, $f_out:ident
    ) => {{
        assert_equal_lengths!($txs, $tys, $tzs, $p_out, $f_out);
        assert_equal_lengths!($($src),+);
        match $kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: callers obtain the kernel from detect()/supported();
            // slice lengths checked above.
            Kernel::Avx512 => unsafe {
                x86::$avx512($txs, $tys, $tzs, $eps2, $($src),+, $p_out, $f_out)
            },
            _ => {
                for (i, (po, fo)) in $p_out.iter_mut().zip($f_out.iter_mut()).enumerate() {
                    let (p, f) = $single($kernel, $txs[i], $tys[i], $tzs[i], $eps2, $($src),+);
                    *po += f64::from(p);
                    for c in 0..3 {
                        fo[c] += f64::from(f[c]);
                    }
                }
            }
        }
    }};
}

/// f64 potential + field gather over a panel of targets against one
/// source run: the sums of one [`force_gather_with`] call per target, bit
/// for bit, each added into the target's `p_out` and `f_out` slots. On
/// AVX-512 two targets share each source sweep (the sources load once per
/// vector and the two rsqrt chains interleave) and an odd last target
/// takes the single-target body; other kernels make one call per target.
/// No target may be among the sources.
/// Panics if the target slices, `p_out` and `f_out`, or the source
/// slices, differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn force_gather_panel_with(
    kernel: Kernel,
    txs: &[f64],
    tys: &[f64],
    tzs: &[f64],
    eps2: f64,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    qs: &[f64],
    p_out: &mut [f64],
    f_out: &mut [[f64; 3]],
) {
    force_panel_dispatch!(
        kernel,
        force_gather_panel_avx512,
        force_gather_with,
        (txs, tys, tzs),
        eps2,
        (xs, ys, zs, qs),
        p_out,
        f_out
    )
}

/// [`force_gather_panel_with`] in f32: each target's f32 sums, bit for bit
/// those of one [`force_gather_f32_with`] call, are widened and added
/// into its `p_out` and `f_out` slots.
/// Panics if the target slices, `p_out` and `f_out`, or the source
/// slices, differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn force_gather_f32_panel_with(
    kernel: Kernel,
    txs: &[f32],
    tys: &[f32],
    tzs: &[f32],
    eps2: f32,
    xs: &[f32],
    ys: &[f32],
    zs: &[f32],
    qs: &[f32],
    p_out: &mut [f64],
    f_out: &mut [[f64; 3]],
) {
    force_panel_dispatch!(
        kernel,
        force_gather_f32_panel_avx512,
        force_gather_f32_with,
        (txs, tys, tzs),
        eps2,
        (xs, ys, zs, qs),
        p_out,
        f_out
    )
}

/// A run of sources (or a panel of targets) as four SoA slices, which the
/// entry points above have checked to be of one length.
#[derive(Clone, Copy)]
struct Run<'a, T> {
    xs: &'a [T],
    ys: &'a [T],
    zs: &'a [T],
    qs: &'a [T],
}

// ---------------------------------------------------------------- scalar
//
// The scalar tier, the reference every other tier is tested against, and
// the tail of every vector tier without a masked one: each body runs over
// the sources from `from` on and continues from the accumulators it is
// handed, so a tail adds its terms to the vector partial sums one by one
// in source order. (Indexing from `from`, not re-slicing there: four slice
// checks cost a call on eight sources a tenth of its time.)

#[inline(always)]
fn gather_from<T: Real>(mut acc: T, t: [T; 3], eps2: T, src: Run<T>, from: usize) -> T {
    let Run { xs, ys, zs, qs } = src;
    for j in from..xs.len() {
        let dx = t[0] - xs[j];
        let dy = t[1] - ys[j];
        let dz = t[2] - zs[j];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        acc += qs[j] / r2.sqrt();
    }
    acc
}

/// `t` is the target's `[x, y, z, q]`; `s_out` is as long as `src`.
#[inline(always)]
fn exchange_from<T: Real>(
    mut acc: T,
    t: [T; 4],
    eps2: T,
    src: Run<T>,
    s_out: &mut [f64],
    from: usize,
) -> T {
    let Run { xs, ys, zs, qs } = src;
    for j in from..xs.len() {
        let dx = t[0] - xs[j];
        let dy = t[1] - ys[j];
        let dz = t[2] - zs[j];
        let inv_r = T::ONE / (dx * dx + dy * dy + dz * dz + eps2).sqrt();
        acc += qs[j] * inv_r;
        s_out[j] += (t[3] * inv_r).into();
    }
    acc
}

#[inline(always)]
fn force_gather_from<T: Real>(
    mut p: T,
    mut f: [T; 3],
    t: [T; 3],
    eps2: T,
    src: Run<T>,
    from: usize,
) -> (T, [T; 3]) {
    let Run { xs, ys, zs, qs } = src;
    for j in from..xs.len() {
        let dx = t[0] - xs[j];
        let dy = t[1] - ys[j];
        let dz = t[2] - zs[j];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        let inv_r = T::ONE / r2.sqrt();
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

/// One tier's five single-target entry points, or its four panel entry
/// points, each the named body behind a concrete signature. Not generic
/// and not `#[inline]`, so this crate holds the one compiled copy of
/// each, whoever calls it. The target
/// crosses as scalars, in registers: an array would go through memory,
/// where its reload as one vector stalls on the caller's element-wise
/// stores and serializes back-to-back calls.
macro_rules! entry_points {
    (
        $(#[$tier:meta])*
        pub $($fn:ident)+ {
            $gather:ident = $gather_body:expr;
            $exchange:ident = $exchange_body:expr;
            $exchange_f32:ident = $exchange_f32_body:expr;
            $force_gather_f32:ident = $force_gather_f32_body:expr;
            $force_gather:ident = $force_gather_body:expr;
        }
    ) => {
        entry_points!(@gather $(#[$tier])* [$($fn)+] $gather(f64) -> f64 = $gather_body);
        entry_points!(@exchange $(#[$tier])* [$($fn)+] $exchange(f64) = $exchange_body);
        entry_points!(
            @exchange $(#[$tier])* [$($fn)+] $exchange_f32(f32) = $exchange_f32_body
        );
        entry_points!(
            @gather $(#[$tier])* [$($fn)+]
            $force_gather_f32(f32) -> (f32, [f32; 3]) = $force_gather_f32_body
        );
        entry_points!(
            @gather $(#[$tier])* [$($fn)+]
            $force_gather(f64) -> (f64, [f64; 3]) = $force_gather_body
        );
    };
    // Target and run in, sums out: `gather` and `force_gather`.
    (
        @gather $(#[$tier:meta])* [$($fn:ident)+]
        $name:ident($T:ty) -> $Sums:ty = $body:expr
    ) => {
        $(#[$tier])*
        #[allow(clippy::too_many_arguments)]
        pub $($fn)+ $name(
            tx: $T,
            ty: $T,
            tz: $T,
            eps2: $T,
            xs: &[$T],
            ys: &[$T],
            zs: &[$T],
            qs: &[$T],
        ) -> $Sums {
            $body([tx, ty, tz], eps2, Run { xs, ys, zs, qs })
        }
    };
    // A tier's four panel entry points: exchange and force gather, f64
    // and f32.
    (
        $(#[$tier:meta])*
        pub $($fn:ident)+ {
            $panel:ident = $panel_body:expr;
            $panel_f32:ident = $panel_f32_body:expr;
            $force_panel:ident = $force_panel_body:expr;
            $force_panel_f32:ident = $force_panel_f32_body:expr;
        }
    ) => {
        entry_points!(@panel $(#[$tier])* [$($fn)+] $panel(f64) = $panel_body);
        entry_points!(@panel $(#[$tier])* [$($fn)+] $panel_f32(f32) = $panel_f32_body);
        entry_points!(@force_panel $(#[$tier])* [$($fn)+] $force_panel(f64) = $force_panel_body);
        entry_points!(
            @force_panel $(#[$tier])* [$($fn)+] $force_panel_f32(f32) = $force_panel_f32_body
        );
    };
    (@force_panel $(#[$tier:meta])* [$($fn:ident)+] $name:ident($T:ty) = $body:expr) => {
        $(#[$tier])*
        #[allow(clippy::too_many_arguments)]
        pub $($fn)+ $name(
            txs: &[$T],
            tys: &[$T],
            tzs: &[$T],
            eps2: $T,
            xs: &[$T],
            ys: &[$T],
            zs: &[$T],
            qs: &[$T],
            p_out: &mut [f64],
            f_out: &mut [[f64; 3]],
        ) {
            $body([txs, tys, tzs], eps2, Run { xs, ys, zs, qs }, p_out, f_out)
        }
    };
    (@panel $(#[$tier:meta])* [$($fn:ident)+] $name:ident($T:ty) = $body:expr) => {
        $(#[$tier])*
        #[allow(clippy::too_many_arguments)]
        pub $($fn)+ $name(
            txs: &[$T],
            tys: &[$T],
            tzs: &[$T],
            tqs: &[$T],
            eps2: $T,
            xs: &[$T],
            ys: &[$T],
            zs: &[$T],
            qs: &[$T],
            t_out: &mut [f64],
            s_out: &mut [f64],
        ) {
            let targets = Run { xs: txs, ys: tys, zs: tzs, qs: tqs };
            $body(targets, eps2, Run { xs, ys, zs, qs }, t_out, s_out)
        }
    };
    (@exchange $(#[$tier:meta])* [$($fn:ident)+] $name:ident($T:ty) = $body:expr) => {
        $(#[$tier])*
        #[allow(clippy::too_many_arguments)]
        pub $($fn)+ $name(
            tx: $T,
            ty: $T,
            tz: $T,
            tq: $T,
            eps2: $T,
            xs: &[$T],
            ys: &[$T],
            zs: &[$T],
            qs: &[$T],
            s_out: &mut [f64],
        ) -> $T {
            let [sum] = $body([[tx, ty, tz, tq]], eps2, Run { xs, ys, zs, qs }, s_out);
            sum
        }
    };
}

mod scalar {
    use super::{exchange_from, force_gather_from, gather_from, Run};

    entry_points! {
        /// The scalar body over the whole run, from zero.
        pub fn {
            gather_scalar = |t, eps2, src| gather_from(0.0, t, eps2, src, 0);
            exchange_scalar =
                |[t]: [_; 1], eps2, src, s_out| [exchange_from(0.0, t, eps2, src, s_out, 0)];
            exchange_f32_scalar =
                |[t]: [_; 1], eps2, src, s_out| [exchange_from(0.0, t, eps2, src, s_out, 0)];
            force_gather_f32_scalar =
                |t, eps2, src| force_gather_from(0.0, [0.0; 3], t, eps2, src, 0);
            force_gather_scalar = |t, eps2, src| force_gather_from(0.0, [0.0; 3], t, eps2, src, 0);
        }
    }
}

// ---------------------------------------------------------------- vector

/// One vector of sources at `j`: `Δ = t − s` per axis and `r² + ε²`, the
/// lanes outside `mask` pinned to r² = 1.
///
/// # Safety
/// As [`Lanes`]; the lanes of `mask` at `j` lie inside `src`.
#[inline(always)]
unsafe fn delta_r2<L: Lanes>(
    t: &[L],
    e2: L,
    src: Run<L::Elem>,
    j: usize,
    mask: u16,
) -> ([L; 3], L) {
    let d = [
        L::sub(t[0], L::load(src.xs.as_ptr().add(j), mask)),
        L::sub(t[1], L::load(src.ys.as_ptr().add(j), mask)),
        L::sub(t[2], L::load(src.zs.as_ptr().add(j), mask)),
    ];
    let r2 = L::fma(d[2], d[2], L::fma(d[1], d[1], L::fma(d[0], d[0], e2)));
    (d, L::pin_dead(r2, mask))
}

/// One vector of sources at `j` into `acc = Σ q·r⁻¹`.
///
/// # Safety
/// As [`Lanes`]; the lanes of `mask` at `j` lie inside `src`.
#[inline(always)]
unsafe fn gather_step<L: Lanes>(
    tv: &[L; 3],
    e2: L,
    acc: &mut L,
    src: Run<L::Elem>,
    j: usize,
    mask: u16,
) {
    let (_, r2) = delta_r2(tv, e2, src, j, mask);
    // A dead lane's charge loads as 0, so it leaves `acc` as it was.
    let q = L::load(src.qs.as_ptr().add(j), mask);
    *acc = L::fma(q, L::rsqrt_nr(r2), *acc);
}

/// # Safety
/// Requires the CPU features of `L`'s tier; `src`'s slices of one length.
#[inline(always)]
unsafe fn gather<L: Lanes, const MASKED: bool>(
    t: [L::Elem; 3],
    eps2: L::Elem,
    src: Run<L::Elem>,
) -> L::Elem {
    const { assert!(L::MASKED_TAIL || !MASKED) };
    let tv = [L::splat(t[0]), L::splat(t[1]), L::splat(t[2])];
    let e2 = L::splat(eps2);
    let mut acc = L::zero();
    let n = src.xs.len();
    let whole = n - n % L::WIDTH;
    let mut j = 0;
    while j < whole {
        gather_step(&tv, e2, &mut acc, src, j, L::FULL);
        j += L::WIDTH;
    }
    if MASKED && whole < n {
        let live = L::FULL >> (L::WIDTH - (n - whole));
        gather_step(&tv, e2, &mut acc, src, whole, live);
    }
    // The scalar body takes what the vectors left: nothing after a masked tail.
    let rest = if MASKED { n } else { whole };
    gather_from(L::hsum(acc), t, eps2, src, rest)
}

/// One vector of sources at `j` against `NT` targets `tv = [x, y, z, q]`.
///
/// # Safety
/// As [`Lanes`]; the lanes of `mask` at `j` lie inside `src`, and `so` is
/// valid for as many f64s as `src` holds.
#[inline(always)]
unsafe fn exchange_step<L: Lanes, const NT: usize>(
    tv: &[[L; 4]; NT],
    e2: L,
    acc: &mut [L; NT],
    src: Run<L::Elem>,
    so: *mut f64,
    j: usize,
    mask: u16,
) {
    // A dead lane's charge loads as 0, so it leaves `acc` as it was.
    let q = L::load(src.qs.as_ptr().add(j), mask);
    let mut inv_r = [L::zero(); NT];
    for k in 0..NT {
        let (_, r2) = delta_r2(&tv[k], e2, src, j, mask);
        inv_r[k] = L::rsqrt_nr(r2);
        acc[k] = L::fma(q, inv_r[k], acc[k]);
    }
    if NT == 1 {
        L::scatter_fma(so.add(j), tv[0][3], inv_r[0], mask)
    } else {
        // The targets' source-side terms are summed in lane precision —
        // one extra rounding per further target — and scattered once.
        let mut terms = L::mul(tv[0][3], inv_r[0]);
        for k in 1..NT {
            terms = L::fma(tv[k][3], inv_r[k], terms);
        }
        L::scatter_add(so.add(j), terms, mask)
    }
}

/// `NT` targets `t = [x, y, z, q]` share one sweep over the sources;
/// returns each target's gathered sum.
///
/// # Safety
/// Requires the CPU features of `L`'s tier; `src`'s slices and `s_out` of
/// one length.
#[inline(always)]
unsafe fn exchange<L: Lanes, const NT: usize, const MASKED: bool>(
    t: [[L::Elem; 4]; NT],
    eps2: L::Elem,
    src: Run<L::Elem>,
    s_out: &mut [f64],
) -> [L::Elem; NT] {
    const { assert!(L::MASKED_TAIL || !MASKED) };
    let mut tv = [[L::zero(); 4]; NT];
    for k in 0..NT {
        for c in 0..4 {
            tv[k][c] = L::splat(t[k][c]);
        }
    }
    let e2 = L::splat(eps2);
    let mut acc = [L::zero(); NT];
    let so = s_out.as_mut_ptr();
    let n = src.xs.len();
    let whole = n - n % L::WIDTH;
    let mut j = 0;
    while j < whole {
        exchange_step(&tv, e2, &mut acc, src, so, j, L::FULL);
        j += L::WIDTH;
    }
    if MASKED && whole < n {
        let live = L::FULL >> (L::WIDTH - (n - whole));
        exchange_step(&tv, e2, &mut acc, src, so, whole, live);
    }
    // The scalar body takes what the vectors left: nothing after a masked tail.
    let rest = if MASKED { n } else { whole };
    let mut sum = [L::Elem::ZERO; NT];
    for k in 0..NT {
        sum[k] = exchange_from(L::hsum(acc[k]), t[k], eps2, src, s_out, rest);
    }
    sum
}

/// A panel of targets against one run of sources: pairs of targets share
/// each source sweep — the sources load once per vector and the two rsqrt
/// chains interleave, twice the ILP of one target — and an odd last
/// target takes the single-target body. Each target's sum is widened into
/// its `t_out` slot.
///
/// # Safety
/// Requires the CPU features of `L`'s tier, which has a masked tail;
/// `tgt`'s slices and `t_out` of one length, `src`'s and `s_out` of one.
#[inline(always)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
unsafe fn exchange_panel<L: Lanes>(
    tgt: Run<L::Elem>,
    eps2: L::Elem,
    src: Run<L::Elem>,
    t_out: &mut [f64],
    s_out: &mut [f64],
) {
    let target = |a: usize| [tgt.xs[a], tgt.ys[a], tgt.zs[a], tgt.qs[a]];
    let mut a = 0;
    while a + 2 <= t_out.len() {
        let [p0, p1] = exchange::<L, 2, true>([target(a), target(a + 1)], eps2, src, s_out);
        t_out[a] += p0.into();
        t_out[a + 1] += p1.into();
        a += 2;
    }
    if a < t_out.len() {
        let [p] = exchange::<L, 1, true>([target(a)], eps2, src, s_out);
        t_out[a] += p.into();
    }
}

/// One vector of sources at `j` against `NT` targets `tv = [x, y, z]`,
/// into each target's `acc = [Σ q·r⁻³·Δ (x, y, z), Σ q·r⁻¹]`. The targets
/// share the loads; each one's arithmetic is the single-target step's.
///
/// # Safety
/// As [`Lanes`]; the lanes of `mask` at `j` lie inside `src`.
#[inline(always)]
unsafe fn force_step<L: Lanes, const NT: usize>(
    tv: &[[L; 3]; NT],
    e2: L,
    acc: &mut [[L; 4]; NT],
    src: Run<L::Elem>,
    j: usize,
    mask: u16,
) {
    // A dead lane's charge loads as 0, so qr and qr3 vanish there.
    let q = L::load(src.qs.as_ptr().add(j), mask);
    for k in 0..NT {
        let (d, r2) = delta_r2(&tv[k], e2, src, j, mask);
        let inv_r = L::rsqrt_nr(r2);
        let qr = L::mul(q, inv_r);
        acc[k][3] = L::add(acc[k][3], qr);
        let qr3 = L::mul(qr, L::mul(inv_r, inv_r));
        for c in 0..3 {
            acc[k][c] = L::fma(qr3, d[c], acc[k][c]);
        }
    }
}

/// `NT` targets `t = [x, y, z]` share one sweep over the sources; returns
/// each target's `(Σ q·r⁻¹, Σ q·r⁻³·Δ)`, bit for bit what a sweep of its
/// own returns.
///
/// # Safety
/// Requires the CPU features of `L`'s tier; `src`'s slices of one length.
#[inline(always)]
unsafe fn force_sweep<L: Lanes, const NT: usize, const MASKED: bool>(
    t: [[L::Elem; 3]; NT],
    eps2: L::Elem,
    src: Run<L::Elem>,
) -> [(L::Elem, [L::Elem; 3]); NT] {
    const { assert!(L::MASKED_TAIL || !MASKED) };
    let mut tv = [[L::zero(); 3]; NT];
    for k in 0..NT {
        for c in 0..3 {
            tv[k][c] = L::splat(t[k][c]);
        }
    }
    let e2 = L::splat(eps2);
    let mut acc = [[L::zero(); 4]; NT];
    let n = src.xs.len();
    let whole = n - n % L::WIDTH;
    let mut j = 0;
    while j < whole {
        force_step(&tv, e2, &mut acc, src, j, L::FULL);
        j += L::WIDTH;
    }
    if MASKED && whole < n {
        let live = L::FULL >> (L::WIDTH - (n - whole));
        force_step(&tv, e2, &mut acc, src, whole, live);
    }
    // The scalar body takes what the vectors left: nothing after a masked tail.
    let rest = if MASKED { n } else { whole };
    let mut sums = [(L::Elem::ZERO, [L::Elem::ZERO; 3]); NT];
    for k in 0..NT {
        let f = [L::hsum(acc[k][0]), L::hsum(acc[k][1]), L::hsum(acc[k][2])];
        sums[k] = force_gather_from(L::hsum(acc[k][3]), f, t[k], eps2, src, rest);
    }
    sums
}

/// # Safety
/// As [`force_sweep`].
#[inline(always)]
unsafe fn force_gather<L: Lanes, const MASKED: bool>(
    t: [L::Elem; 3],
    eps2: L::Elem,
    src: Run<L::Elem>,
) -> (L::Elem, [L::Elem; 3]) {
    let [sums] = force_sweep::<L, 1, MASKED>([t], eps2, src);
    sums
}

/// A panel of targets `tgt = [xs, ys, zs]` against one run of sources:
/// pairs of targets share each source sweep and an odd last target takes
/// the single-target body. Each target's sums are widened and added into
/// its `p_out` and `f_out` slots, bit for bit what one [`force_gather`]
/// per target adds.
///
/// # Safety
/// Requires the CPU features of `L`'s tier, which has a masked tail;
/// `tgt`'s slices, `p_out` and `f_out` of one length, `src`'s of one.
#[inline(always)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
unsafe fn force_panel<L: Lanes>(
    tgt: [&[L::Elem]; 3],
    eps2: L::Elem,
    src: Run<L::Elem>,
    p_out: &mut [f64],
    f_out: &mut [[f64; 3]],
) {
    let target = |a: usize| tgt.map(|c| c[a]);
    let add = |a: usize, (p, f): (L::Elem, [L::Elem; 3]), po: &mut [f64], fo: &mut [[f64; 3]]| {
        po[a] += p.into();
        for c in 0..3 {
            fo[a][c] += f[c].into();
        }
    };
    let mut a = 0;
    while a + 2 <= p_out.len() {
        let [s0, s1] = force_sweep::<L, 2, true>([target(a), target(a + 1)], eps2, src);
        add(a, s0, p_out, f_out);
        add(a + 1, s1, p_out, f_out);
        a += 2;
    }
    if a < p_out.len() {
        add(
            a,
            force_gather::<L, true>(target(a), eps2, src),
            p_out,
            f_out,
        );
    }
}

// ---------------------------------------------------------------- x86-64

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{exchange, exchange_panel, force_gather, force_panel, gather, Run};
    use core::arch::x86_64::*;

    entry_points! {
        /// # Safety
        /// Requires AVX2+FMA; all slices (including `s_out`) equal lengths.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn {
            gather_avx2 = gather::<__m256d, false>;
            exchange_avx2 = exchange::<__m256d, 1, false>;
            exchange_f32_avx2 = exchange::<__m256, 1, false>;
            force_gather_f32_avx2 = force_gather::<__m256, false>;
            force_gather_avx2 = force_gather::<__m256d, false>;
        }
    }

    entry_points! {
        /// # Safety
        /// Requires AVX-512F; all slices (including `s_out`) equal lengths.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn {
            gather_avx512 = gather::<__m512d, true>;
            exchange_avx512 = exchange::<__m512d, 1, true>;
            exchange_f32_avx512 = exchange::<__m512, 1, true>;
            force_gather_f32_avx512 = force_gather::<__m512, true>;
            force_gather_avx512 = force_gather::<__m512d, true>;
        }
    }

    entry_points! {
        /// # Safety
        /// Requires AVX-512F; target slices and the target outputs (`t_out`,
        /// or `p_out` and `f_out`) equal lengths, source slices and `s_out`
        /// equal lengths.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn {
            exchange_panel_avx512 = exchange_panel::<__m512d>;
            exchange_f32_panel_avx512 = exchange_panel::<__m512>;
            force_gather_panel_avx512 = force_panel::<__m512d>;
            force_gather_f32_panel_avx512 = force_panel::<__m512>;
        }
    }
}

// --------------------------------------------------------------- aarch64

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{exchange, force_gather, gather, Run};
    use core::arch::aarch64::*;

    entry_points! {
        /// # Safety
        /// All slices (including `s_out`) must have equal lengths (NEON is
        /// always present).
        pub unsafe fn {
            gather_neon = gather::<float64x2_t, false>;
            exchange_neon = exchange::<float64x2_t, 1, false>;
            exchange_f32_neon = exchange::<float32x4_t, 1, false>;
            force_gather_f32_neon = force_gather::<float32x4_t, false>;
            force_gather_neon = force_gather::<float64x2_t, false>;
        }
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

    #[test]
    fn f64_panel_matches_per_target_calls() {
        // Each target's sum is the single-target one bit for bit on every
        // tier: its accumulator sees the same terms in the same order. So
        // is each source's on a tier that serves a panel one target at a
        // time; AVX-512 adds a pair's two source-side terms together
        // first, one more rounding per source and pair.
        for (nt, n) in [
            (0usize, 9usize),
            (1, 17),
            (2, 16),
            (3, 7),
            (5, 33),
            (8, 120),
        ] {
            let (sx, sy, sz, sq) = soa(n, 11);
            let (tx, ty, tz, tq) = soa(nt, 13);
            let tx: Vec<f64> = tx.iter().map(|v| v - 1.5).collect();
            for kernel in Kernel::available() {
                let mut want_t = vec![0.25; nt];
                let mut want_s = vec![0.1; n];
                for i in 0..nt {
                    want_t[i] += exchange_with(
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
                    );
                }
                let mut got_t = vec![0.25; nt];
                let mut got_s = vec![0.1; n];
                exchange_panel_with(
                    kernel, &tx, &ty, &tz, &tq, 1e-4, &sx, &sy, &sz, &sq, &mut got_t, &mut got_s,
                );
                let what = format!("{kernel:?} nt={nt} n={n}");
                for (a, b) in got_t.iter().zip(&want_t) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what} t_out: {a} vs {b}");
                }
                for (a, b) in got_s.iter().zip(&want_s) {
                    if kernel == Kernel::Avx512 {
                        assert!((a - b).abs() < 1e-14 * (1.0 + b.abs()), "{what} s_out");
                    } else {
                        assert_eq!(a.to_bits(), b.to_bits(), "{what} s_out: {a} vs {b}");
                    }
                }
            }
        }
    }

    /// One force panel call against one single-target call per target,
    /// both adding into outputs that start at `init`; `f32` narrows the
    /// coordinates and charges first.
    fn force_panel_and_per_target(
        kernel: Kernel,
        tgt: [&[f64]; 3],
        eps2: f64,
        src: [&[f64]; 4],
        init: f64,
        f32: bool,
    ) -> [(Vec<f64>, Vec<[f64; 3]>); 2] {
        let nt = tgt[0].len();
        let (mut p_want, mut f_want) = (vec![init; nt], vec![[init; 3]; nt]);
        let (mut p_got, mut f_got) = (p_want.clone(), f_want.clone());
        let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        let [tx, ty, tz] = tgt;
        let [xs, ys, zs, qs] = src;
        let add = |p: &mut f64, f: &mut [f64; 3], (sp, sf): (f64, [f64; 3])| {
            *p += sp;
            for c in 0..3 {
                f[c] += sf[c];
            }
        };
        if f32 {
            let ([tx, ty, tz], [xs, ys, zs, qs]) = (tgt.map(narrow), src.map(narrow));
            let e = eps2 as f32;
            for i in 0..nt {
                let (p, f) =
                    force_gather_f32_with(kernel, tx[i], ty[i], tz[i], e, &xs, &ys, &zs, &qs);
                add(&mut p_want[i], &mut f_want[i], (p.into(), f.map(f64::from)));
            }
            force_gather_f32_panel_with(
                kernel, &tx, &ty, &tz, e, &xs, &ys, &zs, &qs, &mut p_got, &mut f_got,
            );
        } else {
            for i in 0..nt {
                let sums = force_gather_with(kernel, tx[i], ty[i], tz[i], eps2, xs, ys, zs, qs);
                add(&mut p_want[i], &mut f_want[i], sums);
            }
            force_gather_panel_with(
                kernel, tx, ty, tz, eps2, xs, ys, zs, qs, &mut p_got, &mut f_got,
            );
        }
        [(p_want, f_want), (p_got, f_got)]
    }

    fn assert_same_force_bits(
        want: &(Vec<f64>, Vec<[f64; 3]>),
        got: &(Vec<f64>, Vec<[f64; 3]>),
        what: &str,
    ) {
        for (a, b) in got.0.iter().zip(&want.0) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} p_out: {a} vs {b}");
        }
        for (a, b) in got.1.iter().flatten().zip(want.1.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} f_out: {a} vs {b}");
        }
    }

    #[test]
    fn force_panel_matches_per_target_calls_bitwise() {
        // Each target's sums are the single-target ones bit for bit on
        // every tier, either precision: the pair path shares the source
        // loads and nothing else.
        for nt in 0..=5 {
            let (tx, ty, tz, _) = soa(nt, 13);
            let tx: Vec<f64> = tx.iter().map(|v| v - 1.5).collect();
            for n in 0..=17 {
                let (xs, ys, zs, qs) = soa(n, 11);
                for kernel in Kernel::available() {
                    for (eps2, f32) in [(0.0, false), (1e-4, false), (0.0, true), (1e-4, true)] {
                        let [want, got] = force_panel_and_per_target(
                            kernel,
                            [&tx, &ty, &tz],
                            eps2,
                            [&xs, &ys, &zs, &qs],
                            0.25,
                            f32,
                        );
                        let what = format!("{kernel:?} nt={nt} n={n} eps2={eps2} f32={f32}");
                        assert_same_force_bits(&want, &got, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn force_panel_dead_lanes_read_and_write_nothing() {
        // The run is the head of longer arrays whose rest is NaN, which a
        // dead lane must not read into a sum, and the outputs are heads of
        // sentinel buffers, which nothing may write past. Targets at the
        // origin with ε = 0 put r² = 0 on every dead lane.
        const SENTINEL: f64 = 12345.678;
        for n in [1usize, 5, 7, 9, 15, 17] {
            let (mut xs, mut ys, mut zs, mut qs) = soa(n, 47);
            for v in [&mut xs, &mut ys, &mut zs, &mut qs] {
                v.resize(n + 16, f64::NAN);
            }
            let src = [&xs[..n], &ys[..n], &zs[..n], &qs[..n]];
            let tgt: [&[f64]; 3] = [&[0.0, 0.0, 0.1], &[0.0, 0.2, 0.0], &[0.0, -0.1, 0.3]];
            for kernel in Kernel::available() {
                for f32 in [false, true] {
                    let what = format!("{kernel:?} n={n} f32={f32}");
                    let [want, got] = force_panel_and_per_target(kernel, tgt, 0.0, src, 0.0, f32);
                    assert_same_force_bits(&want, &got, &what);
                    assert!(got
                        .0
                        .iter()
                        .chain(got.1.iter().flatten())
                        .all(|v| v.is_finite()));
                    let mut p_buf = [SENTINEL; 3 + 16];
                    let mut f_buf = [[SENTINEL; 3]; 3 + 16];
                    p_buf[..3].fill(0.0);
                    f_buf[..3].fill([0.0; 3]);
                    let (p_out, f_out) = (&mut p_buf[..3], &mut f_buf[..3]);
                    if f32 {
                        let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
                        let ([tx, ty, tz], [xs, ys, zs, qs]) = (tgt.map(narrow), src.map(narrow));
                        force_gather_f32_panel_with(
                            kernel, &tx, &ty, &tz, 0.0, &xs, &ys, &zs, &qs, p_out, f_out,
                        );
                    } else {
                        let ([tx, ty, tz], [xs, ys, zs, qs]) = (tgt, src);
                        force_gather_panel_with(
                            kernel, tx, ty, tz, 0.0, xs, ys, zs, qs, p_out, f_out,
                        );
                    }
                    let untouched = |v: &f64| v.to_bits() == SENTINEL.to_bits();
                    assert!(
                        p_buf[3..].iter().all(untouched),
                        "{what}: past p_out written"
                    );
                    assert!(
                        f_buf[3..].iter().flatten().all(untouched),
                        "{what}: past f_out written"
                    );
                }
            }
        }
    }

    #[test]
    fn exchange_dead_lanes_leave_s_out_untouched() {
        // The run and `s_out` are the heads of longer arrays: the run's
        // rest is NaN, which a dead lane must not read into a sum, and
        // `s_out`'s a sentinel, which it must not write. A target at the
        // origin with ε = 0 puts r² = 0 on every dead lane, which must not
        // poison the sums either.
        const SENTINEL: f64 = 12345.678;
        for n in [1usize, 5, 7, 9, 15, 17] {
            let (mut xs, mut ys, mut zs, mut qs) = soa(n, 47);
            for v in [&mut xs, &mut ys, &mut zs, &mut qs] {
                v.resize(n + 16, f64::NAN);
            }
            let src = (&xs[..n], &ys[..n], &zs[..n], &qs[..n]);
            let (tx, ty, tz, tq) = ([0.0, 0.0, 0.1], [0.0, 0.2, 0.0], [0.0, -0.1, 0.3], [0.7; 3]);
            for kernel in Kernel::available() {
                let what = format!("{kernel:?} n={n}");
                let mut s_buf = vec![SENTINEL; n + 16];
                s_buf[..n].fill(0.1);
                let s_out = &mut s_buf[..n];
                let p = exchange_with(
                    kernel, 0.0, 0.0, 0.0, 0.7, 0.0, src.0, src.1, src.2, src.3, s_out,
                );
                assert!(
                    p.is_finite() && s_out.iter().all(|v| v.is_finite()),
                    "{what}"
                );
                let mut t_buf = [SENTINEL; 3 + 16];
                t_buf[..3].fill(0.0);
                let t_out = &mut t_buf[..3];
                let s_out = &mut s_buf[..n];
                exchange_panel_with(
                    kernel, &tx, &ty, &tz, &tq, 0.0, src.0, src.1, src.2, src.3, t_out, s_out,
                );
                assert!(
                    t_out.iter().chain(&*s_out).all(|v| v.is_finite()),
                    "{what} panel"
                );
                let untouched = |v: &[f64]| v.iter().all(|v| v.to_bits() == SENTINEL.to_bits());
                assert!(untouched(&s_buf[n..]), "{what}: past s_out written");
                assert!(untouched(&t_buf[3..]), "{what}: past t_out written");
            }
        }
    }

    // A safe caller's short slice must panic before any tier's raw loads,
    // in release builds too: 33 sources reach past a 5-element slice in
    // the first vector of every tier.
    const LONG: [f64; 33] = [1.5; 33];
    const SHORT: [f64; 5] = [1.5; 5];
    const LONG32: [f32; 33] = [1.5; 33];
    const SHORT32: [f32; 5] = [1.5; 5];

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn gather_rejects_a_short_ys() {
        gather_with(
            Kernel::detect(),
            0.0,
            0.0,
            0.0,
            0.0,
            &LONG,
            &SHORT,
            &LONG,
            &LONG,
        );
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn exchange_rejects_a_short_ys() {
        let (k, mut s_out) = (Kernel::detect(), LONG);
        exchange_with(
            k, 0.0, 0.0, 0.0, 1.0, 0.0, &LONG, &SHORT, &LONG, &LONG, &mut s_out,
        );
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn exchange_rejects_a_short_s_out() {
        let (k, mut s_out) = (Kernel::detect(), SHORT);
        exchange_with(
            k, 0.0, 0.0, 0.0, 1.0, 0.0, &LONG, &LONG, &LONG, &LONG, &mut s_out,
        );
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn exchange_f32_rejects_a_short_ys() {
        let (k, l, mut s_out) = (Kernel::detect(), &LONG32, LONG);
        exchange_f32_with(k, 0.0, 0.0, 0.0, 1.0, 0.0, l, &SHORT32, l, l, &mut s_out);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn exchange_f32_rejects_a_short_s_out() {
        let (k, l, mut s_out) = (Kernel::detect(), &LONG32, SHORT);
        exchange_f32_with(k, 0.0, 0.0, 0.0, 1.0, 0.0, l, l, l, l, &mut s_out);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn panel_rejects_a_short_ys() {
        let (k, l, mut t_out, mut s_out) = (Kernel::detect(), &LONG32, LONG, LONG);
        exchange_f32_panel_with(
            k, l, l, l, l, 0.0, l, &SHORT32, l, l, &mut t_out, &mut s_out,
        );
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn panel_rejects_a_short_s_out() {
        let (k, l, mut t_out, mut s_out) = (Kernel::detect(), &LONG32, LONG, SHORT);
        exchange_f32_panel_with(k, l, l, l, l, 0.0, l, l, l, l, &mut t_out, &mut s_out);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn panel_rejects_a_short_t_out() {
        let (k, l, mut t_out, mut s_out) = (Kernel::detect(), &LONG32, SHORT, LONG);
        exchange_f32_panel_with(k, l, l, l, l, 0.0, l, l, l, l, &mut t_out, &mut s_out);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn force_gather_f32_rejects_a_short_ys() {
        let (k, l) = (Kernel::detect(), &LONG32);
        force_gather_f32_with(k, 0.0, 0.0, 0.0, 0.0, l, &SHORT32, l, l);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn force_panel_rejects_a_short_f_out() {
        let (k, l, mut p_out, mut f_out) = (Kernel::detect(), &LONG, LONG, [[0.0; 3]; 5]);
        force_gather_panel_with(k, l, l, l, 0.0, l, l, l, l, &mut p_out, &mut f_out);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn force_panel_f32_rejects_a_short_ys() {
        let (k, l, mut p_out, mut f_out) = (Kernel::detect(), &LONG32, LONG, [[0.0; 3]; 33]);
        force_gather_f32_panel_with(k, l, l, l, 0.0, l, &SHORT32, l, l, &mut p_out, &mut f_out);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn force_gather_rejects_a_short_ys() {
        force_gather_with(
            Kernel::detect(),
            0.0,
            0.0,
            0.0,
            0.0,
            &LONG,
            &SHORT,
            &LONG,
            &LONG,
        );
    }

    #[test]
    fn neon_shaped_lanes_agree_with_scalar_through_every_body() {
        let t = [0.0, 0.1, -0.05, 0.7];
        let u = [-0.3, 0.2, 0.4, -1.1];
        let (t3, eps2) = ([t[0], t[1], t[2]], 1e-6);
        let (t32, u32) = (t.map(|v| v as f32), u.map(|v| v as f32));
        let (t3_32, eps32) = (t3.map(|v| v as f32), eps2 as f32);
        let close = |a: f64, b: f64, tol: f64| (a - b).abs() < tol * (1.0 + b.abs());
        for n in 0..=9 {
            let src = soa(n, 42);
            let (xs, ys, zs, qs) = &src;
            let run = Run { xs, ys, zs, qs };
            let f = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
            let (xs32, ys32, zs32, qs32) = (f(xs), f(ys), f(zs), f(qs));
            let run32 = Run {
                xs: &xs32,
                ys: &ys32,
                zs: &zs32,
                qs: &qs32,
            };

            let want = gather_from(0.0, t3, eps2, run, 0);
            // SAFETY: the array lanes need no CPU feature.
            let got = unsafe { gather::<[f64; 2], false>(t3, eps2, run) };
            assert!(close(got, want, 1e-12), "gather n={n}: {got} vs {want}");

            let (mut want_s, mut got_s) = (vec![0.1; n], vec![0.1; n]);
            let want = exchange_from(0.0, t, eps2, run, &mut want_s, 0);
            // SAFETY: as above; `got_s` is as long as the run.
            let [got] = unsafe { exchange::<[f64; 2], 1, false>([t], eps2, run, &mut got_s) };
            assert!(close(got, want, 1e-12), "exchange n={n}: {got} vs {want}");
            for (a, b) in got_s.iter().zip(&want_s) {
                assert!(close(*a, *b, 1e-12), "exchange s_out n={n}");
            }

            let (mut want_s, mut got_s) = (vec![0.0; n], vec![0.0; n]);
            let want = exchange_from(0.0, t32, eps32, run32, &mut want_s, 0);
            // SAFETY: as above.
            let [got] = unsafe { exchange::<[f32; 4], 1, false>([t32], eps32, run32, &mut got_s) };
            assert!(close(got.into(), want.into(), 1e-5), "exchange_f32 n={n}");
            let want1 = exchange_from(0.0, u32, eps32, run32, &mut want_s, 0);
            // SAFETY: as above. A second, two-target sweep on top of the first.
            let got2 =
                unsafe { exchange::<[f32; 4], 2, false>([u32, t32], eps32, run32, &mut got_s) };
            let want0 = exchange_from(0.0, t32, eps32, run32, &mut want_s, 0);
            assert!(close(got2[0].into(), want1.into(), 1e-5), "pair n={n}");
            assert!(close(got2[1].into(), want0.into(), 1e-5), "pair n={n}");
            for (a, b) in got_s.iter().zip(&want_s) {
                assert!(close(*a, *b, 1e-5), "exchange_f32 s_out n={n}: {a} vs {b}");
            }

            let want = force_gather_from(0.0, [0.0; 3], t3, eps2, run, 0);
            // SAFETY: as above.
            let got = unsafe { force_gather::<[f64; 2], false>(t3, eps2, run) };
            assert_force_close(got, want, force_scale(t3, eps2, &src), &format!("n={n}"));

            let u3 = [u[0], u[1], u[2]];
            // SAFETY: as above.
            let pair = unsafe { force_sweep::<[f64; 2], 2, false>([u3, t3], eps2, run) };
            // SAFETY: as above.
            let alone = unsafe { force_gather::<[f64; 2], false>(u3, eps2, run) };
            assert_eq!(pair[0].0.to_bits(), alone.0.to_bits(), "force pair n={n}");
            assert_eq!(pair[0].1.map(f64::to_bits), alone.1.map(f64::to_bits));
            assert_eq!(pair[1].0.to_bits(), got.0.to_bits(), "force pair n={n}");
            assert_eq!(pair[1].1.map(f64::to_bits), got.1.map(f64::to_bits));

            let (wp, wf) = force_gather_from(0.0, [0.0; 3], t3_32, eps32, run32, 0);
            // SAFETY: as above.
            let (gp, gf) = unsafe { force_gather::<[f32; 4], false>(t3_32, eps32, run32) };
            assert!(close(gp.into(), wp.into(), 1e-5), "force_gather_f32 n={n}");
            for d in 0..3 {
                assert!(
                    close(gf[d].into(), wf[d].into(), 1e-4),
                    "force_gather_f32[{d}] n={n}"
                );
            }
        }
    }
}
