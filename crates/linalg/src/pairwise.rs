//! Pairwise particle–particle microkernels for the near field.
//!
//! One target against a contiguous SoA run of sources, `Σ q_s/√(r²+ε²)`,
//! in two shapes: *gather* (target-only accumulation) and *exchange* (the
//! symmetric Newton's-third-law form — the target gathers while each
//! source accumulates the reciprocal term into f64 outputs; one target
//! per source sweep, or two). An exchange carries the potential alone
//! (`exchange`) or the potential and the field `Σ q·r⁻³·Δ`, `Δ = t − s`,
//! (`force_exchange`): the target gathers `[Φ, E_x, E_y, E_z]`, and each
//! source receives `q_t·r⁻¹` and `−q_t·r⁻³·Δ` into four outputs. Each
//! shape is written once over the crate's `Lanes` vector type and serves
//! both precisions and both output kinds; a tier is a set of concrete
//! entry points (`x86::gather_avx2`, …) that [`Kernel`] dispatch selects
//! among, and `lanes.rs`'s header tabulates what each tier is. The scalar
//! tier is its own exact-`sqrt` bodies, which the vector tiers also run
//! over whatever a run leaves after its last whole vector, seeded with
//! the vector partial sums. The f32 kernels power the mixed-precision near
//! field, whose error budget is derived in DESIGN.md §5.5.
//!
//! Newton–Raphson squares the relative error each step (`e ← 3/2·e²`), so
//! the f64 paths land at ~1 ulp (2⁻¹⁴ → 2⁻²⁷ → 2⁻⁵³ for AVX-512) and the
//! f32 paths below f32 machine epsilon. x86 steps are
//! `y ← ½y·(3 − r²y²)` with one `fnmadd`; NEON's are `y ← y·vrsqrts(r²y, y)`.
//! `r² + ε²` is `fma(Δz, Δz, fma(Δy, Δy, fma(Δx, Δx, ε²)))` on every
//! vector tier and `Δx² + Δy² + Δz² + ε²`, unfused, on the scalar one;
//! `r⁻³` is `(r⁻¹·r⁻¹)·r⁻¹` on both.
//!
//! In a masked tail, dead lanes load 0 for every coordinate and charge
//! and have r² pinned to 1 (it would be `|t|² + ε²`, which can be 0, and
//! 0·∞ = NaN would poison the sums), so they add exactly 0, and the
//! source-side updates are write-masked. A box holds few enough particles
//! that a scalar tail would dominate those calls. Only AVX-512 has the
//! two-target panel bodies ([`exchange_panel_with`],
//! [`exchange_f32_panel_with`], [`force_exchange_panel_with`],
//! [`force_exchange_f32_panel_with`]); the other tiers serve a panel one
//! single-target call per target. A panel returns each target's
//! single-target bits, and sums a pair's source-side terms first.

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

/// A single-target operation's [`Kernel`] dispatch of the same arguments
/// to the tier's entry point; the caller has checked the lengths.
macro_rules! dispatch {
    (
        $kernel:ident,
        [$avx2:ident, $avx512:ident, $neon:ident, $scalar:ident],
        ($($arg:expr),+)
    ) => {{
        match $kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: callers obtain the kernel from detect()/supported();
            // slice lengths checked by the caller.
            Kernel::Avx2Fma => unsafe { x86::$avx2($($arg),+) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Kernel::Avx512 => unsafe { x86::$avx512($($arg),+) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is architecturally guaranteed on aarch64; lengths as above.
            Kernel::Neon => unsafe { arm::$neon($($arg),+) },
            _ => scalar::$scalar($($arg),+),
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
    assert_equal_lengths!(xs, ys, zs, qs);
    dispatch!(
        kernel,
        [gather_avx2, gather_avx512, gather_neon, gather_scalar],
        (tx, ty, tz, eps2, xs, ys, zs, qs)
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
    assert_equal_lengths!(xs, ys, zs, qs, s_out);
    let [p] = dispatch!(
        kernel,
        [
            exchange_avx2,
            exchange_avx512,
            exchange_neon,
            exchange_scalar
        ],
        (tx, ty, tz, tq, eps2, xs, ys, zs, qs, [s_out])
    );
    p
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
    assert_equal_lengths!(xs, ys, zs, qs, s_out);
    let [p] = dispatch!(
        kernel,
        [
            exchange_f32_avx2,
            exchange_f32_avx512,
            exchange_f32_neon,
            exchange_f32_scalar
        ],
        (tx, ty, tz, tq, eps2, xs, ys, zs, qs, [s_out])
    );
    p
}

/// f64 force exchange: the target gathers `[Σ q_s·r⁻¹, Σ q_s·r⁻³·Δ]`
/// (returned as `[Φ, E_x, E_y, E_z]`, `Δ = t − s`) while each source
/// accumulates `q_t·r⁻¹` into `s_out[0]` and `−q_t·r⁻³·Δ` into
/// `s_out[1..]`. The target must not be among the sources.
/// Panics if the source slices and the four `s_out` differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn force_exchange_with(
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
    s_out: [&mut [f64]; 4],
) -> [f64; 4] {
    let [sp, sx, sy, sz] = &s_out;
    assert_equal_lengths!(xs, ys, zs, qs, sp, sx, sy, sz);
    dispatch!(
        kernel,
        [
            force_exchange_avx2,
            force_exchange_avx512,
            force_exchange_neon,
            force_exchange_scalar
        ],
        (tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out)
    )
}

/// [`force_exchange_with`] in f32 lanes, each source's terms widened into
/// its f64 outputs as [`exchange_f32_with`] does.
/// Panics if the source slices and the four `s_out` differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn force_exchange_f32_with(
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
    s_out: [&mut [f64]; 4],
) -> [f32; 4] {
    let [sp, sx, sy, sz] = &s_out;
    assert_equal_lengths!(xs, ys, zs, qs, sp, sx, sy, sz);
    dispatch!(
        kernel,
        [
            force_exchange_f32_avx2,
            force_exchange_f32_avx512,
            force_exchange_f32_neon,
            force_exchange_f32_scalar
        ],
        (tx, ty, tz, tq, eps2, xs, ys, zs, qs, s_out)
    )
}

/// A panel operation's dispatch after the caller's length checks:
/// AVX-512's two-target entry point, or on any other tier one
/// single-target call per target, its sums widened into the target's
/// `t_out` slots.
macro_rules! panel_dispatch {
    (
        $kernel:ident, $avx512:ident,
        ($txs:ident, $tys:ident, $tzs:ident, $tqs:ident), $eps2:ident,
        ($($src:ident),+), $t_out:ident, $s_out:ident,
        $single:expr
    ) => {{
        match $kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: callers obtain the kernel from detect()/supported();
            // slice lengths checked by the caller.
            Kernel::Avx512 => unsafe {
                x86::$avx512($txs, $tys, $tzs, $tqs, $eps2, $($src),+, $t_out, $s_out)
            },
            _ => {
                let (mut t_out, mut s_out) = ($t_out, $s_out);
                for i in 0..$txs.len() {
                    let (tx, ty, tz, tq) = ($txs[i], $tys[i], $tzs[i], $tqs[i]);
                    let s_out = s_out.each_mut().map(|s| &mut **s);
                    let sums = $single($kernel, tx, ty, tz, tq, $eps2, $($src),+, s_out);
                    for (t, v) in t_out.iter_mut().zip(sums) {
                        t[i] += f64::from(v);
                    }
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
    assert_equal_lengths!(txs, tys, tzs, tqs, t_out);
    assert_equal_lengths!(xs, ys, zs, qs, s_out);
    let (t_out, s_out) = ([t_out], [s_out]);
    let single = |k, tx, ty, tz, tq, e, xs, ys, zs, qs, [s]: [&mut [f64]; 1]| {
        [exchange_with(k, tx, ty, tz, tq, e, xs, ys, zs, qs, s)]
    };
    panel_dispatch!(
        kernel,
        exchange_panel_avx512,
        (txs, tys, tzs, tqs),
        eps2,
        (xs, ys, zs, qs),
        t_out,
        s_out,
        single
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
    assert_equal_lengths!(txs, tys, tzs, tqs, t_out);
    assert_equal_lengths!(xs, ys, zs, qs, s_out);
    let (t_out, s_out) = ([t_out], [s_out]);
    let single = |k, tx, ty, tz, tq, e, xs, ys, zs, qs, [s]: [&mut [f64]; 1]| {
        [exchange_f32_with(k, tx, ty, tz, tq, e, xs, ys, zs, qs, s)]
    };
    panel_dispatch!(
        kernel,
        exchange_f32_panel_avx512,
        (txs, tys, tzs, tqs),
        eps2,
        (xs, ys, zs, qs),
        t_out,
        s_out,
        single
    )
}

/// f64 force exchange over a whole panel of targets against one source
/// run: [`exchange_panel_with`] with [`force_exchange_with`]'s four
/// outputs per particle, each target's `[Φ, E]` added into its slots of
/// `t_out`, each source's into its slots of `s_out`. On AVX-512 two
/// targets share each source sweep and a pair's source-side terms are
/// summed first; other kernels make one call per target, bit for bit.
/// No target may be among the sources.
/// Panics if the target slices and the four `t_out`, or the source slices
/// and the four `s_out`, differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn force_exchange_panel_with(
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
    t_out: [&mut [f64]; 4],
    s_out: [&mut [f64]; 4],
) {
    let ([tp, tx, ty, tz], [sp, sx, sy, sz]) = (&t_out, &s_out);
    assert_equal_lengths!(txs, tys, tzs, tqs, tp, tx, ty, tz);
    assert_equal_lengths!(xs, ys, zs, qs, sp, sx, sy, sz);
    panel_dispatch!(
        kernel,
        force_exchange_panel_avx512,
        (txs, tys, tzs, tqs),
        eps2,
        (xs, ys, zs, qs),
        t_out,
        s_out,
        force_exchange_with
    )
}

/// [`force_exchange_panel_with`] in f32 lanes, every term widened into
/// the f64 outputs as [`exchange_f32_panel_with`] does.
/// Panics if the target slices and the four `t_out`, or the source slices
/// and the four `s_out`, differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn force_exchange_f32_panel_with(
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
    t_out: [&mut [f64]; 4],
    s_out: [&mut [f64]; 4],
) {
    let ([tp, tx, ty, tz], [sp, sx, sy, sz]) = (&t_out, &s_out);
    assert_equal_lengths!(txs, tys, tzs, tqs, tp, tx, ty, tz);
    assert_equal_lengths!(xs, ys, zs, qs, sp, sx, sy, sz);
    panel_dispatch!(
        kernel,
        force_exchange_f32_panel_avx512,
        (txs, tys, tzs, tqs),
        eps2,
        (xs, ys, zs, qs),
        t_out,
        s_out,
        force_exchange_f32_with
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

/// `t` is the target's `[x, y, z, q]`; each `s_out` is as long as `src`.
/// `N` outputs per particle: the potential, then (`N = 4`) the field.
#[inline(always)]
fn exchange_from<T: Real, const N: usize>(
    mut acc: [T; N],
    t: [T; 4],
    eps2: T,
    src: Run<T>,
    s_out: &mut [&mut [f64]; N],
    from: usize,
) -> [T; N] {
    let Run { xs, ys, zs, qs } = src;
    for j in from..xs.len() {
        let d = [t[0] - xs[j], t[1] - ys[j], t[2] - zs[j]];
        let inv_r = T::ONE / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2).sqrt();
        acc[0] += qs[j] * inv_r;
        s_out[0][j] += (t[3] * inv_r).into();
        if N > 1 {
            // −∇(q/r) = q·Δ/r³ at the target, −q·Δ/r³ at the source.
            let w = inv_r * inv_r * inv_r;
            let (qw, tw) = (qs[j] * w, -t[3] * w);
            for c in 1..N {
                acc[c] += qw * d[c - 1];
                s_out[c][j] += (tw * d[c - 1]).into();
            }
        }
    }
    acc
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
            $force:ident = $force_body:expr;
            $force_f32:ident = $force_f32_body:expr;
        }
    ) => {
        entry_points!(@gather $(#[$tier])* [$($fn)+] $gather = $gather_body);
        entry_points!(@exchange $(#[$tier])* [$($fn)+] $exchange(f64, 1) = $exchange_body);
        entry_points!(
            @exchange $(#[$tier])* [$($fn)+] $exchange_f32(f32, 1) = $exchange_f32_body
        );
        entry_points!(@exchange $(#[$tier])* [$($fn)+] $force(f64, 4) = $force_body);
        entry_points!(@exchange $(#[$tier])* [$($fn)+] $force_f32(f32, 4) = $force_f32_body);
    };
    (@gather $(#[$tier:meta])* [$($fn:ident)+] $name:ident = $body:expr) => {
        $(#[$tier])*
        #[allow(clippy::too_many_arguments)]
        pub $($fn)+ $name(
            tx: f64,
            ty: f64,
            tz: f64,
            eps2: f64,
            xs: &[f64],
            ys: &[f64],
            zs: &[f64],
            qs: &[f64],
        ) -> f64 {
            $body([tx, ty, tz], eps2, Run { xs, ys, zs, qs })
        }
    };
    // A tier's four panel entry points: potential and force exchange, f64
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
        entry_points!(@panel $(#[$tier])* [$($fn)+] $panel(f64, 1) = $panel_body);
        entry_points!(@panel $(#[$tier])* [$($fn)+] $panel_f32(f32, 1) = $panel_f32_body);
        entry_points!(@panel $(#[$tier])* [$($fn)+] $force_panel(f64, 4) = $force_panel_body);
        entry_points!(
            @panel $(#[$tier])* [$($fn)+] $force_panel_f32(f32, 4) = $force_panel_f32_body
        );
    };
    (@panel $(#[$tier:meta])* [$($fn:ident)+] $name:ident($T:ty, $N:literal) = $body:expr) => {
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
            t_out: [&mut [f64]; $N],
            s_out: [&mut [f64]; $N],
        ) {
            let targets = Run { xs: txs, ys: tys, zs: tzs, qs: tqs };
            $body(targets, eps2, Run { xs, ys, zs, qs }, t_out, s_out)
        }
    };
    (@exchange $(#[$tier:meta])* [$($fn:ident)+] $name:ident($T:ty, $N:literal) = $body:expr) => {
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
            s_out: [&mut [f64]; $N],
        ) -> [$T; $N] {
            let [sums] = $body([[tx, ty, tz, tq]], eps2, Run { xs, ys, zs, qs }, s_out);
            sums
        }
    };
}

mod scalar {
    use super::{exchange_from, gather_from, Run};

    entry_points! {
        /// The scalar body over the whole run, from zero.
        pub fn {
            gather_scalar = |t, eps2, src| gather_from(0.0, t, eps2, src, 0);
            exchange_scalar =
                |[t]: [_; 1], eps2, src, mut s| [exchange_from([0.0], t, eps2, src, &mut s, 0)];
            exchange_f32_scalar =
                |[t]: [_; 1], eps2, src, mut s| [exchange_from([0.0], t, eps2, src, &mut s, 0)];
            force_exchange_scalar =
                |[t]: [_; 1], eps2, src, mut s| [exchange_from([0.0; 4], t, eps2, src, &mut s, 0)];
            force_exchange_f32_scalar =
                |[t]: [_; 1], eps2, src, mut s| [exchange_from([0.0; 4], t, eps2, src, &mut s, 0)];
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

/// One vector of sources at `j` against `NT` targets `tv = [x, y, z, q,
/// −q]`, into each target's `acc` (`Σ q·r⁻¹`, then for `N = 4` the field
/// `Σ q·r⁻³·Δ`) and each source's `N` outputs at `so`.
///
/// # Safety
/// As [`Lanes`]; the lanes of `mask` at `j` lie inside `src`, and each
/// `so` is valid for as many f64s as `src` holds.
#[inline(always)]
unsafe fn exchange_step<L: Lanes, const NT: usize, const N: usize>(
    tv: &[[L; 5]; NT],
    e2: L,
    acc: &mut [[L; N]; NT],
    src: Run<L::Elem>,
    so: &[*mut f64; N],
    j: usize,
    mask: u16,
) {
    // A dead lane's charge loads as 0, so it leaves `acc` as it was.
    let q = L::load(src.qs.as_ptr().add(j), mask);
    // With more than one target, each source output's terms are summed in
    // lane precision — one extra rounding per further target — and
    // scattered once.
    let mut terms = [L::zero(); N];
    for k in 0..NT {
        let (d, r2) = delta_r2(&tv[k], e2, src, j, mask);
        let inv_r = L::rsqrt_nr(r2);
        acc[k][0] = L::fma(q, inv_r, acc[k][0]);
        // The source's terms, each a product `a·b`: `q_t·r⁻¹`, then
        // `(−q_t·r⁻³)·Δ` per axis.
        let mut ab = [(tv[k][3], inv_r); N];
        if N > 1 {
            let w = L::mul(L::mul(inv_r, inv_r), inv_r);
            let (qw, src_w) = (L::mul(q, w), L::mul(tv[k][4], w));
            for c in 1..N {
                acc[k][c] = L::fma(qw, d[c - 1], acc[k][c]);
                ab[c] = (src_w, d[c - 1]);
            }
        }
        for (c, (a, b)) in ab.into_iter().enumerate() {
            if NT == 1 {
                L::scatter_fma(so[c].add(j), a, b, mask);
            } else if k == 0 {
                terms[c] = L::mul(a, b);
            } else {
                terms[c] = L::fma(a, b, terms[c]);
            }
        }
    }
    if NT > 1 {
        for c in 0..N {
            L::scatter_add(so[c].add(j), terms[c], mask);
        }
    }
}

/// `NT` targets `t = [x, y, z, q]` share one sweep over the sources;
/// returns each target's `N` sums.
///
/// # Safety
/// Requires the CPU features of `L`'s tier; `src`'s slices and each
/// `s_out` of one length.
#[inline(always)]
unsafe fn exchange<L: Lanes, const NT: usize, const N: usize, const MASKED: bool>(
    t: [[L::Elem; 4]; NT],
    eps2: L::Elem,
    src: Run<L::Elem>,
    mut s_out: [&mut [f64]; N],
) -> [[L::Elem; N]; NT] {
    const { assert!(L::MASKED_TAIL || !MASKED) };
    let mut tv = [[L::zero(); 5]; NT];
    for k in 0..NT {
        for c in 0..4 {
            tv[k][c] = L::splat(t[k][c]);
        }
        tv[k][4] = L::splat(-t[k][3]);
    }
    let e2 = L::splat(eps2);
    let mut acc = [[L::zero(); N]; NT];
    let so = s_out.each_mut().map(|s| s.as_mut_ptr());
    let n = src.xs.len();
    let whole = n - n % L::WIDTH;
    let mut j = 0;
    while j < whole {
        exchange_step(&tv, e2, &mut acc, src, &so, j, L::FULL);
        j += L::WIDTH;
    }
    if MASKED && whole < n {
        let live = L::FULL >> (L::WIDTH - (n - whole));
        exchange_step(&tv, e2, &mut acc, src, &so, whole, live);
    }
    // The scalar body takes what the vectors left: nothing after a masked tail.
    let rest = if MASKED { n } else { whole };
    let mut sums = [[L::Elem::ZERO; N]; NT];
    for k in 0..NT {
        for c in 0..N {
            sums[k][c] = L::hsum(acc[k][c]);
        }
        sums[k] = exchange_from(sums[k], t[k], eps2, src, &mut s_out, rest);
    }
    sums
}

/// A panel of targets against one run of sources: pairs of targets share
/// each source sweep — the sources load once per vector and the two rsqrt
/// chains interleave, twice the ILP of one target — and an odd last
/// target takes the single-target body. Each target's sums are widened
/// into its `t_out` slots.
///
/// # Safety
/// Requires the CPU features of `L`'s tier, which has a masked tail;
/// `tgt`'s slices and each `t_out` of one length, `src`'s and each
/// `s_out` of one.
#[inline(always)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
unsafe fn exchange_panel<L: Lanes, const N: usize>(
    tgt: Run<L::Elem>,
    eps2: L::Elem,
    src: Run<L::Elem>,
    t_out: [&mut [f64]; N],
    mut s_out: [&mut [f64]; N],
) {
    let target = |a: usize| [tgt.xs[a], tgt.ys[a], tgt.zs[a], tgt.qs[a]];
    let n_t = tgt.xs.len();
    let mut a = 0;
    while a + 2 <= n_t {
        let s = s_out.each_mut().map(|s| &mut **s);
        let [p0, p1] = exchange::<L, 2, N, true>([target(a), target(a + 1)], eps2, src, s);
        for c in 0..N {
            t_out[c][a] += p0[c].into();
            t_out[c][a + 1] += p1[c].into();
        }
        a += 2;
    }
    if a < n_t {
        let [p] = exchange::<L, 1, N, true>([target(a)], eps2, src, s_out);
        for c in 0..N {
            t_out[c][a] += p[c].into();
        }
    }
}

// ---------------------------------------------------------------- x86-64

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{exchange, exchange_panel, gather, Run};
    use core::arch::x86_64::*;

    entry_points! {
        /// # Safety
        /// Requires AVX2+FMA; all slices (including `s_out`) equal lengths.
        #[target_feature(enable = "avx2,fma")]
        pub unsafe fn {
            gather_avx2 = gather::<__m256d, false>;
            exchange_avx2 = exchange::<__m256d, 1, 1, false>;
            exchange_f32_avx2 = exchange::<__m256, 1, 1, false>;
            force_exchange_avx2 = exchange::<__m256d, 1, 4, false>;
            force_exchange_f32_avx2 = exchange::<__m256, 1, 4, false>;
        }
    }

    entry_points! {
        /// # Safety
        /// Requires AVX-512F; all slices (including `s_out`) equal lengths.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn {
            gather_avx512 = gather::<__m512d, true>;
            exchange_avx512 = exchange::<__m512d, 1, 1, true>;
            exchange_f32_avx512 = exchange::<__m512, 1, 1, true>;
            force_exchange_avx512 = exchange::<__m512d, 1, 4, true>;
            force_exchange_f32_avx512 = exchange::<__m512, 1, 4, true>;
        }
    }

    entry_points! {
        /// # Safety
        /// Requires AVX-512F; target slices and every `t_out` equal
        /// lengths, source slices and every `s_out` equal lengths.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn {
            exchange_panel_avx512 = exchange_panel::<__m512d, 1>;
            exchange_f32_panel_avx512 = exchange_panel::<__m512, 1>;
            force_exchange_panel_avx512 = exchange_panel::<__m512d, 4>;
            force_exchange_f32_panel_avx512 = exchange_panel::<__m512, 4>;
        }
    }
}

// --------------------------------------------------------------- aarch64

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{exchange, gather, Run};
    use core::arch::aarch64::*;

    entry_points! {
        /// # Safety
        /// All slices (including `s_out`) must have equal lengths (NEON is
        /// always present).
        pub unsafe fn {
            gather_neon = gather::<float64x2_t, false>;
            exchange_neon = exchange::<float64x2_t, 1, 1, false>;
            exchange_f32_neon = exchange::<float32x4_t, 1, 1, false>;
            force_exchange_neon = exchange::<float64x2_t, 1, 4, false>;
            force_exchange_f32_neon = exchange::<float32x4_t, 1, 4, false>;
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

    /// One force exchange of target `t = [x, y, z, q]` against `src`, the
    /// four source outputs starting at `init`: the target's sums and the
    /// sources' outputs.
    fn force_exchange(
        kernel: Kernel,
        t: [f64; 4],
        eps2: f64,
        src: &(Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>),
        init: f64,
    ) -> ([f64; 4], [Vec<f64>; 4]) {
        let (xs, ys, zs, qs) = src;
        let mut s = [(); 4].map(|_| vec![init; xs.len()]);
        let s_out = s.each_mut().map(|v| v.as_mut_slice());
        let sums = force_exchange_with(kernel, t[0], t[1], t[2], t[3], eps2, xs, ys, zs, qs, s_out);
        (sums, s)
    }

    #[test]
    fn force_exchange_agrees_across_kernels_and_carries_the_exchange_bits() {
        // Against the scalar tier to 1e-13 of Σ |q|/r (Σ |q|/r² for the
        // field) at the target and of each source's own term; and the
        // potential half is the potential exchange's arithmetic, so its
        // bits are `exchange_with`'s on every tier.
        let t = [0.0, 0.1, -0.05, 0.7];
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 537] {
            let src = soa(n, 23);
            let (xs, ys, zs, qs) = &src;
            for eps in [0.0, 0.05] {
                let eps2 = eps * eps;
                let (want, want_s) = force_exchange(Kernel::Scalar, t, eps2, &src, 0.1);
                let mut scale = (0.0, 0.0);
                for j in 0..n {
                    let r2 =
                        (t[0] - xs[j]).powi(2) + (t[1] - ys[j]).powi(2) + (t[2] - zs[j]).powi(2);
                    scale.0 += qs[j].abs() / (r2 + eps2).sqrt();
                    scale.1 += qs[j].abs() / (r2 + eps2);
                }
                for kernel in Kernel::available() {
                    let what = format!("{kernel:?} n={n} eps={eps}");
                    let (got, got_s) = force_exchange(kernel, t, eps2, &src, 0.1);
                    assert!((got[0] - want[0]).abs() <= 1e-13 * scale.0, "{what} Φ");
                    for c in 1..4 {
                        assert!((got[c] - want[c]).abs() <= 1e-13 * scale.1, "{what} E[{c}]");
                    }
                    for (g, w) in got_s.iter().flatten().zip(want_s.iter().flatten()) {
                        assert!((g - w).abs() <= 1e-13 * (1.0 + w.abs()), "{what} s_out");
                    }
                    let mut s = vec![0.1; n];
                    let p =
                        exchange_with(kernel, t[0], t[1], t[2], t[3], eps2, xs, ys, zs, qs, &mut s);
                    assert_eq!(got[0].to_bits(), p.to_bits(), "{what}: Φ bits");
                    for (a, b) in got_s[0].iter().zip(&s) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{what}: source Φ bits");
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

    #[test]
    fn force_panel_matches_per_target_calls() {
        // Each target's sums are the single-target ones bit for bit on
        // every tier, either precision. So are each source's on a tier
        // that serves a panel one target at a time; AVX-512 sums a pair's
        // source-side terms first, one more rounding per source and pair.
        for nt in 0..=5 {
            let (tx, ty, tz, tq) = soa(nt, 13);
            let tx: Vec<f64> = tx.iter().map(|v| v - 1.5).collect();
            for n in 0..=17 {
                let (xs, ys, zs, qs) = soa(n, 11);
                for kernel in Kernel::available() {
                    for (eps2, f32) in [(0.0, false), (1e-4, false), (0.0, true), (1e-4, true)] {
                        let what = format!("{kernel:?} nt={nt} n={n} eps2={eps2} f32={f32}");
                        let init = |len| [(); 4].map(|_| vec![0.25; len]);
                        let (mut want_t, mut want_s) = (init(nt), init(n));
                        let (mut got_t, mut got_s) = (init(nt), init(n));
                        fn slices(v: &mut [Vec<f64>; 4]) -> [&mut [f64]; 4] {
                            v.each_mut().map(|v| v.as_mut_slice())
                        }
                        let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
                        if f32 {
                            let [tx, ty, tz, tq] = [&tx, &ty, &tz, &tq].map(|v| narrow(v));
                            let [xs, ys, zs, qs] = [&xs, &ys, &zs, &qs].map(|v| narrow(v));
                            let e = eps2 as f32;
                            for i in 0..nt {
                                let (x, y, z, q) = (tx[i], ty[i], tz[i], tq[i]);
                                let s_out = slices(&mut want_s);
                                let sums = force_exchange_f32_with(
                                    kernel, x, y, z, q, e, &xs, &ys, &zs, &qs, s_out,
                                );
                                for c in 0..4 {
                                    want_t[c][i] += f64::from(sums[c]);
                                }
                            }
                            let (t_out, s_out) = (slices(&mut got_t), slices(&mut got_s));
                            force_exchange_f32_panel_with(
                                kernel, &tx, &ty, &tz, &tq, e, &xs, &ys, &zs, &qs, t_out, s_out,
                            );
                        } else {
                            for i in 0..nt {
                                let (x, y, z, q) = (tx[i], ty[i], tz[i], tq[i]);
                                let s_out = slices(&mut want_s);
                                let sums = force_exchange_with(
                                    kernel, x, y, z, q, eps2, &xs, &ys, &zs, &qs, s_out,
                                );
                                for c in 0..4 {
                                    want_t[c][i] += sums[c];
                                }
                            }
                            let (t_out, s_out) = (slices(&mut got_t), slices(&mut got_s));
                            force_exchange_panel_with(
                                kernel, &tx, &ty, &tz, &tq, eps2, &xs, &ys, &zs, &qs, t_out, s_out,
                            );
                        }
                        for (a, b) in got_t.iter().flatten().zip(want_t.iter().flatten()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{what} t_out: {a} vs {b}");
                        }
                        let tol = if f32 { 1e-5 } else { 1e-14 };
                        for (a, b) in got_s.iter().flatten().zip(want_s.iter().flatten()) {
                            if kernel == Kernel::Avx512 {
                                assert!((a - b).abs() < tol * (1.0 + b.abs()), "{what} s_out");
                            } else {
                                assert_eq!(a.to_bits(), b.to_bits(), "{what} s_out: {a} vs {b}");
                            }
                        }
                    }
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
    fn neon_shaped_lanes_agree_with_scalar_through_every_body() {
        let t = [0.0, 0.1, -0.05, 0.7];
        let u = [-0.3, 0.2, 0.4, -1.1];
        let (t3, eps2) = ([t[0], t[1], t[2]], 1e-6);
        let (t32, u32) = (t.map(|v| v as f32), u.map(|v| v as f32));
        let eps32 = eps2 as f32;
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

            // Each exchange, potential (N = 1) and force (N = 4), one
            // target and then a pair on top of it, against the scalar
            // body in the same order.
            fn outs<const N: usize>(n: usize) -> [Vec<f64>; N] {
                [(); N].map(|_| vec![0.1; n])
            }
            fn view<const N: usize>(v: &mut [Vec<f64>; N]) -> [&mut [f64]; N] {
                v.each_mut().map(|v| v.as_mut_slice())
            }
            macro_rules! check {
                ($L:ty, $N:literal, $t:expr, $u:expr, $eps2:expr, $run:expr, $tol:expr) => {{
                    let (mut want_s, mut got_s) = (outs::<$N>(n), outs::<$N>(n));
                    let mut ws = view(&mut want_s);
                    let want = exchange_from([Default::default(); $N], $t, $eps2, $run, &mut ws, 0);
                    let want_u =
                        exchange_from([Default::default(); $N], $u, $eps2, $run, &mut ws, 0);
                    let want_t =
                        exchange_from([Default::default(); $N], $t, $eps2, $run, &mut ws, 0);
                    // SAFETY: the array lanes need no CPU feature, and
                    // every output is as long as the run.
                    let [got] = unsafe {
                        exchange::<$L, 1, $N, false>([$t], $eps2, $run, view(&mut got_s))
                    };
                    // SAFETY: as above.
                    let [pu, pt] = unsafe {
                        exchange::<$L, 2, $N, false>([$u, $t], $eps2, $run, view(&mut got_s))
                    };
                    for c in 0..$N {
                        let what = format!("{} N={} n={n} [{c}]", stringify!($L), $N);
                        assert!(close(got[c].into(), want[c].into(), $tol), "{what}");
                        assert!(close(pu[c].into(), want_u[c].into(), $tol), "{what} pair");
                        assert!(close(pt[c].into(), want_t[c].into(), $tol), "{what} pair");
                        for (a, b) in got_s[c].iter().zip(&want_s[c]) {
                            assert!(close(*a, *b, $tol), "{what} s_out: {a} vs {b}");
                        }
                    }
                }};
            }
            check!([f64; 2], 1, t, u, eps2, run, 1e-12);
            check!([f64; 2], 4, t, u, eps2, run, 1e-12);
            check!([f32; 4], 1, t32, u32, eps32, run32, 1e-5);
            check!([f32; 4], 4, t32, u32, eps32, run32, 1e-4);
        }
    }
}
