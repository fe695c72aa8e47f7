//! Per-tier bit pins for the pairwise microkernels: every operation of
//! `fmm_linalg::pairwise`, on every `Kernel::available()` tier, over run
//! lengths 0..=33 (twice the widest vector — AVX-512's 16 f32 lanes — plus
//! one, so every tier sees the empty run, an all-tail run, whole vectors,
//! body + tail and, where it has one, the masked tail; the panels also
//! over 0..=3 targets, so their pair path and their odd last target both
//! run). Each (operation, tier) folds the bits of everything it writes
//! into one FNV-1a checksum, compared against a constant recorded from the
//! hand-written per-tier kernels this file was introduced to replace
//! (commit dc9d874, on an AVX-512 host, so Scalar, AVX2+FMA and AVX-512
//! are all pinned). Since re-recorded: AVX-512 `gather` and `exchange`,
//! when their tails became masked; the f64 `exchange_panel`, added then.
//! Since added: the force exchanges, single-target and panel, f64 and
//! f32, each recorded from its first version (they replaced four force
//! gathers, whose pins went with them); their scalar and AVX2 panel tiers
//! are one single-target call per target.
//!
//! The scalar pins hold on any host: IEEE arithmetic and an exact `sqrt`.
//! The SIMD tiers start from a hardware reciprocal-square-root *estimate*
//! whose bits the vendor chooses, so their pins are guarded by a probe of
//! that instruction on eight fixed inputs; on a host whose estimate
//! differs the tier's pins are printed and skipped, not failed.
//!
//! NEON pins cannot be recorded on the x86 host this was written on: the
//! Neon tier is printed and skipped until someone records it on aarch64.
//! What x86 does check of the NEON-shaped instantiation is the portable
//! lane type in `pairwise.rs`'s unit tests.

use fmm_linalg::pairwise::*;
use fmm_linalg::Kernel;

/// 2·16 + 1: twice the widest tier's lane count, plus one.
const MAX_N: usize = 33;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
    fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

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

/// `(x, y, z, q)` with x in [0.2, 1.2), y and z in [0, 1), q in [−1, 1):
/// at least 0.2 from both targets below.
fn soa(n: usize, seed: u64) -> [Vec<f64>; 4] {
    [
        pseudo(seed, n).iter().map(|v| 0.2 + v).collect(),
        pseudo(seed + 1, n),
        pseudo(seed + 2, n),
        pseudo(seed + 3, n).iter().map(|v| v * 2.0 - 1.0).collect(),
    ]
}

fn narrow(src: &[Vec<f64>; 4]) -> [Vec<f32>; 4] {
    src.each_ref()
        .map(|v| v.iter().map(|&x| x as f32).collect())
}

/// A softened target off the sources, and the origin unsoftened — the
/// case where every dead lane of a masked tail sits at r² = 0.
const TARGETS: [([f64; 3], f64); 2] = [([0.0, 0.1, -0.05], 2.5e-3), ([0.0; 3], 0.0)];

const OPS: [&str; 9] = [
    "gather",
    "exchange",
    "exchange_f32",
    "exchange_f32_panel",
    "force_exchange_f32",
    "force_exchange",
    "exchange_panel",
    "force_exchange_f32_panel",
    "force_exchange_panel",
];

/// Four f64 output arrays of `len`, each starting at `init`.
fn outs(len: usize, init: f64) -> [Vec<f64>; 4] {
    [(); 4].map(|_| vec![init; len])
}

fn view(v: &mut [Vec<f64>; 4]) -> [&mut [f64]; 4] {
    v.each_mut().map(|v| v.as_mut_slice())
}

/// One checksum per entry of `OPS`.
fn checksums(kernel: Kernel) -> [u64; 9] {
    let mut sums = [(); 9].map(|_| Fnv::new());
    for n in 0..=MAX_N {
        let src = soa(n, 42);
        let [xs, ys, zs, qs] = &src;
        let src32 = narrow(&src);
        let [xs32, ys32, zs32, qs32] = &src32;
        for (t, eps2) in TARGETS {
            let (t32, eps32) = (t.map(|v| v as f32), eps2 as f32);

            let g = gather_with(kernel, t[0], t[1], t[2], eps2, xs, ys, zs, qs);
            sums[0].f64s(&[g]);

            let mut s_out = vec![0.1; n];
            let x = exchange_with(
                kernel, t[0], t[1], t[2], 0.7, eps2, xs, ys, zs, qs, &mut s_out,
            );
            sums[1].f64s(&[x]);
            sums[1].f64s(&s_out);

            let mut s_out = vec![0.1; n];
            let x = exchange_f32_with(
                kernel, t32[0], t32[1], t32[2], 0.7, eps32, xs32, ys32, zs32, qs32, &mut s_out,
            );
            sums[2].f32s(&[x]);
            sums[2].f64s(&s_out);

            let mut s_out = outs(n, 0.1);
            let x = force_exchange_f32_with(
                kernel,
                t32[0],
                t32[1],
                t32[2],
                0.7,
                eps32,
                xs32,
                ys32,
                zs32,
                qs32,
                view(&mut s_out),
            );
            sums[4].f32s(&x);
            sums[4].f64s(&s_out.concat());

            let mut s_out = outs(n, 0.1);
            let x = force_exchange_with(
                kernel,
                t[0],
                t[1],
                t[2],
                0.7,
                eps2,
                xs,
                ys,
                zs,
                qs,
                view(&mut s_out),
            );
            sums[5].f64s(&x);
            sums[5].f64s(&s_out.concat());
        }
        for nt in 0..=3 {
            // Targets one unit below the sources in x, so no pair meets.
            let targets = soa(nt, 13);
            let [tx, ty, tz, tq] = narrow(&targets);
            let tx: Vec<f32> = tx.iter().map(|v| v - 1.5).collect();
            let mut t_out = vec![0.25; nt];
            let mut s_out = vec![0.1; n];
            exchange_f32_panel_with(
                kernel, &tx, &ty, &tz, &tq, 1e-4, xs32, ys32, zs32, qs32, &mut t_out, &mut s_out,
            );
            sums[3].f64s(&t_out);
            sums[3].f64s(&s_out);

            let [tx, ty, tz, tq] = &targets;
            let tx: Vec<f64> = tx.iter().map(|v| v - 1.5).collect();
            let mut t_out = vec![0.25; nt];
            let mut s_out = vec![0.1; n];
            exchange_panel_with(
                kernel, &tx, ty, tz, tq, 1e-4, xs, ys, zs, qs, &mut t_out, &mut s_out,
            );
            sums[6].f64s(&t_out);
            sums[6].f64s(&s_out);

            let [tx32, ty32, tz32, tq32] =
                narrow(&[tx.clone(), ty.clone(), tz.clone(), tq.clone()]);
            let (mut t_out, mut s_out) = (outs(nt, 0.25), outs(n, 0.1));
            force_exchange_f32_panel_with(
                kernel,
                &tx32,
                &ty32,
                &tz32,
                &tq32,
                1e-4,
                xs32,
                ys32,
                zs32,
                qs32,
                view(&mut t_out),
                view(&mut s_out),
            );
            sums[7].f64s(&t_out.concat());
            sums[7].f64s(&s_out.concat());

            let (mut t_out, mut s_out) = (outs(nt, 0.25), outs(n, 0.1));
            force_exchange_panel_with(
                kernel,
                &tx,
                ty,
                tz,
                tq,
                1e-4,
                xs,
                ys,
                zs,
                qs,
                view(&mut t_out),
                view(&mut s_out),
            );
            sums[8].f64s(&t_out.concat());
            sums[8].f64s(&s_out.concat());
        }
    }
    sums.map(|s| s.0)
}

fn assert_pinned(kernel: Kernel, want: [u64; 9]) {
    let got = checksums(kernel);
    for (op, (g, w)) in OPS.iter().zip(got.iter().zip(&want)) {
        assert_eq!(
            g, w,
            "{kernel:?} {op}: output bits moved; all nine: {got:#018x?}"
        );
    }
}

const SCALAR_PINS: [u64; 9] = [
    0x624c60d86123b419,
    0x90f4767519ce8b11,
    0xa8223b47dbc69247,
    0x3b704351428c8d29,
    0x375c6ddb9d5e3b33,
    0x1430b5f90e9d5fd3,
    0xcdc11d232b317adf,
    0xd305c5706805d665,
    0x8d2d4d3665b3181b,
];

#[test]
fn scalar_bits_are_pinned() {
    assert_pinned(Kernel::Scalar, SCALAR_PINS);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Fnv;
    use core::arch::x86_64::*;

    const PROBE: [f32; 8] = [0.37, 1.0, 1.9, 2.5e-3, 3.0, 17.25, 640.5, 9.1e4];

    pub const AVX2_SEED: u64 = 0x5dbd941f5a21048f;
    pub const AVX2_PINS: [u64; 9] = [
        0xa4e032ee1a33ed42,
        0x4bd3fd85a999cc44,
        0xfeec592cc27af488,
        0x9cb26129813bb9fa,
        0x84942d0e60a44b6b,
        0xa1a371637ed1b112,
        0x42f1aa19f9cf8196,
        0xb616332862e0e782,
        0x5e1153bc786f0152,
    ];
    pub const AVX512_SEED: u64 = 0x1dfc8807be46e3bc;
    pub const AVX512_PINS: [u64; 9] = [
        0x72596e2fbefd8bd1,
        0xe2360bed5c919965,
        0xf0fcc89b09b89839,
        0xc028e95013ddcdb5,
        0x14a53ced411f0538,
        0xa3f6eb076469985f,
        0xd8fbe0a1ec7d7160,
        0x664aa09d10111d10,
        0xafd2e5c2c77b8433,
    ];

    /// Bits of `rsqrt_ps` (the AVX2+FMA tier's seed, both precisions) on
    /// the eight probe inputs.
    #[target_feature(enable = "avx")]
    pub unsafe fn avx2_seed() -> u64 {
        let mut out = [0.0f32; 8];
        _mm256_storeu_ps(
            out.as_mut_ptr(),
            _mm256_rsqrt_ps(_mm256_loadu_ps(PROBE.as_ptr())),
        );
        let mut h = Fnv::new();
        h.f32s(&out);
        h.0
    }

    /// Bits of `rsqrt14_pd` and `rsqrt14_ps` (the AVX-512 tier's f64 and
    /// f32 seeds) on the eight probe inputs.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn avx512_seed() -> u64 {
        let wide = PROBE.map(f64::from);
        let mut out64 = [0.0f64; 8];
        _mm512_storeu_pd(
            out64.as_mut_ptr(),
            _mm512_rsqrt14_pd(_mm512_loadu_pd(wide.as_ptr())),
        );
        let twice: [f32; 16] = core::array::from_fn(|i| PROBE[i % 8]);
        let mut out32 = [0.0f32; 16];
        _mm512_storeu_ps(
            out32.as_mut_ptr(),
            _mm512_rsqrt14_ps(_mm512_loadu_ps(twice.as_ptr())),
        );
        let mut h = Fnv::new();
        h.f64s(&out64);
        h.f32s(&out32);
        h.0
    }
}

#[test]
fn simd_bits_are_pinned_where_the_seed_instruction_matches() {
    for kernel in Kernel::available() {
        let (seed, want_seed, pins) = match kernel {
            Kernel::Scalar => continue,
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `available()` lists Avx2Fma only where AVX2 (hence AVX) is detected.
            Kernel::Avx2Fma => (unsafe { x86::avx2_seed() }, x86::AVX2_SEED, x86::AVX2_PINS),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `available()` lists Avx512 only where AVX-512F is detected.
            Kernel::Avx512 => (
                unsafe { x86::avx512_seed() },
                x86::AVX512_SEED,
                x86::AVX512_PINS,
            ),
            _ => {
                println!(
                    "{kernel:?}: no pins recorded; bits are {:#018x?}",
                    checksums(kernel)
                );
                continue;
            }
        };
        if seed != want_seed {
            println!(
                "{kernel:?}: rsqrt seed probe {seed:#018x} is not the recorded {want_seed:#018x}; \
                 pins skipped, bits are {:#018x?}",
                checksums(kernel)
            );
            continue;
        }
        assert_pinned(kernel, pins);
    }
}

/// The scalar force exchange is the closed-form loop below, bit for bit,
/// in either precision: `r⁻¹ = 1/√(Δx² + Δy² + Δz² + ε²)` unfused and
/// `r⁻³ = (r⁻¹·r⁻¹)·r⁻¹`; the target sums `q_s·r⁻¹` and `(q_s·r⁻³)·Δ` in
/// source order from zero; each source adds `q_t·r⁻¹` and `(−q_t·r⁻³)·Δ`,
/// widened, onto its outputs. Every tier matches it to rounding, and
/// Newton's third law holds: two particles exchange `q_t·q_s·Δ/r³` with
/// opposite signs.
#[test]
fn force_exchange_is_the_closed_form_scalar_model() {
    fn model<T>(t: [T; 4], eps2: T, src: &[Vec<T>; 4], s_out: &mut [Vec<f64>; 4]) -> [T; 4]
    where
        T: Copy
            + Into<f64>
            + std::ops::Add<Output = T>
            + std::ops::Sub<Output = T>
            + std::ops::Mul<Output = T>
            + std::ops::Div<Output = T>
            + std::ops::Neg<Output = T>
            + From<u8>
            + Sqrt,
    {
        let [xs, ys, zs, qs] = src;
        let mut acc = [T::from(0); 4];
        for j in 0..xs.len() {
            let d = [t[0] - xs[j], t[1] - ys[j], t[2] - zs[j]];
            let inv_r = T::from(1) / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + eps2).sqrt();
            let w = inv_r * inv_r * inv_r;
            acc[0] = acc[0] + qs[j] * inv_r;
            s_out[0][j] += (t[3] * inv_r).into();
            for c in 0..3 {
                acc[1 + c] = acc[1 + c] + qs[j] * w * d[c];
                s_out[1 + c][j] += (-t[3] * w * d[c]).into();
            }
        }
        acc
    }
    trait Sqrt {
        fn sqrt(self) -> Self;
    }
    impl Sqrt for f64 {
        fn sqrt(self) -> f64 {
            f64::sqrt(self)
        }
    }
    impl Sqrt for f32 {
        fn sqrt(self) -> f32 {
            f32::sqrt(self)
        }
    }
    for n in 0..=MAX_N {
        let src = soa(n, 42);
        let src32 = narrow(&src);
        let [xs, ys, zs, qs] = &src;
        let [xs32, ys32, zs32, qs32] = &src32;
        for (t, eps2) in TARGETS {
            let (want_s, mut got_s) = (&mut outs(n, 0.1), outs(n, 0.1));
            let want = model([t[0], t[1], t[2], 0.7], eps2, &src, want_s);
            let got = force_exchange_with(
                Kernel::Scalar,
                t[0],
                t[1],
                t[2],
                0.7,
                eps2,
                xs,
                ys,
                zs,
                qs,
                view(&mut got_s),
            );
            assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits), "n={n}");
            assert_eq!(want_s, &got_s, "n={n}");

            let (t32, e32) = (t.map(|v| v as f32), eps2 as f32);
            let (want_s, mut got_s) = (&mut outs(n, 0.1), outs(n, 0.1));
            let want = model([t32[0], t32[1], t32[2], 0.7], e32, &src32, want_s);
            let got = force_exchange_f32_with(
                Kernel::Scalar,
                t32[0],
                t32[1],
                t32[2],
                0.7,
                e32,
                xs32,
                ys32,
                zs32,
                qs32,
                view(&mut got_s),
            );
            assert_eq!(want.map(f32::to_bits), got.map(f32::to_bits), "f32 n={n}");
            assert_eq!(want_s, &got_s, "f32 n={n}");
        }
    }
    // Charge 2 at the origin, 5 at (3, 4, 0): r = 5, q_t·q_s/r³ = 0.08.
    let src = [vec![3.0], vec![4.0], vec![0.0], vec![5.0]];
    let [xs, ys, zs, qs] = &src;
    for kernel in Kernel::available() {
        let mut s_out = outs(1, 0.0);
        let t = force_exchange_with(
            kernel,
            0.0,
            0.0,
            0.0,
            2.0,
            0.0,
            xs,
            ys,
            zs,
            qs,
            view(&mut s_out),
        );
        let want_t = [1.0, -0.12, -0.16, 0.0];
        let want_s = [0.4, 0.048, 0.064, 0.0];
        for c in 0..4 {
            assert!((t[c] - want_t[c]).abs() < 1e-15, "{kernel:?} target [{c}]");
            assert!(
                (s_out[c][0] - want_s[c]).abs() < 1e-15,
                "{kernel:?} source [{c}]"
            );
        }
        // Equal and opposite: q_t·E_t = −q_s·E_s.
        for c in 1..4 {
            assert!(
                (2.0 * t[c] + 5.0 * s_out[c][0]).abs() < 1e-15,
                "{kernel:?} [{c}]"
            );
        }
    }
}

/// Every force exchange, single-target and panel, f64 and f32, on every
/// tier: the run is the head of longer arrays whose rest is NaN, which a
/// dead lane must not read into a sum, and each of the four source and
/// four target outputs is the head of a sentinel buffer, which nothing
/// may write past. Targets at the origin with ε = 0 put r² = 0 on every
/// dead lane, which must not poison the sums either.
#[test]
fn force_exchange_dead_lanes_leave_all_four_outputs_untouched() {
    const SENTINEL: f64 = 12345.678;
    let guarded = |len: usize| {
        [(); 4].map(|_| {
            let mut v = vec![SENTINEL; len + 16];
            v[..len].fill(0.1);
            v
        })
    };
    fn heads(v: &mut [Vec<f64>; 4], len: usize) -> [&mut [f64]; 4] {
        v.each_mut().map(|v| &mut v[..len])
    }
    let untouched = |v: &[Vec<f64>; 4], len: usize| {
        v.iter()
            .all(|v| v[len..].iter().all(|x| x.to_bits() == SENTINEL.to_bits()))
    };
    let finite =
        |v: &[Vec<f64>; 4], len: usize| v.iter().all(|v| v[..len].iter().all(|x| x.is_finite()));
    for n in [1usize, 5, 7, 9, 15, 17, 31] {
        let mut src = soa(n, 47);
        for v in &mut src {
            v.resize(n + 16, f64::NAN);
        }
        let src32 = narrow(&src);
        let [xs, ys, zs, qs] = src.each_ref().map(|v| &v[..n]);
        let [xs32, ys32, zs32, qs32] = src32.each_ref().map(|v| &v[..n]);
        let tgt: [[f64; 3]; 4] = [[0.0, 0.0, 0.1], [0.0, 0.2, 0.0], [0.0, -0.1, 0.3], [0.7; 3]];
        let tgt32 = tgt.map(|c| c.map(|v| v as f32));
        for kernel in Kernel::available() {
            let what = format!("{kernel:?} n={n}");
            let mut s = guarded(n);
            let p = force_exchange_with(
                kernel,
                0.0,
                0.0,
                0.0,
                0.7,
                0.0,
                xs,
                ys,
                zs,
                qs,
                heads(&mut s, n),
            );
            assert!(p.iter().all(|v| v.is_finite()) && finite(&s, n), "{what}");
            assert!(untouched(&s, n), "{what}: past s_out written");

            let mut s = guarded(n);
            let p = force_exchange_f32_with(
                kernel,
                0.0,
                0.0,
                0.0,
                0.7,
                0.0,
                xs32,
                ys32,
                zs32,
                qs32,
                heads(&mut s, n),
            );
            assert!(
                p.iter().all(|v| v.is_finite()) && finite(&s, n),
                "{what} f32"
            );
            assert!(untouched(&s, n), "{what} f32: past s_out written");

            let (mut t, mut s) = (guarded(3), guarded(n));
            let [tx, ty, tz, tq] = &tgt;
            force_exchange_panel_with(
                kernel,
                tx,
                ty,
                tz,
                tq,
                0.0,
                xs,
                ys,
                zs,
                qs,
                heads(&mut t, 3),
                heads(&mut s, n),
            );
            assert!(finite(&t, 3) && finite(&s, n), "{what} panel");
            assert!(
                untouched(&t, 3) && untouched(&s, n),
                "{what} panel: past an output written"
            );

            let (mut t, mut s) = (guarded(3), guarded(n));
            let [tx, ty, tz, tq] = &tgt32;
            force_exchange_f32_panel_with(
                kernel,
                tx,
                ty,
                tz,
                tq,
                0.0,
                xs32,
                ys32,
                zs32,
                qs32,
                heads(&mut t, 3),
                heads(&mut s, n),
            );
            assert!(finite(&t, 3) && finite(&s, n), "{what} f32 panel");
            assert!(
                untouched(&t, 3) && untouched(&s, n),
                "{what} f32 panel: past an output written"
            );
        }
    }
}

/// A safe caller's short output slice must panic before any tier's raw
/// loads and stores, in release builds too: 33 sources reach past a
/// 5-element slice in the first vector of every tier. Each of the four
/// source outputs (and, for the panels, the four target outputs) in turn.
#[test]
fn force_exchange_rejects_a_short_output() {
    let kernel = Kernel::detect();
    let (long, long32) = ([1.5f64; 33], [1.5f32; 33]);
    let (l, l32) = (&long[..], &long32[..]);
    let mut rejected = 0;
    for short in 0..4 {
        let outputs = || -> [Vec<f64>; 4] {
            std::array::from_fn(|c| vec![0.0; if c == short { 5 } else { 33 }])
        };
        let calls: [&dyn Fn(); 6] = [
            &|| {
                let mut s = outputs();
                force_exchange_with(kernel, 0.0, 0.0, 0.0, 1.0, 0.0, l, l, l, l, view(&mut s));
            },
            &|| {
                let mut s = outputs();
                let s = view(&mut s);
                force_exchange_f32_with(kernel, 0.0, 0.0, 0.0, 1.0, 0.0, l32, l32, l32, l32, s);
            },
            &|| {
                let (mut t, mut s) = (outs(33, 0.0), outputs());
                let (t, s) = (view(&mut t), view(&mut s));
                force_exchange_panel_with(kernel, l, l, l, l, 0.0, l, l, l, l, t, s);
            },
            &|| {
                let (mut t, mut s) = (outputs(), outs(33, 0.0));
                let (t, s) = (view(&mut t), view(&mut s));
                force_exchange_panel_with(kernel, l, l, l, l, 0.0, l, l, l, l, t, s);
            },
            &|| {
                let (mut t, mut s) = (outs(33, 0.0), outputs());
                let (t, s) = (view(&mut t), view(&mut s));
                force_exchange_f32_panel_with(
                    kernel, l32, l32, l32, l32, 0.0, l32, l32, l32, l32, t, s,
                );
            },
            &|| {
                let (mut t, mut s) = (outputs(), outs(33, 0.0));
                let (t, s) = (view(&mut t), view(&mut s));
                force_exchange_f32_panel_with(
                    kernel, l32, l32, l32, l32, 0.0, l32, l32, l32, l32, t, s,
                );
            },
        ];
        for (i, call) in calls.iter().enumerate() {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).expect_err(
                &format!("output {short}, call {i}: a short slice must panic"),
            );
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(
                msg.contains("unequal lengths"),
                "output {short}, call {i}: {msg}"
            );
            rejected += 1;
        }
    }
    assert_eq!(rejected, 24);
}
