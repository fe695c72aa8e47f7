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
//! Since added: the two force panels, each recorded from its first
//! version; their scalar and AVX2 tiers are one single-target call per
//! target, so those pins also hold the single-target force gathers.
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
    "force_gather_f32",
    "force_gather",
    "exchange_panel",
    "force_gather_f32_panel",
    "force_gather_panel",
];

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

            let (p, f) = force_gather_f32_with(
                kernel, t32[0], t32[1], t32[2], eps32, xs32, ys32, zs32, qs32,
            );
            sums[4].f32s(&[p]);
            sums[4].f32s(&f);

            let (p, f) = force_gather_with(kernel, t[0], t[1], t[2], eps2, xs, ys, zs, qs);
            sums[5].f64s(&[p]);
            sums[5].f64s(&f);
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

            let [tx32, ty32, tz32, _] = narrow(&[tx.clone(), ty.clone(), tz.clone(), tq.clone()]);
            let (mut p_out, mut f_out) = (vec![0.25; nt], vec![[0.25; 3]; nt]);
            force_gather_f32_panel_with(
                kernel, &tx32, &ty32, &tz32, 1e-4, xs32, ys32, zs32, qs32, &mut p_out, &mut f_out,
            );
            sums[7].f64s(&p_out);
            sums[7].f64s(f_out.as_flattened());

            let (mut p_out, mut f_out) = (vec![0.25; nt], vec![[0.25; 3]; nt]);
            force_gather_panel_with(
                kernel, &tx, ty, tz, 1e-4, xs, ys, zs, qs, &mut p_out, &mut f_out,
            );
            sums[8].f64s(&p_out);
            sums[8].f64s(f_out.as_flattened());
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
    0x143a25a83e7317b5,
    0xb897cdf4752ce66c,
    0xcdc11d232b317adf,
    0x45e309074ced95b8,
    0xc50fc50b59dde411,
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
        0xcd50f50d96b1a607,
        0x77797b850717c296,
        0x42f1aa19f9cf8196,
        0xfd18359532354e7b,
        0xfd33e32db65822e1,
    ];
    pub const AVX512_SEED: u64 = 0x1dfc8807be46e3bc;
    pub const AVX512_PINS: [u64; 9] = [
        0x72596e2fbefd8bd1,
        0xe2360bed5c919965,
        0xf0fcc89b09b89839,
        0xc028e95013ddcdb5,
        0x190572f2015a471c,
        0xd71f9892e283c2f7,
        0xd8fbe0a1ec7d7160,
        0xba2695ae26c00828,
        0x0ab9798a78622bc4,
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
