//! Runtime-dispatched microkernels for the panel GEMM/GEMV hot path.
//!
//! The traversal's dominant cost is `C(m×n) += A(m×k)·B(k×n)` with `A` a
//! K×K translation matrix (K = 12–120) and `B`/`C` gathered panels whose row
//! length `n` is the number of aggregated boxes (hundreds to thousands). The
//! paper leans on CMSSL's tuned multiple-instance GEMM for exactly this
//! shape (§3.3, Table 3); here the equivalent is a family of explicit SIMD
//! microkernels, selected at runtime behind the [`Kernel`] enum with the
//! portable scalar loop kept as the reference implementation.
//!
//! Three SIMD tiers exist:
//!
//! * **AVX2+FMA** (x86-64): a 2×16 register tile — two C rows × four 4-lane
//!   accumulators each (8 independent FMA chains, enough to cover FMA
//!   latency on any recent x86), broadcasting one `A` element per row per
//!   `k` step and streaming unit-stride over `B`. Edges fall back to a 2×4
//!   tile and then scalar columns. The GEMV kernel runs four accumulators
//!   over one row (4×-unrolled by 4 lanes) and reduces horizontally once
//!   per row.
//! * **AVX-512** ([`crate::avx512`], x86-64): the same tiling doubled to
//!   8-lane ZMM registers — a 2×32 main tile, 8 FMA chains.
//! * **NEON** ([`crate::neon`], aarch64): 2-lane f64 vectors, a 2×8 main
//!   tile with 8 independent `vfmaq_f64` chains.
//!
//! Detection runs once (cached in a `OnceLock`) and can be overridden for
//! reproducible benchmarking via `FMM_KERNEL=scalar|avx2|avx512|neon`; an
//! override naming a family the host cannot run falls back to the best
//! supported kernel instead of faulting.

/// Which microkernel family to run. `detect()` is cheap (cached) and the
/// enum is `Copy`, so callers can hoist it out of loops or pass it down.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kernel {
    /// Portable blocked scalar loops (the auto-vectorized reference).
    Scalar,
    /// Explicit AVX2 + FMA microkernels (x86-64 only, runtime-detected).
    Avx2Fma,
    /// Explicit AVX-512 microkernels, f64×8 lanes (x86-64 only,
    /// runtime-detected via `avx512f`).
    Avx512,
    /// Explicit NEON microkernels, f64×2 lanes (aarch64, where NEON is
    /// architecturally guaranteed).
    Neon,
}

impl Kernel {
    /// The kernel to use: `FMM_KERNEL` if set to a supported family, else
    /// the best the running CPU supports. Resolution runs once and is
    /// cached for the life of the process.
    pub fn detect() -> Kernel {
        use std::sync::OnceLock;
        static BEST: OnceLock<Kernel> = OnceLock::new();
        *BEST.get_or_init(|| {
            if let Ok(name) = std::env::var("FMM_KERNEL") {
                match Kernel::from_name(&name) {
                    Some(k) if k.supported() => return k,
                    Some(k) => eprintln!(
                        "FMM_KERNEL={} ({}) is not supported on this host; using {}",
                        name,
                        k.name(),
                        Kernel::best_supported().name()
                    ),
                    None => eprintln!(
                        "FMM_KERNEL={} not recognized (scalar|avx2|avx512|neon); using {}",
                        name,
                        Kernel::best_supported().name()
                    ),
                }
            }
            Kernel::best_supported()
        })
    }

    /// The widest kernel the running CPU supports, ignoring `FMM_KERNEL`.
    pub fn best_supported() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Kernel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Kernel::Avx2Fma;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            return Kernel::Neon;
        }
        #[allow(unreachable_code)]
        Kernel::Scalar
    }

    /// Can this family run on the current host?
    pub fn supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => true,
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2Fma => false,
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx512 => false,
            #[cfg(not(target_arch = "aarch64"))]
            Kernel::Neon => false,
        }
    }

    /// Every family the running CPU supports, narrowest first. Benchmarks
    /// and parity tests iterate this to cover the whole dispatch matrix.
    pub fn available() -> Vec<Kernel> {
        [
            Kernel::Scalar,
            Kernel::Avx2Fma,
            Kernel::Avx512,
            Kernel::Neon,
        ]
        .into_iter()
        .filter(|k| k.supported())
        .collect()
    }

    /// Parse an `FMM_KERNEL`-style name. Accepts the short spellings used
    /// by the env override and the display names.
    pub fn from_name(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Kernel::Scalar),
            "avx2" | "avx2+fma" => Some(Kernel::Avx2Fma),
            "avx512" | "avx-512" | "avx512f" => Some(Kernel::Avx512),
            "neon" => Some(Kernel::Neon),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2Fma => "avx2+fma",
            Kernel::Avx512 => "avx512",
            Kernel::Neon => "neon",
        }
    }
}

/// `C += A * B` with an explicit kernel choice. `gemm_acc` calls this with
/// `Kernel::detect()`; benchmarks call it with every variant to compare.
pub fn gemm_acc_with(
    kernel: Kernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    assert_eq!(c.len(), m * n, "C shape mismatch");
    match kernel {
        Kernel::Scalar => gemm_acc_scalar(m, k, n, a, b, c),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only handed out by detect() after the feature
        // check (or chosen explicitly by tests/benches on the same CPU).
        Kernel::Avx2Fma => unsafe { avx2::gemm_acc(m, k, n, a, b, c) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, gated on avx512f.
        Kernel::Avx512 => unsafe { crate::avx512::gemm_acc(m, k, n, a, b, c) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        Kernel::Neon => unsafe { crate::neon::gemm_acc(m, k, n, a, b, c) },
        #[allow(unreachable_patterns)]
        _ => gemm_acc_scalar(m, k, n, a, b, c),
    }
}

/// Shared accumulating GEMV core: `y = A*x` (`accumulate = false`) or
/// `y += A*x` (`accumulate = true`). Both public wrappers route here.
pub fn gemv_with(
    kernel: Kernel,
    m: usize,
    k: usize,
    a: &[f64],
    x: &[f64],
    y: &mut [f64],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), k);
    debug_assert_eq!(y.len(), m);
    match kernel {
        Kernel::Scalar => gemv_scalar(m, k, a, x, y, accumulate),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see gemm_acc_with.
        Kernel::Avx2Fma => unsafe { avx2::gemv(m, k, a, x, y, accumulate) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see gemm_acc_with.
        Kernel::Avx512 => unsafe { crate::avx512::gemv(m, k, a, x, y, accumulate) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally guaranteed on aarch64.
        Kernel::Neon => unsafe { crate::neon::gemv(m, k, a, x, y, accumulate) },
        #[allow(unreachable_patterns)]
        _ => gemv_scalar(m, k, a, x, y, accumulate),
    }
}

/// Portable blocked i-k-j GEMM (the original reference kernel).
pub fn gemm_acc_scalar(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    // Block over k so that the `KB` rows of B being streamed stay in L1/L2.
    const KB: usize = 64;
    let mut k0 = 0;
    while k0 < k {
        let kb = KB.min(k - k0);
        for i in 0..m {
            let arow = &a[i * k + k0..i * k + k0 + kb];
            let crow = &mut c[i * n..(i + 1) * n];
            // Unroll pairs of rank-1 updates to expose more ILP.
            let mut p = 0;
            while p + 1 < kb {
                let a0 = arow[p];
                let a1 = arow[p + 1];
                let b0 = &b[(k0 + p) * n..(k0 + p) * n + n];
                let b1 = &b[(k0 + p + 1) * n..(k0 + p + 1) * n + n];
                for ((cj, b0j), b1j) in crow.iter_mut().zip(b0).zip(b1) {
                    *cj += a0 * b0j + a1 * b1j;
                }
                p += 2;
            }
            if p < kb {
                let a0 = arow[p];
                let b0 = &b[(k0 + p) * n..(k0 + p) * n + n];
                for (cj, b0j) in crow.iter_mut().zip(b0) {
                    *cj += a0 * b0j;
                }
            }
        }
        k0 += kb;
    }
}

pub(crate) fn gemv_scalar(
    _m: usize,
    k: usize,
    a: &[f64],
    x: &[f64],
    y: &mut [f64],
    accumulate: bool,
) {
    for (i, yi) in y.iter_mut().enumerate() {
        let row = &a[i * k..(i + 1) * k];
        let mut acc = 0.0;
        for (aij, xj) in row.iter().zip(x) {
            acc += aij * xj;
        }
        if accumulate {
            *yi += acc;
        } else {
            *yi = acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// 2-row × 16-column register-tiled `C += A·B`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and FMA, and that the slice
    /// lengths match (checked by the public wrapper).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_acc(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i = 0;
        // Main 2-row tile.
        while i + 2 <= m {
            row_pair(i, k, n, ap, bp, cp);
            i += 2;
        }
        // Odd final row: a 1×16 tile with four accumulators.
        if i < m {
            row_single(i, k, n, ap, bp, cp);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_pair(i: usize, k: usize, n: usize, ap: *const f64, bp: *const f64, cp: *mut f64) {
        let a0row = ap.add(i * k);
        let a1row = ap.add((i + 1) * k);
        let c0row = cp.add(i * n);
        let c1row = cp.add((i + 1) * n);
        let mut j = 0;
        while j + 16 <= n {
            let mut q00 = _mm256_loadu_pd(c0row.add(j));
            let mut q01 = _mm256_loadu_pd(c0row.add(j + 4));
            let mut q02 = _mm256_loadu_pd(c0row.add(j + 8));
            let mut q03 = _mm256_loadu_pd(c0row.add(j + 12));
            let mut q10 = _mm256_loadu_pd(c1row.add(j));
            let mut q11 = _mm256_loadu_pd(c1row.add(j + 4));
            let mut q12 = _mm256_loadu_pd(c1row.add(j + 8));
            let mut q13 = _mm256_loadu_pd(c1row.add(j + 12));
            for p in 0..k {
                let brow = bp.add(p * n + j);
                let b0 = _mm256_loadu_pd(brow);
                let b1 = _mm256_loadu_pd(brow.add(4));
                let b2 = _mm256_loadu_pd(brow.add(8));
                let b3 = _mm256_loadu_pd(brow.add(12));
                let a0 = _mm256_set1_pd(*a0row.add(p));
                let a1 = _mm256_set1_pd(*a1row.add(p));
                q00 = _mm256_fmadd_pd(a0, b0, q00);
                q01 = _mm256_fmadd_pd(a0, b1, q01);
                q02 = _mm256_fmadd_pd(a0, b2, q02);
                q03 = _mm256_fmadd_pd(a0, b3, q03);
                q10 = _mm256_fmadd_pd(a1, b0, q10);
                q11 = _mm256_fmadd_pd(a1, b1, q11);
                q12 = _mm256_fmadd_pd(a1, b2, q12);
                q13 = _mm256_fmadd_pd(a1, b3, q13);
            }
            _mm256_storeu_pd(c0row.add(j), q00);
            _mm256_storeu_pd(c0row.add(j + 4), q01);
            _mm256_storeu_pd(c0row.add(j + 8), q02);
            _mm256_storeu_pd(c0row.add(j + 12), q03);
            _mm256_storeu_pd(c1row.add(j), q10);
            _mm256_storeu_pd(c1row.add(j + 4), q11);
            _mm256_storeu_pd(c1row.add(j + 8), q12);
            _mm256_storeu_pd(c1row.add(j + 12), q13);
            j += 16;
        }
        while j + 4 <= n {
            let mut q0 = _mm256_loadu_pd(c0row.add(j));
            let mut q1 = _mm256_loadu_pd(c1row.add(j));
            for p in 0..k {
                let bv = _mm256_loadu_pd(bp.add(p * n + j));
                q0 = _mm256_fmadd_pd(_mm256_set1_pd(*a0row.add(p)), bv, q0);
                q1 = _mm256_fmadd_pd(_mm256_set1_pd(*a1row.add(p)), bv, q1);
            }
            _mm256_storeu_pd(c0row.add(j), q0);
            _mm256_storeu_pd(c1row.add(j), q1);
            j += 4;
        }
        while j < n {
            let mut s0 = 0.0;
            let mut s1 = 0.0;
            for p in 0..k {
                let bv = *bp.add(p * n + j);
                s0 += *a0row.add(p) * bv;
                s1 += *a1row.add(p) * bv;
            }
            *c0row.add(j) += s0;
            *c1row.add(j) += s1;
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_single(
        i: usize,
        k: usize,
        n: usize,
        ap: *const f64,
        bp: *const f64,
        cp: *mut f64,
    ) {
        let arow = ap.add(i * k);
        let crow = cp.add(i * n);
        let mut j = 0;
        while j + 16 <= n {
            let mut q0 = _mm256_loadu_pd(crow.add(j));
            let mut q1 = _mm256_loadu_pd(crow.add(j + 4));
            let mut q2 = _mm256_loadu_pd(crow.add(j + 8));
            let mut q3 = _mm256_loadu_pd(crow.add(j + 12));
            for p in 0..k {
                let brow = bp.add(p * n + j);
                let av = _mm256_set1_pd(*arow.add(p));
                q0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow), q0);
                q1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow.add(4)), q1);
                q2 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow.add(8)), q2);
                q3 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow.add(12)), q3);
            }
            _mm256_storeu_pd(crow.add(j), q0);
            _mm256_storeu_pd(crow.add(j + 4), q1);
            _mm256_storeu_pd(crow.add(j + 8), q2);
            _mm256_storeu_pd(crow.add(j + 12), q3);
            j += 16;
        }
        while j + 4 <= n {
            let mut q = _mm256_loadu_pd(crow.add(j));
            for p in 0..k {
                q = _mm256_fmadd_pd(
                    _mm256_set1_pd(*arow.add(p)),
                    _mm256_loadu_pd(bp.add(p * n + j)),
                    q,
                );
            }
            _mm256_storeu_pd(crow.add(j), q);
            j += 4;
        }
        while j < n {
            let mut s = 0.0;
            for p in 0..k {
                s += *arow.add(p) * *bp.add(p * n + j);
            }
            *crow.add(j) += s;
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let s = _mm_add_pd(lo, hi);
        let swapped = _mm_unpackhi_pd(s, s);
        _mm_cvtsd_f64(_mm_add_sd(s, swapped))
    }

    /// Row-wise dot products, 4 accumulators × 4 lanes per row.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA support and matching slice lengths.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemv(_m: usize, k: usize, a: &[f64], x: &[f64], y: &mut [f64], accumulate: bool) {
        let ap = a.as_ptr();
        let xp = x.as_ptr();
        for (i, yi) in y.iter_mut().enumerate() {
            let row = ap.add(i * k);
            let mut q0 = _mm256_setzero_pd();
            let mut q1 = _mm256_setzero_pd();
            let mut q2 = _mm256_setzero_pd();
            let mut q3 = _mm256_setzero_pd();
            let mut p = 0;
            while p + 16 <= k {
                q0 = _mm256_fmadd_pd(_mm256_loadu_pd(row.add(p)), _mm256_loadu_pd(xp.add(p)), q0);
                q1 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(row.add(p + 4)),
                    _mm256_loadu_pd(xp.add(p + 4)),
                    q1,
                );
                q2 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(row.add(p + 8)),
                    _mm256_loadu_pd(xp.add(p + 8)),
                    q2,
                );
                q3 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(row.add(p + 12)),
                    _mm256_loadu_pd(xp.add(p + 12)),
                    q3,
                );
                p += 16;
            }
            while p + 4 <= k {
                q0 = _mm256_fmadd_pd(_mm256_loadu_pd(row.add(p)), _mm256_loadu_pd(xp.add(p)), q0);
                p += 4;
            }
            let mut acc = hsum(_mm256_add_pd(_mm256_add_pd(q0, q1), _mm256_add_pd(q2, q3)));
            while p < k {
                acc += *row.add(p) * *xp.add(p);
                p += 1;
            }
            if accumulate {
                *yi += acc;
            } else {
                *yi = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;

    fn pseudo(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn detect_is_stable() {
        assert_eq!(Kernel::detect(), Kernel::detect());
    }

    #[test]
    fn available_contains_scalar_and_detected() {
        let avail = Kernel::available();
        assert!(avail.contains(&Kernel::Scalar));
        assert!(avail.contains(&Kernel::detect()));
        for k in avail {
            assert!(k.supported());
        }
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in [
            Kernel::Scalar,
            Kernel::Avx2Fma,
            Kernel::Avx512,
            Kernel::Neon,
        ] {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
        }
        assert_eq!(Kernel::from_name("avx2"), Some(Kernel::Avx2Fma));
        assert_eq!(Kernel::from_name("AVX512"), Some(Kernel::Avx512));
        assert_eq!(Kernel::from_name("riscv-v"), None);
    }

    #[test]
    fn gemm_kernels_agree_on_awkward_shapes() {
        // Shapes chosen to hit every edge path of every family: 32- and
        // 16-wide main tiles, 8- and 4-wide tiles, scalar columns, and the
        // odd trailing row.
        for kernel in Kernel::available() {
            for &(m, k, n) in &[
                (1, 1, 1),
                (2, 3, 4),
                (3, 5, 7),
                (5, 12, 16),
                (12, 12, 33),
                (7, 72, 21),
                (72, 72, 129),
                (13, 129, 63),
                (2, 12, 40),
            ] {
                let a = pseudo(1 + m as u64, m * k);
                let b = pseudo(2 + n as u64, k * n);
                let mut c1 = pseudo(3, m * n);
                let mut c2 = c1.clone();
                gemm_acc_with(kernel, m, k, n, &a, &b, &mut c1);
                gemm_naive(m, k, n, &a, &b, &mut c2);
                for (x, y) in c1.iter().zip(&c2) {
                    assert!(
                        (x - y).abs() < 1e-11 * (1.0 + y.abs()),
                        "{:?} mismatch for {}x{}x{}: {} vs {}",
                        kernel,
                        m,
                        k,
                        n,
                        x,
                        y
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_rows_are_independent_of_panel_height() {
        // What lets fmm-core batch any set of boxes into a panel: row i of
        // an m-row product is the one-row product, bit for bit, at every
        // K the FMM uses (orders 3, 5, 11, 14) and on every tile edge.
        for kernel in Kernel::available() {
            for &k in &[6, 12, 72, 120] {
                let b = pseudo(k as u64, k * k);
                for &m in &[1, 3, 8, 32, 33] {
                    let mut a = pseudo((m + k) as u64, m * k);
                    a[(m / 2) * k..(m / 2 + 1) * k].fill(0.0); // an out-of-domain source
                    let c0 = pseudo(3, m * k);
                    let mut panel = c0.clone();
                    gemm_acc_with(kernel, m, k, k, &a, &b, &mut panel);
                    for i in 0..m {
                        let rows = i * k..(i + 1) * k;
                        let mut row = c0[rows.clone()].to_vec();
                        gemm_acc_with(kernel, 1, k, k, &a[rows.clone()], &b, &mut row);
                        for (x, y) in panel[rows].iter().zip(&row) {
                            assert_eq!(x.to_bits(), y.to_bits(), "{kernel:?} K={k} row {i} of {m}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_kernels_agree() {
        for kernel in Kernel::available() {
            for &(m, k) in &[(1, 1), (3, 5), (12, 12), (7, 17), (72, 72), (33, 129)] {
                let a = pseudo(5 + m as u64, m * k);
                let x = pseudo(7 + k as u64, k);
                let mut y1 = pseudo(9, m);
                let mut y2 = y1.clone();
                gemv_with(kernel, m, k, &a, &x, &mut y1, true);
                gemv_with(Kernel::Scalar, m, k, &a, &x, &mut y2, true);
                for (p, q) in y1.iter().zip(&y2) {
                    assert!(
                        (p - q).abs() < 1e-11 * (1.0 + q.abs()),
                        "{:?} {}x{}",
                        kernel,
                        m,
                        k
                    );
                }
                gemv_with(kernel, m, k, &a, &x, &mut y1, false);
                gemv_with(Kernel::Scalar, m, k, &a, &x, &mut y2, false);
                assert_eq!(y1.len(), y2.len());
                for (p, q) in y1.iter().zip(&y2) {
                    assert!((p - q).abs() < 1e-11 * (1.0 + q.abs()));
                }
            }
        }
    }
}
