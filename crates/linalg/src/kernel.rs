//! Runtime-dispatched microkernels for the panel GEMM hot path.
//!
//! The traversal's dominant cost is `C(m×n) += A(m×k)·B(k×n)` with `A` a
//! K×K translation matrix (K = 12–120) and `B`/`C` gathered panels whose row
//! length `n` is the number of aggregated boxes (hundreds to thousands). The
//! paper leans on CMSSL's tuned multiple-instance GEMM for exactly this
//! shape (§3.3, Table 3); here the equivalent is one explicit SIMD loop
//! nest, selected at runtime behind the [`Kernel`] enum with the portable
//! scalar loop kept as the reference implementation.
//!
//! The loop nest (`gemm_acc_lanes`) is written once over the crate's
//! `Lanes` vector type; a vector tier is one entry point instantiating it
//! (`x86::gemm_acc_avx2`, …; tile and tail per tier in `lanes.rs`).
//! Panels of four vectors of columns are the *outer* loop: one panel's
//! `k × 4W` stripe of `B` stays L1-resident while a `ROWS`-row register
//! tile (`a_ip` broadcast, `B` streamed, p ascending) takes every row of
//! `A` and `C` past it. Rows outermost re-reads all of `B` per row block;
//! on AVX-512 that measured slower than AVX2 (DESIGN.md §5.5).
//!
//! Detection runs once (cached in a `OnceLock`) and can be overridden for
//! reproducible benchmarking via `FMM_KERNEL=scalar|avx2|avx512|neon`; an
//! override naming a family the host cannot run falls back to the best
//! supported kernel instead of faulting.

use crate::lanes::Lanes;

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
        [Kernel::Avx512, Kernel::Avx2Fma, Kernel::Neon]
            .into_iter()
            .find(|k| k.supported())
            .unwrap_or(Kernel::Scalar)
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
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx2Fma | Kernel::Avx512 => false,
            Kernel::Neon => cfg!(target_arch = "aarch64"),
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
/// Panics unless `a`, `b`, `c` hold `m × k`, `k × n`, `m × n` elements.
pub fn gemm_acc_with(
    kernel: Kernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    assert_eq!(Some(a.len()), m.checked_mul(k), "A shape mismatch");
    gemm_acc_strided_with(kernel, m, k, n, a, k, b, c)
}

/// [`gemm_acc_with`] with `A`'s rows `lda` elements apart: row `i` is
/// `a[i·lda..i·lda + k]`, so rows that sit at one stride in a larger array
/// are multiplied where they lie, with the bits of the product of the
/// same rows gathered densely (`lda` only moves the loads of `A`).
/// Panics unless `lda ≥ k`, `a` reaches `(m − 1)·lda + k` elements, and
/// `b`, `c` hold `k × n`, `m × n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc_strided_with(
    kernel: Kernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    c: &mut [f64],
) {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2Fma is only handed out by detect() after the feature
        // check (or chosen explicitly by tests/benches on the same CPU).
        Kernel::Avx2Fma => unsafe { x86::gemm_acc_avx2(m, k, n, a, lda, b, c) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, gated on avx512f.
        Kernel::Avx512 => unsafe { x86::gemm_acc_avx512(m, k, n, a, lda, b, c) },
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => arm::gemm_acc_neon(m, k, n, a, lda, b, c),
        _ => gemm_acc_scalar(m, k, n, a, lda, b, c),
    }
}

/// Every entry point's shape check, in release builds too: the vector
/// tiers read and write through raw pointers. `A`'s `m` rows of `k` lie
/// `lda ≥ k` apart.
#[inline]
pub(crate) fn assert_shapes(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    c: &[f64],
) {
    assert!(lda >= k, "A row stride below its row length");
    let a_end = m.checked_sub(1).map_or(Some(0), |rows| {
        rows.checked_mul(lda).and_then(|at| at.checked_add(k))
    });
    assert!(a_end.is_some_and(|end| end <= a.len()), "A shape mismatch");
    assert_eq!(Some(b.len()), k.checked_mul(n), "B shape mismatch");
    assert_eq!(Some(c.len()), m.checked_mul(n), "C shape mismatch");
}

/// Portable blocked i-k-j GEMM (the original reference kernel), `A`'s
/// rows `lda` apart. Panics on a shape mismatch, as
/// [`gemm_acc_strided_with`].
pub fn gemm_acc_scalar(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    c: &mut [f64],
) {
    assert_shapes(m, k, n, a, lda, b, c);
    // Block over k so that the `KB` rows of B being streamed stay in L1/L2.
    const KB: usize = 64;
    let mut k0 = 0;
    while k0 < k {
        let kb = KB.min(k - k0);
        for i in 0..m {
            let arow = &a[i * lda + k0..i * lda + k0 + kb];
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

/// `C += A·B` over `L`'s lanes, the one loop nest of every vector tier:
/// whole panels of four vectors, a trailing panel of 1–3 (under `MASKED`
/// 1–4, the last masked), then any scalar tail columns (module header).
///
/// # Safety
/// Requires the CPU features of `L`'s tier; `a` holds `m` rows of `k`
/// elements `lda` apart, `b` and `c` hold `k × n` and `m × n` elements.
#[inline(always)]
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(dead_code)
)]
pub(crate) unsafe fn gemm_acc_lanes<L: Lanes<Elem = f64>, const ROWS: usize, const MASKED: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    c: &mut [f64],
) {
    const { assert!(L::MASKED_TAIL || !MASKED) };
    let w = L::WIDTH;
    let (ap, bp, cp) = ((a.as_ptr(), lda), b.as_ptr(), c.as_mut_ptr());
    let mut j = 0;
    while j + 4 * w <= n {
        panel::<L, 4, ROWS>(m, k, n, j, 4 * w, ap, bp, cp);
        j += 4 * w;
    }
    let rest = n - j;
    let cols = if MASKED { rest } else { rest - rest % w };
    match cols.div_ceil(w) {
        0 => {}
        1 => panel::<L, 1, ROWS>(m, k, n, j, cols, ap, bp, cp),
        2 => panel::<L, 2, ROWS>(m, k, n, j, cols, ap, bp, cp),
        3 => panel::<L, 3, ROWS>(m, k, n, j, cols, ap, bp, cp),
        _ => panel::<L, 4, ROWS>(m, k, n, j, cols, ap, bp, cp),
    }
    // The scalar column tail: empty under a mask.
    for jt in j + cols..n {
        for i in 0..m {
            let arow = &a[i * lda..i * lda + k];
            let mut s = 0.0;
            for (aip, bpj) in arow.iter().zip(b.iter().skip(jt).step_by(n)) {
                s += aip * bpj;
            }
            c[i * n + jt] += s;
        }
    }
}

/// The `cols` columns from `j` in `REGS` vectors, the last masked to the
/// columns it holds, for every row: `ROWS` rows at a time, then the rest.
///
/// # Safety
/// As [`gemm_acc_lanes`], with `j + cols ≤ n`; `a` is `A` and its row
/// stride.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn panel<L: Lanes<Elem = f64>, const REGS: usize, const ROWS: usize>(
    m: usize,
    k: usize,
    n: usize,
    j: usize,
    cols: usize,
    a: (*const f64, usize),
    b: *const f64,
    c: *mut f64,
) {
    let w = L::WIDTH;
    let masks: [u16; REGS] = core::array::from_fn(|q| L::FULL >> (w - (cols - w * q).min(w)));
    let mut i = 0;
    while i + ROWS <= m {
        tile::<L, REGS, ROWS>(i, k, n, j, masks, a, b, c);
        i += ROWS;
    }
    // The rows left over as one tile where the tier's row count allows:
    // a tile's time is set by its fma latency chain, not by its rows, so
    // one short tile costs what one whole tile does, where one-row tiles
    // would cost that each.
    match m - i {
        0 => {}
        3 if ROWS > 3 => tile::<L, REGS, 3>(i, k, n, j, masks, a, b, c),
        2 if ROWS > 2 => tile::<L, REGS, 2>(i, k, n, j, masks, a, b, c),
        _ => {
            while i < m {
                tile::<L, REGS, 1>(i, k, n, j, masks, a, b, c);
                i += 1;
            }
        }
    }
}

/// Rows `i..i + ROWS` × `REGS` vectors of `C` at column `j`, held in
/// registers while `p` runs up `A`'s row and down `B`'s columns: one
/// broadcast of `a_ip` per row, one fma per accumulator.
///
/// # Safety
/// As [`panel`], with `i + ROWS ≤ m`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile<L: Lanes<Elem = f64>, const REGS: usize, const ROWS: usize>(
    i: usize,
    k: usize,
    n: usize,
    j: usize,
    masks: [u16; REGS],
    a: (*const f64, usize),
    b: *const f64,
    c: *mut f64,
) {
    let (w, (a, lda)) = (L::WIDTH, a);
    let mut acc = [[L::zero(); REGS]; ROWS];
    for (r, row) in acc.iter_mut().enumerate() {
        for (q, v) in row.iter_mut().enumerate() {
            *v = L::load(c.add((i + r) * n + j + w * q), masks[q]);
        }
    }
    for p in 0..k {
        let mut bv = [L::zero(); REGS];
        for (q, v) in bv.iter_mut().enumerate() {
            *v = L::load(b.add(p * n + j + w * q), masks[q]);
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = L::splat(*a.add((i + r) * lda + p));
            for (q, v) in row.iter_mut().enumerate() {
                *v = L::fma(av, bv[q], *v);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (q, v) in row.iter().enumerate() {
            L::store(c.add((i + r) * n + j + w * q), *v, masks[q]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{assert_shapes, gemm_acc_lanes};
    use core::arch::x86_64::*;

    /// Panics on a shape mismatch.
    #[target_feature(enable = "avx2,fma")]
    pub fn gemm_acc_avx2(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        lda: usize,
        b: &[f64],
        c: &mut [f64],
    ) {
        assert_shapes(m, k, n, a, lda, b, c);
        // SAFETY: this function carries the tier's features; shapes checked.
        unsafe { gemm_acc_lanes::<__m256d, 2, false>(m, k, n, a, lda, b, c) }
    }

    /// Panics on a shape mismatch.
    #[target_feature(enable = "avx512f")]
    pub fn gemm_acc_avx512(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        lda: usize,
        b: &[f64],
        c: &mut [f64],
    ) {
        assert_shapes(m, k, n, a, lda, b, c);
        // SAFETY: this function carries the tier's features; shapes checked.
        unsafe { gemm_acc_lanes::<__m512d, 4, true>(m, k, n, a, lda, b, c) }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{assert_shapes, gemm_acc_lanes};
    use core::arch::aarch64::*;

    /// Panics on a shape mismatch.
    pub fn gemm_acc_neon(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        lda: usize,
        b: &[f64],
        c: &mut [f64],
    ) {
        assert_shapes(m, k, n, a, lda, b, c);
        // SAFETY: NEON is architecturally guaranteed on aarch64; shapes checked.
        unsafe { gemm_acc_lanes::<float64x2_t, 2, false>(m, k, n, a, lda, b, c) }
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
}
