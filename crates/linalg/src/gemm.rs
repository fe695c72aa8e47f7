//! GEMM entry points.
//!
//! The hot path of the hierarchy traversal is `C += A * B` where `A` is a
//! `K × K` translation matrix and `B` a gathered `K × n` panel of potential
//! vectors (K is 12–120, n is the number of aggregated boxes, often
//! hundreds to thousands). `gemm_acc` is the dense call of the one
//! row-indexed GEMM in [`crate::kernel`] that the traversal runs: the
//! widest vector tier the CPU supports (`lanes.rs` tabulates them), the
//! scalar rows loop where it supports none.

use crate::kernel::{assert_dense, gemm_acc_with, Kernel};

/// `C += A * B`, all row-major; `A` is `m × k`, `B` is `k × n`, `C` is `m × n`.
///
/// This is the workhorse behind aggregated translations.
pub fn gemm_acc(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    gemm_acc_with(Kernel::detect(), m, k, n, a, b, c);
}

/// Reference triple-loop GEMM (`C += A * B`) used to validate `gemm_acc`.
pub fn gemm_naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_dense(m, k, n, a, b, c);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: u64, len: usize) -> Vec<f64> {
        // Small deterministic LCG so the tests need no external crates.
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
    fn gemm_matches_naive_various_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (12, 12, 8),
            (72, 72, 4),
            (13, 129, 33),
        ] {
            let a = pseudo(1 + m as u64, m * k);
            let b = pseudo(2 + n as u64, k * n);
            let mut c1 = pseudo(3, m * n);
            let mut c2 = c1.clone();
            gemm_acc(m, k, n, &a, &b, &mut c1);
            gemm_naive(m, k, n, &a, &b, &mut c2);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-12, "mismatch for {}x{}x{}", m, k, n);
            }
        }
    }

    #[test]
    fn gemm_vs_repeated_gemv() {
        let (m, k, n) = (9, 9, 17);
        let a = pseudo(11, m * k);
        let b = pseudo(13, k * n);
        let mut c = vec![0.0; m * n];
        gemm_acc(m, k, n, &a, &b, &mut c);
        // Column j of C should equal A * (column j of B).
        for j in 0..n {
            let col: Vec<f64> = (0..k).map(|p| b[p * n + j]).collect();
            let mut y = vec![0.0; m];
            gemm_naive(m, k, 1, &a, &col, &mut y);
            for i in 0..m {
                assert!((c[i * n + j] - y[i]).abs() < 1e-12);
            }
        }
    }
}
