//! GEMV / GEMM entry points.
//!
//! The hot path of the hierarchy traversal is `C += A * B` where `A` is a
//! `K × K` translation matrix and `B` a gathered `K × n` panel of potential
//! vectors (K is 12–120, n is the number of aggregated boxes, often
//! hundreds to thousands). `gemm_acc` dispatches to the microkernels in
//! [`crate::kernel`]: the widest vector tier the CPU supports (`lanes.rs`
//! tabulates them), the blocked scalar loop where it supports none. The
//! GEMV is a plain loop; the traversal's per-box path has its own.

use crate::kernel::{assert_shapes, gemm_acc_with, Kernel};

/// `y = A * x` where `A` is row-major `m × k`. Panics unless `a`, `x` and
/// `y` hold `m × k`, `k` and `m` elements.
pub fn gemv(m: usize, k: usize, a: &[f64], x: &[f64], y: &mut [f64]) {
    y.fill(0.0);
    gemv_acc(m, k, a, x, y);
}

/// `y += A * x` where `A` is row-major `m × k`. Panics as [`gemv`].
pub fn gemv_acc(m: usize, k: usize, a: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(Some(a.len()), m.checked_mul(k), "A shape mismatch");
    assert_eq!(x.len(), k, "x length mismatch");
    assert_eq!(y.len(), m, "y length mismatch");
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (aij, xj) in a[i * k..(i + 1) * k].iter().zip(x) {
            acc += aij * xj;
        }
        *yi += acc;
    }
}

/// `C += A * B`, all row-major; `A` is `m × k`, `B` is `k × n`, `C` is `m × n`.
///
/// This is the workhorse behind aggregated translations.
pub fn gemm_acc(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    gemm_acc_with(Kernel::detect(), m, k, n, a, b, c);
}

/// Reference triple-loop GEMM (`C += A * B`) used to validate `gemm_acc`.
pub fn gemm_naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_shapes(m, k, n, a, b, c);
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
    fn gemv_matches_manual() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let x = vec![1.0, 0.5, -1.0];
        let mut y = vec![0.0; 2];
        gemv(2, 3, &a, &x, &mut y);
        assert!((y[0] - (1.0 + 1.0 - 3.0)).abs() < 1e-15);
        assert!((y[1] - (4.0 + 2.5 - 6.0)).abs() < 1e-15);
    }

    #[test]
    fn gemv_acc_accumulates() {
        let a = vec![2.0]; // 1x1
        let x = vec![3.0];
        let mut y = vec![10.0];
        gemv_acc(1, 1, &a, &x, &mut y);
        assert_eq!(y[0], 16.0);
    }

    // A short operand must panic in release builds too: at k = 64 the
    // vector GEMVs this loop replaced read past a 3-element `x`, and the
    // scalar one returned the truncated dot product.
    #[test]
    #[should_panic(expected = "x length mismatch")]
    fn gemv_rejects_a_short_x() {
        let (a, mut y) = (vec![1.0; 64], [0.0]);
        gemv(1, 64, &a, &[1.0; 3], &mut y);
    }

    #[test]
    #[should_panic(expected = "A shape mismatch")]
    fn gemv_rejects_a_short_a() {
        let mut y = [0.0; 2];
        gemv_acc(2, 64, &[1.0; 64], &[1.0; 64], &mut y);
    }

    #[test]
    #[should_panic(expected = "y length mismatch")]
    fn gemv_rejects_a_short_y() {
        let mut y = [0.0; 1];
        gemv(2, 64, &[1.0; 128], &[1.0; 64], &mut y);
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
            gemv(m, k, &a, &col, &mut y);
            for i in 0..m {
                assert!((c[i * n + j] - y[i]).abs() < 1e-12);
            }
        }
    }
}
