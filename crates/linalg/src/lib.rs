//! # fmm-linalg — dense linear algebra substrate
//!
//! The SC'96 paper expresses every translation operator of Anderson's
//! hierarchical N-body method as a K×K matrix acting on potential vectors,
//! and aggregates independent translations into (multiple-instance)
//! matrix–matrix products executed by the Connection Machine Scientific
//! Software Library (CMSSL). This crate is the stand-in for that substrate:
//! a small, allocation-conscious dense linear algebra kernel set — one
//! row-indexed GEMM and the near-field pairwise kernels — together with
//! flop accounting so the benchmark harness can report *arithmetic
//! efficiency* the way the paper's Table 3 does.
//!
//! Matrices are row-major `f64`. The kernels are written so that the
//! compiler can vectorize the inner loops (contiguous unit-stride access on
//! the innermost index, accumulation into local buffers), following the
//! Rust Performance Book guidance: no allocation and no bounds checks in
//! hot loops.

pub mod gemm;
pub mod kernel;
mod lanes;
pub mod matrix;
pub mod pairwise;

pub use gemm::{gemm_acc, gemm_naive};
pub use kernel::{gemm_acc_rows_with, gemm_acc_with, Kernel};
pub use matrix::Matrix;

/// Number of floating point operations for an `m×k` by `k×n` matrix product
/// (multiplies + adds counted separately, as the paper's Mflops rates do).
#[inline]
pub const fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_counts() {
        assert_eq!(gemm_flops(12, 12, 8), 2 * 12 * 12 * 8);
    }
}
