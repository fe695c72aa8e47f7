//! Scalar-parity property tests for every dispatched kernel family: on any
//! host, every `Kernel::available()` entry must agree with the scalar
//! reference on arbitrary shapes and data — GEMM and the pairwise
//! near-field kernels (f64 and f32).

use fmm_linalg::kernel::{gemm_acc_with, Kernel};
use fmm_linalg::pairwise;
use proptest::prelude::*;

fn values(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1.0f64..1.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `C += A·B` agrees with the scalar kernel for every family, on
    /// arbitrary shapes spanning all tile-edge paths.
    #[test]
    fn gemm_matches_scalar(m in 1usize..20, k in 1usize..40, n in 1usize..70, seed in 0u64..1000) {
        let pseudo = |s: u64, len: usize| -> Vec<f64> {
            let mut state = (seed ^ s).wrapping_mul(6364136223846793005).wrapping_add(1);
            (0..len).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            }).collect()
        };
        let a = pseudo(1, m * k);
        let b = pseudo(2, k * n);
        let c0 = pseudo(3, m * n);
        let mut want = c0.clone();
        gemm_acc_with(Kernel::Scalar, m, k, n, &a, &b, &mut want);
        for kernel in Kernel::available() {
            let mut c = c0.clone();
            gemm_acc_with(kernel, m, k, n, &a, &b, &mut c);
            for (x, y) in c.iter().zip(&want) {
                prop_assert!((x - y).abs() < 1e-11 * (1.0 + y.abs()),
                             "{:?} {}x{}x{}: {} vs {}", kernel, m, k, n, x, y);
            }
        }
    }

    /// The f64 pairwise exchange kernel agrees with scalar for every
    /// family: gathered total and scattered source accumulators.
    #[test]
    fn pairwise_exchange_matches_scalar(
        xs in values(37), ys in values(37), zs in values(37), qs in values(37),
        tq in -1.0f64..1.0,
    ) {
        // Keep the target clear of the sources so 1/r is well-conditioned.
        let (tx, ty, tz) = (2.5, -1.5, 2.0);
        let eps2 = 1e-9;
        let mut want_s = vec![0.0; xs.len()];
        let want = pairwise::exchange_with(
            Kernel::Scalar, tx, ty, tz, tq, eps2, &xs, &ys, &zs, &qs, &mut want_s);
        for kernel in Kernel::available() {
            let mut s = vec![0.0; xs.len()];
            let got = pairwise::exchange_with(
                kernel, tx, ty, tz, tq, eps2, &xs, &ys, &zs, &qs, &mut s);
            prop_assert!((got - want).abs() < 1e-12 * (1.0 + want.abs()), "{:?}", kernel);
            for (a, b) in s.iter().zip(&want_s) {
                prop_assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()), "{:?}", kernel);
            }
            let got_g = pairwise::gather_with(kernel, tx, ty, tz, eps2, &xs, &ys, &zs, &qs);
            prop_assert!((got_g - want).abs() < 1e-12 * (1.0 + want.abs()), "{:?} gather", kernel);
        }
    }

    /// The f32 pairwise kernels track the f64 scalar reference within the
    /// single-precision error budget (a few f32 ulps per term).
    #[test]
    fn pairwise_f32_tracks_f64(
        xs in values(29), ys in values(29), zs in values(29), qs in values(29),
    ) {
        let (tx, ty, tz) = (2.5, -1.5, 2.0);
        let want = pairwise::gather_with(Kernel::Scalar, tx, ty, tz, 0.0, &xs, &ys, &zs, &qs);
        let f32s = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        let (xs32, ys32, zs32, qs32) = (f32s(&xs), f32s(&ys), f32s(&zs), f32s(&qs));
        for kernel in Kernel::available() {
            let (got, _) = pairwise::force_gather_f32_with(
                kernel, tx as f32, ty as f32, tz as f32, 0.0, &xs32, &ys32, &zs32, &qs32);
            prop_assert!((got as f64 - want).abs() < 1e-5 * (1.0 + want.abs()),
                         "{:?}: {} vs {}", kernel, got, want);
        }
    }
}
