//! Every `Kernel::available()` GEMM tier equals a closed-form model of its
//! arithmetic, bit for bit (`gemm_model`): the scalar tier is its pair
//! sums; a vector column is one `fma` per `p`, ascending, straight into
//! the stored `C`; a column past a tier's last whole vector is, unless
//! the tier masks it, `C + Σ a·b` with the sum formed apart from `C`.
//! Where a tier keeps a column in a register, and in which order it
//! walks rows and panels, moves no bit; this file checks that.
//!
//! The model is also the contract ROADMAP item 2(c)'s offset stacking
//! needs. Stacking B offsets along the inner dimension keeps each output
//! row's summation order only where columns accumulate straight into C:
//! vector columns do, scalar-tail columns do not. At the FMM's
//! translation shapes, n = K ∈ {12, 72, 120}, every column is a vector
//! column on AVX2 (4 lanes) and NEON (2 lanes), and AVX-512 masks its
//! tail, so no tier produces a scalar-tail column there.

mod gemm_model;

use fmm_linalg::{gemm_acc_strided_with, gemm_acc_with, Kernel};
use gemm_model::{assert_matches_model, Tier};

fn tier(kernel: Kernel) -> Tier {
    match kernel {
        Kernel::Scalar => Tier::Scalar,
        Kernel::Avx2Fma => Tier::Vector {
            width: 4,
            masked: false,
        },
        Kernel::Avx512 => Tier::Vector {
            width: 8,
            masked: true,
        },
        Kernel::Neon => Tier::Vector {
            width: 2,
            masked: false,
        },
    }
}

#[test]
fn every_tier_equals_its_model() {
    for kernel in Kernel::available() {
        assert_matches_model(tier(kernel), kernel.name(), |m, k, n, a, b, c| {
            gemm_acc_with(kernel, m, k, n, a, b, c)
        });
    }
}

/// What lets the T2 sweep multiply source rows where they sit in a level
/// array: a product whose `A` rows lie `lda` apart, from any offset,
/// equals the dense product of the same rows gathered, bit for bit, on
/// every tier, at every K the FMM uses (orders 3, 5, 11, 14).
#[test]
fn strided_rows_equal_the_gathered_product() {
    for kernel in Kernel::available() {
        for k in [6, 12, 72, 120] {
            let b = gemm_model::pseudo(k as u64, k * k);
            for m in [1, 2, 3, 5, 8, 33] {
                for (lda, at) in [(k, 0), (2 * k, k), (3 * k + 1, 5)] {
                    let big = gemm_model::pseudo((m * 7 + lda) as u64, at + m * lda);
                    let gathered: Vec<f64> = (0..m)
                        .flat_map(|i| big[at + i * lda..][..k].iter().copied())
                        .collect();
                    let c0 = gemm_model::pseudo(3, m * k);
                    let (mut want, mut got) = (c0.clone(), c0);
                    gemm_acc_with(kernel, m, k, k, &gathered, &b, &mut want);
                    gemm_acc_strided_with(kernel, m, k, k, &big[at..], lda, &b, &mut got);
                    for (e, (x, y)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{kernel:?} K={k} m={m} lda={lda} at row {} col {}",
                            e / k,
                            e % k
                        );
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "A row stride below its row length")]
fn a_stride_below_k_is_refused() {
    let (a, b, mut c) = ([1.0; 12], [1.0; 9], [0.0; 9]);
    gemm_acc_strided_with(Kernel::detect(), 3, 3, 3, &a, 2, &b, &mut c);
}

#[test]
#[should_panic(expected = "A shape mismatch")]
fn a_short_of_its_last_strided_row_is_refused() {
    // Row 2 of a stride-5 A starts at 10 and needs 13 elements.
    let (a, b, mut c) = ([1.0; 12], [1.0; 9], [0.0; 9]);
    gemm_acc_strided_with(Kernel::detect(), 3, 3, 3, &a, 5, &b, &mut c);
}
