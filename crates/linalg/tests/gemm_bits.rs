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

use fmm_linalg::{gemm_acc_with, Kernel};
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
