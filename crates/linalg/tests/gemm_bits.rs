//! Every `Kernel::available()` GEMM tier equals a closed-form model of its
//! arithmetic, bit for bit (`gemm_model`): the scalar tier is its pair
//! sums; a vector column is one `fma` per `p`, ascending, straight into
//! the stored `C`; a column past a tier's last whole vector is, unless
//! the tier masks it, `C + Σ a·b` with the sum formed apart from `C`.
//! Where a tier keeps a column in a register, and in which order it
//! walks rows and panels, moves no bit; this file checks that.
//!
//! Every tier reads row `p` of `B` from its offset `b_rows[p]` (the
//! model's `b(p, j)` with `b_rows[p] = order[p]·n`), so a product through a mirror's point involution σ — `B`'s
//! rows read in σ order into an accumulator held in σ's point order — is
//! the product with the conjugate `B[σa][σb]` written out, bit for bit,
//! wherever σ pairs columns of one kind (every column on the scalar and
//! AVX-512 tiers): `sigma_order_product_is_the_conjugate_product`.
//!
//! The model is also the contract ROADMAP item 2(c)'s offset stacking
//! needs. Stacking B offsets along the inner dimension keeps each output
//! row's summation order only where columns accumulate straight into C:
//! vector columns do, scalar-tail columns do not. At the FMM's
//! translation shapes, n = K ∈ {12, 72, 120}, every column is a vector
//! column on AVX2 (4 lanes) and NEON (2 lanes), and AVX-512 masks its
//! tail, so no tier produces a scalar-tail column there.

mod gemm_model;

use fmm_linalg::{gemm_acc_rows_with, gemm_acc_with, Kernel};
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

/// The dense wrapper where `B`'s rows are in their own order, the
/// row-indexed entry point over dense rows where they are shuffled.
#[test]
fn every_tier_equals_its_model() {
    for kernel in Kernel::available() {
        assert_matches_model(tier(kernel), kernel.name(), |m, k, n, a, b, order, c| {
            if order.iter().copied().eq(0..k) {
                gemm_acc_with(kernel, m, k, n, a, b, c)
            } else {
                let rows: Vec<_> = (0..m).map(|i| (i * k, i * n)).collect();
                gemm_acc_rows_with(kernel, k, n, a, &rows, b, &row_offsets(order, n), c)
            }
        });
    }
}

/// The element offsets of `B`'s rows in `order`, `n` to a row.
fn row_offsets(order: &[usize], n: usize) -> Vec<usize> {
    order.iter().map(|&p| p * n).collect()
}

/// An involution of `0..k` with no structure a loop could lean on: the
/// shuffled points paired off, every fifth pair left fixed.
fn involution(seed: u64, k: usize) -> Vec<usize> {
    let at = gemm_model::shuffled(seed, k);
    let mut sigma: Vec<usize> = (0..k).collect();
    for (i, pair) in at.chunks_exact(2).enumerate() {
        if i % 5 != 4 {
            sigma.swap(pair[0], pair[1]);
        }
    }
    sigma
}

/// What lets the translation set store one matrix per mirror orbit: on
/// every tier, at every K the FMM's rules have (orders 1, 3, 5, 6, 8, 11,
/// 14, 16), `C += A · B_σ` with `B_σ` the stored `B`'s rows read in σ
/// order, into an accumulator holding `C` in σ's point order (`D[j] =
/// C[σj]`), leaves `D[j]` with the bits that the product with the
/// materialised conjugate `B'[a][b] = B[σa][σb]` leaves in `C[σj]`. Column
/// `j` of the one and column `σj` of the other run one chain of the same
/// products, so they agree wherever the tier treats both columns alike:
/// everywhere on the scalar and AVX-512 tiers, and on AVX2 (NEON) unless
/// σ pairs a whole-vector column with one of the last `K mod 4` (`K mod
/// 2`), which that tier sums apart from `C` — there only those differ.
#[test]
fn sigma_order_product_is_the_conjugate_product() {
    for kernel in Kernel::available() {
        let tail = match tier(kernel) {
            Tier::Vector {
                width,
                masked: false,
            } => width,
            _ => 1,
        };
        for k in [4, 6, 12, 28, 45, 72, 120, 153] {
            let sigma = involution(k as u64, k);
            let b = gemm_model::pseudo(k as u64 + 1, k * k);
            let conjugate: Vec<f64> = sigma
                .iter()
                .flat_map(|&sa| sigma.iter().map(move |&sb| (sa, sb)))
                .map(|(sa, sb)| b[sa * k + sb])
                .collect();
            let tail_column = |j: usize| j >= k - k % tail;
            for m in [1, 3, 8, 33] {
                let a = gemm_model::pseudo((m * k) as u64, m * k);
                let c0 = gemm_model::pseudo(m as u64 + 7, m * k);
                let mut want = c0.clone();
                gemm_acc_with(kernel, m, k, k, &a, &conjugate, &mut want);
                let mut got: Vec<f64> = c0
                    .chunks(k)
                    .flat_map(|row| sigma.iter().map(|&s| row[s]))
                    .collect();
                let rows: Vec<_> = (0..m).map(|i| (i * k, i * k)).collect();
                let b_rows = row_offsets(&sigma, k);
                gemm_acc_rows_with(kernel, k, k, &a, &rows, &b, &b_rows, &mut got);
                for (i, (d, c)) in got.chunks(k).zip(want.chunks(k)).enumerate() {
                    for (j, &s) in sigma.iter().enumerate() {
                        if tail_column(j) != tail_column(s) {
                            continue;
                        }
                        assert_eq!(
                            d[j].to_bits(),
                            c[s].to_bits(),
                            "{kernel:?} K={k} m={m} row {i}: D[{j}] against C[σ{j} = {s}]"
                        );
                    }
                }
            }
        }
    }
}

/// Where a row-indexed case puts its `m` rows of `A` (`k` long) and `C`
/// (`n` long): `(A offsets, A length, C offsets, C length)`.
type Layout = (Vec<usize>, usize, Vec<usize>, usize);

/// Shuffled slots, rows interleaved with rows the call must leave alone
/// (A's and C's slots of one row apart), and one stride from an offset.
fn layouts(m: usize, k: usize, n: usize) -> [Layout; 3] {
    // m of 2m slots in the order of a fixed pseudo-random key.
    let slots = 2 * m;
    let shuffled = |len: usize| -> Vec<usize> {
        let key = gemm_model::pseudo(slots as u64, slots);
        let mut at: Vec<usize> = (0..slots).collect();
        at.sort_by(|&x, &y| key[x].total_cmp(&key[y]));
        at.into_iter().take(m).map(|s| s * len).collect()
    };
    let interleaved = |len: usize, from: usize| (0..m).map(|i| (2 * i + from) * len).collect();
    let strided = |len: usize| (0..m).map(|i| 5 + i * (3 * len + 1)).collect();
    [
        (shuffled(k), slots * k, shuffled(n), slots * n),
        (interleaved(k, 1), slots * k, interleaved(n, 0), slots * n),
        (
            strided(k),
            5 + m * (3 * k + 1),
            strided(n),
            5 + m * (3 * n + 1),
        ),
    ]
}

/// What the T2 sweep multiplies where it lies: a row-indexed product
/// equals the dense product of the same rows gathered, bit for bit, on
/// every tier, at the translation shapes (n = K ∈ {6, 12, 72, 120}, orders
/// 3, 5, 11, 14) and one inner dimension off them, on every tile edge up
/// to a 33-row panel, and writes no element of `C` outside its rows.
#[test]
fn indexed_rows_equal_the_gathered_product() {
    for kernel in Kernel::available() {
        for n in [6, 12, 72, 120] {
            for k in [7, n] {
                let b = gemm_model::pseudo((k + n) as u64, k * n);
                for m in (1..=9).chain([33]) {
                    for (case, (a_at, a_len, c_at, c_len)) in
                        layouts(m, k, n).into_iter().enumerate()
                    {
                        let a = gemm_model::pseudo((m * 7 + case) as u64, a_len);
                        let c0 = gemm_model::pseudo(3 + case as u64, c_len);
                        let gathered: Vec<f64> =
                            a_at.iter().flat_map(|&o| a[o..][..k].to_vec()).collect();
                        let mut want: Vec<f64> =
                            c_at.iter().flat_map(|&o| c0[o..][..n].to_vec()).collect();
                        gemm_acc_with(kernel, m, k, n, &gathered, &b, &mut want);
                        let rows: Vec<(usize, usize)> =
                            a_at.iter().copied().zip(c_at.iter().copied()).collect();
                        let mut got = c0.clone();
                        let b_rows: Vec<usize> = (0..k).map(|p| p * n).collect();
                        gemm_acc_rows_with(kernel, k, n, &a, &rows, &b, &b_rows, &mut got);
                        let mut expect = c0;
                        for (&o, row) in c_at.iter().zip(want.chunks(n)) {
                            expect[o..][..n].copy_from_slice(row);
                        }
                        for (e, (x, y)) in got.iter().zip(&expect).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{kernel:?} n={n} k={k} m={m} layout {case} at C element {e}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "A row offset past the end of A")]
fn an_a_row_past_the_end_is_refused() {
    // A row of 3 at offset 10 needs 13 elements.
    let (a, b, mut c) = ([1.0; 12], [1.0; 9], [0.0; 9]);
    gemm_acc_rows_with(
        Kernel::detect(),
        3,
        3,
        &a,
        &[(0, 0), (10, 3)],
        &b,
        &[0, 3, 6],
        &mut c,
    );
}

#[test]
#[should_panic(expected = "C row offset past the end of C")]
fn a_c_row_past_the_end_is_refused() {
    let (a, b, mut c) = ([1.0; 12], [1.0; 9], [0.0; 9]);
    gemm_acc_rows_with(
        Kernel::detect(),
        3,
        3,
        &a,
        &[(0, 7)],
        &b,
        &[0, 3, 6],
        &mut c,
    );
}

#[test]
#[should_panic(expected = "A row offset past the end of A")]
fn an_overflowing_row_offset_is_refused() {
    let (a, b, mut c) = ([1.0; 12], [1.0; 9], [0.0; 9]);
    gemm_acc_rows_with(
        Kernel::detect(),
        3,
        3,
        &a,
        &[(usize::MAX, 0)],
        &b,
        &[0, 3, 6],
        &mut c,
    );
}

#[test]
#[should_panic(expected = "B row offset past the end of B")]
fn a_b_row_past_the_end_is_refused() {
    // A row of 3 at offset 7 needs 10 elements of B's 9.
    let (a, b, mut c) = ([1.0; 12], [1.0; 9], [0.0; 9]);
    gemm_acc_rows_with(
        Kernel::detect(),
        3,
        3,
        &a,
        &[(0, 0)],
        &b,
        &[0, 7, 3],
        &mut c,
    );
}

#[test]
#[should_panic(expected = "B row count mismatch")]
fn a_short_b_row_list_is_refused() {
    let (a, b, mut c) = ([1.0; 12], [1.0; 9], [0.0; 9]);
    gemm_acc_rows_with(Kernel::detect(), 3, 3, &a, &[(0, 0)], &b, &[0, 3], &mut c);
}
