//! The closed-form model of what each GEMM tier computes, column by
//! column: shared by `tests/gemm_bits.rs` (every hardware tier) and
//! `src/lanes.rs`'s unit tests (the generic body through portable lanes).

/// How a tier treats the columns of `C += A·B`.
#[derive(Clone, Copy, Debug)]
pub enum Tier {
    /// The scalar rows loop: `c += a·b + a'·b'` for each pair of `p`, then
    /// `c += a·b` for an odd last `p`, each product rounded on its own.
    Scalar,
    /// `width`-lane vectors. A vector column is `c ← fma(a_ip, b_pj, c)`
    /// for `p` ascending, from the stored `c`. Unless `masked`, a column
    /// past the last whole vector is `c + Σ a·b`, the sum unfused from 0.
    Vector { width: usize, masked: bool },
}

/// `C += A·B_σ` as `tier` computes it, all row-major (`A` `m × k`, `B`
/// `k × n`, `C` `m × n`), row `p` of `B_σ` being row `order[p]` of `b`.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    tier: Tier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    order: &[usize],
    c: &mut [f64],
) {
    let b = |p: usize, j: usize| b[order[p] * n + j];
    for i in 0..m {
        let ab = |p: usize, j: usize| a[i * k + p] * b(p, j);
        for j in 0..n {
            let cij = &mut c[i * n + j];
            match tier {
                Tier::Scalar => {
                    let mut p = 0;
                    while p + 1 < k {
                        *cij += ab(p, j) + ab(p + 1, j);
                        p += 2;
                    }
                    if p < k {
                        *cij += ab(p, j);
                    }
                }
                Tier::Vector { width, masked } if masked || j < n - n % width => {
                    for p in 0..k {
                        *cij = a[i * k + p].mul_add(b(p, j), *cij);
                    }
                }
                Tier::Vector { .. } => {
                    let mut s = 0.0;
                    for p in 0..k {
                        s += ab(p, j);
                    }
                    *cij += s;
                }
            }
        }
    }
}

/// `len` values in [−1, 1) from a fixed LCG.
pub fn pseudo(seed: u64, len: usize) -> Vec<f64> {
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

/// Row counts, inner dimensions and column counts that reach every tile
/// edge of every tier: 1–3 rows past a 2- or 4-row tile, K on both sides
/// of the scalar tier's 64-blocking and at the FMM's orders (K = 12, 72,
/// 120), and n over every remainder of a 32-column AVX-512 panel.
pub const MS: [usize; 7] = [1, 2, 3, 4, 5, 7, 33];
pub const KS: [usize; 8] = [1, 2, 6, 12, 65, 72, 120, 129];

pub fn ns() -> impl Iterator<Item = usize> {
    (1..=40).chain([63, 72, 120, 129])
}

/// `0..len` in the order of a fixed pseudo-random key: a permutation
/// with no structure a loop could lean on.
pub fn shuffled(seed: u64, len: usize) -> Vec<usize> {
    let key = pseudo(seed, len);
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_by(|&x, &y| key[x].total_cmp(&key[y]));
    order
}

/// Runs `got` and the model of `tier` on every shape above from the same
/// `C`, with `B`'s rows in their own order and shuffled, and panics at
/// the first element whose bits differ.
pub fn assert_matches_model(
    tier: Tier,
    what: &str,
    mut got: impl FnMut(usize, usize, usize, &[f64], &[f64], &[usize], &mut [f64]),
) {
    for m in MS {
        for k in KS {
            for n in ns() {
                let a = pseudo((m * 1000 + k) as u64, m * k);
                let b = pseudo((k * 1000 + n) as u64, k * n);
                for order in [(0..k).collect(), shuffled(k as u64, k)] {
                    let mut want = pseudo(n as u64, m * n);
                    let mut c = want.clone();
                    gemm(tier, m, k, n, &a, &b, &order, &mut want);
                    got(m, k, n, &a, &b, &order, &mut c);
                    for (e, (x, y)) in c.iter().zip(&want).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{what} ({tier:?}) m={m} k={k} n={n} order {:?}… at row {} col {}: \
                             {x} vs model {y}",
                            &order[..order.len().min(4)],
                            e / n,
                            e % n
                        );
                    }
                }
            }
        }
    }
}
