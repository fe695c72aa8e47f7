//! Property-based tests of physical and structural invariants.

use anderson_fmm::fmm_core::{Fmm, FmmConfig};
use anderson_fmm::fmm_linalg::{gemm_acc_with, gemm_naive, Kernel};
use anderson_fmm::fmm_tree::{bin_particles, morton, BoxCoord, Domain};
use proptest::prelude::*;

fn small_system() -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<f64>)> {
    // 30–120 particles in the unit cube with charges in [−2, 2].
    (30usize..120).prop_flat_map(|n| {
        (
            proptest::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y, z)| [x, y, z]),
                n,
            ),
            proptest::collection::vec(-2.0f64..2.0, n),
        )
    })
}

fn fmm() -> Fmm {
    Fmm::new(FmmConfig::order(3).depth(2).sequential()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rigid translation of the whole system (and its domain) leaves every
    /// potential unchanged — the method has no preferred origin.
    #[test]
    fn translation_invariance((pts, q) in small_system(),
                              shift in (-5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0)) {
        let f = fmm();
        let d1 = Domain::unit();
        let p1 = f.evaluate_in(&pts, &q, d1).unwrap().potentials;
        let shifted: Vec<[f64;3]> = pts.iter()
            .map(|p| [p[0] + shift.0, p[1] + shift.1, p[2] + shift.2])
            .collect();
        let d2 = Domain { min: [shift.0, shift.1, shift.2], size: 1.0 };
        let p2 = f.evaluate_in(&shifted, &q, d2).unwrap().potentials;
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()),
                         "{} vs {}", a, b);
        }
    }

    /// Scaling all lengths by λ scales potentials by 1/λ (Coulomb kernel
    /// homogeneity); translation matrices are scale-free.
    #[test]
    fn scaling_covariance((pts, q) in small_system(), lambda in 0.2f64..5.0) {
        let f = fmm();
        let p1 = f.evaluate_in(&pts, &q, Domain::unit()).unwrap().potentials;
        let scaled: Vec<[f64;3]> = pts.iter()
            .map(|p| [p[0] * lambda, p[1] * lambda, p[2] * lambda])
            .collect();
        let d2 = Domain { min: [0.0;3], size: lambda };
        let p2 = f.evaluate_in(&scaled, &q, d2).unwrap().potentials;
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!((a / lambda - b).abs() < 1e-9 * (1.0 + b.abs()),
                         "λ={}: {} vs {}", lambda, a / lambda, b);
        }
    }

    /// The result must not depend on the order particles are supplied in.
    #[test]
    fn permutation_invariance((pts, q) in small_system(), seed in 0u64..1000) {
        let f = fmm();
        let p1 = f.evaluate_in(&pts, &q, Domain::unit()).unwrap().potentials;
        // A deterministic shuffle from the seed.
        let n = pts.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_add(1);
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s as usize) % (i + 1));
        }
        let pts2: Vec<[f64;3]> = order.iter().map(|&i| pts[i]).collect();
        let q2: Vec<f64> = order.iter().map(|&i| q[i]).collect();
        let p2 = f.evaluate_in(&pts2, &q2, Domain::unit()).unwrap().potentials;
        for (pos, &i) in order.iter().enumerate() {
            prop_assert!((p1[i] - p2[pos]).abs() < 1e-10 * (1.0 + p1[i].abs()));
        }
    }

    /// Superposition: potentials are linear in the charges.
    #[test]
    fn superposition((pts, q) in small_system(), alpha in -3.0f64..3.0) {
        let f = fmm();
        let d = Domain::unit();
        let p1 = f.evaluate_in(&pts, &q, d).unwrap().potentials;
        let q2: Vec<f64> = q.iter().map(|v| alpha * v).collect();
        let p2 = f.evaluate_in(&pts, &q2, d).unwrap().potentials;
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!((alpha * a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    /// Total force on an isolated system vanishes (Newton's third law
    /// carries through far field + near field).
    #[test]
    fn momentum_conservation((pts, q) in small_system()) {
        let f = Fmm::new(FmmConfig::order(7).depth(2).sequential()).unwrap();
        let out = f.evaluate_in_forces_helper(&pts, &q);
        let fields = out;
        let mut total = [0.0f64; 3];
        let mut scale = 0.0f64;
        for (fi, qi) in fields.iter().zip(&q) {
            for (ta, fa) in total.iter_mut().zip(fi) {
                *ta += qi * fa;
                scale = scale.max((qi * fa).abs());
            }
        }
        for (a, ta) in total.iter().enumerate() {
            // The far-field part is approximate, so the cancellation is to
            // method accuracy, not machine precision.
            prop_assert!(ta.abs() < 2e-2 * scale.max(1e-9) * (pts.len() as f64).sqrt(),
                         "axis {}: total {} (scale {})", a, ta, scale);
        }
    }

    /// Morton encode/decode round-trips for arbitrary 16-bit coordinates.
    #[test]
    fn morton_round_trip(x in 0u32..65536, y in 0u32..65536, z in 0u32..65536) {
        let code = morton::morton_encode(x, y, z);
        prop_assert_eq!(morton::morton_decode(code), (x, y, z));
    }

    /// Binning is a permutation and every particle ends up in its box.
    #[test]
    fn binning_is_valid_partition(pts in proptest::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y, z)| [x, y, z]), 1..200),
        level in 1u32..4) {
        let d = Domain::unit();
        let ids: Vec<u32> = pts.iter().map(|&p| d.locate(p, level).index() as u32).collect();
        let n_boxes = 1usize << (3 * level);
        let b = bin_particles(&ids, n_boxes);
        let mut seen = vec![false; pts.len()];
        for bx in 0..n_boxes {
            for s in b.range(bx) {
                let orig = b.perm[s] as usize;
                prop_assert!(!seen[orig]);
                seen[orig] = true;
                prop_assert_eq!(ids[orig] as usize, bx);
            }
        }
        prop_assert!(seen.iter().all(|&v| v));
    }

    /// Box parent/child/octant arithmetic round-trips for random coords.
    #[test]
    fn box_coord_round_trip(level in 1u32..8, idx in 0usize..4096) {
        let n = 1usize << (3 * level);
        let idx = idx % n;
        let b = BoxCoord::from_index(level, idx);
        prop_assert_eq!(b.index(), idx);
        let p = b.parent().unwrap();
        prop_assert_eq!(p.child(b.octant()), b);
    }

    /// The dispatched GEMM microkernel (AVX2+FMA where available) agrees
    /// with the naive triple loop on awkward panel shapes: K spans the
    /// paper's operating points (12–120), panel rows cover all the edge
    /// cases of the register tiling (odd rows, sub-tile column tails).
    #[test]
    fn simd_gemm_matches_naive_on_odd_shapes(
        k in 12usize..=120,
        n in 1usize..513,
        seed in 0u64..1000,
    ) {
        let a = pseudo_f64(seed, n * k);
        let b = pseudo_f64(seed ^ 0x9e37, k * k);
        let mut c1 = pseudo_f64(seed ^ 0x7f4a, n * k);
        let mut c2 = c1.clone();
        gemm_acc_with(Kernel::detect(), n, k, k, &a, &b, &mut c1);
        gemm_naive(n, k, k, &a, &b, &mut c2);
        let scale = (k as f64).sqrt();
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - y).abs() < 1e-12 * scale * (1.0 + y.abs()),
                         "K={} n={}: {} vs {}", k, n, x, y);
        }
    }

    /// Repeated evaluations of the same system are bitwise reproducible
    /// and reuse the cached traversal plan.
    #[test]
    fn repeated_evaluate_deterministic((pts, q) in small_system()) {
        let f = fmm();
        let d = Domain::unit();
        let p1 = f.evaluate_in(&pts, &q, d).unwrap().potentials;
        prop_assert_eq!(f.plan_builds(), 1);
        let p2 = f.evaluate_in(&pts, &q, d).unwrap().potentials;
        prop_assert_eq!(f.plan_builds(), 1);
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Deterministic pseudo-random f64s in [−1, 1] for the kernel tests.
fn pseudo_f64(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99991);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// Helper trait-ish shim: evaluate forces and unwrap fields (kept out of
/// the proptest macro for readability).
trait ForcesHelper {
    fn evaluate_in_forces_helper(&self, pts: &[[f64; 3]], q: &[f64]) -> Vec<[f64; 3]>;
}

impl ForcesHelper for Fmm {
    fn evaluate_in_forces_helper(&self, pts: &[[f64; 3]], q: &[f64]) -> Vec<[f64; 3]> {
        self.evaluate_forces(pts, q).unwrap().fields.unwrap()
    }
}
