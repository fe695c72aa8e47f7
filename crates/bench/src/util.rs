//! Shared measurement helpers for the experiment binaries.

use std::time::Instant;

/// Wall-time a closure in seconds, returning (seconds, result).
pub fn time_s<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Best-of-`reps` wall time in seconds.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    assert!(reps >= 1);
    let (mut best, mut out) = time_s(&mut f);
    for _ in 1..reps {
        let (t, r) = time_s(&mut f);
        if t < best {
            best = t;
            out = r;
        }
    }
    (best, out)
}

/// Measure this host's peak dense GEMM rate (Gflop/s, single core) — the
/// denominator of the paper's "arithmetic efficiency" (achieved rate /
/// peak rate). Takes the max over several cache-resident shapes so the
/// probe measures the ALU, not the memory system.
pub fn peak_gemm_gflops() -> f64 {
    let mut best = 0.0f64;
    for n in [64usize, 96, 128, 192] {
        let a: Vec<f64> = (0..n * n).map(|i| (i % 97) as f64 * 0.013).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i % 89) as f64 * 0.017).collect();
        let mut c = vec![0.0; n * n];
        // Warm up, then repeat enough to amortize timer overhead.
        fmm_linalg::gemm_acc(n, n, n, &a, &b, &mut c);
        let reps = (1 << 24) / (n * n * n) + 1;
        let (t, _) = best_of(5, || {
            for _ in 0..reps {
                fmm_linalg::gemm_acc(n, n, n, &a, &b, &mut c);
            }
        });
        best = best.max(reps as f64 * fmm_linalg::gemm_flops(n, n, n) as f64 / t / 1e9);
    }
    best
}

/// Print what a translation-matrix build costs one core of this host next
/// to the CM-5E model's time for `model_matrices` on one VU (the paper's
/// "all-redundant" strategy, Figs. 8–9), for the paper's K = 12, 50, 72 and
/// this repo's headline K = 120. `build(rule, m)` builds the matrices and
/// returns its [`BuildCounts`]. The build runs on the thread pool, so the one-core
/// time is taken inside [`fmm_core::serially`]; the pool column is the
/// same build on every pool thread. Each is the best of three calls.
pub fn measured_build_table(
    model_matrices: usize,
    build: impl Fn(&fmm_core::SphereRule, usize) -> BuildCounts,
) {
    use crate::machine::replication::{precompute_cost, ReplicationStrategy};
    use fmm_core::translations::matrix_build_flops;
    let cost = crate::machine::cost::CostModel::cm5e();
    println!(
        "{:>4} {:>3} {:>6} {:>7} {:>8} {:>10} {:>12} {:>10} {:>12} {:>14} {:>12}",
        "K",
        "M",
        "built",
        "stored",
        "mirrored",
        "stored MB",
        "build",
        "ns/entry",
        "flops/entry",
        "CM-5E model",
        format!("pool ({})", rayon::current_num_threads())
    );
    for (d, m) in [(5usize, 3usize), (9, 5), (11, 8), (14, 8)] {
        let rule = fmm_core::SphereRule::for_order(d);
        let k = rule.len();
        let (t, counts) = fmm_core::serially(|| best_of(3, || build(&rule, m)));
        let (t_pool, _) = best_of(3, || build(&rule, m));
        let strategy = ReplicationStrategy::ComputeAllRedundant;
        let model = precompute_cost(model_matrices, k, m, 1, strategy, 0, &cost);
        println!(
            "{:>4} {:>3} {:>6} {:>7} {:>8} {:>10.2} {:>10.3}ms {:>10.2} {:>12} {:>12.1}ms {:>10.3}ms",
            k,
            m,
            counts.built,
            counts.stored,
            counts.mirrored,
            counts.bytes as f64 / 1e6,
            t * 1e3,
            t * 1e9 / (counts.built * k * k) as f64,
            matrix_build_flops(k, m) / (k * k) as u64,
            model.total_s() * 1e3,
            t_pool * 1e3
        );
    }
    println!(
        "(build and ns/entry on one core; ns/entry over the built matrices\n\
         only, the written-out mirror copies included in the time; stored:\n\
         matrices held, built or written out; mirrored: keys served through\n\
         a mirror of a stored matrix, which hold nothing; flops/entry is\n\
         `matrix_build_flops`, 7 per series term + 10: the build runs at\n\
         flops/entry ÷ ns/entry Gflop/s, bounded by one divide per term.\n\
         pool: the same build on every pool thread.)"
    );
}

/// What [`measured_build_table`] reports of one build: matrices evaluated
/// from the series, matrices held, keys served through a mirror of a held
/// matrix, and the bytes held.
pub struct BuildCounts {
    pub built: usize,
    pub stored: usize,
    pub mirrored: usize,
    pub bytes: usize,
}

/// RMS-relative error and implied digits.
pub fn rms_digits(approx: &[f64], reference: &[f64]) -> (f64, f64) {
    let st = fmm_core::relative_error_stats(approx, reference);
    (st.rms_rel, st.digits())
}

/// Pretty separator line for experiment output.
pub fn header(title: &str) {
    println!("\n=== {} ===", title);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_return_results() {
        let (t, v) = time_s(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
        let (t2, v2) = best_of(3, || 7);
        assert_eq!(v2, 7);
        assert!(t2 >= 0.0);
    }

    #[test]
    fn peak_is_positive() {
        assert!(peak_gemm_gflops() > 0.1);
    }
}
