//! CI hook: the worker count under test comes from `FMM_SPMD_WORKERS`
//! (default 2), so the workflow can run the suite at several widths
//! without recompiling. Checks the backend-equivalence invariant end to
//! end at that width.

use fmm_core::{Executor, Fmm, FmmConfig};

fn env_workers() -> usize {
    std::env::var("FMM_SPMD_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

fn system(n: usize) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut state = 0xC1u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts: Vec<[f64; 3]> = (0..n).map(|_| [next(), next(), next()]).collect();
    let q: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
    (pts, q)
}

#[test]
fn bitwise_at_env_worker_count() {
    let workers = env_workers();
    fmm_spmd::install();
    let (pts, q) = system(2000);

    let cfg = |e| FmmConfig::order(3).depth(3).executor(e);
    let serial = Fmm::new(cfg(Executor::Serial)).unwrap();
    let spmd = Fmm::new(cfg(Executor::spmd(workers))).unwrap();
    let a = serial.evaluate_forces(&pts, &q).unwrap();
    let b = spmd.evaluate_forces(&pts, &q).unwrap();
    for (x, y) in a.potentials.iter().zip(&b.potentials) {
        assert_eq!(x.to_bits(), y.to_bits(), "workers={workers}");
    }
    for (fa, fb) in a.fields.unwrap().iter().zip(b.fields.unwrap().iter()) {
        for d in 0..3 {
            assert_eq!(fa[d].to_bits(), fb[d].to_bits(), "workers={workers}");
        }
    }
    assert_eq!(b.spmd.unwrap().workers, workers);
}

/// K = 120 at depth 3, where the serial sweep blocks T2 panels across
/// parent z-planes and drops out-of-domain rows while the workers sweep
/// the boxes they own: potentials and the traversal's exact flop counts
/// must agree.
#[test]
#[cfg_attr(debug_assertions, ignore = "order-14 translation sets: release only")]
fn order14_bitwise_at_env_worker_count() {
    let workers = env_workers();
    fmm_spmd::install();
    let (pts, q) = system(4096);
    let cfg = |e| FmmConfig::order(14).depth(3).executor(e);
    // One order-14 translation set (~140 MB) alive at a time.
    let a = Fmm::new(cfg(Executor::Serial))
        .unwrap()
        .evaluate(&pts, &q)
        .unwrap();
    let b = Fmm::new(cfg(Executor::spmd(workers)))
        .unwrap()
        .evaluate(&pts, &q)
        .unwrap();
    for (x, y) in a.potentials.iter().zip(&b.potentials) {
        assert_eq!(x.to_bits(), y.to_bits(), "workers={workers}");
    }
    assert_eq!(a.traversal_flops, b.traversal_flops);
    assert_eq!(b.spmd.unwrap().workers, workers);
}
