//! The tentpole invariant: `Executor::spmd(p)` is **bitwise identical** to
//! `Executor::Serial` — same potentials, same fields, same near-field
//! counters — for every worker count. Distribution moves data, never bits.

use fmm_core::{Balance, Executor, Fmm, FmmConfig};

fn pseudo_system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let pts = (0..n).map(|_| [next(), next(), next()]).collect();
    let q = (0..n).map(|_| next() * 2.0 - 1.0).collect();
    (pts, q)
}

fn config(depth: u32, executor: Executor) -> FmmConfig {
    FmmConfig::order(3).depth(depth).executor(executor)
}

fn assert_bitwise(depth: u32, n: usize, workers: &[usize], with_fields: bool) {
    assert_bitwise_bal(depth, n, workers, with_fields, Balance::Uniform);
}

fn assert_bitwise_bal(depth: u32, n: usize, workers: &[usize], with_fields: bool, bal: Balance) {
    let (pts, q) = pseudo_system(n, 0x5eed ^ (depth as u64) << 8 ^ n as u64);
    assert_system_bitwise(depth, &pts, &q, workers, with_fields, bal);
}

fn assert_system_bitwise(
    depth: u32,
    pts: &[[f64; 3]],
    q: &[f64],
    workers: &[usize],
    with_fields: bool,
    bal: Balance,
) {
    fmm_spmd::install();
    let serial = Fmm::new(config(depth, Executor::Serial)).unwrap();
    let reference = if with_fields {
        serial.evaluate_forces(pts, q).unwrap()
    } else {
        serial.evaluate(pts, q).unwrap()
    };
    let fields = reference.fields.iter().flatten().flatten();
    let mut values = reference.potentials.iter().chain(fields);
    assert!(values.all(|v| v.is_finite()), "serial is not finite");
    for &p in workers {
        let fmm = Fmm::new(config(depth, Executor::spmd(p)).balance(bal)).unwrap();
        let out = if with_fields {
            fmm.evaluate_forces(pts, q).unwrap()
        } else {
            fmm.evaluate(pts, q).unwrap()
        };
        for (i, (a, b)) in reference.potentials.iter().zip(&out.potentials).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "potential {i} differs at p={p}, depth={depth}: {a:e} vs {b:e}"
            );
        }
        match (&reference.fields, &out.fields) {
            (None, None) => {}
            (Some(fa), Some(fb)) => {
                for (i, (a, b)) in fa.iter().zip(fb).enumerate() {
                    for d in 0..3 {
                        assert_eq!(
                            a[d].to_bits(),
                            b[d].to_bits(),
                            "field {i}[{d}] differs at p={p}, depth={depth}"
                        );
                    }
                }
            }
            _ => panic!("fields presence mismatch"),
        }
        assert_eq!(
            reference.near_stats.pair_interactions, out.near_stats.pair_interactions,
            "near pair count differs at p={p}, depth={depth}"
        );
        assert_eq!(
            reference.near_stats.box_pairs, out.near_stats.box_pairs,
            "near box-pair count differs at p={p}, depth={depth}"
        );
        assert_eq!(reference.near_stats.flops, out.near_stats.flops);
        assert_eq!(reference.traversal_flops, out.traversal_flops);
        let rep = out.spmd.expect("spmd run attaches a report");
        assert_eq!(rep.workers, p);
        assert_eq!(rep.worker_busy_ns.len(), p);
        assert_eq!(rep.worker_flops.len(), p);
        match bal {
            Balance::Uniform => assert!(rep.partition.is_none()),
            Balance::CostWeighted => {
                let splits = rep
                    .partition
                    .expect("cost-weighted run records its partition");
                assert_eq!(splits.len(), p + 1);
            }
        }
    }
}

#[test]
fn potentials_depth2_all_worker_counts() {
    assert_bitwise(2, 700, &[1, 2, 4, 8], false);
}

#[test]
fn potentials_depth3_all_worker_counts() {
    assert_bitwise(3, 3000, &[1, 2, 4, 8], false);
}

#[test]
fn potentials_depth4_sparse_boxes() {
    // Fewer particles than leaf boxes: many empty boxes travel and halo
    // cells are empty — the degenerate paths must still match.
    assert_bitwise(4, 900, &[2, 8], false);
}

#[test]
fn forces_depth2_all_worker_counts() {
    assert_bitwise(2, 600, &[1, 2, 4, 8], true);
}

#[test]
fn forces_depth3_all_worker_counts() {
    assert_bitwise(3, 2500, &[1, 2, 4, 8], true);
}

#[test]
fn potentials_depth3_embedded_levels_p64() {
    // p = 64 on a [4,4,4] grid embeds levels 1 (and forces the gather /
    // broadcast transition at level 2↔3 for depth 3).
    assert_bitwise(3, 2000, &[64], false);
}

#[test]
fn potentials_cost_weighted_depth2_all_worker_counts() {
    assert_bitwise_bal(2, 700, &[1, 2, 4, 8], false, Balance::CostWeighted);
}

#[test]
fn potentials_cost_weighted_depth3_all_worker_counts() {
    assert_bitwise_bal(3, 3000, &[1, 2, 4, 8], false, Balance::CostWeighted);
}

#[test]
fn potentials_cost_weighted_depth4_sparse_boxes() {
    assert_bitwise_bal(4, 900, &[2, 8], false, Balance::CostWeighted);
}

#[test]
fn forces_cost_weighted_depth2_all_worker_counts() {
    assert_bitwise_bal(2, 600, &[1, 2, 4, 8], true, Balance::CostWeighted);
}

#[test]
fn forces_cost_weighted_depth3_all_worker_counts() {
    assert_bitwise_bal(3, 2500, &[1, 2, 4, 8], true, Balance::CostWeighted);
}

#[test]
fn spmd_near_field_survives_degenerate_inputs() {
    // Inputs that leave ranks, slots and halo cells empty: the cell store
    // must move nothing as faithfully as it moves particles.
    let (unit, _) = pseudo_system(400, 0xdead);
    let shrunk = |lo: f64, side: f64| unit.iter().map(move |p| p.map(|c| lo + side * c));
    let corners = [[0.0; 3], [1.0; 3]];
    let cases: [(&str, Vec<[f64; 3]>); 4] = [
        ("N = 1", vec![[0.3, 0.6, 0.2]]),
        (
            "N = 3 < p",
            vec![[0.1, 0.1, 0.1], [0.9, 0.2, 0.4], [0.5, 0.5, 0.95]],
        ),
        (
            "one leaf and the two domain corners",
            shrunk(0.51, 0.1).chain(corners).collect(),
        ),
        (
            // A core of scale 0.01 inside one octant; most ranks own
            // nothing but an empty corner of the domain.
            "a cluster with empty ranks",
            shrunk(0.2, 0.01)
                .take(300)
                .chain(shrunk(0.15, 0.2).skip(300))
                .chain(corners)
                .collect(),
        ),
    ];
    for (what, pts) in &cases {
        let q: Vec<f64> = (0..pts.len()).map(|i| 1.0 - 0.3 * (i % 5) as f64).collect();
        for with_fields in [false, true] {
            for bal in [Balance::Uniform, Balance::CostWeighted] {
                eprintln!("{what}, forces: {with_fields}, {bal:?}");
                assert_system_bitwise(3, pts, &q, &[2, 8], with_fields, bal);
            }
        }
    }
}

#[test]
fn oversubscribed_workers_is_an_error() {
    fmm_spmd::install();
    let (pts, q) = pseudo_system(256, 7);
    // depth 2 → 4 boxes per axis; 512 workers → dims [8,8,8] > 4.
    let fmm = Fmm::new(config(2, Executor::spmd(512))).unwrap();
    let err = fmm.evaluate(&pts, &q).unwrap_err();
    assert!(matches!(err, fmm_core::FmmError::InvalidConfig(_)));
}

#[test]
fn forced_kernels_bitwise_across_all_executors() {
    // Satellite invariant of the kernel-dispatch work: for a *fixed*
    // microkernel family, Serial, Rayon and Spmd produce bit-identical
    // results — the family is recorded in the traversal plan and every
    // executor dispatches through it, so distribution and threading move
    // data, never bits. (Different families legitimately differ in
    // rounding; identical families must not.)
    fmm_spmd::install();
    let (pts, q) = pseudo_system(2200, 0xbeef);
    for kernel in fmm_core::Kernel::available() {
        let mk = |ex: Executor, bal: Balance| {
            Fmm::new(config(3, ex).kernel(kernel).balance(bal))
                .unwrap()
                .evaluate_forces(&pts, &q)
                .unwrap()
        };
        let serial = mk(Executor::Serial, Balance::Uniform);
        let mut others = vec![mk(Executor::Rayon, Balance::Uniform)];
        for bal in [Balance::Uniform, Balance::CostWeighted] {
            others.extend([2, 4, 8].map(|p| mk(Executor::spmd(p), bal)));
        }
        for out in others {
            for (a, b) in serial.potentials.iter().zip(&out.potentials) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?} potential");
            }
            let (fa, fb) = (
                serial.fields.as_ref().unwrap(),
                out.fields.as_ref().unwrap(),
            );
            for (a, b) in fa.iter().zip(fb) {
                for d in 0..3 {
                    assert_eq!(a[d].to_bits(), b[d].to_bits(), "{kernel:?} field");
                }
            }
            assert_eq!(serial.near_stats, out.near_stats, "{kernel:?} counters");
        }
    }
}
