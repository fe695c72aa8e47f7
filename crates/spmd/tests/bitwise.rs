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
    let cfg = |e| config(depth, e);
    assert_system_bitwise(&cfg, &pts, &q, workers, with_fields, bal);
}

/// The configuration under test on an executor.
type Config<'a> = &'a dyn Fn(Executor) -> FmmConfig;

fn assert_system_bitwise(
    config: Config<'_>,
    pts: &[[f64; 3]],
    q: &[f64],
    workers: &[usize],
    with_fields: bool,
    bal: Balance,
) {
    fmm_spmd::install();
    let serial = Fmm::new(config(Executor::Serial)).unwrap();
    let depth = serial.config().depth.resolve(pts.len());
    let reference = if with_fields {
        serial.evaluate_forces(pts, q).unwrap()
    } else {
        serial.evaluate(pts, q).unwrap()
    };
    let fields = reference.fields.iter().flatten().flatten();
    let mut values = reference.potentials.iter().chain(fields);
    assert!(values.all(|v| v.is_finite()), "serial is not finite");
    for &p in workers {
        let fmm = Fmm::new(config(Executor::spmd(p)).balance(bal)).unwrap();
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
        // Ghost targets exist only where the near field crosses a rank
        // boundary.
        if p == 1 {
            assert_eq!(rep.ghost_pairs, 0, "p={p}");
        }
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
    // Fewer particles than leaf boxes: many empty boxes, ghost targets and
    // halo cells — the degenerate paths must still match.
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

/// The supernode decomposition on every worker count and both layouts,
/// potentials and forces: order 5, the setting forced on at depths 3
/// and 4 (the default keeps it off there) and on by default at depth 5.
/// Level l's T2 then reads level l − 1's far rows, which the parent
/// level's halo (ghost 4), the embedded broadcast or the partitioned
/// box halo must have brought.
fn assert_supernodes_bitwise(depth: u32, n: usize) {
    let (pts, q) = pseudo_system(n, 0x5a9e ^ (depth as u64) << 8);
    let cfg = |e| {
        FmmConfig::order(5)
            .depth(depth)
            .supernodes(true)
            .executor(e)
    };
    assert!(FmmConfig::order(5).depth(depth).supernodes == (depth >= 5));
    for with_fields in [false, true] {
        for bal in [Balance::Uniform, Balance::CostWeighted] {
            assert_system_bitwise(&cfg, &pts, &q, &[2, 4, 8], with_fields, bal);
        }
    }
}

#[test]
fn supernodes_depth3_all_worker_counts() {
    assert_supernodes_bitwise(3, 3000);
}

#[test]
fn supernodes_depth4_all_worker_counts() {
    assert_supernodes_bitwise(4, 4000);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "depth-5 sweeps: release only")]
fn supernodes_depth5_all_worker_counts() {
    assert_supernodes_bitwise(5, 6000);
}

/// p = 64 on `[4, 4, 4]` embeds levels 0 and 1 and p = 128 on `[8, 4, 4]`
/// level 2 as well: at depth 4 the first distributed level (3) reads
/// its supernode sources from the broadcast `far[2]`.
#[test]
fn supernodes_through_the_embedded_broadcast() {
    let (pts, q) = pseudo_system(4000, 0xb0ad);
    let cfg = |e| FmmConfig::order(5).depth(4).supernodes(true).executor(e);
    assert_system_bitwise(&cfg, &pts, &q, &[64, 128], false, Balance::Uniform);
}

/// The nominal flop counters of an SPMD run count the rows the workers
/// multiply: under supernodes, the decomposition's 189 translations a
/// box, exactly what the serial sweep reports.
#[test]
#[cfg_attr(debug_assertions, ignore = "depth-5 sweeps: release only")]
fn spmd_counts_supernode_t2_flops() {
    fmm_spmd::install();
    let (pts, q) = pseudo_system(5000, 0xf10b);
    let cfg = |e| FmmConfig::order(5).depth(5).executor(e);
    let serial = Fmm::new(cfg(Executor::Serial)).unwrap();
    assert!(serial.config().supernodes);
    let want = serial.evaluate(&pts, &q).unwrap();
    let plan = serial.plan_for(5);
    let rows: u64 = (1..5).map(|lp| plan.level(lp).t2_rows(true)).sum();
    assert_eq!(want.traversal_flops.t2, rows * 2 * 12 * 12);
    let got = Fmm::new(cfg(Executor::spmd(2)))
        .unwrap()
        .evaluate(&pts, &q)
        .unwrap();
    assert_eq!(got.traversal_flops.t2, want.traversal_flops.t2);
    let interactive =
        |o: &fmm_core::EvalOutput| o.profile.phase_flops(fmm_core::Phase::Interactive);
    assert_eq!(interactive(&got), interactive(&want));
}

#[test]
fn spmd_near_field_survives_degenerate_inputs() {
    // Inputs that leave ranks, ghost targets and halo cells empty: the cell store
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
                let cfg = |e| config(3, e);
                assert_system_bitwise(&cfg, pts, &q, &[2, 8], with_fields, bal);
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
