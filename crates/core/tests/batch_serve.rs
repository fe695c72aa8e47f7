//! Acceptance tests for the serving substrate: batched multi-request
//! evaluation must be bitwise identical to per-request [`Fmm::evaluate`],
//! and the shared [`PlanRegistry`] must build each distinct key exactly
//! once under concurrent hammering while enforcing its LRU bound.

use fmm_core::{
    BatchRequest, Domain, Executor, Fmm, FmmConfig, FmmError, PlanKey, PlanRegistry, Precision,
    Separation,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts: Vec<[f64; 3]> = (0..n)
        .map(|_| [rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
        .collect();
    let q: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    (pts, q)
}

/// Golden test: a coalesced batch reproduces per-request `evaluate`
/// bit-for-bit, for potentials and forces, and the whole batch costs one
/// plan build.
#[test]
fn batched_evaluation_is_bitwise_identical_to_solo() {
    for depth in [2u32, 3] {
        let cfg = FmmConfig::order(4).depth(depth);
        let fmm = Fmm::new(cfg).unwrap();
        let systems: Vec<(Vec<[f64; 3]>, Vec<f64>)> = (0..8)
            .map(|i| system(64 + 16 * i, 900 + i as u64))
            .collect();
        let requests: Vec<BatchRequest> = systems
            .iter()
            .map(|(p, q)| BatchRequest {
                positions: p,
                charges: q,
            })
            .collect();

        let batch = fmm.evaluate_batch(&requests).unwrap();
        assert_eq!(batch.depth, depth);
        assert_eq!(
            fmm.plan_builds(),
            1,
            "one plan build for the whole batch at depth {depth}"
        );
        for (i, (p, q)) in systems.iter().enumerate() {
            let solo = fmm.evaluate(p, q).unwrap();
            let got = batch.potentials_of(i);
            assert_eq!(got.len(), solo.potentials.len());
            for (a, b) in got.iter().zip(&solo.potentials) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "depth {depth} request {i}: batched != solo"
                );
            }
        }
        // Still exactly one build: the solo evaluations reuse the plan.
        assert_eq!(fmm.plan_builds(), 1);

        let batch_f = fmm.evaluate_batch_forces(&requests).unwrap();
        for (i, (p, q)) in systems.iter().enumerate() {
            let solo = fmm.evaluate_forces(p, q).unwrap();
            let gf = batch_f.fields_of(i).unwrap();
            let sf = solo.fields.unwrap();
            for (a, b) in batch_f.potentials_of(i).iter().zip(&solo.potentials) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in gf.iter().zip(&sf) {
                for d in 0..3 {
                    assert_eq!(a[d].to_bits(), b[d].to_bits(), "forces request {i}");
                }
            }
        }
    }
}

/// One pipeline: `evaluate*` ≡ `evaluate_batch*` of `[r]` ≡ slot *i* of a
/// three-request batch, bitwise, potentials and forces, along the
/// configuration axes the serve shape key discriminates on — supernodes
/// on and off, f64 and mixed precision — and on the scalar sequential
/// executor.
#[test]
fn solo_batch_of_one_and_batch_slot_agree_bitwise() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let field_bits = |v: &[[f64; 3]]| bits(&v.iter().flatten().copied().collect::<Vec<_>>());
    for cfg in [
        FmmConfig::order(3).depth(2).supernodes(false),
        FmmConfig::order(3).depth(3).supernodes(true),
        FmmConfig::order(3).depth(2).precision(Precision::Mixed),
        FmmConfig::order(3)
            .depth(3)
            .precision(Precision::Mixed)
            .supernodes(true),
        FmmConfig::order(3)
            .depth(3)
            .kernel(fmm_core::Kernel::Scalar)
            .sequential(),
    ] {
        let fmm = Fmm::new(cfg).unwrap();
        let systems: Vec<(Vec<[f64; 3]>, Vec<f64>)> =
            (0..3).map(|i| system(96 + 8 * i, 40 + i as u64)).collect();
        let requests: Vec<BatchRequest> = systems
            .iter()
            .map(|(p, q)| BatchRequest {
                positions: p,
                charges: q,
            })
            .collect();
        let batch = fmm.evaluate_batch(&requests).unwrap();
        let batch_f = fmm.evaluate_batch_forces(&requests).unwrap();
        for (i, (p, q)) in systems.iter().enumerate() {
            let solo = fmm.evaluate(p, q).unwrap();
            let one = fmm.evaluate_batch(&requests[i..=i]).unwrap();
            assert_eq!(one.len(), 1);
            assert_eq!(bits(&one.potentials), bits(&solo.potentials), "[r] {i}");
            assert_eq!(
                bits(batch.potentials_of(i)),
                bits(&solo.potentials),
                "slot {i}"
            );

            let solo_f = fmm.evaluate_forces(p, q).unwrap();
            let one_f = fmm.evaluate_batch_forces(&requests[i..=i]).unwrap();
            let want = field_bits(solo_f.fields.as_ref().unwrap());
            assert_eq!(bits(&one_f.potentials), bits(&solo_f.potentials));
            assert_eq!(field_bits(one_f.fields_of(0).unwrap()), want, "[r] {i}");
            assert_eq!(bits(batch_f.potentials_of(i)), bits(&solo_f.potentials));
            assert_eq!(field_bits(batch_f.fields_of(i).unwrap()), want, "slot {i}");
        }
    }
}

#[test]
fn batch_rejects_malformed_requests() {
    let fmm = Fmm::new(FmmConfig::order(3).depth(2)).unwrap();
    assert!(fmm.evaluate_batch(&[]).is_err());
    let (p, q) = system(32, 1);
    assert!(fmm
        .evaluate_batch(&[BatchRequest {
            positions: &p,
            charges: &q[..16],
        }])
        .is_err());
}

/// Non-finite input is rejected by name — request and index — on every
/// entry point, solo and as request 2 of 3, instead of coming back as NaN
/// potentials.
#[test]
fn non_finite_input_is_rejected_by_name() {
    let fmm = Fmm::new(FmmConfig::order(3).depth(2)).unwrap();
    let (p, q) = system(48, 3);
    let message = |r: Result<(), FmmError>| match r {
        Err(FmmError::BadInput(m)) => m,
        other => panic!("expected BadInput, got {other:?}"),
    };
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut bad_p = p.clone();
        bad_p[17][1] = bad;
        let mut bad_q = q.clone();
        bad_q[5] = bad;
        for (pp, qq, what) in [(&bad_p, &q, "position 17"), (&p, &bad_q, "charge 5")] {
            let solo = [
                fmm.evaluate(pp, qq).map(drop),
                fmm.evaluate_forces(pp, qq).map(drop),
                fmm.evaluate_in(pp, qq, Domain::unit()).map(drop),
                fmm.evaluate_at(&p[..4], pp, qq).map(drop),
            ];
            for r in solo {
                let m = message(r);
                assert!(m.contains(what), "{m}");
            }
            let good = BatchRequest {
                positions: &p,
                charges: &q,
            };
            let second = BatchRequest {
                positions: pp,
                charges: qq,
            };
            let m = message(fmm.evaluate_batch(&[good, second, good]).map(drop));
            assert!(m.contains("request 1") && m.contains(what), "{m}");
            let m = message(fmm.evaluate_batch_forces(&[good, second, good]).map(drop));
            assert!(m.contains("request 1") && m.contains(what), "{m}");
        }
    }
    let target = [[0.5, f64::NAN, 0.5]];
    let m = message(fmm.evaluate_at(&target, &p, &q).map(drop));
    assert!(m.contains("target 0"), "{m}");
}

/// N threads hammer a shared registry with a mix of keys: every distinct
/// key is built exactly once (`plan_builds == distinct keys`) no matter
/// how the race interleaves, and hits account for the rest.
#[test]
fn registry_concurrent_stress_builds_each_key_once() {
    let registry = Arc::new(PlanRegistry::new(64));
    let distinct = 6u32; // depths 2..8, well under capacity
    let threads = 8;
    let iters = 40;
    let key = |depth: u32| PlanKey {
        depth,
        k: 12,
        separation: Separation::Two,
        executor: Executor::Rayon,
        kernel: fmm_core::Kernel::Scalar,
        precision: Precision::F64,
    };
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let reg = Arc::clone(&registry);
            std::thread::spawn(move || {
                for i in 0..iters {
                    let depth = 2 + ((t + i) as u32 % distinct);
                    let plan = reg.get_or_build(key(depth));
                    assert_eq!(plan.depth, depth);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = registry.stats();
    assert_eq!(
        s.plan_builds, distinct as u64,
        "a key must never be built twice while resident"
    );
    assert_eq!(s.plan_hits, (threads * iters) as u64 - distinct as u64);
    assert_eq!(s.entries, distinct as usize);
    assert_eq!(s.evictions, 0);
}

/// Same hammering through shared-registry `Fmm` instances — the serve
/// configuration — plus the LRU bound: capacity-2 registry under three
/// alternating keys evicts and rebuilds.
#[test]
fn shared_registry_fmm_instances_and_lru_bound() {
    let registry = Arc::new(PlanRegistry::new(PlanRegistry::DEFAULT_CAPACITY));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let reg = Arc::clone(&registry);
            std::thread::spawn(move || {
                let (p, q) = system(64, 300 + t as u64);
                for depth in [2u32, 3] {
                    let fmm =
                        Fmm::with_registry(FmmConfig::order(3).depth(depth), Arc::clone(&reg))
                            .unwrap();
                    fmm.evaluate(&p, &q).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // 4 tenants × 2 depths share 2 plans process-wide.
    assert_eq!(registry.stats().plan_builds, 2);

    let small = PlanRegistry::new(2);
    let key = |depth: u32| PlanKey {
        depth,
        k: 6,
        separation: Separation::Two,
        executor: Executor::Serial,
        kernel: fmm_core::Kernel::Scalar,
        precision: Precision::F64,
    };
    for depth in [2, 3, 4, 2, 3, 4] {
        small.get_or_build(key(depth));
    }
    let s = small.stats();
    assert_eq!(s.entries, 2, "LRU bound holds");
    assert!(s.evictions >= 1);
    // Cycling three keys through capacity two always misses: 6 builds.
    assert_eq!(s.plan_builds, 6);
}
