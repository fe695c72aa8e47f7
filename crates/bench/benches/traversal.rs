//! Criterion bench: the hierarchy traversal (upward T1, downward T2+T3) —
//! aggregation (GEMM vs GEMV), supernodes on/off, sequential vs parallel.
//! This is the kernel behind the paper's Table 3 and the supernode claim.

use criterion::{criterion_group, criterion_main, Criterion};
use fmm_core::field::FieldHierarchy;
use fmm_core::plan::TraversalPlan;
use fmm_core::translations::TranslationSet;
use fmm_core::traversal::{downward_pass, upward_pass, Aggregation};
use fmm_sphere::SphereRule;
use fmm_tree::{Hierarchy, Separation};

/// A translation set holds the T2 matrices of one supernode setting.
fn translations(supernodes: bool) -> TranslationSet {
    let rule = SphereRule::for_order(5);
    TranslationSet::build(&rule, 3, 1.6, 1.0, Separation::Two, supernodes)
}

fn setup(depth: u32) -> (FieldHierarchy, TranslationSet, TraversalPlan) {
    let rule = SphereRule::for_order(5);
    let ts = translations(false);
    let plan = TraversalPlan::build(depth, Separation::Two);
    let mut fh = FieldHierarchy::new(Hierarchy::new(depth), rule.len());
    let mut state = 5u64;
    let d = depth as usize;
    for v in fh.far[d].iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    upward_pass(&mut fh, &ts, &plan, Aggregation::Gemm, false);
    (fh, ts, plan)
}

fn bench_traversal(c: &mut Criterion) {
    let depth = 4;
    let (fh, ts, plan) = setup(depth);
    let ts_sup = translations(true);

    let mut group = c.benchmark_group("downward_pass_depth4");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    group.bench_function("gemm_seq", |b| {
        b.iter(|| {
            let mut f = fh.clone();
            downward_pass(&mut f, &ts, &plan, false, Aggregation::Gemm, false)
        });
    });
    group.bench_function("gemv_seq", |b| {
        b.iter(|| {
            let mut f = fh.clone();
            downward_pass(&mut f, &ts, &plan, false, Aggregation::Gemv, false)
        });
    });
    group.bench_function("gemm_par", |b| {
        b.iter(|| {
            let mut f = fh.clone();
            downward_pass(&mut f, &ts, &plan, false, Aggregation::Gemm, true)
        });
    });
    group.bench_function("supernodes_seq", |b| {
        b.iter(|| {
            let mut f = fh.clone();
            downward_pass(&mut f, &ts_sup, &plan, true, Aggregation::Gemm, false)
        });
    });
    group.bench_function("supernodes_par", |b| {
        b.iter(|| {
            let mut f = fh.clone();
            downward_pass(&mut f, &ts_sup, &plan, true, Aggregation::Gemm, true)
        });
    });
    group.finish();

    let mut group = c.benchmark_group("upward_pass_depth5");
    group.sample_size(10);
    let (fh5, ts5, plan5) = setup(5);
    group.bench_function("gemm_seq", |b| {
        b.iter(|| {
            let mut f = fh5.clone();
            upward_pass(&mut f, &ts5, &plan5, Aggregation::Gemm, false)
        });
    });
    group.bench_function("gemm_par", |b| {
        b.iter(|| {
            let mut f = fh5.clone();
            upward_pass(&mut f, &ts5, &plan5, Aggregation::Gemm, true)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_traversal);
criterion_main!(benches);
