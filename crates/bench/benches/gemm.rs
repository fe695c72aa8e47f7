//! Criterion bench: the GEMM substrate at the translation shapes the
//! paper uses — K×K by K×n panels for K ∈ {12, 72, 120} (Table 3's
//! arithmetic-efficiency kernels).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fmm_linalg::{gemm_acc, gemm_flops};

fn pseudo(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn bench_gemm_panels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_panel");
    for &k in &[12usize, 72, 120] {
        let n = 2048; // boxes aggregated per panel
        let a = pseudo(1, k * k);
        let b = pseudo(2, n * k);
        let mut out = vec![0.0; n * k];
        group.throughput(Throughput::Elements(gemm_flops(n, k, k)));
        group.bench_with_input(BenchmarkId::new("K", k), &k, |bench, _| {
            bench.iter(|| gemm_acc(n, k, k, &b, &a, &mut out));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm_panels
}
criterion_main!(benches);
