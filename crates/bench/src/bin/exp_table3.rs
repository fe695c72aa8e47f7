//! **E2 — Paper Table 3**: leaf-level arithmetic efficiency of the
//! translation operators, aggregated (GEMM) vs per-box (GEMV), including
//! the gather/copy overhead.
//!
//! The paper reports, on a 256-node CM-5E: T1/T3 at 54–60% efficiency, T2
//! arithmetic at 74–85%, degrading to 44–74% once copying and masking are
//! included, with the small-K case (K=12) hurt much more than K=72
//! because the copy cost is linear in K while the GEMM is quadratic.
//! Here "efficiency" is the achieved flop rate of the traversal phase
//! relative to this host's peak dense GEMM rate.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_table3`

use fmm_bench::util::{best_of, header, peak_gemm_gflops};
use fmm_core::field::FieldHierarchy;
use fmm_core::plan::TraversalPlan;
use fmm_core::translations::TranslationSet;
use fmm_core::traversal::{downward_pass, upward_pass, Aggregation};
use fmm_core::SphereRule;
use fmm_tree::Hierarchy;

fn run_case(d: usize, depth: u32, peak: f64) {
    let rule = SphereRule::for_order(d);
    let k = rule.len();
    let cfg = fmm_core::FmmConfig::order(d);
    let ts = TranslationSet::build(&rule, cfg.m_trunc, cfg.outer_ratio, cfg.inner_ratio, false);
    let plan = TraversalPlan::build(depth);
    let mut fh = FieldHierarchy::new(Hierarchy::new(depth), k);
    // Pseudo-random leaf potentials.
    let mut state = 99u64;
    for v in fh.far[depth as usize].iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }

    println!("-- D={} (K={}), depth {} --", d, k, depth);
    for (label, agg) in [
        ("GEMV (level-2 BLAS)", Aggregation::Gemv),
        ("GEMM (level-3 BLAS)", Aggregation::Gemm),
    ] {
        let mut up_flops = 0;
        let (t_up, _) = best_of(3, || {
            let mut f = fh.clone();
            let fl = upward_pass(&mut f, &ts, &plan, agg, false);
            up_flops = fl.t1;
        });
        let mut down = Default::default();
        let (t_down, _) = best_of(3, || {
            let mut f = fh.clone();
            upward_pass(&mut f, &ts, &plan, Aggregation::Gemm, false);
            let t0 = std::time::Instant::now();
            down = downward_pass(&mut f, &ts, &plan, false, agg, false);
            t0.elapsed().as_secs_f64()
        });
        // t_down includes the upward pre-pass; re-time just the downward.
        let mut f = fh.clone();
        upward_pass(&mut f, &ts, &plan, Aggregation::Gemm, false);
        let (t_down_only, _) = best_of(3, || {
            let mut g = f.clone();
            downward_pass(&mut g, &ts, &plan, false, agg, false)
        });
        let _ = (t_down, t_up);
        let gf_up = up_flops as f64 / t_up / 1e9;
        let gf_down = (down.t2 + down.t3) as f64 / t_down_only / 1e9;
        println!(
            "  {:<22} T1: {:>6.2} Gflop/s ({:>4.1}% of peak)   T2+T3 incl. copy: {:>6.2} Gflop/s ({:>4.1}% of peak)",
            label,
            gf_up,
            100.0 * gf_up / peak,
            gf_down,
            100.0 * gf_down / peak
        );
    }
}

fn main() {
    header("Table 3 — leaf-level arithmetic efficiency of translations");
    let peak = peak_gemm_gflops();
    println!("host peak dense GEMM: {:.2} Gflop/s (single core)\n", peak);
    // Paper cases: K = 12 (depth 8 there; scaled down here) and K = 72
    // (our degree-14 product rule has K = 120).
    run_case(5, 5, peak);
    run_case(14, 4, peak);
    println!(
        "\nPaper (256-node CM-5E): K=12: T1/T3 54%, T2 74%, incl. copy+mask 44%;\n\
         K=72: T1/T3 60%, T2 85%, incl. copy+mask 74%. The shape to check:\n\
         aggregation (GEMM) beats GEMV, and the copy overhead hurts small K\n\
         (cost linear in K) far more than large K (GEMM quadratic in K)."
    );
}
