//! **E10b — §2.3 supernodes**: reducing the effective interactive field
//! from 875 to 189 translations per box, "a dramatic improvement in the
//! overall performance, at the cost of slightly decreased accuracy" —
//! and where that cost stays slight, the measured frontier behind
//! `FmmConfig`'s default (supernodes on at orders 4 and 5 under auto
//! depth or a fixed depth ≥ 5).
//!
//! For orders 3 to 8 and depths 3 to 6, on a uniform and a Plummer
//! system of `4·8^depth` points (at most 262,144; fixed seeds), one
//! `evaluate` with supernodes off and one with them on: the RMS error of
//! each against direct summation at 1,000 sampled particles, the ratio of
//! the two, and the two call times. Then `order(5)` under auto depth at
//! 32,768 and 262,144 points.
//!
//! Run: `cargo run --release -p fmm-bench --bin exp_supernode` (about
//! three minutes on a 2-vCPU host).

use fmm_bench::util::{header, time_s};
use fmm_bench::workloads::{unit_charges, Distribution};
use fmm_core::{relative_error_stats, DepthPolicy, Fmm, FmmConfig};
use fmm_tree::supernode_decomposition;

const SAMPLES: usize = 1000;

fn main() {
    header("Supernodes — 875 → 189 interactive-field translations (§2.3)");
    let sd = supernode_decomposition([0, 0, 0]);
    println!(
        "decomposition: {} parent supernodes + {} leftover children = {} translations (covers {})",
        sd.parents.len(),
        sd.children.len(),
        sd.translation_count(),
        sd.covered_boxes()
    );

    println!(
        "\n{:>8} {:>5} {:>4} {:>7} {:>7} {:>5} {:>10} {:>10} {:>6} {:>8} {:>8} {:>6} {:>7}",
        "dist",
        "order",
        "K",
        "depth",
        "N",
        "occ",
        "rms off",
        "rms on",
        "ratio",
        "off (s)",
        "on (s)",
        "speed",
        "default"
    );
    for dist in [Distribution::Uniform, Distribution::Plummer] {
        for depth in 3..=6 {
            let n = (4usize << (3 * depth)).min(262_144);
            let system = System::new(dist, n, 46 + depth as u64);
            for order in 3..=8 {
                system.row(FmmConfig::order(order).depth(depth));
            }
        }
        // Auto depth at the headline order, at the benchmark's sizes.
        for n in [32_768, 262_144] {
            System::new(dist, n, 1).row(FmmConfig::order(5));
        }
    }
    println!(
        "\nratio = RMS error with supernodes / without, against direct\n\
         summation at {SAMPLES} sampled particles; speed = time off / on.\n\
         The default column is `FmmConfig::order(order).depth(depth)`'s\n\
         setting: supernodes cost the paper's \"slightly decreased\n\
         accuracy\" only at the icosahedron orders (4, 5; K = 12) and from\n\
         depth 5 on, where parent-level sources are a small share of each\n\
         box's field error; auto depth also keeps them on there\n\
         (EXPERIMENTS.md E10b)."
    );
}

/// One particle system with its direct-summation reference at sampled
/// particles.
struct System {
    dist: Distribution,
    positions: Vec<[f64; 3]>,
    charges: Vec<f64>,
    stride: usize,
    reference: Vec<f64>,
}

impl System {
    fn new(dist: Distribution, n: usize, seed: u64) -> System {
        let positions = dist.positions(n, seed);
        let charges = unit_charges(n);
        let stride = n.div_ceil(SAMPLES);
        let targets: Vec<[f64; 3]> = positions.iter().step_by(stride).copied().collect();
        let reference = fmm_direct::potentials_at(&targets, &positions, &charges);
        System {
            dist,
            positions,
            charges,
            stride,
            reference,
        }
    }

    /// `cfg` with supernodes off and on: one table row.
    fn row(&self, cfg: FmmConfig) {
        let n = self.positions.len();
        let run = |sup: bool| {
            let fmm = Fmm::new(cfg.clone().supernodes(sup)).unwrap();
            let (t, out) = time_s(|| fmm.evaluate(&self.positions, &self.charges).unwrap());
            let sampled: Vec<f64> = out
                .potentials
                .iter()
                .step_by(self.stride)
                .copied()
                .collect();
            let rms = relative_error_stats(&sampled, &self.reference).rms_rel;
            (rms, t, out.depth)
        };
        let ((rms_off, t_off, h), (rms_on, t_on, _)) = (run(false), run(true));
        let depth = match cfg.depth {
            DepthPolicy::Fixed(_) => h.to_string(),
            DepthPolicy::Auto { .. } => format!("auto {h}"),
        };
        println!(
            "{:>8} {:>5} {:>4} {:>7} {:>7} {:>5.2} {:>10.3e} {:>10.3e} {:>6.3} {:>8.3} {:>8.3} {:>6.2} {:>7}",
            self.dist.name(),
            cfg.order,
            cfg.rule().len(),
            depth,
            n,
            n as f64 / (1u64 << (3 * h)) as f64,
            rms_off,
            rms_on,
            rms_on / rms_off,
            t_off,
            t_on,
            t_off / t_on,
            if cfg.supernodes { "on" } else { "off" }
        );
    }
}
