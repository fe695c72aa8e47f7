//! The analyzer's static sums against the executor's dynamic counters.
//!
//! The whole premise of `fmm-verify` is that the communication schedule
//! is data-independent: the statically summed per-phase message counts
//! must equal what the SPMD executor's channel counters measure on *any*
//! input, and every phase whose payload volumes are statically known
//! (`Volume::Exact` throughout) must match measured bytes exactly.
//! Random systems, depths 2–4, worker counts 1–16, both near-field
//! variants.

use fmm_core::{Executor, Fmm, FmmConfig};
use fmm_spmd::{vu_grid_for, CommProgram};
use fmm_verify::lower;
use fmm_verify::passes::budget::static_phases;
use proptest::prelude::*;

fn system(lo: usize, hi: usize) -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<f64>)> {
    (lo..hi).prop_flat_map(|n| {
        (
            proptest::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y, z)| [x, y, z]),
                n,
            ),
            proptest::collection::vec(-2.0f64..2.0, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Static per-phase totals == dynamic per-phase counters, for random
    /// systems and machine shapes.
    #[test]
    fn static_totals_match_dynamic_counters((pts, q) in system(40, 220),
                                            depth in 2u32..5,
                                            log_p in 0u32..5,
                                            forces in proptest::bool::ANY) {
        fmm_spmd::install();
        let p = 1usize << log_p;
        let fmm = Fmm::new(
            FmmConfig::order(3).depth(depth).executor(Executor::spmd(p)),
        ).unwrap();
        let out = if forces {
            fmm.evaluate_forces(&pts, &q).unwrap()
        } else {
            fmm.evaluate(&pts, &q).unwrap()
        };
        let report = out.spmd.expect("spmd run attaches a report");

        let grid = vu_grid_for(p);
        prop_assert_eq!(grid.dims, report.vu_dims);
        let program = CommProgram::build(grid, depth, fmm.k(), forces, false);
        let stat = static_phases(&lower(&program));

        for (i, (s, d)) in stat.iter().zip(&report.phases).enumerate() {
            prop_assert_eq!(
                s.messages, d.messages,
                "phase {} messages: static {} vs dynamic {} (p={} depth={} forces={})",
                i, s.messages, d.messages, p, depth, forces
            );
            if let Some(b) = s.bytes {
                prop_assert_eq!(
                    b, d.bytes,
                    "phase {} bytes: static {} vs dynamic {} (p={} depth={} forces={})",
                    i, b, d.bytes, p, depth, forces
                );
            }
        }
    }
}

/// The same under the supernode decomposition (order 5, forced on at
/// depth 4): the measured downward bytes of both layouts, broadcast of
/// the embedded `far` rows included at p = 128, equal the static sums.
#[test]
fn supernode_static_totals_match_dynamic_counters() {
    use fmm_core::Balance;
    fmm_spmd::install();
    let n = 1500;
    let pts: Vec<[f64; 3]> = (0..n)
        .map(|i| {
            let f = (i as f64 + 0.5) / n as f64;
            [f, (f * 7.31) % 1.0, (f * 3.17) % 1.0]
        })
        .collect();
    let q = vec![1.0; n];
    for (p, bal) in [
        (2, Balance::Uniform),
        (8, Balance::CostWeighted),
        (128, Balance::Uniform),
    ] {
        let cfg = FmmConfig::order(5)
            .depth(4)
            .supernodes(true)
            .executor(Executor::spmd(p))
            .balance(bal);
        let out = Fmm::new(cfg).unwrap().evaluate(&pts, &q).unwrap();
        let report = out.spmd.expect("spmd run attaches a report");
        let program = match report.partition {
            None => CommProgram::build(vu_grid_for(p), 4, 12, false, true),
            Some(splits) => CommProgram::build_partitioned(
                vu_grid_for(p),
                4,
                12,
                false,
                true,
                fmm_spmd::Partition::from_splits(4, splits),
            ),
        };
        let stat = static_phases(&lower(&program));
        for (i, (s, d)) in stat.iter().zip(&report.phases).enumerate() {
            assert_eq!(s.messages, d.messages, "p={p} phase {i} messages");
            if let Some(b) = s.bytes {
                assert_eq!(b, d.bytes, "p={p} phase {i} bytes");
            }
        }
    }
}
