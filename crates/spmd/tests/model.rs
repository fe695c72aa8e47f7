//! Measured data motion vs. the machine model's prediction, on the
//! Table-4 configuration (depth 4, 128 VUs as [8,4,4], K = 6, four
//! particles per leaf box). The counters the SPMD executor records are
//! actual channel traffic; `fmm_machine::communication_budget` prices the
//! same program from closed form. The ISSUE's acceptance criterion: every
//! phase's measured messages and bytes land within 10% of the prediction.

use fmm_core::{Balance, Executor, Fmm, FmmConfig, SpmdReport};
use fmm_machine::{
    check_phases, communication_budget, communication_budget_with, predicted_bytes,
    predicted_messages, MeasuredPhase, ProgramConfig, VuGrid, DEFAULT_TOLERANCE,
};
use fmm_spmd::Partition;

const WORKERS: usize = 128;
const DEPTH: u32 = 4;
const N: usize = 16384; // 4 particles per leaf box at depth 4

fn uniform_system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
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

#[test]
fn table4_motion_matches_the_model_within_10_percent() {
    fmm_spmd::install();
    let (pts, q) = uniform_system(N, 0x7ab1e4);
    let fmm = Fmm::new(
        FmmConfig::order(3)
            .depth(DEPTH)
            .executor(Executor::spmd(WORKERS)),
    )
    .unwrap();
    let k = fmm.k();
    let out = fmm.evaluate(&pts, &q).unwrap();
    let report = out.spmd.expect("spmd run attaches a report");
    assert_eq!(report.vu_dims, [8, 4, 4]);

    // A uniformly random system starts block-distributed by particle
    // index, so all but ~1/p of the particles sort off-VU.
    let budget = communication_budget(&ProgramConfig {
        depth: DEPTH,
        k,
        m: fmm.config().m_trunc,
        particles_per_box: N as f64 / 8f64.powi(DEPTH as i32),
        vu_grid: VuGrid::new([8, 4, 4]),
        supernodes: false,
        sort_miss_fraction: 1.0 - 1.0 / WORKERS as f64,
        forces_near: false,
    });
    assert_eq!(budget.phases.len(), SpmdReport::PHASE_NAMES.len());
    assert_eq!(budget.config_k, k);
    for (phase, name) in budget.phases.iter().zip(SpmdReport::PHASE_NAMES) {
        assert_eq!(phase.name, name, "model and report phases align");
    }

    // The comparator shared with fmm-verify: every phase's measured
    // messages and bytes within the default 10% of the prediction, with
    // zero predictions requiring exact zeros.
    let measured: Vec<MeasuredPhase> = report
        .phases
        .iter()
        .map(|p| MeasuredPhase {
            messages: p.messages,
            bytes: Some(p.bytes),
        })
        .collect();
    let mismatches = check_phases(&budget, &measured, DEFAULT_TOLERANCE);
    assert!(
        mismatches.is_empty(),
        "budget divergence:\n{}",
        mismatches
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The deterministic counts are exact, not just within tolerance: one
    // router operation for the sort, p − 1 binomial gather sends at the
    // upward embed transition, 6 halo CSHIFTs per distributed level plus
    // log₂ p broadcast stages downward, and the near field's particle
    // halo: three axis phases, two CSHIFTs each.
    let messages: Vec<u64> = report.phases.iter().map(|p| p.messages).collect();
    assert_eq!(messages, [1, 0, 127, 19, 0, 6]);

    // The upward gather and the downward halo + broadcast move a
    // data-independent set of boxes — byte-exact, not statistical.
    assert_eq!(report.phases[2].bytes, 86_016);
    assert_eq!(report.phases[3].bytes, 24_351_744);
}

/// The cost-weighted acceptance criterion: the partitioned budget —
/// summed from the same exchange plans the workers executed — matches the
/// executor's channel counters *byte-exactly* for every plan-derived
/// phase, on a clustered (data-dependent) layout.
fn assert_partitioned_budget_exact(with_fields: bool) {
    fmm_spmd::install();
    const DEPTH3: u32 = 3;
    const P: usize = 8;
    // A clustered system: three quarters of the particles crowd one
    // corner octant, so the cost-weighted cuts are far from uniform.
    let n = 4096;
    let (mut pts, q) = uniform_system(n, 0xc105);
    for p in pts.iter_mut().take(3 * n / 4) {
        for x in p.iter_mut() {
            *x *= 0.25;
        }
    }
    let fmm = Fmm::new(
        FmmConfig::order(3)
            .depth(DEPTH3)
            .executor(Executor::spmd(P))
            .balance(Balance::CostWeighted),
    )
    .unwrap();
    let k = fmm.k();
    let out = if with_fields {
        fmm.evaluate_forces(&pts, &q).unwrap()
    } else {
        fmm.evaluate(&pts, &q).unwrap()
    };
    let report = out.spmd.expect("spmd run attaches a report");
    let splits = report
        .partition
        .clone()
        .expect("cost-weighted report records its partition");
    assert!(
        splits.windows(2).any(|w| w[1] - w[0] != 512 / P as u64),
        "clustered input must produce non-uniform cuts, got {splits:?}"
    );
    let part = Partition::from_splits(DEPTH3, splits);
    let budget = communication_budget_with(
        &ProgramConfig {
            depth: DEPTH3,
            k,
            m: fmm.config().m_trunc,
            particles_per_box: n as f64 / 8f64.powi(DEPTH3 as i32),
            vu_grid: VuGrid::new([2, 2, 2]),
            supernodes: false,
            sort_miss_fraction: 1.0 - 1.0 / P as f64,
            forces_near: with_fields,
        },
        Some(&part),
    );

    // Upward and downward move a partition-determined set of K-box rows:
    // messages AND bytes equal the executor's counters bit for bit.
    for i in [2usize, 3] {
        assert_eq!(
            predicted_messages(&budget.phases[i].comm),
            report.phases[i].messages,
            "phase {i} message count"
        );
        assert_eq!(
            predicted_bytes(&budget.phases[i].comm, k),
            report.phases[i].bytes,
            "phase {i} bytes"
        );
    }
    // Near field: exact message count (particle payloads are
    // data-dependent, so bytes are not statically predictable).
    assert_eq!(
        predicted_messages(&budget.phases[5].comm),
        report.phases[5].messages,
        "near-field message count"
    );

    // And the whole report through the shared comparator.
    let measured: Vec<MeasuredPhase> = report
        .phases
        .iter()
        .enumerate()
        .map(|(i, p)| MeasuredPhase {
            messages: p.messages,
            bytes: matches!(i, 1..=4).then_some(p.bytes),
        })
        .collect();
    let mismatches = check_phases(&budget, &measured, DEFAULT_TOLERANCE);
    assert!(
        mismatches.is_empty(),
        "budget divergence:\n{}",
        mismatches
            .iter()
            .map(|m| m.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn partitioned_potentials_budget_is_byte_exact() {
    assert_partitioned_budget_exact(false);
}

#[test]
fn partitioned_forces_budget_is_byte_exact() {
    assert_partitioned_budget_exact(true);
}
