//! Pass 3 — budget conformance.
//!
//! Statically sum every phase's logical messages and payload bytes from
//! the lowered endpoints and compare against
//! [`fmm_machine::communication_budget`] with the *same* comparator the
//! runtime model test uses ([`fmm_machine::check_phases`]); tolerance
//! handling lives in `fmm-machine`, in one place.
//!
//! What "byte-exact" means here: a phase whose sends all carry
//! [`Volume::Exact`] payloads (upward's gather, downward's broadcast +
//! halos) has a statically known byte total, equal to what the executor's
//! counters will measure on *any* input — the volumes are properties of
//! the layout, not the particles. Those totals are additionally exact
//! against the closed-form budget itself: the upward gather because
//! Σ 2^tz(r) over ranks equals the model's `gather_hops`, the downward
//! halo + broadcast because the budget's axis-aware halo accounting
//! prices wrap-aliased ghost cells as local moves exactly as the
//! lowering does. Phases with data-dependent payloads (router sort,
//! particle halo) report `bytes: None` and are checked on message counts
//! alone.

use fmm_machine::{
    check_phases, communication_budget_with, BudgetMismatch, MeasuredPhase, ProgramBudget,
    ProgramConfig,
};
use fmm_spmd::schedule::{Op, Volume};

use crate::lower::Lowered;

/// Statically summed communication of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPhase {
    /// Machine-wide logical messages (the schedule's `logical_msgs`).
    pub messages: u64,
    /// Payload bytes, `None` if any send in the phase is data-dependent.
    pub bytes: Option<u64>,
}

/// Result of the pass on a conformant program.
#[derive(Debug, Clone)]
pub struct BudgetSummary {
    pub phases: [StaticPhase; 6],
    /// Phase indices whose static byte totals equal the closed-form
    /// budget bit for bit (not merely within tolerance).
    pub byte_exact_phases: Vec<usize>,
    pub budget: ProgramBudget,
}

/// Sum each phase of the lowered program.
pub fn static_phases(low: &Lowered) -> [StaticPhase; 6] {
    let mut phases: [StaticPhase; 6] = [StaticPhase {
        messages: 0,
        bytes: Some(0),
    }; 6];
    for step in &low.steps {
        let ph = &mut phases[step.phase];
        ph.messages += step.logical_msgs;
        for ops in &step.ops {
            for op in ops {
                if let Op::Send { words, .. } = op {
                    match (words, &mut ph.bytes) {
                        (Volume::Exact(w), Some(b)) => *b += w * 8,
                        (Volume::Dynamic, b) => *b = None,
                        (_, None) => {}
                    }
                }
            }
        }
    }
    phases
}

/// Price the lowered program's configuration. `sort_miss_fraction` and
/// `particles_per_box` only shape the data-dependent phases the static
/// sums skip, so representative defaults are fine for conformance.
pub fn budget_for(low: &Lowered, m: usize, particles_per_box: f64) -> ProgramBudget {
    let prog = &low.program;
    let p = prog.grid.len();
    // A partitioned program is priced from its own exchange plans — the
    // single source of truth the schedule was derived from.
    communication_budget_with(
        &ProgramConfig {
            depth: prog.depth,
            k: prog.k,
            m,
            particles_per_box,
            vu_grid: prog.grid,
            supernodes: prog.supernodes,
            sort_miss_fraction: 1.0 - 1.0 / p as f64,
            forces_near: false,
        },
        prog.partition.as_ref().map(|ps| &ps.partition),
    )
}

/// Run the pass: static sums vs. the closed-form budget through the
/// shared comparator at its default tolerance.
pub fn check(low: &Lowered, m: usize) -> Result<BudgetSummary, Vec<BudgetMismatch>> {
    let budget = budget_for(low, m, 4.0);
    let phases = static_phases(low);
    let measured: Vec<MeasuredPhase> = phases
        .iter()
        .map(|p| MeasuredPhase {
            messages: p.messages,
            bytes: p.bytes,
        })
        .collect();
    let mismatches = check_phases(&budget, &measured, fmm_machine::DEFAULT_TOLERANCE);
    if !mismatches.is_empty() {
        return Err(mismatches);
    }
    let byte_exact_phases = phases
        .iter()
        .enumerate()
        .filter_map(|(i, ph)| {
            let b = ph.bytes?;
            (b > 0 && b == fmm_machine::predicted_bytes(&budget.phases[i].comm, budget.config_k))
                .then_some(i)
        })
        .collect();
    Ok(BudgetSummary {
        phases,
        byte_exact_phases,
        budget,
    })
}
