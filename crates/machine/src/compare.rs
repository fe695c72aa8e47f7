//! The one comparator between a priced communication budget and a
//! measured (or statically summed) communication profile.
//!
//! Three consumers share this logic — the `fmm-spmd` Table-4 model test,
//! the `fmm-verify` budget-conformance pass, and anyone eyeballing a
//! [`crate::ProgramBudget`] against an `SpmdReport` — so tolerance
//! handling lives here and nowhere else.
//!
//! Semantics: a phase the model prices at exactly zero must measure
//! exactly zero (the deterministic phases have no noise floor to hide
//! in); a non-zero prediction must be matched within `tolerance`
//! relative error. A measured phase may mark its bytes `None` to skip
//! the byte check — used for quantities the static analyzer cannot sum
//! because they are data-dependent (router payloads, the particle halo's
//! occupancy).

use crate::counters::Counters;
use crate::program::ProgramBudget;

/// The acceptance tolerance the ISSUE criteria use: measured motion
/// lands within 10% of the closed-form prediction.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// One phase of a measured (or statically summed) communication profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredPhase {
    /// Logical messages: CSHIFT invocations + router/point-to-point
    /// sends + broadcast stages, machine-wide.
    pub messages: u64,
    /// Off-VU payload bytes, or `None` if data-dependent and unknown to
    /// the producer (skips the byte comparison for this phase).
    pub bytes: Option<u64>,
}

/// Which measured quantity diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantity {
    Messages,
    Bytes,
}

impl std::fmt::Display for Quantity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Quantity::Messages => "messages",
            Quantity::Bytes => "bytes",
        })
    }
}

/// One divergence between budget and measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetMismatch {
    pub phase: &'static str,
    pub quantity: Quantity,
    pub predicted: u64,
    pub measured: u64,
    /// Relative error; infinite when the prediction is zero.
    pub rel_error: f64,
}

impl std::fmt::Display for BudgetMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} off by {:.1}% (predicted {}, measured {})",
            self.phase,
            self.quantity,
            self.rel_error * 100.0,
            self.predicted,
            self.measured
        )
    }
}

/// Logical message count of a priced phase: CSHIFT invocations, router
/// operations, and point-to-point sends all count once, as in the cost
/// model's per-call overhead terms.
pub fn predicted_messages(c: &Counters) -> u64 {
    c.cshifts + c.sends + c.broadcast_stages
}

/// Off-VU payload in bytes: `off_vu_boxes` and `broadcast_boxes` are both
/// in K-box units of `k` f64 words.
pub fn predicted_bytes(c: &Counters, k: usize) -> u64 {
    (c.off_vu_boxes + c.broadcast_boxes) * k as u64 * 8
}

/// Compare every phase of `measured` against `budget` at `tolerance`
/// relative error. Returns all divergences (empty ⇒ conformant).
/// Panics if the phase counts differ — that is a program bug, not a
/// budget violation.
pub fn check_phases(
    budget: &ProgramBudget,
    measured: &[MeasuredPhase],
    tolerance: f64,
) -> Vec<BudgetMismatch> {
    assert_eq!(
        budget.phases.len(),
        measured.len(),
        "budget and measurement must cover the same phases"
    );
    let k = budget.config_k;
    let mut out = Vec::new();
    for (phase, m) in budget.phases.iter().zip(measured) {
        let mut check = |quantity, predicted: u64, got: u64| {
            let bad = if predicted == 0 {
                got != 0
            } else {
                (got as f64 - predicted as f64).abs() / predicted as f64 > tolerance
            };
            if bad {
                out.push(BudgetMismatch {
                    phase: phase.name,
                    quantity,
                    predicted,
                    measured: got,
                    rel_error: if predicted == 0 {
                        f64::INFINITY
                    } else {
                        (got as f64 - predicted as f64).abs() / predicted as f64
                    },
                });
            }
        };
        check(
            Quantity::Messages,
            predicted_messages(&phase.comm),
            m.messages,
        );
        if let Some(bytes) = m.bytes {
            check(Quantity::Bytes, predicted_bytes(&phase.comm, k), bytes);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{communication_budget, ProgramConfig};
    use crate::VuGrid;

    fn table4_budget() -> ProgramBudget {
        communication_budget(&ProgramConfig {
            depth: 4,
            k: 6,
            m: 3,
            particles_per_box: 4.0,
            vu_grid: VuGrid::new([8, 4, 4]),
            supernodes: false,
            sort_miss_fraction: 1.0 - 1.0 / 128.0,
            forces_near: false,
        })
    }

    #[test]
    fn exact_match_is_conformant() {
        let budget = table4_budget();
        let measured: Vec<MeasuredPhase> = budget
            .phases
            .iter()
            .map(|p| MeasuredPhase {
                messages: predicted_messages(&p.comm),
                bytes: Some(predicted_bytes(&p.comm, budget.config_k)),
            })
            .collect();
        assert!(check_phases(&budget, &measured, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn zero_prediction_requires_exact_zero() {
        let budget = table4_budget();
        let mut measured: Vec<MeasuredPhase> = budget
            .phases
            .iter()
            .map(|p| MeasuredPhase {
                messages: predicted_messages(&p.comm),
                bytes: Some(predicted_bytes(&p.comm, budget.config_k)),
            })
            .collect();
        // Phase 1 (p2o) is communication-free: even one message fails.
        assert_eq!(predicted_messages(&budget.phases[1].comm), 0);
        measured[1].messages = 1;
        let bad = check_phases(&budget, &measured, DEFAULT_TOLERANCE);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].phase, budget.phases[1].name);
        assert!(bad[0].rel_error.is_infinite());
    }

    #[test]
    fn tolerance_bounds_divergence() {
        let budget = table4_budget();
        let mut measured: Vec<MeasuredPhase> = budget
            .phases
            .iter()
            .map(|p| MeasuredPhase {
                messages: predicted_messages(&p.comm),
                bytes: Some(predicted_bytes(&p.comm, budget.config_k)),
            })
            .collect();
        let near = &mut measured[5];
        near.messages = near.messages + near.messages / 5; // +20%
        let bad = check_phases(&budget, &measured, DEFAULT_TOLERANCE);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].quantity, Quantity::Messages);
        // A looser tolerance accepts it.
        assert!(check_phases(&budget, &measured, 0.25).is_empty());
    }

    #[test]
    fn none_bytes_skip_the_byte_check() {
        let budget = table4_budget();
        let measured: Vec<MeasuredPhase> = budget
            .phases
            .iter()
            .map(|p| MeasuredPhase {
                messages: predicted_messages(&p.comm),
                bytes: None,
            })
            .collect();
        assert!(check_phases(&budget, &measured, DEFAULT_TOLERANCE).is_empty());
    }
}
