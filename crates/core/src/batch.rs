//! Batched multi-request evaluation.
//!
//! The paper's central optimization (§2, item 2) aggregates many small
//! O(P²) translations into a few large matrix products. A serving
//! workload re-creates the original problem one level up: many small
//! *requests*, each of whose traversals is a stream of tiny GEMMs whose
//! dispatch/gather overhead dwarfs their arithmetic. The one pipeline,
//! [`Fmm::evaluate_requests`](crate::Fmm::evaluate_requests), replays the
//! same trick across requests: `R` same-shape evaluations share one
//! [`crate::TraversalPlan`] and go through
//! [`crate::traversal::upward_level`] /
//! [`crate::traversal::downward_level`] as one hierarchy of `R` instances
//! interleaved per box, which issue one GEMM of `R · np` rows per (panel,
//! matrix visit) instead of `R` GEMMs of `np` rows, reading every row where
//! it lies — and compute the per-offset source geometry
//! once instead of `R` times. The potential near field batches the same
//! way: the symmetric sweep's plane tasks and each target's rows are
//! instance-independent, so they are derived once and the instances loop
//! innermost. Purely
//! particle-bound phases (binning, P2O, leaf evaluation) have no
//! cross-request structure to exploit and stay per-instance.
//!
//! Batching is not a second code path: a solo evaluation is this pipeline
//! with `R = 1`. Each request's results are therefore **bitwise
//! identical** to a solo evaluation of the same inputs: the GEMM
//! microkernels compute every output row independently of the panel's
//! total row count, so batching changes scheduling, never arithmetic.
//! fmm-serve's coalescing batcher relies on this — a request cannot
//! observe whether it was batched.

/// One evaluation request: a particle system to run the configured method
/// on, on its positions' bounding cube.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    pub positions: &'a [[f64; 3]],
    pub charges: &'a [f64],
}

impl BatchRequest<'_> {
    /// The one input check of every entry point (library and service
    /// doors): a request must have particles, as many charges as
    /// positions, and only finite values — a NaN or infinity would
    /// otherwise come back as NaN potentials. The complaint names the
    /// offending index.
    pub fn validate(&self) -> Result<(), String> {
        let (p, q) = (self.positions, self.charges);
        if p.is_empty() {
            return Err("no particles".into());
        }
        if p.len() != q.len() {
            return Err(format!("{} positions vs {} charges", p.len(), q.len()));
        }
        if let Some(i) = p.iter().position(|x| !x.iter().all(|c| c.is_finite())) {
            return Err(format!("position {i} is not finite: {:?}", p[i]));
        }
        if let Some(i) = q.iter().position(|c| !c.is_finite()) {
            return Err(format!("charge {i} is not finite: {}", q[i]));
        }
        Ok(())
    }
}
