//! Batched multi-request evaluation.
//!
//! The paper's central optimization (§2, item 2) aggregates many small
//! O(P²) translations into a few large matrix products. A serving
//! workload re-creates the original problem one level up: many small
//! *requests*, each of whose traversals is a stream of tiny GEMMs whose
//! dispatch/gather overhead dwarfs their arithmetic. The pipeline
//! (`Fmm::run` in [`crate::driver`]) replays the same trick across
//! requests: `R` same-shape evaluations share one [`crate::TraversalPlan`]
//! and go through [`crate::traversal::upward_level`] /
//! [`crate::traversal::downward_level`] as one slice of hierarchies, which
//! issue one GEMM of `R · np` rows per (panel, octant, offset) instead of
//! `R` GEMMs of `np` rows — and compute the per-offset source geometry
//! once instead of `R` times. The near field batches the same way: the
//! travelling sweep's path and per-step box maps are instance-independent,
//! so they are derived once and the instances loop innermost. Purely
//! particle-bound phases (binning, P2O, leaf evaluation) have no
//! cross-request structure to exploit and stay per-instance.
//!
//! Batching is not a second code path: [`Fmm::evaluate`] is this pipeline
//! with `R = 1`. Each request's results are therefore **bitwise
//! identical** to a solo evaluation of the same inputs: the GEMM
//! microkernels compute every output row independently of the panel's
//! total row count, so batching changes scheduling, never arithmetic.
//! fmm-serve's coalescing batcher relies on this — a request cannot
//! observe whether it was batched.

use crate::driver::{Fmm, FmmError};
use crate::near::NearFieldStats;

/// One evaluation request: a particle system to run the configured method
/// on. The domain is inferred from the positions' bounding cube, exactly
/// as [`Fmm::evaluate`] does.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    pub positions: &'a [[f64; 3]],
    pub charges: &'a [f64],
}

/// Index of the first point with a NaN or infinite coordinate.
pub(crate) fn first_non_finite(points: &[[f64; 3]]) -> Option<usize> {
    points.iter().position(|x| !x.iter().all(|c| c.is_finite()))
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
        if let Some(i) = first_non_finite(p) {
            return Err(format!("position {i} is not finite: {:?}", p[i]));
        }
        if let Some(i) = q.iter().position(|c| !c.is_finite()) {
            return Err(format!("charge {i} is not finite: {}", q[i]));
        }
        Ok(())
    }
}

/// Results of a batched evaluation: per-request slices of concatenated
/// slabs, in request order.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Potentials of all requests, concatenated in request order (each
    /// request's particles in their original order).
    pub potentials: Vec<f64>,
    /// Fields −∇Φ, concatenated like `potentials`, when requested.
    pub fields: Option<Vec<[f64; 3]>>,
    /// Request `i` owns `potentials[offsets[i]..offsets[i + 1]]`
    /// (`offsets.len() == requests + 1`).
    pub offsets: Vec<usize>,
    /// Hierarchy depth shared by the batch.
    pub depth: u32,
    /// Near-field counters summed over the batch.
    pub near_stats: NearFieldStats,
}

impl BatchOutput {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Request `i`'s potentials (original particle order).
    pub fn potentials_of(&self, i: usize) -> &[f64] {
        &self.potentials[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Request `i`'s fields, when the batch was run with forces.
    pub fn fields_of(&self, i: usize) -> Option<&[[f64; 3]]> {
        self.fields
            .as_ref()
            .map(|f| &f[self.offsets[i]..self.offsets[i + 1]])
    }
}

impl Fmm {
    /// Evaluate many same-shape requests as one coalesced batch. All
    /// requests must resolve to the same hierarchy depth (fixed-depth
    /// configurations always do; adaptive-depth configurations must
    /// receive requests the policy maps to one depth). Each request's
    /// potentials are bitwise identical to a solo [`Fmm::evaluate`].
    pub fn evaluate_batch(&self, requests: &[BatchRequest<'_>]) -> Result<BatchOutput, FmmError> {
        self.batch(requests, false)
    }

    /// [`Fmm::evaluate_batch`] with fields (−∇Φ), the batched analogue of
    /// [`Fmm::evaluate_forces`].
    pub fn evaluate_batch_forces(
        &self,
        requests: &[BatchRequest<'_>],
    ) -> Result<BatchOutput, FmmError> {
        self.batch(requests, true)
    }

    fn batch(
        &self,
        requests: &[BatchRequest<'_>],
        with_fields: bool,
    ) -> Result<BatchOutput, FmmError> {
        let (out, offsets) = self.run(requests, None, with_fields)?;
        Ok(BatchOutput {
            potentials: out.potentials,
            fields: out.fields,
            offsets,
            depth: out.depth,
            near_stats: out.near_stats,
        })
    }
}
