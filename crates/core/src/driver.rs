//! The end-to-end FMM driver: the five steps of the paper's generic
//! hierarchical method, wired together with binning, translation matrices
//! and per-phase profiling.

use crate::batch::BatchRequest;
use crate::config::{Executor, FmmConfig, Precision};
use crate::field::FieldHierarchy;
use crate::near::{near_field_into, per_box_slices, NearFieldStats};
use crate::particles::BinnedParticles;
use crate::plan::TraversalPlan;
use crate::registry::{PlanKey, PlanRegistry, TranslationKey};
use crate::serially;
use crate::stats::{Phase, Profile, SpmdReport};
use crate::translations::TranslationSet;
use crate::traversal::{downward_level, upward_level, Aggregation, TraversalFlops};
use fmm_sphere::{inner_kernel_row, inner_kernel_row_with_grad, norm, SphereRule};
use fmm_tree::{BoxCoord, Domain, Hierarchy};
use rayon::prelude::*;
use std::fmt;
use std::sync::Arc;

/// Errors from building or running an [`Fmm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmmError {
    /// Configuration failed validation.
    InvalidConfig(String),
    /// Input arrays are inconsistent or empty.
    BadInput(String),
    /// A rank of a multi-process launch went away before it could take
    /// part: `detail` says how.
    RankLost { rank: usize, detail: String },
}

impl fmt::Display for FmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmmError::InvalidConfig(s) => write!(f, "invalid configuration: {}", s),
            FmmError::BadInput(s) => write!(f, "bad input: {}", s),
            FmmError::RankLost { rank, detail } => write!(f, "rank {rank} lost: {detail}"),
        }
    }
}

impl std::error::Error for FmmError {}

/// Result of one evaluation of one or more requests.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// Potential at every input particle: requests concatenated in request
    /// order, each request's particles in their original order.
    pub potentials: Vec<f64>,
    /// Field −∇Φ at every particle, concatenated like `potentials`, when
    /// requested.
    pub fields: Option<Vec<[f64; 3]>>,
    /// Request `i` owns `potentials[offsets[i]..offsets[i + 1]]`
    /// (`[0, n]` for one request).
    pub offsets: Vec<usize>,
    /// Per-phase timing and flops.
    pub profile: Profile,
    /// Hierarchy depth used.
    pub depth: u32,
    /// Near-field counters.
    pub near_stats: NearFieldStats,
    /// Traversal flop counters.
    pub traversal_flops: TraversalFlops,
    /// The domain the (first request's) hierarchy was built on: its
    /// particles' bounding cube.
    pub domain: Domain,
    /// Measured per-phase communication when the run used
    /// [`Executor::Spmd`]; `None` for the shared-memory backends.
    pub spmd: Option<SpmdReport>,
}

impl EvalOutput {
    /// Request `i`'s potentials (original particle order).
    pub fn potentials_of(&self, i: usize) -> &[f64] {
        &self.potentials[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Request `i`'s fields, when the evaluation computed them.
    pub fn fields_of(&self, i: usize) -> Option<&[[f64; 3]]> {
        self.fields
            .as_ref()
            .map(|f| &f[self.offsets[i]..self.offsets[i + 1]])
    }
}

/// Entry point of the message-passing backend, installed by
/// `fmm_spmd::install()`. Takes the configured instance, the inputs of one
/// evaluation, and the worker count from [`Executor::Spmd`].
pub type SpmdBackend = fn(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    domain: Domain,
    with_fields: bool,
    workers: usize,
) -> Result<EvalOutput, FmmError>;

static SPMD_BACKEND: std::sync::OnceLock<SpmdBackend> = std::sync::OnceLock::new();

/// Install the SPMD backend. `fmm-core` cannot depend on `fmm-spmd` (the
/// dependency points the other way), so the backend registers itself
/// through this seam. Idempotent; the first installation wins.
pub fn install_spmd_backend(backend: SpmdBackend) {
    let _ = SPMD_BACKEND.set(backend);
}

/// A configured instance of Anderson's method with precomputed translation
/// matrices (the paper precomputes all 1331 + 16 matrices once and reuses
/// them across evaluations and levels). A cheap view over its registry:
/// the translation set and the traversal plans are the registry's, shared
/// with every instance whose keys match.
pub struct Fmm {
    pub(crate) cfg: FmmConfig,
    pub(crate) rule: SphereRule,
    pub(crate) translations: Arc<TranslationSet>,
    /// Registry this instance takes its translation set and traversal
    /// plans from. A private registry by default (preserving per-instance
    /// `plan_builds` semantics); services share one process-wide registry
    /// across many instances via [`Fmm::with_registry`].
    registry: Arc<PlanRegistry>,
}

impl Fmm {
    /// Build an instance: validates the configuration and precomputes the
    /// translation matrices, in a private [`PlanRegistry`] that also
    /// caches its plans; use [`Fmm::with_registry`] to share one.
    pub fn new(cfg: FmmConfig) -> Result<Self, FmmError> {
        Self::with_registry(
            cfg,
            Arc::new(PlanRegistry::new(PlanRegistry::DEFAULT_CAPACITY)),
        )
    }

    /// [`Fmm::new`] over a shared registry — the "millions of users"
    /// configuration. The instance takes its translation set from the
    /// registry under its [`TranslationKey`] (sphere rule, truncation,
    /// radii, supernodes), building it only if no earlier
    /// instance did, and resolves plans under [`Fmm::plan_key`]. What is
    /// left to construct is the validated configuration and its sphere
    /// rule, so building an instance per request is cheap once the set is
    /// resident.
    pub fn with_registry(cfg: FmmConfig, registry: Arc<PlanRegistry>) -> Result<Self, FmmError> {
        cfg.validate().map_err(FmmError::InvalidConfig)?;
        let rule = cfg.rule();
        let translations = registry.translations(TranslationKey::new(&rule, &cfg), &rule);
        Ok(Fmm {
            cfg,
            rule,
            translations,
            registry,
        })
    }

    /// The registry key this instance uses for plans at `depth`: a plan
    /// depends on the depth and the microkernel only.
    pub fn plan_key(&self, depth: u32) -> PlanKey {
        PlanKey {
            depth,
            kernel: self.cfg.resolve_kernel(),
        }
    }

    /// The traversal plan for `depth`, building and caching it on first
    /// use. Repeated evaluations at the same depth reuse the cached plan
    /// and pay only for the GEMMs and particle work.
    pub fn plan_for(&self, depth: u32) -> Arc<TraversalPlan> {
        self.registry.get_or_build(self.plan_key(depth))
    }

    /// Number of traversal plans built so far (i.e. plan-registry misses).
    /// Repeated evaluations at the same depth must not increase this.
    /// Counts the whole registry: for a default (private) registry that is
    /// exactly this instance's builds; for a shared one it is process-wide.
    pub fn plan_builds(&self) -> u64 {
        self.registry.stats().plan_builds
    }

    pub fn config(&self) -> &FmmConfig {
        &self.cfg
    }

    pub fn rule(&self) -> &SphereRule {
        &self.rule
    }

    pub fn translations(&self) -> &TranslationSet {
        &self.translations
    }

    /// Number of sphere integration points K.
    pub fn k(&self) -> usize {
        self.rule.len()
    }

    /// Potentials of one system: [`Fmm::evaluate_requests`] of one
    /// request. Kept only because `benchmark/` imports it (ROADMAP item 1).
    pub fn evaluate(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
    ) -> Result<EvalOutput, FmmError> {
        self.evaluate_requests(&[BatchRequest { positions, charges }], false)
    }

    /// Potentials and fields (−∇Φ) of one system: [`Fmm::evaluate_requests`]
    /// of one request with fields. Kept only because `benchmark/` imports
    /// it (ROADMAP item 1).
    pub fn evaluate_forces(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
    ) -> Result<EvalOutput, FmmError> {
        self.evaluate_requests(&[BatchRequest { positions, charges }], true)
    }

    /// Potentials of many requests: [`Fmm::evaluate_requests`] without
    /// fields. Kept only because `benchmark/` imports it (ROADMAP item 1).
    pub fn evaluate_batch(&self, requests: &[BatchRequest<'_>]) -> Result<EvalOutput, FmmError> {
        self.evaluate_requests(requests, false)
    }

    /// Steps 0–3 for every request: coordinate sort / binning (paper
    /// §3.2) and leaf-level outer approximations (P2O) per request, then
    /// the upward and downward passes of all requests per level, as one
    /// instance-major sweep. Returns the binned particles, the hierarchies
    /// (leaf inner samples in `local[depth]`) and the traversal flops; each
    /// phase's time and flops go to `profile`.
    fn far_field(
        &self,
        requests: &[BatchRequest<'_>],
        depth: u32,
        plan: &TraversalPlan,
        profile: &mut Profile,
    ) -> (Vec<BinnedParticles>, Vec<FieldHierarchy>, TraversalFlops) {
        let k = self.k();
        let mut bps: Vec<BinnedParticles> = Vec::with_capacity(requests.len());
        let mut fhs: Vec<FieldHierarchy> = Vec::with_capacity(requests.len());
        for q in requests {
            let domain = Domain::bounding(q.positions);
            let bp = profile.time(Phase::Sort, || {
                BinnedParticles::build(q.positions, q.charges, domain, depth)
            });
            let mut fh = FieldHierarchy::new(Hierarchy::new(depth), k);
            let a_leaf = self.cfg.outer_ratio * domain.box_side(depth);
            let p2o_flops = profile.time(Phase::P2O, || {
                p2o(
                    &bp,
                    &self.rule,
                    a_leaf,
                    depth,
                    true,
                    &mut fh.far[depth as usize],
                )
            });
            profile.add_flops(Phase::P2O, p2o_flops);
            bps.push(bp);
            fhs.push(fh);
        }

        // Step 2: upward pass, all requests per level, down to level 2
        // like `upward_pass`.
        let ts = &self.translations;
        let mut tflops = profile.time(Phase::Upward, || {
            let mut acc = TraversalFlops::default();
            for l in (2..depth).rev() {
                acc += upward_level(&mut fhs, ts, plan, l, Aggregation::Gemm);
            }
            acc
        });

        // Step 3: downward pass (T2 + T3 are timed together; the
        // interactive field dominates, as in the paper).
        tflops += profile.time(Phase::Interactive, || {
            let mut acc = TraversalFlops::default();
            for l in 2..=depth {
                let agg = Aggregation::Gemm;
                acc += downward_level(&mut fhs, ts, plan, self.cfg.supernodes, agg, l);
            }
            acc
        });
        profile.add_flops(Phase::Upward, tflops.t1);
        profile.add_flops(Phase::Interactive, tflops.t2);
        profile.add_flops(Phase::Downward, tflops.t3);
        (bps, fhs, tflops)
    }

    /// The one evaluation pipeline: the paper's steps 0–5 for every
    /// request, each on its particles' bounding cube, with fields (−∇Φ)
    /// when `with_fields`. The requests share one traversal plan, their
    /// hierarchy sweeps run as one instance-major sweep and their potential
    /// near fields, f64 or mixed, as one symmetric row sweep; binning, P2O, leaf
    /// evaluation and the other near-field variants are particle-bound and
    /// run per request. [`Executor::Serial`] runs the whole pipeline
    /// [`serially`], so every phase, shared sweep or per request, splits
    /// its loops over threads only on [`Executor::Rayon`]: a batch runs
    /// like a solo call of its size, and each request's results are
    /// bitwise those of a batch of it alone.
    ///
    /// All requests must resolve to one hierarchy depth (fixed-depth
    /// configurations always do). Returns one [`EvalOutput`]: potentials
    /// and fields concatenated in request order, split by `offsets`,
    /// counters summed, the first request's domain.
    pub fn evaluate_requests(
        &self,
        requests: &[BatchRequest<'_>],
        with_fields: bool,
    ) -> Result<EvalOutput, FmmError> {
        // Inside the scope the pool has one thread, so this re-enters once.
        if self.cfg.effective_executor() == Executor::Serial && rayon::current_num_threads() > 1 {
            return serially(|| self.evaluate_requests(requests, with_fields));
        }
        if requests.is_empty() {
            return Err(FmmError::BadInput("empty batch".into()));
        }
        for (i, q) in requests.iter().enumerate() {
            q.validate()
                .map_err(|e| FmmError::BadInput(format!("request {i}: {e}")))?;
        }
        if let Executor::Spmd(workers) = self.cfg.effective_executor() {
            // The message-passing backend owns its whole pipeline, so the
            // requests go through it one by one (still bitwise per
            // request).
            let backend = SPMD_BACKEND.get().ok_or_else(|| {
                FmmError::InvalidConfig(
                    "Executor::Spmd selected but no backend installed; call fmm_spmd::install()"
                        .into(),
                )
            })?;
            let mut outs = requests.iter().map(|q| {
                let d = Domain::bounding(q.positions);
                backend(self, q.positions, q.charges, d, with_fields, workers)
            });
            let mut all = outs.next().expect("requests is not empty")?;
            for one in outs {
                let one = one?;
                all.potentials.extend(one.potentials);
                if let (Some(f), Some(g)) = (all.fields.as_mut(), one.fields) {
                    f.extend(g);
                }
                all.profile.merge(&one.profile);
                all.near_stats.merge(&one.near_stats);
                all.traversal_flops += one.traversal_flops;
                all.spmd = one.spmd;
                all.offsets.push(all.potentials.len());
            }
            return Ok(all);
        }
        let depth = self.cfg.depth.resolve(requests[0].positions.len());
        for (i, q) in requests.iter().enumerate() {
            let d = self.cfg.depth.resolve(q.positions.len());
            if d != depth {
                return Err(FmmError::BadInput(format!(
                    "request {i} resolves to depth {d}, batch is depth {depth}; \
                     batches must be depth-homogeneous"
                )));
            }
        }
        // One plan lookup for the whole batch: exactly one `plan_builds`
        // when the key is cold, zero when warm.
        let plan = self.plan_for(depth);
        let mut profile = Profile::new();
        let (bps, fhs, tflops) = self.far_field(requests, depth, &plan, &mut profile);

        // Step 4 per request: evaluate leaf inner approximations at the
        // particles, then free the request's hierarchy — nothing reads it
        // again — before the near field allocates.
        let mut fars = Vec::with_capacity(bps.len());
        for (bp, fh) in bps.iter().zip(fhs) {
            let mut far_pot = vec![0.0; bp.len()];
            let mut far_field = with_fields.then(|| vec![[0.0; 3]; bp.len()]);
            let b_leaf = self.cfg.inner_ratio * bp.domain.box_side(depth);
            let eval_flops = profile.time(Phase::Eval, || {
                eval_local(
                    bp,
                    &self.rule,
                    self.cfg.m_trunc,
                    b_leaf,
                    depth,
                    true,
                    &fh.local[depth as usize],
                    &mut far_pot,
                    far_field.as_deref_mut(),
                )
            });
            profile.add_flops(Phase::Eval, eval_flops);
            drop(fh);
            fars.push((far_pot, far_field));
        }

        // Step 5, potentials or forces, f64 or under `Precision::Mixed` in
        // f32 SIMD lanes (8 on AVX2, 16 on AVX-512) that leave the
        // traversal above in f64: the symmetric row sweep, all requests in
        // one sweep. Newton's third law halves the pair work, z mod 3
        // plane colours keep the parallel scatter conflict-free, and the
        // message-passing executor runs the identical arithmetic — all
        // backends are bitwise interchangeable. Its stats report
        // third-law-halved counts, identical to the sequential symmetric
        // sweep. Each request's near field lands in its own output slots
        // (sorted order, the field as three arrays), which the far + near
        // sum below reads and then overwrites: it takes no memory of its
        // own.
        let mixed = self.cfg.precision == Precision::Mixed;
        let eps = self.cfg.softening;
        let total: usize = bps.iter().map(BinnedParticles::len).sum();
        let mut potentials = vec![0.0; total];
        let mut fields = with_fields.then(|| vec![[0.0; 3]; total]);
        let near_stats = profile.time(Phase::Near, || {
            let field = fields.as_mut().map(|f| f.as_flattened_mut());
            near_field_into(plan.kernel, &bps, mixed, eps, &mut potentials, field)
        });
        profile.add_flops(Phase::Near, near_stats.flops);

        // Combine far + near and scatter back to original particle order.
        let mut offsets = vec![0];
        let mut start = 0;
        for (bp, (mut far_pot, mut far_field)) in bps.iter().zip(fars) {
            let (n, mine) = (bp.len(), start..start + bp.len());
            if let (Some(ff), Some(all)) = (far_field.as_mut(), fields.as_ref()) {
                let near_field = &all.as_flattened()[3 * start..3 * mine.end];
                for (i, f) in ff.iter_mut().enumerate() {
                    for d in 0..3 {
                        f[d] += near_field[d * n + i];
                    }
                }
            }
            for (f, near) in far_pot.iter_mut().zip(&potentials[mine.clone()]) {
                *f += near;
            }
            bp.binning
                .scatter_into(&far_pot, &mut potentials[mine.clone()]);
            if let (Some(all), Some(ff)) = (fields.as_mut(), far_field) {
                bp.binning.scatter_into(&ff, &mut all[mine.clone()]);
            }
            start = mine.end;
            offsets.push(start);
        }

        Ok(EvalOutput {
            potentials,
            fields,
            offsets,
            profile,
            depth,
            near_stats,
            traversal_flops: tflops,
            domain: bps[0].domain,
            spmd: None,
        })
    }
}

/// One box of [`p2o`]: fill leaf box `b`'s outer samples `g`. Returns the
/// flop count (0 for an empty box, whose samples are left untouched —
/// they start zeroed).
fn p2o_box(
    bp: &BinnedParticles,
    rule: &SphereRule,
    a_leaf: f64,
    depth: u32,
    b: usize,
    g: &mut [f64],
) -> u64 {
    let range = bp.range(b);
    if range.is_empty() {
        return 0;
    }
    let k = rule.len();
    let c = bp.domain.box_center(BoxCoord::from_index(depth, b));
    for (i, &s) in rule.points.iter().enumerate() {
        let sp = [
            c[0] + a_leaf * s[0],
            c[1] + a_leaf * s[1],
            c[2] + a_leaf * s[2],
        ];
        let mut acc = 0.0;
        for j in range.clone() {
            let d = [sp[0] - bp.x[j], sp[1] - bp.y[j], sp[2] - bp.z[j]];
            acc += bp.q[j] / norm(d);
        }
        g[i] = acc;
    }
    (range.len() * k) as u64 * 10
}

/// Leaf-level particle → outer samples: g_i = Σ_j q_j / |c + a s_i − x_j|.
/// Public (hidden) so the SPMD backend can run the identical per-box loop
/// on its locally-owned boxes. `parallel = false` runs it [`serially`];
/// the flag is kept only because `benchmark/` imports it (ROADMAP item 1).
#[doc(hidden)]
pub fn p2o(
    bp: &BinnedParticles,
    rule: &SphereRule,
    a_leaf: f64,
    depth: u32,
    parallel: bool,
    far_leaf: &mut [f64],
) -> u64 {
    if !parallel {
        return serially(|| p2o(bp, rule, a_leaf, depth, true, far_leaf));
    }
    let k = rule.len();
    let work = |(b, g): (usize, &mut [f64])| -> u64 { p2o_box(bp, rule, a_leaf, depth, b, g) };
    // det: the reduction sums integer flop counts; the float outputs land
    // in disjoint chunks, untouched by the combine order.
    far_leaf.par_chunks_mut(k).enumerate().map(work).sum()
}

/// Leaf-level inner samples → particle potentials (and fields). Public
/// (hidden) for the SPMD backend, like [`p2o`]; `parallel = false` runs it
/// [`serially`], and the flag is kept only because `benchmark/` imports it
/// (ROADMAP item 1).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn eval_local(
    bp: &BinnedParticles,
    rule: &SphereRule,
    m: usize,
    b_leaf: f64,
    depth: u32,
    parallel: bool,
    local_leaf: &[f64],
    pot: &mut [f64],
    fields: Option<&mut [[f64; 3]]>,
) -> u64 {
    if !parallel {
        return serially(|| eval_local(bp, rule, m, b_leaf, depth, true, local_leaf, pot, fields));
    }
    let k = rule.len();
    let mut pot_slices = per_box_slices(bp, pot);
    let mut field_slices: Vec<Option<&mut [[f64; 3]]>> = match fields {
        Some(f) => per_box_slices(bp, f).into_iter().map(Some).collect(),
        None => pot_slices.iter().map(|_| None).collect(),
    };

    #[allow(clippy::type_complexity)]
    let work = |(b, (po, fo)): (usize, (&mut &mut [f64], &mut Option<&mut [[f64; 3]]>))| -> u64 {
        let g = &local_leaf[b * k..(b + 1) * k];
        eval_box(bp, rule, m, b_leaf, depth, b, g, po, fo.as_deref_mut())
    };

    // det: integer flop-count reduction; floats stay in disjoint slices.
    pot_slices
        .par_iter_mut()
        .zip(field_slices.par_iter_mut())
        .enumerate()
        .map(work)
        .sum()
}

/// One box of [`eval_local`]: evaluate leaf box `b`'s inner samples `g` at
/// its particles, accumulating into the box's potential slice `po` (and
/// field slice `fo`). Returns the flop count.
#[allow(clippy::too_many_arguments)]
fn eval_box(
    bp: &BinnedParticles,
    rule: &SphereRule,
    m: usize,
    b_leaf: f64,
    depth: u32,
    b: usize,
    g: &[f64],
    po: &mut [f64],
    mut fo: Option<&mut [[f64; 3]]>,
) -> u64 {
    let range = bp.range(b);
    if range.is_empty() {
        return 0;
    }
    let k = rule.len();
    let c = bp.domain.box_center(BoxCoord::from_index(depth, b));
    let mut row = vec![0.0; k];
    let kg = if fo.is_some() { k } else { 0 };
    let mut grad_rows = [vec![0.0; kg], vec![0.0; kg], vec![0.0; kg]];
    for (idx, j) in range.clone().enumerate() {
        let x = [bp.x[j] - c[0], bp.y[j] - c[1], bp.z[j] - c[2]];
        if let Some(f) = fo.as_mut() {
            inner_kernel_row_with_grad(rule, m, b_leaf, x, &mut row, &mut grad_rows);
            for d in 0..3 {
                // field is −∇Φ
                f[idx][d] -= grad_rows[d]
                    .iter()
                    .zip(g)
                    .map(|(r, gg)| r * gg)
                    .sum::<f64>();
            }
        } else {
            inner_kernel_row(rule, m, b_leaf, x, &mut row);
        }
        po[idx] += row.iter().zip(g).map(|(r, gg)| r * gg).sum::<f64>();
    }
    (range.len() * k * (m + 1)) as u64 * 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FmmConfig;

    fn pseudo_points(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| [next(), next(), next()]).collect()
    }

    /// Uniform points with unit charges — the paper's gravitational-mass
    /// convention, under which its accuracy figures are quoted.
    fn pseudo_system(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        (pseudo_points(n, seed), vec![1.0; n])
    }

    /// Mixed-sign charges: a harsher relative-error metric because the
    /// reference potential fluctuates around zero.
    fn pseudo_mixed(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let pts = pseudo_points(n, seed);
        let mut state = seed ^ 0xabcdef;
        let q: Vec<f64> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        (pts, q)
    }

    fn direct(positions: &[[f64; 3]], charges: &[f64]) -> Vec<f64> {
        let n = positions.len();
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = [
                    positions[i][0] - positions[j][0],
                    positions[i][1] - positions[j][1],
                    positions[i][2] - positions[j][2],
                ];
                acc += charges[j] / norm(d);
            }
            out[i] = acc;
        }
        out
    }

    #[test]
    fn depth2_matches_direct_to_expected_accuracy() {
        let (pts, q) = pseudo_system(600, 42);
        let fmm = Fmm::new(FmmConfig::order(5).depth(2).sequential()).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        let reference = direct(&pts, &q);
        let stats = crate::error::relative_error_stats(&out.potentials, &reference);
        assert!(
            stats.rms_rel < 5e-4,
            "rms_rel = {:.2e} (digits {:.1})",
            stats.rms_rel,
            stats.digits()
        );
    }

    #[test]
    fn depth3_matches_direct() {
        let (pts, q) = pseudo_system(2000, 7);
        let fmm = Fmm::new(FmmConfig::order(5).depth(3)).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        let reference = direct(&pts, &q);
        let stats = crate::error::relative_error_stats(&out.potentials, &reference);
        assert!(
            stats.rms_rel < 5e-4,
            "rms_rel = {:.2e} (digits {:.1})",
            stats.rms_rel,
            stats.digits()
        );
    }

    #[test]
    fn supernodes_agree_with_plain_t2() {
        let (pts, q) = pseudo_system(1500, 11);
        let plain = Fmm::new(FmmConfig::order(5).depth(3).supernodes(false)).unwrap();
        let sup = Fmm::new(FmmConfig::order(5).depth(3).supernodes(true)).unwrap();
        let p1 = plain.evaluate(&pts, &q).unwrap().potentials;
        let p2 = sup.evaluate(&pts, &q).unwrap().potentials;
        let stats = crate::error::relative_error_stats(&p2, &p1);
        // Slight accuracy cost is expected (paper §2.3), but results must
        // agree to within the method's own accuracy scale.
        assert!(
            stats.rms_rel < 2e-3,
            "supernode deviation {:.2e}",
            stats.rms_rel
        );
    }

    #[test]
    fn parallel_matches_sequential_bitwise_phases() {
        let (pts, q) = pseudo_system(800, 13);
        let seq = Fmm::new(FmmConfig::order(3).depth(3).sequential()).unwrap();
        let par = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        let (a, b) = crate::threads(3).install(|| {
            let a = seq.evaluate(&pts, &q).unwrap().potentials;
            (a, par.evaluate(&pts, &q).unwrap().potentials)
        });
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn serial_executor_splits_no_region() {
        // `executor(Executor::Serial)` leaves the legacy `parallel` flag
        // set; the executor alone must decide. Serial runs every region as
        // one piece on the calling thread. Two pinned threads make the
        // Rayon side split even on a one-processor host.
        let (pts, q) = pseudo_system(300, 7);
        let requests = [BatchRequest {
            positions: &pts,
            charges: &q,
        }; 2];
        let regions = |executor: Executor| {
            let fmm = Fmm::new(FmmConfig::order(3).depth(2).executor(executor)).unwrap();
            crate::threads(2).install(|| {
                let before = rayon::regions_split();
                fmm.evaluate(&pts, &q).unwrap();
                fmm.evaluate_forces(&pts, &q).unwrap();
                fmm.evaluate_batch(&requests).unwrap();
                fmm.evaluate_requests(&requests, true).unwrap();
                rayon::regions_split() - before
            })
        };
        assert_eq!(regions(Executor::Serial), 0);
        assert!(regions(Executor::Rayon) > 0);
    }

    #[test]
    fn pinned_flags_map_false_onto_the_serial_scope() {
        // The eight signatures `benchmark/` imports keep their `parallel`
        // flag. Inside a three-thread install, `false` must split no region
        // and write the bits and counts of `true`, function by function.
        use crate::near::{near_field_forces_softened, near_field_travelling_with};
        use crate::near32::{near_field_forces_f32, near_field_potentials_f32};
        use crate::traversal::{downward_pass, upward_pass};
        let (pts, q) = pseudo_mixed(2000, 71);
        let fmm = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        let (plan, cfg, rule, ts) = (
            fmm.plan_for(3),
            fmm.config(),
            fmm.rule(),
            fmm.translations(),
        );
        let bp = BinnedParticles::build(&pts, &q, Domain::bounding(&pts), 3);
        let (sep, kernel, eps, gemm) = (cfg.separation, plan.kernel, 0.01, Aggregation::Gemm);
        let side = bp.domain.box_side(3);
        let (a_leaf, b_leaf, m) = (cfg.outer_ratio * side, cfg.inner_ratio * side, cfg.m_trunc);
        let names = "p2o upward_pass downward_pass eval_local near_field_travelling_with \
                     near_field_forces_softened near_field_forces_f32 near_field_potentials_f32";
        // Step `i` calls the `i`th name (the first four chain through `fh`)
        // and returns its counts, then `fh` and its outputs, as bits.
        let run = |i: usize, par: bool, fh: &mut FieldHierarchy| -> Vec<u64> {
            let (mut p, mut f) = (vec![0.0; bp.len()], vec![[0.0; 3]; bp.len()]);
            let counts = match i {
                0 => vec![p2o(&bp, rule, a_leaf, 3, par, &mut fh.far[3])],
                1 => vec![upward_pass(fh, ts, &plan, gemm, par).t1],
                2 => {
                    let fl = downward_pass(fh, ts, &plan, false, gemm, par);
                    vec![fl.t2, fl.t3]
                }
                3 => {
                    let fo = Some(&mut f[..]);
                    let fl = eval_local(&bp, rule, m, b_leaf, 3, par, &fh.local[3], &mut p, fo);
                    vec![fl]
                }
                _ => {
                    let st = match i {
                        4 => near_field_travelling_with(kernel, &bp, sep, par, eps, &mut p),
                        5 => near_field_forces_softened(&bp, sep, par, eps, &mut p, &mut f),
                        6 => near_field_forces_f32(kernel, &bp, sep, par, eps, &mut p, &mut f),
                        _ => {
                            let schedule = &plan.near_schedule;
                            near_field_potentials_f32(kernel, &bp, sep, schedule, par, eps, &mut p)
                        }
                    };
                    vec![st.pair_interactions, st.flops]
                }
            };
            let out = [fh.far.concat(), fh.local.concat(), p, f.concat()].concat();
            counts
                .into_iter()
                .chain(out.into_iter().map(f64::to_bits))
                .collect()
        };
        crate::threads(3).install(|| {
            let [mut a, mut b] = [0, 1].map(|_| FieldHierarchy::new(Hierarchy::new(3), fmm.k()));
            let start = rayon::regions_split();
            for (i, name) in names.split(' ').enumerate() {
                let before = rayon::regions_split();
                let serial = run(i, false, &mut a);
                let splits = rayon::regions_split() - before;
                assert_eq!(splits, 0, "{name}(parallel = false) split a region");
                let same = serial == run(i, true, &mut b);
                assert!(same, "{name}: parallel = false wrote other bits");
            }
            let split = rayon::regions_split() - start;
            assert!(split > 0, "no region split on three threads");
        });
    }

    #[test]
    fn fields_match_direct_forces() {
        let (pts, q) = pseudo_system(400, 17);
        let fmm = Fmm::new(FmmConfig::order(5).depth(2)).unwrap();
        let out = fmm.evaluate_forces(&pts, &q).unwrap();
        let fields = out.fields.unwrap();
        // Direct field at particle i: Σ q_j (x_i − x_j)/r³.
        let mut worst = 0.0f64;
        let mut fnorm = 0.0f64;
        for i in 0..pts.len() {
            let mut f = [0.0; 3];
            for j in 0..pts.len() {
                if i == j {
                    continue;
                }
                let d = [
                    pts[i][0] - pts[j][0],
                    pts[i][1] - pts[j][1],
                    pts[i][2] - pts[j][2],
                ];
                let r = norm(d);
                let c = q[j] / (r * r * r);
                for a in 0..3 {
                    f[a] += c * d[a];
                }
            }
            for a in 0..3 {
                worst = worst.max((f[a] - fields[i][a]).abs());
                fnorm = fnorm.max(f[a].abs());
            }
        }
        assert!(
            worst < 1e-2 * fnorm,
            "field error {:.2e} vs scale {:.2e}",
            worst,
            fnorm
        );
    }

    #[test]
    fn charge_superposition_linearity() {
        let (pts, q1) = pseudo_mixed(500, 19);
        let (_, q2) = pseudo_mixed(500, 23);
        let fmm = Fmm::new(FmmConfig::order(3).depth(2).sequential()).unwrap();
        let p1 = fmm.evaluate(&pts, &q1).unwrap().potentials;
        let p2 = fmm.evaluate(&pts, &q2).unwrap().potentials;
        let qs: Vec<f64> = q1.iter().zip(&q2).map(|(a, b)| a + b).collect();
        let ps = fmm.evaluate(&pts, &qs).unwrap().potentials;
        for i in 0..pts.len() {
            assert!(
                (ps[i] - p1[i] - p2[i]).abs() < 1e-9 * ps[i].abs().max(1.0),
                "superposition violated at {}",
                i
            );
        }
    }

    #[test]
    fn repeated_evaluate_reuses_plan_and_is_bitwise_identical() {
        let (pts, q) = pseudo_system(900, 41);
        let fmm = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        assert_eq!(fmm.plan_builds(), 0);
        let first = fmm.evaluate(&pts, &q).unwrap();
        assert_eq!(fmm.plan_builds(), 1);
        let second = fmm.evaluate(&pts, &q).unwrap();
        assert_eq!(
            fmm.plan_builds(),
            1,
            "second evaluate must reuse the cached traversal plan"
        );
        for (x, y) in first.potentials.iter().zip(&second.potentials) {
            assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
        }
        assert_eq!(first.near_stats, second.near_stats);
    }

    #[test]
    fn forced_kernels_match_across_executors_bitwise() {
        // Each kernel family must give one answer regardless of the
        // shared-memory executor (scalar parity across families is the
        // linalg proptests' job; families legitimately differ in the last
        // ulps from each other).
        let (pts, q) = pseudo_mixed(900, 53);
        for kernel in crate::Kernel::available() {
            let seq = Fmm::new(FmmConfig::order(3).depth(3).kernel(kernel).sequential()).unwrap();
            let par = Fmm::new(FmmConfig::order(3).depth(3).kernel(kernel)).unwrap();
            let a = seq.evaluate(&pts, &q).unwrap();
            let b = par.evaluate(&pts, &q).unwrap();
            for (x, y) in a.potentials.iter().zip(&b.potentials) {
                assert_eq!(x.to_bits(), y.to_bits(), "kernel {}", kernel.name());
            }
            assert_eq!(a.near_stats, b.near_stats);
            // Forces run the same row sweep, its plane tasks dealt into
            // more than one bin only on the parallel side.
            let a = seq.evaluate_forces(&pts, &q).unwrap();
            let b = par.evaluate_forces(&pts, &q).unwrap();
            for (x, y) in a.potentials.iter().zip(&b.potentials) {
                assert_eq!(x.to_bits(), y.to_bits(), "kernel {}", kernel.name());
            }
            let (fa, fb) = (a.fields.unwrap(), b.fields.unwrap());
            for (x, y) in fa.iter().flatten().zip(fb.iter().flatten()) {
                assert_eq!(x.to_bits(), y.to_bits(), "kernel {}", kernel.name());
            }
            assert_eq!(a.near_stats, b.near_stats);
        }
    }

    #[test]
    fn mixed_precision_tracks_f64() {
        let (pts, q) = pseudo_system(2000, 59);
        let f64_fmm = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        let f32_fmm = Fmm::new(FmmConfig::order(3).depth(3).precision(Precision::Mixed)).unwrap();
        let a = f64_fmm.evaluate(&pts, &q).unwrap();
        let b = f32_fmm.evaluate(&pts, &q).unwrap();
        // Near-field counters are identical; only the arithmetic width
        // changes, and only in the near field.
        assert_eq!(
            a.near_stats.pair_interactions,
            b.near_stats.pair_interactions
        );
        for (x, y) in a.potentials.iter().zip(&b.potentials) {
            assert!(
                (x - y).abs() <= 1e-5 * x.abs().max(1.0),
                "mixed near field drifted: {} vs {}",
                x,
                y
            );
        }
    }

    #[test]
    fn near_stats_report_halved_symmetric_counts() {
        // The driver's potentials path uses the symmetric sweep, whose
        // pair counter records each interaction once (Newton's third law),
        // matching the sequential symmetric oracle exactly.
        let (pts, q) = pseudo_system(700, 43);
        let domain = Domain::bounding(&pts);
        let fmm = Fmm::new(FmmConfig::order(3).depth(2)).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        let bp = BinnedParticles::build(&pts, &q, domain, 2);
        let (_, sym) = crate::near::near_field_symmetric(&bp);
        assert_eq!(out.near_stats, sym);
    }

    #[test]
    fn cost_model_charges_the_t2_rows_serial_multiplies() {
        // `leaf_costs` prices each box's T2 by the decomposition the run
        // uses: with no particles, its total less the T1 and T3 charges
        // is Serial's T2 flop count, with supernodes on and off.
        use fmm_tree::partition::{leaf_costs, CostModel};
        let (pts, q) = pseudo_system(300, 5);
        let deepest = if cfg!(debug_assertions) { 4 } else { 5 };
        for depth in 3..=deepest {
            for supernodes in [false, true] {
                let cfg = FmmConfig::order(3).depth(depth).supernodes(supernodes);
                let fmm = Fmm::new(cfg.executor(Executor::Serial)).unwrap();
                let t2 = fmm.evaluate(&pts, &q).unwrap().traversal_flops.t2;
                let model = CostModel {
                    k: fmm.k(),
                    m_trunc: fmm.config().m_trunc,
                    with_fields: false,
                    supernodes,
                };
                let costs = leaf_costs(depth, &model, &vec![0; 1 << (3 * depth)]);
                let row = fmm_linalg::gemm_flops(1, fmm.k(), fmm.k());
                let boxes = |l: u32| 1u64 << (3 * l);
                let t1 = (2..depth).map(|l| 8 * boxes(l)).sum::<u64>() * row;
                let t3 = (3..=depth).map(boxes).sum::<u64>() * row;
                let what = format!("depth {depth} supernodes={supernodes}");
                assert_eq!(costs.iter().sum::<u64>() - t1 - t3, t2, "{what}");
            }
        }
    }

    #[test]
    fn cost_model_charges_the_near_flops_serial_counts() {
        // Σ over leaves of `leaf_costs`' near-field term — the costs less
        // those of an empty grid and the per-particle P2O and evaluation
        // charges — is Serial's near-field flop count, potentials and
        // forces, uniform and crowded.
        use fmm_tree::partition::{leaf_costs, CostModel};
        let (mut pts, q) = pseudo_system(3000, 23);
        for p in pts.iter_mut().take(2000) {
            *p = p.map(|c| 0.4 + 0.2 * c);
        }
        for depth in [3, 4] {
            let fmm =
                Fmm::new(FmmConfig::order(3).depth(depth).executor(Executor::Serial)).unwrap();
            let domain = Domain::bounding(&pts);
            let mut counts = vec![0; 1 << (3 * depth)];
            for &p in &pts {
                counts[domain.locate(p, depth).index()] += 1;
            }
            for with_fields in [false, true] {
                let out = if with_fields {
                    fmm.evaluate_forces(&pts, &q)
                } else {
                    fmm.evaluate(&pts, &q)
                };
                let (k, m) = (fmm.k() as u64, fmm.config().m_trunc as u64);
                let model = CostModel {
                    k: fmm.k(),
                    m_trunc: fmm.config().m_trunc,
                    with_fields,
                    supernodes: fmm.config().supernodes,
                };
                let total = |c: &[usize]| leaf_costs(depth, &model, c).iter().sum::<u64>();
                let per_particle = pts.len() as u64 * (10 * k + 6 * k * (m + 1));
                let near = total(&counts) - total(&vec![0; counts.len()]) - per_particle;
                let what = format!("depth {depth} forces={with_fields}");
                assert_eq!(near, out.unwrap().near_stats.flops, "{what}");
            }
        }
    }

    #[test]
    fn input_validation() {
        let fmm = Fmm::new(FmmConfig::order(3)).unwrap();
        assert!(matches!(fmm.evaluate(&[], &[]), Err(FmmError::BadInput(_))));
        assert!(matches!(
            fmm.evaluate(&[[0.0; 3]], &[1.0, 2.0]),
            Err(FmmError::BadInput(_))
        ));
        assert!(matches!(
            Fmm::new(FmmConfig::order(3).radii(0.1, 0.1)),
            Err(FmmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn profile_is_populated() {
        let (pts, q) = pseudo_system(1000, 29);
        let fmm = Fmm::new(FmmConfig::order(3).depth(3)).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap();
        assert!(out.profile.total_flops() > 0);
        assert!(out.profile.phase_flops(Phase::Interactive) > 0);
        assert!(out.profile.phase_flops(Phase::Near) > 0);
        assert_eq!(out.depth, 3);
    }

    /// The profile must book a phase's time and its flops to the same
    /// phase. On the translation-bound configuration (K = 120, depth 3)
    /// the T2 GEMMs are ~99% of the flops, 512 of the 576 T2 boxes sit at
    /// the leaf level, and leaf evaluation is a few percent — so T2 must
    /// be the longer phase, and its rate cannot beat the GEMM kernel.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing attribution: release only")]
    fn profile_books_time_and_flops_to_the_same_phase() {
        let (pts, q) = pseudo_system(8192, 61);
        let fmm = Fmm::new(FmmConfig::order(14).depth(3)).unwrap();
        fmm.evaluate(&pts, &q).unwrap();
        let profile = fmm.evaluate(&pts, &q).unwrap().profile;
        assert!(
            profile.phase_time(Phase::Interactive) > profile.phase_time(Phase::Eval),
            "T2 {:?} vs eval {:?}",
            profile.phase_time(Phase::Interactive),
            profile.phase_time(Phase::Eval)
        );

        // Same-run single-thread GEMM rate on a cache-resident square.
        let n = 128;
        let a: Vec<f64> = (0..n * n).map(|i| (i % 97) as f64 * 0.013).collect();
        let b: Vec<f64> = (0..n * n).map(|i| (i % 89) as f64 * 0.017).collect();
        let mut c = vec![0.0; n * n];
        let reps = 16;
        let best = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    fmm_linalg::gemm_acc(n, n, n, &a, &b, &mut c);
                }
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let probe = reps as f64 * fmm_linalg::gemm_flops(n, n, n) as f64 / best / 1e9;
        let bound = 2.0 * probe * rayon::current_num_threads() as f64;
        assert!(
            profile.phase_gflops(Phase::Interactive) <= bound,
            "T2 at {:.1} Gflop/s, GEMM probe {probe:.1} Gflop/s per thread",
            profile.phase_gflops(Phase::Interactive)
        );
    }
}
