//! The end-to-end FMM driver: the five steps of the paper's generic
//! hierarchical method, wired together with binning, translation matrices
//! and per-phase profiling.

use crate::batch::{first_non_finite, BatchRequest};
use crate::config::{Executor, FmmConfig, Precision};
use crate::field::FieldHierarchy;
use crate::near::{near_field_forces_softened_with, travelling_sweep, NearFieldStats};
use crate::near32::{near_field_forces_f32, near_field_potentials_f32};
use crate::particles::BinnedParticles;
use crate::plan::TraversalPlan;
use crate::registry::{PlanKey, PlanRegistry};
use crate::stats::{Phase, Profile, SpmdReport};
use crate::translations::TranslationSet;
use crate::traversal::{
    downward_level, downward_pass, upward_level, upward_pass, Aggregation, TraversalFlops,
};
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
}

impl fmt::Display for FmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmmError::InvalidConfig(s) => write!(f, "invalid configuration: {}", s),
            FmmError::BadInput(s) => write!(f, "bad input: {}", s),
        }
    }
}

impl std::error::Error for FmmError {}

/// Result of one evaluation.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// Potential at every input particle (original order).
    pub potentials: Vec<f64>,
    /// Field −∇Φ at every particle, when requested.
    pub fields: Option<Vec<[f64; 3]>>,
    /// Per-phase timing and flops.
    pub profile: Profile,
    /// Hierarchy depth used.
    pub depth: u32,
    /// Near-field counters.
    pub near_stats: NearFieldStats,
    /// Traversal flop counters.
    pub traversal_flops: TraversalFlops,
    /// The domain the hierarchy was built on.
    pub domain: Domain,
    /// Measured per-phase communication when the run used
    /// [`Executor::Spmd`]; `None` for the shared-memory backends.
    pub spmd: Option<SpmdReport>,
}

/// Entry point of the message-passing backend, installed by
/// `fmm_spmd::install()`. Takes the configured instance, the inputs of one
/// evaluation, and the executor options from [`Executor::Spmd`].
pub type SpmdBackend = fn(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    domain: Domain,
    with_fields: bool,
    opts: crate::config::SpmdOptions,
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
/// them across evaluations and levels).
pub struct Fmm {
    pub(crate) cfg: FmmConfig,
    pub(crate) rule: SphereRule,
    pub(crate) translations: TranslationSet,
    /// Plan registry this instance resolves its traversal plans from. A
    /// private registry by default (preserving per-instance `plan_builds`
    /// semantics); services share one process-wide registry across many
    /// instances via [`Fmm::with_registry`].
    registry: Arc<PlanRegistry>,
}

impl Fmm {
    /// Build an instance: validates the configuration and precomputes the
    /// translation matrices. Plans are cached in a private
    /// [`PlanRegistry`]; use [`Fmm::with_registry`] to share one.
    pub fn new(cfg: FmmConfig) -> Result<Self, FmmError> {
        Self::with_registry(
            cfg,
            Arc::new(PlanRegistry::new(PlanRegistry::DEFAULT_CAPACITY)),
        )
    }

    /// [`Fmm::new`] resolving plans from a shared registry — the
    /// "millions of users" configuration: every instance whose
    /// `(depth, K, separation, executor, kernel, precision)` shape matches
    /// an already-admitted plan reuses it without building.
    pub fn with_registry(cfg: FmmConfig, registry: Arc<PlanRegistry>) -> Result<Self, FmmError> {
        cfg.validate().map_err(FmmError::InvalidConfig)?;
        let rule = cfg.rule();
        let translations = TranslationSet::build(
            &rule,
            cfg.m_trunc,
            cfg.outer_ratio,
            cfg.inner_ratio,
            cfg.separation,
            cfg.supernodes,
        );
        Ok(Fmm {
            cfg,
            rule,
            translations,
            registry,
        })
    }

    /// The registry key this instance uses for plans at `depth`.
    pub fn plan_key(&self, depth: u32) -> PlanKey {
        PlanKey {
            depth,
            k: self.rule.len(),
            separation: self.cfg.separation,
            executor: self.cfg.effective_executor(),
            kernel: self.cfg.resolve_kernel(),
            precision: self.cfg.precision,
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

    /// The plan registry this instance resolves from.
    pub fn plan_registry(&self) -> &Arc<PlanRegistry> {
        &self.registry
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

    /// Whether this instance's phases open parallel regions: only on
    /// [`Executor::Rayon`]. `Executor::Serial` keeps every phase on the
    /// calling thread, whatever the legacy `parallel` flag says.
    fn parallel(&self) -> bool {
        self.cfg.effective_executor() == Executor::Rayon
    }

    /// Number of sphere integration points K.
    pub fn k(&self) -> usize {
        self.rule.len()
    }

    /// Evaluate potentials with the domain inferred from the particles'
    /// bounding cube.
    pub fn evaluate(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
    ) -> Result<EvalOutput, FmmError> {
        self.solo(positions, charges, None, false)
    }

    /// Evaluate potentials on an explicit domain.
    pub fn evaluate_in(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
        domain: Domain,
    ) -> Result<EvalOutput, FmmError> {
        self.solo(positions, charges, Some(domain), false)
    }

    /// Evaluate potentials and fields (−∇Φ).
    pub fn evaluate_forces(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
    ) -> Result<EvalOutput, FmmError> {
        self.solo(positions, charges, None, true)
    }

    /// A solo evaluation is a batch of one.
    fn solo(
        &self,
        positions: &[[f64; 3]],
        charges: &[f64],
        domain: Option<Domain>,
        with_fields: bool,
    ) -> Result<EvalOutput, FmmError> {
        let request = BatchRequest { positions, charges };
        let (out, _) = self.run(&[request], domain, with_fields)?;
        Ok(out)
    }

    /// Evaluate the potential at arbitrary target points (not necessarily
    /// source particles). Targets coinciding with a source see that
    /// source's contribution skipped only if they coincide *exactly*.
    ///
    /// The far field is read from the leaf inner approximations of the
    /// target's box; the near field is summed directly over the source
    /// particles of the d-separation neighbourhood — the same split the
    /// paper uses for the sources themselves.
    pub fn evaluate_at(
        &self,
        targets: &[[f64; 3]],
        positions: &[[f64; 3]],
        charges: &[f64],
    ) -> Result<Vec<f64>, FmmError> {
        BatchRequest { positions, charges }
            .validate()
            .map_err(FmmError::BadInput)?;
        if let Some(i) = first_non_finite(targets) {
            return Err(FmmError::BadInput(format!(
                "target {i} is not finite: {:?}",
                targets[i]
            )));
        }
        // The domain must cover sources and targets.
        let mut all: Vec<[f64; 3]> = Vec::with_capacity(positions.len() + targets.len());
        all.extend_from_slice(positions);
        all.extend_from_slice(targets);
        let domain = Domain::bounding(&all);
        drop(all);

        let depth = self.cfg.depth.resolve(positions.len());
        let k = self.k();
        let par = self.parallel();
        let plan = self.plan_for(depth);
        let bp = BinnedParticles::build(positions, charges, domain, depth);
        let mut fh = FieldHierarchy::new(Hierarchy::new(depth), k);
        let leaf_side = domain.box_side(depth);
        let a_leaf = self.cfg.outer_ratio * leaf_side;
        p2o(
            &bp,
            &self.rule,
            a_leaf,
            depth,
            par,
            &mut fh.far[depth as usize],
        );
        upward_pass(&mut fh, &self.translations, &plan, Aggregation::Gemm, par);
        downward_pass(
            &mut fh,
            &self.translations,
            &plan,
            self.cfg.supernodes,
            Aggregation::Gemm,
            par,
        );

        let b_leaf = self.cfg.inner_ratio * leaf_side;
        let m = self.cfg.m_trunc;
        let near_offsets = fmm_tree::near_field_offsets(self.cfg.separation);
        let local_leaf = &fh.local[depth as usize];
        let eval_one = |row: &mut [f64], t: &[f64; 3]| -> f64 {
            let b = domain.locate(*t, depth);
            let c = domain.box_center(b);
            inner_kernel_row(
                &self.rule,
                m,
                b_leaf,
                [t[0] - c[0], t[1] - c[1], t[2] - c[2]],
                row,
            );
            let g = &local_leaf[b.index() * k..(b.index() + 1) * k];
            let mut pot: f64 = row.iter().zip(g).map(|(r, gg)| r * gg).sum();
            // Near field: own box + neighbours, direct.
            let mut near_box = |bb: BoxCoord| {
                for s in bp.range(bb.index()) {
                    let dx = t[0] - bp.x[s];
                    let dy = t[1] - bp.y[s];
                    let dz = t[2] - bp.z[s];
                    let r2 = dx * dx + dy * dy + dz * dz;
                    if r2 > 0.0 {
                        pot += bp.q[s] / r2.sqrt();
                    }
                }
            };
            near_box(b);
            for &d in &near_offsets {
                if let Some(nb) = b.offset(d) {
                    near_box(nb);
                }
            }
            pot
        };
        // One kernel-row buffer per chunk of targets, not per target.
        const CHUNK: usize = 256;
        let mut out = vec![0.0; targets.len()];
        let eval_chunk = |(c, o): (usize, &mut [f64])| {
            let mut row = vec![0.0; k];
            for (oi, t) in o.iter_mut().zip(&targets[c * CHUNK..]) {
                *oi = eval_one(&mut row, t);
            }
        };
        if par {
            out.par_chunks_mut(CHUNK).enumerate().for_each(eval_chunk);
        } else {
            out.chunks_mut(CHUNK).enumerate().for_each(eval_chunk);
        }
        Ok(out)
    }

    /// The one pipeline behind every `evaluate*` and `evaluate_batch*`:
    /// the requests share one traversal plan, their hierarchy sweeps run as
    /// one instance-major sweep and their f64 potential near fields as one
    /// travelling sweep; binning, P2O, leaf evaluation and the other
    /// near-field variants are particle-bound and run per request.
    ///
    /// `domain` overrides the bounding cube (solo `evaluate_in` only).
    /// Every phase, shared sweep or per request, follows
    /// [`Fmm::parallel`], so a batch runs like a solo call of its size.
    ///
    /// Returns the batch as one [`EvalOutput`] — potentials and fields
    /// concatenated in request order, counters summed, the first request's
    /// domain — and the offsets of each request's slice in it.
    pub(crate) fn run(
        &self,
        requests: &[BatchRequest<'_>],
        domain: Option<Domain>,
        with_fields: bool,
    ) -> Result<(EvalOutput, Vec<usize>), FmmError> {
        if requests.is_empty() {
            return Err(FmmError::BadInput("empty batch".into()));
        }
        for (i, q) in requests.iter().enumerate() {
            q.validate()
                .map_err(|e| FmmError::BadInput(format!("request {i}: {e}")))?;
        }
        let domain_of = |q: &BatchRequest| domain.unwrap_or_else(|| Domain::bounding(q.positions));
        let mut offsets = Vec::with_capacity(requests.len() + 1);
        offsets.push(0usize);

        if let Executor::Spmd(opts) = self.cfg.effective_executor() {
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
                let d = domain_of(q);
                backend(self, q.positions, q.charges, d, with_fields, opts)
            });
            let mut all = outs.next().expect("requests is not empty")?;
            offsets.push(all.potentials.len());
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
                offsets.push(all.potentials.len());
            }
            return Ok((all, offsets));
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
        let k = self.k();
        let par = self.parallel();
        // One plan lookup for the whole batch: exactly one `plan_builds`
        // when the key is cold, zero when warm.
        let plan = self.plan_for(depth);
        let mut profile = Profile::new();

        // Steps 0–1 per request: coordinate sort / binning (paper §3.2)
        // and leaf-level outer approximations (P2O).
        let mut bps: Vec<BinnedParticles> = Vec::with_capacity(requests.len());
        let mut fhs: Vec<FieldHierarchy> = Vec::with_capacity(requests.len());
        for q in requests {
            let domain = domain_of(q);
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
                    par,
                    &mut fh.far[depth as usize],
                )
            });
            profile.add_flops(Phase::P2O, p2o_flops);
            bps.push(bp);
            fhs.push(fh);
        }

        // Step 2: upward pass, all requests per level (a no-op below
        // depth 3, like `upward_pass`).
        let ts = &self.translations;
        let mut tflops = profile.time(Phase::Upward, || {
            let mut acc = TraversalFlops::default();
            if depth >= 3 {
                for l in (1..depth).rev() {
                    acc += upward_level(&mut fhs, ts, &plan, l, Aggregation::Gemm, par);
                }
            }
            acc
        });

        // Step 3: downward pass (T2 + T3 are timed together; the
        // interactive field dominates, as in the paper).
        tflops += profile.time(Phase::Interactive, || {
            let mut acc = TraversalFlops::default();
            for l in 2..=depth {
                let agg = Aggregation::Gemm;
                acc += downward_level(&mut fhs, ts, &plan, self.cfg.supernodes, agg, par, l);
            }
            acc
        });
        profile.add_flops(Phase::Upward, tflops.t1);
        profile.add_flops(Phase::Interactive, tflops.t2);
        profile.add_flops(Phase::Downward, tflops.t3);

        // Step 5 for f64 potentials: the travelling-accumulator near field,
        // all requests in one sweep. Newton's third law halves the pair
        // work, the ordered unit steps keep the parallel scatter
        // conflict-free, and the message-passing executor runs the
        // identical arithmetic — all backends are bitwise interchangeable.
        // Its stats report third-law-halved counts, identical to the
        // sequential symmetric sweep.
        let mixed = self.cfg.precision == Precision::Mixed;
        let travelling = !with_fields && !mixed;
        let sep = self.cfg.separation;
        let eps = self.cfg.softening;
        let mut near_pots: Vec<Vec<f64>> = bps.iter().map(|bp| vec![0.0; bp.len()]).collect();
        let mut near_stats = NearFieldStats::default();
        if travelling {
            let mut outs: Vec<&mut [f64]> = near_pots.iter_mut().map(Vec::as_mut_slice).collect();
            near_stats = profile.time(Phase::Near, || {
                travelling_sweep(plan.kernel, &bps, sep, par, eps, &mut outs)
            });
        }

        // Per request: step 4, evaluate leaf inner approximations at the
        // particles; step 5 for forces and for `Precision::Mixed`, whose f32
        // SIMD sweeps (8 lanes on AVX2, 16 on AVX-512) leave the traversal
        // above in f64; then combine and scatter back to original particle
        // order.
        let total: usize = bps.iter().map(BinnedParticles::len).sum();
        let mut potentials = vec![0.0; total];
        let mut fields = with_fields.then(|| vec![[0.0; 3]; total]);
        let mut start = 0;
        for ((bp, fh), near_pot) in bps.iter().zip(fhs).zip(&mut near_pots) {
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
                    par,
                    &fh.local[depth as usize],
                    &mut far_pot,
                    far_field.as_deref_mut(),
                )
            });
            profile.add_flops(Phase::Eval, eval_flops);
            // Nothing reads the hierarchy again: free it before the near
            // field allocates.
            drop(fh);

            if !travelling {
                let st = profile.time(Phase::Near, || match far_field.as_mut() {
                    Some(ff) => {
                        let mut near_f = vec![[0.0; 3]; bp.len()];
                        let forces = if mixed {
                            near_field_forces_f32
                        } else {
                            near_field_forces_softened_with
                        };
                        let st = forces(plan.kernel, bp, sep, par, eps, near_pot, &mut near_f);
                        for (a, b) in ff.iter_mut().zip(&near_f) {
                            for d in 0..3 {
                                a[d] += b[d];
                            }
                        }
                        st
                    }
                    // Mixed-precision potentials run the colored symmetric
                    // schedule recorded on the plan.
                    None => near_field_potentials_f32(
                        plan.kernel,
                        bp,
                        sep,
                        &plan.near_schedule,
                        par,
                        eps,
                        near_pot,
                    ),
                });
                near_stats.merge(&st);
            }

            for (f, n) in far_pot.iter_mut().zip(near_pot.iter()) {
                *f += n;
            }
            let mine = start..start + bp.len();
            bp.binning
                .scatter_into(&far_pot, &mut potentials[mine.clone()]);
            if let (Some(all), Some(ff)) = (fields.as_mut(), far_field) {
                bp.binning.scatter_into(&ff, &mut all[mine.clone()]);
            }
            start = mine.end;
            offsets.push(start);
        }
        profile.add_flops(Phase::Near, near_stats.flops);

        let out = EvalOutput {
            potentials,
            fields,
            profile,
            depth,
            near_stats,
            traversal_flops: tflops,
            domain: bps[0].domain,
            spmd: None,
        };
        Ok((out, offsets))
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
/// on its locally-owned boxes.
#[doc(hidden)]
pub fn p2o(
    bp: &BinnedParticles,
    rule: &SphereRule,
    a_leaf: f64,
    depth: u32,
    parallel: bool,
    far_leaf: &mut [f64],
) -> u64 {
    let k = rule.len();
    let work = |(b, g): (usize, &mut [f64])| -> u64 { p2o_box(bp, rule, a_leaf, depth, b, g) };
    // det: the reduction sums integer flop counts; the float outputs land
    // in disjoint chunks, untouched by the combine order.
    if parallel {
        far_leaf.par_chunks_mut(k).enumerate().map(work).sum()
    } else {
        far_leaf.chunks_mut(k).enumerate().map(work).sum()
    }
}

/// Leaf-level inner samples → particle potentials (and fields). Public
/// (hidden) for the SPMD backend, like [`p2o`].
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
    mut fields: Option<&mut [[f64; 3]]>,
) -> u64 {
    let k = rule.len();
    let n_boxes = 1usize << (3 * depth);

    // Split outputs per box (contiguous ranges).
    let mut pot_slices: Vec<&mut [f64]> = Vec::with_capacity(n_boxes);
    {
        let mut rest: &mut [f64] = pot;
        for b in 0..n_boxes {
            let (head, tail) = rest.split_at_mut(bp.binning.count(b));
            pot_slices.push(head);
            rest = tail;
        }
    }
    let mut field_slices: Vec<Option<&mut [[f64; 3]]>> = Vec::with_capacity(n_boxes);
    match fields.as_mut() {
        Some(f) => {
            let mut rest: &mut [[f64; 3]] = f;
            for b in 0..n_boxes {
                let (head, tail) = rest.split_at_mut(bp.binning.count(b));
                field_slices.push(Some(head));
                rest = tail;
            }
        }
        None => field_slices.resize_with(n_boxes, || None),
    }

    #[allow(clippy::type_complexity)]
    let work = |(b, (po, fo)): (usize, (&mut &mut [f64], &mut Option<&mut [[f64; 3]]>))| -> u64 {
        let g = &local_leaf[b * k..(b + 1) * k];
        eval_box(bp, rule, m, b_leaf, depth, b, g, po, fo.as_deref_mut())
    };

    // det: integer flop-count reduction; floats stay in disjoint slices.
    if parallel {
        pot_slices
            .par_iter_mut()
            .zip(field_slices.par_iter_mut())
            .enumerate()
            .map(work)
            .sum()
    } else {
        pot_slices
            .iter_mut()
            .zip(field_slices.iter_mut())
            .enumerate()
            .map(work)
            .sum()
    }
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
        let a = seq.evaluate(&pts, &q).unwrap().potentials;
        let b = par.evaluate(&pts, &q).unwrap().potentials;
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9 * x.abs().max(1.0));
        }
    }

    #[test]
    fn serial_executor_opens_no_parallel_region() {
        // `executor(Executor::Serial)` leaves the legacy `parallel` flag
        // set; the executor alone must decide. Two pinned threads make the
        // Rayon side split even on a one-processor host.
        let (pts, q) = pseudo_system(300, 7);
        let requests = [BatchRequest {
            positions: &pts,
            charges: &q,
        }; 2];
        let regions = |executor: Executor| {
            let fmm = Fmm::new(FmmConfig::order(3).depth(2).executor(executor)).unwrap();
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(2)
                .build()
                .unwrap();
            pool.install(|| {
                let before = rayon::regions_opened();
                fmm.evaluate(&pts, &q).unwrap();
                fmm.evaluate_forces(&pts, &q).unwrap();
                fmm.evaluate_at(&pts[..5], &pts, &q).unwrap();
                fmm.evaluate_batch(&requests).unwrap();
                rayon::regions_opened() - before
            })
        };
        assert_eq!(regions(Executor::Serial), 0);
        assert!(regions(Executor::Rayon) > 0);
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
        let domain = Domain::bounding(&pts);
        let fmm = Fmm::new(FmmConfig::order(3).depth(2).sequential()).unwrap();
        let p1 = fmm.evaluate_in(&pts, &q1, domain).unwrap().potentials;
        let p2 = fmm.evaluate_in(&pts, &q2, domain).unwrap().potentials;
        let qs: Vec<f64> = q1.iter().zip(&q2).map(|(a, b)| a + b).collect();
        let ps = fmm.evaluate_in(&pts, &qs, domain).unwrap().potentials;
        for i in 0..pts.len() {
            assert!(
                (ps[i] - p1[i] - p2[i]).abs() < 1e-9 * ps[i].abs().max(1.0),
                "superposition violated at {}",
                i
            );
        }
    }

    #[test]
    fn evaluate_at_matches_direct_at_off_particle_points() {
        let (pts, q) = pseudo_system(1200, 31);
        let fmm = Fmm::new(FmmConfig::order(5).depth(3)).unwrap();
        // Probe points strictly inside the cube, away from particles.
        let targets: Vec<[f64; 3]> = (0..50)
            .map(|i| {
                let f = i as f64 / 50.0;
                [
                    0.1 + 0.8 * f,
                    0.5 + 0.3 * (f * 9.0).sin() * 0.5,
                    0.3 + 0.5 * f,
                ]
            })
            .collect();
        let approx = fmm.evaluate_at(&targets, &pts, &q).unwrap();
        for (t, a) in targets.iter().zip(&approx) {
            let exact: f64 = pts
                .iter()
                .zip(&q)
                .map(|(p, qq)| {
                    let d = [t[0] - p[0], t[1] - p[1], t[2] - p[2]];
                    qq / norm(d)
                })
                .sum();
            assert!(
                (a - exact).abs() < 2e-3 * exact.abs().max(1.0),
                "target {:?}: {} vs {}",
                t,
                a,
                exact
            );
        }
    }

    #[test]
    fn evaluate_at_particle_positions_matches_evaluate() {
        let (pts, q) = pseudo_system(800, 37);
        let fmm = Fmm::new(FmmConfig::order(5).depth(3).sequential()).unwrap();
        let at = fmm.evaluate_at(&pts, &pts, &q).unwrap();
        let out = fmm.evaluate(&pts, &q).unwrap().potentials;
        // evaluate_at skips exactly-coincident sources, so at a particle's
        // own position the two agree.
        for (a, b) in at.iter().zip(&out) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{} vs {}", a, b);
        }
        // 800 targets are three chunks of 256 and a tail; the parallel
        // path walks the same chunks.
        let par = Fmm::new(FmmConfig::order(5).depth(3)).unwrap();
        let at_par = par.evaluate_at(&pts, &pts, &q).unwrap();
        assert!(at
            .iter()
            .zip(&at_par)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
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
            // Forces go through the target-centric sweep, cut into pieces
            // only on the parallel side.
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
        let out = fmm.evaluate_in(&pts, &q, domain).unwrap();
        let bp = BinnedParticles::build(&pts, &q, domain, 2);
        let (_, sym) = crate::near::near_field_symmetric(&bp, fmm.config().separation);
        assert_eq!(out.near_stats, sym);
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
