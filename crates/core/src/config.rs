//! Configuration of the method: integration order, truncation, sphere
//! radii, hierarchy depth, supernodes. The near-field separation is the
//! method's two ([`fmm_tree::SEPARATION`]).

use fmm_linalg::Kernel;
use fmm_sphere::SphereRule;
use fmm_tree::{Separation, SEPARATION};

/// How the hierarchy depth is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DepthPolicy {
    /// Fixed depth h (leaf level has 8^h boxes).
    Fixed(u32),
    /// Choose h so the mean number of particles per leaf box is closest to
    /// the target — the paper's "optimal hierarchy depth" balancing the
    /// hierarchy traversal against the near-field direct evaluation
    /// (§2.3). The optimum target grows with K (traversal cost ∝ K²).
    Auto {
        /// Desired mean particles per leaf box.
        particles_per_leaf: f64,
    },
}

impl DepthPolicy {
    /// Resolve the policy for `n` particles. Depth is clamped to [2, 10]
    /// (levels below 2 have no interactive field; 10 is an index-width
    /// guard far beyond single-host memory).
    pub fn resolve(&self, n: usize) -> u32 {
        match *self {
            DepthPolicy::Fixed(h) => h.clamp(2, 10),
            DepthPolicy::Auto { particles_per_leaf } => {
                let target = particles_per_leaf.max(1.0);
                let mut best = 2u32;
                let mut best_cost = f64::INFINITY;
                for h in 2..=10u32 {
                    let leaves = (1u64 << (3 * h)) as f64;
                    let per_leaf = n as f64 / leaves;
                    // log-distance to the target occupancy
                    let cost = (per_leaf / target).ln().abs();
                    if cost < best_cost {
                        best_cost = cost;
                        best = h;
                    }
                }
                best
            }
        }
    }
}

/// Which execution backend carries the five phases.
///
/// All backends are bitwise interchangeable for fixed inputs: `Serial`
/// and `Rayon` share one code path whose parallel loops are
/// write-disjoint, and `Spmd` (provided by the `fmm-spmd` crate) runs
/// the same arithmetic per worker, moving data only in explicit messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Executor {
    /// Single-threaded reference execution: the `Rayon` path in a
    /// one-thread scope of the pool ([`crate::serially`]).
    Serial,
    /// Shared-memory parallelism over rayon iterators (the default).
    Rayon,
    /// Message-passing SPMD execution: this many worker ranks (a power
    /// of two) acting as VUs, threads of this process talking over
    /// channels. Ranks in other processes are a launch, not an executor:
    /// `fmm_spmd::evaluate_distributed`.
    Spmd(usize),
}

impl Executor {
    /// `workers` SPMD ranks: the same as `Executor::Spmd(workers)`.
    pub fn spmd(workers: usize) -> Executor {
        Executor::Spmd(workers)
    }
}

/// Arithmetic precision tier for `evaluate()`.
///
/// The hierarchy traversal (translations, outer/inner expansions) always
/// runs in f64 — its conditioning is what buys the method's tunable
/// accuracy. The near field, which is arithmetic-bound direct summation,
/// can optionally run in f32 with SIMD rsqrt kernels at roughly twice the
/// lane throughput. See DESIGN.md §5.5 ("Kernel tiers and precision
/// modes") for the error-bound derivation: on the standard 40k-particle
/// depth-4 configuration the f32 near field stays within 1e-5 maximum
/// relative error of the f64 near field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Everything in f64 (the default).
    #[default]
    F64,
    /// f64 traversal + f32 SIMD near field (8 lanes on AVX2, 16 on
    /// AVX-512, 4 on NEON).
    Mixed,
}

/// How the SPMD executor assigns boxes to workers.
///
/// Both modes are bitwise interchangeable — the partition moves *where*
/// each box's arithmetic runs, never what it computes — so this is purely
/// a load-balance knob for clustered inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Balance {
    /// The paper's uniform layout: every worker owns the same number of
    /// boxes (block subgrids on the VU grid). Optimal for near-uniform
    /// particle distributions, collapses on clustered ones.
    #[default]
    Uniform,
    /// Weight each leaf box with an a-priori cost model (near-field pair
    /// counts from the interaction lists plus per-level translation flops)
    /// and split the Morton curve by cumulative cost, so every worker
    /// carries the same modelled work. See DESIGN.md §8.
    CostWeighted,
}

/// Full configuration of Anderson's method.
///
/// The defaults for sphere radii and truncation per integration order are
/// the outcome of the Table-2 calibration experiment (E1 in DESIGN.md):
/// the paper's own Table 2 lists radii per D, but those digits did not
/// survive OCR, so we re-derive them by sweeping (see
/// `fmm-bench/src/bin/exp_table2.rs`).
#[derive(Debug, Clone)]
pub struct FmmConfig {
    /// Integration order D: the sphere rule must integrate degree-D
    /// spherical polynomials exactly. Controls the error decay rate.
    pub order: usize,
    /// Legendre truncation M in the Poisson-formula kernels.
    pub m_trunc: usize,
    /// Outer sphere radius in units of the box side. Must exceed the
    /// circumscribed-sphere ratio √3/2 so that box sources lie inside the
    /// sphere.
    pub outer_ratio: f64,
    /// Inner sphere radius in units of the box side.
    pub inner_ratio: f64,
    /// Near-field separation: always two, the method's (see
    /// [`Separation`]). The field has one value and no builder; it stays
    /// for callers that pass it on to the near-field entry points.
    pub separation: Separation,
    /// Use the supernode decomposition in the downward pass (875 → 189
    /// translations per box). [`FmmConfig::order`], [`FmmConfig::depth`]
    /// and [`FmmConfig::auto_depth`] set it by a measured accuracy rule
    /// (on at orders 4 and 5 under auto depth or a fixed depth ≥ 5;
    /// EXPERIMENTS.md E10b); [`FmmConfig::supernodes`] after them
    /// overrides it.
    pub supernodes: bool,
    /// Hierarchy depth policy.
    pub depth: DepthPolicy,
    /// Run the traversal and near field with rayon parallelism. Kept for
    /// builder compatibility; see [`FmmConfig::effective_executor`].
    pub parallel: bool,
    /// Execution backend. [`Executor::Rayon`] defers to `parallel` so the
    /// older `sequential()` builder keeps meaning `Executor::Serial`.
    pub executor: Executor,
    /// Plummer softening ε applied to the near-field pairwise kernel
    /// (q/√(r²+ε²)); 0 disables it. Keep ε well below the leaf box side:
    /// the far-field approximations are not softened, which is exact in
    /// the ε → 0 limit and perturbs far interactions only by O(ε²/r²).
    pub softening: f64,
    /// Arithmetic precision tier (f64 everywhere, or f32 near field).
    pub precision: Precision,
    /// Force a specific microkernel family instead of
    /// [`Kernel::detect`]-ing the widest supported one. Rejected by
    /// [`FmmConfig::validate`] if the host cannot run it. The resolved
    /// choice is recorded on the cached [`crate::TraversalPlan`], so every
    /// backend (including SPMD workers) runs the same kernel.
    pub kernel: Option<Kernel>,
    /// SPMD load-balance policy (ignored by the shared-memory backends,
    /// whose work stealing makes the layout irrelevant).
    pub balance: Balance,
}

/// Whether the supernode decomposition keeps the method's accuracy at
/// integration order `d` and hierarchy depth `depth` (`None`: the depth is
/// chosen per call by [`DepthPolicy::Auto`]). The rule is measured
/// (EXPERIMENTS.md E10b, error against direct summation with supernodes
/// over without): at the icosahedron orders 4 and 5 (K = 12) supernodes
/// cost at most 2 % (uniform) to 7 % (Plummer) in RMS error from depth 5
/// on and 1–11 % under auto depth, but up to 28 % at a fixed depth of 3
/// and 16 % at 4, and 13 % to 2.5× at every other order. So they are on
/// for orders 4 and 5, under auto depth or a fixed depth of at least 5.
fn supernodes_keep_accuracy(d: usize, depth: Option<u32>) -> bool {
    matches!(d, 4 | 5) && depth.is_none_or(|h| h >= 5)
}

impl FmmConfig {
    /// Recommended configuration for integration order `d` (radii/truncation
    /// from the E1 calibration), with auto depth. Supernodes are on at
    /// orders 4 and 5, where they cost 1–11 % in RMS error at the leaf
    /// occupancies auto depth picks, and off at every other order, where
    /// they cost 13 % to 2.5× (EXPERIMENTS.md E10b).
    pub fn order(d: usize) -> Self {
        // Calibrated by the Table-2 sweep (fmm-bench exp_table2 /
        // calibrate): truncating at M = ⌊D/2⌋ + 1 is essential — Legendre
        // terms beyond the quadrature's faithful band inject aliasing noise
        // amplified by (2n+1), so *more* terms make the answer worse. A
        // generous outer radius shrinks the source-to-sphere ratio (the
        // (p/a)^(D+1) aliasing floor) while keeping the T2 evaluation ratio
        // a/r < 1 at two-separation distances; a tight inner radius keeps
        // evaluation points far from interactive sources. These defaults
        // reproduce the paper's headline accuracies: ~4 digits at D = 5 and
        // ~7.9 digits at D = 14 on uniform unit-charge systems.
        let m_trunc = d / 2 + 1;
        FmmConfig {
            order: d,
            m_trunc,
            outer_ratio: 1.6,
            inner_ratio: 1.0,
            separation: Separation::Two,
            supernodes: supernodes_keep_accuracy(d, None),
            depth: DepthPolicy::Auto {
                // Calibrated by the E10 depth sweep: for D = 5 (K = 12)
                // the near-field/traversal crossover sits near ~8
                // particles per leaf on this class of host.
                particles_per_leaf: 8.0,
            },
            parallel: true,
            executor: Executor::Rayon,
            softening: 0.0,
            precision: Precision::F64,
            kernel: None,
            balance: Balance::Uniform,
        }
    }

    /// Builder-style: execution backend.
    pub fn executor(mut self, e: Executor) -> Self {
        self.executor = e;
        self
    }

    /// The backend that will actually run, after folding in the legacy
    /// `parallel` flag: `Rayon` with `parallel == false` means `Serial`.
    pub fn effective_executor(&self) -> Executor {
        match self.executor {
            Executor::Rayon if !self.parallel => Executor::Serial,
            e => e,
        }
    }

    /// Builder-style: fixed depth. Also sets supernodes: on only at
    /// orders 4 and 5 with `h ≥ 5`, where they cost at most 2–7 % in RMS
    /// error; at a fixed depth of 3 or 4 they cost up to 28 %
    /// (EXPERIMENTS.md E10b), so every fixed depth up to 4 runs the plain
    /// 875 translations a box.
    pub fn depth(mut self, h: u32) -> Self {
        self.depth = DepthPolicy::Fixed(h);
        self.supernodes = supernodes_keep_accuracy(self.order, Some(h));
        self
    }

    /// Builder-style: auto depth with a target leaf occupancy. Restores the
    /// supernode setting [`FmmConfig::order`] chooses.
    pub fn auto_depth(mut self, particles_per_leaf: f64) -> Self {
        self.depth = DepthPolicy::Auto { particles_per_leaf };
        self.supernodes = supernodes_keep_accuracy(self.order, None);
        self
    }

    /// Builder-style: truncation M.
    pub fn truncation(mut self, m: usize) -> Self {
        self.m_trunc = m;
        self
    }

    /// Builder-style: sphere radii (units of box side).
    pub fn radii(mut self, outer: f64, inner: f64) -> Self {
        self.outer_ratio = outer;
        self.inner_ratio = inner;
        self
    }

    /// Builder-style: enable/disable supernodes, overriding the rule
    /// [`FmmConfig::order`] and [`FmmConfig::depth`] apply (set it after
    /// them).
    pub fn supernodes(mut self, on: bool) -> Self {
        self.supernodes = on;
        self
    }

    /// Builder-style: sequential execution (useful for deterministic tests
    /// and the machine-simulator comparison).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Builder-style: Plummer softening ε for the near-field kernel.
    pub fn softening(mut self, eps: f64) -> Self {
        self.softening = eps;
        self
    }

    /// Builder-style: precision tier.
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Builder-style: force a specific microkernel family.
    pub fn kernel(mut self, k: Kernel) -> Self {
        self.kernel = Some(k);
        self
    }

    /// Builder-style: SPMD load-balance policy.
    pub fn balance(mut self, b: Balance) -> Self {
        self.balance = b;
        self
    }

    /// The microkernel family this configuration will run: the forced
    /// choice if set, else the detected best (honouring `FMM_KERNEL`).
    pub fn resolve_kernel(&self) -> Kernel {
        self.kernel.unwrap_or_else(Kernel::detect)
    }

    /// The sphere rule implied by the order.
    pub fn rule(&self) -> SphereRule {
        SphereRule::for_order(self.order)
    }

    /// Validate parameter sanity; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        // Every comparison below is false for NaN.
        let reals = [
            ("outer_ratio", self.outer_ratio),
            ("inner_ratio", self.inner_ratio),
            ("softening", self.softening),
        ];
        if let Some((name, v)) = reals.into_iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("{name} {v} must be finite"));
        }
        let min_ratio = 3f64.sqrt() / 2.0;
        if self.outer_ratio <= min_ratio {
            return Err(format!(
                "outer_ratio {} must exceed the circumscribed-sphere ratio √3/2 ≈ {:.4}",
                self.outer_ratio, min_ratio
            ));
        }
        if self.inner_ratio <= min_ratio {
            return Err(format!(
                "inner_ratio {} must exceed √3/2 ≈ {:.4} (leaf particles must lie inside)",
                self.inner_ratio, min_ratio
            ));
        }
        // The closest T2 source centre sits (d+1) box sides away; the
        // evaluation point can be inner_ratio closer. The outer series only
        // converges if outer_ratio < distance.
        let min_dist = (SEPARATION + 1) as f64 - self.inner_ratio;
        if self.outer_ratio >= min_dist {
            return Err(format!(
                "outer_ratio {} too large: T2 evaluation distance can shrink to {:.3}",
                self.outer_ratio, min_dist
            ));
        }
        if self.m_trunc == 0 {
            return Err("truncation M must be at least 1".into());
        }
        if self.softening < 0.0 {
            return Err("softening must be non-negative".into());
        }
        if let Some(k) = self.kernel {
            if !k.supported() {
                return Err(format!(
                    "kernel {} is not supported on this host (available: {})",
                    k.name(),
                    Kernel::available()
                        .iter()
                        .map(|k| k.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        if let Executor::Spmd(p) = self.executor {
            if p == 0 || !p.is_power_of_two() {
                return Err(format!("SPMD worker count {} must be a power of two", p));
            }
            if self.precision == Precision::Mixed {
                return Err(
                    "the SPMD executor does not support the mixed-precision near field".into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_depth_tracks_n() {
        let p = DepthPolicy::Auto {
            particles_per_leaf: 32.0,
        };
        assert_eq!(p.resolve(100), 2); // 100/64 ≈ 1.6 per leaf already past
        let d1 = p.resolve(10_000);
        let d2 = p.resolve(1_000_000);
        assert!(d2 > d1, "depth must grow with N: {} vs {}", d1, d2);
        // 32 particles per leaf at depth h means N ≈ 32·8^h.
        assert_eq!(p.resolve(32 * 8usize.pow(4)), 4);
    }

    #[test]
    fn fixed_depth_clamped() {
        assert_eq!(DepthPolicy::Fixed(0).resolve(10), 2);
        assert_eq!(DepthPolicy::Fixed(5).resolve(10), 5);
    }

    #[test]
    fn default_config_valid() {
        for d in [2, 3, 5, 7, 14] {
            let cfg = FmmConfig::order(d);
            cfg.validate()
                .unwrap_or_else(|e| panic!("order {}: {}", d, e));
        }
    }

    #[test]
    fn invalid_radii_rejected() {
        assert!(FmmConfig::order(5).radii(0.5, 1.0).validate().is_err());
        assert!(FmmConfig::order(5).radii(1.0, 0.5).validate().is_err());
        assert!(FmmConfig::order(5).radii(2.5, 1.0).validate().is_err());
    }

    #[test]
    fn non_finite_radii_and_softening_rejected_by_name() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = FmmConfig::order(3).depth(2);
            let cases = [
                ("outer_ratio", cfg.clone().radii(v, 1.0)),
                ("inner_ratio", cfg.clone().radii(1.6, v)),
                ("softening", cfg.softening(v)),
            ];
            for (name, cfg) in cases {
                let err = cfg.validate().expect_err(name);
                assert!(err.starts_with(name), "{name} = {v}: {err}");
            }
        }
    }

    #[test]
    fn unsupported_kernel_rejected() {
        // No host supports both AVX-512 and NEON; whichever is foreign
        // here must be rejected, and every available one accepted.
        let foreign = [Kernel::Avx512, Kernel::Neon]
            .into_iter()
            .find(|k| !k.supported())
            .unwrap();
        assert!(FmmConfig::order(5).kernel(foreign).validate().is_err());
        for k in Kernel::available() {
            FmmConfig::order(5).kernel(k).validate().unwrap();
        }
    }

    #[test]
    fn spmd_rejects_mixed_precision() {
        let cfg = FmmConfig::order(5)
            .executor(Executor::spmd(4))
            .precision(Precision::Mixed);
        assert!(cfg.validate().is_err());
        FmmConfig::order(5)
            .precision(Precision::Mixed)
            .validate()
            .unwrap();
    }

    #[test]
    fn supernodes_follow_the_accuracy_rule() {
        for d in [3, 6, 14] {
            assert!(!FmmConfig::order(d).supernodes, "order {d}");
            assert!(!FmmConfig::order(d).depth(6).supernodes, "order {d}");
        }
        for d in [4, 5] {
            let cfg = FmmConfig::order(d);
            assert!(cfg.supernodes, "order {d}");
            assert!(!cfg.clone().depth(4).supernodes, "order {d}, depth 4");
            assert!(cfg.clone().depth(5).supernodes, "order {d}, depth 5");
            assert!(cfg.depth(3).auto_depth(8.0).supernodes, "order {d}, auto");
        }
        // An explicit setting after the depth wins; one before it does not.
        assert!(FmmConfig::order(5).depth(4).supernodes(true).supernodes);
        assert!(!FmmConfig::order(5).depth(5).supernodes(false).supernodes);
        assert!(FmmConfig::order(5).supernodes(false).depth(5).supernodes);
    }

    #[test]
    fn spmd_accepts_supernodes() {
        let cfg = FmmConfig::order(5).depth(5).executor(Executor::spmd(4));
        assert!(cfg.supernodes);
        cfg.validate().unwrap();
    }

    #[test]
    fn builder_chains() {
        let cfg = FmmConfig::order(5)
            .depth(4)
            .truncation(9)
            .supernodes(true)
            .sequential();
        assert_eq!(cfg.m_trunc, 9);
        assert!(cfg.supernodes);
        assert!(!cfg.parallel);
        assert_eq!(cfg.depth.resolve(1), 4);
        assert_eq!(cfg.rule().len(), 12);
    }
}
