//! Configuration of the method: integration order, truncation, sphere
//! radii, hierarchy depth, separation, supernodes.

use fmm_linalg::Kernel;
use fmm_sphere::SphereRule;
use fmm_tree::Separation;

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

/// Which wire carries SPMD messages between ranks.
///
/// All fabrics execute the *same* `CommProgram` and are bitwise
/// interchangeable: the fabric decides how f64 payloads travel (moved
/// `Vec`s over in-process channels, or length-prefixed `FMMW` frames over
/// sockets), never what arrives. Addresses are not part of the selection —
/// socket fabrics derive them from the environment or allocate ephemeral
/// endpoints — so the enum stays `Copy` and can live inside plan keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fabric {
    /// In-process `mpsc` channels between worker threads (the default;
    /// zero serialization, payloads move by ownership transfer).
    #[default]
    InProcess,
    /// UNIX-domain stream sockets carrying `FMMW` frames.
    Unix,
    /// TCP loopback sockets carrying `FMMW` frames.
    Tcp,
}

impl Fabric {
    pub const ALL: [Fabric; 3] = [Fabric::InProcess, Fabric::Unix, Fabric::Tcp];

    pub fn name(self) -> &'static str {
        match self {
            Fabric::InProcess => "inprocess",
            Fabric::Unix => "unix",
            Fabric::Tcp => "tcp",
        }
    }

    /// Parse a fabric name as used by the `--fabric` CLI knobs; the
    /// socket fabrics also accept an `addr`-qualified spelling
    /// (`unix:/path`, `tcp:host:port`) whose address part is ignored here.
    pub fn from_name(s: &str) -> Option<Fabric> {
        let kind = s.split(':').next().unwrap_or(s);
        match kind {
            "inprocess" | "channels" | "mpsc" => Some(Fabric::InProcess),
            "unix" => Some(Fabric::Unix),
            "tcp" => Some(Fabric::Tcp),
            _ => None,
        }
    }
}

/// Options of the message-passing SPMD executor: how many ranks and which
/// fabric carries their messages. `Copy + Hash` so [`Executor`] stays
/// embeddable in plan keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpmdOptions {
    /// Worker (rank) count; must be a power of two.
    pub workers: usize,
    /// The wire between ranks. Outputs are bitwise identical across all
    /// fabrics; this knob trades ownership-transfer channels against real
    /// socket framing (and, via `fmm_spmd::distributed`, OS processes).
    pub transport: Fabric,
}

impl SpmdOptions {
    /// `workers` ranks over the default in-process fabric.
    pub fn new(workers: usize) -> Self {
        SpmdOptions {
            workers,
            transport: Fabric::InProcess,
        }
    }

    /// Builder-style: select the message fabric.
    pub fn transport(mut self, f: Fabric) -> Self {
        self.transport = f;
        self
    }
}

impl From<usize> for SpmdOptions {
    fn from(workers: usize) -> Self {
        SpmdOptions::new(workers)
    }
}

/// Which execution backend carries the five phases.
///
/// All backends are bitwise interchangeable for fixed inputs: `Serial`
/// and `Rayon` share one code path whose parallel loops are
/// write-disjoint, and `Spmd` (provided by the `fmm-spmd` crate) runs
/// the same arithmetic per worker over an explicit message fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Executor {
    /// Single-threaded reference execution.
    Serial,
    /// Shared-memory parallelism over rayon iterators (the default).
    Rayon,
    /// Message-passing SPMD execution: worker ranks acting as VUs over a
    /// pluggable [`Fabric`]. Use [`Executor::spmd`] for the common case.
    Spmd(SpmdOptions),
}

impl Executor {
    /// Back-compat constructor: `p` SPMD ranks over the default
    /// in-process fabric (the former `Executor::Spmd(p)`).
    pub fn spmd(workers: usize) -> Executor {
        Executor::Spmd(SpmdOptions::new(workers))
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
    /// Near-field separation (the paper assumes two-separation).
    pub separation: Separation,
    /// Use the supernode decomposition in the downward pass (875 → 189
    /// translations per box).
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

impl FmmConfig {
    /// Recommended configuration for integration order `d` (radii/truncation
    /// from the E1 calibration).
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
            supernodes: false,
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

    /// Builder-style: fixed depth.
    pub fn depth(mut self, h: u32) -> Self {
        self.depth = DepthPolicy::Fixed(h);
        self
    }

    /// Builder-style: auto depth with a target leaf occupancy.
    pub fn auto_depth(mut self, particles_per_leaf: f64) -> Self {
        self.depth = DepthPolicy::Auto { particles_per_leaf };
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

    /// Builder-style: near-field separation.
    pub fn separation(mut self, s: Separation) -> Self {
        self.separation = s;
        self
    }

    /// Builder-style: enable/disable supernodes.
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
        let min_dist = (self.separation.d() + 1) as f64 - self.inner_ratio;
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
        if let Executor::Spmd(opts) = self.executor {
            let p = opts.workers;
            if p == 0 || !p.is_power_of_two() {
                return Err(format!("SPMD worker count {} must be a power of two", p));
            }
            if self.supernodes {
                return Err(
                    "the SPMD executor does not support the supernode decomposition".into(),
                );
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
