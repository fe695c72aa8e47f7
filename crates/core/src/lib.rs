//! # fmm-core — Anderson's O(N) hierarchical N-body method
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! data-parallel implementation of Anderson's variant of the fast multipole
//! method. The structure follows the generic hierarchical method of the
//! paper's §2.2:
//!
//! 1. **P2O** — form outer (far-field) sphere approximations for all leaf
//!    boxes from their particles,
//! 2. **Upward pass (T1)** — combine children's outer approximations into
//!    their parent's, level by level,
//! 3. **Downward pass (T2, T3)** — convert interactive-field outer
//!    approximations to inner (local-field) approximations and push parents'
//!    inner approximations down to children,
//! 4. **Far-field evaluation** — evaluate each leaf's inner approximation
//!    at its particles,
//! 5. **Near field** — direct evaluation against the d-separation
//!    neighbourhood.
//!
//! Every translation is a K×K matrix (see [`translations`]); independent
//! translations are aggregated into matrix panels and executed as level-3
//! BLAS via `fmm-linalg`, exactly the paper's central optimization. The
//! data-parallel execution model of the paper (CM Fortran over VUs) maps to
//! rayon parallel iterators over box slabs within each level; levels are
//! processed sequentially as in the paper's upward/downward passes.
//!
//! ## Quick start
//!
//! ```
//! use fmm_core::{Fmm, FmmConfig};
//!
//! // A tiny uniform system.
//! let positions: Vec<[f64; 3]> = (0..512)
//!     .map(|i| {
//!         let f = i as f64 / 512.0;
//!         [f, (f * 7.3) % 1.0, (f * 3.1) % 1.0]
//!     })
//!     .collect();
//! let charges = vec![1.0; positions.len()];
//!
//! let fmm = Fmm::new(FmmConfig::order(5).depth(2)).unwrap();
//! let result = fmm.evaluate(&positions, &charges).unwrap();
//! assert_eq!(result.potentials.len(), positions.len());
//! ```

pub mod batch;
pub mod config;
pub mod driver;
pub mod error;
pub mod field;
pub mod near;
pub mod near32;
pub mod particles;
pub mod plan;
pub mod registry;
pub mod stats;
pub mod translations;
pub mod traversal;

pub use batch::{BatchOutput, BatchRequest};
pub use config::{Balance, DepthPolicy, Executor, Fabric, FmmConfig, Precision, SpmdOptions};
pub use driver::{EvalOutput, Fmm, FmmError};
pub use error::{relative_error_stats, ErrorStats};
pub use near::{
    near_field_potentials, near_field_symmetric, near_field_travelling, near_field_travelling_with,
    ColorSchedule, NearFieldStats,
};
pub use near32::{near_field_forces_f32, near_field_potentials_f32, ParticlesF32};
pub use plan::TraversalPlan;
pub use registry::{PlanKey, PlanRegistry, RegistryStats};
pub use stats::{Counters, Phase, Profile, SpmdPhase, SpmdReport};
pub use translations::TranslationSet;

/// Re-exported substrate types that appear in the public API.
pub use fmm_linalg::Kernel;
pub use fmm_sphere::{SphereRule, Vec3};
pub use fmm_tree::{Domain, Separation};
