//! # anderson-fmm — reproduction of Hu & Johnsson, SC'96
//!
//! *A Data-Parallel Implementation of O(N) Hierarchical N-body Methods*:
//! Anderson's variant of the fast multipole method, its BLAS-aggregated
//! hierarchy traversal, the supernode optimization, the coordinate sort,
//! and the communication budget that prices its data motion on a
//! block-distributed machine.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`fmm_core`] — the method itself ([`Fmm`], [`FmmConfig`]),
//! * [`fmm_sphere`] — sphere quadrature and Anderson's computational
//!   elements,
//! * [`fmm_tree`] — the uniform hierarchy, interaction lists, supernodes,
//! * [`fmm_linalg`] — the small dense-BLAS substrate,
//! * [`fmm_machine`] — the per-phase communication-budget oracle that the
//!   SPMD executor's traffic is checked against,
//! * [`fmm_spmd`] — the message-passing SPMD executor
//!   (`Executor::spmd(p)`: worker threads as VUs over in-process
//!   channels, measured per-phase data motion) and its multi-process
//!   launch (`evaluate_distributed` with `fmm-worker` ranks joining a
//!   UNIX or TCP rendezvous, [`FabricAddr`], their messages framed over
//!   sockets by the same [`Transport`] seam — bitwise the in-process
//!   output),
//! * [`fmm_direct`] — the O(N²) baseline,
//! * [`fmm_serve`] — a batched, multi-tenant evaluation service
//!   (coalescing batcher + shared [`PlanRegistry`]).
//!
//! The CM-5E simulator of Table 4 and Figs. 7–9 and the Barnes–Hut
//! baseline of Table 1 are comparison code and live in `fmm-bench`.
//!
//! See `examples/quickstart.rs` for a five-line end-to-end use.

pub use fmm_core;
pub use fmm_direct;
pub use fmm_linalg;
pub use fmm_machine;
pub use fmm_serve;
pub use fmm_sphere;
pub use fmm_spmd;
pub use fmm_tree;

pub use fmm_core::Counters;
pub use fmm_core::{BatchRequest, PlanKey, PlanRegistry, RegistryStats, TranslationKey};
pub use fmm_core::{DepthPolicy, EvalOutput, Executor, Fmm, FmmConfig, FmmError, Precision};
pub use fmm_linalg::Kernel;
pub use fmm_spmd::{FabricAddr, Transport};
