//! # fmm-serve — a batched, multi-tenant evaluation service
//!
//! The paper's central aggregation trick (§2, item 2) batches many small
//! O(P²) translations into a few large multiple-instance GEMMs. This
//! crate replays that trick across *requests*: a long-running, std-only
//! (no async runtime) TCP server whose **work-conserving batcher**
//! hands an idle executor, at once, every queued request of the shape
//! that has waited longest (up to `max_batch`): requests that pile up
//! while the executors are busy run as one
//! [`fmm_core::Fmm::evaluate_requests`] call on an `Fmm` built over one
//! process-wide [`fmm_core::PlanRegistry`], the only cache: a new tenant
//! whose translation-set key (sphere rule, truncation, radii, supernodes)
//! or plan key (depth, kernel) matches a resident one costs
//! no build.
//!
//! Two front doors on one port, distinguished by the first bytes of the
//! connection:
//! - a length-prefixed **binary protocol** (magic `FMM1`; `f64` LE bit
//!   patterns, so a round-trip is bitwise by construction) — see
//!   [`protocol`];
//! - minimal **HTTP/1.1 + JSON** for `curl` and quick integrations —
//!   `POST /evaluate`, `GET /info`, `GET /metrics` (Prometheus-style),
//!   `GET /healthz`, `POST /shutdown` — see [`http`].
//!
//! Batching changes scheduling, never arithmetic: a batched response is
//! bitwise identical to a solo [`fmm_core::Fmm::evaluate`] of the same
//! request (`crates/core/tests/batch_serve.rs` pins this).

pub mod batcher;
pub mod engine;
pub mod http;
pub mod json;
pub mod lifecycle;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use batcher::Batcher;
pub use engine::Engine;
pub use metrics::Metrics;
pub use protocol::{EvalRequest, EvalResponse, Shape};
pub use server::{ServeConfig, Server};
