//! # fmm-machine — the communication-budget oracle
//!
//! The paper's communication results are statements about *data motion* on
//! a CM-5/5E: how many boxes cross vector-unit (VU) boundaries and how many
//! messages carry them. Those quantities are properties of the algorithms
//! and the block data layout, not of the silicon. This crate prices them
//! phase by phase, and the SPMD executor, `fmm-verify` and the launcher's
//! pre-flight check hold their measured or statically summed traffic to
//! that price:
//!
//! * [`layout`] — block distribution of a 3-D box grid over a VU grid,
//!   with the VU-address / local-address bit fields of the paper's Fig. 4,
//! * [`counters`] — data-motion counters,
//! * [`program`] — the per-phase budget of a whole run, uniform or on a
//!   cost-weighted partition,
//! * [`compare`] — the one comparator between a budget and a measured
//!   profile,
//! * [`transport`] — per-fabric pricing and the launcher's pre-flight.
//!
//! The CM-5E simulator that reproduces Table 4 and Figs. 7–9 (CSHIFT
//! grids, ghost-fetch strategies, the CM-5E cost model) lives in
//! `fmm-bench`.

#![forbid(unsafe_code)]

pub mod compare;
pub mod counters;
pub mod layout;
pub mod program;
pub mod transport;

pub use compare::{
    check_phases, predicted_bytes, predicted_messages, BudgetMismatch, MeasuredPhase,
    DEFAULT_TOLERANCE,
};
pub use counters::Counters;
pub use layout::{BlockLayout, VuGrid};
pub use program::{
    communication_budget, communication_budget_with, gather_hops, subgrid_extent, PhaseBudget,
    ProgramBudget, ProgramConfig, PARTICLE_WORDS,
};
pub use transport::{preflight, PreflightReport, TransportModel};
