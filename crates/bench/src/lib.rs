//! # fmm-bench — experiment harness
//!
//! One binary per paper table/figure (see DESIGN.md §4). Shared workload
//! generators and timers live here.

#![forbid(unsafe_code)]

pub mod util;
pub mod workloads;
