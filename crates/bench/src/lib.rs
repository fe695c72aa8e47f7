//! # fmm-bench — experiment harness
//!
//! One binary per paper table/figure (see DESIGN.md §4). Shared workload
//! generators and timers live here, with the comparison code only the
//! experiments reach: the CM-5E simulator ([`machine`]) and the
//! Barnes–Hut baseline of Table 1 ([`bh`]).

#![forbid(unsafe_code)]

pub mod bh;
pub mod machine;
pub mod util;
pub mod workloads;
