//! # fmm-bench — experiment harness
//!
//! One binary per paper table/figure (see DESIGN.md §4). Shared workload
//! generators and timers live here, with the comparison code only the
//! experiments reach: the CM-5E simulator ([`machine`]), the Barnes–Hut
//! baseline of Table 1 ([`bh`]), the VU-aware coordinate sort ([`sort`]),
//! the block layout's load-balance analysis ([`balance`]) and the
//! one-sided near fields of E13 ([`gather`], [`travel`]).

#![forbid(unsafe_code)]

pub mod balance;
pub mod bh;
pub mod gather;
pub mod machine;
pub mod sort;
pub mod travel;
pub mod util;
pub mod workloads;
