//! # fmm-tree — the uniform spatial hierarchy
//!
//! The non-adaptive O(N) methods of the paper refine a cubic domain into a
//! balanced octree of depth h: level 0 is the whole domain, level l has 8^l
//! boxes, and leaves are at level h. This crate provides:
//!
//! * box coordinate / index arithmetic and flattened per-level storage
//!   layout ([`coords`]) — the analogue of the paper's 5-D array embedding,
//! * Morton (bit-interleaved) indices ([`morton`]),
//! * near-field / interactive-field offset lists with d-separation and the
//!   supernode decomposition that reduces 875 interactive-field
//!   translations to ≈189 ([`interaction`]),
//! * the coordinate sort of §3.2 (keys built from VU-address and
//!   local-address bits) and particle binning ([`sort`]),
//! * the travelling-accumulator path over the half near field
//!   ([`travel`]),
//! * the cubic domain geometry ([`domain`]).

#![forbid(unsafe_code)]

pub mod balance;
pub mod coords;
pub mod domain;
pub mod interaction;
pub mod morton;
pub mod partition;
pub mod sort;
pub mod travel;

pub use balance::{analyze as analyze_balance, LoadBalance};
pub use coords::{BoxCoord, Hierarchy};
pub use domain::Domain;
pub use interaction::{
    interactive_field_offsets, interactive_field_union, near_field_offsets,
    supernode_decomposition, Separation, SupernodeDecomposition, SupernodeOffset,
};
pub use partition::{
    box_halo, child_flush, leaf_costs, morton_to_rowmajor, parent_fetch, particle_halo,
    rowmajor_to_morton, slot_route, CostModel, Exchange, Partition, Side,
};
pub use sort::{assign_boxes, bin_particles, coordinate_sort, Binning, CoordinateSortKey};
pub use travel::{TravelPath, TravelStep};
