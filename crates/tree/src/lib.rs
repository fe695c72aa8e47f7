//! # fmm-tree — the uniform spatial hierarchy
//!
//! The non-adaptive O(N) methods of the paper refine a cubic domain into a
//! balanced octree of depth h: level 0 is the whole domain, level l has 8^l
//! boxes, and leaves are at level h. This crate provides:
//!
//! * box coordinate / index arithmetic and flattened per-level storage
//!   layout ([`coords`]) — the analogue of the paper's 5-D array embedding,
//! * Morton (bit-interleaved) indices ([`morton`]),
//! * near-field / interactive-field offset lists at the method's
//!   two-separation and the supernode decomposition that reduces 875
//!   interactive-field translations to 189 ([`interaction`]),
//! * the half stencil of the symmetric near field ([`interaction`]),
//! * particle binning into leaf boxes ([`sort`]),
//! * the cubic domain geometry ([`domain`]).

#![forbid(unsafe_code)]

pub mod coords;
pub mod domain;
pub mod interaction;
pub mod morton;
pub mod partition;
pub mod sort;

pub use coords::{BoxCoord, Hierarchy};
pub use domain::Domain;
pub use interaction::{
    half_offsets, half_stencil, half_stencil_reach, interactive_field_offsets,
    interactive_field_union, near_field_offsets, supernode_decomposition, HalfRow, Separation,
    SupernodeDecomposition, SupernodeOffset, INTERACTIVE_FIELD_SIZE, NEAR_FIELD_SIZE, SEPARATION,
};
pub use partition::{
    box_halo, child_flush, leaf_costs, morton_to_rowmajor, parent_fetch, particle_halo,
    rowmajor_to_morton, CostModel, Exchange, Partition, Side,
};
pub use sort::{assign_boxes, bin_particles, Binning};
