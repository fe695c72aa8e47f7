//! Load-balance analysis of the non-adaptive method (paper §3.5).
//!
//! The paper notes three sources of parallelism in the traversal — boxes
//! within a level, interactive-field translations per box, and boxes
//! across levels — and that the *non-adaptive* decomposition balances the
//! box work perfectly but leaves the particle work (P2O, evaluation, near
//! field) to the distribution. This module quantifies that for experiment
//! E14 (`exp_loadbalance`): per-VU work estimates given a particle binning
//! and a block layout.

use crate::sort::CoordinateSortKey;
use fmm_tree::{near_field_offsets, Binning, BoxCoord};

/// Per-VU work summary for one evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadBalance {
    /// Particles owned by each VU.
    pub particles: Vec<u64>,
    /// Near-field pair interactions charged to each VU (target-centric:
    /// a target box's pairs count toward its owner).
    pub near_pairs: Vec<u64>,
    /// Leaf boxes per VU (identical for block layouts; kept for
    /// completeness).
    pub boxes: Vec<u64>,
}

impl LoadBalance {
    /// Max-over-mean imbalance factor of a work vector (1.0 = perfect).
    fn imbalance(v: &[u64]) -> f64 {
        let sum: u64 = v.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let mean = sum as f64 / v.len() as f64;
        let max = *v.iter().max().unwrap() as f64;
        max / mean
    }

    /// Imbalance of particle ownership (P2O / evaluation phases).
    pub fn particle_imbalance(&self) -> f64 {
        Self::imbalance(&self.particles)
    }

    /// Imbalance of near-field pair work.
    pub fn near_imbalance(&self) -> f64 {
        Self::imbalance(&self.near_pairs)
    }

    /// Parallel efficiency bound implied by the near-field imbalance
    /// (the slowest VU gates the phase).
    pub fn near_efficiency_bound(&self) -> f64 {
        1.0 / self.near_imbalance()
    }
}

/// Analyze a particle binning at `level` over the VU layout described by
/// `layout` (near-field pair counts use the two-separation neighbourhood).
pub fn analyze(binning: &Binning, level: u32, layout: CoordinateSortKey) -> LoadBalance {
    let n_boxes = binning.starts.len() - 1;
    debug_assert_eq!(n_boxes, 1usize << (3 * level));
    let n_vus = layout.vu_count() as usize;
    let mut particles = vec![0u64; n_vus];
    let mut near_pairs = vec![0u64; n_vus];
    let mut boxes = vec![0u64; n_vus];
    let offsets = near_field_offsets();
    for b in 0..n_boxes {
        let coord = BoxCoord::from_index(level, b);
        let vu = layout.vu_of(coord) as usize;
        boxes[vu] += 1;
        let nt = binning.count(b) as u64;
        particles[vu] += nt;
        // Self-box pairs (symmetric) + one-directional neighbour pairs.
        near_pairs[vu] += nt * nt.saturating_sub(1) / 2;
        for &d in &offsets {
            if let Some(nb) = coord.offset(d) {
                near_pairs[vu] += nt * binning.count(nb.index()) as u64;
            }
        }
    }
    LoadBalance {
        particles,
        near_pairs,
        boxes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_tree::bin_particles;

    fn binning_for(ids: Vec<u32>, level: u32) -> Binning {
        bin_particles(&ids, 1 << (3 * level))
    }

    #[test]
    fn uniform_occupancy_is_perfectly_balanced() {
        // One particle per box.
        let level = 2;
        let ids: Vec<u32> = (0..64).collect();
        let b = binning_for(ids, level);
        let layout = CoordinateSortKey::for_vu_grid(level, [2, 2, 2]);
        let lb = analyze(&b, level, layout);
        assert!((lb.particle_imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(lb.boxes, vec![8; 8]);
    }

    #[test]
    fn clustered_occupancy_is_imbalanced() {
        // All particles in one corner box.
        let level = 2;
        let ids = vec![0u32; 100];
        let b = binning_for(ids, level);
        let layout = CoordinateSortKey::for_vu_grid(level, [2, 2, 2]);
        let lb = analyze(&b, level, layout);
        assert!((lb.particle_imbalance() - 8.0).abs() < 1e-12); // one of 8 VUs holds all
        assert!(lb.near_efficiency_bound() < 0.2);
    }

    #[test]
    fn near_pairs_count_symmetrically_consistent() {
        // Two particles in adjacent boxes: each VU... single-VU layout:
        // total near pairs = self pairs (0) + cross pairs both directions.
        let level = 1;
        let mut ids = vec![0u32, 1];
        ids.sort_unstable();
        let b = binning_for(ids, level);
        let layout = CoordinateSortKey::local_only(level);
        let lb = analyze(&b, level, layout);
        // box 0 → 1 and box 1 → 0, one pair each direction.
        assert_eq!(lb.near_pairs, vec![2]);
    }

    #[test]
    fn boxes_always_balanced_in_block_layout() {
        let level = 3;
        let ids = vec![5u32; 77]; // heavily clustered particles
        let b = binning_for(ids, level);
        let layout = CoordinateSortKey::for_vu_grid(level, [4, 2, 2]);
        let lb = analyze(&b, level, layout);
        // Box ownership is distribution-independent: 512/16 = 32 each.
        assert!(lb.boxes.iter().all(|&v| v == 32));
    }
}
