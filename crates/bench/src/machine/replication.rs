//! Redundant computation vs. replication for translation matrices
//! (paper §3.3.4 and Figs. 8–9).
//!
//! All VUs need the same translation matrices. Two extremes:
//! compute every matrix on every VU (embarrassingly parallel, redundant),
//! or compute each once across the machine and broadcast ("replicating a
//! K×K translation matrix to all nodes is about three to twelve times
//! faster than computing it"). For T1/T3 (8 matrices), replication can be
//! restricted to groups of eight VUs.

use crate::machine::cost::CostModel;

/// Strategy for obtaining `n_matrices` identical K×K matrices on every VU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationStrategy {
    /// Every VU computes every matrix.
    ComputeAllRedundant,
    /// Matrices are computed once across the machine, then spread to all
    /// VUs (`group: None`) or within VU groups of the given size.
    ComputeAndReplicate { group: Option<usize> },
}

impl ReplicationStrategy {
    pub fn name(self) -> &'static str {
        match self {
            ReplicationStrategy::ComputeAllRedundant => "compute on every VU",
            ReplicationStrategy::ComputeAndReplicate { group: None } => {
                "compute in parallel + replicate to all"
            }
            ReplicationStrategy::ComputeAndReplicate { group: Some(_) } => {
                "compute in parallel + replicate within groups"
            }
        }
    }
}

/// Flops to build one K×K translation matrix with truncation M: each of
/// the K² entries evaluates an (M+1)-term Legendre series on top of a
/// normalized direction (sqrt, divisions) — ~20 flops per term plus ~60
/// fixed.
pub const fn build_flops(k: usize, m: usize) -> u64 {
    (k as u64) * (k as u64) * (20 * (m as u64 + 1) + 60)
}

/// Cost breakdown of a precomputation strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecomputeCost {
    /// Wall-clock compute seconds (parallel over VUs where applicable).
    pub compute_s: f64,
    /// Replication (spread) seconds.
    pub replicate_s: f64,
}

impl PrecomputeCost {
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.replicate_s
    }
}

/// Model one strategy: `n_matrices` K×K matrices with truncation `m` on a
/// machine of `n_vus` VUs. `replications` is how many broadcast events
/// occur (the paper delays T2 replication until each matrix is needed:
/// 1331·(h−1) replications over a run — pass `n_matrices` for the
/// precompute-once pattern).
pub fn precompute_cost(
    n_matrices: usize,
    k: usize,
    m: usize,
    n_vus: usize,
    strategy: ReplicationStrategy,
    replications: usize,
    cost: &CostModel,
) -> PrecomputeCost {
    let per_matrix_s = build_flops(k, m) as f64 * cost.flop_ns * 1e-9;
    match strategy {
        ReplicationStrategy::ComputeAllRedundant => PrecomputeCost {
            compute_s: n_matrices as f64 * per_matrix_s,
            replicate_s: 0.0,
        },
        ReplicationStrategy::ComputeAndReplicate { group } => {
            let g = group.unwrap_or(n_vus).max(2);
            // With grouping, each group of g VUs computes the whole
            // collection: parallelism within a group is g.
            let parallelism = g.min(n_matrices).max(1);
            let rounds = n_matrices.div_ceil(parallelism);
            let stages = (g as f64).log2().ceil().max(1.0);
            // Pipelined spread: per replication, log₂(fan-out) latency
            // stages plus one bandwidth term for the K² payload.
            let per_rep_s = stages * cost.broadcast_stage_ns * 1e-9
                + (k * k) as f64 * cost.broadcast_elem_ns * 1e-9;
            PrecomputeCost {
                compute_s: rounds as f64 * per_matrix_s,
                replicate_s: replications as f64 * per_rep_s,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm5e() -> CostModel {
        CostModel::cm5e()
    }

    #[test]
    fn replication_beats_redundant_compute_for_t2() {
        // 1331 T2 matrices on 1024 VUs (paper Fig. 9): parallel compute +
        // replicate is up to an order of magnitude faster.
        let c = cm5e();
        for (k, m) in [(12, 3), (32, 4), (72, 8)] {
            let red = precompute_cost(
                1331,
                k,
                m,
                1024,
                ReplicationStrategy::ComputeAllRedundant,
                0,
                &c,
            );
            let rep = precompute_cost(
                1331,
                k,
                m,
                1024,
                ReplicationStrategy::ComputeAndReplicate { group: None },
                1331,
                &c,
            );
            assert!(
                rep.total_s() < red.total_s(),
                "K={}: rep {} vs red {}",
                k,
                rep.total_s(),
                red.total_s()
            );
        }
    }

    #[test]
    fn replicating_a_matrix_faster_than_computing_it() {
        // Paper: 3–12× faster as K varies from 12 to 72.
        let c = cm5e();
        for (k, m, lo, hi) in [(12usize, 3usize, 1.2, 6.0), (72, 8, 5.0, 25.0)] {
            let compute_s = build_flops(k, m) as f64 * c.flop_ns * 1e-9;
            let rep = precompute_cost(
                1,
                k,
                m,
                1024,
                ReplicationStrategy::ComputeAndReplicate { group: None },
                1,
                &c,
            );
            let ratio = compute_s / rep.replicate_s;
            assert!(
                ratio > lo && ratio < hi,
                "K={}: compute/replicate = {}",
                k,
                ratio
            );
        }
    }

    #[test]
    fn grouping_reduces_replication_cost() {
        // Paper Fig. 8: replication within groups of 8 is 1.26–1.75×
        // cheaper than to all 1024 VUs.
        let c = cm5e();
        for (k, m) in [(12, 3), (72, 8)] {
            let all = precompute_cost(
                8,
                k,
                m,
                1024,
                ReplicationStrategy::ComputeAndReplicate { group: None },
                8,
                &c,
            );
            let grouped = precompute_cost(
                8,
                k,
                m,
                1024,
                ReplicationStrategy::ComputeAndReplicate { group: Some(8) },
                8,
                &c,
            );
            assert!(grouped.replicate_s < all.replicate_s);
            assert!((all.compute_s - grouped.compute_s).abs() < 1e-12);
        }
    }

    #[test]
    fn compute_all_has_no_replication() {
        let c = cm5e();
        let r = precompute_cost(
            100,
            12,
            3,
            64,
            ReplicationStrategy::ComputeAllRedundant,
            0,
            &c,
        );
        assert_eq!(r.replicate_s, 0.0);
        assert!(r.compute_s > 0.0);
    }

    #[test]
    fn parallel_compute_time_shrinks_with_machine() {
        // Fig. 9(b): compute-in-parallel time decreases on larger machines.
        let c = cm5e();
        let t = |p: usize| {
            precompute_cost(
                1331,
                32,
                4,
                p,
                ReplicationStrategy::ComputeAndReplicate { group: None },
                0,
                &c,
            )
            .compute_s
        };
        assert!(t(1024) < t(256));
        assert!(t(256) < t(128));
    }
}
