//! The cost model: counters → modeled time.
//!
//! Constants are expressed in nanoseconds per unit with CM-5E-flavoured
//! *ratios* (what matters for reproducing the paper's orderings is the
//! relative cost of a CSHIFT invocation vs an off-VU box vs a local copy,
//! not the absolute clock). Defaults are chosen so that the paper's
//! measured ratios hold at the paper's problem sizes:
//!
//! * linearized unaliased beats direct unaliased by ≈7× (fewer CSHIFTs
//!   and far less data motion),
//! * linearized aliased beats direct aliased by ≈1.5× (the 54 small
//!   region CSHIFTs of the direct scheme pay 54 fixed overheads, the
//!   linearized whole-subgrid scheme pays 6 at more data moved),
//! * general-router sends are dominated by the address-computation
//!   overhead, which scales with the *array size*, not the selected
//!   elements (Fig. 7).

use fmm_machine::{Counters, ProgramBudget};

/// Time model; all values in nanoseconds. `k` (box vector length) scales
/// per-box transfer and copy costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed overhead per CSHIFT invocation.
    pub cshift_overhead_ns: f64,
    /// Per-f64 element cost of an off-VU transfer.
    pub off_vu_elem_ns: f64,
    /// Per-f64 element cost of a local copy.
    pub local_elem_ns: f64,
    /// Fixed overhead per general-router send.
    pub send_overhead_ns: f64,
    /// Per-element cost of scanning an array to compute send addresses.
    pub send_scan_elem_ns: f64,
    /// Per-f64 element cost of a routed transfer.
    pub send_elem_ns: f64,
    /// Fixed overhead per broadcast stage.
    pub broadcast_stage_ns: f64,
    /// Per-f64 element cost per broadcast stage.
    pub broadcast_elem_ns: f64,
    /// Time per flop.
    pub flop_ns: f64,
}

impl CostModel {
    /// CM-5E-flavoured defaults (≈33 MHz VUs, fat-tree network, CMRTS
    /// software overheads).
    pub fn cm5e() -> Self {
        CostModel {
            cshift_overhead_ns: 150_000.0,
            off_vu_elem_ns: 100.0,
            local_elem_ns: 15.0,
            send_overhead_ns: 400_000.0,
            send_scan_elem_ns: 40.0,
            send_elem_ns: 150.0,
            broadcast_stage_ns: 8_000.0,
            broadcast_elem_ns: 120.0,
            flop_ns: 8.0,
        }
    }

    /// Modeled time of a counter set, for boxes of `k` doubles.
    pub fn time_ns(&self, c: &Counters, k: usize) -> f64 {
        let k = k as f64;
        c.cshifts as f64 * self.cshift_overhead_ns
            + c.off_vu_boxes as f64 * k * self.off_vu_elem_ns
            + c.local_box_moves as f64 * k * self.local_elem_ns
            + c.sends as f64 * self.send_overhead_ns
            + c.send_address_scans as f64 * self.send_scan_elem_ns
            + c.broadcast_stages as f64 * self.broadcast_stage_ns
            + c.broadcast_boxes as f64 * k * self.broadcast_elem_ns
            + c.flops as f64 * self.flop_ns
    }

    /// Modeled time in seconds.
    pub fn time_s(&self, c: &Counters, k: usize) -> f64 {
        self.time_ns(c, k) * 1e-9
    }

    /// Communication seconds of a budget (flops excluded).
    pub fn comm_s(&self, b: &ProgramBudget) -> f64 {
        self.time_s(&b.total_comm(), b.config_k)
    }

    /// Compute seconds of a budget.
    pub fn compute_s(&self, b: &ProgramBudget) -> f64 {
        b.total_flops() as f64 * self.flop_ns * 1e-9
    }

    /// Fraction of a budget's total modeled time spent communicating.
    pub fn comm_fraction(&self, b: &ProgramBudget) -> f64 {
        let c = self.comm_s(b);
        let f = self.compute_s(b);
        c / (c + f)
    }

    /// Achieved efficiency against a peak flop time (ns/flop at peak).
    /// `flop_ns` is the *achieved* per-flop time of real kernels;
    /// efficiency = (flops · peak_flop_ns) / total_time.
    pub fn efficiency(&self, b: &ProgramBudget, peak_flop_ns: f64) -> f64 {
        let total = self.comm_s(b) + self.compute_s(b);
        (b.total_flops() as f64 * peak_flop_ns * 1e-9) / total
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::cm5e()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_machine::{communication_budget, ProgramConfig};

    #[test]
    fn cshift_overhead_dominates_small_transfers() {
        let m = CostModel::cm5e();
        let many_small = Counters {
            cshifts: 54,
            off_vu_boxes: 3584,
            ..Default::default()
        };
        let few_large = Counters {
            cshifts: 6,
            off_vu_boxes: 6656,
            ..Default::default()
        };
        // The paper's observation: fewer, larger CSHIFTs win even when
        // they move more data (≈1.5× there).
        let t_small = m.time_s(&many_small, 12);
        let t_large = m.time_s(&few_large, 12);
        assert!(t_large < t_small, "{} vs {}", t_large, t_small);
        let ratio = t_small / t_large;
        assert!(ratio > 1.1 && ratio < 3.0, "ratio {}", ratio);
    }

    #[test]
    fn time_scales_with_k() {
        let m = CostModel::cm5e();
        let c = Counters {
            off_vu_boxes: 100,
            ..Default::default()
        };
        assert!(m.time_ns(&c, 72) > m.time_ns(&c, 12) * 5.9);
    }

    #[test]
    fn flops_counted() {
        let m = CostModel::cm5e();
        let c = Counters {
            flops: 1_000_000,
            ..Default::default()
        };
        assert!((m.time_s(&c, 1) - 8e-3).abs() < 1e-9);
    }

    #[test]
    fn paper_configs_hit_the_claimed_comm_band() {
        let cost = CostModel::cm5e();
        let d5 = communication_budget(&ProgramConfig::paper_d5());
        let d14 = communication_budget(&ProgramConfig::paper_d14());
        let f5 = cost.comm_fraction(&d5);
        let f14 = cost.comm_fraction(&d14);
        // Paper: "about 10-25%" (12% for K=12/depth 8 in the traversal,
        // 25% for K=72/depth 7). Our budget counts *minimal* data motion:
        // it reproduces the D=5 figure (~9% vs the paper's ~12%) but shows
        // the K=72 configuration to be compute-bound (~2%) — the paper's
        // 25% at K=72 reflects CM runtime overheads beyond minimal motion
        // (whole-subgrid moves, per-call costs); see EXPERIMENTS.md E9.
        assert!(f5 > 0.05 && f5 < 0.20, "D=5 comm fraction {}", f5);
        assert!(f14 > 0.005 && f14 < 0.30, "D=14 comm fraction {}", f14);
        assert!(f14 < f5, "K=72 moves fewer bytes per flop than K=12");
    }

    #[test]
    fn supernodes_reduce_compute_not_comm() {
        let mut cfg = ProgramConfig::paper_d5();
        cfg.supernodes = false;
        let plain = communication_budget(&cfg);
        cfg.supernodes = true;
        let sup = communication_budget(&cfg);
        assert!(sup.total_flops() < plain.total_flops());
        let cost = CostModel::cm5e();
        // Supernodes shrink the halo only slightly (depth 4 vs 5) while
        // cutting the T2 compute ~4.6×, so the comm fraction rises.
        assert!(cost.comm_fraction(&sup) >= cost.comm_fraction(&plain) * 0.99);
    }

    #[test]
    fn deeper_hierarchy_shrinks_halo_share() {
        // Bigger subgrids (same machine, deeper tree) have better
        // surface-to-volume, so the downward phase's comm per flop drops.
        let cost = CostModel::cm5e();
        let share = |depth: u32| {
            let cfg = ProgramConfig {
                depth,
                particles_per_box: 10.0,
                ..ProgramConfig::paper_d5()
            };
            let b = communication_budget(&cfg);
            let down = b
                .phases
                .iter()
                .find(|p| p.name == "downward(T2+T3)")
                .unwrap();
            cost.time_s(&down.comm, b.config_k)
                / (cost.time_s(&down.comm, b.config_k)
                    + down.compute_flops as f64 * cost.flop_ns * 1e-9)
        };
        assert!(share(8) < share(6), "{} vs {}", share(8), share(6));
    }

    #[test]
    fn sort_misses_add_router_traffic() {
        let cost = CostModel::cm5e();
        let mut cfg = ProgramConfig::paper_d5();
        cfg.sort_miss_fraction = 0.0;
        let clean = cost.comm_s(&communication_budget(&cfg));
        cfg.sort_miss_fraction = 0.5;
        let dirty = cost.comm_s(&communication_budget(&cfg));
        assert!(dirty > clean);
    }

    #[test]
    fn efficiency_in_papers_ballpark() {
        // With achieved-kernel flop time 2× the peak flop time (≈50%
        // arithmetic efficiency, the paper's Table-3 regime), the overall
        // efficiency should land in the paper's 25–40% band.
        let cost = CostModel::cm5e();
        let b = communication_budget(&ProgramConfig::paper_d14());
        let eff = cost.efficiency(&b, cost.flop_ns / 2.0);
        assert!(eff > 0.2 && eff < 0.55, "efficiency {}", eff);
    }
}
