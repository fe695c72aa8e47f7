//! Whole-program communication budget of a distributed FMM run.
//!
//! The paper's bottom-line communication claims — "the communication time
//! for large particle systems amounts to about 10–25%, and the overall
//! efficiency is about 35%" — are budget statements over the five phases
//! of the method on a block-distributed machine. This module assembles
//! that budget from the same per-phase counting used by the Table-4 /
//! Fig.-7 experiments:
//!
//! * **sort** — the coordinate sort leaves a (distribution-dependent)
//!   fraction of particles off their box's VU; those move once through
//!   the router,
//! * **P2O / eval** — particle–box interactions are local after the sort,
//! * **upward / downward parent–child** — local while a level has at
//!   least one box per VU, a small send above that (the two-step
//!   Multigrid-embed),
//! * **interactive field** — one ghost-halo fetch per level (forwarding
//!   strategy: exact halo volume, 6 CSHIFTs),
//! * **near field** — 62 unit CSHIFTs of the leaf particle arrays
//!   (travelling-accumulator symmetry).

use crate::counters::Counters;
use crate::layout::VuGrid;
use fmm_tree::partition::{box_halo, child_flush, parent_fetch, particle_halo, slot_route};
use fmm_tree::{Partition, Separation, TravelPath};

/// Ghost depth for two-separation interactive fields: the field spans
/// [−5, 5] per axis but boxes deeper than 4 inside a neighbouring subgrid
/// are never needed by any box of the target subgrid... precisely: a
/// boundary box's farthest interactive offset is 5 outward, of which the
/// first is the boundary itself, so the halo is 4 deep plus the adjacent
/// row — the paper states "the ghost region is four boxes deep on each
/// face" for its subgrids; we keep that constant.
pub const GHOST_DEPTH: usize = 4;

/// Words moved per particle by the router sort and the travelling
/// near-field sweep: x, y, z, q plus one bookkeeping word (the original
/// index for the sort, the travelling accumulator for the near field).
pub const PARTICLE_WORDS: u64 = 5;

/// Configuration of a simulated FMM run.
#[derive(Debug, Clone)]
pub struct ProgramConfig {
    /// Hierarchy depth h (leaf level has 8^h boxes).
    pub depth: u32,
    /// Sphere integration points per box.
    pub k: usize,
    /// Legendre truncation.
    pub m: usize,
    /// Mean particles per leaf box.
    pub particles_per_box: f64,
    /// The machine.
    pub vu_grid: VuGrid,
    /// Supernodes on (189 translations/box) or off (875).
    pub supernodes: bool,
    /// Fraction of particles NOT on their box's VU after the coordinate
    /// sort (0 for uniform distributions, per §3.2).
    pub sort_miss_fraction: f64,
    /// Near-field variant: `false` prices the travelling-accumulator
    /// potentials sweep (62 visits + returns), `true` the forces
    /// particle-halo exchange (one clipped halo fetch, three axis phases).
    pub forces_near: bool,
}

impl ProgramConfig {
    /// The paper's large-system configuration: depth-8 hierarchy on a
    /// 256-node (1024-VU) CM-5E, 100M particles, K = 12.
    pub fn paper_d5() -> Self {
        ProgramConfig {
            depth: 8,
            k: 12,
            m: 3,
            particles_per_box: 100e6 / 8f64.powi(8),
            vu_grid: VuGrid::new([16, 8, 8]),
            supernodes: true,
            sort_miss_fraction: 0.0,
            forces_near: false,
        }
    }

    /// The paper's high-accuracy configuration: depth 7, K = 72.
    pub fn paper_d14() -> Self {
        ProgramConfig {
            depth: 7,
            k: 72,
            m: 8,
            particles_per_box: 100e6 / 8f64.powi(7),
            vu_grid: VuGrid::new([16, 8, 8]),
            supernodes: true,
            sort_miss_fraction: 0.0,
            forces_near: false,
        }
    }

    /// Total particles.
    pub fn n_particles(&self) -> f64 {
        self.particles_per_box * 8f64.powi(self.depth as i32)
    }
}

/// One phase of the budget.
#[derive(Debug, Clone)]
pub struct PhaseBudget {
    pub name: &'static str,
    pub comm: Counters,
    pub compute_flops: u64,
}

/// The assembled budget.
#[derive(Debug, Clone)]
pub struct ProgramBudget {
    pub phases: Vec<PhaseBudget>,
    pub config_k: usize,
}

impl ProgramBudget {
    /// All phase counters merged (the cost model is linear in the
    /// counters, so timing the merged set equals summing per-phase times).
    pub fn total_comm(&self) -> Counters {
        self.phases.iter().map(|p| p.comm).sum()
    }

    pub fn total_flops(&self) -> u64 {
        self.phases.iter().map(|p| p.compute_flops).sum()
    }
}

/// Total chunk-hops of a binomial-tree gather to rank 0 over `p = 2^b`
/// ranks: rank r's chunk travels popcount(r) hops, and
/// Σ_{r=1}^{p−1} popcount(r) = (p/2)·log₂(p).
pub fn gather_hops(p: u64) -> u64 {
    debug_assert!(p.is_power_of_two());
    (p / 2) * p.trailing_zeros() as u64
}

/// Per-VU subgrid extent (per axis) of level `l` over a VU grid, or `None`
/// when the level has fewer boxes than VUs along some axis.
pub fn subgrid_extent(l: u32, vu: &VuGrid) -> Option<[usize; 3]> {
    let n = 1usize << l;
    let mut s = [0; 3];
    for (sa, &d) in s.iter_mut().zip(&vu.dims) {
        if n < d {
            return None;
        }
        *sa = n / d;
    }
    Some(s)
}

/// Assemble the per-phase communication/compute budget for the uniform
/// block layout (equivalent to [`communication_budget_with`] with no
/// partition).
pub fn communication_budget(cfg: &ProgramConfig) -> ProgramBudget {
    communication_budget_with(cfg, None)
}

/// Assemble the per-phase budget, optionally for a cost-weighted
/// [`Partition`] of the leaf Morton curve instead of the uniform block
/// layout.
///
/// With a partition, the upward / downward / near communication counters
/// are no longer closed forms: they are summed from the exact exchange
/// plans the partition induces ([`fmm_tree::partition`]) — the same plans
/// the SPMD schedule and executor consume — so `sends` equals the
/// machine-wide message count and `off_vu_boxes` the cross-owner K-box
/// rows *exactly*, making the budget byte-exact against executor counters
/// by construction. Compute flops keep the layout-independent closed
/// forms. The partitioned near field is modelled at two-separation, like
/// the closed-form path.
pub fn communication_budget_with(
    cfg: &ProgramConfig,
    partition: Option<&Partition>,
) -> ProgramBudget {
    let mut budget = closed_form_budget(cfg);
    let Some(part) = partition else {
        return budget;
    };
    assert_eq!(
        part.workers(),
        cfg.vu_grid.len(),
        "partition workers must match the VU grid"
    );
    assert_eq!(part.depth(), cfg.depth, "partition depth must match");
    let h = cfg.depth;
    let sep = Separation::Two;

    // Upward: one child-flush exchange per computed parent level
    // (depth−1 down to 2); no gather/broadcast embedding.
    let mut up = Counters::default();
    for l in 2..h {
        let ex = child_flush(part, l);
        up.sends += ex.messages();
        up.off_vu_boxes += ex.rows();
    }
    budget.phases[2].comm = up;

    // Downward: per level, a parent-fetch of local rows (l ≥ 3) and a
    // box-halo of far rows over the interactive-field union.
    let mut down = Counters::default();
    for l in 2..=h {
        if l >= 3 {
            let ex = parent_fetch(part, l);
            down.sends += ex.messages();
            down.off_vu_boxes += ex.rows();
        }
        let ex = box_halo(part, l, sep);
        down.sends += ex.messages();
        down.off_vu_boxes += ex.rows();
    }
    budget.phases[3].comm = down;

    // Near field: the travelling-slot sweep becomes per-hop routed
    // exchanges (steps shift by −dir; returns walk the slots home), or one
    // particle-halo exchange for forces. Payloads are data-dependent, so
    // only the message count is predicted (bytes stay un-checked).
    let mut near = Counters::default();
    if cfg.forces_near {
        near.sends += particle_halo(part, sep).messages();
    } else {
        let path = TravelPath::new(sep.d());
        for s in &path.steps {
            near.sends += slot_route(part, s.axis, -s.dir).messages();
        }
        for (axis, &r) in path.returns.iter().enumerate() {
            for _ in 0..r.unsigned_abs() {
                near.sends += slot_route(part, axis, -r.signum()).messages();
            }
        }
    }
    budget.phases[5].comm = near;
    budget
}

/// The closed-form uniform-layout budget body.
fn closed_form_budget(cfg: &ProgramConfig) -> ProgramBudget {
    let p = cfg.vu_grid.len() as u64;
    let k = cfg.k as u64;
    let n = cfg.n_particles();
    let h = cfg.depth;
    let leaf_boxes = 1u64 << (3 * h);
    let mut phases = Vec::new();

    // --- sort -----------------------------------------------------------
    // One all-to-allv through the router; each mis-homed particle carries
    // PARTICLE_WORDS f64 (x, y, z, q, original index), scaled to K-boxes.
    let misses = (n * cfg.sort_miss_fraction) as u64;
    phases.push(PhaseBudget {
        name: "sort",
        comm: Counters {
            sends: if misses > 0 { 1 } else { 0 },
            off_vu_boxes: misses * PARTICLE_WORDS / k.max(1),
            send_address_scans: n as u64,
            ..Default::default()
        },
        compute_flops: (n * (n / p as f64).log2().max(1.0)) as u64, // comparison work
    });

    // --- P2O (local after the sort) --------------------------------------
    phases.push(PhaseBudget {
        name: "p2o",
        comm: Counters::default(),
        compute_flops: (n * cfg.k as f64 * 10.0) as u64,
    });

    // --- upward (T1) ------------------------------------------------------
    // While parent and child levels are both block-distributed, a child
    // and its parent share a VU (the block layout strips one low bit per
    // axis), so gathering children is pure local motion. At the single
    // transition to the Multigrid-embed region, the child level's far
    // field is gathered to rank 0 by a binomial tree; every shallower
    // level is computed there with local moves only.
    let mut up_comm = Counters::default();
    let mut up_flops = 0u64;
    for l in (1..h).rev() {
        let boxes = 1u64 << (3 * l);
        let children = boxes * 8;
        up_flops += boxes * 8 * 2 * k * k;
        up_comm.local_box_moves += children;
        if subgrid_extent(l, &cfg.vu_grid).is_none()
            && subgrid_extent(l + 1, &cfg.vu_grid).is_some()
        {
            // Embed transition: binomial gather of far[l+1] to rank 0.
            up_comm.sends += p - 1;
            up_comm.off_vu_boxes += (children / p) * gather_hops(p);
        }
    }
    phases.push(PhaseBudget {
        name: "upward(T1)",
        comm: up_comm,
        compute_flops: up_flops,
    });

    // --- downward (T2 + T3) ----------------------------------------------
    let translations_per_box = if cfg.supernodes { 189u64 } else { 875 };
    let mut down_comm = Counters::default();
    let mut down_flops = 0u64;
    for l in 2..=h {
        let boxes = 1u64 << (3 * l);
        down_flops += boxes * translations_per_box * 2 * k * k; // T2
        if l >= 3 {
            down_flops += boxes * 2 * k * k; // T3
        }
        match subgrid_extent(l, &cfg.vu_grid) {
            Some(s) => {
                // Forwarding halo fetch: exact halo volume, 6 CSHIFTs,
                // plus local copies for the buffer and the T2 gathers.
                // Plain T2 reads sources up to 2d+1 = 5 child boxes away
                // (the per-octant reach is asymmetric, [−5, +4]/[−4, +5];
                // a symmetric depth-5 halo covers it); the supernode
                // decomposition's leftover children stay within the
                // paper's GHOST_DEPTH = 4.
                let g = if cfg.supernodes {
                    GHOST_DEPTH
                } else {
                    GHOST_DEPTH + 1
                };
                let halo =
                    ((s[0] + 2 * g) * (s[1] + 2 * g) * (s[2] + 2 * g) - s[0] * s[1] * s[2]) as u64;
                // A ghost cell at distance o (1 ≤ o ≤ g) beyond the block
                // edge along axis a lives on VU (me ± ⌈o/s_a⌉) mod dims_a;
                // when that wraps back onto the owner (small grids: an axis
                // spanned by one VU, or g reaching all the way around) the
                // fetch is pure local motion, not a message. Per-axis
                // off-VU offsets times the axis phase's cross-section — the
                // corner-forwarding phases extend earlier axes first — give
                // the exact off-VU halo volume. On grids where no offset
                // wraps home (all the paper configurations) every ghost
                // cell is off-VU and this reduces to the full halo.
                let dims = cfg.vu_grid.dims;
                let off_offsets = |a: usize| -> u64 {
                    2 * (1..=g).filter(|&o| o.div_ceil(s[a]) % dims[a] != 0).count() as u64
                };
                let cross = [
                    (s[1] * s[2]) as u64,
                    ((s[0] + 2 * g) * s[2]) as u64,
                    ((s[0] + 2 * g) * (s[1] + 2 * g)) as u64,
                ];
                let off: u64 = (0..3).map(|a| off_offsets(a) * cross[a]).sum();
                down_comm.cshifts += 6;
                down_comm.off_vu_boxes += off * p;
                down_comm.local_box_moves += (halo - off + boxes / p * translations_per_box) * p;
            }
            None => {
                // Embedded level: computed wholly on rank 0; the 27-point
                // neighbourhood gathers are local memory traffic there.
                down_comm.local_box_moves += boxes * 27;
            }
        }
    }
    // Re-entering the distributed region: the first distributed level l_d
    // with an embedded parent needs local[l_d − 1] everywhere for T3, so
    // rank 0 tree-broadcasts that (tiny) level once.
    if let Some(l_d) = (2..=h).find(|&l| subgrid_extent(l, &cfg.vu_grid).is_some()) {
        if l_d >= 3 && subgrid_extent(l_d - 1, &cfg.vu_grid).is_none() {
            let parent_boxes = 1u64 << (3 * (l_d - 1));
            down_comm.broadcast_stages += p.trailing_zeros() as u64;
            down_comm.broadcast_boxes += parent_boxes * (p - 1);
        }
    }
    phases.push(PhaseBudget {
        name: "downward(T2+T3)",
        comm: down_comm,
        compute_flops: down_flops,
    });

    // --- leaf evaluation ---------------------------------------------------
    phases.push(PhaseBudget {
        name: "eval",
        comm: Counters::default(),
        compute_flops: (n * cfg.k as f64 * (cfg.m as f64 + 1.0) * 6.0) as u64,
    });

    // --- near field ---------------------------------------------------------
    let pairs = n * cfg.particles_per_box * 125.0 / 2.0; // symmetric sweep
    let near_flops = (pairs * 10.0) as u64;
    let mut near_comm = Counters::default();
    if cfg.forces_near {
        // Forces near field: one clipped particle-halo fetch of the
        // separation-depth shell (d = 2) instead of the travelling sweep —
        // three axis phases, two CSHIFT-ledger ops each (like the box
        // halo). Ghost particles carry x, y, z, q (no accumulator; forces
        // accumulate one-sided on the owning VU), scaled to K-boxes.
        near_comm.cshifts += 6;
        if let Some(s) = subgrid_extent(h, &cfg.vu_grid) {
            let d_sep = 2u64;
            let plane = leaf_boxes >> h; // n² boxes per leaf-grid plane
            let crossing: u64 = (0..3)
                .filter(|&a| cfg.vu_grid.dims[a] > 1)
                .map(|a| {
                    let seams = cfg.vu_grid.dims[a] as u64 - 1;
                    2 * d_sep.min(s[a] as u64) * seams * plane
                })
                .sum();
            let words_per_box = cfg.particles_per_box * 4.0;
            near_comm.off_vu_boxes += (crossing as f64 * words_per_box / cfg.k as f64) as u64;
        }
    } else if let Some(s) = subgrid_extent(h, &cfg.vu_grid) {
        // The travelling-accumulator sweep: one unit CSHIFT per visited
        // half-offset plus one return shift per axis. Each unit
        // displacement along axis a moves every VU's boundary plane
        // (leaf_boxes / s[a] boxes globally) across a VU seam and the rest
        // within VU memory; each box carries particles_per_box particles
        // of PARTICLE_WORDS f64 (x, y, z, q, accumulator), scaled to
        // K-boxes.
        let path = TravelPath::new(2);
        near_comm.cshifts += path.cshift_count();
        let total_moves: u64 = (0..3)
            .map(|a| path.total_travel_along(a) * leaf_boxes)
            .sum();
        // An axis spanned by a single VU wraps onto itself: the shift is
        // pure local motion, nothing crosses a seam.
        let crossing: u64 = (0..3)
            .filter(|&a| cfg.vu_grid.dims[a] > 1)
            .map(|a| path.total_travel_along(a) * (leaf_boxes / s[a] as u64))
            .sum();
        let words_per_box = cfg.particles_per_box * PARTICLE_WORDS as f64;
        near_comm.off_vu_boxes += (crossing as f64 * words_per_box / cfg.k as f64) as u64;
        near_comm.local_box_moves +=
            ((total_moves - crossing) as f64 * words_per_box / cfg.k as f64) as u64;
    }
    phases.push(PhaseBudget {
        name: "near",
        comm: near_comm,
        compute_flops: near_flops,
    });

    ProgramBudget {
        phases,
        config_k: cfg.k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_budget_sums_the_exchange_plans() {
        let cfg = ProgramConfig {
            depth: 3,
            k: 6,
            m: 3,
            particles_per_box: 4.0,
            vu_grid: VuGrid::new([2, 2, 2]),
            supernodes: false,
            sort_miss_fraction: 1.0 - 1.0 / 8.0,
            forces_near: false,
        };
        let costs: Vec<u64> = (0..512u64)
            .map(|i| (i.wrapping_mul(2654435761)) % 997)
            .collect();
        let part = Partition::cost_weighted(3, 8, &costs);
        let b = communication_budget_with(&cfg, Some(&part));
        // Upward is exactly the level-2 child flush.
        let cf = child_flush(&part, 2);
        assert_eq!(b.phases[2].comm.sends, cf.messages());
        assert_eq!(b.phases[2].comm.off_vu_boxes, cf.rows());
        // Downward sums parent fetches and box halos.
        let expect: u64 = [
            box_halo(&part, 2, Separation::Two),
            box_halo(&part, 3, Separation::Two),
        ]
        .iter()
        .map(|e| e.messages())
        .sum::<u64>()
            + parent_fetch(&part, 3).messages();
        assert_eq!(b.phases[3].comm.sends, expect);
        // P2O and eval stay communication-free.
        assert_eq!(crate::compare::predicted_messages(&b.phases[1].comm), 0);
        assert_eq!(crate::compare::predicted_messages(&b.phases[4].comm), 0);
        // The forces variant prices the particle halo instead of the sweep.
        let bf = communication_budget_with(
            &ProgramConfig {
                forces_near: true,
                ..cfg.clone()
            },
            Some(&part),
        );
        assert_eq!(
            bf.phases[5].comm.sends,
            particle_halo(&part, Separation::Two).messages()
        );
    }

    #[test]
    fn single_worker_partition_has_silent_phases() {
        let cfg = ProgramConfig {
            depth: 3,
            k: 6,
            m: 3,
            particles_per_box: 4.0,
            vu_grid: VuGrid::new([1, 1, 1]),
            supernodes: false,
            sort_miss_fraction: 0.0,
            forces_near: false,
        };
        let b = communication_budget_with(&cfg, Some(&Partition::uniform(3, 1)));
        for ph in &b.phases {
            assert_eq!(
                crate::compare::predicted_messages(&ph.comm),
                0,
                "phase {} should be silent at p = 1",
                ph.name
            );
        }
    }
}
