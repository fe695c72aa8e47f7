//! The VU-aware coordinate sort of the paper's §3.2 (Fig. 5), which
//! experiment E12 (`exp_sort`) measures and E14 (`exp_loadbalance`) lays
//! its VUs out by. The library bins particles with
//! `fmm_tree::bin_particles` and needs no VU address.

use fmm_tree::{BoxCoord, Domain};

/// Bit-field description of a block layout: for each axis, the number of
/// high-order (VU address) bits and low-order (local memory) bits of the
/// box coordinate. `vu_bits[a] + local_bits[a]` must equal the level (log₂
/// boxes per axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinateSortKey {
    pub vu_bits: [u32; 3],
    pub local_bits: [u32; 3],
}

impl CoordinateSortKey {
    /// A layout with no VU distribution (everything local) — the plain
    /// shared-memory case; keys then order boxes z-major row-major.
    pub fn local_only(level: u32) -> Self {
        CoordinateSortKey {
            vu_bits: [0; 3],
            local_bits: [level; 3],
        }
    }

    /// Build for a `vu_grid` of per-axis VU counts (powers of two) at a
    /// given level.
    pub fn for_vu_grid(level: u32, vu_grid: [u32; 3]) -> Self {
        let mut vu_bits = [0u32; 3];
        let mut local_bits = [0u32; 3];
        for a in 0..3 {
            assert!(
                vu_grid[a].is_power_of_two(),
                "VU grid must be powers of two"
            );
            let vb = vu_grid[a].trailing_zeros();
            assert!(vb <= level, "more VUs than boxes along axis {}", a);
            vu_bits[a] = vb;
            local_bits[a] = level - vb;
        }
        CoordinateSortKey {
            vu_bits,
            local_bits,
        }
    }

    /// The sort key of a box: VU-address bits (z,y,x) concatenated above
    /// local-address bits (z,y,x) — the paper's
    /// `z..z y..y x..x | z..z y..y x..x` key (Fig. 5).
    pub fn key(&self, b: BoxCoord) -> u64 {
        let split = |v: u32, a: usize| -> (u64, u64) {
            let lb = self.local_bits[a];
            ((v >> lb) as u64, (v & ((1 << lb) - 1)) as u64)
        };
        let (vx, lx) = split(b.x, 0);
        let (vy, ly) = split(b.y, 1);
        let (vz, lz) = split(b.z, 2);
        let vu_addr = (vz << (self.vu_bits[1] + self.vu_bits[0])) | (vy << self.vu_bits[0]) | vx;
        let local_addr =
            (lz << (self.local_bits[1] + self.local_bits[0])) | (ly << self.local_bits[0]) | lx;
        let local_total = self.local_bits[0] + self.local_bits[1] + self.local_bits[2];
        (vu_addr << local_total) | local_addr
    }

    /// The VU rank owning a box.
    pub fn vu_of(&self, b: BoxCoord) -> u64 {
        let local_total = self.local_bits[0] + self.local_bits[1] + self.local_bits[2];
        self.key(b) >> local_total
    }

    /// Total number of VUs in the layout.
    pub fn vu_count(&self) -> u64 {
        1u64 << (self.vu_bits[0] + self.vu_bits[1] + self.vu_bits[2])
    }
}

/// The full coordinate sort (paper §3.2 algorithm): assign boxes, build
/// VU-aware keys, and sort. Returns the permutation (sorted → original
/// index) together with each sorted particle's key.
pub fn coordinate_sort(
    positions: &[[f64; 3]],
    domain: &Domain,
    level: u32,
    layout: CoordinateSortKey,
) -> (Vec<u32>, Vec<u64>) {
    let mut keyed: Vec<(u64, u32)> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| (layout.key(domain.locate(p, level)), i as u32))
        .collect();
    keyed.sort_unstable();
    let keys = keyed.iter().map(|&(k, _)| k).collect();
    let perm = keyed.iter().map(|&(_, i)| i).collect();
    (perm, keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_only_key_is_row_major_index() {
        let layout = CoordinateSortKey::local_only(3);
        for idx in [0usize, 5, 63, 200, 511] {
            let b = BoxCoord::from_index(3, idx);
            assert_eq!(layout.key(b), idx as u64);
        }
    }

    #[test]
    fn vu_key_orders_by_vu_first() {
        // 2×2×2 VUs over a level-3 grid: boxes in the same VU octant must
        // have contiguous keys.
        let layout = CoordinateSortKey::for_vu_grid(3, [2, 2, 2]);
        assert_eq!(layout.vu_count(), 8);
        let b_lo = BoxCoord {
            level: 3,
            x: 3,
            y: 3,
            z: 3,
        }; // VU (0,0,0)
        let b_hi = BoxCoord {
            level: 3,
            x: 4,
            y: 0,
            z: 0,
        }; // VU (1,0,0)
        assert!(layout.key(b_lo) < layout.key(b_hi));
        assert_eq!(layout.vu_of(b_lo), 0);
        assert_eq!(layout.vu_of(b_hi), 1);
        // All 64 boxes of one VU have keys in one contiguous block of 64.
        let mut keys: Vec<u64> = (0..512)
            .map(|i| BoxCoord::from_index(3, i))
            .filter(|b| layout.vu_of(*b) == 3)
            .map(|b| layout.key(b))
            .collect();
        keys.sort_unstable();
        assert_eq!(keys.len(), 64);
        assert_eq!(keys[63] - keys[0], 63);
    }

    #[test]
    fn coordinate_sort_groups_boxes() {
        let pts = crate::workloads::uniform(500, 7);
        let d = Domain::unit();
        let layout = CoordinateSortKey::for_vu_grid(3, [2, 2, 1]);
        let (perm, keys) = coordinate_sort(&pts, &d, 3, layout);
        assert_eq!(perm.len(), 500);
        // Keys are non-decreasing, and particles with equal keys share a
        // box.
        for i in 1..keys.len() {
            assert!(keys[i] >= keys[i - 1]);
        }
        // Permutation is a bijection.
        let mut seen = vec![false; 500];
        for &p in &perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    #[should_panic]
    fn too_many_vus_panics() {
        let _ = CoordinateSortKey::for_vu_grid(2, [8, 1, 1]);
    }
}
