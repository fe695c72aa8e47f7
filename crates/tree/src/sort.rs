//! The coordinate sort of §3.2 and particle binning.
//!
//! The paper sorts particles by keys built from the *VU-address bits* and
//! *local-memory-address bits* of the leaf box containing each particle
//! (Fig. 5), so that (a) particles of one box are contiguous and (b) each
//! particle lands in the memory of the VU that owns its box — turning the
//! 1-D → 4-D reshape into a local copy. In shared memory the analogue of
//! (b) is placing particles of spatially-adjacent boxes contiguously; the
//! VU-aware key is still provided because the machine simulator
//! (`fmm-machine`) and experiment E12 use it to measure locality.

use crate::coords::BoxCoord;
use crate::domain::Domain;

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

/// Assign every particle to its leaf box index (row-major within the leaf
/// level).
pub fn assign_boxes(positions: &[[f64; 3]], domain: &Domain, level: u32) -> Vec<u32> {
    positions
        .iter()
        .map(|&p| domain.locate(p, level).index() as u32)
        .collect()
}

/// The result of binning particles into leaf boxes: a permutation and CSR
/// offsets.
#[derive(Debug, Clone)]
pub struct Binning {
    /// `perm[i]` is the original index of the i-th particle in sorted
    /// order.
    pub perm: Vec<u32>,
    /// `starts[b]..starts[b+1]` is the sorted-order range of box `b`.
    pub starts: Vec<u32>,
}

impl Binning {
    /// Number of particles in box `b`.
    #[inline]
    pub fn count(&self, b: usize) -> usize {
        (self.starts[b + 1] - self.starts[b]) as usize
    }

    /// Sorted-order index range of box `b`.
    #[inline]
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.starts[b] as usize..self.starts[b + 1] as usize
    }

    /// Apply the permutation to gather an attribute array into sorted
    /// order.
    pub fn gather<T: Copy>(&self, src: &[T]) -> Vec<T> {
        self.perm.iter().map(|&i| src[i as usize]).collect()
    }

    /// Scatter a sorted-order array back to original particle order.
    pub fn scatter<T: Copy + Default>(&self, sorted: &[T]) -> Vec<T> {
        let mut out = vec![T::default(); sorted.len()];
        self.scatter_into(sorted, &mut out);
        out
    }

    /// [`Binning::scatter`] into a caller-provided slice of the same
    /// length.
    pub fn scatter_into<T: Copy>(&self, sorted: &[T], out: &mut [T]) {
        assert_eq!(out.len(), sorted.len());
        for (s, &i) in self.perm.iter().enumerate() {
            out[i as usize] = sorted[s];
        }
    }
}

/// Counting-sort particles by box id — O(N + #boxes), stable.
pub fn bin_particles(box_ids: &[u32], n_boxes: usize) -> Binning {
    let mut counts = vec![0u32; n_boxes + 1];
    for &b in box_ids {
        debug_assert!((b as usize) < n_boxes);
        counts[b as usize + 1] += 1;
    }
    for i in 0..n_boxes {
        counts[i + 1] += counts[i];
    }
    let starts = counts.clone();
    let mut cursor = counts;
    let mut perm = vec![0u32; box_ids.len()];
    for (i, &b) in box_ids.iter().enumerate() {
        perm[cursor[b as usize] as usize] = i as u32;
        cursor[b as usize] += 1;
    }
    Binning { perm, starts }
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

    fn pseudo_points(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| [next(), next(), next()]).collect()
    }

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
    fn binning_is_stable_partition() {
        let box_ids = vec![2u32, 0, 1, 2, 0, 2, 1];
        let b = bin_particles(&box_ids, 3);
        assert_eq!(b.starts, vec![0, 2, 4, 7]);
        assert_eq!(b.perm, vec![1, 4, 2, 6, 0, 3, 5]);
        assert_eq!(b.count(2), 3);
    }

    #[test]
    fn binning_counts_all_particles() {
        let pts = pseudo_points(1000, 42);
        let d = Domain::unit();
        let ids = assign_boxes(&pts, &d, 3);
        let b = bin_particles(&ids, 512);
        assert_eq!(*b.starts.last().unwrap(), 1000);
        // Every particle in the bin of box `bx` really belongs to `bx`.
        for bx in 0..512 {
            for s in b.range(bx) {
                assert_eq!(ids[b.perm[s] as usize] as usize, bx);
            }
        }
    }

    #[test]
    fn gather_scatter_round_trip() {
        let box_ids = vec![1u32, 0, 1, 0];
        let b = bin_particles(&box_ids, 2);
        let attr = vec![10.0, 20.0, 30.0, 40.0];
        let g = b.gather(&attr);
        assert_eq!(g, vec![20.0, 40.0, 10.0, 30.0]);
        assert_eq!(b.scatter(&g), attr);
    }

    #[test]
    fn coordinate_sort_groups_boxes() {
        let pts = pseudo_points(500, 7);
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
