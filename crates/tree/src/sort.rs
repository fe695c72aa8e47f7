//! Particle binning: the part of the paper's coordinate sort (§3.2) that
//! makes the particles of one leaf box contiguous. The VU-aware key of
//! its Fig. 5 is experiment E12's (`fmm_bench::sort`).

use crate::domain::Domain;

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
}
