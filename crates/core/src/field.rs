//! Flattened per-level potential storage.
//!
//! The paper embeds the whole hierarchy of far-field potentials in two
//! layers of a 4-D array (Fig. 3) so that herarchical operations become
//! array operations on flattened data. The shared-memory analogue: one
//! contiguous `8^l × R × K` row-major buffer per level for `R` instances
//! that share the hierarchy (one K-vector per box and instance, boxes in
//! row-major order, a box's `R` instances adjacent), which is exactly the
//! panel layout the aggregated GEMMs consume. One instance (`R = 1`, what
//! [`FieldHierarchy::new`] builds) is one K-vector per box.

use fmm_tree::Hierarchy;

/// Far-field (outer) and local-field (inner) sample buffers for every
/// level of the hierarchy, for `r` instances.
#[derive(Debug, Clone)]
pub struct FieldHierarchy {
    pub k: usize,
    /// Instances laid out box-major: instance `i` of box `b` at
    /// `(b·r + i)·k` in every level array.
    pub r: usize,
    pub hierarchy: Hierarchy,
    /// `far[l]` has length `8^l * r * k`; box b's samples of instance i at
    /// `(b*r + i)*k..(b*r + i + 1)*k`.
    pub far: Vec<Vec<f64>>,
    /// Same layout for the inner (local-field) samples.
    pub local: Vec<Vec<f64>>,
}

impl FieldHierarchy {
    /// One instance.
    pub fn new(hierarchy: Hierarchy, k: usize) -> Self {
        Self::instances(hierarchy, k, 1)
    }

    /// `r` instances sharing the hierarchy, interleaved per box.
    pub fn instances(hierarchy: Hierarchy, k: usize, r: usize) -> Self {
        let levels = || {
            (0..=hierarchy.depth)
                .map(|l| vec![0.0; hierarchy.boxes_at_level(l) * r * k])
                .collect()
        };
        FieldHierarchy {
            k,
            r,
            far: levels(),
            local: levels(),
            hierarchy,
        }
    }

    /// Total stored f64s (memory-efficiency accounting; the paper stores
    /// far-field potentials for all levels, local fields per level in
    /// flight).
    pub fn len(&self) -> usize {
        self.far.iter().map(Vec::len).sum::<usize>()
            + self.local.iter().map(Vec::len).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_follow_levels() {
        let f = FieldHierarchy::new(Hierarchy::new(3), 12);
        assert_eq!(f.far[0].len(), 12);
        assert_eq!(f.far[3].len(), 512 * 12);
        assert_eq!(f.local[2].len(), 64 * 12);
        // total = 2 · K · (1 + 8 + 64 + 512)
        assert_eq!(f.len(), 2 * 12 * 585);
    }

    #[test]
    fn instances_scale_every_level() {
        let f = FieldHierarchy::instances(Hierarchy::new(2), 4, 3);
        assert_eq!(f.far[2].len(), 64 * 3 * 4);
        assert_eq!(f.local[1].len(), 8 * 3 * 4);
        assert_eq!(f.len(), 3 * FieldHierarchy::new(Hierarchy::new(2), 4).len());
    }
}
