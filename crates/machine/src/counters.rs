//! Data-motion counters.
//!
//! Everything the paper's communication analysis measures: boxes moved
//! between VUs, boxes copied within a VU, CSHIFT invocations (fixed
//! overhead each), router messages, broadcast stages, and flops. Counts
//! are *element* (box) granular; one box is a K-vector of f64 and the cost
//! model scales accordingly.

/// Accumulated data-motion counts for one communication pattern or
/// program phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Boxes (K-vectors) that crossed a VU boundary.
    pub off_vu_boxes: u64,
    /// Boxes copied within a VU's memory.
    pub local_box_moves: u64,
    /// CSHIFT invocations (each has a large fixed overhead on the CM-5E).
    pub cshifts: u64,
    /// General-router send operations.
    pub sends: u64,
    /// Elements scanned to compute send addresses (the paper's "overhead
    /// in computing send addresses, which is about linear in the array
    /// size").
    pub send_address_scans: u64,
    /// One-to-all / one-to-group broadcast stages (log₂ fan-out hops).
    pub broadcast_stages: u64,
    /// Boxes carried by broadcasts (per stage).
    pub broadcast_boxes: u64,
    /// Floating point operations.
    pub flops: u64,
}

impl Counters {
    /// Sum of two counter sets.
    pub fn merge(&mut self, other: &Counters) {
        *self += *other;
    }
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, other: Counters) {
        self.off_vu_boxes += other.off_vu_boxes;
        self.local_box_moves += other.local_box_moves;
        self.cshifts += other.cshifts;
        self.sends += other.sends;
        self.send_address_scans += other.send_address_scans;
        self.broadcast_stages += other.broadcast_stages;
        self.broadcast_boxes += other.broadcast_boxes;
        self.flops += other.flops;
    }
}

impl std::ops::Add for Counters {
    type Output = Counters;
    fn add(mut self, other: Counters) -> Counters {
        self += other;
        self
    }
}

impl std::iter::Sum for Counters {
    fn sum<I: Iterator<Item = Counters>>(iter: I) -> Counters {
        iter.fold(Counters::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = Counters {
            off_vu_boxes: 1,
            local_box_moves: 2,
            cshifts: 3,
            ..Default::default()
        };
        let b = Counters {
            off_vu_boxes: 10,
            flops: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.off_vu_boxes, 11);
        assert_eq!(a.local_box_moves, 2);
        assert_eq!(a.flops, 5);
    }

    #[test]
    fn add_and_sum_match_merge() {
        let a = Counters {
            cshifts: 2,
            sends: 1,
            ..Default::default()
        };
        let b = Counters {
            cshifts: 3,
            broadcast_boxes: 7,
            ..Default::default()
        };
        let s: Counters = [a, b].into_iter().sum();
        assert_eq!(s.cshifts, 5);
        assert_eq!(s.sends, 1);
        assert_eq!(s.broadcast_boxes, 7);
        let mut m = a;
        m += b;
        assert_eq!(m, s);
        assert_eq!(a + b, s);
    }
}
