//! One rank's leaf cells for the near field: flat SoA arrays and a dense
//! range table keyed by *origin* cell.
//!
//! Seeded with the cells the rank owns, in its own binning's order; cells
//! of other ranks are appended as their messages arrive. The travelling
//! sweep's slots (a cell's particles plus its accumulators) live here
//! too: a slot's position is its origin minus the displacement so far, so
//! a shift only packs the slots that cross to another rank and unpacks the
//! ones that arrive — everything else stays where it is. `fmm-core`'s
//! near-field bodies read the arrays through [`CellStore::cells`].

use std::ops::Range;

use fmm_core::near::Cells;
use fmm_core::particles::BinnedParticles;

use crate::schedule::cell_index;

/// See the module docs. Wire forms: a cell is `[count, xs.., ys.., zs..,
/// qs..]`, a slot `[new position, origin, cell, acc..]`; counts and indices
/// are envelope metadata, like a router packet header, and the payload
/// words are what the pack functions return.
#[derive(Default)]
pub struct CellStore {
    /// `[x, y, z, q, acc]`: the particles and, element for element, their
    /// travelling accumulators.
    soa: [Vec<f64>; 5],
    /// Per leaf cell (row-major): its run in the arrays while it is on
    /// this rank.
    spans: Vec<Option<Range<u32>>>,
    /// Particles of the cells on this rank; the rest of the arrays is what
    /// departed slots left behind.
    live: usize,
    /// Leaf cells per axis.
    n: usize,
    /// Displacement of the travelling slots so far: the slot of origin
    /// cell `o` is at position `o − cum`, wrapped.
    cum: [i32; 3],
}

impl CellStore {
    /// The cells `owned` (leaf indices) with the particles `bp` holds for
    /// them, accumulators zero.
    pub fn seed(bp: &BinnedParticles, owned: &[u32]) -> Self {
        let mut spans = vec![None; bp.binning.starts.len() - 1];
        for &b in owned {
            let r = bp.range(b as usize);
            spans[b as usize] = Some(r.start as u32..r.end as u32);
        }
        let acc = vec![0.0; bp.len()];
        CellStore {
            soa: [bp.x.clone(), bp.y.clone(), bp.z.clone(), bp.q.clone(), acc],
            spans,
            live: bp.len(),
            n: 1 << bp.level,
            cum: [0; 3],
        }
    }

    fn range(&self, c: usize) -> Option<Range<usize>> {
        let r = self.spans[c].as_ref()?;
        Some(r.start as usize..r.end as usize)
    }

    /// The runs `[xs, ys, zs, qs, acc]` of cell `c`, `None` while it is
    /// on another rank.
    pub fn slot(&self, c: usize) -> Option<[&[f64]; 5]> {
        let r = self.range(c)?;
        Some(self.soa.each_ref().map(|arr| &arr[r.clone()]))
    }

    /// Particles of the cells on this rank.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The view `fmm-core` reads sources through, and the accumulators it
    /// scatters into. `absent` answers for a cell that is not here: the
    /// caller decides what that means.
    pub fn cells<'a>(
        &'a mut self,
        absent: impl Fn(usize) -> Range<usize> + Sync + 'a,
    ) -> (
        Cells<'a, impl Fn(usize) -> Range<usize> + Sync + 'a>,
        &'a mut [f64],
    ) {
        let spans = &self.spans;
        let range = move |c: usize| match &spans[c] {
            Some(r) => r.start as usize..r.end as usize,
            None => absent(c),
        };
        let [x, y, z, q, acc] = &mut self.soa;
        (Cells::new(x, y, z, q, range), acc)
    }

    /// Append cell `c` to `data` in wire form (an empty cell if it is not
    /// here) and return its payload words.
    pub fn pack_cell(&self, c: usize, data: &mut Vec<f64>) -> u64 {
        let r = self.range(c).unwrap_or(0..0);
        data.push(r.len() as f64);
        for coords in &self.soa[..4] {
            data.extend_from_slice(&coords[r.clone()]);
        }
        4 * r.len() as u64
    }

    /// Take in a message of wire-form cells, one per index of `cells`.
    pub fn unpack_cells(&mut self, mut data: &[f64], cells: &[usize]) {
        for &c in cells {
            data = self.push(c, data[0] as usize, 4, &data[1..]);
        }
        debug_assert!(data.is_empty());
        let len = self.soa[0].len();
        self.soa[4].resize(len, 0.0);
    }

    /// The cell `by` away from `c`, with circular wrap.
    fn wrapped(&self, c: usize, by: [i32; 3]) -> usize {
        let n = self.n;
        let g = [c % n, c / n % n, c / (n * n)];
        let g = [0, 1, 2].map(|a| (g[a] as i64 + by[a] as i64).rem_euclid(n as i64) as usize);
        cell_index(g, n)
    }

    /// Take the slot at position `pos` off this rank, appending its wire
    /// form to `data`, bound for the position `delta` along `axis`.
    /// Returns its payload words, or its origin if the slot is not here.
    pub fn pack_slot(
        &mut self,
        pos: usize,
        axis: usize,
        delta: i32,
        data: &mut Vec<f64>,
    ) -> Result<u64, usize> {
        let mut hop = [0; 3];
        hop[axis] = delta;
        let origin = self.wrapped(pos, self.cum);
        let r = self.range(origin).ok_or(origin)?;
        data.extend([self.wrapped(pos, hop) as f64, origin as f64]);
        let words = self.pack_cell(origin, data) + r.len() as u64;
        data.extend_from_slice(&self.soa[4][r.clone()]);
        self.spans[origin] = None;
        self.live -= r.len();
        Ok(words)
    }

    /// Move every slot's position by `delta` along `axis`: nothing but the
    /// displacement changes.
    pub fn shift(&mut self, axis: usize, delta: i32) {
        self.cum[axis] -= delta;
    }

    /// Take in a message of wire-form slots.
    pub fn unpack_slots(&mut self, mut data: &[f64]) {
        // What departed slots left behind is reclaimed before it outweighs
        // what is here, so the footprint follows the resident cells.
        if self.soa[0].len() > 2 * self.live {
            self.compact();
        }
        while let [_npos, origin, cnt, ..] = *data {
            data = self.push(origin as usize, cnt as usize, 5, &data[3..]);
        }
        debug_assert!(data.is_empty());
    }

    /// Append cell `c`: `cnt` elements for each of the first `arrays`
    /// arrays lead `data`. Returns what follows them.
    fn push<'d>(&mut self, c: usize, cnt: usize, arrays: usize, mut data: &'d [f64]) -> &'d [f64] {
        debug_assert!(self.spans[c].is_none(), "cell {c} arrived twice");
        let start = self.soa[0].len() as u32;
        for arr in &mut self.soa[..arrays] {
            let (head, tail) = data.split_at(cnt);
            arr.extend_from_slice(head);
            data = tail;
        }
        self.spans[c] = Some(start..start + cnt as u32);
        self.live += cnt;
        data
    }

    /// Slide the cells that are here down over the gaps, in storage order.
    fn compact(&mut self) {
        let here = (0..self.spans.len()).filter_map(|c| Some((self.range(c)?, c)));
        let mut here: Vec<_> = here.map(|(r, c)| (r.start, r.end, c)).collect();
        here.sort_unstable();
        let mut end = 0;
        for (from, to, c) in here {
            for arr in &mut self.soa {
                arr.copy_within(from..to, end);
            }
            self.spans[c] = Some(end as u32..(end + to - from) as u32);
            end += to - from;
        }
        for arr in &mut self.soa {
            arr.truncate(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::Domain;

    #[test]
    fn slots_that_leave_and_return_keep_their_bits_in_a_bounded_footprint() {
        // One rank plays both ends of a shift: round after round a
        // quarter of its slots are packed and the message unpacked again.
        let unit = |i: usize| (i as f64 * 0.618_033_988_75).fract();
        let pts: Vec<[f64; 3]> = (0..500)
            .map(|i| [unit(i), unit(3 * i + 1), unit(7 * i + 2)])
            .collect();
        let q: Vec<f64> = (0..500).map(|i| unit(11 * i) - 0.5).collect();
        let bp = BinnedParticles::build(&pts, &q, Domain::unit(), 2);
        let owned: Vec<u32> = (0..64).collect();
        let mut store = CellStore::seed(&bp, &owned);
        for (i, a) in store.cells(|_| 0..0).1.iter_mut().enumerate() {
            *a = unit(13 * i);
        }
        let snapshot = |store: &CellStore| -> Vec<Vec<u64>> {
            let bits = |c| store.slot(c).expect("every slot is back").concat();
            (0..64)
                .map(|c| bits(c).iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let before = snapshot(&store);
        for round in 0..40 {
            let mut data = Vec::new();
            let mut words = 0;
            for pos in (round % 4..64).step_by(4) {
                words += store.pack_slot(pos, 0, 1, &mut data).expect("it is here");
                assert_eq!(store.pack_slot(pos, 0, 1, &mut Vec::new()), Err(pos));
            }
            assert_eq!(words as usize, 5 * (500 - store.live()));
            store.unpack_slots(&data);
            assert_eq!(store.live(), 500);
            assert!(store.soa[0].len() <= 2 * 500 + data.len(), "round {round}");
            assert_eq!(store.soa[4].len(), store.soa[0].len());
        }
        assert_eq!(snapshot(&store), before);
    }
}
