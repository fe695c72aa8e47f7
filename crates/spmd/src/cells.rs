//! One rank's leaf cells for the near field: flat SoA arrays and a dense
//! range table keyed by cell.
//!
//! Seeded with the cells the rank owns, in its own binning's order; cells
//! of other ranks are appended as the halo's messages arrive. Once the
//! halo is in, [`CellStore::lay_out_row_major`] copies the cells afresh in
//! row-major cell order, so each x-row of a neighbourhood is one run, as
//! in a binning. `fmm-core`'s near-field bodies, the force rows and the
//! symmetric potentials sweep, read the arrays through
//! [`CellStore::row_cells`].

use std::ops::Range;

use fmm_core::near::RowCells;
use fmm_core::particles::BinnedParticles;

/// See the module docs. Wire form of a cell: `[count, xs.., ys.., zs..,
/// qs..]`; the count is envelope metadata, like a router packet header,
/// and the payload words are what [`CellStore::pack_cell`] returns.
#[derive(Default)]
pub struct CellStore {
    /// `[x, y, z, q]` of the cells on this rank.
    soa: [Vec<f64>; 4],
    /// Per leaf cell (row-major): its run in the arrays while it is on
    /// this rank.
    spans: Vec<Option<Range<u32>>>,
}

impl CellStore {
    /// The cells `owned` (leaf indices) with the particles `bp` holds for
    /// them.
    pub fn seed(bp: &BinnedParticles, owned: &[u32]) -> Self {
        let mut spans = vec![None; bp.binning.starts.len() - 1];
        for &b in owned {
            let r = bp.range(b as usize);
            spans[b as usize] = Some(r.start as u32..r.end as u32);
        }
        CellStore {
            soa: [bp.x.clone(), bp.y.clone(), bp.z.clone(), bp.q.clone()],
            spans,
        }
    }

    /// The run of cell `c` in the arrays, `None` while it is not here.
    pub fn range(&self, c: usize) -> Option<Range<usize>> {
        let r = self.spans[c].as_ref()?;
        Some(r.start as usize..r.end as usize)
    }

    /// Particles in the arrays.
    pub fn len(&self) -> usize {
        self.soa[0].len()
    }

    /// True when no particle is here.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run starts of every leaf cell in row-major order, an absent cell
    /// empty where it would lie: the CSR of a store laid out row-major,
    /// which [`Self::row_cells`] reads through. Panics if the store is not
    /// laid out row-major.
    pub fn starts(&self) -> Vec<u32> {
        let mut starts = Vec::with_capacity(self.spans.len() + 1);
        let mut at = 0u32;
        for span in &self.spans {
            starts.push(at);
            if let Some(r) = span {
                assert_eq!(r.start, at, "the store is laid out row-major");
                at = r.end;
            }
        }
        starts.push(at);
        starts
    }

    /// The store as row-major cells over `starts` ([`Self::starts`]).
    pub fn row_cells<'a>(&'a self, starts: &'a [u32]) -> RowCells<'a> {
        let [x, y, z, q] = &self.soa;
        RowCells::new([x, y, z, q], starts)
    }

    /// Append cell `c` to `data` in wire form (an empty cell if it is not
    /// here) and return its payload words.
    pub fn pack_cell(&self, c: usize, data: &mut Vec<f64>) -> u64 {
        let r = self.range(c).unwrap_or(0..0);
        data.push(r.len() as f64);
        for coords in &self.soa {
            data.extend_from_slice(&coords[r.clone()]);
        }
        4 * r.len() as u64
    }

    /// Take in a message of wire-form cells, one per index of `cells`.
    pub fn unpack_cells(&mut self, mut data: &[f64], cells: &[usize]) {
        // Grown by what arrives, not doubled: the halo can be a sizeable
        // part of the store.
        let arriving = (data.len() - cells.len()) / 4;
        for arr in &mut self.soa {
            arr.reserve_exact(arriving);
        }
        for &c in cells {
            debug_assert!(self.spans[c].is_none(), "cell {c} arrived twice");
            let (cnt, start) = (data[0] as usize, self.len() as u32);
            data = &data[1..];
            for arr in &mut self.soa {
                let (head, tail) = data.split_at(cnt);
                arr.extend_from_slice(head);
                data = tail;
            }
            self.spans[c] = Some(start..start + cnt as u32);
        }
        debug_assert!(data.is_empty());
    }

    /// Copy the cells that are here into fresh arrays in row-major cell
    /// order: consecutive cells of an x-row then lie back to back, which
    /// the near field's rows need.
    pub fn lay_out_row_major(&mut self) {
        let mut soa: [Vec<f64>; 4] = std::array::from_fn(|_| Vec::with_capacity(self.len()));
        for c in 0..self.spans.len() {
            let Some(r) = self.range(c) else { continue };
            let start = soa[0].len() as u32;
            for (to, from) in soa.iter_mut().zip(&self.soa) {
                to.extend_from_slice(&from[r.clone()]);
            }
            self.spans[c] = Some(start..start + r.len() as u32);
        }
        self.soa = soa;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::{Domain, Kernel};
    use fmm_tree::BoxCoord;

    #[test]
    fn halo_cells_in_reverse_arrival_order_give_the_binnings_symmetric_bits() {
        // A rank owning z-planes 3 and 4 of a 512-box grid receives its
        // halo, the ghost targets' reach, last cell first, then lays its
        // store out row-major; its boxes are `Own`, the boxes whose rows
        // reach one of them `Ghost`. Every owned particle gets the
        // binning's bits, potentials and forces, on every tier.
        use fmm_core::near::{symmetric_rows, TargetRole};
        let unit = |i: usize| (i as f64 * 0.618_033_988_75).fract();
        let pts: Vec<[f64; 3]> = (0..2500)
            .map(|i| [unit(i), unit(5 * i + 1), unit(9 * i + 2)])
            .collect();
        let q: Vec<f64> = (0..2500).map(|i| unit(13 * i) - 0.5).collect();
        let bp = BinnedParticles::build(&pts, &q, Domain::unit(), 3);
        let mine = |b: usize| (3..5).contains(&BoxCoord::from_index(3, b).z);
        let owned: Vec<u32> = (0..512).filter(|&b| mine(b as usize)).collect();
        let near = |b: usize, offsets: &[[i32; 3]]| {
            let t = BoxCoord::from_index(3, b);
            offsets
                .iter()
                .filter_map(|&o| t.offset(o))
                .any(|s| mine(s.index()))
        };
        let reach = fmm_tree::half_stencil_reach();
        let halo: Vec<usize> = (0..512)
            .rev()
            .filter(|&b| !mine(b) && near(b, &reach))
            .collect();
        let all = CellStore::seed(&bp, &(0..512).collect::<Vec<_>>());
        let mut data = Vec::new();
        for &c in &halo {
            all.pack_cell(c, &mut data);
        }
        let mut store = CellStore::seed(&bp, &owned);
        store.unpack_cells(&data, &halo);
        store.lay_out_row_major();
        let starts = store.starts();
        let half = fmm_tree::half_offsets();
        let role = |b: usize| match (mine(b), near(b, &half)) {
            (true, _) => TargetRole::Own,
            (false, true) => TargetRole::Ghost,
            (false, false) => TargetRole::Skip,
        };
        let eps2 = 1e-4;
        for kernel in Kernel::available() {
            for with_fields in [false, true] {
                let all = |_| TargetRole::Own;
                let (want, want_st) =
                    symmetric_rows(kernel, 3, bp.row_cells(), eps2, with_fields, all);
                let cells = store.row_cells(&starts);
                let (got, st) = symmetric_rows(kernel, 3, cells, eps2, with_fields, role);
                assert!(st.own.pair_interactions < want_st.own.pair_interactions);
                for &b in &owned {
                    let (r, s) = (bp.range(b as usize), store.range(b as usize).unwrap());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    for (g, w) in got.iter().zip(&want) {
                        let what = format!("{kernel:?} forces={with_fields} box {b}");
                        assert_eq!(bits(&g[s.clone()]), bits(&w[r.clone()]), "{what}");
                    }
                }
            }
        }
    }
}
