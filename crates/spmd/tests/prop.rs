//! Property tests of the SPMD executor and its channel primitives:
//! backend equivalence is bitwise for arbitrary systems, the particle
//! halo brings exactly its clipped box bit for bit, and the all-to-all
//! router loses nothing.

use fmm_core::particles::BinnedParticles;
use fmm_core::{Balance, Domain, Executor, Fmm, FmmConfig};
use fmm_machine::BlockLayout;
use fmm_spmd::cells::CellStore;
use fmm_spmd::collectives::{all_to_allv, particle_halo_axis};
use fmm_spmd::{run_workers, vu_grid_for, Partition};
use proptest::prelude::*;

fn system(lo: usize, hi: usize) -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<f64>)> {
    (lo..hi).prop_flat_map(|n| {
        (
            proptest::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y, z)| [x, y, z]),
                n,
            ),
            proptest::collection::vec(-2.0f64..2.0, n),
        )
    })
}

/// Splitmix64 — deterministic contents any worker can rebuild.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Every leaf cell that is on the rank, in wire form, as bits.
fn snapshot(store: &CellStore, leaves: usize) -> Vec<Option<Vec<u64>>> {
    let wire = |c: usize| {
        let mut data = Vec::new();
        store.pack_cell(c, &mut data);
        data.iter().map(|v| v.to_bits()).collect()
    };
    (0..leaves)
        .map(|c| store.range(c).map(|_| wire(c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `Executor::spmd(p)` reproduces `Executor::Serial` bit for bit on
    /// arbitrary particle systems, for every depth, worker count and
    /// balance mode.
    #[test]
    fn spmd_matches_serial_bitwise((pts, q) in system(40, 250),
                                   depth in 2u32..4,
                                   log_p in 0u32..4,
                                   cost_weighted in proptest::bool::ANY) {
        fmm_spmd::install();
        let p = 1usize << log_p;
        let bal = if cost_weighted { Balance::CostWeighted } else { Balance::Uniform };
        let cfg = |e| FmmConfig::order(3).depth(depth).executor(e).balance(bal);
        let serial = Fmm::new(cfg(Executor::Serial)).unwrap()
            .evaluate(&pts, &q).unwrap();
        let spmd = Fmm::new(cfg(Executor::spmd(p))).unwrap()
            .evaluate(&pts, &q).unwrap();
        for (i, (a, b)) in serial.potentials.iter().zip(&spmd.potentials).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(),
                            "particle {} differs at p={} depth={} bal={:?}", i, p, depth, bal);
        }
        prop_assert_eq!(serial.near_stats.pair_interactions,
                        spmd.near_stats.pair_interactions);
    }

    /// A cost-weighted partition is a permutation-free exact cover of the
    /// leaf Morton curve: cuts are monotone from 0 to 8^depth, every leaf
    /// has exactly one owner, and ownership never goes backwards along
    /// the curve — for arbitrary (including zero and heavy-tailed) costs.
    #[test]
    fn cost_weighted_partition_is_exact_monotone_cover(depth in 2u32..4,
                                                       log_p in 0u32..4,
                                                       seed in 0u64..1 << 60,
                                                       tail in 1u64..10_000) {
        let p = 1usize << log_p;
        let leaves = 1u64 << (3 * depth);
        let costs: Vec<u64> = (0..leaves)
            .map(|b| { let h = mix(seed ^ b); if h.is_multiple_of(13) { h % tail } else { h % 7 } })
            .collect();
        let part = Partition::cost_weighted(depth, p, &costs);
        let splits = part.splits();
        prop_assert_eq!(splits.len(), p + 1);
        prop_assert_eq!(splits[0], 0);
        prop_assert_eq!(splits[p], leaves);
        prop_assert!(splits.windows(2).all(|w| w[0] <= w[1]), "monotone cuts");
        let mut covered = 0u64;
        for r in 0..p {
            let range = part.owned_at(r, depth);
            prop_assert_eq!(range.start, splits[r]);
            prop_assert_eq!(range.end, splits[r + 1]);
            for code in range.clone().take(64) {
                prop_assert_eq!(part.leaf_owner(code), r, "leaf {} owner", code);
            }
            covered += range.end - range.start;
        }
        prop_assert_eq!(covered, leaves, "exact cover");
    }

    /// The three axis phases of a block-layout particle halo, `g[a]` deep
    /// along axis `a`, leave every rank holding exactly the cells of its
    /// subgrid's box grown by `g` and clipped to the domain, each bit for
    /// bit as its owner binned it (corner cells forwarded through the
    /// earlier phases).
    #[test]
    fn particle_halo_brings_the_clipped_box_bit_for_bit(g in (1usize..5, 1usize..5, 1usize..3),
                                                        log_p in 0u32..4,
                                                        seed in 0u64..1 << 60) {
        let (p, n, g) = (1usize << log_p, 8usize, [g.0, g.1, g.2]);
        let coords = |b: usize| [b % n, (b / n) % n, b / (n * n)];
        // 0–3 particles inside leaf `b`, a pure function of (leaf, seed).
        let leaf = |b: usize, pos: &mut Vec<[f64; 3]>, q: &mut Vec<f64>| {
            let h = mix(seed ^ (b as u64).wrapping_mul(0x2545F4914F6CDD1D));
            for i in 0..h % 4 {
                let s = mix(h ^ i);
                let u = [unit(s), unit(mix(s)), unit(mix(mix(s)))];
                let c = coords(b);
                pos.push([0, 1, 2].map(|a| (c[a] as f64 + u[a]) / n as f64));
                q.push(unit(s.rotate_left(17)) * 2.0 - 1.0);
            }
        };
        let (mut pos, mut q) = (Vec::new(), Vec::new());
        for b in 0..n * n * n {
            leaf(b, &mut pos, &mut q);
        }
        let every = BinnedParticles::build(&pos, &q, Domain::unit(), 3);
        let want = snapshot(&CellStore::seed(&every, &(0..(n * n * n) as u32).collect::<Vec<_>>()), n * n * n);
        let all: Vec<_> = run_workers(vu_grid_for(p), |mut ctx| {
            let lay = BlockLayout::new([n; 3], ctx.grid);
            let owned: Vec<u32> = (0..(n * n * n) as u32)
                .filter(|&b| lay.vu_of(coords(b as usize)) == ctx.rank)
                .collect();
            let (mut pos, mut q) = (Vec::new(), Vec::new());
            for &b in &owned {
                leaf(b as usize, &mut pos, &mut q);
            }
            let bp = BinnedParticles::build(&pos, &q, Domain::unit(), 3);
            let mut store = CellStore::seed(&bp, &owned);
            for axis in 0..3 {
                particle_halo_axis(&mut ctx, 3, axis, g, &mut store);
            }
            (lay.vu.coords(ctx.rank), lay.subgrid, snapshot(&store, n * n * n))
        });
        for (rank, (my, s, got)) in all.into_iter().enumerate() {
            for (c, cell) in got.iter().enumerate() {
                let inside = (0..3).all(|a| {
                    let (lo, x) = (my[a] * s[a], coords(c)[a]);
                    x + g[a] >= lo && x < lo + s[a] + g[a]
                });
                prop_assert_eq!(cell.is_some(), inside, "rank {} cell {}", rank, c);
                if cell.is_some() {
                    prop_assert_eq!(cell, &want[c], "rank {} cell {}", rank, c);
                }
            }
        }
    }

    /// The router conserves data: every worker receives exactly the
    /// concatenation, in source-rank order, of what was addressed to it.
    #[test]
    fn all_to_allv_conserves(log_p in 0u32..4, seed in 0u64..1 << 60) {
        let p = 1usize << log_p;
        let grid = vu_grid_for(p);
        // payload(r → s) is a pure function of (r, s, seed).
        let payload = move |r: usize, s: usize| -> Vec<f64> {
            let h = mix(seed ^ (r * 31 + s) as u64);
            (0..(h % 5) as usize).map(|i| unit(mix(h ^ i as u64))).collect()
        };
        let received: Vec<Vec<f64>> = run_workers(grid, |mut ctx| {
            let out: Vec<Vec<f64>> = (0..p).map(|s| payload(ctx.rank, s)).collect();
            all_to_allv(&mut ctx, out)
        });
        for (s, got) in received.iter().enumerate() {
            let want: Vec<f64> = (0..p).flat_map(|r| payload(r, s)).collect();
            prop_assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
                "receiver {} of {}", s, p
            );
        }
    }

    /// The distributed coordinate sort conserves particles: starting from
    /// an index-block distribution, after the all-to-all every particle
    /// sits on exactly one VU — the one owning its leaf box.
    #[test]
    fn sort_lands_every_particle_on_its_owner((pts, _q) in system(50, 300),
                                              log_p in 0u32..4) {
        let p = 1usize << log_p;
        let grid = vu_grid_for(p);
        let n_axis = 4usize; // depth-2 leaf grid over the unit cube
        let np = pts.len();
        let pts = &pts;
        let landed: Vec<Vec<u64>> = run_workers(grid, |mut ctx| {
            let lay = BlockLayout::new([n_axis; 3], ctx.grid);
            let cell = |q: &[f64; 3]| {
                let c = |x: f64| ((x * n_axis as f64) as usize).min(n_axis - 1);
                [c(q[0]), c(q[1]), c(q[2])]
            };
            // This worker starts with the index block [i0, i1).
            let (i0, i1) = (ctx.rank * np / p, (ctx.rank + 1) * np / p);
            let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); p];
            for i in i0..i1 {
                outgoing[lay.vu_of(cell(&pts[i]))].push(i as f64);
            }
            let received = all_to_allv(&mut ctx, outgoing);
            // Owner-correctness: everything that arrived belongs here.
            for &idx in &received {
                assert_eq!(lay.vu_of(cell(&pts[idx as usize])), ctx.rank);
            }
            received.iter().map(|&i| i as u64).collect::<Vec<u64>>()
        });
        // Conservation: each original index appears exactly once globally.
        let mut all: Vec<u64> = landed.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..np as u64).collect::<Vec<u64>>(), "p={}", p);
    }
}
