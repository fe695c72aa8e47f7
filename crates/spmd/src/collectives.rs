//! Channel collectives over the worker fabric, mirroring the CM-5 runtime
//! primitives the machine model prices: the router (irregular sends), CSHIFT
//! (grid-neighbor shifts with circular wrap), and the tree-structured
//! combine/spread used for levels embedded on fewer VUs than boxes
//! (Multigrid embedding).
//!
//! The *plans* — who exchanges which cells with whom — live in
//! [`crate::schedule`], where the static analyzer reads them too; this
//! module only moves the data. Each collective's send/receive sequence is
//! exactly the lowering `schedule::Step::ops_for` describes for its step
//! kind: that correspondence is what lets `fmm-verify` prove properties of
//! the program these functions then execute.
//!
//! Determinism rules shared by every collective here:
//! * every rank calls the collective at the same point of the program, and
//!   each call burns exactly one tag on every rank;
//! * all sends of a phase are posted before the receives that could block
//!   on a peer, so no cyclic wait exists (the binomial gather interleaves
//!   per stage, but its dependency order is a tree — see the deadlock pass
//!   in `fmm-verify`);
//! * receive order is fixed by rank arithmetic, never by arrival order.

use fmm_machine::BlockLayout;

use crate::cells::CellStore;
use crate::fabric::WorkerCtx;
use crate::schedule::{axis_exchange, axis_plan, cell_index, Side};

/// Personalized all-to-all (the router): worker `w` receives
/// `outgoing[w]`, concatenated in source-rank order. The model prices the
/// sort scatter as one aggregate router operation, so the caller counts
/// the op; bytes are counted here per sending worker.
pub fn all_to_allv(ctx: &mut WorkerCtx, outgoing: Vec<Vec<f64>>) -> Vec<f64> {
    let p = ctx.p();
    let tag = ctx.tags.fresh();
    let mut mine = Vec::new();
    let mut chunks: Vec<Option<Vec<f64>>> = (0..p).map(|_| None).collect();
    for (w, chunk) in outgoing.into_iter().enumerate() {
        if w == ctx.rank {
            ctx.counters.add_local_words(chunk.len() as u64);
            chunks[w] = Some(chunk);
        } else {
            ctx.counters.add_words(chunk.len() as u64);
            ctx.send(w, tag, chunk);
        }
    }
    for (w, slot) in chunks.iter_mut().enumerate() {
        if w != ctx.rank {
            *slot = Some(ctx.recv(w, tag));
        }
    }
    for chunk in chunks.into_iter().flatten() {
        mine.extend_from_slice(&chunk);
    }
    mine
}

/// Tree-structured combine: bring the owned `(box index, k samples)` chunks
/// of a distributed level to rank 0, which writes them into its full-size
/// `buf`. Binomial: stage `s` halves the set of holders, so the total
/// box transmissions match the model's `gather_hops(p)` accounting. As
/// with every collective here, the caller counts the messages (`p − 1`
/// sends); bytes are counted here per transmission.
pub fn gather_level_to_root(ctx: &mut WorkerCtx, buf: &mut [f64], l: u32, k: usize) {
    let p = ctx.p();
    let tag = ctx.tags.fresh();
    if p == 1 {
        return;
    }
    let n = 1usize << l;
    let lay = BlockLayout::new([n; 3], ctx.grid);
    let mut held = Vec::with_capacity(lay.boxes_per_vu() * (k + 1));
    for li in 0..lay.boxes_per_vu() {
        let g = lay.global_of(ctx.rank, li);
        let bi = cell_index(g, n);
        held.push(bi as f64);
        held.extend_from_slice(&buf[bi * k..(bi + 1) * k]);
    }
    let stages = p.trailing_zeros();
    for s in 0..stages {
        let bit = 1usize << s;
        if !ctx.rank.is_multiple_of(bit) {
            continue; // retired in an earlier stage
        }
        if ctx.rank & bit != 0 {
            // Payload words are the k-sample rows; the per-box index is
            // envelope metadata, like a router packet header.
            ctx.counters.add_words((held.len() / (k + 1) * k) as u64);
            let data = std::mem::take(&mut held);
            ctx.send(ctx.rank - bit, tag, data);
        } else if ctx.rank + bit < p {
            let data = ctx.recv(ctx.rank + bit, tag);
            held.extend_from_slice(&data);
        }
    }
    if ctx.rank == 0 {
        for ch in held.chunks_exact(k + 1) {
            let bi = ch[0] as usize;
            buf[bi * k..(bi + 1) * k].copy_from_slice(&ch[1..]);
        }
    }
}

/// Tree-structured spread: rank 0's `buf` replaces every other rank's.
/// Mirror image of [`gather_level_to_root`]; the model prices `log2 p`
/// broadcast stages, which the caller counts, with bytes counted here per
/// actual transmission.
pub fn broadcast_from_root(ctx: &mut WorkerCtx, buf: &mut [f64]) {
    let p = ctx.p();
    let tag = ctx.tags.fresh();
    if p == 1 {
        return;
    }
    let stages = p.trailing_zeros();
    for s in (0..stages).rev() {
        let bit = 1usize << s;
        let span = bit << 1;
        if ctx.rank.is_multiple_of(span) {
            ctx.counters.add_words(buf.len() as u64);
            ctx.send(ctx.rank + bit, tag, buf.to_vec());
        } else if ctx.rank.is_multiple_of(bit) {
            let data = ctx.recv(ctx.rank - bit, tag);
            buf.copy_from_slice(&data);
        }
    }
}

/// One axis phase of the circular-wrap halo exchange of a distributed
/// far-field level: after all three phases (x, y, z — the executor runs
/// them in the program's step order), every rank's full-size `level_buf`
/// holds true values for all boxes within `g` of its subgrid (wrapped
/// coordinates alias the true wrapped box, which consumers never read —
/// they bound-check first, as the CM CSHIFT code masks wrapped elements).
pub fn halo_exchange_axis(
    ctx: &mut WorkerCtx,
    level_buf: &mut [f64],
    l: u32,
    axis: usize,
    g: usize,
    k: usize,
) {
    let n = 1usize << l;
    let lay = BlockLayout::new([n; 3], ctx.grid);
    let plan_of = |who| axis_plan(&lay, who, axis, [g; 3], n, true);
    let (sends, mut recvs) = axis_exchange(&ctx.grid, ctx.rank, axis, plan_of);
    // Wrap aliased back onto my own subgrid: the true values are already
    // in place, only local index motion.
    recvs.retain(|(src, cells)| {
        if *src == ctx.rank {
            ctx.counters.add_local_words((cells.len() * k) as u64);
        }
        *src != ctx.rank
    });
    exchange_rows(ctx, level_buf, (&sends, &recvs), k)
}

/// Execute one rank's side of an exchange plan over the k-sample rows of a
/// full-size level buffer: send every owned row the plan names (row-major
/// cell order, one message per destination), then receive and store peers'
/// rows at their cell indices. Both ends walk the same plan, so no
/// metadata travels; bytes are exactly `rows × k` words, which is what
/// the partitioned budget predicts.
pub fn exchange_rows(ctx: &mut WorkerCtx, buf: &mut [f64], (sends, recvs): Side<'_>, k: usize) {
    let tag = ctx.tags.fresh();
    for (dst, cells) in sends {
        let mut data = Vec::with_capacity(cells.len() * k);
        for &c in cells {
            data.extend_from_slice(&buf[c * k..(c + 1) * k]);
        }
        ctx.counters.add_words(data.len() as u64);
        ctx.send(*dst, tag, data);
    }
    for (src, cells) in recvs {
        let data = ctx.recv(*src, tag);
        debug_assert_eq!(data.len(), cells.len() * k);
        for (i, &c) in cells.iter().enumerate() {
            buf[c * k..(c + 1) * k].copy_from_slice(&data[i * k..(i + 1) * k]);
        }
    }
}

/// One axis phase of the halo exchange of leaf *particles* (positions +
/// charges), `g[a]` cells deep along axis `a`, without wrap — the near
/// field only reads true in-domain neighbours. Cells received in an
/// earlier phase are re-served from `store` like the rank's own (corner
/// forwarding).
pub fn particle_halo_axis(
    ctx: &mut WorkerCtx,
    depth: u32,
    axis: usize,
    g: [usize; 3],
    store: &mut CellStore,
) {
    let n = 1usize << depth;
    let lay = BlockLayout::new([n; 3], ctx.grid);
    let plan_of = |who| axis_plan(&lay, who, axis, g, n, false);
    let (sends, recvs) = axis_exchange(&ctx.grid, ctx.rank, axis, plan_of);
    particle_exchange(ctx, (&sends, &recvs), store)
}

/// Exchange leaf particles by plan: one message per `(dst, cells)` of the
/// rank's side, every cell served from `store`, then one per `(src,
/// cells)`, whose cells land in it. The partitioned near field moves
/// its whole [`fmm_tree::particle_halo`] plan in one such exchange.
/// Message layout per cell, in plan order: `[count, xs.., ys.., zs..,
/// qs..]` (the count is envelope metadata).
pub fn particle_exchange(ctx: &mut WorkerCtx, (sends, recvs): Side<'_>, store: &mut CellStore) {
    let tag = ctx.tags.fresh();
    for (dst, cells) in sends {
        let mut data = Vec::new();
        let payload: u64 = cells.iter().map(|&c| store.pack_cell(c, &mut data)).sum();
        ctx.counters.add_words(payload);
        ctx.send(*dst, tag, data);
    }
    for (src, cells) in recvs {
        let data = ctx.recv(*src, tag);
        store.unpack_cells(&data, cells);
    }
}
