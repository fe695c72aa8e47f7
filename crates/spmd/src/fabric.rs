//! The message fabric: worker ranks as VUs behind a pluggable transport.
//!
//! Every worker owns its particles and box data outright; nothing is shared
//! mutably. The only way data moves between workers is a [`WorkerCtx::send`]
//! / [`WorkerCtx::recv`] pair over a [`Transport`], which makes the measured
//! byte and message counts the *actual* data motion of the program — the
//! quantity `fmm_machine::communication_budget` predicts.
//!
//! The transport seam splits the fabric into two halves with different
//! determinism obligations:
//!
//! * the **wire** ([`Transport`]): how an f64 payload travels from rank to
//!   rank — moved `Vec`s over in-process channels
//!   ([`ChannelTransport`]), or length-prefixed `FMMW` frames over UNIX /
//!   TCP sockets ([`crate::transport::SocketTransport`]). Free to differ
//!   between backends as long as payload bits arrive unchanged;
//! * the **bookkeeping** ([`TagAllocator`], [`fmm_core::Counters`]): tag
//!   allocation and data-motion counting. Deliberately *outside* the
//!   trait — both are pure functions of the `CommProgram`, so they must
//!   not vary per backend, or the bitwise-equal-counters invariant across
//!   fabrics would be silently unverifiable.
//!
//! Determinism: tags are allocated by a monotonic per-worker counter, and
//! every worker executes the same program (same sequence of collective
//! calls), so tag `t` means the same collective phase on every rank. A
//! receive names its `(from, tag)` pair; packets that arrive early are
//! parked in a buffer, so arrival order never affects results.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fmm_core::stats::{Counters, SpmdReport};
use fmm_machine::VuGrid;

/// How long a `recv` waits before declaring the fabric wedged. Generous:
/// a matching send may sit behind a whole compute phase on the peer.
pub(crate) const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// The wire between SPMD ranks, behind an object-safe seam.
///
/// A transport moves f64 payloads between ranks; it does not allocate
/// tags or count traffic (see the module docs for why those live outside
/// the trait). Contract, shared with the in-process channels the
/// `CommProgram` verifier assumes:
///
/// * `send` never blocks — buffering is the transport's problem, so a
///   schedule that is deadlock-free under non-blocking sends stays
///   deadlock-free on every backend;
/// * messages between a fixed (sender, receiver) pair arrive in send
///   order;
/// * payload bits arrive unchanged (f64s travel as their exact bit
///   patterns — socket backends frame them little-endian);
/// * `recv` may park messages that arrive ahead of the requested
///   `(from, tag)` and must deliver them on the matching later call.
pub trait Transport: Send {
    /// Send `data` to rank `to` under `tag`. Must not block.
    fn send(&mut self, to: usize, tag: u64, data: Vec<f64>);
    /// Receive the payload rank `from` sent under `tag`, parking any
    /// other messages that arrive first.
    fn recv(&mut self, from: usize, tag: u64) -> Vec<f64>;
    /// Fabric name, as in [`fmm_core::Fabric::name`].
    fn kind(&self) -> &'static str;
    /// Flush and release wire resources (join writer threads, close
    /// sockets). Idempotent; also run on drop by implementations that
    /// need it.
    fn close(&mut self) {}
}

/// Monotonic collective-tag allocator. All ranks call [`fresh`] in the
/// same program order, so the same tag names the same collective phase
/// everywhere — the property `fmm-verify`'s endpoint-matching pass checks
/// statically and the executor asserts step by step via [`peek`].
///
/// [`fresh`]: TagAllocator::fresh
/// [`peek`]: TagAllocator::peek
#[derive(Debug, Default, Clone)]
pub struct TagAllocator {
    next: u64,
}

impl TagAllocator {
    /// Allocate the next collective tag.
    pub fn fresh(&mut self) -> u64 {
        let t = self.next;
        self.next += 1;
        t
    }

    /// The tag the next collective will use — compared against the
    /// static schedule's step tags to pin executor and program together.
    pub fn peek(&self) -> u64 {
        self.next
    }
}

/// Early arrivals, parked by `(from, tag)` until the matching receive:
/// the one receive discipline every [`Transport`] shares.
#[derive(Default)]
pub(crate) struct Mailbox {
    // det: payloads are taken by (from, tag) key only, never iterated.
    parked: HashMap<(usize, u64), VecDeque<Vec<f64>>>,
}

impl Mailbox {
    /// The payload `from` sent under `tag`: the oldest parked one, else
    /// the first match `next` delivers, parking every other arrival.
    pub(crate) fn recv(
        &mut self,
        from: usize,
        tag: u64,
        mut next: impl FnMut() -> (usize, u64, Vec<f64>),
    ) -> Vec<f64> {
        let key = (from, tag);
        if let Some(q) = self.parked.get_mut(&key) {
            if let Some(data) = q.pop_front() {
                if q.is_empty() {
                    self.parked.remove(&key);
                }
                return data;
            }
        }
        loop {
            let (src, t, data) = next();
            if (src, t) == key {
                return data;
            }
            self.parked.entry((src, t)).or_default().push_back(data);
        }
    }
}

/// One message on the in-process fabric.
struct Packet {
    from: usize,
    tag: u64,
    data: Vec<f64>,
}

/// The default wire: in-process `mpsc` channels between worker threads.
/// Payloads move by ownership transfer — zero copies, zero serialization.
pub struct ChannelTransport {
    rank: usize,
    senders: Vec<Sender<Packet>>,
    rx: Receiver<Packet>,
    mailbox: Mailbox,
}

impl Transport for ChannelTransport {
    fn send(&mut self, to: usize, tag: u64, data: Vec<f64>) {
        self.senders[to]
            .send(Packet {
                from: self.rank,
                tag,
                data,
            })
            .expect("fabric peer hung up");
    }

    fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        let (rank, rx) = (self.rank, &self.rx);
        self.mailbox
            .recv(from, tag, || match rx.recv_timeout(RECV_TIMEOUT) {
                Ok(pkt) => (pkt.from, pkt.tag, pkt.data),
                Err(RecvTimeoutError::Timeout) => {
                    panic!("spmd rank {rank} timed out waiting for (from={from}, tag={tag})")
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("spmd rank {rank}: fabric disconnected")
                }
            })
    }

    fn kind(&self) -> &'static str {
        "inprocess"
    }
}

/// Per-worker execution context: identity on the VU grid, the transport
/// endpoint, the tag allocator, and the per-phase data-motion counters.
pub struct WorkerCtx {
    pub rank: usize,
    pub grid: VuGrid,
    transport: Box<dyn Transport>,
    /// Collective-tag allocator; deterministic program state, identical
    /// on every fabric.
    pub tags: TagAllocator,
    /// Data-motion counters, charged by the collectives (never by the
    /// transport), so totals are fabric-independent.
    pub counters: Counters,
    /// Wall time spent inside [`WorkerCtx::recv`], per program phase — the
    /// part of a phase's wall clock this rank was blocked on a peer.
    pub wait: [Duration; Counters::PHASES],
    /// Mirror of the current phase the launcher can read after a panic.
    phase_board: Option<Arc<Vec<AtomicUsize>>>,
}

impl WorkerCtx {
    /// Wire a context over an explicit transport endpoint.
    pub fn new(rank: usize, grid: VuGrid, transport: Box<dyn Transport>) -> Self {
        WorkerCtx {
            rank,
            grid,
            transport,
            tags: TagAllocator::default(),
            counters: Counters::default(),
            wait: [Duration::ZERO; Counters::PHASES],
            phase_board: None,
        }
    }

    /// Worker count.
    pub fn p(&self) -> usize {
        self.grid.len()
    }

    /// My coordinates on the VU grid.
    pub fn coords(&self) -> [usize; 3] {
        self.grid.coords(self.rank)
    }

    /// The fabric this context runs on.
    pub fn fabric(&self) -> &'static str {
        self.transport.kind()
    }

    /// Enter program phase `phase` (0..6, budget order): subsequent
    /// counter charges land there, and the launcher's phase board is
    /// updated so a panic can be attributed.
    pub fn set_phase(&mut self, phase: usize) {
        self.counters.set_phase(phase);
        if let Some(board) = &self.phase_board {
            board[self.rank].store(phase, Ordering::Relaxed);
        }
    }

    /// Send `data` to `to` under `tag`. Never blocks.
    pub fn send(&mut self, to: usize, tag: u64, data: Vec<f64>) {
        self.transport.send(to, tag, data);
    }

    /// Receive the payload sent by `from` under `tag`. Every receive of
    /// the program passes through here, so this is where blocked time is
    /// charged to the current phase's [`WorkerCtx::wait`].
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        let t0 = Instant::now();
        let data = self.transport.recv(from, tag);
        self.wait[self.counters.phase()] += t0.elapsed();
        data
    }

    /// Count `n` logical channel operations (CSHIFTs, router transfers,
    /// broadcast stages). Charged on rank 0 only so the total matches the
    /// model's program-level operation count rather than `p` copies of it.
    pub fn count_op(&mut self, n: u64) {
        if self.rank == 0 {
            self.counters.add_messages(n);
        }
    }

    /// Flush and release the transport.
    pub fn close(&mut self) {
        self.transport.close();
    }
}

/// Run one worker closure per pre-wired context (threads as VUs), in rank
/// order. The contexts may sit on any transport — in-process channels or
/// per-rank socket endpoints — which is how the socket fabrics reuse the
/// thread launcher for single-process runs.
///
/// A panicking worker fails the whole run; the panic is re-raised on the
/// launcher thread naming the rank and the program phase it died in.
pub fn run_ctxs<T, F>(ctxs: Vec<WorkerCtx>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(WorkerCtx) -> T + Sync,
{
    let p = ctxs.len();
    let board = Arc::new((0..p).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
    let f = &f;
    std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(p);
        for (rank, mut ctx) in ctxs.into_iter().enumerate() {
            debug_assert_eq!(ctx.rank, rank, "contexts must arrive in rank order");
            ctx.phase_board = Some(board.clone());
            joins.push(scope.spawn(move || f(ctx)));
        }
        joins
            .into_iter()
            .enumerate()
            .map(|(rank, j)| {
                j.join().unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic payload>");
                    let phase = board[rank].load(Ordering::Relaxed);
                    let phase = SpmdReport::PHASE_NAMES
                        .get(phase)
                        .copied()
                        .unwrap_or("<unknown phase>");
                    panic!("spmd rank {rank} panicked during {phase}: {msg}");
                })
            })
            .collect()
    })
}

/// Contexts for `p = grid.len()` ranks over the in-process channel
/// fabric: a fully-wired `mpsc` mesh, one endpoint per rank.
pub fn channel_ctxs(grid: VuGrid) -> Vec<WorkerCtx> {
    let p = grid.len();
    let mut txs = Vec::with_capacity(p);
    let mut rxs = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    rxs.into_iter()
        .enumerate()
        .map(|(rank, rx)| {
            WorkerCtx::new(
                rank,
                grid,
                Box::new(ChannelTransport {
                    rank,
                    senders: txs.clone(),
                    rx,
                    mailbox: Mailbox::default(),
                }),
            )
        })
        .collect()
}

/// Run `p = grid.len()` workers over in-process channels, one thread per
/// VU, each with a fully wired [`WorkerCtx`]. Returns the workers'
/// results in rank order.
pub fn run_workers<T, F>(grid: VuGrid, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(WorkerCtx) -> T + Sync,
{
    run_ctxs(channel_ctxs(grid), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_shift_delivers() {
        let grid = VuGrid::new([4, 1, 1]);
        let out = run_workers(grid, |mut ctx| {
            let p = ctx.p();
            let tag = ctx.tags.fresh();
            ctx.send((ctx.rank + 1) % p, tag, vec![ctx.rank as f64]);
            let data = ctx.recv((ctx.rank + p - 1) % p, tag);
            data[0] as usize
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let grid = VuGrid::new([2, 1, 1]);
        let out = run_workers(grid, |mut ctx| {
            let t0 = ctx.tags.fresh();
            let t1 = ctx.tags.fresh();
            let peer = 1 - ctx.rank;
            // Send in tag order, receive in reverse order.
            ctx.send(peer, t0, vec![10.0 + ctx.rank as f64]);
            ctx.send(peer, t1, vec![20.0 + ctx.rank as f64]);
            let b = ctx.recv(peer, t1);
            let a = ctx.recv(peer, t0);
            (a[0], b[0])
        });
        assert_eq!(out[0], (10.0 + 1.0, 20.0 + 1.0));
        assert_eq!(out[1], (10.0, 20.0));
    }

    #[test]
    fn op_counts_on_rank_zero_only() {
        let grid = VuGrid::new([2, 2, 1]);
        let out = run_workers(grid, |mut ctx| {
            ctx.set_phase(3);
            ctx.count_op(2);
            ctx.counters.add_messages(1);
            ctx.counters.add_words(10);
            ctx.counters
        });
        let rank0 = &out[0][3];
        assert_eq!(rank0.messages, 3); // 2 ops + 1 msg
        assert_eq!(rank0.bytes, 80);
        let rank1 = &out[1][3];
        assert_eq!(rank1.messages, 1); // msg only
    }

    #[test]
    fn worker_panic_names_rank_and_phase() {
        let grid = VuGrid::new([2, 1, 1]);
        let err = std::panic::catch_unwind(|| {
            run_workers(grid, |mut ctx| {
                if ctx.rank == 1 {
                    ctx.set_phase(4);
                    panic!("boom at step 7");
                }
                // Rank 0 parks on a receive that never comes until the
                // peer's channel drops, then panics itself — the launcher
                // must still report the *original* rank-1 panic when it
                // joins in rank order and rank 0's death message names
                // its own rank. Keep rank 0 trivially alive instead.
                0usize
            })
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<no message>".into());
        assert!(
            msg.contains("rank 1") && msg.contains("eval") && msg.contains("boom at step 7"),
            "panic message must name rank, phase, and cause: {msg}"
        );
    }
}
