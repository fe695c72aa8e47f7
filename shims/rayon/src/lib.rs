//! Offline drop-in subset of the `rayon` API.
//!
//! The build environment has no network access, so the workspace vendors a
//! minimal data-parallel runtime under the `rayon` crate name. It implements
//! exactly the surface the workspace uses — `par_iter`, `par_iter_mut`,
//! `par_chunks_mut`, `into_par_iter` on `Range<usize>`, the `zip` /
//! `enumerate` / `map` adapters, the `for_each` / `sum` / `reduce` /
//! `collect` consumers, and `ThreadPoolBuilder::install` — with the same
//! semantics (deterministic length-based splitting, order-preserving
//! collect).
//!
//! Each consumer call is one parallel *region*. It splits its producer into
//! `current_num_threads()` contiguous pieces by length alone and combines
//! the per-piece results in piece order, so no reduction's combine order
//! depends on which thread ran which piece. The pieces run on one
//! process-wide pool of persistent workers: the calling thread publishes
//! the region as one job, runs pieces itself while idle workers claim the
//! rest, and returns once the last piece is done. Workers start on first
//! use, never exit, and number at most the largest piece count any region
//! asked for, minus one. A region therefore costs a queue push and a
//! wake-up rather than a thread spawn. That trades rayon's work-stealing
//! for zero dependencies; for the coarse-grained loops in this workspace
//! the difference is noise.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Thread-count plumbing (ThreadPoolBuilder / install)
// ---------------------------------------------------------------------------

thread_local! {
    /// The count `install` pinned on this thread; 0 means the default.
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Regions opened on this thread (see [`regions_opened`]).
    static REGIONS: Cell<u64> = const { Cell::new(0) };
}

/// The host's available parallelism, read once per process.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    })
}

/// Number of threads parallel calls on this thread will use.
pub fn current_num_threads() -> usize {
    match LOCAL_THREADS.with(Cell::get) {
        0 => default_threads(),
        n => n,
    }
}

/// Parallel regions (consumer calls on a `par_*` iterator) opened on the
/// calling thread so far, counted whether or not they split. Lets a test
/// show that a code path stays off the parallel iterators.
pub fn regions_opened() -> u64 {
    REGIONS.with(Cell::get)
}

/// Run `f` with this thread's count pinned to `n` (0: the default),
/// restoring the previous pin afterwards, unwinding included.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_THREADS.with(|c| c.replace(n)));
    f()
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads: n })
    }
}

/// A thread-count scope over the one shared pool: `install` pins the piece
/// count for parallel calls made on the current thread while the closure
/// runs. The pool grows to serve it, so a count above the host's
/// processors works too.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        with_threads(self.threads, f)
    }

    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

// ---------------------------------------------------------------------------
// The pool: persistent workers claiming the pieces of published regions
// ---------------------------------------------------------------------------

/// Lock, ignoring poison: no lock here is held across user code, and every
/// update under one is a single step, so a poisoned one still guards
/// consistent data. No two of the pool's locks are ever held at once.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One region in flight: `pieces` calls of `body`, each claimed by index.
struct Job {
    /// The region's per-piece closure, its borrow's lifetime erased by
    /// [`run_region`], which keeps the borrow alive until every claimed
    /// index has returned.
    body: &'static (dyn Fn(usize) + Sync),
    pieces: usize,
    /// The next unclaimed piece; an index at or past `pieces` claims none.
    /// It publishes no data (a piece's inputs reach it through the job and
    /// its own mutex), so claims are `Relaxed`.
    next: AtomicUsize,
    /// The latch: pieces not yet finished, panicked ones included. The
    /// submitter sleeps on `finished` until it reaches zero; its mutex
    /// hands every piece's writes on to the submitter.
    left: Mutex<usize>,
    finished: Condvar,
    /// The first panic payload of a piece, resumed on the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.pieces
    }

    /// Claim and run pieces until none is left unclaimed.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.pieces {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            let mut left = lock(&self.left);
            *left -= 1;
            if *left == 0 {
                self.finished.notify_all();
            }
        }
    }
}

/// Published regions, oldest first, and the number of workers started.
struct Queue {
    jobs: VecDeque<Arc<Job>>,
    workers: usize,
}

static QUEUE: Mutex<Queue> = Mutex::new(Queue {
    jobs: VecDeque::new(),
    workers: 0,
});
static WAKE: Condvar = Condvar::new();

/// A worker's life: take the oldest region with a piece left, help run it,
/// repeat; sleep while there is none. Workers are never joined: a piece's
/// panic is caught and handed to its submitter, so none is lost with them.
fn worker() {
    loop {
        let job = {
            let mut q = lock(&QUEUE);
            loop {
                while q.jobs.front().is_some_and(|j| j.exhausted()) {
                    q.jobs.pop_front();
                }
                if let Some(job) = q.jobs.front() {
                    break Arc::clone(job);
                }
                q = WAKE.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.work();
    }
}

/// Run `body(0..pieces)` on the pool and return when every call has; a
/// panic in any call is resumed here once all have finished. The caller
/// runs pieces too, so a region completes even if no worker ever picks it
/// up — which is why a region nested inside a piece cannot deadlock.
fn run_region(pieces: usize, body: &(dyn Fn(usize) + Sync)) {
    // SAFETY: only the lifetime changes. `body` is called solely for a
    // claimed index below `pieces`, each claim running it once, and this
    // function returns (or unwinds) only after the latch counts all
    // `pieces` finished: every such call has returned, so none outlives the
    // borrow. A worker that still holds the job afterwards finds it
    // exhausted and never calls `body` again.
    let body = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    let job = Arc::new(Job {
        body,
        pieces,
        next: AtomicUsize::new(0),
        left: Mutex::new(pieces),
        finished: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        let mut q = lock(&QUEUE);
        // A failed spawn only leaves more pieces to this thread.
        while q.workers + 1 < pieces && std::thread::Builder::new().spawn(worker).is_ok() {
            q.workers += 1;
        }
        q.jobs.push_back(Arc::clone(&job));
    }
    for _ in 1..pieces {
        WAKE.notify_one();
    }
    // A piece sees the default count wherever it runs, as on a worker.
    with_threads(0, || job.work());
    let mut left = lock(&job.left);
    while *left > 0 {
        left = job
            .finished
            .wait(left)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(left);
    let panicked = lock(&job.panic).take();
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Producer: a splittable, exactly-sized source of items
// ---------------------------------------------------------------------------

/// A splittable source of items. `split_at` partitions the remaining items
/// into `[0, index)` and `[index, len)`; `into_seq` yields them in order.
pub trait Producer: Sized + Send {
    type Item: Send;
    type Seq: Iterator<Item = Self::Item>;

    fn len(&self) -> usize;
    fn split_at(self, index: usize) -> (Self, Self);
    fn into_seq(self) -> Self::Seq;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

pub struct SlicePar<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync + Send> Producer for SlicePar<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(index);
        (Self { slice: a }, Self { slice: b })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter()
    }
}

pub struct SliceParMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Producer for SliceParMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(index);
        (Self { slice: a }, Self { slice: b })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

pub struct ChunksParMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> Producer for ChunksParMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.chunk).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(mid);
        (
            Self {
                slice: a,
                chunk: self.chunk,
            },
            Self {
                slice: b,
                chunk: self.chunk,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.chunk)
    }
}

pub struct RangePar {
    range: Range<usize>,
}

impl Producer for RangePar {
    type Item = usize;
    type Seq = Range<usize>;

    fn len(&self) -> usize {
        self.range.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = self.range.start + index;
        (
            Self {
                range: self.range.start..mid,
            },
            Self {
                range: mid..self.range.end,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.range
    }
}

pub struct MapPar<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> Producer for MapPar<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> R + Send + Sync + Clone,
    R: Send,
{
    type Item = R;
    type Seq = std::iter::Map<P::Seq, F>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Self {
                base: a,
                f: self.f.clone(),
            },
            Self { base: b, f: self.f },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.base.into_seq().map(self.f)
    }
}

pub struct ZipPar<P, Q> {
    a: P,
    b: Q,
}

impl<P: Producer, Q: Producer> Producer for ZipPar<P, Q> {
    type Item = (P::Item, Q::Item);
    type Seq = std::iter::Zip<P::Seq, Q::Seq>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a0, a1) = self.a.split_at(index);
        let (b0, b1) = self.b.split_at(index);
        (Self { a: a0, b: b0 }, Self { a: a1, b: b1 })
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

pub struct EnumeratePar<P> {
    base: P,
    offset: usize,
}

pub struct EnumerateSeq<I> {
    base: I,
    next: usize,
}

impl<I: Iterator> Iterator for EnumerateSeq<I> {
    type Item = (usize, I::Item);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.base.next()?;
        let idx = self.next;
        self.next += 1;
        Some((idx, item))
    }
}

impl<P: Producer> Producer for EnumeratePar<P> {
    type Item = (usize, P::Item);
    type Seq = EnumerateSeq<P::Seq>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Self {
                base: a,
                offset: self.offset,
            },
            Self {
                base: b,
                offset: self.offset + index,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        EnumerateSeq {
            base: self.base.into_seq(),
            next: self.offset,
        }
    }
}

// ---------------------------------------------------------------------------
// Par: the parallel-iterator wrapper
// ---------------------------------------------------------------------------

pub struct Par<P> {
    producer: P,
}

/// Split `producer` into at most `current_num_threads()` near-equal pieces
/// and run `work` over each on the pool, returning per-piece results in
/// order.
fn run_pieces<P, W, R>(producer: P, work: W) -> Vec<R>
where
    P: Producer,
    W: Fn(P) -> R + Sync,
    R: Send,
{
    REGIONS.with(|c| c.set(c.get() + 1));
    let len = producer.len();
    let pieces = current_num_threads().min(len.max(1));
    if pieces <= 1 {
        return vec![work(producer)];
    }
    let mut parts = Vec::with_capacity(pieces);
    let mut rest = producer;
    let mut remaining = len;
    for i in 0..pieces - 1 {
        let take = remaining / (pieces - i);
        let (head, tail) = rest.split_at(take);
        parts.push(Mutex::new(Some(head)));
        rest = tail;
        remaining -= take;
    }
    parts.push(Mutex::new(Some(rest)));
    let results: Vec<Mutex<Option<R>>> = (0..pieces).map(|_| Mutex::new(None)).collect();
    run_region(pieces, &|i| {
        let part = lock(&parts[i]).take().expect("a piece is claimed once");
        let out = work(part);
        *lock(&results[i]) = Some(out);
    });
    let done = results.into_iter().map(|r| {
        let out = r.into_inner().unwrap_or_else(PoisonError::into_inner);
        out.expect("every piece ran")
    });
    done.collect()
}

impl<P: Producer> Par<P> {
    pub fn map<F, R>(self, f: F) -> Par<MapPar<P, F>>
    where
        F: Fn(P::Item) -> R + Send + Sync + Clone,
        R: Send,
    {
        Par {
            producer: MapPar {
                base: self.producer,
                f,
            },
        }
    }

    pub fn zip<Q: Producer>(self, other: Par<Q>) -> Par<ZipPar<P, Q>> {
        Par {
            producer: ZipPar {
                a: self.producer,
                b: other.producer,
            },
        }
    }

    pub fn enumerate(self) -> Par<EnumeratePar<P>> {
        Par {
            producer: EnumeratePar {
                base: self.producer,
                offset: 0,
            },
        }
    }

    pub fn len(&self) -> usize {
        self.producer.len()
    }

    pub fn is_empty(&self) -> bool {
        self.producer.is_empty()
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Send + Sync,
    {
        run_pieces(self.producer, |piece| piece.into_seq().for_each(&f));
    }

    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        run_pieces(self.producer, |piece| piece.into_seq().sum::<S>())
            .into_iter()
            .sum()
    }

    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Send + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
    {
        run_pieces(self.producer, |piece| {
            piece.into_seq().fold(identity(), &op)
        })
        .into_iter()
        .fold(identity(), &op)
    }

    pub fn collect<C>(self) -> C
    where
        C: FromIterator<P::Item>,
    {
        run_pieces(self.producer, |piece| piece.into_seq().collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits (the `rayon::prelude` surface)
// ---------------------------------------------------------------------------

pub trait IntoParallelIterator {
    type Producer: Producer;
    fn into_par_iter(self) -> Par<Self::Producer>;
}

impl IntoParallelIterator for Range<usize> {
    type Producer = RangePar;

    fn into_par_iter(self) -> Par<RangePar> {
        Par {
            producer: RangePar { range: self },
        }
    }
}

impl<'a, T: Sync + Send> IntoParallelIterator for &'a [T] {
    type Producer = SlicePar<'a, T>;

    fn into_par_iter(self) -> Par<SlicePar<'a, T>> {
        Par {
            producer: SlicePar { slice: self },
        }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Producer = SliceParMut<'a, T>;

    fn into_par_iter(self) -> Par<SliceParMut<'a, T>> {
        Par {
            producer: SliceParMut { slice: self },
        }
    }
}

pub trait ParallelSlice<T: Sync + Send> {
    fn par_iter(&self) -> Par<SlicePar<'_, T>>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Par<SlicePar<'_, T>> {
        Par {
            producer: SlicePar { slice: self },
        }
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> Par<SliceParMut<'_, T>>;
    fn par_chunks_mut(&mut self, chunk: usize) -> Par<ChunksParMut<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> Par<SliceParMut<'_, T>> {
        Par {
            producer: SliceParMut { slice: self },
        }
    }

    fn par_chunks_mut(&mut self, chunk: usize) -> Par<ChunksParMut<'_, T>> {
        assert!(chunk > 0, "chunk size must be non-zero");
        Par {
            producer: ChunksParMut { slice: self, chunk },
        }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_into_par_iter() {
        let out: Vec<usize> = (0..257).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out.len(), 257);
        assert_eq!(out[0], 1);
        assert_eq!(out[256], 257);
    }

    #[test]
    fn chunks_mut_enumerate() {
        let mut v = vec![0u64; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(t, chunk)| {
            for c in chunk.iter_mut() {
                *c = t as u64;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 10) as u64);
        }
    }

    #[test]
    fn zip_sum_reduce() {
        let mut a = vec![1u64; 64];
        let mut b = vec![2u64; 64];
        let s: u64 = a
            .par_iter_mut()
            .zip(b.par_iter_mut())
            .enumerate()
            .map(|(i, (x, y))| *x + *y + i as u64)
            .sum();
        assert_eq!(s, 64 * 3 + (0..64u64).sum::<u64>());
        let m = (0..100usize)
            .into_par_iter()
            .map(|i| i)
            .reduce(|| 0, |x, y| x.max(y));
        assert_eq!(m, 99);
    }

    #[test]
    fn pool_install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let n = pool.install(current_num_threads);
        assert_eq!(n, 3);
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn empty_inputs() {
        let v: Vec<f64> = Vec::new();
        let out: Vec<f64> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let s: f64 = v.par_iter().map(|&x| x).sum();
        assert_eq!(s, 0.0);
    }

    fn threads(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn combine_order_follows_the_length_split() {
        // Pieces are cut by length alone and combined in piece order: 10
        // items on 3 threads are [0..3) [3..6) [6..10), however the pieces
        // were scheduled.
        let xs: Vec<f64> = (0..10).map(|i| 1.0 / (1 + i * i * i) as f64).collect();
        let pieces = [&xs[..3], &xs[3..6], &xs[6..]];
        let want: f64 = pieces.iter().map(|p| p.iter().sum::<f64>()).sum();
        threads(3).install(|| {
            for _ in 0..20 {
                let got: f64 = xs.par_iter().map(|&x| x).sum();
                assert_eq!(got.to_bits(), want.to_bits());
                let cat = (0..10usize)
                    .into_par_iter()
                    .map(|i| vec![i])
                    .reduce(Vec::new, |a, b| [a, b].concat());
                assert_eq!(cat, (0..10).collect::<Vec<_>>());
                let out: Vec<usize> = (0..10usize).into_par_iter().collect();
                assert_eq!(out, (0..10).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn concurrent_submitters() {
        std::thread::scope(|s| {
            for t in 1..=4usize {
                s.spawn(move || {
                    threads(3).install(|| {
                        for _ in 0..50 {
                            let got: usize = (0..1000).into_par_iter().map(|i| i * t).sum();
                            assert_eq!(got, t * 999 * 1000 / 2);
                        }
                    })
                });
            }
        });
    }

    #[test]
    fn region_nested_inside_a_piece() {
        let outer: Vec<usize> = threads(4).install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|i| {
                    // Pieces run with the default count wherever they land.
                    assert_eq!(current_num_threads(), default_threads());
                    let inner = (0..100usize).into_par_iter().map(|j| i * j);
                    threads(3).install(|| inner.sum::<usize>())
                })
                .collect()
        });
        assert_eq!(outer, (0..8).map(|i| i * 4950).collect::<Vec<_>>());
    }

    #[test]
    fn install_above_the_core_count() {
        // Eight pieces of one item each, every one waiting for all the
        // others: this returns only if eight threads run them at once.
        let all = std::sync::Barrier::new(8);
        let pieces = threads(8).install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|_| {
                    all.wait();
                    1
                })
                .sum::<usize>()
        });
        assert_eq!(pieces, 8);
    }

    #[test]
    fn a_panicking_piece_reaches_the_caller_and_the_pool_survives() {
        let pool = threads(4);
        let caught = std::panic::catch_unwind(|| {
            pool.install(|| {
                (0..4usize).into_par_iter().for_each(|i| {
                    if i % 2 == 1 {
                        panic!("piece {i}");
                    }
                })
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg == "piece 1" || msg == "piece 3", "{msg}");
        assert_eq!(current_num_threads(), default_threads());
        let got: usize = pool.install(|| (0..100usize).into_par_iter().sum());
        assert_eq!(got, 4950);
    }

    #[test]
    fn every_consumer_call_counts_as_a_region() {
        let before = regions_opened();
        let v = [1.0f64; 5];
        let _: f64 = v.par_iter().map(|&x| x).sum();
        threads(1).install(|| v.par_iter().for_each(|_| {}));
        assert_eq!(regions_opened() - before, 2);
    }
}
