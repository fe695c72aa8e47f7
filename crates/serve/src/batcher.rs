//! The work-conserving batcher: requests with identical [`Shape`]s that
//! queue up while every executor is busy are merged into one
//! multiple-instance evaluation.
//!
//! Batching semantics: an executor that asks for work takes, at once,
//! every queued job of the shape whose oldest job was submitted first,
//! up to `max_batch` (oldest first); any overflow stays queued and goes
//! to the next executor that asks. An executor parks only when every
//! queue is empty. There is no timer: a job never waits for company
//! while an executor is idle, and jobs coalesce exactly when they
//! arrive faster than the executors drain them. During shutdown
//! admissions stop and every queued job is still taken, so no request
//! is dropped.
//!
//! Plain mutex-and-condvar concurrency — via the `fmm_sync` facade, so
//! the identical code path runs under `std::sync` in production and
//! under the fmm-check model scheduler during verification: a `Mutex`
//! over a `BTreeMap` of per-shape queues plus one `Condvar`; executor
//! workers block in [`Batcher::next_batch`]. Each submitted job carries
//! a oneshot (an `mpsc` channel of capacity one) on which the executor
//! delivers the result.

use crate::protocol::{EvalRequest, EvalResponse, Shape};
use fmm_sync::mpsc;
use fmm_sync::{Condvar, Mutex};
use std::collections::BTreeMap;

/// One queued request plus its response channel.
pub struct Job {
    /// Submit order, stamped under the batcher's lock: the shape whose
    /// head job has the smallest `seq` is taken first.
    pub seq: u64,
    pub positions: Vec<[f64; 3]>,
    pub charges: Vec<f64>,
    pub tx: mpsc::SyncSender<Result<EvalResponse, String>>,
}

struct State {
    // det: a BTreeMap (Shape: Ord); the pick goes by head `seq`, so
    // neither key nor hash order decides which shape runs first.
    queues: BTreeMap<Shape, Vec<Job>>,
    next_seq: u64,
    shutdown: bool,
}

impl State {
    /// Requests queued, all shapes.
    fn depth(&self) -> usize {
        self.queues.values().map(Vec::len).sum()
    }
}

/// Where a submitted job's result arrives.
pub type Receiver = mpsc::Receiver<Result<EvalResponse, String>>;

pub struct Batcher {
    state: Mutex<State>,
    cond: Condvar,
    max_batch: usize,
}

impl Batcher {
    pub fn new(max_batch: usize) -> Self {
        Batcher {
            state: Mutex::new(State {
                queues: BTreeMap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
            max_batch: max_batch.max(1),
        }
    }

    /// Enqueue a request; returns the receiver its result arrives on and
    /// the number of requests queued (all shapes, this one included) as
    /// seen under the batcher's lock. Returns `Err` if the batcher is
    /// shutting down.
    pub fn submit(&self, req: EvalRequest) -> Result<(Receiver, usize), String> {
        let (tx, rx) = mpsc::sync_channel(1);
        let mut st = self.state.lock().unwrap();
        if st.shutdown {
            return Err("server is shutting down".into());
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queues.entry(req.shape).or_default().push(Job {
            seq,
            positions: req.positions,
            charges: req.charges,
            tx,
        });
        // Wake a parked worker to take it.
        self.cond.notify_all();
        Ok((rx, st.depth()))
    }

    /// Total requests currently queued (all shapes).
    pub fn queue_depth(&self) -> usize {
        self.state.lock().unwrap().depth()
    }

    /// Take the queue of the shape whose head job is oldest, up to
    /// `max_batch` jobs, blocking only while nothing is queued. Returns
    /// `None` once the batcher is shut down *and* fully drained.
    pub fn next_batch(&self) -> Option<(Shape, Vec<Job>)> {
        let mut st = self.state.lock().unwrap();
        loop {
            let oldest = st
                .queues
                .iter()
                .filter_map(|(s, q)| Some((q.first()?.seq, *s)))
                .min();
            if let Some((_, shape)) = oldest {
                let q = st.queues.get_mut(&shape).unwrap();
                let take = q.len().min(self.max_batch);
                return Some((shape, q.drain(..take).collect()));
            }
            if st.shutdown {
                return None;
            }
            st = self.cond.wait(st).unwrap();
        }
    }

    /// Begin draining: no new submissions; `next_batch` keeps handing
    /// out what is queued and returns `None` once it is empty.
    pub fn shutdown(&self) {
        let mut st = self.state.lock().unwrap();
        st.shutdown = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(depth: u32) -> Shape {
        Shape {
            order: 3,
            depth,
            separation: 2,
            mixed: false,
            forces: false,
        }
    }

    fn request(depth: u32, n: usize) -> EvalRequest {
        EvalRequest {
            shape: shape(depth),
            positions: vec![[0.5; 3]; n],
            charges: vec![1.0; n],
        }
    }

    /// The particle counts of a batch's jobs: the tests tag each request
    /// by its count, so this is the batch in the order it was taken.
    fn counts(jobs: &[Job]) -> Vec<usize> {
        jobs.iter().map(|j| j.positions.len()).collect()
    }

    #[test]
    fn jobs_queued_meanwhile_leave_as_one_batch_in_arrival_order() {
        let b = Batcher::new(4);
        for n in 1..=6 {
            b.submit(request(2, n)).unwrap();
        }
        let (s, jobs) = b.next_batch().unwrap();
        assert_eq!(s, shape(2));
        assert_eq!(
            counts(&jobs),
            [1, 2, 3, 4],
            "capped at max_batch, oldest first"
        );
        assert!(jobs.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn overflow_is_taken_by_the_next_call() {
        let b = Batcher::new(3);
        for n in 1..=4 {
            b.submit(request(2, n)).unwrap();
        }
        b.submit(request(3, 5)).unwrap();
        let (s, jobs) = b.next_batch().unwrap();
        assert_eq!((s.depth, counts(&jobs)), (2, vec![1, 2, 3]));
        // Nothing else submits: a call that parked would never return.
        let (s, jobs) = b.next_batch().unwrap();
        assert_eq!((s.depth, counts(&jobs)), (2, vec![4]), "shapes do not mix");
        let (s, jobs) = b.next_batch().unwrap();
        assert_eq!((s.depth, counts(&jobs)), (3, vec![5]));
        assert_eq!(b.queue_depth(), 0);
    }

    #[test]
    fn the_shape_with_the_older_head_goes_first() {
        // Depth 3 sorts after depth 2 but its head was submitted first.
        let b = Batcher::new(64);
        b.submit(request(3, 1)).unwrap();
        b.submit(request(2, 2)).unwrap();
        b.submit(request(3, 3)).unwrap();
        let (s, jobs) = b.next_batch().unwrap();
        assert_eq!((s.depth, counts(&jobs)), (3, vec![1, 3]));
        let (s, jobs) = b.next_batch().unwrap();
        assert_eq!((s.depth, counts(&jobs)), (2, vec![2]));
    }

    #[test]
    fn shutdown_drains_and_terminates() {
        let b = Batcher::new(1000);
        b.submit(request(2, 1)).unwrap();
        b.shutdown();
        assert!(b.submit(request(2, 1)).is_err());
        let (_, jobs) = b.next_batch().unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(b.next_batch().is_none());
    }
}
