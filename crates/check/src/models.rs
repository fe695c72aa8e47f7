//! The checked models: small concurrent programs, each pinning one
//! safety property of the serve control plane, run under
//! [`fmm_sync::model::explore`] so *every* thread interleaving (modulo
//! sleep-set pruning, which only skips provably-equivalent orders) is
//! executed.
//!
//! Healthy models drive the **real** production code — `PlanRegistry`
//! and `Batcher` compile against the `fmm-sync` facade, so the code
//! under test here is byte-for-byte the code fmm-serve runs. Seeded
//! mutants run *replicas*: local copies of the same locking protocol
//! with one bug planted (double-check deleted, `notify_all` dropped,
//! shapes picked in key order, lock order swapped). A replica-with-no-bug
//! variant of each is model-checked in this crate's tests so the
//! replicas are known-faithful; the mutants exist to prove the checker
//! would catch the bug if it were ever introduced into the real code.

use fmm_core::{
    Kernel, PlanKey, PlanRegistry, SphereRuleKind, TranslationKey, TranslationSet, TraversalPlan,
};
use fmm_serve::protocol::{EvalRequest, EvalResponse, Shape};
use fmm_serve::Batcher;
use fmm_sync::atomic::{AtomicUsize, Ordering};
use fmm_sync::model::{explore, Explored, Options, Violation};
use fmm_sync::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One explored model: its name (CLI selector), the property it pins
/// (named in the violation report), and the outcome.
pub struct ModelReport {
    pub name: &'static str,
    pub property: &'static str,
    pub result: Result<Explored, Box<Violation>>,
}

fn spawn<F: FnOnce() + Send + 'static>(name: String, f: F) -> fmm_sync::thread::JoinHandle<()> {
    fmm_sync::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("model spawn")
}

// ---------------------------------------------------------------------
// Registry: exactly one build per key, in each of its two maps.
// ---------------------------------------------------------------------

fn plan_key() -> PlanKey {
    PlanKey {
        depth: 2,
        kernel: Kernel::Scalar,
    }
}

fn set_key() -> TranslationKey {
    TranslationKey {
        rule: SphereRuleKind::Icosahedron,
        degree: 5,
        m_trunc: 3,
        outer_ratio: 1.6f64.to_bits(),
        inner_ratio: 1.0f64.to_bits(),
        supernodes: false,
    }
}

/// `threads` tenants race `PlanRegistry::get_or_build_with` on one plan
/// key and `PlanRegistry::translations_with` on one set key, even tenants
/// plan first and odd ones set first. The builders clone prototypes made
/// once outside the model (an empty translation set stands in for a real
/// one), so every explored schedule exercises the full read-lock /
/// double-checked write-lock protocol of both maps without paying for
/// real builds. Property: each builder runs exactly once, and every
/// tenant observes that one plan and that one set.
pub fn registry_build_once(threads: usize, opts: &Options) -> ModelReport {
    let plan = Arc::new(TraversalPlan::with_kernel(2, Kernel::Scalar));
    let set = Arc::new(TranslationSet::default());
    let result = explore(opts, move || {
        let reg = Arc::new(PlanRegistry::new(4));
        let plan_builds = Arc::new(AtomicUsize::new(0));
        let set_builds = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (reg, plan, set) = (reg.clone(), plan.clone(), set.clone());
                let (plan_builds, set_builds) = (plan_builds.clone(), set_builds.clone());
                spawn(format!("tenant-{i}"), move || {
                    for step in [i % 2, 1 - i % 2] {
                        let same = if step == 0 {
                            let p = reg.get_or_build_with(plan_key(), || {
                                plan_builds.fetch_add(1, Ordering::Relaxed);
                                plan.clone()
                            });
                            Arc::ptr_eq(&p, &plan)
                        } else {
                            let s = reg.translations_with(set_key(), || {
                                set_builds.fetch_add(1, Ordering::Relaxed);
                                set.clone()
                            });
                            Arc::ptr_eq(&s, &set)
                        };
                        assert!(
                            same,
                            "exactly-one-build-per-key: tenant observed an entry \
                             that is not the single prototype"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (what, n) in [("plan", &plan_builds), ("set", &set_builds)] {
            let n = n.load(Ordering::Relaxed);
            assert_eq!(
                n, 1,
                "exactly-one-build-per-key: {what} builder ran {n} times for one key"
            );
        }
        let s = reg.stats();
        assert_eq!(
            (s.plan_builds, s.set_builds),
            (1, 1),
            "exactly-one-build-per-key: stats disagree"
        );
    });
    ModelReport {
        name: "registry-build-once",
        property: "exactly-one-build-per-key",
        result,
    }
}

/// Replica of the registry's read-then-write locking protocol (the map
/// payload is irrelevant, so a `u32` stands in for the plan or set). With
/// `double_check` the write path re-checks residency before building —
/// exactly what both of `PlanRegistry`'s maps do; without it the
/// protocol has the classic check-then-act race.
struct MiniRegistry {
    // det: keyed lookups only; never iterated.
    map: RwLock<HashMap<u32, Arc<u32>>>,
    double_check: bool,
}

impl MiniRegistry {
    fn get_or_build(&self, key: u32, builds: &AtomicUsize) -> Arc<u32> {
        {
            let map = self.map.read().unwrap();
            if let Some(v) = map.get(&key) {
                return v.clone();
            }
        }
        let mut map = self.map.write().unwrap();
        if self.double_check {
            if let Some(v) = map.get(&key) {
                return v.clone();
            }
        }
        builds.fetch_add(1, Ordering::Relaxed);
        let v = Arc::new(key);
        map.insert(key, v.clone());
        v
    }
}

/// The registry protocol replica, with or without the double check.
/// `double_check = true` must hold under every schedule (replica
/// fidelity); `false` is the `drop-double-check` mutant the checker
/// must catch.
pub fn registry_replica(threads: usize, double_check: bool, opts: &Options) -> ModelReport {
    let result = explore(opts, move || {
        let reg = Arc::new(MiniRegistry {
            // det: see the field justification.
            map: RwLock::new(HashMap::new()),
            double_check,
        });
        let builds = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (reg, builds) = (reg.clone(), builds.clone());
                spawn(format!("tenant-{i}"), move || {
                    reg.get_or_build(7, &builds);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = builds.load(Ordering::Relaxed);
        assert_eq!(
            n, 1,
            "exactly-one-build-per-key: builder ran {n} times for one key"
        );
    });
    ModelReport {
        name: if double_check {
            "registry-replica"
        } else {
            "registry-replica(drop-double-check)"
        },
        property: "exactly-one-build-per-key",
        result,
    }
}

// ---------------------------------------------------------------------
// Batcher: exactly one completion per job; shutdown drains; the oldest
// head goes first; no lost wakeup.
// ---------------------------------------------------------------------

fn tiny_shape() -> Shape {
    Shape {
        order: 3,
        depth: 2,
        separation: 2,
        mixed: false,
        forces: false,
    }
}

fn tiny_request() -> EvalRequest {
    EvalRequest {
        shape: tiny_shape(),
        positions: vec![[0.5; 3]],
        charges: vec![1.0],
    }
}

fn tiny_response(batch_size: usize) -> EvalResponse {
    EvalResponse {
        potentials: vec![0.0],
        fields: None,
        batch_size,
    }
}

/// `submitters` clients race one executor worker over the real
/// [`Batcher`]. Every submitted job must be answered exactly once: the
/// client asserts one completion arrives and that no second message is
/// ever buffered behind it. With `max_batch = 2` both a batch of two
/// and back-to-back batches of one are explored; a lost wakeup anywhere
/// in the protocol shows up as a deadlock.
pub fn batcher_exactly_once(submitters: usize, opts: &Options) -> ModelReport {
    let result = explore(opts, move || {
        let b = Arc::new(Batcher::new(2));
        let worker = {
            let b = b.clone();
            spawn("exec".into(), move || {
                while let Some((_shape, jobs)) = b.next_batch() {
                    let n = jobs.len();
                    for j in jobs {
                        let _ = j.tx.send(Ok(tiny_response(n)));
                    }
                }
            })
        };
        let subs: Vec<_> = (0..submitters)
            .map(|i| {
                let b = b.clone();
                spawn(format!("client-{i}"), move || {
                    let (rx, _) = b.submit(tiny_request()).expect("no shutdown in this model");
                    let first = rx
                        .recv()
                        .expect("exactly-one-completion-per-job: job dropped without completion");
                    first.expect("job unexpectedly failed");
                    assert!(
                        rx.try_recv().is_err(),
                        "exactly-one-completion-per-job: second completion delivered"
                    );
                })
            })
            .collect();
        for h in subs {
            h.join().unwrap();
        }
        b.shutdown();
        worker.join().unwrap();
    });
    ModelReport {
        name: "batcher-exactly-once",
        property: "exactly-one-completion-per-job",
        result,
    }
}

/// `submitters` clients race the shutdown trigger over the real
/// [`Batcher`]. Every submit must either be rejected atomically
/// (`Err`, nothing queued) or be drained to exactly one completion —
/// shutdown never strands a queued job, and the worker's drain loop
/// terminates.
pub fn batcher_shutdown_drains(submitters: usize, opts: &Options) -> ModelReport {
    let result = explore(opts, move || {
        let b = Arc::new(Batcher::new(2));
        let worker = {
            let b = b.clone();
            spawn("exec".into(), move || {
                while let Some((_shape, jobs)) = b.next_batch() {
                    let n = jobs.len();
                    for j in jobs {
                        let _ = j.tx.send(Ok(tiny_response(n)));
                    }
                }
            })
        };
        let subs: Vec<_> = (0..submitters)
            .map(|i| {
                let b = b.clone();
                spawn(format!("client-{i}"), move || {
                    match b.submit(tiny_request()) {
                        Err(_) => (), // rejected atomically: nothing was queued
                        Ok((rx, _)) => {
                            rx.recv()
                                .expect(
                                    "shutdown-drains-all-jobs: accepted job dropped \
                                 without completion",
                                )
                                .expect("job unexpectedly failed");
                        }
                    }
                })
            })
            .collect();
        b.shutdown(); // races the submitters above
        for h in subs {
            h.join().unwrap();
        }
        worker.join().unwrap();
        assert_eq!(
            b.queue_depth(),
            0,
            "shutdown-drains-all-jobs: jobs left queued after drain"
        );
    });
    ModelReport {
        name: "batcher-shutdown-drains",
        property: "shutdown-drains-all-jobs",
        result,
    }
}

type ModelResult = Result<Explored, Box<Violation>>;

/// What the oldest-first model drives, on the real [`Batcher`] and on
/// its replica alike: shapes are named by a depth.
trait Queue: Send + Sync + 'static {
    /// Submit one job of shape `depth`; the closure waits for its answer.
    fn put(&self, depth: u32) -> Box<dyn FnOnce() + Send>;
    /// Take the next batch and answer its jobs; the submit number of its
    /// head job, or `None` once shut down and drained.
    fn take(&self) -> Option<u64>;
    fn close(&self);
}

impl Queue for Batcher {
    fn put(&self, depth: u32) -> Box<dyn FnOnce() + Send> {
        let shape = Shape {
            depth,
            ..tiny_shape()
        };
        let (rx, _) = self
            .submit(EvalRequest {
                shape,
                ..tiny_request()
            })
            .expect("no shutdown in this model");
        Box::new(move || {
            rx.recv().expect("job answered").expect("job succeeded");
        })
    }

    fn take(&self) -> Option<u64> {
        let (_shape, jobs) = self.next_batch()?;
        let head = jobs[0].seq;
        for j in &jobs {
            let _ = j.tx.send(Ok(tiny_response(jobs.len())));
        }
        Some(head)
    }

    fn close(&self) {
        self.shutdown();
    }
}

/// `submitters` clients race one executor, client `i` submitting one job
/// of depth `2 + (i + 1) % 2`, so client 0's shape sorts after client
/// 1's. With one executor, taking the shape whose head is oldest is the
/// same as batch heads leaving in submit order: a pick that passed over
/// an older head takes it later, after a younger one.
fn oldest_first<Q: Queue>(batcher: fn() -> Q, submitters: usize, opts: &Options) -> ModelResult {
    explore(opts, move || {
        let b = Arc::new(batcher());
        let worker = {
            let b = b.clone();
            spawn("exec".into(), move || {
                let mut last = None;
                while let Some(head) = b.take() {
                    if let Some(prev) = last {
                        assert!(
                            prev < head,
                            "oldest-head-first: the batch headed by job {head} \
                             left after the one headed by job {prev}"
                        );
                    }
                    last = Some(head);
                }
            })
        };
        let subs: Vec<_> = (0..submitters)
            .map(|i| {
                let b = b.clone();
                spawn(format!("client-{i}"), move || {
                    b.put(2 + (i as u32 + 1) % 2)();
                })
            })
            .collect();
        for h in subs {
            h.join().unwrap();
        }
        b.close();
        worker.join().unwrap();
    })
}

/// The oldest-first property on the real [`Batcher`].
pub fn batcher_oldest_first(submitters: usize, opts: &Options) -> ModelReport {
    ModelReport {
        name: "batcher-oldest-first",
        property: "oldest-head-first",
        result: oldest_first(|| Batcher::new(2), submitters, opts),
    }
}

/// Replica of the batcher's mutex-and-condvar core: shapes are keys,
/// jobs are bare completion channels that receive their submit number,
/// and a batch is a whole queue. Two seeded bugs: `drop_notify` deletes
/// the `notify_all` in `submit` (the classic lost wakeup — a worker
/// already parked on the condvar never learns a job arrived), and
/// `key_order_pick` takes the first non-empty queue in key order instead
/// of the one whose head is oldest.
#[derive(Default)]
struct MiniBatcher {
    state: Mutex<MiniState>,
    cond: Condvar,
    drop_notify: bool,
    key_order_pick: bool,
}

#[derive(Default)]
struct MiniState {
    queues: BTreeMap<u32, Vec<(u64, fmm_sync::mpsc::SyncSender<u64>)>>,
    next_seq: u64,
    shutdown: bool,
}

impl MiniBatcher {
    fn submit(&self, key: u32) -> Result<fmm_sync::mpsc::Receiver<u64>, ()> {
        let (tx, rx) = fmm_sync::mpsc::sync_channel(1);
        let mut st = self.state.lock().unwrap();
        if st.shutdown {
            return Err(());
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queues.entry(key).or_default().push((seq, tx));
        if !self.drop_notify {
            self.cond.notify_all();
        }
        Ok(rx)
    }

    fn next_batch(&self) -> Option<Vec<(u64, fmm_sync::mpsc::SyncSender<u64>)>> {
        let mut st = self.state.lock().unwrap();
        loop {
            let pick = if self.key_order_pick {
                // Seeded bug: key order, whatever the heads' ages.
                st.queues
                    .iter()
                    .find(|(_, q)| !q.is_empty())
                    .map(|(k, _)| *k)
            } else {
                let heads = st.queues.iter();
                let heads = heads.filter_map(|(k, q)| Some((q.first()?.0, *k)));
                heads.min().map(|(_, k)| k)
            };
            if let Some(key) = pick {
                return Some(std::mem::take(st.queues.get_mut(&key).unwrap()));
            }
            if st.shutdown {
                return None;
            }
            st = self.cond.wait(st).unwrap();
        }
    }

    fn shutdown(&self) {
        let mut st = self.state.lock().unwrap();
        st.shutdown = true;
        self.cond.notify_all();
    }
}

impl Queue for MiniBatcher {
    fn put(&self, depth: u32) -> Box<dyn FnOnce() + Send> {
        let rx = self.submit(depth).expect("no shutdown in this model");
        Box::new(move || {
            rx.recv().expect("job answered");
        })
    }

    fn take(&self) -> Option<u64> {
        let batch = self.next_batch()?;
        for (seq, tx) in &batch {
            let _ = tx.send(*seq);
        }
        Some(batch[0].0)
    }

    fn close(&self) {
        self.shutdown();
    }
}

/// The batcher replica under one client and one worker. Healthy
/// (`drop_notify = false`) it must complete in every schedule; with the
/// notify dropped, the schedule where the worker parks *before* the
/// submit deadlocks — client waiting on its completion, worker waiting
/// on a signal that never comes. The model Condvar is lost-wakeup
/// faithful (a notify wakes only threads already waiting), so the
/// checker reports that schedule as a deadlock.
pub fn batcher_replica_wakeup(drop_notify: bool, opts: &Options) -> ModelReport {
    let result = explore(opts, move || {
        let b = Arc::new(MiniBatcher {
            drop_notify,
            ..MiniBatcher::default()
        });
        let worker = {
            let b = b.clone();
            spawn("exec".into(), move || while b.take().is_some() {})
        };
        let client = {
            let b = b.clone();
            spawn("client".into(), move || {
                let rx = b.submit(0).expect("no shutdown yet");
                rx.recv().expect("no-lost-wakeup: completion never arrived");
            })
        };
        client.join().unwrap();
        b.shutdown();
        worker.join().unwrap();
    });
    ModelReport {
        name: if drop_notify {
            "batcher-replica(drop-notify)"
        } else {
            "batcher-replica"
        },
        property: "no-lost-wakeup",
        result,
    }
}

/// The oldest-first property on the replica, healthy or with the
/// `key-order-pick` mutant planted, under two clients and one worker.
pub fn batcher_replica_oldest_first(key_order_pick: bool, opts: &Options) -> ModelReport {
    let batcher: fn() -> MiniBatcher = if key_order_pick {
        || MiniBatcher {
            key_order_pick: true,
            ..MiniBatcher::default()
        }
    } else {
        MiniBatcher::default
    };
    ModelReport {
        name: if key_order_pick {
            "batcher-replica(key-order-pick)"
        } else {
            "batcher-replica-oldest-first"
        },
        property: "oldest-head-first",
        result: oldest_first(batcher, 2, opts),
    }
}

// ---------------------------------------------------------------------
// Lock ordering: the checker's AB/BA self-test.
// ---------------------------------------------------------------------

/// The checker's self-test for lock-order deadlocks, on three stand-in
/// locks named after the registry's plan map and set map and the thread
/// pool's queue. No production path nests the two maps:
/// `Fmm::with_registry` takes only the set map's lock and returns before
/// any plan is looked up, and a plan lookup takes only the plan map's. One
/// path nests the queue under the set map: a cold set build runs its
/// parallel regions inside the set map's write lock, and publishing a
/// region takes the queue lock for one push. A pool worker takes the queue
/// lock alone and holds no lock while it runs a piece. Healthy, both
/// tenants take `plans` → `sets` → `queue`, a worker takes `queue` alone,
/// and the model is deadlock-free under every schedule; the
/// `swap-lock-order` mutant reverses one tenant's first two, and the
/// checker must find the AB/BA schedule that deadlocks.
pub fn lock_order(swapped: bool, opts: &Options) -> ModelReport {
    let result = explore(opts, move || {
        let plans = Arc::new(Mutex::new(0u32));
        let sets = Arc::new(Mutex::new(0u32));
        let queue = Arc::new(Mutex::new(0u32));
        let a = {
            let (plans, sets, queue) = (plans.clone(), sets.clone(), queue.clone());
            spawn("tenant-a".into(), move || {
                let mut p = plans.lock().unwrap();
                // lock-order: plans → sets → queue.
                let mut t = sets.lock().unwrap();
                *queue.lock().unwrap() += 1;
                *p += 1;
                *t += 1;
            })
        };
        let b = {
            let (plans, sets, queue) = (plans.clone(), sets.clone(), queue.clone());
            spawn("tenant-b".into(), move || {
                if swapped {
                    let mut t = sets.lock().unwrap();
                    // Seeded bug: acquisition order reversed (sets →
                    // plans), the classic AB/BA deadlock against tenant-a.
                    let mut p = plans.lock().unwrap();
                    *queue.lock().unwrap() += 1;
                    *p += 1;
                    *t += 1;
                } else {
                    let mut p = plans.lock().unwrap();
                    // lock-order: plans → sets → queue.
                    let mut t = sets.lock().unwrap();
                    *queue.lock().unwrap() += 1;
                    *p += 1;
                    *t += 1;
                }
            })
        };
        let worker = {
            let queue = queue.clone();
            spawn("pool-worker".into(), move || {
                *queue.lock().unwrap() += 1;
            })
        };
        a.join().unwrap();
        b.join().unwrap();
        worker.join().unwrap();
    });
    ModelReport {
        name: if swapped {
            "lock-order(swap-lock-order)"
        } else {
            "lock-order"
        },
        property: "consistent-lock-order",
        result,
    }
}
