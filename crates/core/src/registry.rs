//! Process-wide traversal-plan registry.
//!
//! PR 1 gave every [`crate::Fmm`] a private per-depth plan cache; a
//! long-running evaluation service (fmm-serve) builds many `Fmm`
//! instances — one per tenant configuration — whose plans are identical
//! whenever `(depth, K, separation, executor, kernel, precision)` agree.
//! The [`PlanRegistry`] promotes the cache to a shared, concurrently
//! readable structure: a `RwLock`ed map handing out `Arc` snapshots of
//! immutable [`TraversalPlan`]s, with an LRU capacity bound and admission
//! counters (`plan_builds` / `plan_hits` / `evictions`) so a service can
//! report cache efficiency per process, not per instance.
//!
//! Reads take the shared lock only; the recency stamp is an atomic inside
//! each entry, so concurrent hits never serialize on the write lock.
//! Misses take the exclusive lock and build *inside* it (double-checked),
//! which guarantees a key is never built twice even under a thundering
//! herd — the service's coalesced batches rely on "one `plan_builds` per
//! distinct shape" being exact, not approximate.

use crate::config::{Executor, Precision};
use crate::plan::TraversalPlan;
use fmm_linalg::Kernel;
use fmm_sync::atomic::{AtomicU64, Ordering};
use fmm_sync::RwLock;
use fmm_tree::Separation;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything a cached plan is keyed by. `depth`, `separation` and
/// `kernel` determine the plan's contents; `k` (sphere-rule size),
/// `executor` and `precision` are discriminators so instances with
/// different execution shapes never alias a plan entry (their eviction
/// behaviour and metrics stay attributable per shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub depth: u32,
    /// Sphere-rule size K of the owning configuration.
    pub k: usize,
    pub separation: Separation,
    pub executor: Executor,
    pub kernel: Kernel,
    pub precision: Precision,
}

struct Entry {
    plan: Arc<TraversalPlan>,
    /// Monotonic recency stamp (from [`PlanRegistry::tick`]); updated with
    /// a plain atomic store under the *read* lock on every hit.
    last_used: AtomicU64,
}

/// Counter snapshot of a registry (see [`PlanRegistry::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Plans built (misses admitted). Exact: a key is never built twice
    /// while it remains resident.
    pub plan_builds: u64,
    /// Lookups served from a resident plan.
    pub plan_hits: u64,
    /// Entries displaced by the LRU capacity bound.
    pub evictions: u64,
    /// Currently resident plans.
    pub entries: usize,
    /// Capacity bound.
    pub capacity: usize,
}

/// A shared, LRU-bounded map from [`PlanKey`] to immutable
/// [`TraversalPlan`] snapshots. See the module docs.
pub struct PlanRegistry {
    // det: keyed lookups plus a min-by-unique-recency eviction scan; no
    // result depends on the map's iteration order (recency stamps are
    // unique, so the LRU minimum is unique).
    map: RwLock<HashMap<PlanKey, Entry>>,
    capacity: usize,
    tick: AtomicU64,
    builds: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanRegistry")
            .field("entries", &s.entries)
            .field("capacity", &s.capacity)
            .field("plan_builds", &s.plan_builds)
            .field("plan_hits", &s.plan_hits)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl PlanRegistry {
    /// Default capacity of per-`Fmm` private registries (kept generous: a
    /// single instance rarely visits more than a handful of depths).
    pub const DEFAULT_CAPACITY: usize = 16;

    /// An empty registry bounded to `capacity` resident plans.
    pub fn new(capacity: usize) -> Self {
        PlanRegistry {
            // det: see the field justification.
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The plan for `key`, built (and admitted) on first use. Hits take
    /// the shared lock only.
    pub fn get_or_build(&self, key: PlanKey) -> Arc<TraversalPlan> {
        self.get_or_build_with(key, || {
            Arc::new(TraversalPlan::build_with(
                key.depth,
                key.separation,
                key.kernel,
            ))
        })
    }

    /// [`Self::get_or_build`] with a caller-supplied constructor: the
    /// seam that lets the fmm-check interleaving models and the
    /// Miri/TSan stress tests exercise the full locking protocol
    /// (read-path hit, double-checked write-path build, LRU eviction)
    /// without paying for real plan builds on every explored schedule.
    pub fn get_or_build_with(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Arc<TraversalPlan>,
    ) -> Arc<TraversalPlan> {
        {
            let map = self.map.read().unwrap();
            if let Some(e) = map.get(&key) {
                e.last_used
                    .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return e.plan.clone();
            }
        }
        let mut map = self.map.write().unwrap();
        // Double-check: someone else may have built it while we queued.
        if let Some(e) = map.get(&key) {
            e.last_used
                .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return e.plan.clone();
        }
        // Build inside the exclusive section so a key is built exactly
        // once (plan builds are milliseconds; a herd re-building the same
        // plan would cost more than the serialization does).
        let plan = build();
        self.builds.fetch_add(1, Ordering::Relaxed);
        map.insert(
            key,
            Entry {
                plan: plan.clone(),
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
            },
        );
        while map.len() > self.capacity {
            // det: recency stamps are unique, so the minimum is unique and
            // the evicted key does not depend on iteration order.
            let victim = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
                .expect("non-empty over capacity");
            map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        plan
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            plan_builds: self.builds.load(Ordering::Relaxed),
            plan_hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.map.read().unwrap().len(),
            capacity: self.capacity,
        }
    }

    /// Keys and approximate heap footprints of the resident plans, sorted
    /// by key for a deterministic listing (diagnostics / `info` endpoint).
    pub fn snapshot(&self) -> Vec<(PlanKey, usize)> {
        let map = self.map.read().unwrap();
        let mut v: Vec<(PlanKey, usize)> = map
            .iter()
            .map(|(k, e)| (*k, e.plan.memory_bytes()))
            .collect();
        // det: sorted before exposure, so callers never observe map order.
        v.sort_by_key(|(k, _)| {
            (
                k.depth,
                k.k,
                format!("{:?}", (k.separation, k.executor, k.kernel, k.precision)),
            )
        });
        v
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.map.read().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(depth: u32) -> PlanKey {
        PlanKey {
            depth,
            k: 12,
            separation: Separation::Two,
            executor: Executor::Rayon,
            kernel: Kernel::Scalar,
            precision: Precision::F64,
        }
    }

    #[test]
    fn hit_does_not_rebuild() {
        let r = PlanRegistry::new(4);
        let a = r.get_or_build(key(2));
        let b = r.get_or_build(key(2));
        assert!(Arc::ptr_eq(&a, &b));
        let s = r.stats();
        assert_eq!((s.plan_builds, s.plan_hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_stalest_key() {
        let r = PlanRegistry::new(2);
        r.get_or_build(key(2));
        r.get_or_build(key(3));
        r.get_or_build(key(2)); // refresh depth-2 → depth-3 is now stalest
        r.get_or_build(key(4)); // evicts depth-3
        let s = r.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        let depths: Vec<u32> = r.snapshot().iter().map(|(k, _)| k.depth).collect();
        assert_eq!(depths, vec![2, 4]);
        // Re-requesting the evicted key is a fresh build.
        r.get_or_build(key(3));
        assert_eq!(r.stats().plan_builds, 4);
    }

    #[test]
    fn distinct_discriminators_do_not_alias() {
        let r = PlanRegistry::new(8);
        r.get_or_build(key(2));
        let mut mixed = key(2);
        mixed.precision = Precision::Mixed;
        r.get_or_build(mixed);
        assert_eq!(r.stats().plan_builds, 2);
    }

    // The `concurrent_*` tests below use `get_or_build_with` with a
    // cheap constructor (cloning one prebuilt plan) so they stay fast
    // enough for Miri and ThreadSanitizer, which run them in CI.

    #[test]
    fn concurrent_get_or_build_with_builds_once() {
        let proto = Arc::new(TraversalPlan::build_with(
            2,
            Separation::Two,
            Kernel::Scalar,
        ));
        let r = Arc::new(PlanRegistry::new(4));
        let invocations = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (r, proto, invocations) = (r.clone(), proto.clone(), invocations.clone());
                std::thread::spawn(move || {
                    let p = r.get_or_build_with(key(2), || {
                        invocations.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        proto.clone()
                    });
                    assert!(Arc::ptr_eq(&p, &proto));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(invocations.load(std::sync::atomic::Ordering::SeqCst), 1);
        let s = r.stats();
        assert_eq!((s.plan_builds, s.plan_hits, s.entries), (1, 3, 1));
    }

    #[test]
    fn concurrent_distinct_keys_build_each_once() {
        let proto = Arc::new(TraversalPlan::build_with(
            2,
            Separation::Two,
            Kernel::Scalar,
        ));
        let r = Arc::new(PlanRegistry::new(8));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let (r, proto) = (r.clone(), proto.clone());
                std::thread::spawn(move || {
                    for depth in 2..5 {
                        let _ = r.get_or_build_with(key(depth), || proto.clone());
                    }
                    i
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = r.stats();
        assert_eq!(s.plan_builds, 3, "one build per distinct key");
        assert_eq!(s.plan_hits, 4 * 3 - 3);
    }
}
