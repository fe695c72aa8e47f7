//! Process-wide registry of what evaluations reuse: traversal plans and
//! translation sets.
//!
//! Every [`crate::Fmm`] takes its translation set and its traversal plans
//! from a [`PlanRegistry`]: a private one by default, or one that a
//! long-running service (fmm-serve) shares across all of its tenants.
//! Each of the registry's two maps is keyed by exactly the inputs its
//! entries are built from — a plan by [`PlanKey`], a set by
//! [`TranslationKey`] — so instances that differ in anything else (order,
//! precision, executor, depth) share one `Arc` of what they have in
//! common, and the registry is the only cache of evaluation state.
//!
//! Both maps run one protocol. Reads take the shared lock only; the
//! recency stamp is an atomic inside each entry, so concurrent hits never
//! serialize on the write lock. Misses take the exclusive lock and build
//! *inside* it (double-checked), which guarantees a key is never built
//! twice even under a thundering herd — the service's coalesced batches
//! rely on "one `plan_builds` per distinct key" being exact, not
//! approximate. Past its capacity a map evicts its least recently used
//! entry. Each map has its own lock and counters, so a cold set build
//! (0.1 s at order 14) blocks set lookups only, never a plan lookup.

use crate::config::FmmConfig;
use crate::plan::TraversalPlan;
use crate::translations::TranslationSet;
use fmm_linalg::Kernel;
use fmm_sphere::{SphereRule, SphereRuleKind};
use fmm_sync::atomic::{AtomicU64, Ordering};
use fmm_sync::RwLock;
use fmm_tree::Separation;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// The inputs of [`TraversalPlan::build_with`], which key a cached plan.
/// Instances that differ in sphere rule, executor or precision share the
/// plan of one (depth, separation, kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub depth: u32,
    pub separation: Separation,
    pub kernel: Kernel,
}

/// The inputs of [`TranslationSet::build`], which key a cached set: the
/// sphere rule (by kind and degree, so orders 4 and 5 share the one
/// icosahedron), the truncation, both radii (as bits), the separation and
/// the supernode setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TranslationKey {
    pub rule: SphereRuleKind,
    pub degree: usize,
    pub m_trunc: usize,
    /// `outer_ratio.to_bits()`.
    pub outer_ratio: u64,
    /// `inner_ratio.to_bits()`.
    pub inner_ratio: u64,
    pub separation: Separation,
    pub supernodes: bool,
}

impl TranslationKey {
    /// The key of the set `cfg` evaluates with; `rule` is `cfg.rule()`.
    pub fn new(rule: &SphereRule, cfg: &FmmConfig) -> Self {
        TranslationKey {
            rule: rule.kind,
            degree: rule.degree,
            m_trunc: cfg.m_trunc,
            outer_ratio: cfg.outer_ratio.to_bits(),
            inner_ratio: cfg.inner_ratio.to_bits(),
            separation: cfg.separation,
            supernodes: cfg.supernodes,
        }
    }
}

/// Counter snapshot of a registry (see [`PlanRegistry::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Plans built (misses admitted). Exact: a key is never built twice
    /// while it remains resident.
    pub plan_builds: u64,
    /// Lookups served from a resident plan.
    pub plan_hits: u64,
    /// Plans displaced by the LRU capacity bound.
    pub evictions: u64,
    /// Currently resident plans.
    pub entries: usize,
    /// Translation sets built; exact like `plan_builds`.
    pub set_builds: u64,
    /// Lookups served from a resident translation set.
    pub set_hits: u64,
    /// Translation sets displaced by the LRU capacity bound.
    pub set_evictions: u64,
    /// Currently resident translation sets.
    pub set_entries: usize,
    /// Capacity bound of each map.
    pub capacity: usize,
}

struct Entry<V> {
    value: Arc<V>,
    /// Monotonic recency stamp (from [`Lru::tick`]); updated with a plain
    /// atomic store under the *read* lock on every hit.
    last_used: AtomicU64,
}

/// One LRU-bounded map of immutable `Arc` snapshots, built on first use:
/// the protocol both of the registry's maps run (see the module docs).
struct Lru<K, V> {
    // det: keyed lookups plus a min-by-unique-recency eviction scan; no
    // result depends on the map's iteration order (recency stamps are
    // unique, so the LRU minimum is unique).
    map: RwLock<HashMap<K, Entry<V>>>,
    capacity: usize,
    tick: AtomicU64,
    builds: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            // det: see the field justification.
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn hit(&self, e: &Entry<V>) -> Arc<V> {
        e.last_used
            .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        e.value.clone()
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> Arc<V>) -> Arc<V> {
        {
            let map = self.map.read().expect("registry lock poisoned");
            if let Some(e) = map.get(&key) {
                return self.hit(e);
            }
        }
        let mut map = self.map.write().expect("registry lock poisoned");
        // Double-check: someone else may have built it while we queued.
        if let Some(e) = map.get(&key) {
            return self.hit(e);
        }
        // Build inside the exclusive section so a key is built exactly
        // once (a herd re-building the same entry would cost more than
        // the serialization does).
        let value = build();
        self.builds.fetch_add(1, Ordering::Relaxed);
        map.insert(
            key,
            Entry {
                value: value.clone(),
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
        value
    }

    /// `(builds, hits, evictions, entries)`.
    fn counts(&self) -> (u64, u64, u64, usize) {
        (
            self.builds.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.len(),
        )
    }

    /// Resident keys with `f` of their values, in map order (callers sort).
    fn list<T>(&self, f: impl Fn(&V) -> T) -> Vec<(K, T)> {
        let map = self.map.read().expect("registry lock poisoned");
        map.iter().map(|(k, e)| (*k, f(&e.value))).collect()
    }

    fn len(&self) -> usize {
        self.map.read().expect("registry lock poisoned").len()
    }
}

/// Shared, LRU-bounded maps from [`PlanKey`] to immutable
/// [`TraversalPlan`] snapshots and from [`TranslationKey`] to immutable
/// [`TranslationSet`] snapshots. See the module docs.
pub struct PlanRegistry {
    plans: Lru<PlanKey, TraversalPlan>,
    sets: Lru<TranslationKey, TranslationSet>,
}

impl std::fmt::Debug for PlanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PlanRegistry").field(&self.stats()).finish()
    }
}

impl PlanRegistry {
    /// Default capacity of per-`Fmm` private registries (kept generous: a
    /// single instance rarely visits more than a handful of depths).
    pub const DEFAULT_CAPACITY: usize = 16;

    /// An empty registry bounded to `capacity` resident plans and
    /// `capacity` resident translation sets.
    pub fn new(capacity: usize) -> Self {
        PlanRegistry {
            plans: Lru::new(capacity),
            sets: Lru::new(capacity),
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
        self.plans.get_or_build(key, build)
    }

    /// The translation set for `key`, built from `rule` (the rule `key`
    /// names) and admitted on first use. Hits take the set map's shared
    /// lock only; a build holds the set map's write lock and, under it,
    /// takes the thread pool's queue lock once per parallel region it
    /// publishes (a push; no piece runs under the queue lock).
    pub fn translations(&self, key: TranslationKey, rule: &SphereRule) -> Arc<TranslationSet> {
        assert_eq!(
            (key.rule, key.degree),
            (rule.kind, rule.degree),
            "the rule is not the one the key names"
        );
        self.translations_with(key, || {
            Arc::new(TranslationSet::build(
                rule,
                key.m_trunc,
                f64::from_bits(key.outer_ratio),
                f64::from_bits(key.inner_ratio),
                key.separation,
                key.supernodes,
            ))
        })
    }

    /// [`Self::translations`] with a caller-supplied constructor, the seam
    /// [`Self::get_or_build_with`] is for plans.
    pub fn translations_with(
        &self,
        key: TranslationKey,
        build: impl FnOnce() -> Arc<TranslationSet>,
    ) -> Arc<TranslationSet> {
        self.sets.get_or_build(key, build)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RegistryStats {
        let (plan_builds, plan_hits, evictions, entries) = self.plans.counts();
        let (set_builds, set_hits, set_evictions, set_entries) = self.sets.counts();
        RegistryStats {
            plan_builds,
            plan_hits,
            evictions,
            entries,
            set_builds,
            set_hits,
            set_evictions,
            set_entries,
            capacity: self.plans.capacity,
        }
    }

    /// Keys and approximate heap footprints of the resident plans, sorted
    /// by key for a deterministic listing (diagnostics / `info` endpoint).
    pub fn snapshot(&self) -> Vec<(PlanKey, usize)> {
        let mut v = self.plans.list(TraversalPlan::memory_bytes);
        // det: sorted before exposure, so callers never observe map order.
        v.sort_by_key(|(k, _)| (k.depth, format!("{:?}", (k.separation, k.kernel))));
        v
    }

    /// Keys and footprints of the resident translation sets, sorted like
    /// [`Self::snapshot`].
    pub fn set_snapshot(&self) -> Vec<(TranslationKey, usize)> {
        let mut v = self.sets.list(TranslationSet::memory_bytes);
        // det: sorted before exposure, so callers never observe map order.
        v.sort_by_key(|(k, _)| (k.degree, format!("{k:?}")));
        v
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.plans.len()
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
            separation: Separation::Two,
            kernel: Kernel::Scalar,
        }
    }

    fn set_key(degree: usize) -> TranslationKey {
        TranslationKey {
            rule: SphereRuleKind::Product,
            degree,
            m_trunc: 3,
            outer_ratio: 1.6f64.to_bits(),
            inner_ratio: 1.0f64.to_bits(),
            separation: Separation::Two,
            supernodes: false,
        }
    }

    /// A set with no matrices: the cheap constructor the race tests clone,
    /// so they stay fast enough for Miri.
    fn empty_set() -> Arc<TranslationSet> {
        Arc::new(TranslationSet {
            k: 0,
            separation: Separation::Two,
            t1t: Vec::new(),
            t3t: Vec::new(),
            t2t: Vec::new(),
            // det: empty, never iterated.
            t2t_super: HashMap::new(),
            built_t1t3: 0,
            built_t2: 0,
        })
    }

    #[test]
    fn hit_does_not_rebuild() {
        let r = PlanRegistry::new(4);
        let a = r.get_or_build(key(2));
        let b = r.get_or_build(key(2));
        assert!(Arc::ptr_eq(&a, &b));
        let s = r.stats();
        assert_eq!((s.plan_builds, s.plan_hits, s.entries), (1, 1, 1));
        assert_eq!((s.set_builds, s.set_hits, s.set_entries), (0, 0, 0));
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

    // The `concurrent_*` tests below use `get_or_build_with` /
    // `translations_with` with a cheap constructor (cloning one prebuilt
    // value) so they stay fast enough for Miri and ThreadSanitizer, which
    // run them in CI.

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

    #[test]
    fn concurrent_set_and_plan_lookups_build_each_key_once() {
        let plan = Arc::new(TraversalPlan::build_with(
            2,
            Separation::Two,
            Kernel::Scalar,
        ));
        let set = empty_set();
        let r = Arc::new(PlanRegistry::new(4));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let (r, plan, set) = (r.clone(), plan.clone(), set.clone());
                std::thread::spawn(move || {
                    // Half the tenants take the set first, half the plan.
                    for step in [i % 2, 1 - i % 2] {
                        if step == 0 {
                            let s = r.translations_with(set_key(6), || set.clone());
                            assert!(Arc::ptr_eq(&s, &set));
                        } else {
                            let p = r.get_or_build_with(key(2), || plan.clone());
                            assert!(Arc::ptr_eq(&p, &plan));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = r.stats();
        assert_eq!((s.plan_builds, s.plan_hits, s.entries), (1, 3, 1));
        assert_eq!((s.set_builds, s.set_hits, s.set_entries), (1, 3, 1));
    }

    #[test]
    fn set_map_is_lru_bounded_apart_from_plans() {
        let r = PlanRegistry::new(2);
        let set = empty_set();
        for degree in [6, 7, 6, 8] {
            r.translations_with(set_key(degree), || set.clone());
        }
        r.get_or_build(key(2));
        let s = r.stats();
        assert_eq!((s.set_builds, s.set_hits, s.set_evictions), (3, 1, 1));
        assert_eq!((s.set_entries, s.entries, s.evictions), (2, 1, 0));
        let degrees: Vec<usize> = r.set_snapshot().iter().map(|(k, _)| k.degree).collect();
        assert_eq!(degrees, vec![6, 8]);
    }
}
