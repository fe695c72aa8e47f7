//! # fmm-check — exhaustive model checking of the serve control plane
//!
//! The fmm-serve control plane (plan registry, coalescing batcher,
//! shutdown drain) is ordinary mutex-and-condvar code, which means its
//! correctness claims are claims about *all* thread interleavings — a
//! space unit tests sample and ThreadSanitizer observes one run at a
//! time. This crate closes that gap: the control plane compiles against
//! the [`fmm_sync`] facade, and under [`fmm_sync::model::explore`] the
//! facade becomes a cooperative scheduler that replays the program
//! under **every** schedule (bounded preemptions optional, sleep-set
//! pruning for soundness-preserving reduction), failing with the exact
//! decision sequence when any schedule panics, deadlocks, or livelocks.
//!
//! Checked properties (see [`models`]):
//!
//! | model                    | property                         |
//! |--------------------------|----------------------------------|
//! | `registry-build-once`    | exactly-one-build-per-key        |
//! | `batcher-exactly-once`   | exactly-one-completion-per-job   |
//! | `batcher-shutdown-drains`| shutdown-drains-all-jobs         |
//! | `batcher-oldest-first`   | oldest-head-first                |
//! | `batcher-replica`        | no-lost-wakeup                   |
//! | `lock-order`             | consistent-lock-order            |
//!
//! Seeded mutations (CI's smoke test that the checker has teeth): each
//! plants one classic concurrency bug in a protocol replica and must
//! make `fmm-check --mutate <name>` exit non-zero naming the violated
//! property and the schedule that exposed it.

pub mod models;

pub use models::ModelReport;

use fmm_sync::model::Options;

/// Seeded concurrency bugs for the mutation smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Delete the registry write-path re-check: two tenants racing a
    /// cold key both build it (check-then-act race).
    DropDoubleCheck,
    /// Drop the `notify_all` in `Batcher::submit`: a worker parked
    /// before the submit never wakes (lost wakeup → deadlock).
    DropNotify,
    /// Take the first non-empty shape queue in key order instead of the
    /// one whose head is oldest: a shape that sorts early starves the
    /// others.
    KeyOrderPick,
    /// Reverse one tenant's plans→sets acquisition order (stand-ins for
    /// the registry's two maps): the classic AB/BA deadlock.
    SwapLockOrder,
}

impl Mutation {
    pub const ALL: [Mutation; 4] = [
        Mutation::DropDoubleCheck,
        Mutation::DropNotify,
        Mutation::KeyOrderPick,
        Mutation::SwapLockOrder,
    ];

    pub fn parse(s: &str) -> Option<Mutation> {
        Some(match s {
            "drop-double-check" => Mutation::DropDoubleCheck,
            "drop-notify" => Mutation::DropNotify,
            "key-order-pick" => Mutation::KeyOrderPick,
            "swap-lock-order" => Mutation::SwapLockOrder,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Mutation::DropDoubleCheck => "drop-double-check",
            Mutation::DropNotify => "drop-notify",
            Mutation::KeyOrderPick => "key-order-pick",
            Mutation::SwapLockOrder => "swap-lock-order",
        }
    }

    /// Run the model carrying this seeded bug.
    pub fn run(self, threads: usize, opts: &Options) -> ModelReport {
        match self {
            Mutation::DropDoubleCheck => models::registry_replica(threads, false, opts),
            Mutation::DropNotify => models::batcher_replica_wakeup(true, opts),
            Mutation::KeyOrderPick => models::batcher_replica_oldest_first(true, opts),
            Mutation::SwapLockOrder => models::lock_order(true, opts),
        }
    }
}

/// Names of the healthy models, in run order.
pub const HEALTHY_MODELS: [&str; 6] = [
    "registry-build-once",
    "batcher-exactly-once",
    "batcher-shutdown-drains",
    "batcher-oldest-first",
    "batcher-replica",
    "lock-order",
];

/// Run one healthy model by name. `threads` is the number of racing
/// model threads (tenants / clients) where the model is parameterized.
pub fn run_healthy(name: &str, threads: usize, opts: &Options) -> Option<ModelReport> {
    Some(match name {
        "registry-build-once" => models::registry_build_once(threads, opts),
        "batcher-exactly-once" => models::batcher_exactly_once(threads, opts),
        "batcher-shutdown-drains" => models::batcher_shutdown_drains(threads, opts),
        "batcher-oldest-first" => models::batcher_oldest_first(threads, opts),
        "batcher-replica" => models::batcher_replica_wakeup(false, opts),
        "lock-order" => models::lock_order(false, opts),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_sync::model::ViolationKind;

    fn opts() -> Options {
        Options::default()
    }

    #[test]
    fn every_healthy_model_holds_at_two_threads() {
        for name in HEALTHY_MODELS {
            let report = run_healthy(name, 2, &opts()).unwrap();
            let explored = report
                .result
                .unwrap_or_else(|v| panic!("{name} violated {}:\n{v}", report.property));
            assert!(explored.complete, "{name}: exploration truncated");
            assert!(explored.schedules >= 1, "{name}: no schedules run");
        }
    }

    #[test]
    fn replica_protocols_match_the_real_ones() {
        // The healthy replicas the mutants are planted in must
        // themselves hold, or catching the mutant proves nothing.
        let r = models::registry_replica(2, true, &opts());
        r.result.expect("healthy registry replica holds");
        let r = models::batcher_replica_oldest_first(false, &opts());
        r.result.expect("healthy oldest-first replica holds");
    }

    #[test]
    fn registry_race_needs_more_than_one_schedule() {
        let report = models::registry_build_once(2, &opts());
        let explored = report.result.expect("model holds");
        assert!(
            explored.schedules > 1,
            "read/write lock race admits multiple orders; sleep sets \
             collapsed the exploration to a single schedule"
        );
    }

    #[test]
    fn drop_double_check_is_caught_as_a_double_build() {
        let report = Mutation::DropDoubleCheck.run(2, &opts());
        let v = report.result.expect_err("mutant must be caught");
        match &v.kind {
            ViolationKind::Panic(msg) => {
                assert!(
                    msg.contains("exactly-one-build-per-key"),
                    "names the property: {msg}"
                )
            }
            k => panic!("expected a panic violation, got {k:?}"),
        }
        assert!(!v.trace.is_empty(), "violation names the schedule");
    }

    #[test]
    fn drop_notify_is_caught_as_a_lost_wakeup_deadlock() {
        let report = Mutation::DropNotify.run(2, &opts());
        let v = report.result.expect_err("mutant must be caught");
        assert!(
            matches!(v.kind, ViolationKind::Deadlock(_)),
            "lost wakeup surfaces as a deadlock, got {:?}",
            v.kind
        );
    }

    #[test]
    fn key_order_pick_is_caught() {
        let report = Mutation::KeyOrderPick.run(2, &opts());
        let v = report.result.expect_err("mutant must be caught");
        match &v.kind {
            ViolationKind::Panic(msg) => {
                assert!(
                    msg.contains("oldest-head-first"),
                    "names the property: {msg}"
                )
            }
            k => panic!("expected a panic violation, got {k:?}"),
        }
    }

    #[test]
    fn swap_lock_order_is_caught_as_ab_ba_deadlock() {
        let report = Mutation::SwapLockOrder.run(2, &opts());
        let v = report.result.expect_err("mutant must be caught");
        match &v.kind {
            ViolationKind::Deadlock(parked) => {
                // Both tenants hold one lock and want the other; main is
                // parked too, blocked joining them.
                for t in ["tenant-a", "tenant-b"] {
                    assert!(
                        parked.iter().any(|p| p.contains(t)),
                        "{t} parked in {parked:?}"
                    );
                }
            }
            k => panic!("expected a deadlock, got {k:?}"),
        }
    }
}
