//! Service counters, exposed as Prometheus-style text at `/metrics`.
//!
//! PetFMM's lesson (PAPERS.md): once workloads are heterogeneous,
//! per-request cost accounting — queue depth, batch occupancy — must be
//! first-class. Everything here is a relaxed atomic; the registry's own
//! counters (of plans: builds, hits, evictions, entries; of translation
//! sets: builds, hits, entries) are scraped live from the shared
//! [`fmm_core::PlanRegistry`] at render time.

use fmm_core::PlanRegistry;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Default)]
pub struct Metrics {
    /// Evaluation requests accepted (both front doors).
    pub requests_total: AtomicU64,
    /// Evaluation requests answered with an error.
    pub errors_total: AtomicU64,
    /// Coalesced batches executed.
    pub batches_total: AtomicU64,
    /// Requests that rode in those batches (Σ batch sizes). The ratio
    /// to `batches_total` is the mean batch occupancy.
    pub batched_requests_total: AtomicU64,
    /// Requests whose window closed with them alone (occupancy 1).
    pub solo_batches_total: AtomicU64,
    /// Particles evaluated.
    pub particles_total: AtomicU64,
    /// Requests over the binary protocol.
    pub binary_requests_total: AtomicU64,
    /// Requests over the HTTP front door.
    pub http_requests_total: AtomicU64,
    /// Connections accepted.
    pub connections_total: AtomicU64,
    /// Peak queue depth observed by the batcher.
    pub queue_depth_peak: AtomicU64,
}

impl Metrics {
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(counter: &AtomicU64, x: u64) {
        counter.fetch_add(x, Ordering::Relaxed);
    }

    pub fn max(counter: &AtomicU64, x: u64) {
        counter.fetch_max(x, Ordering::Relaxed);
    }

    /// Render the Prometheus-style scrape body, combining the service
    /// counters with the plan registry's.
    pub fn render(&self, registry: &PlanRegistry) -> String {
        let mut s = String::new();
        let mut line = |name: &str, help: &str, v: u64| {
            let _ = writeln!(s, "# HELP {name} {help}");
            let _ = writeln!(s, "# TYPE {name} counter");
            let _ = writeln!(s, "{name} {v}");
        };
        line(
            "fmm_requests_total",
            "evaluation requests accepted",
            self.requests_total.load(Ordering::Relaxed),
        );
        line(
            "fmm_errors_total",
            "evaluation requests answered with an error",
            self.errors_total.load(Ordering::Relaxed),
        );
        line(
            "fmm_batches_total",
            "coalesced batches executed",
            self.batches_total.load(Ordering::Relaxed),
        );
        line(
            "fmm_batched_requests_total",
            "requests summed over executed batches",
            self.batched_requests_total.load(Ordering::Relaxed),
        );
        line(
            "fmm_solo_batches_total",
            "batches that closed with a single request",
            self.solo_batches_total.load(Ordering::Relaxed),
        );
        line(
            "fmm_particles_total",
            "particles evaluated",
            self.particles_total.load(Ordering::Relaxed),
        );
        line(
            "fmm_binary_requests_total",
            "requests over the binary protocol",
            self.binary_requests_total.load(Ordering::Relaxed),
        );
        line(
            "fmm_http_requests_total",
            "requests over the HTTP front door",
            self.http_requests_total.load(Ordering::Relaxed),
        );
        line(
            "fmm_connections_total",
            "connections accepted",
            self.connections_total.load(Ordering::Relaxed),
        );
        line(
            "fmm_queue_depth_peak",
            "peak batcher queue depth observed",
            self.queue_depth_peak.load(Ordering::Relaxed),
        );
        let reg = registry.stats();
        line(
            "fmm_plan_builds",
            "traversal plans built by the shared registry",
            reg.plan_builds,
        );
        line(
            "fmm_plan_hits",
            "plan lookups served from the shared registry",
            reg.plan_hits,
        );
        line(
            "fmm_plan_evictions",
            "plans displaced by the registry's LRU bound",
            reg.evictions,
        );
        line(
            "fmm_plan_entries",
            "plans currently resident in the registry",
            reg.entries as u64,
        );
        line(
            "fmm_set_builds",
            "translation sets built by the shared registry",
            reg.set_builds,
        );
        line(
            "fmm_set_hits",
            "translation-set lookups served from the shared registry",
            reg.set_hits,
        );
        line(
            "fmm_set_entries",
            "translation sets currently resident in the registry",
            reg.set_entries as u64,
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_registry_counters() {
        let m = Metrics::default();
        Metrics::inc(&m.requests_total);
        Metrics::add(&m.particles_total, 64);
        let reg = PlanRegistry::new(4);
        let text = m.render(&reg);
        assert!(text.contains("fmm_requests_total 1"));
        assert!(text.contains("fmm_particles_total 64"));
        assert!(text.contains("fmm_plan_builds 0"));
        assert!(text.contains("fmm_set_builds 0"));
    }
}
