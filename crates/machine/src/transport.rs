//! Budget pricing per transport, and the launcher's pre-flight check.
//!
//! The program budget ([`crate::communication_budget`]) counts data
//! motion in machine units — messages and payload bytes. What a message
//! *costs* depends on the wire the SPMD executor selects: an in-process
//! channel send is an allocation handoff, a UNIX-domain frame crosses the
//! kernel twice, a TCP frame additionally pays the stack's segmentation.
//! [`TransportModel`] carries per-fabric constants so the same budget can
//! be priced on each, and [`preflight`] turns the priced budget into a
//! go/no-go answer *before* any rank is spawned: a schedule whose total
//! traffic exceeds the operator's byte budget, or whose largest phase
//! cannot fit a frame on the wire, fails fast with the numbers in hand
//! instead of wedging p processes mid-collective.

use crate::program::ProgramBudget;

/// Latency/bandwidth/frame constants of one fabric. The defaults are
/// order-of-magnitude figures for a single host (loopback), deliberately
/// round: pre-flight is a feasibility gate, not a performance prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportModel {
    /// Wire name: `"inprocess"` for channel ranks, else the kind of the
    /// rendezvous address (`fmm_spmd::FabricAddr::kind`).
    pub name: &'static str,
    /// Fixed per-message cost, seconds.
    pub latency_s: f64,
    /// Streaming payload bandwidth, bytes per second.
    pub bytes_per_s: f64,
    /// Largest single frame the wire accepts (payload bytes).
    pub max_frame: u64,
}

impl TransportModel {
    /// In-process channels: a send moves a `Vec` by ownership; no frame
    /// limit beyond memory.
    pub fn in_process() -> Self {
        TransportModel {
            name: "inprocess",
            latency_s: 1e-7,
            bytes_per_s: 20e9,
            max_frame: u64::MAX,
        }
    }

    /// UNIX-domain sockets: two kernel crossings per frame.
    pub fn unix() -> Self {
        TransportModel {
            name: "unix",
            latency_s: 5e-6,
            bytes_per_s: 5e9,
            max_frame: 256 << 20,
        }
    }

    /// Loopback TCP: kernel crossings plus stack segmentation.
    pub fn tcp() -> Self {
        TransportModel {
            name: "tcp",
            latency_s: 15e-6,
            bytes_per_s: 2.5e9,
            max_frame: 256 << 20,
        }
    }

    /// Look a model up by fabric name (`--fabric` spelling; an
    /// `addr`-qualified `unix:/path` form selects by its prefix).
    pub fn by_name(name: &str) -> Option<Self> {
        match name.split(':').next().unwrap_or(name) {
            "inprocess" | "channels" | "mpsc" => Some(Self::in_process()),
            "unix" => Some(Self::unix()),
            "tcp" => Some(Self::tcp()),
            _ => None,
        }
    }

    /// Seconds to move `messages` frames carrying `bytes` total payload.
    pub fn seconds(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.latency_s + bytes as f64 / self.bytes_per_s
    }
}

/// What [`preflight`] computed: the priced budget a launcher (or an
/// operator reading `fmm-verify preflight`) decides on.
#[derive(Debug, Clone, PartialEq)]
pub struct PreflightReport {
    pub transport: &'static str,
    /// Predicted messages over the whole program, all phases.
    pub messages: u64,
    /// Predicted payload bytes over the whole program.
    pub bytes: u64,
    /// Predicted bytes of the heaviest single phase, with its name.
    pub peak_phase: &'static str,
    pub peak_phase_bytes: u64,
    /// Communication seconds under the transport model.
    pub est_seconds: f64,
}

impl std::fmt::Display for PreflightReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transport {}: {} messages, {} bytes (peak phase {} at {} bytes), est {:.3} ms comm",
            self.transport,
            self.messages,
            self.bytes,
            self.peak_phase,
            self.peak_phase_bytes,
            self.est_seconds * 1e3
        )
    }
}

/// Price `budget` on `model` and gate it against an optional byte
/// capacity. Errors carry the overage so the operator can size the run:
///
/// * total predicted bytes must not exceed `capacity_bytes` (when given);
/// * no phase may predict more traffic than the wire can frame at all
///   (phase bytes ≤ messages × max_frame — a necessary condition, since
///   a phase's traffic is spread over at least its message count).
pub fn preflight(
    budget: &ProgramBudget,
    model: &TransportModel,
    capacity_bytes: Option<u64>,
) -> Result<PreflightReport, String> {
    let k = budget.config_k;
    let mut messages = 0u64;
    let mut bytes = 0u64;
    let mut peak_phase = "";
    let mut peak_phase_bytes = 0u64;
    for ph in &budget.phases {
        let m = crate::compare::predicted_messages(&ph.comm);
        let b = crate::compare::predicted_bytes(&ph.comm, k);
        messages += m;
        bytes += b;
        if b >= peak_phase_bytes {
            peak_phase = ph.name;
            peak_phase_bytes = b;
        }
        if m > 0 && b > m.saturating_mul(model.max_frame) {
            return Err(format!(
                "pre-flight: phase {} predicts {b} bytes over {m} messages, beyond the \
                 {} fabric's {}-byte frame cap",
                ph.name, model.name, model.max_frame
            ));
        }
    }
    let report = PreflightReport {
        transport: model.name,
        messages,
        bytes,
        peak_phase,
        peak_phase_bytes,
        est_seconds: model.seconds(messages, bytes),
    };
    if let Some(cap) = capacity_bytes {
        if bytes > cap {
            return Err(format!(
                "pre-flight: predicted traffic {bytes} bytes exceeds the {cap}-byte \
                 capacity budget ({report})"
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{communication_budget, ProgramConfig};
    use crate::VuGrid;

    fn table4_budget() -> ProgramBudget {
        communication_budget(&ProgramConfig {
            depth: 4,
            k: 6,
            m: 5,
            particles_per_box: 4.0,
            vu_grid: VuGrid::new([8, 4, 4]),
            supernodes: false,
            sort_miss_fraction: 1.0 - 1.0 / 128.0,
            forces_near: false,
        })
    }

    #[test]
    fn by_name_resolves_fabrics_and_rejects_junk() {
        for name in ["inprocess", "unix", "tcp", "unix:/tmp/x.sock", "tcp:h:1"] {
            assert!(TransportModel::by_name(name).is_some(), "{name}");
        }
        assert!(TransportModel::by_name("smoke-signals").is_none());
    }

    #[test]
    fn generous_capacity_passes_with_consistent_totals() {
        let budget = table4_budget();
        let rep = preflight(&budget, &TransportModel::unix(), Some(u64::MAX)).unwrap();
        assert!(rep.messages > 0 && rep.bytes > 0);
        assert!(rep.peak_phase_bytes <= rep.bytes);
        assert!(rep.est_seconds > 0.0);
        // The unpriced totals must match the comparator's per-phase sums.
        let k = budget.config_k;
        let bytes: u64 = budget
            .phases
            .iter()
            .map(|p| crate::compare::predicted_bytes(&p.comm, k))
            .sum();
        assert_eq!(rep.bytes, bytes);
    }

    #[test]
    fn undersized_capacity_fails_with_the_overage() {
        let err = preflight(&table4_budget(), &TransportModel::tcp(), Some(1000)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(err.contains("1000-byte"), "{err}");
    }

    #[test]
    fn transports_price_the_same_budget_differently() {
        let budget = table4_budget();
        let a = preflight(&budget, &TransportModel::in_process(), None).unwrap();
        let b = preflight(&budget, &TransportModel::tcp(), None).unwrap();
        assert_eq!(a.bytes, b.bytes, "counts are transport-independent");
        assert!(a.est_seconds < b.est_seconds, "pricing is not");
    }
}
