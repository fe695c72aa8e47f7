//! # fmm-verify — static checking of SPMD communication programs
//!
//! The paper's communication structure is statically schedulable: every
//! CSHIFT, gather, broadcast and router call of the `fmm-spmd` executor
//! is derivable from `(VuGrid, depth, K)` before any
//! particle exists. The executor already *runs* from that derivation —
//! [`fmm_spmd::CommProgram`] — so this crate proves properties of the
//! very program the workers execute, without launching a thread:
//!
//! 1. **Endpoint matching** ([`passes::endpoints`]) — per step, sends and
//!    receives pair up exactly, by rank and payload type.
//! 2. **Deadlock freedom** ([`passes::deadlock`]) — the phase order is
//!    acyclic (strictly increasing tags) and every step completes under
//!    channel buffering capacity 1; wrapped CSHIFT rings are classified
//!    as requiring buffering ≥ 1 (they would rendezvous-deadlock), which
//!    the unbounded fabric provides.
//! 3. **Budget conformance** ([`passes::budget`]) — statically summed
//!    messages and bytes per phase, compared against
//!    [`fmm_machine::communication_budget`] through the same comparator
//!    the runtime model test uses; data-independent phases (upward
//!    gather, downward broadcast + halo) are byte-exact.
//! 4. **Lifecycle progress** ([`passes::lifecycle`]) — the serve
//!    request state machine ([`fmm_serve::lifecycle`]) is acyclic, every
//!    state is reachable, and every request reaches exactly one terminal
//!    (`Reply` or `Drain`).
//! 5. **No reply after shutdown** ([`passes::lifecycle`]) — every
//!    shutdown-tagged transition ends in `Drain`; no handler path can
//!    answer a request once the server is draining.
//! 6. **Framing totality** ([`passes::framing`]) — the three binary
//!    codecs on the one frame layer (`FMM1`, `FMMW`, `FMMC`) round-trip
//!    bit-exactly, reject every truncation cleanly, and bound hostile
//!    counts and length fields before allocating.
//! 7. **Determinism + concurrency lints** ([`passes::lints`]) — lexical
//!    checks over the workspace sources for undocumented `unsafe`,
//!    unordered hashed containers, unjustified parallel reductions,
//!    `Condvar` waits outside a retry loop, and nested lock acquisition
//!    without a `// lock-order:` note.
//!
//! A mutation hook injects one-sided faults (a halo sender serving the
//! wrong side, a dropped receive, a reply-on-shutdown lifecycle edge) so
//! CI can prove the analyzer rejects what it should — see the `check`
//! CLI:
//!
//! ```text
//! cargo run -p fmm-verify -- check [--depth D] [--workers P] [--order O]
//!                                  [--forces] [--skip-lints]
//!                                  [--mutate flipped-halo|dropped-recv|reply-after-shutdown]
//! ```

#![forbid(unsafe_code)]

pub mod lower;
pub mod passes;

use std::fmt::Write as _;

use fmm_machine::VuGrid;
use fmm_spmd::{CommProgram, Partition};

pub use lower::{apply_mutation, lower, Lowered, Mutation};

/// What to verify.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    pub depth: u32,
    pub grid: VuGrid,
    /// Anderson approximation order `d` (sets K and M as
    /// `fmm_core::FmmConfig::order` does: K spherical samples, M = d/2+1).
    pub order: usize,
    /// Forces near field (the neighbourhood's particle halo) instead of
    /// potentials (the symmetric sweep's wider one).
    pub with_fields: bool,
    /// Check the cost-weighted partitioned program (a synthetic
    /// heavy-tailed leaf-cost profile) instead of the uniform block
    /// layout's.
    pub balance: bool,
    /// Fault injection for the mutation smoke test.
    pub mutate: Option<Mutation>,
    /// Skip the source lints (pass 4), e.g. when checking many
    /// configurations in one CI job — the sources don't change between
    /// them.
    pub skip_lints: bool,
}

impl CheckConfig {
    pub fn table4() -> Self {
        CheckConfig {
            depth: 4,
            grid: VuGrid::new([8, 4, 4]),
            order: 3,
            with_fields: false,
            balance: false,
            mutate: None,
            skip_lints: false,
        }
    }
}

/// K spherical samples for Anderson order `d` — the same resolution
/// `fmm_core::FmmConfig::order` performs.
fn k_for_order(order: usize) -> usize {
    fmm_sphere::SphereRule::for_order(order).len()
}

/// Outcome of one pass.
#[derive(Debug, Clone)]
pub struct PassResult {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Full report of one `check` run.
#[derive(Debug, Clone)]
pub struct Report {
    pub config: CheckConfig,
    pub passes: Vec<PassResult>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.passes.iter().all(|p| p.ok)
    }

    /// Names of the failing passes (what the CLI prints and the mutation
    /// smoke test greps for).
    pub fn failing(&self) -> Vec<&'static str> {
        self.passes
            .iter()
            .filter(|p| !p.ok)
            .map(|p| p.name)
            .collect()
    }
}

fn list<T: std::fmt::Display>(errs: &[T], cap: usize) -> String {
    let mut s = String::new();
    for e in errs.iter().take(cap) {
        let _ = writeln!(s, "    {e}");
    }
    if errs.len() > cap {
        let _ = writeln!(s, "    ... and {} more", errs.len() - cap);
    }
    s
}

/// Build the `CommProgram` a `CheckConfig` describes — the same program
/// `run_checks` verifies and `preflight_budget` prices.
pub fn build_check_program(cfg: &CheckConfig) -> CommProgram {
    // The configuration's own supernode default at this order and depth:
    // the program checked is the one such a run executes.
    let supernodes = fmm_core::FmmConfig::order(cfg.order)
        .depth(cfg.depth)
        .supernodes;
    if cfg.balance {
        // A data-dependent layout: cut the Morton curve for a synthetic
        // heavy-tailed leaf-cost profile (deterministic LCG; a few leaves
        // dominate, as a clustered distribution's do), then check the
        // partitioned program exactly like the uniform one.
        let leaves = 1usize << (3 * cfg.depth);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let costs: Vec<u64> = (0..leaves)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = state >> 33;
                if r.is_multiple_of(97) {
                    1 + r % 10_000
                } else {
                    1 + r % 16
                }
            })
            .collect();
        let part = Partition::cost_weighted(cfg.depth, cfg.grid.len(), &costs);
        CommProgram::build_partitioned(
            cfg.grid,
            cfg.depth,
            k_for_order(cfg.order),
            cfg.with_fields,
            supernodes,
            part,
        )
    } else {
        CommProgram::build(
            cfg.grid,
            cfg.depth,
            k_for_order(cfg.order),
            cfg.with_fields,
            supernodes,
        )
    }
}

/// Price the program `cfg` describes for the launcher's pre-flight gate:
/// lower it and run the closed-form budget over the lowered endpoints —
/// exactly what pass 3 compares against, with M derived from the order
/// as `FmmConfig::order` derives it.
pub fn preflight_budget(cfg: &CheckConfig) -> fmm_machine::ProgramBudget {
    let program = build_check_program(cfg);
    let low = lower(&program);
    passes::budget::budget_for(&low, cfg.order / 2 + 1, 4.0)
}

/// Build the program for `cfg`, lower it (with any mutation), and run
/// the static passes.
pub fn run_checks(cfg: &CheckConfig) -> Report {
    let program = build_check_program(cfg);
    let mut low = lower(&program);
    if let Some(m) = cfg.mutate {
        apply_mutation(&mut low, m);
    }
    let mut passes = Vec::new();

    match passes::endpoints::check(&low) {
        Ok(s) => passes.push(PassResult {
            name: "endpoint-matching",
            ok: true,
            detail: format!("{} steps, {} messages matched", s.steps, s.matched_messages),
        }),
        Err(errs) => passes.push(PassResult {
            name: "endpoint-matching",
            ok: false,
            detail: format!("{} defect(s)\n{}", errs.len(), list(&errs, 8)),
        }),
    }

    match passes::deadlock::check(&low) {
        Ok(s) => passes.push(PassResult {
            name: "deadlock-freedom",
            ok: true,
            detail: format!(
                "phase order acyclic; {} steps complete at capacity 1 \
                 ({} wrapped rings need buffering >= 1, fabric is unbounded)",
                s.steps, s.ring_steps_needing_buffer
            ),
        }),
        Err(errs) => passes.push(PassResult {
            name: "deadlock-freedom",
            ok: false,
            detail: format!("{} stuck step(s)\n{}", errs.len(), list(&errs, 8)),
        }),
    }

    let m_trunc = cfg.order / 2 + 1;
    match passes::budget::check(&low, m_trunc) {
        Ok(s) => {
            let mut d = String::new();
            for (i, name) in fmm_core_phase_names().iter().enumerate() {
                let ph = &s.phases[i];
                let _ = write!(d, "\n    {name}: {} msgs", ph.messages);
                match ph.bytes {
                    Some(b) => {
                        let _ = write!(d, ", {b} B static");
                        if s.byte_exact_phases.contains(&i) {
                            let _ = write!(d, " (byte-exact vs budget)");
                        }
                    }
                    None => {
                        let _ = write!(d, ", bytes data-dependent");
                    }
                }
            }
            passes.push(PassResult {
                name: "budget-conformance",
                ok: true,
                detail: format!(
                    "within {:.0}% of the model, {} T2 field{d}",
                    100.0 * fmm_machine::DEFAULT_TOLERANCE,
                    if low.program.supernodes {
                        "supernode"
                    } else {
                        "plain"
                    },
                ),
            });
        }
        Err(errs) => passes.push(PassResult {
            name: "budget-conformance",
            ok: false,
            detail: format!("{} divergence(s)\n{}", errs.len(), list(&errs, 8)),
        }),
    }

    // The serve lifecycle machine: built mutated when the smoke test
    // asks for a handler that answers on the shutdown path.
    let machine = match cfg.mutate {
        Some(Mutation::ReplyAfterShutdown) => fmm_serve::lifecycle::Lifecycle::serve().with_edge(
            fmm_serve::lifecycle::State::Frame,
            fmm_serve::lifecycle::State::Reply,
            "reply-after-shutdown",
            true,
        ),
        _ => fmm_serve::lifecycle::Lifecycle::serve(),
    };

    match passes::lifecycle::check_progress(&machine) {
        Ok(s) => passes.push(PassResult {
            name: "lifecycle-progress",
            ok: true,
            detail: format!(
                "{} states / {} transitions reachable, acyclic; every request \
                 reaches exactly one of {} terminals",
                s.states, s.transitions, s.terminals
            ),
        }),
        Err(errs) => passes.push(PassResult {
            name: "lifecycle-progress",
            ok: false,
            detail: format!("{} defect(s)\n{}", errs.len(), list(&errs, 8)),
        }),
    }

    match passes::lifecycle::check_no_reply_after_shutdown(&machine) {
        Ok(n) => passes.push(PassResult {
            name: "no-reply-after-shutdown",
            ok: true,
            detail: format!("{n} shutdown-tagged edges all end in drain"),
        }),
        Err(errs) => passes.push(PassResult {
            name: "no-reply-after-shutdown",
            ok: false,
            detail: format!("{} defect(s)\n{}", errs.len(), list(&errs, 8)),
        }),
    }

    match passes::framing::check() {
        Ok(s) => passes.push(PassResult {
            name: "framing-totality",
            ok: true,
            detail: format!(
                "{}: {} round-trip identities, {} truncations and {} hostile frames \
                 cleanly rejected, caps held before allocating, {} opcode bytes classified",
                s.protocols.join(", "),
                s.round_trips,
                s.truncations,
                s.hostile,
                s.opcodes
            ),
        }),
        Err(errs) => passes.push(PassResult {
            name: "framing-totality",
            ok: false,
            detail: format!("{} defect(s)\n{}", errs.len(), list(&errs, 8)),
        }),
    }

    if !cfg.skip_lints {
        match passes::lints::check(&passes::lints::default_workspace_root()) {
            Ok(s) => passes.push(PassResult {
                name: "determinism-lints",
                ok: true,
                detail: format!(
                    "{} files; {} unsafe sites documented, {} det annotations, \
                     {} looped waits, {} lock-order notes",
                    s.files_scanned,
                    s.documented_unsafe,
                    s.det_annotations,
                    s.looped_waits,
                    s.lock_order_annotations
                ),
            }),
            Err(errs) => passes.push(PassResult {
                name: "determinism-lints",
                ok: false,
                detail: format!("{} finding(s)\n{}", errs.len(), list(&errs, 12)),
            }),
        }
    }

    Report {
        config: cfg.clone(),
        passes,
    }
}

/// Phase names in report order (mirrors `fmm_core::SpmdReport`, not
/// depended on to keep the analyzer's dependency cone minimal).
fn fmm_core_phase_names() -> [&'static str; 6] {
    [
        "sort",
        "p2o",
        "upward(T1)",
        "downward(T2+T3)",
        "eval",
        "near",
    ]
}
