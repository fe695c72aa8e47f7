//! The six workloads: what each one feeds the program and through which
//! entry point. Why each was chosen is recorded in `BENCHMARK.json` and
//! argued at length in the README; this file is only the inputs.

use crate::inputs;
use fmm_core::{Executor, FmmConfig, Precision};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    Uniform,
    Plummer,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Exec {
    /// `Executor::Rayon`, the default.
    Rayon,
    /// `Executor::spmd(2)` on the in-process fabric. The rank count is
    /// fixed so message and byte counts repeat exactly on every host.
    Spmd2,
}

/// One library problem: particles, configuration and entry point.
#[derive(Debug, Clone)]
pub struct Library {
    pub n: usize,
    pub dist: Dist,
    pub order: usize,
    /// `None` leaves the depth to the configuration's own rule.
    pub depth: Option<u32>,
    pub exec: Exec,
    pub mixed: bool,
    /// `evaluate_forces` rather than `evaluate`.
    pub forces: bool,
    /// Fresh instances built for `setup_s`.
    pub setup_reps: usize,
    /// Particles at which accuracy is checked against direct summation.
    pub samples: usize,
    /// Largest accepted `err_rms`: twice the value seen at seed 1 when the
    /// workload was defined (mixed precision: the f64 bound plus 1e-5).
    pub err_bound: f64,
    /// The same for the field error of a forces workload.
    pub field_err_bound: f64,
}

impl Library {
    pub fn config(&self) -> FmmConfig {
        let mut cfg = FmmConfig::order(self.order);
        if let Some(d) = self.depth {
            cfg = cfg.depth(d);
        }
        if self.mixed {
            cfg = cfg.precision(Precision::Mixed);
        }
        if self.exec == Exec::Spmd2 {
            cfg = cfg.executor(Executor::spmd(2));
        }
        cfg
    }

    /// The depth `evaluate` will use for this problem.
    pub fn resolved_depth(&self) -> u32 {
        self.config().depth.resolve(self.n)
    }

    /// Threads the executor runs on, the denominator of every efficiency.
    pub fn threads(&self) -> usize {
        match self.exec {
            Exec::Rayon => nproc(),
            Exec::Spmd2 => 2,
        }
    }

    /// Positions and unit charges (the paper's gravitational convention,
    /// under which its accuracy figures are quoted).
    pub fn particles(&self, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let positions = match self.dist {
            Dist::Uniform => inputs::uniform(self.n, seed),
            Dist::Plummer => inputs::plummer(self.n, seed),
        };
        (positions, vec![1.0; self.n])
    }
}

/// One class of served request.
#[derive(Debug, Clone, Copy)]
pub struct RequestClass {
    pub n: usize,
    pub order: usize,
    pub depth: u32,
    pub forces: bool,
    /// Distinct canned requests per client; the sequence cycles through
    /// them, so every reply can be compared with a solo evaluation
    /// computed once. The server keeps no result cache, so repeating a
    /// payload changes nothing it does.
    pub pool: usize,
}

/// The closed-loop traffic mix against an in-process server.
#[derive(Debug, Clone)]
pub struct Serve {
    /// Persistent binary-door connections, each a thread that waits for
    /// every reply before sending the next request.
    pub clients: usize,
    /// `[small, medium]`; every fourth request of a client is medium.
    pub classes: [RequestClass; 2],
    /// Untimed requests per client before the timed section.
    pub warmup: usize,
    /// Timed requests per client in the traced pass, which is sized by
    /// count so the class percentiles have a fixed sample size.
    pub traced_requests: usize,
    /// Fresh servers started for `setup_s`.
    pub setup_reps: usize,
    pub err_bound: f64,
}

pub const SMALL: usize = 0;
pub const MEDIUM: usize = 1;

impl Serve {
    /// The class of a client's `i`-th request.
    pub fn class_of(i: usize) -> usize {
        if i % 4 == 3 {
            MEDIUM
        } else {
            SMALL
        }
    }

    /// Traversal plans the server must build for this mix, one per distinct
    /// `(order, depth)`: potentials and forces of one shape share a plan.
    pub fn plans(&self) -> u64 {
        let [a, b] = self.classes;
        if (a.order, a.depth) == (b.order, b.depth) {
            1
        } else {
            2
        }
    }
}

#[derive(Debug, Clone)]
pub enum Kind {
    Library(Library),
    Serve(Serve),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn uniform_256k() -> Library {
    Library {
        n: 262_144,
        dist: Dist::Uniform,
        order: 5,
        depth: None,
        exec: Exec::Rayon,
        mixed: false,
        forces: false,
        setup_reps: 15,
        samples: 2048,
        err_bound: 5.6e-4,
        field_err_bound: f64::INFINITY,
    }
}

pub fn all() -> Vec<Workload> {
    let lib = |name, l| Workload {
        name,
        kind: Kind::Library(l),
    };
    vec![
        lib("uniform_256k_d5", uniform_256k()),
        lib(
            "uniform_8k_d14",
            // Depth 3, not the 65 536 points at depth 4 this was first sized
            // with: there the field panels of a level (8 MB) live in the
            // host's shared cache, and the call time followed the
            // neighbours' load from 1.5 s to 2.1 s while every other
            // workload held still.
            Library {
                n: 8_192,
                order: 14,
                depth: Some(3),
                setup_reps: 3,
                samples: 8_192,
                err_bound: 2.2e-8,
                ..uniform_256k()
            },
        ),
        lib(
            "plummer_32k_forces",
            Library {
                n: 32_768,
                dist: Dist::Plummer,
                forces: true,
                samples: 16_384,
                err_bound: 4.6e-4,
                field_err_bound: 1.31e-2,
                ..uniform_256k()
            },
        ),
        lib(
            "uniform_256k_mixed",
            Library {
                mixed: true,
                err_bound: 5.7e-4,
                ..uniform_256k()
            },
        ),
        lib(
            "spmd2_uniform_256k",
            Library {
                exec: Exec::Spmd2,
                ..uniform_256k()
            },
        ),
        Workload {
            name: "serve_mix_closed",
            kind: Kind::Serve(Serve {
                clients: 2,
                classes: [
                    RequestClass {
                        n: 64,
                        order: 5,
                        depth: 2,
                        forces: false,
                        pool: 32,
                    },
                    RequestClass {
                        n: 2048,
                        order: 5,
                        depth: 3,
                        forces: true,
                        pool: 8,
                    },
                ],
                warmup: 100,
                traced_requests: 2400,
                setup_reps: 5,
                err_bound: 3.2e-4,
            }),
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same entry points on inputs small enough for an unoptimised
    /// unit test: a thousand particles, depth 2, K capped.
    pub fn smoke(&self) -> Workload {
        let kind = match &self.kind {
            Kind::Library(l) => Kind::Library(Library {
                n: 1024,
                order: l.order.min(6),
                depth: Some(2),
                setup_reps: 1,
                samples: 64,
                err_bound: f64::INFINITY,
                field_err_bound: f64::INFINITY,
                ..l.clone()
            }),
            Kind::Serve(s) => {
                let mut s = s.clone();
                s.classes[MEDIUM].n = 256;
                s.classes[MEDIUM].depth = 2;
                s.classes[SMALL].pool = 4;
                s.classes[MEDIUM].pool = 2;
                s.warmup = 4;
                s.traced_requests = 16;
                s.setup_reps = 1;
                s.err_bound = f64::INFINITY;
                Kind::Serve(s)
            }
        };
        Workload {
            name: self.name,
            kind,
        }
    }
}
