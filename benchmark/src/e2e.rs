//! The untraced pass of a library workload: what a caller of `Fmm` sees.
//! Only the facade is used here — `Fmm`, `FmmConfig`, `Executor` and
//! `fmm_direct::potentials_at`.

use crate::inputs::sample_indices;
use crate::report::Outcome;
use crate::workloads::Library;
use fmm_core::{EvalOutput, Executor, Fmm, FmmError};
use std::hint::black_box;
use std::time::Instant;

/// How long and how often a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// The timed section runs at least this long…
    pub seconds: f64,
    /// …and for at least this many operations, so every timing is the
    /// median of enough samples whatever the host's speed.
    pub min_reps: usize,
    pub warmups: usize,
    /// The unit test's budget: probes and traced calls run once, too.
    pub smoke: bool,
}

impl Budget {
    pub fn full(seconds: f64) -> Self {
        Budget {
            seconds,
            min_reps: 11,
            warmups: 2,
            smoke: false,
        }
    }

    /// One repetition of everything, for the unit test.
    pub fn smoke() -> Self {
        Budget {
            seconds: 0.0,
            min_reps: 1,
            warmups: 0,
            smoke: true,
        }
    }

    /// `full` repetitions of a probe or a traced call; one in the unit test.
    pub fn reps(self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

pub fn call(
    fmm: &Fmm,
    positions: &[[f64; 3]],
    charges: &[f64],
    forces: bool,
) -> Result<EvalOutput, FmmError> {
    if forces {
        fmm.evaluate_forces(positions, charges)
    } else {
        fmm.evaluate(positions, charges)
    }
}

/// The numbers of one result, whoever produced it: `evaluate*`, the
/// unfused replay, a served reply or a canned solo evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Bits<'a> {
    pub potentials: &'a [f64],
    pub fields: Option<&'a [[f64; 3]]>,
}

impl<'a> From<&'a EvalOutput> for Bits<'a> {
    fn from(out: &'a EvalOutput) -> Self {
        Bits {
            potentials: &out.potentials,
            fields: out.fields.as_deref(),
        }
    }
}

/// Bit-for-bit equality of two results (potentials and, if present,
/// fields).
pub fn same_bits(a: Bits, b: Bits) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    same(a.potentials, b.potentials)
        && match (a.fields, b.fields) {
            (None, None) => true,
            (Some(x), Some(y)) => same(x.as_flattened(), y.as_flattened()),
            _ => false,
        }
}

/// √Σ(a−r)² / √Σr².
fn rms_rel(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (err, reference) = pairs.fold((0.0, 0.0), |(e, r), (a, x)| {
        (e + (a - x) * (a - x), r + x * x)
    });
    (err / reference).sqrt()
}

/// RMS relative potential error at the sampled particles against direct
/// summation.
pub fn potential_error(
    potentials: &[f64],
    positions: &[[f64; 3]],
    charges: &[f64],
    sample: &[usize],
) -> f64 {
    let targets: Vec<[f64; 3]> = sample.iter().map(|&i| positions[i]).collect();
    let exact = fmm_direct::potentials_at(&targets, positions, charges);
    rms_rel(sample.iter().map(|&i| potentials[i]).zip(exact))
}

/// The same for the field −∇Φ, over all three components. The reference is
/// summed here: `fmm_direct` has no field routine for a subset of targets.
pub fn field_error(
    fields: &[[f64; 3]],
    positions: &[[f64; 3]],
    charges: &[f64],
    sample: &[usize],
) -> f64 {
    let exact = sample.iter().map(|&i| {
        let t = positions[i];
        let mut f = [0.0; 3];
        for (p, q) in positions.iter().zip(charges) {
            let d = [t[0] - p[0], t[1] - p[1], t[2] - p[2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 > 0.0 {
                let c = q / (r2 * r2.sqrt());
                for a in 0..3 {
                    f[a] += c * d[a];
                }
            }
        }
        f
    });
    rms_rel(
        sample
            .iter()
            .zip(exact)
            .flat_map(|(&i, e)| (0..3).map(move |a| (fields[i][a], e[a]))),
    )
}

/// `VmHWM` of this process in MB: the most memory it ever held, so far.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `peak_rss_mb`, from a reading taken right after the timed section: what
/// one instance and its evaluations hold, before the benchmark's own
/// reference computations (a second instance on `Executor::Serial`, direct
/// sums, further set-ups) can raise the mark.
pub fn push_peak_rss(peak: Option<f64>, out: &mut Outcome) {
    out.check(peak.is_some(), || {
        "VmHWM not readable from /proc/self/status".into()
    });
    out.push("peak_rss_mb", peak.unwrap_or(0.0), "MB");
}

/// A configured instance and its particles, with the set-up time it took.
pub struct Problem {
    pub fmm: Fmm,
    pub positions: Vec<[f64; 3]>,
    pub charges: Vec<f64>,
    pub depth: u32,
    pub setup_s: f64,
}

/// One fresh instance with a private (hence cold) plan registry, and the
/// seconds `Fmm::new` + `plan_for` took.
fn build(spec: &Library, depth: u32, out: &mut Outcome) -> (Option<Fmm>, f64) {
    let t0 = Instant::now();
    let built = Fmm::new(spec.config()).inspect(|f| {
        black_box(f.plan_for(depth));
    });
    let s = t0.elapsed().as_secs_f64();
    out.check(built.is_ok(), || {
        format!("Fmm::new failed: {:?}", built.as_ref().err())
    });
    (built.ok(), s)
}

/// Generate the particles and build the instance the run evaluates on.
pub fn set_up(spec: &Library, seed: u64, out: &mut Outcome) -> Option<Problem> {
    if spec.exec == crate::workloads::Exec::Spmd2 {
        fmm_spmd::install();
    }
    let (positions, charges) = spec.particles(seed);
    let depth = spec.resolved_depth();
    let (fmm, setup_s) = build(spec, depth, out);
    Some(Problem {
        fmm: fmm?,
        positions,
        charges,
        depth,
        setup_s,
    })
}

/// The samples of `setup_s`: the problem's own set-up and `setup_reps - 1`
/// more fresh instances, each dropped before the next is built.
pub fn setup_samples(spec: &Library, problem: &Problem, out: &mut Outcome) -> Vec<f64> {
    let mut times = vec![problem.setup_s];
    for _ in 1..spec.setup_reps {
        times.push(build(spec, problem.depth, out).1);
    }
    times
}

/// Warm up, then time back-to-back calls of the workload's entry point
/// until the budget is spent. Returns the per-call times, the wall time of
/// the whole timed section and the first timed output.
pub fn timed_calls(
    problem: &Problem,
    forces: bool,
    budget: Budget,
    out: &mut Outcome,
) -> (Vec<f64>, f64, Option<EvalOutput>) {
    let one = |out: &mut Outcome| {
        let t0 = Instant::now();
        let r = call(&problem.fmm, &problem.positions, &problem.charges, forces);
        let dt = t0.elapsed().as_secs_f64();
        out.check(r.is_ok(), || {
            format!("evaluate failed: {:?}", r.as_ref().err())
        });
        (dt, r.ok())
    };
    for _ in 0..budget.warmups {
        black_box(one(out));
    }
    let mut times = Vec::new();
    let mut first = None;
    let start = Instant::now();
    while times.len() < budget.min_reps || start.elapsed().as_secs_f64() < budget.seconds {
        let (dt, r) = one(out);
        times.push(dt);
        if first.is_none() {
            first = r;
        } else {
            black_box(r);
        }
    }
    (times, start.elapsed().as_secs_f64(), first)
}

/// The accuracy and executor-independence gates on one output.
pub fn check_output(
    spec: &Library,
    problem: &Problem,
    seed: u64,
    got: &EvalOutput,
    out: &mut Outcome,
) {
    let sample = sample_indices(spec.n, spec.samples, seed);
    let err = potential_error(
        &got.potentials,
        &problem.positions,
        &problem.charges,
        &sample,
    );
    out.push("err_rms", err, "relative");
    out.check(err <= spec.err_bound, || {
        format!("err_rms {err:.3e} above the bound {:.3e}", spec.err_bound)
    });

    // Every executor must give the same bits as the plain serial one.
    let serial = Fmm::new(spec.config().executor(Executor::Serial))
        .and_then(|f| call(&f, &problem.positions, &problem.charges, spec.forces));
    out.check(
        serial
            .as_ref()
            .is_ok_and(|s| same_bits(s.into(), got.into())),
        || "first timed output differs bitwise from Executor::Serial".into(),
    );

    check_plan_builds(problem, out);
}

/// However often it was evaluated, the instance built its plan once.
pub fn check_plan_builds(problem: &Problem, out: &mut Outcome) -> u64 {
    let builds = problem.fmm.plan_builds();
    out.check(builds == 1, || {
        format!("{builds} plan builds over the whole run, expected 1")
    });
    builds
}

/// The end-to-end metrics of a library workload.
pub fn run_library(spec: &Library, seed: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let Some(problem) = set_up(spec, seed, &mut out) else {
        return out;
    };
    let (times, wall_s, first) = timed_calls(&problem, spec.forces, budget, &mut out);
    let peak = peak_rss_mb();
    let setups = setup_samples(spec, &problem, &mut out);
    out.push_timing("setup_s", &setups, "s");
    out.push_timing("eval_s", &times, "s");
    out.push("req_per_s", times.len() as f64 / wall_s, "1/s");
    if let Some(first) = &first {
        check_output(spec, &problem, seed, first, &mut out);
    }
    push_peak_rss(peak, &mut out);
    out
}
