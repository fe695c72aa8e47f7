//! `benchmark compare A.json B.json`: two result files (each a complete
//! set of runs, one per seed) side by side.
//!
//! For every workload and bounded metric it prints both medians with their
//! quartiles, how much worse B is than A, the bound, and a verdict:
//! `worse` when B's median is worse than A's by more than the bound,
//! `unresolved` when a side has fewer than two runs or a spread (quartile
//! distance over median) wider than the bound — a difference that small
//! cannot be told from noise, which is not the same as unchanged —
//! `missing` when B lacks what A has, and `ok` otherwise. The bounded
//! metrics are the end-to-end ones and, from the traced runs, the served
//! latency percentiles per class. It then compares the exact counts of the
//! traced runs seed by seed. Exits non-zero on any `worse`, any `missing`
//! and any count that differs.

use crate::report::{format_value, median, quartiles};
use crate::END_TO_END;
use fmm_serve::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// A metric `compare` holds to a bound.
struct Bounded {
    name: &'static str,
    lower_is_better: bool,
    bound: f64,
    floor: f64,
}

/// Per-class latency of the served workload, from the traced pass. The
/// pipeline bounds only metrics that every workload reports, where the two
/// classes are pooled into `eval_s` (the small class) and `req_per_s`
/// (mostly the medium class); here each class is held on its own.
const SERVED_LATENCY: [(&str, f64); 4] = [
    ("serve.small_p50_ms", 0.10),
    ("serve.small_p99_ms", 0.15),
    ("serve.medium_p50_ms", 0.10),
    ("serve.medium_p99_ms", 0.15),
];

fn bounded() -> Vec<Bounded> {
    let e2e = END_TO_END.iter().map(|m| Bounded {
        name: m.name,
        lower_is_better: m.lower_is_better,
        bound: m.bound,
        floor: m.floor,
    });
    let served = SERVED_LATENCY.iter().map(|&(name, bound)| Bounded {
        name,
        lower_is_better: true,
        bound,
        floor: 0.0,
    });
    e2e.chain(served).collect()
}

/// workload → metric → one value per run, in file order.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct Results {
    bounded: Table,
    /// (workload, seed) → metric → value, from the traced runs.
    counts: BTreeMap<(String, u64), BTreeMap<String, f64>>,
}

fn load(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Arr(runs)) = doc.get("runs") else {
        return Err(format!("{}: no \"runs\" array", path.display()));
    };
    let mut results = Results {
        bounded: Table::new(),
        counts: BTreeMap::new(),
    };
    for run in runs {
        let field = |k: &str| {
            run.get(k)
                .ok_or(format!("{}: run without {k}", path.display()))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or_default() as u64;
        let traced = field("trace")?.as_f64() == Some(1.0);
        let Some(Value::Obj(metrics)) = field("result")?.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            let Some(value) = m.get("value").and_then(Value::as_f64) else {
                continue;
            };
            // A per-layer metric reads 0 on a workload that bypasses it.
            let served_latency = SERVED_LATENCY.iter().any(|(n, _)| n == name) && value > 0.0;
            if !traced || served_latency {
                results
                    .bounded
                    .entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            } else if is_exact(name) {
                results
                    .counts
                    .entry((workload.clone(), seed))
                    .or_default()
                    .insert(name.clone(), value);
            }
        }
    }
    Ok(results)
}

/// Per-layer metrics that are pure functions of the inputs: flops, pairs,
/// bytes, messages, plan builds and leaf occupancy. Two runs of one commit
/// on one seed must agree on them exactly.
pub fn is_exact(name: &str) -> bool {
    const TIMED: [&str; 4] = ["gflops", "bytes_per_s", "serve.", "trace."];
    const EXACT: [&str; 7] = [
        "flops",
        ".pairs",
        "bytes",
        "messages",
        ".builds",
        "occupancy",
        "flop_imbalance",
    ];
    !TIMED.iter().any(|t| name.contains(t)) && EXACT.iter().any(|e| name.contains(e))
}

struct Summary {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, q3) = if values.len() >= 2 {
            quartiles(values)
        } else {
            (values[0], values[0])
        };
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    fn show(&self) -> String {
        format!(
            "{} [{}, {}]",
            format_value(self.median),
            format_value(self.q1),
            format_value(self.q3)
        )
    }
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// How much worse `b` is than `a` as a share of `a`, and what to call it.
fn judge(sa: &Summary, sb: &Summary, m: &Bounded) -> (f64, Verdict) {
    let (a, b) = (sa.median.max(m.floor), sb.median.max(m.floor));
    let change = (b - a) / a.abs();
    let worse_by = if m.lower_is_better { change } else { -change };
    // One run has no spread to judge a difference by.
    let verdict = if sa.n < 2 || sb.n < 2 {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else if sa.spread() > m.bound || sb.spread() > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<22} {:<19} {:>34} {:>34} {:>9} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse by", "bound"
    );
    let (mut worse, mut missing) = (0, 0);
    for (workload, metrics) in &a.bounded {
        for m in bounded() {
            let Some(va) = metrics.get(m.name) else {
                continue;
            };
            let Some(vb) = b.bounded.get(workload).and_then(|t| t.get(m.name)) else {
                missing += 1;
                println!("{workload:<22} {:<19} missing from B", m.name);
                continue;
            };
            let (sa, sb) = (Summary::of(va), Summary::of(vb));
            let (worse_by, verdict) = judge(&sa, &sb, &m);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<22} {:<19} {:>34} {:>34} {:>+8.1}% {:>6.0}%  {}",
                workload,
                m.name,
                sa.show(),
                sb.show(),
                worse_by * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }

    let (mut same, mut differ) = (0, 0);
    for (key, counts_a) in &a.counts {
        for (name, va) in counts_a {
            match b.counts.get(key).and_then(|c| c.get(name)) {
                Some(vb) if vb == va => same += 1,
                Some(vb) => {
                    differ += 1;
                    println!(
                        "count differs: {} seed {} {name}: {va} vs {vb}",
                        key.0, key.1
                    );
                }
                None => {
                    missing += 1;
                    println!("count missing from B: {} seed {} {name}", key.0, key.1);
                }
            }
        }
    }
    println!("exact counts: {same} identical, {differ} differ");

    if worse + missing + differ > 0 {
        println!("{worse} worse than the bound, {missing} missing from B, {differ} counts differ");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
        let m = Bounded {
            name: "eval_s",
            lower_is_better,
            bound,
            floor: 0.0,
        };
        super::judge(&Summary::of(a), &Summary::of(b), &m)
    }

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 5 % slower against a 10 % bound.
        let b = [1.05, 1.06, 1.04, 1.05, 1.07];
        assert_eq!(judge(&a, &b, true, 0.10).1, Verdict::Ok);
        // 20 % slower.
        let c = [1.20, 1.21, 1.19, 1.20, 1.22];
        let (by, v) = judge(&a, &c, true, 0.10);
        assert!((by - 0.20).abs() < 1e-12);
        assert_eq!(v, Verdict::Worse);
        // Faster is never worse; for a higher-is-better metric it is.
        assert_eq!(judge(&c, &a, true, 0.10).1, Verdict::Ok);
        assert_eq!(judge(&c, &a, false, 0.10).1, Verdict::Worse);
        // A spread wider than the bound cannot resolve a small change.
        let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
        assert_eq!(judge(&a, &noisy, true, 0.10).1, Verdict::Unresolved);
        // So does a single run, however large the difference.
        assert_eq!(judge(&[1.0], &[2.0], true, 0.10).1, Verdict::Unresolved);
    }

    #[test]
    fn readings_under_the_floor_do_not_regress() {
        let setup = super::bounded().swap_remove(0);
        assert_eq!((setup.name, setup.floor), ("setup_s", 5e-3));
        let judge = |a: &[f64], b: &[f64]| super::judge(&Summary::of(a), &Summary::of(b), &setup);
        // 3.5 ms against 4.6 ms is +31 %, all of it under the floor.
        let (by, v) = judge(&[3.5e-3, 3.6e-3], &[4.6e-3, 4.7e-3]);
        assert_eq!((by, v), (0.0, Verdict::Ok));
        // Past the floor, only the part above it counts.
        assert_eq!(judge(&[3.5e-3, 3.6e-3], &[9e-3, 9e-3]).1, Verdict::Worse);
    }

    #[test]
    fn exact_counts_are_recognised() {
        for name in [
            "core.p2o.flops",
            "core.total_flops",
            "core.near.pairs",
            "core.plan.bytes",
            "core.plan.builds",
            "spmd.messages",
            "spmd.upward_bytes",
            "machine.predicted_bytes",
            "core.sort.leaf_occupancy_max",
            "spmd.flop_imbalance",
        ] {
            assert!(is_exact(name), "{name}");
        }
        for name in [
            "core.near.s",
            "spmd.bytes_per_s",
            "serve.registry.plan_builds",
            "core.arith_efficiency",
            "linalg.gemm_peak_gflops",
            "trace.overhead_fraction",
        ] {
            assert!(!is_exact(name), "{name}");
        }
    }
}
