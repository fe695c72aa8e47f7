//! Summaries of repeated measurements, the result record of one run and
//! its JSON form (`fmm_serve::json` is the workspace's JSON reader and
//! writer, used here as it is).

use fmm_serve::json::Value;
use std::collections::BTreeMap;

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// spreads computed here and by the pipeline agree. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// How a bounded timing was sampled within one run: the metric carries the
/// median, this the sample count and quartiles behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub name: &'static str,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

/// What one run (one workload, one seed, traced or not) produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: library calls, served requests and
    /// correctness checks.
    pub attempted: u64,
    /// Of those, how many returned an error or a wrong answer.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub timings: Vec<Timing>,
    /// One line per failed check, for the human reading the log.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// A timing metric: the median of `samples`, with their count and
    /// quartiles on record.
    pub fn push_timing(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let value = median(samples);
        let (q1, q3) = if samples.len() >= 2 {
            quartiles(samples)
        } else {
            (value, value)
        };
        self.push(name, value, unit);
        self.timings.push(Timing {
            name,
            n: samples.len(),
            q1,
            q3,
        });
    }

    /// Count one correctness check; a failed one is recorded by name.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object the pipeline reads from the last line of stdout.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut o = BTreeMap::new();
                o.insert("value".to_string(), Value::Num(m.value));
                o.insert("unit".to_string(), Value::Str(m.unit.to_string()));
                (m.name.to_string(), Value::Obj(o))
            })
            .collect();
        let mut o = BTreeMap::new();
        o.insert("correct".to_string(), Value::Bool(self.correct()));
        o.insert("attempted".to_string(), Value::Num(self.attempted as f64));
        o.insert("failed".to_string(), Value::Num(self.failed as f64));
        o.insert("metrics".to_string(), Value::Obj(metrics));
        Value::Obj(o)
    }

    /// Sample count and quartiles of every timing. The result object has a
    /// fixed shape, so `suite` files these next to it.
    pub fn timings_json(&self) -> Value {
        let timings = self
            .timings
            .iter()
            .map(|t| {
                let fields = vec![
                    ("n", Value::Num(t.n as f64)),
                    ("q1", Value::Num(t.q1)),
                    ("q3", Value::Num(t.q3)),
                ];
                (t.name.to_string(), obj(fields))
            })
            .collect();
        Value::Obj(timings)
    }

    /// Every metric by name with its unit, one per line; a timing with its
    /// quartiles and sample count.
    pub fn print(&self) {
        for m in &self.metrics {
            let sampled = self
                .timings
                .iter()
                .find(|t| t.name == m.name)
                .map(|t| {
                    format!(
                        "  median of {}, quartiles [{}, {}]",
                        t.n,
                        format_value(t.q1),
                        format_value(t.q3)
                    )
                })
                .unwrap_or_default();
            println!(
                "  {:<40} {:>16} {}{sampled}",
                m.name,
                format_value(m.value),
                m.unit
            );
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        println!(
            "  attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

/// Six significant digits without losing small or large magnitudes.
pub fn format_value(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if (1e-3..1e7).contains(&x.abs()) {
        let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 8) as usize;
        format!("{x:.digits$}")
    } else {
        format!("{x:.5e}")
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_serve::json;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let mut o = Outcome::default();
        o.push("eval_s", 0.51234567, "s");
        o.check(true, || unreachable!());
        o.check(false, || "bitwise".into());
        let back = json::parse(&json::write(&o.to_json())).unwrap();
        assert_eq!(back.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(back.get("attempted").and_then(Value::as_usize), Some(2));
        let m = back.get("metrics").and_then(|m| m.get("eval_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.51234567));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }
}
