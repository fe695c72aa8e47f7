//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as a Chrome trace when the run ends.
//!
//! The program under test is not instrumented (that is a later change);
//! every span here starts and ends in the benchmark's own code. A span
//! knows its parent, the repetition it belongs to and the lane (thread)
//! that recorded it, and a layer's self time is its span minus the spans
//! it caused.

use crate::report::obj;
use fmm_serve::json::{self, Value};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub rep: u32,
    pub lane: u32,
    pub start_s: f64,
    pub dur_s: f64,
}

/// Span recorder of one thread. All tracers of a run share one epoch so
/// their lanes line up in the written trace.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Tracer {
            epoch,
            lane,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, rep: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep,
            lane: self.lane,
            start_s: 0.0,
            dur_s: 0.0,
        });
        self.open.push(id);
        let start = Instant::now();
        let r = f(self);
        let dur = start.elapsed();
        self.open.pop();
        self.spans[id].start_s = start.duration_since(self.epoch).as_secs_f64();
        self.spans[id].dur_s = dur.as_secs_f64();
        r
    }

    /// Record a span that was timed by the caller (a request whose start
    /// and end straddle other bookkeeping).
    pub fn record(&mut self, name: &'static str, rep: u32, start: Instant, dur_s: f64) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep,
            lane: self.lane,
            start_s: start.duration_since(self.epoch).as_secs_f64(),
            dur_s,
        });
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time (span minus its direct children) of every span called
    /// `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_s;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.dur_s - c).max(0.0))
            .collect()
    }

    /// Whole durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }

    /// The spans as Chrome trace events (`chrome://tracing`, Perfetto):
    /// complete events in microseconds, one `tid` per lane, with the span
    /// id, its parent, the workload and the repetition under `args`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let args = obj(vec![
                    ("id", Value::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("workload", Value::Str(workload.to_string())),
                    ("rep", Value::Num(f64::from(s.rep))),
                ]);
                obj(vec![
                    ("name", Value::Str(s.name.to_string())),
                    ("cat", Value::Str(layer_of(s.name).to_string())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(s.start_s * 1e6)),
                    ("dur", Value::Num(s.dur_s * 1e6)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(f64::from(s.lane))),
                    ("args", args),
                ])
            })
            .collect();
        json::write(&obj(vec![
            ("displayTimeUnit", Value::Str("ms".into())),
            ("traceEvents", Value::Arr(events)),
        ]))
    }
}

/// The layer (crate or module) a span name belongs to: everything before
/// the last dot, or the name itself.
fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_trace_parses() {
        let mut tr = Tracer::new(Instant::now(), 0);
        tr.span("replay", 0, |tr| {
            tr.span("core.sort", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tr.span("core.near", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let whole = tr.durations("replay")[0];
        let own = tr.self_times("replay")[0];
        let kids = tr.durations("core.sort")[0] + tr.durations("core.near")[0];
        assert!(whole >= 0.010 && own < whole);
        assert!((whole - kids - own).abs() < 1e-9);
        assert_eq!(tr.spans[1].parent, Some(0));

        let mut lane1 = Tracer::new(Instant::now(), 1);
        lane1.span("serve.request", 3, |tr| tr.span("serve.decode", 3, |_| ()));
        tr.absorb(lane1);
        assert_eq!(tr.spans[4].parent, Some(3));

        let doc = json::parse(&tr.chrome_trace("w")).unwrap();
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents")
        };
        assert_eq!(events.len(), 5);
        assert_eq!(events[1].get("cat").and_then(Value::as_str), Some("core"));
        assert_eq!(
            events[4]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_usize),
            Some(3)
        );
    }
}
