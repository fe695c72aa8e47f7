//! Per-phase timing and flop accounting.
//!
//! The paper's evaluation is phrased in terms of *arithmetic efficiency*
//! (achieved flop rate over peak) and *cycles per particle*; it also
//! reports the communication share of the traversal. This module gives the
//! driver a per-phase profile so the benchmark harness can print the same
//! quantities.

use std::time::{Duration, Instant};

/// The five algorithm phases of §2.2 plus setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Binning / coordinate sort of the input particles.
    Sort,
    /// Leaf-level particle → outer approximation.
    P2O,
    /// Upward pass (T1).
    Upward,
    /// Downward pass, interactive field conversions (T2).
    Interactive,
    /// Downward pass, parent-to-child inner shifts (T3).
    Downward,
    /// Leaf-level inner approximation → particle evaluation.
    Eval,
    /// Near-field direct evaluation.
    Near,
}

impl Phase {
    pub const ALL: [Phase; 7] = [
        Phase::Sort,
        Phase::P2O,
        Phase::Upward,
        Phase::Interactive,
        Phase::Downward,
        Phase::Eval,
        Phase::Near,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Sort => "sort",
            Phase::P2O => "p2o",
            Phase::Upward => "upward(T1)",
            Phase::Interactive => "interactive(T2)",
            Phase::Downward => "downward(T3)",
            Phase::Eval => "eval",
            Phase::Near => "near",
        }
    }

    fn idx(self) -> usize {
        match self {
            Phase::Sort => 0,
            Phase::P2O => 1,
            Phase::Upward => 2,
            Phase::Interactive => 3,
            Phase::Downward => 4,
            Phase::Eval => 5,
            Phase::Near => 6,
        }
    }
}

/// Timing and flop totals per phase for one evaluation.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    times: [Duration; 7],
    flops: [u64; 7],
}

impl Profile {
    pub fn new() -> Self {
        Profile::default()
    }

    /// Time a closure, attributing its wall time to `phase`.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.times[phase.idx()] += t0.elapsed();
        r
    }

    /// Add flops to a phase.
    pub fn add_flops(&mut self, phase: Phase, flops: u64) {
        self.flops[phase.idx()] += flops;
    }

    /// Add already-measured wall time to a phase (used by backends that
    /// time phases away from the profile, e.g. inside SPMD workers).
    pub fn add_time(&mut self, phase: Phase, d: Duration) {
        self.times[phase.idx()] += d;
    }

    pub fn phase_time(&self, phase: Phase) -> Duration {
        self.times[phase.idx()]
    }

    pub fn phase_flops(&self, phase: Phase) -> u64 {
        self.flops[phase.idx()]
    }

    pub fn total_time(&self) -> Duration {
        self.times.iter().sum()
    }

    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }

    /// Hierarchy-traversal time (T1 + T2 + T3) — the paper's "herarchical
    /// part".
    pub fn traversal_time(&self) -> Duration {
        self.phase_time(Phase::Upward)
            + self.phase_time(Phase::Interactive)
            + self.phase_time(Phase::Downward)
    }

    /// Achieved flop rate of a phase, in Gflop/s.
    pub fn phase_gflops(&self, phase: Phase) -> f64 {
        let t = self.phase_time(phase).as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.phase_flops(phase) as f64 / t / 1e9
        }
    }

    /// Render a fixed-width table of the profile.
    pub fn table(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(
            s,
            "{:<16} {:>10} {:>14} {:>9}",
            "phase", "time(ms)", "flops", "Gflop/s"
        )
        .unwrap();
        for p in Phase::ALL {
            writeln!(
                s,
                "{:<16} {:>10.2} {:>14} {:>9.2}",
                p.name(),
                self.phase_time(p).as_secs_f64() * 1e3,
                self.phase_flops(p),
                self.phase_gflops(p)
            )
            .unwrap();
        }
        writeln!(
            s,
            "{:<16} {:>10.2} {:>14}",
            "total",
            self.total_time().as_secs_f64() * 1e3,
            self.total_flops()
        )
        .unwrap();
        s
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..7 {
            self.times[i] += other.times[i];
            self.flops[i] += other.flops[i];
        }
    }
}

/// Measured data motion of one SPMD program phase, summed over workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpmdPhase {
    /// Logical channel operations: CSHIFTs, router sends, and broadcast
    /// stages (the countable "calls" of the CM runtime).
    pub messages: u64,
    /// Payload bytes that crossed a worker boundary.
    pub bytes: u64,
    /// f64 words of *logical* motion within workers' own memories, as the
    /// machine model prices it: a CSHIFT charges every element that stays
    /// on its VU, per shift, whether or not the executor copies it (the
    /// SPMD near field leaves a slot that stays on its rank where it is).
    pub local_words: u64,
}

impl std::ops::AddAssign for SpmdPhase {
    fn add_assign(&mut self, o: SpmdPhase) {
        self.messages += o.messages;
        self.bytes += o.bytes;
        self.local_words += o.local_words;
    }
}

/// The SPMD data-motion counters: per-phase message / byte / local-word
/// totals plus a cursor naming the phase charges currently land in. One
/// struct serves both sides of the transport seam — worker contexts count
/// into it while executing the `CommProgram` (the fabric itself never
/// counts, so the totals are fabric-independent and bitwise comparable
/// across backends), and [`SpmdReport`] carries the merged result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    phases: [SpmdPhase; 6],
    phase: usize,
}

impl Counters {
    /// Number of program phases, matching the machine model's budget.
    pub const PHASES: usize = 6;

    /// Direct charges to the given phase index.
    pub fn set_phase(&mut self, phase: usize) {
        debug_assert!(phase < Self::PHASES, "phase {phase} out of range");
        self.phase = phase;
    }

    /// The phase charges currently land in (0..6, budget order).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Count `n` messages against the current phase.
    pub fn add_messages(&mut self, n: u64) {
        self.phases[self.phase].messages += n;
    }

    /// Count `words` f64 payload words crossing a rank boundary (8 bytes
    /// each) against the current phase.
    pub fn add_words(&mut self, words: u64) {
        self.phases[self.phase].bytes += words * 8;
    }

    /// Count `words` f64 words moved within a rank's own memory.
    pub fn add_local_words(&mut self, words: u64) {
        self.phases[self.phase].local_words += words;
    }

    /// Fold another rank's totals into this one (cursor untouched).
    pub fn merge(&mut self, other: &Counters) {
        for (c, o) in self.phases.iter_mut().zip(&other.phases) {
            *c += *o;
        }
    }

    pub fn iter(&self) -> std::slice::Iter<'_, SpmdPhase> {
        self.phases.iter()
    }

    /// The per-phase totals, in [`SpmdReport::PHASE_NAMES`] order.
    pub fn phases(&self) -> &[SpmdPhase; 6] {
        &self.phases
    }
}

impl std::ops::Index<usize> for Counters {
    type Output = SpmdPhase;
    fn index(&self, i: usize) -> &SpmdPhase {
        &self.phases[i]
    }
}

impl<'a> IntoIterator for &'a Counters {
    type Item = &'a SpmdPhase;
    type IntoIter = std::slice::Iter<'a, SpmdPhase>;
    fn into_iter(self) -> Self::IntoIter {
        self.phases.iter()
    }
}

/// Per-phase measured communication of one SPMD evaluation, attached to
/// [`crate::EvalOutput`] when the run used [`crate::Executor::Spmd`].
/// Phases are indexed like the machine model's program budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpmdReport {
    /// Worker (VU) count.
    pub workers: usize,
    /// The VU grid the workers were arranged on.
    pub vu_dims: [usize; 3],
    /// Measured motion per phase, in [`SpmdReport::PHASE_NAMES`] order,
    /// merged over all ranks.
    pub phases: Counters,
    /// Per-worker busy wall-clock, in nanoseconds: the sum of its six
    /// phase timings minus [`SpmdReport::worker_wait_ns`]. The spread
    /// across workers is the load-balance signal.
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker wall-clock spent blocked in fabric receives, in
    /// nanoseconds, summed over the six phases.
    pub worker_wait_ns: Vec<u64>,
    /// Per-worker arithmetic flops (P2O + traversal + eval + near field).
    /// Deterministic for a fixed input, unlike wall-clock.
    pub worker_flops: Vec<u64>,
    /// Leaf Morton-curve cut points when the run used
    /// `Balance::CostWeighted` (`None` for the uniform block layout).
    pub partition: Option<Vec<u64>>,
    /// Near-field pairs the ranks ran for *ghost targets* — boxes owned
    /// elsewhere whose symmetric rows reach their own — summed over
    /// ranks; potentials and forces run one set of ghost targets. The owners count those targets' pairs in
    /// `near_stats`, which therefore equals the serial sweep's; this is
    /// the work the distributed sweep adds to it.
    pub ghost_pairs: u64,
}

impl SpmdReport {
    /// Phase names, matching `fmm_machine::communication_budget`.
    pub const PHASE_NAMES: [&'static str; 6] = [
        "sort",
        "p2o",
        "upward(T1)",
        "downward(T2+T3)",
        "eval",
        "near",
    ];

    /// Fold the report of another evaluation on the same workers into this
    /// one, as a batch's requests are: phases, per-worker times and flops,
    /// and ghost pairs summed; this report's partition kept.
    pub fn merge(&mut self, other: &SpmdReport) {
        self.phases.merge(&other.phases);
        let sums = [
            (&mut self.worker_busy_ns, &other.worker_busy_ns),
            (&mut self.worker_wait_ns, &other.worker_wait_ns),
            (&mut self.worker_flops, &other.worker_flops),
        ];
        for (mine, theirs) in sums {
            debug_assert_eq!(mine.len(), theirs.len(), "reports of other worker counts");
            mine.iter_mut().zip(theirs).for_each(|(a, b)| *a += b);
        }
        self.ghost_pairs += other.ghost_pairs;
    }

    /// Max-over-mean imbalance of a per-worker measure: 0.0 means every
    /// worker carried exactly the mean, 1.0 means the slowest carried
    /// twice it. Returns 0.0 when the measure is empty or all-zero.
    pub fn imbalance_of(values: &[u64]) -> f64 {
        let total: u64 = values.iter().sum();
        if values.is_empty() || total == 0 {
            return 0.0;
        }
        let mean = total as f64 / values.len() as f64;
        let max = *values.iter().max().unwrap() as f64;
        max / mean - 1.0
    }

    /// Busy-time imbalance across workers (max/mean − 1).
    pub fn busy_imbalance(&self) -> f64 {
        Self::imbalance_of(&self.worker_busy_ns)
    }

    /// Flop imbalance across workers (max/mean − 1); deterministic.
    pub fn flop_imbalance(&self) -> f64 {
        Self::imbalance_of(&self.worker_flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_attributes_to_phase() {
        let mut p = Profile::new();
        let v = p.time(Phase::Near, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(p.phase_time(Phase::Near) >= Duration::from_millis(4));
        assert_eq!(p.phase_time(Phase::P2O), Duration::ZERO);
    }

    #[test]
    fn flop_accounting() {
        let mut p = Profile::new();
        p.add_flops(Phase::Interactive, 1000);
        p.add_flops(Phase::Interactive, 500);
        p.add_flops(Phase::Near, 250);
        assert_eq!(p.phase_flops(Phase::Interactive), 1500);
        assert_eq!(p.total_flops(), 1750);
    }

    #[test]
    fn merge_sums() {
        let mut a = Profile::new();
        a.add_flops(Phase::Eval, 10);
        let mut b = Profile::new();
        b.add_flops(Phase::Eval, 20);
        a.merge(&b);
        assert_eq!(a.phase_flops(Phase::Eval), 30);
    }

    #[test]
    fn spmd_merge_sums_per_phase_and_per_worker() {
        let report = |x: u64, cut: u64| {
            let mut phases = Counters::default();
            phases.set_phase(3);
            phases.add_messages(x);
            SpmdReport {
                workers: 2,
                vu_dims: [2, 1, 1],
                phases,
                worker_busy_ns: vec![x, 2 * x],
                worker_wait_ns: vec![3 * x, 4 * x],
                worker_flops: vec![5 * x, 6 * x],
                partition: Some(vec![0, cut]),
                ghost_pairs: 7 * x,
            }
        };
        let mut a = report(1, 10);
        a.merge(&report(10, 20));
        assert_eq!(a.phases[3].messages, 11);
        assert_eq!(a.worker_busy_ns, [11, 22]);
        assert_eq!(a.worker_wait_ns, [33, 44]);
        assert_eq!(a.worker_flops, [55, 66]);
        assert_eq!(a.ghost_pairs, 77);
        assert_eq!(
            a.partition,
            Some(vec![0, 10]),
            "the first partition is kept"
        );
    }

    #[test]
    fn counters_charge_the_current_phase() {
        let mut c = Counters::default();
        c.add_messages(2);
        c.set_phase(3);
        c.add_messages(1);
        c.add_words(10);
        c.add_local_words(4);
        assert_eq!(c[0].messages, 2);
        assert_eq!(c[3].messages, 1);
        assert_eq!(c[3].bytes, 80);
        assert_eq!(c[3].local_words, 4);
        let mut total = Counters::default();
        total.merge(&c);
        total.merge(&c);
        assert_eq!(total[3].bytes, 160);
        assert_eq!(total.phase(), 0, "merge never moves the cursor");
        assert_eq!(total.iter().map(|p| p.messages).sum::<u64>(), 6);
    }

    #[test]
    fn table_renders_all_phases() {
        let p = Profile::new();
        let t = p.table();
        for ph in Phase::ALL {
            assert!(t.contains(ph.name()), "missing {}", ph.name());
        }
    }
}
