//! The ramp controller: IC-suite-style SLO gating, as a pure state
//! machine.
//!
//! One schedule finds the knee in a handful of rounds: start at
//! `initial_rps` and double until a round fails, then bisect between the
//! last passing and the first failing rate until they are within
//! [`KNEE_TOLERANCE`] of each other.  No round is scheduled above
//! `max_rps`; a ramp that passes there stops, capped.  A round fails
//! above [`ALLOWABLE_FAILURE_RATE`] or [`SLO_P99_MS`]; the IC suite's two
//! *hard-stop* thresholds ([`STOP_FAILURE_RATE`], [`STOP_P50_MS`]) mark it
//! as catastrophic instead, so a report can tell "the knee" from "the
//! cliff".  The highest passing round is the max sustainable RPS.
//!
//! [`judge`] and the controller never touch a machine or a clock: feed
//! them per-round measurements and verdicts.  That makes the gate logic
//! exhaustively unit-testable with synthetic series (see the tests below),
//! and the driver a thin loop around it.

use std::time::Duration;

/// A round fails above this failure fraction (IC `ALLOWABLE_FAILURE_RATE`).
pub const ALLOWABLE_FAILURE_RATE: f64 = 0.2;
/// A round fails above this p99 latency, ms (IC `ALLOWABLE_LATENCY`).
pub const SLO_P99_MS: f64 = 5000.0;
/// Hard stop: past the cliff, not just the knee (IC `STOP_FAILURE_RATE`).
pub const STOP_FAILURE_RATE: f64 = 0.9;
/// Hard stop on the *median*, ms (IC `STOP_T_MEDIAN` = 300 s).
pub const STOP_P50_MS: f64 = 300_000.0;
/// The bisection ends once the first failing rate is within this fraction
/// above the highest passing one: at most two rounds past a 2× bracket.
pub const KNEE_TOLERANCE: f64 = 0.25;

/// Ramp schedule: where it starts, its ceiling, and each round's windows.
#[derive(Debug, Clone)]
pub struct RampConfig {
    /// First round's target rate; each round doubles it until one fails.
    pub initial_rps: u64,
    /// Ramp ceiling: no round is scheduled above this.
    pub max_rps: u64,
    /// How long each round issues ops.
    pub round_duration: Duration,
    /// Extra time after a round's last issue for in-flight ops to land
    /// before they are counted as timeouts.
    pub drain_grace: Duration,
    /// Longest wait for the machine to go quiet between rounds.
    pub quiet_timeout: Duration,
}

impl Default for RampConfig {
    /// Seconds-scale rounds (the IC suite runs 300 s rounds; a CI smoke
    /// ramp wants the same shape, not the same wall-clock).
    fn default() -> Self {
        RampConfig {
            initial_rps: 100,
            max_rps: 1000,
            round_duration: Duration::from_millis(500),
            drain_grace: Duration::from_millis(500),
            quiet_timeout: Duration::from_secs(5),
        }
    }
}

/// What the driver measured in one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundMeasurement {
    /// The round's target rate.
    pub rps: u64,
    /// Failed + timed-out ops over issued ops (0.0 when nothing issued).
    pub failure_rate: f64,
    /// Median op latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile op latency, ms.
    pub p99_ms: f64,
}

/// The judgement of one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Within every SLO.
    Pass,
    /// Broke an SLO.  The string names the gate.
    Fail(String),
    /// Broke a hard-stop threshold — the cliff, not the knee.
    HardStop(String),
}

impl Verdict {
    /// Did the round pass?
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail(_) => "fail",
            Verdict::HardStop(_) => "hard_stop",
        }
    }
}

/// Judge one round against the gates.  Hard-stop thresholds are checked
/// first (a 95% failure rate has also broken the 20% allowable gate; the
/// verdict should name the cliff).
pub fn judge(m: RoundMeasurement) -> Verdict {
    if m.failure_rate >= STOP_FAILURE_RATE {
        Verdict::HardStop(format!(
            "failure rate {:.2} >= stop threshold {STOP_FAILURE_RATE:.2}",
            m.failure_rate
        ))
    } else if m.p50_ms >= STOP_P50_MS {
        Verdict::HardStop(format!(
            "p50 {:.0} ms >= stop threshold {STOP_P50_MS:.0} ms",
            m.p50_ms
        ))
    } else if m.failure_rate > ALLOWABLE_FAILURE_RATE {
        Verdict::Fail(format!(
            "failure rate {:.2} > allowable {ALLOWABLE_FAILURE_RATE:.2}",
            m.failure_rate
        ))
    } else if m.p99_ms > SLO_P99_MS {
        Verdict::Fail(format!("p99 {:.1} ms > SLO {SLO_P99_MS:.1} ms", m.p99_ms))
    } else {
        Verdict::Pass
    }
}

/// Pure ramp schedule: tell it how each round was judged, ask it for the
/// next rate.
#[derive(Debug)]
pub struct RampController {
    max_rps: u64,
    next: Option<u64>,
    passed: Option<u64>,
    failed: Option<u64>,
}

impl RampController {
    /// Fresh ramp at `cfg.initial_rps`.
    pub fn new(cfg: &RampConfig) -> Self {
        assert!(cfg.initial_rps > 0, "a ramp starts above 0 rps");
        RampController {
            next: (cfg.initial_rps <= cfg.max_rps).then_some(cfg.initial_rps),
            max_rps: cfg.max_rps,
            passed: None,
            failed: None,
        }
    }

    /// Target rate for the next round, or `None` when the ramp is over
    /// (the knee is bracketed tightly enough, the first round failed, or
    /// a round passed at `max_rps`).
    pub fn next_rps(&self) -> Option<u64> {
        self.next
    }

    /// Note how the round at `rps`, the rate [`Self::next_rps`] named,
    /// was judged, and schedule the next: double past a pass until a round
    /// fails, then take the midpoint of the bracket.
    pub fn record(&mut self, rps: u64, passed: bool) {
        if passed {
            self.passed = Some(rps);
        } else {
            self.failed = Some(rps);
        }
        self.next = match (self.passed, self.failed) {
            (Some(pass), None) => (pass < self.max_rps).then_some((2 * pass).min(self.max_rps)),
            (Some(pass), Some(fail)) => {
                let mid = pass + (fail - pass) / 2;
                let wide = (fail - pass) as f64 > KNEE_TOLERANCE * pass as f64;
                (wide && mid > pass).then_some(mid)
            }
            (None, _) => None,
        };
    }

    /// Highest rate that passed every SLO, if any round did.
    pub fn max_sustainable_rps(&self) -> Option<u64> {
        self.passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(initial_rps: u64, max_rps: u64) -> RampConfig {
        RampConfig {
            initial_rps,
            max_rps,
            ..RampConfig::default()
        }
    }

    fn m(rps: u64, failure_rate: f64, p50_ms: f64, p99_ms: f64) -> RoundMeasurement {
        RoundMeasurement {
            rps,
            failure_rate,
            p50_ms,
            p99_ms,
        }
    }

    /// Run a ramp against a machine that passes every rate up to `knee`
    /// and fails every rate above it; the rates it was asked for.
    fn ramp_to(c: &mut RampController, knee: u64) -> Vec<u64> {
        let mut rounds = Vec::new();
        while let Some(rps) = c.next_rps() {
            rounds.push(rps);
            c.record(rps, rps <= knee);
            assert!(rounds.len() < 64, "the ramp never ended: {rounds:?}");
        }
        rounds
    }

    #[test]
    fn all_pass_doubles_to_the_ceiling() {
        let mut c = RampController::new(&cfg(100, 500));
        assert_eq!(ramp_to(&mut c, u64::MAX), vec![100, 200, 400, 500]);
        assert_eq!(c.max_sustainable_rps(), Some(500));
    }

    #[test]
    fn a_passing_midpoint_moves_the_bracket_up() {
        let mut c = RampController::new(&cfg(100, 10_000));
        // 800 fails; 600 and 700 pass; 800 is within 25 % of 700.
        assert_eq!(ramp_to(&mut c, 750), vec![100, 200, 400, 800, 600, 700]);
        assert_eq!(c.max_sustainable_rps(), Some(700));
    }

    #[test]
    fn a_failing_midpoint_moves_the_bracket_down() {
        let mut c = RampController::new(&cfg(100, 10_000));
        // 800 and 600 fail; 500 passes; 600 is within 25 % of 500.
        assert_eq!(ramp_to(&mut c, 550), vec![100, 200, 400, 800, 600, 500]);
        assert_eq!(c.max_sustainable_rps(), Some(500));
    }

    #[test]
    fn bisection_costs_at_most_two_rounds_past_the_first_failure() {
        for knee in (100..3_200).step_by(37) {
            let mut c = RampController::new(&cfg(100, 1_000_000));
            let rounds = ramp_to(&mut c, knee);
            let first_fail = rounds.iter().position(|&r| r > knee).unwrap();
            assert!(rounds.len() - first_fail <= 3, "knee {knee}: {rounds:?}");
            let pass = c.max_sustainable_rps().unwrap();
            let fail = rounds.iter().copied().filter(|&r| r > knee).min().unwrap();
            assert!(pass <= knee && knee < fail, "knee {knee}: {rounds:?}");
            assert!(fail - pass <= pass / 4, "knee {knee}: {pass}..{fail}");
        }
    }

    #[test]
    fn a_failure_at_the_ceiling_bisects_below_it() {
        let mut c = RampController::new(&cfg(100, 300));
        assert_eq!(ramp_to(&mut c, 260), vec![100, 200, 300, 250]);
        assert_eq!(c.max_sustainable_rps(), Some(250));
    }

    #[test]
    fn a_bracket_one_apart_ends_the_ramp() {
        let mut c = RampController::new(&cfg(1, 100));
        assert_eq!(ramp_to(&mut c, 1), vec![1, 2]);
        assert_eq!(c.max_sustainable_rps(), Some(1));
    }

    #[test]
    fn failure_rate_gate_fails_a_round() {
        match judge(m(300, 0.35, 1.0, 2.0)) {
            Verdict::Fail(reason) => assert!(reason.contains("failure rate"), "{reason}"),
            other => panic!("expected failure-rate Fail, got {other:?}"),
        }
    }

    #[test]
    fn p99_gate_fails_a_round() {
        assert!(judge(m(100, 0.0, 1.0, 10.0)).passed());
        match judge(m(200, 0.0, 1.0, 6000.0)) {
            Verdict::Fail(reason) => assert!(reason.contains("p99"), "{reason}"),
            other => panic!("expected p99 Fail, got {other:?}"),
        }
    }

    #[test]
    fn hard_stop_outranks_the_plain_gate() {
        // 0.95 also exceeds allowable 0.2; the verdict must name the cliff.
        let v = judge(m(100, 0.95, 1.0, 2.0));
        assert!(matches!(v, Verdict::HardStop(_)), "{v:?}");
    }

    #[test]
    fn median_hard_stop_fires() {
        match judge(m(100, 0.0, 400_000.0, 500_000.0)) {
            Verdict::HardStop(reason) => assert!(reason.contains("p50"), "{reason}"),
            other => panic!("expected p50 HardStop, got {other:?}"),
        }
    }

    #[test]
    fn first_round_failure_yields_no_sustainable_rate() {
        let mut c = RampController::new(&cfg(100, 500));
        c.record(100, false);
        assert_eq!(c.max_sustainable_rps(), None);
        assert_eq!(c.next_rps(), None);
    }

    #[test]
    fn boundary_is_exclusive_for_allowable_inclusive_for_stop() {
        // failure_rate == allowable passes (gate is strict >);
        // failure_rate == stop threshold hard-stops (gate is >=).
        assert!(judge(m(100, 0.2, 1.0, 2.0)).passed());
        let v = judge(m(200, 0.9, 1.0, 2.0));
        assert!(matches!(v, Verdict::HardStop(_)), "{v:?}");
    }
}
