//! End-to-end tests of the `pm2-workload` capacity harness: a tiny ramp
//! on a one-worker machine, plus the host-side counter reset the
//! per-round machine reports depend on.

use std::time::Duration;

use pm2::api::*;
use pm2::{Machine, Pm2Config};
use pm2_workload::{register_services, run_ramp, RampConfig, Verdict, WorkloadSpec};

/// A two-round mixed ramp on a one-worker 2-node machine: both rounds
/// must pass the (generous) SLOs, every op must be accounted for, and the
/// last round is the max sustainable rate.
#[test]
fn tiny_mixed_ramp_end_to_end() {
    let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
    register_services(&m);

    let ramp = RampConfig {
        initial_rps: 40,
        increment_rps: 40,
        max_rps: 80, // exactly two rounds: 40 then 80
        round_duration: Duration::from_millis(150),
        drain_grace: Duration::from_secs(2),
        quiet_timeout: Duration::from_secs(5),
        ..RampConfig::default()
    };
    let report = run_ramp(&m, &WorkloadSpec::mixed(), ramp, 2);
    m.shutdown();

    assert_eq!(report.rounds.len(), 2, "{}", report.summary());
    assert_eq!(report.nodes, 2);
    for r in &report.rounds {
        assert!(r.issued > 0, "round at {} rps issued nothing", r.rps);
        assert_eq!(
            r.issued,
            r.ok + r.failed + r.timed_out,
            "every issued op must be accounted for"
        );
        assert_eq!(
            r.verdict,
            Verdict::Pass,
            "round at {} rps: {:?}",
            r.rps,
            r.verdict
        );
        assert!(r.quiesced, "round at {} rps left stragglers", r.rps);
        assert!(
            r.machine.spawns >= r.issued,
            "every op runs as a green thread: spawns {} < issued {}",
            r.machine.spawns,
            r.issued
        );
    }
    assert_eq!(report.max_sustainable_rps, Some(80));
}

/// The op-stream sampling is seeded: two ramps over the same spec issue
/// the same number of ops per round (the schedule is rate-derived and the
/// sampler replays exactly).
#[test]
fn ramp_issue_counts_replay() {
    let run = || {
        let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
        register_services(&m);
        let ramp = RampConfig {
            initial_rps: 30,
            increment_rps: 30,
            max_rps: 60,
            round_duration: Duration::from_millis(100),
            drain_grace: Duration::from_secs(2),
            quiet_timeout: Duration::from_secs(5),
            ..RampConfig::default()
        };
        let report = run_ramp(&m, &WorkloadSpec::pingpong_rpc(64), ramp, 2);
        m.shutdown();
        report.rounds.iter().map(|r| r.issued).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// `Machine::stats_reset` zeroes every node's counters, so per-round
/// deltas can be read directly from the snapshots.
#[test]
fn stats_reset_zeroes_node_counters() {
    let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
    m.run_on(0, || {
        pm2_migrate(1).unwrap();
        pm2_migrate(0).unwrap();
    })
    .unwrap();

    let before = m.node_stats(0);
    assert!(before.spawns > 0, "run_on spawns a thread");
    assert!(before.steps > 0, "the driver stepped");
    assert_eq!(before.migrations_out, 1);

    m.stats_reset();
    for node in 0..m.nodes() {
        let s = m.node_stats(node);
        assert_eq!(s.spawns, 0, "node {node} spawns survived reset");
        assert_eq!(s.steps, 0, "node {node} steps survived reset");
        assert_eq!(s.migrations_out, 0);
        assert_eq!(s.migrations_in, 0);
        assert_eq!(s.trains_out, 0);
        assert_eq!(s.trades, 0);
        assert_eq!(s.negotiations, 0);
        assert_eq!(s.driver_parks, 0);
        assert_eq!(s.driver_wakeups, 0);
    }

    // Counters keep counting after a reset.
    m.run_on(1, || {
        pm2_yield();
    })
    .unwrap();
    assert!(
        m.node_stats(1).spawns > 0,
        "counters must resume after reset"
    );
    m.shutdown();
}
