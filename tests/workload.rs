//! End-to-end tests of the `pm2-workload` capacity harness: a tiny ramp
//! on a one-worker machine, plus the per-round counter windows its
//! machine reports depend on.

use std::sync::mpsc;
use std::time::Duration;

use pm2::{Machine, Pm2Config};
use pm2_workload::{
    register_services, run_gated_round, run_ramp, OpKind, RampConfig, SizeDist, Targeting, Verdict,
    WorkloadSpec,
};

/// A two-round mixed ramp on a one-worker 2-node machine: both rounds
/// must pass the (generous) SLOs, every op must be accounted for, and the
/// last round is the max sustainable rate.
#[test]
fn tiny_mixed_ramp_end_to_end() {
    let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
    register_services(&m);

    let report = run_ramp(&m, &WorkloadSpec::mixed(), two_rounds(), 2);
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
    assert!(report.capped(), "every round passed: 80 rps is the ceiling");
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
            max_rps: 60,
            round_duration: Duration::from_millis(100),
            drain_grace: Duration::from_secs(2),
            quiet_timeout: Duration::from_secs(5),
        };
        let report = run_ramp(&m, &WorkloadSpec::pingpong_rpc(64), ramp, 2);
        m.shutdown();
        report.rounds.iter().map(|r| r.issued).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// Counters are monotonic and a round is a before/after window over them:
/// two consecutive rounds on one machine each report their own counters —
/// round 2 sees a green thread per op it issued, and none of round 1's.
#[test]
fn consecutive_rounds_each_report_their_own_counters() {
    let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
    register_services(&m);
    let report = run_ramp(&m, &WorkloadSpec::mixed(), two_rounds(), 2);
    let spawned: u64 = (0..m.nodes()).map(|n| m.node_stats(n).spawns).sum();
    m.shutdown();

    let [r1, r2] = &report.rounds[..] else {
        panic!("two rounds: {}", report.summary());
    };
    assert!(
        r2.machine.spawns >= r2.issued,
        "round 2: spawns {} < issued {}",
        r2.machine.spawns,
        r2.issued
    );
    // Disjoint windows: round 2 counting round 1's spawns again would put
    // the two rounds' sum past everything the machine spawned.
    assert!(
        r1.machine.spawns + r2.machine.spawns <= spawned,
        "round 2 ({} spawns) must not include round 1's ({}); machine total {spawned}",
        r2.machine.spawns,
        r1.machine.spawns,
    );
}

/// An overloaded round of group-migrate ops, some of whose child spawns
/// fail: an op that fails half-way must still release the children it
/// spawned, or they spin on their node for good and `shutdown` never
/// returns.
#[test]
fn a_failed_group_migrate_strands_no_children() {
    let m = Machine::builder(2).test_profile().launch().unwrap();
    register_services(&m);
    let spec = WorkloadSpec {
        name: "group_migrate".into(),
        mix: vec![(OpKind::GroupMigrate { group: 4 }, 1)],
        payload: SizeDist::Fixed(0),
        targeting: Targeting::Uniform,
        seed: 0x6D16,
    };
    let cfg = RampConfig {
        initial_rps: 20_000,
        max_rps: 20_000,
        round_duration: Duration::from_millis(200),
        drain_grace: Duration::from_millis(500),
        quiet_timeout: Duration::from_secs(1),
    };
    let round = run_gated_round(&m, &spec, &cfg, 20_000, 0, 2);
    assert_eq!(round.issued, round.ok + round.failed + round.timed_out);

    // Shut down on a helper thread, so a hang fails the test instead of
    // wedging it; a helper that hung is left behind.
    let (done, finished) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let mut m = m;
        m.shutdown();
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| {
            panic!(
                "shutdown hung after {} ok, {} failed, {} timed out of {} ops",
                round.ok, round.failed, round.timed_out, round.issued
            )
        });
    helper.join().unwrap();
}

/// Exactly two rounds, 40 then 80 rps, with generous drain and quiet
/// windows so every op lands inside its own round.
fn two_rounds() -> RampConfig {
    RampConfig {
        initial_rps: 40,
        max_rps: 80,
        round_duration: Duration::from_millis(150),
        drain_grace: Duration::from_secs(2),
        quiet_timeout: Duration::from_secs(5),
    }
}
