//! `BENCH_chaos.json`: what the machine sustains when the fabric
//! misbehaves.
//!
//! Three drills, all judged by the capacity harness's IC-style SLO gates
//! (failure rate ≤ 0.2, p99 ≤ 5000 ms):
//!
//! * **Lossy ramp** — the mixed chaos workload ramped to its max
//!   sustainable RPS under a seeded loss plan at 0%, 0.1% and 1% message
//!   loss, p = 4 and p = 8.  The protected exactly-once tag class and the
//!   control-plane retry/dedup machinery are what keep the 1% column from
//!   collapsing: every row records whether at least one SLO-gated round
//!   passed.
//! * **Kill-node recovery** — the `pm2-workload` kill drill: baseline
//!   round, checkpoint, kill node 0 (the §4.4 coordinator — its successor
//!   is elected), recover, aftermath round.  The headline is the
//!   disruption window in ms.
//! * **Partition heal** — cut the fabric in two for 300 ms under load,
//!   heal, and demand re-convergence: nobody falsely declared dead,
//!   gossiped wealth fresh everywhere, the same rate sustained post-heal,
//!   far-side residents intact.
//!
//! Same seed ⇒ same fault schedule, so a regression in any row replays.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pm2::{FaultPlan, Machine};
use pm2_workload::{
    register_services, run_kill_node, run_partition, run_ramp, CapacityReport, ChaosReport,
    PartitionReport, RampConfig, WorkloadSpec,
};

/// Injector threads feeding the issuer per round.
pub const CHAOS_INJECTORS: usize = 2;

/// The seeded fault schedules: one seed for the whole file, so the
/// entire bench replays byte-identically.
pub const CHAOS_SEED: u64 = 0xB0A7_1999;

/// Loss rates tracked by the ramp matrix: healthy, 0.1%, 1%.
pub const LOSS_RATES: [f64; 3] = [0.0, 0.001, 0.01];

/// Node counts tracked by every drill.
pub const NODE_COUNTS: [usize; 2] = [4, 8];

/// Fixed offered rate for the kill and partition drills: modest on
/// purpose — those gates judge fault handling, not saturation.
pub const DRILL_RPS: u64 = 50;

fn scratch_dir(name: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pm2-bench-chaos-{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The CI-sized lossy ramp: 250 ms rounds from 50 rps to a 250 rps
/// ceiling.  Generous drain/quiet windows — retries through loss take a
/// retry-slice or two to land and must not be miscounted as timeouts.
pub fn lossy_ramp() -> RampConfig {
    RampConfig {
        initial_rps: 50,
        increment_rps: 100,
        max_rps: 250,
        round_duration: Duration::from_millis(250),
        drain_grace: Duration::from_secs(2),
        quiet_timeout: Duration::from_secs(10),
        ..RampConfig::default()
    }
}

/// The fixed-rate gate config for the kill and partition drills.
pub fn drill_gate() -> RampConfig {
    RampConfig {
        round_duration: Duration::from_millis(300),
        drain_grace: Duration::from_secs(2),
        quiet_timeout: Duration::from_secs(10),
        ..RampConfig::default()
    }
}

/// Ramp the mixed chaos workload on a p-node machine under `loss`.
pub fn run_lossy_ramp(nodes: usize, loss: f64) -> CapacityReport {
    let mut b = Machine::builder(nodes)
        .test_profile()
        .reply_deadline(Duration::from_secs(5));
    if loss > 0.0 {
        b = b.fault_plan(FaultPlan::lossy(CHAOS_SEED, loss));
    }
    let mut m = b.launch().expect("launch");
    register_services(&m);
    let report = run_ramp(&m, &WorkloadSpec::chaos(), lossy_ramp(), CHAOS_INJECTORS);
    m.shutdown();
    report
}

/// The kill-node drill on a p-node machine: victim 0, so the drill also
/// covers coordinator election.
pub fn run_kill_drill(nodes: usize) -> ChaosReport {
    let dir = scratch_dir("kill");
    let mut m = Machine::builder(nodes)
        .test_profile()
        .reply_deadline(Duration::from_secs(5))
        .spill_dir(&dir)
        .launch()
        .expect("launch");
    register_services(&m);
    let rep =
        run_kill_node(&mut m, 0, &drill_gate(), DRILL_RPS, CHAOS_INJECTORS).expect("kill drill");
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    rep
}

/// The partition drill on a p-node machine: halves cut for 300 ms, with
/// the detector armed but timed well past the window.
pub fn run_partition_drill(nodes: usize) -> PartitionReport {
    let mut m = Machine::builder(nodes)
        .test_profile()
        .reply_deadline(Duration::from_secs(5))
        .failure_timeout(Duration::from_secs(30))
        .heartbeat_every(Duration::from_millis(25))
        .launch()
        .expect("launch");
    register_services(&m);
    let half = nodes / 2;
    let a: Vec<usize> = (0..half).collect();
    let b: Vec<usize> = (half..nodes).collect();
    let rep = run_partition(
        &mut m,
        &a,
        &b,
        Duration::from_millis(300),
        &drill_gate(),
        DRILL_RPS,
        CHAOS_INJECTORS,
    )
    .expect("partition drill");
    m.shutdown();
    rep
}

fn ramp_row(loss: f64, r: &CapacityReport) -> String {
    let rounds: Vec<String> = r
        .rounds
        .iter()
        .map(|rd| {
            format!(
                "{{\"rps\": {}, \"issued\": {}, \"ok\": {}, \"failed\": {}, \
                 \"timed_out\": {}, \"failure_rate\": {:.4}, \"p50_ms\": {:.3}, \
                 \"p99_ms\": {:.3}, \"verdict\": \"{}\"}}",
                rd.rps,
                rd.issued,
                rd.ok,
                rd.failed,
                rd.timed_out,
                rd.failure_rate,
                rd.p50_ms,
                rd.p99_ms,
                rd.verdict.label()
            )
        })
        .collect();
    let max = match r.max_sustainable_rps {
        Some(rps) => rps.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"drill\": \"lossy_ramp\", \"workload\": \"{}\", \"p\": {}, \
         \"loss\": {}, \"seed\": {}, \"max_sustainable_rps\": {}, \
         \"slo_round_passed\": {}, \"rounds\": [{}]}}",
        r.workload,
        r.nodes,
        loss,
        CHAOS_SEED,
        max,
        r.max_sustainable_rps.is_some(),
        rounds.join(", ")
    )
}

fn kill_row(r: &ChaosReport) -> String {
    format!(
        "{{\"drill\": \"kill_node\", \"workload\": \"{}\", \"p\": {}, \
         \"victim\": {}, \"rps\": {}, \"baseline_verdict\": \"{}\", \
         \"checkpointed\": {}, \"disruption_ms\": {:.3}, \
         \"threads_recovered\": {}, \"threads_lost\": {}, \
         \"slots_reclaimed\": {}, \"aftermath_verdict\": \"{}\", \
         \"residents_recovered\": {}, \"slo_ok\": {}}}",
        r.workload,
        r.nodes,
        r.victim,
        r.rps,
        r.baseline.verdict.label(),
        r.checkpointed,
        r.disruption_ms,
        r.recovery.threads_recovered,
        r.recovery.threads_lost,
        r.recovery.slots_reclaimed,
        r.aftermath.verdict.label(),
        r.residents_recovered,
        r.slo_ok()
    )
}

fn partition_row(r: &PartitionReport) -> String {
    format!(
        "{{\"drill\": \"partition\", \"workload\": \"{}\", \"p\": {}, \
         \"rps\": {}, \"baseline_verdict\": \"{}\", \"partition_ms\": {:.3}, \
         \"messages_cut\": {}, \"false_deaths\": {}, \"wealth_converged\": {}, \
         \"aftermath_verdict\": \"{}\", \"residents_recovered\": {}, \
         \"slo_ok\": {}}}",
        r.workload,
        r.nodes,
        r.rps,
        r.baseline.verdict.label(),
        r.partition_ms,
        r.messages_cut,
        r.false_deaths,
        r.wealth_converged,
        r.aftermath.verdict.label(),
        r.residents_recovered,
        r.slo_ok()
    )
}

/// Run the full drill matrix and write `BENCH_chaos.json` into the
/// current directory (the repo root under `cargo run`).  Prints each
/// row's summary as it lands so a hung drill is visible in CI logs.
pub fn write_chaos_json() {
    let mut rows = Vec::new();

    for &nodes in &NODE_COUNTS {
        for &loss in &LOSS_RATES {
            let r = run_lossy_ramp(nodes, loss);
            println!(
                "chaos [lossy p={} loss={:.1}%]: max sustainable {} rps over {} rounds",
                nodes,
                loss * 100.0,
                r.max_sustainable_rps
                    .map_or_else(|| "none".into(), |v| v.to_string()),
                r.rounds.len()
            );
            rows.push(ramp_row(loss, &r));
        }
    }

    for &nodes in &NODE_COUNTS {
        let r = run_kill_drill(nodes);
        println!("chaos [kill p={nodes}]: {}", r.summary());
        rows.push(kill_row(&r));

        let r = run_partition_drill(nodes);
        println!("chaos [partition p={nodes}]: {}", r.summary());
        rows.push(partition_row(&r));
    }

    crate::report::emit_json(
        "BENCH_chaos.json",
        "chaos",
        "fault-injected capacity and recovery: max sustainable RPS of the mixed chaos \
         workload under seeded message loss (0%, 0.1%, 1%; same seed replays the same \
         schedule), kill-node disruption window in ms (victim 0 = the §4.4 coordinator, \
         so each run covers election), and transient-partition heal (messages cut, false \
         deaths, gossip re-convergence); every round SLO-gated at failure_rate ≤ 0.2 \
         and p99 ≤ 5000 ms",
        &rows,
    );
}
