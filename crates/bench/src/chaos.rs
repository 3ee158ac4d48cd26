//! `BENCH_chaos.json`: what a kill and a partition cost the machine under
//! load.  (How much load the machine sustains is `throughput`'s question.)
//!
//! Two drills, both judged by the capacity harness's IC-style SLO gates
//! (`pm2_workload::judge`: failure rate ≤ 0.2, p99 ≤ 5000 ms) at a fixed
//! offered rate, with no ramp:
//!
//! * **Kill-node recovery** — the `pm2-workload` kill drill: baseline
//!   round, checkpoint, kill node 0 (the §4.4 coordinator — its successor
//!   is elected), recover, aftermath round.  The headline is the
//!   disruption window in ms.
//! * **Partition heal** — cut the fabric in two for 300 ms under load (the
//!   cut links stall), heal, and demand re-convergence: nobody falsely
//!   declared dead, gossiped wealth fresh everywhere, the same rate
//!   sustained post-heal, far-side residents intact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pm2::Machine;
use pm2_workload::{
    register_services, run_kill_node, run_partition, ChaosReport, PartitionReport, RampConfig,
};

use crate::report::Row;

/// Injector threads feeding the issuer per round.
pub const CHAOS_INJECTORS: usize = 2;

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

/// The round windows for the kill and partition drills.  They run at
/// [`DRILL_RPS`], so the ramp's start and ceiling go unused.
pub fn drill_gate() -> RampConfig {
    RampConfig {
        round_duration: Duration::from_millis(300),
        drain_grace: Duration::from_secs(2),
        quiet_timeout: Duration::from_secs(10),
        ..RampConfig::default()
    }
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

fn kill_row(r: &ChaosReport) -> Row {
    Row::new()
        .string("drill", "kill_node")
        .string("workload", r.workload.clone())
        .int("p", r.nodes)
        .int("victim", r.victim)
        .int("rps", r.rps)
        .string("baseline_verdict", r.baseline.verdict.label())
        .int("checkpointed", r.checkpointed)
        .float("disruption_ms", r.disruption_ms, 3)
        .int("threads_recovered", r.recovery.threads_recovered)
        .int("threads_lost", r.recovery.threads_lost)
        .int("slots_reclaimed", r.recovery.slots_reclaimed)
        .string("aftermath_verdict", r.aftermath.verdict.label())
        .int("residents_recovered", r.residents_recovered)
        .bool("slo_ok", r.slo_ok())
}

fn partition_row(r: &PartitionReport) -> Row {
    Row::new()
        .string("drill", "partition")
        .string("workload", r.workload.clone())
        .int("p", r.nodes)
        .int("rps", r.rps)
        .string("baseline_verdict", r.baseline.verdict.label())
        .float("partition_ms", r.partition_ms, 3)
        .int("messages_stalled", r.messages_stalled)
        .int("false_deaths", r.false_deaths)
        .bool("wealth_converged", r.wealth_converged)
        .string("aftermath_verdict", r.aftermath.verdict.label())
        .int("residents_recovered", r.residents_recovered)
        .bool("slo_ok", r.slo_ok())
}

/// Run the drill matrix and write `BENCH_chaos.json` into the current
/// directory (the repo root under `cargo run`).  Prints each row as it
/// lands so a hung drill is visible in CI logs.
pub fn write_chaos_json() {
    let mut rows = Vec::new();
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
        "what a fault costs under a fixed 50 rps load of the mixed chaos workload: \
         kill-node disruption window in ms (victim 0 = the §4.4 coordinator, so each run \
         covers election), and transient-partition heal (messages stalled by the cut and \
         delivered at the heal, false deaths, gossip re-convergence); every round \
         SLO-gated at failure_rate ≤ 0.2 and p99 ≤ 5000 ms; capacity is BENCH_throughput's \
         question, not this file's",
        &rows,
    );
}
