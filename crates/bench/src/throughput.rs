//! `BENCH_throughput.json`: max sustainable request rate per workload mix.
//!
//! The capacity trajectory: for each (workload, node-count) scenario the
//! `pm2-workload` ramp drives an open-loop op stream at an increasing
//! target rate, gates every round on the IC-suite SLOs (failure rate and
//! p99 latency), and reports the last passing round as the machine's max
//! sustainable RPS.  Two mixes are tracked — the pure ping-pong RPC
//! workload (the classic echo round trip, 64 B payloads) and the mixed
//! spawn/RPC/migrate/alloc stew — each at p = 4 and p = 8 on the
//! `instant` wire profile, so the number measures the runtime (drivers,
//! scheduler, slot economy), not the modelled network.
//!
//! The ramp parameters here are sized for CI: short rounds, a hard rate
//! ceiling, seconds per scenario.  The per-round rows keep the full
//! driver-side quantiles *and* the machine-side counters so a regression
//! shows up with its mechanism attached (e.g. p99 blowing up while
//! `driver_parks` collapses = the pump saturated).

use std::time::Duration;

use pm2::{Machine, NetProfile};
use pm2_workload::{register_services, run_ramp, CapacityReport, RampConfig, WorkloadSpec};

/// Injector threads feeding the issuer per round.
pub const INJECTORS: usize = 2;

/// The CI-sized ramp: 250 ms rounds from 150 rps to a 1,200 rps ceiling
/// in 150 rps steps, IC gate constants scaled to the round length.
pub fn ci_ramp() -> RampConfig {
    RampConfig {
        initial_rps: 150,
        increment_rps: 150,
        max_rps: 1_200,
        round_duration: Duration::from_millis(250),
        drain_grace: Duration::from_millis(500),
        quiet_timeout: Duration::from_secs(3),
        ..RampConfig::default()
    }
}

/// One tracked scenario: a workload mix on a p-node machine.
pub struct Scenario {
    pub spec: WorkloadSpec,
    pub nodes: usize,
}

/// The tracked scenario matrix: both mixes at p = 4 and p = 8.
pub fn scenarios() -> Vec<Scenario> {
    let mut v = Vec::new();
    for nodes in [4usize, 8] {
        v.push(Scenario {
            spec: WorkloadSpec::pingpong_rpc(64),
            nodes,
        });
        v.push(Scenario {
            spec: WorkloadSpec::mixed(),
            nodes,
        });
    }
    v
}

/// Launch a machine for one scenario and run the ramp to completion.
pub fn run_scenario(sc: &Scenario, ramp: RampConfig) -> CapacityReport {
    let mut m = Machine::builder(sc.nodes)
        .net(NetProfile::instant())
        .reply_deadline(Duration::from_secs(2))
        .launch()
        .expect("launch");
    register_services(&m);
    let report = run_ramp(&m, &sc.spec, ramp, INJECTORS);
    m.shutdown();
    report
}

/// Render one capacity report as a single `configs[]` row: scenario
/// identity, the headline max sustainable rate, and the full per-round
/// trajectory nested under `rounds`.
pub fn report_row(r: &CapacityReport) -> String {
    let rounds: Vec<String> = r
        .rounds
        .iter()
        .map(|rd| {
            format!(
                "{{\"rps\": {}, \"issued\": {}, \"ok\": {}, \"failed\": {}, \
                 \"timed_out\": {}, \"failure_rate\": {:.4}, \"p50_ms\": {:.3}, \
                 \"p90_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \
                 \"quiesced\": {}, \"steps\": {}, \"driver_parks\": {}, \
                 \"spawns\": {}, \"migrations\": {}, \"trains\": {}, \
                 \"trades\": {}, \"pool_allocs\": {}, \"pool_reuses\": {}, \
                 \"verdict\": \"{}\"}}",
                rd.rps,
                rd.issued,
                rd.ok,
                rd.failed,
                rd.timed_out,
                rd.failure_rate,
                rd.p50_ms,
                rd.p90_ms,
                rd.p99_ms,
                rd.mean_ms,
                rd.quiesced,
                rd.machine.steps,
                rd.machine.driver_parks,
                rd.machine.spawns,
                rd.machine.migrations,
                rd.machine.trains,
                rd.machine.trades,
                rd.machine.pool_allocs,
                rd.machine.pool_reuses,
                rd.verdict.label()
            )
        })
        .collect();
    let max = match r.max_sustainable_rps {
        Some(rps) => rps.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"workload\": \"{}\", \"p\": {}, \"net\": \"{}\", \
         \"max_sustainable_rps\": {}, \"rounds\": [{}]}}",
        r.workload,
        r.nodes,
        r.net,
        max,
        rounds.join(", ")
    )
}

/// Run the full scenario matrix and write `BENCH_throughput.json` into
/// the current directory (the repo root under `cargo run`).  Also prints
/// each round and the per-scenario summary.
pub fn write_throughput_json() {
    let ramp = ci_ramp();
    let mut rows = Vec::new();
    for sc in scenarios() {
        let r = run_scenario(&sc, ramp.clone());
        for rd in &r.rounds {
            println!(
                "throughput [{} p={}]: {} rps → ok {} / failed {} / timed_out {} \
                 (failure {:.1}%), p50 {:.2} ms p99 {:.2} ms — {}",
                r.workload,
                r.nodes,
                rd.rps,
                rd.ok,
                rd.failed,
                rd.timed_out,
                rd.failure_rate * 100.0,
                rd.p50_ms,
                rd.p99_ms,
                rd.verdict.label()
            );
        }
        println!("{}", r.summary());
        rows.push(report_row(&r));
    }
    crate::report::emit_json(
        "BENCH_throughput.json",
        "throughput",
        "max sustainable request rate per workload mix (open-loop ramp, IC-style SLO \
         gates: round fails when failure_rate > 0.2 or p99 > 5000 ms; latency measured \
         from each op's scheduled issue time so queueing counts); instant wire profile — \
         the rate measures the runtime, not the modelled network; per-round machine \
         counters say why a round saturated",
        &rows,
    );
}
