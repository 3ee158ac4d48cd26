//! `BENCH_throughput.json`: max sustainable request rate per workload mix.
//!
//! The capacity trajectory: for each (workload, node-count) scenario the
//! `pm2-workload` ramp drives an open-loop op stream at a doubling target
//! rate until a round breaks the IC-suite SLOs (failure rate and p99
//! latency), bisects that bracket to within 25 %, and reports the highest
//! passing round as the machine's max sustainable RPS.  Two mixes are
//! tracked — the pure ping-pong RPC workload (the classic echo round
//! trip, 64 B payloads) and the mixed spawn/RPC/migrate/alloc stew — each
//! at p = 4 and p = 8 on the `instant` wire profile, so the number
//! measures the runtime (drivers, scheduler, slot economy), not the
//! modelled network.
//!
//! The ramp is sized for CI: short rounds, seconds per scenario, and a
//! ceiling far above the knee, so the figure comes from a round that
//! failed (`capped` false), not from the ramp's end.  The per-round rows
//! keep the full driver-side quantiles *and* the machine-side counters so
//! a regression shows up with its mechanism attached (e.g. p99 blowing up
//! while `driver_parks` collapses = the pump saturated).

use std::time::Duration;

use pm2::{Machine, NetProfile};
use pm2_workload::{
    register_services, run_ramp, CapacityReport, RampConfig, RoundReport, WorkloadSpec,
};

use crate::report::{Row, Value};

/// Injector threads feeding the issuer per round.
pub const INJECTORS: usize = 2;

/// The CI-sized ramp: 250 ms rounds doubling from 8,000 rps, so every
/// round issues at least 2,000 ops, toward a 1,024,000 rps ceiling no
/// scenario reaches on a 2-vCPU host (the knees there sit near 64,000).
pub fn ci_ramp() -> RampConfig {
    RampConfig {
        initial_rps: 8_000,
        max_rps: 1_024_000,
        round_duration: Duration::from_millis(250),
        drain_grace: Duration::from_millis(500),
        quiet_timeout: Duration::from_secs(3),
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

/// One ramp round as a row: the driver's quantiles and the machine's
/// counters over the round.
fn round_row(rd: &RoundReport) -> Row {
    Row::new()
        .int("rps", rd.rps)
        .int("issued", rd.issued)
        .int("ok", rd.ok)
        .int("failed", rd.failed)
        .int("timed_out", rd.timed_out)
        .float("failure_rate", rd.failure_rate, 4)
        .float("p50_ms", rd.p50_ms, 3)
        .float("p90_ms", rd.p90_ms, 3)
        .float("p99_ms", rd.p99_ms, 3)
        .float("mean_ms", rd.mean_ms, 3)
        .bool("quiesced", rd.quiesced)
        .int("steps", rd.machine.steps)
        .int("driver_parks", rd.machine.driver_parks)
        .int("spawns", rd.machine.spawns)
        .int("migrations", rd.machine.migrations_out)
        .int("trains", rd.machine.trains_out)
        .int("trades", rd.machine.trades)
        .int("pool_allocs", rd.pool.allocs)
        .int("pool_reuses", rd.pool.reuses)
        .string("verdict", rd.verdict.label())
}

/// One capacity report as a `configs[]` row: scenario identity, the
/// headline max sustainable rate, and the rounds nested under `rounds`.
pub fn report_row(r: &CapacityReport) -> Row {
    Row::new()
        .string("workload", r.workload.clone())
        .int("p", r.nodes)
        .string("net", r.net.clone())
        .capacity("max_sustainable_rps", r)
        .with(
            "rounds",
            Value::Rows(r.rounds.iter().map(round_row).collect()),
        )
}

/// Run the full scenario matrix and write `BENCH_throughput.json` into
/// the current directory (the repo root under `cargo run`).  Prints each
/// round and the per-scenario summary.
pub fn write_throughput_json() {
    let ramp = ci_ramp();
    let mut rows = Vec::new();
    for sc in scenarios() {
        let r = run_scenario(&sc, ramp.clone());
        for rd in &r.rounds {
            println!(
                "throughput [{} p={}]: {}",
                r.workload,
                r.nodes,
                round_row(rd)
            );
        }
        println!("{}", r.summary());
        rows.push(report_row(&r));
    }
    crate::report::emit_json(
        "BENCH_throughput.json",
        "throughput",
        "max sustainable request rate per workload mix (open-loop ramp: 250 ms rounds \
         doubling from 8000 rps to the first failing round, then bisected until the bracket \
         is within 25 %; IC-style SLO gates: round fails when failure_rate > 0.2 or \
         p99 > 5000 ms; latency measured from each op's scheduled issue time so queueing \
         counts); instant wire profile — the rate measures the runtime, not the modelled \
         network; capped = every round passed up to the ramp's ceiling; per-round machine \
         counters say why a round saturated",
        &rows,
    );
}
