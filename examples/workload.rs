//! Quickstart for the `pm2-workload` capacity harness: ramp the mixed
//! spawn/RPC/migrate/alloc workload on a 4-node machine until an SLO
//! breaks (or the rate ceiling is reached) and print the round-by-round
//! trajectory.
//!
//! ```sh
//! cargo run --release --example workload
//! ```
//!
//! The driver is open-loop: every op has a scheduled issue time and its
//! latency is measured from that time, so when the machine saturates the
//! queueing delay shows up in p99 instead of quietly slowing the load
//! generator down (the coordinated-omission trap).  Each round's report
//! joins the driver-side quantiles with machine-side counters — scheduler
//! steps, doorbell parks, spawns, migrations, trains, slot trades — so
//! the *mechanism* of saturation is visible, not just the fact of it.

use std::time::Duration;

use pm2::{Machine, NetProfile};
use pm2_workload::{register_services, run_ramp, RampConfig, WorkloadSpec};

fn main() {
    // A small machine on the instant wire profile: the ramp measures the
    // runtime, not the modelled network.
    let mut m = Machine::builder(4)
        .net(NetProfile::instant())
        .reply_deadline(Duration::from_secs(2))
        .launch()
        .unwrap();
    register_services(&m);

    // A short ramp: 200 ms rounds, 100 → 600 rps in 100 rps steps, the
    // IC-suite SLO gates (fail a round past 20% failures or 5 s p99).
    let ramp = RampConfig {
        initial_rps: 100,
        increment_rps: 100,
        max_rps: 600,
        round_duration: Duration::from_millis(200),
        drain_grace: Duration::from_millis(400),
        quiet_timeout: Duration::from_secs(2),
        ..RampConfig::default()
    };

    let report = run_ramp(&m, &WorkloadSpec::mixed(), ramp, 2);
    for r in &report.rounds {
        println!(
            "{:>5} rps: issued {:>4}, ok {:>4}, failed {:>2}, timed out {:>2} \
             | p50 {:>7.2} ms, p99 {:>7.2} ms | spawns {:>5}, migrations {:>4}, \
             trades {:>3} | {}",
            r.rps,
            r.issued,
            r.ok,
            r.failed,
            r.timed_out,
            r.p50_ms,
            r.p99_ms,
            r.machine.spawns,
            r.machine.migrations,
            r.machine.trades,
            r.verdict.label()
        );
    }
    println!("{}", report.summary());

    m.shutdown();
    println!("workload example: OK");
}
