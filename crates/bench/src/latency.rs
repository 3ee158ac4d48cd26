//! `BENCH_latency.json`: the poll-latency perf trajectory.
//!
//! Records what the event-driven driver core is worth: one-way migration
//! hop latency per net profile together with the driver wake-up counters
//! that prove the latency comes from doorbell wake-ups, not polling (a
//! polling driver shows a huge `steps_per_hop` and zero parks; the
//! event-driven one parks roughly once per hop).  The PR-2 polled baseline
//! measured ~1,079 µs one-way on the `instant` profile — pure driver
//! latency, since pack+unpack cost ~2.5 µs.

use pm2::NetProfile;

use crate::harness::migration_breakdown;

/// One measured profile row of [`write_latency_json`].
#[derive(Debug, Clone)]
pub struct LatencyRow {
    pub net: &'static str,
    pub one_way_us: f64,
    pub pack_us: f64,
    pub wire_us: f64,
    pub unpack_us: f64,
    pub driver_parks: u64,
    pub driver_wakeups: u64,
    pub steps_per_hop: f64,
    pub hops: usize,
}

/// Measure the zero-payload ping-pong on each net profile.
pub fn latency_rows(hops: usize) -> Vec<LatencyRow> {
    [
        ("instant", NetProfile::instant()),
        ("myrinet_bip", NetProfile::myrinet_bip()),
    ]
    .into_iter()
    .map(|(net, profile)| {
        let b = migration_breakdown(profile, 0, hops);
        LatencyRow {
            net,
            one_way_us: b.one_way_us,
            pack_us: b.pack_us,
            wire_us: b.wire_us,
            unpack_us: b.unpack_us,
            driver_parks: b.driver_parks,
            driver_wakeups: b.driver_wakeups,
            steps_per_hop: b.steps as f64 / b.hops as f64,
            hops: b.hops,
        }
    })
    .collect()
}

/// Run the latency benchmark and write `BENCH_latency.json` into the
/// current directory (the repo root under `cargo run`).  Also prints each
/// row to stdout.
pub fn write_latency_json() {
    let rows = latency_rows(400);
    let mut out = Vec::new();
    for r in &rows {
        println!(
            "latency [{}]: {:.1} µs one-way (pack {:.2} + wire {:.2} + unpack {:.2}), \
             {} parks / {} wakeups over {} hops, {:.1} steps/hop",
            r.net,
            r.one_way_us,
            r.pack_us,
            r.wire_us,
            r.unpack_us,
            r.driver_parks,
            r.driver_wakeups,
            r.hops,
            r.steps_per_hop
        );
        out.push(format!(
            "{{\"net\": \"{}\", \"hops\": {}, \"one_way_us\": {:.3}, \
             \"pack_us\": {:.3}, \"wire_us\": {:.3}, \"unpack_us\": {:.3}, \
             \"driver_parks\": {}, \"driver_wakeups\": {}, \"steps_per_hop\": {:.1}}}",
            r.net,
            r.hops,
            r.one_way_us,
            r.pack_us,
            r.wire_us,
            r.unpack_us,
            r.driver_parks,
            r.driver_wakeups,
            r.steps_per_hop
        ));
    }
    crate::report::emit_json(
        "BENCH_latency.json",
        "latency",
        &format!(
            "one-way hop latency of a zero-payload 2-node ping-pong (auto worker pool) per \
             net profile; driver_parks/driver_wakeups count doorbell parks of the \
             event-driven drivers — a polling driver would show zero parks and orders of \
             magnitude more steps_per_hop; {}",
            crate::report::one_host_note()
        ),
        &out,
    );
}
