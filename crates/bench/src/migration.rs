//! `BENCH_migration.json` and the paper's E5 table: the one drill that
//! times the two-node ping-pong.
//!
//! The grid is E5's — three wire models × four heap payloads, on two
//! workers with no timer armed.  Three more setups of the instant null hop
//! put the grid's instant null row beside one worker, and beside a machine
//! whose gossip detector is armed (`failure_timeout(2 s)`, default rounds)
//! on one worker and on two: an armed node must hand off and park exactly
//! as an unarmed one does.

use std::time::Duration;

use pm2::NetProfile;

use crate::harness::{migration_breakdown, paper_machine, STAGE_HOPS};
use crate::report::{Row, Table};

/// Modelled wire time one row may spend: a row runs [`STAGE_HOPS`] hops,
/// or as many as fit in this much wire time when the model is slow.
const WIRE_BUDGET: Duration = Duration::from_secs(1);

/// The heap payloads of the grid, bytes.
const PAYLOADS: [usize; 4] = [0, 4 * 1024, 32 * 1024, 256 * 1024];

/// Time one setup of the ping-pong; its row leads with the setup.
fn hop_row(
    net: &'static str,
    profile: NetProfile,
    payload: usize,
    workers: usize,
    armed: bool,
) -> Row {
    let wire = profile.delay_for(payload);
    let hops = if wire.is_zero() {
        STAGE_HOPS
    } else {
        STAGE_HOPS.min((WIRE_BUDGET.as_nanos() / wire.as_nanos()) as usize)
    };
    let mut machine = paper_machine(2, profile).workers(workers);
    if armed {
        machine = machine.failure_timeout(Duration::from_secs(2));
    }
    let row = Row::new()
        .string("net", net)
        .int("payload_bytes", payload)
        .int("workers", workers)
        .bool("armed", armed)
        .append(migration_breakdown(machine, payload, hops));
    println!("migration: {row}");
    row
}

/// Run the grid and the armed setups, print the E5 table and its headline
/// from the rows, and write `BENCH_migration.json` into the current
/// directory (the repo root under `cargo run`).
pub fn write_migration_json() {
    let mut rows = Vec::new();
    let mut e5 = Table::new(
        "E5: one-way thread migration latency (ping-pong, 2 nodes)",
        &[
            "wire model",
            "payload",
            "buffer",
            "µs/migration",
            "paper reference",
        ],
    );
    let mut headline = f64::NAN;
    for (net, profile) in [
        ("instant", NetProfile::instant()),
        ("myrinet_bip", NetProfile::myrinet_bip()),
        ("fast_ethernet", NetProfile::fast_ethernet()),
    ] {
        for payload in PAYLOADS {
            let row = hop_row(net, profile, payload, 2, false);
            let mut reference = "";
            if payload == 0 && net == "myrinet_bip" {
                reference = "paper: < 75 µs; Active Threads: 150 µs";
                headline = row.get("one_way_us");
            }
            e5.row(vec![
                net.to_string(),
                crate::bytes(payload as u64),
                crate::bytes(row.get("bytes_per_migration") as u64),
                crate::us(row.get("one_way_us")),
                reference.into(),
            ]);
            rows.push(row);
        }
    }
    e5.emit("e5_migration");
    println!(
        "headline: null-thread migration = {:.1} µs  (paper < 75 µs → {})",
        headline,
        if headline < 75.0 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
    for (workers, armed) in [(1, false), (1, true), (2, true)] {
        rows.push(hop_row("instant", NetProfile::instant(), 0, workers, armed));
    }

    crate::report::emit_json(
        "BENCH_migration.json",
        "migration",
        &format!(
            "one-way hop latency and per-stage means (pack at the source, wire and unpack at \
             the destination) of a 2-node ping-pong, over every migration of the machine's \
             life; the grid is the paper's E5 (instant, myrinet_bip and fast_ethernet wire \
             models x 0 B to 256 KiB of heap) on 2 workers with no timer armed, each row \
             {} hops or as many as fit in 1 s of modelled wire time (hops says which); the \
             last three rows are the instant null hop on 1 worker, and armed (failure \
             timeout 2 s, default gossip rounds) on 1 and 2 workers; wire time is the \
             calibrated model charged at the receiver; driver_parks / driver_wakeups count \
             doorbell parks and wake-ups of the event-driven drivers and steps_per_hop the \
             scheduler steps per hop, warm-up and launch included (a polling driver would \
             show zero parks and orders of magnitude more steps); {}; {}; {}",
            STAGE_HOPS,
            crate::report::null_hop_note(),
            crate::report::stage_sampling_note(),
            crate::report::one_host_note()
        ),
        &rows,
    );
}
