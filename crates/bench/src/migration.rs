//! `BENCH_migration.json`: the per-stage migration breakdown trajectory.

use pm2::NetProfile;

use crate::harness::migration_breakdown;

/// Emit `BENCH_migration.json` at the repo root: the per-stage migration
/// breakdown (pack / wire / unpack) plus throughput, starting the
/// machine-readable perf trajectory (one such file per tracked benchmark).
pub fn write_migration_json() {
    let mut rows = Vec::new();
    for (name, net) in [
        ("instant", NetProfile::instant()),
        ("myrinet_bip", NetProfile::myrinet_bip()),
    ] {
        for payload in [0usize, 32 * 1024] {
            let b = migration_breakdown(net, payload, 400);
            println!(
                "migration [{name}, {payload} B]: {:.1} µs one-way \
                 (pack {:.2} + wire {:.2} + unpack {:.2}), {:.0}/s, {} B, \
                 pool allocs {} / reuses {}",
                b.one_way_us,
                b.pack_us,
                b.wire_us,
                b.unpack_us,
                b.migrations_per_sec,
                b.bytes_per_migration,
                b.pool_allocs,
                b.pool_reuses
            );
            rows.push(format!(
                "{{\"net\": \"{name}\", \"payload_bytes\": {}, \"hops\": {}, \
                 \"one_way_us\": {:.3}, \"pack_us\": {:.3}, \"wire_us\": {:.3}, \
                 \"unpack_us\": {:.3}, \"bytes_per_migration\": {}, \
                 \"migrations_per_sec\": {:.1}, \"pool_allocs\": {}, \
                 \"pool_reuses\": {}}}",
                b.payload,
                b.hops,
                b.one_way_us,
                b.pack_us,
                b.wire_us,
                b.unpack_us,
                b.bytes_per_migration,
                b.migrations_per_sec,
                b.pool_allocs,
                b.pool_reuses
            ));
        }
    }
    crate::report::emit_json(
        "BENCH_migration.json",
        "migration",
        &format!(
            "per-stage means over all migrations in a 2-node ping-pong; wire time is the \
             calibrated model charged at the receiver; {}",
            crate::report::one_host_note()
        ),
        &rows,
    );
}
