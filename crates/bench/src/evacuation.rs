//! `BENCH_evacuation.json`: bulk-migration (group train) perf trajectory.
//!
//! Measures the ISSUE-4 scenario end to end: 64 threads drained off one
//! node of a 4-node machine, once with migration trains + batched group
//! commands (the default) and once with the pre-train baseline — one
//! thread per `MIGRATE_CMD`, one thread per `MIGRATION` message, each
//! command's ack awaited before the next is sent (`max_train = 1`
//! reproduces the per-thread wire behaviour exactly).
//!
//! Batched evacuation is latency-proportional to the number of
//! *destinations* (one command RTT + one train per destination); the
//! baseline pays k message latencies and k command RTTs.  On the
//! `myrinet_bip` profile the wall-clock gap is expected to be ≥ 3×.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::{Machine, NetProfile};

use crate::harness::paper_area;
use crate::report::Row;

/// Threads evacuated per run.
pub const EVAC_THREADS: usize = 64;

/// What one evacuation run measured.
struct RunStats {
    wall_ms: f64,
    trains: u64,
    threads_per_message: f64,
    commands: u64,
}

/// Drain [`EVAC_THREADS`] threads off node 0 of a 4-node machine and time
/// it.  `batched`: group commands + trains; otherwise the per-thread
/// baseline.
fn evacuate_once(net: NetProfile, batched: bool) -> RunStats {
    let mut m = Machine::builder(4)
        .area(paper_area())
        .net(net)
        .slot_cache(0)
        .max_train(if batched { EVAC_THREADS } else { 1 })
        .launch()
        .expect("launch");

    // The evacuees: plain yield-loops on node 0 until told to finish —
    // Ready at every instant, no migration code of their own.
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for _ in 0..EVAC_THREADS {
        let stop = Arc::clone(&stop);
        workers.push(
            m.spawn_on(0, move || {
                while !stop.load(Ordering::Relaxed) {
                    pm2_yield();
                }
            })
            .expect("spawn worker"),
        );
    }
    let tids: Vec<u64> = workers.iter().map(|w| w.tid).collect();
    while m.node_stats(0).spawns < EVAC_THREADS as u64 {
        std::thread::sleep(Duration::from_micros(200));
    }

    // The evacuator lives on node 1 (so its commands really cross the
    // wire) and spreads the load over nodes 1..3, like a balancer round
    // evacuating a machine node would.
    let started = Arc::new(AtomicBool::new(false));
    let started2 = Arc::clone(&started);
    let n_cmds = if batched { 3 } else { EVAC_THREADS };
    let evacuator = m
        .spawn_on(1, move || {
            pm2_set_migratable(false);
            pm2_set_control_priority(true);
            started2.store(true, Ordering::SeqCst);
            if batched {
                // One group command per destination, full tid list each.
                for dest in 1..4usize {
                    let group: Vec<u64> = tids
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| 1 + i % 3 == dest)
                        .map(|(_, &t)| t)
                        .collect();
                    let accepted = pm2_group_migrate(0, dest, &group).expect("group migrate");
                    assert_eq!(accepted, group.len(), "all evacuees must be accepted");
                }
            } else {
                // The pre-train baseline: one command per thread, each
                // ack awaited before the next command goes out.
                for (i, &tid) in tids.iter().enumerate() {
                    let dest = 1 + i % 3;
                    let accepted = pm2_group_migrate(0, dest, &[tid]).expect("single migrate");
                    assert_eq!(accepted, 1, "evacuee must be accepted");
                }
            }
        })
        .expect("spawn evacuator");
    while !started.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_micros(50));
    }
    let t0 = Instant::now();
    loop {
        let arrived: u64 = (1..4).map(|n| m.node_stats(n).migrations_in).sum();
        if arrived >= EVAC_THREADS as u64 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "evacuation wedged: {arrived}/{EVAC_THREADS} arrived"
        );
        std::thread::sleep(Duration::from_micros(100));
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert!(!m.join(evacuator).panicked);
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        assert!(!m.join(w).panicked);
    }
    let s0 = m.node_stats(0);
    assert_eq!(s0.migrations_out, EVAC_THREADS as u64);
    let stats = RunStats {
        wall_ms,
        trains: s0.trains_out,
        threads_per_message: s0.threads_per_message(),
        commands: n_cmds as u64,
    };
    m.shutdown();
    stats
}

/// Measure batched vs per-thread evacuation on each net profile and
/// write `BENCH_evacuation.json` into the current directory (the repo root
/// under `cargo run`).  Also prints each row to stdout.
pub fn write_evacuation_json() {
    let mut rows = Vec::new();
    for (net, profile) in [
        ("instant", NetProfile::instant()),
        ("myrinet_bip", NetProfile::myrinet_bip()),
        ("fast_ethernet", NetProfile::fast_ethernet()),
    ] {
        let b = evacuate_once(profile, true);
        let p = evacuate_once(profile, false);
        let row = Row::new()
            .string("net", net)
            .int("threads", EVAC_THREADS)
            .float("batched_ms", b.wall_ms, 3)
            .float("per_thread_ms", p.wall_ms, 3)
            .float("speedup", p.wall_ms / b.wall_ms, 2)
            .float("threads_per_message", b.threads_per_message, 2)
            .int("trains", b.trains)
            .int("commands", b.commands);
        println!("evacuation: {row}");
        rows.push(row);
    }
    crate::report::emit_json(
        "BENCH_evacuation.json",
        "evacuation",
        &format!(
            "wall-clock ms to drain 64 threads off node 0 of a 4-node machine onto \
             nodes 1-3, per net profile; batched = group MIGRATE_CMD per destination + \
             migration trains, per_thread = the pre-train baseline (one command and one \
             wire message per thread, serialized acks, max_train=1); threads_per_message \
             > 1 proves trains formed; {}",
            crate::report::one_host_note()
        ),
        &rows,
    );
}
