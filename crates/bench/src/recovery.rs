//! Node-death recovery benchmark: gossip-detector latency, spill-log
//! replay + survivor re-adoption, and orphan-slot reclamation, at p = 4
//! and p = 8.
//!
//! The scenario is the chaos drill from ISSUE 7: a machine with a spill
//! directory checkpoints a population of iso-allocating threads on the
//! victim node, two more threads are spawned *after* the checkpoint (so
//! they are unrecoverable by construction), the victim's power cord is
//! pulled **silently**, and the clock runs on three phases:
//!
//! * **detect** — kill → the survivors' gossip detector declares the
//!   corpse dead once its sequence number has stopped moving for the
//!   200 ms timeout (8 rounds of 25 ms; `Machine::wait_node_dead`
//!   observes the broadcast);
//! * **recover** — spill replay + re-adoption `MIGRATION` trains until
//!   every checkpointed thread's location points at a survivor;
//! * **reclaim** — survivor audit + orphan-range grant until the
//!   exclusive-ownership partition closes again.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::Machine;

use crate::report::Row;

/// Run the drill on a fresh machine with `nodes` nodes.  Panics unless
/// every checkpointed thread is recovered and the post-recovery audit
/// passes.
pub fn recovery_drill(nodes: usize) -> Row {
    assert!(nodes >= 2, "recovery needs a survivor");
    let dir = std::env::temp_dir().join(format!(
        "pm2-bench-recovery-{}-p{nodes}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch spill dir");
    let mut m = Machine::builder(nodes)
        .test_profile()
        .reply_deadline(Duration::from_secs(5))
        .spill_dir(&dir)
        .failure_timeout(Duration::from_millis(200))
        .heartbeat_every(Duration::from_millis(25))
        .launch()
        .expect("launch");
    let victim = 1usize;
    let stop = Arc::new(AtomicBool::new(false));

    // Eight iso-allocating loop threads on the victim, checkpointed…
    let mut recovered_handles = Vec::new();
    for i in 0..8u64 {
        let stop = Arc::clone(&stop);
        recovered_handles.push(
            m.spawn_on_ret(victim, move || {
                let cell = pm2::IsoBox::new(0xBEEF00 + i).expect("isomalloc");
                while !stop.load(Ordering::SeqCst) {
                    marcel::yield_now();
                }
                *cell
            })
            .expect("spawn"),
        );
    }
    std::thread::sleep(Duration::from_millis(100));
    let checkpointed = m.checkpoint_node(victim).expect("checkpoint");

    // …and two post-checkpoint threads: unrecoverable by construction.
    let mut lost_handles = Vec::new();
    for _ in 0..2 {
        let stop = Arc::clone(&stop);
        lost_handles.push(
            m.spawn_on_ret(victim, move || {
                while !stop.load(Ordering::SeqCst) {
                    marcel::yield_now();
                }
                0u64
            })
            .expect("spawn"),
        );
    }
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    m.kill_node_silent(victim).expect("kill");
    assert!(
        m.wait_node_dead(victim, Duration::from_secs(30)),
        "the gossip detector must declare the corpse dead"
    );
    let detect_ms = t0.elapsed().as_secs_f64() * 1e3;

    let rep = m.recover_node(victim).expect("recover");

    // Everything resolves: recovered threads finish with their iso value,
    // lost threads fail typed.
    stop.store(true, Ordering::SeqCst);
    for (i, h) in recovered_handles.into_iter().enumerate() {
        if rep.threads_recovered == 8 {
            assert_eq!(h.join().expect("recovered join"), 0xBEEF00 + i as u64);
        } else {
            let _ = h.join();
        }
    }
    for h in lost_handles {
        assert!(h.join().is_err(), "lost threads must fail typed");
    }
    let partition_ok = m.audit().expect("audit").check_partition().is_ok();
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(partition_ok, "post-recovery audit must pass");
    assert_eq!(
        rep.threads_recovered as u32, checkpointed,
        "zero checkpointed threads may be lost"
    );
    Row::new()
        .int("nodes", nodes)
        .int("checkpointed", checkpointed)
        .int("threads_recovered", rep.threads_recovered)
        .int("threads_lost", rep.threads_lost)
        .int("slots_reclaimed", rep.slots_reclaimed)
        .float("detect_ms", detect_ms, 3)
        .float("recover_ms", rep.recovery.as_secs_f64() * 1e3, 3)
        .float("reclaim_ms", rep.reclaim.as_secs_f64() * 1e3, 3)
        .bool("partition_ok", partition_ok)
}

/// Emit `BENCH_recovery.json` at the repo root (p = 4 and p = 8).
pub fn write_recovery_json() {
    let mut rows = Vec::new();
    for nodes in [4usize, 8] {
        let row = recovery_drill(nodes);
        println!("recovery: {row}");
        rows.push(row);
    }
    crate::report::emit_json(
        "BENCH_recovery.json",
        "recovery",
        "node-death drill: silent kill → gossip-detector verdict → spill-log replay + \
         survivor re-adoption → orphan-slot reclamation; detect_ms is kill-to-NODE_DEAD \
         at the host, with a 200 ms failure timeout counted as 8 of the survivors' own \
         25 ms gossip rounds since the corpse's sequence number last advanced (so about \
         the timeout, plus at most a round, less the time since the corpse's last round); \
         recover_ms is replay + re-adoption, reclaim_ms is audit + grant; \
         8 checkpointed threads must all survive, 2 post-checkpoint threads are lost by \
         construction; instant wire profile",
        &rows,
    );
}
