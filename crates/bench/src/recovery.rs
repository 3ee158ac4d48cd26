//! Node-death recovery benchmark: heartbeat detection latency, spill-log
//! replay + survivor re-adoption, and orphan-slot reclamation, at p = 4
//! and p = 8.
//!
//! The scenario is the chaos drill from ISSUE 7: a machine with a spill
//! directory checkpoints a population of iso-allocating threads on the
//! victim node, two more threads are spawned *after* the checkpoint (so
//! they are unrecoverable by construction), the victim's power cord is
//! pulled **silently**, and the clock runs on three phases:
//!
//! * **detect** — kill → the survivors' heartbeat detector declares the
//!   corpse dead (`Machine::wait_node_dead` observes the broadcast);
//! * **recover** — spill replay + re-adoption `MIGRATION` trains until
//!   every checkpointed thread's location points at a survivor;
//! * **reclaim** — survivor audit + orphan-range grant until the
//!   exclusive-ownership partition closes again.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::Machine;

/// One recovery drill's measurements.
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// Node count.
    pub nodes: usize,
    /// Threads covered by the pre-kill checkpoint.
    pub checkpointed: u32,
    /// Threads re-adopted onto survivors.
    pub threads_recovered: usize,
    /// Threads lost (spawned after the checkpoint, by construction).
    pub threads_lost: usize,
    /// Orphaned slots granted back to a survivor.
    pub slots_reclaimed: usize,
    /// Silent kill → NODE_DEAD observed at the host.
    pub detect_ms: f64,
    /// Spill replay + re-adoption of every checkpointed thread.
    pub recover_ms: f64,
    /// Survivor audit + orphan-slot grant.
    pub reclaim_ms: f64,
    /// Did the post-recovery audit pass the exclusive-ownership check?
    pub partition_ok: bool,
}

/// Run the drill on a fresh machine with `nodes` nodes.
pub fn recovery_drill(nodes: usize) -> RecoveryRun {
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
        "heartbeat detector must declare the corpse dead"
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

    RecoveryRun {
        nodes,
        checkpointed,
        threads_recovered: rep.threads_recovered,
        threads_lost: rep.threads_lost,
        slots_reclaimed: rep.slots_reclaimed,
        detect_ms,
        recover_ms: rep.recovery.as_secs_f64() * 1e3,
        reclaim_ms: rep.reclaim.as_secs_f64() * 1e3,
        partition_ok,
    }
}

/// Emit `BENCH_recovery.json` at the repo root (p = 4 and p = 8).
pub fn write_recovery_json() {
    let mut rows = Vec::new();
    for nodes in [4usize, 8] {
        let r = recovery_drill(nodes);
        println!(
            "recovery [p={}]: detect {:.1} ms, recover {:.1} ms, reclaim {:.2} ms — \
             {} recovered / {} lost / {} slots reclaimed, partition {}",
            r.nodes,
            r.detect_ms,
            r.recover_ms,
            r.reclaim_ms,
            r.threads_recovered,
            r.threads_lost,
            r.slots_reclaimed,
            if r.partition_ok { "ok" } else { "BROKEN" }
        );
        assert!(r.partition_ok, "post-recovery audit must pass");
        assert_eq!(
            r.threads_recovered as u32, r.checkpointed,
            "zero checkpointed threads may be lost"
        );
        rows.push(format!(
            "{{\"nodes\": {}, \"checkpointed\": {}, \"threads_recovered\": {}, \
             \"threads_lost\": {}, \"slots_reclaimed\": {}, \"detect_ms\": {:.3}, \
             \"recover_ms\": {:.3}, \"reclaim_ms\": {:.3}, \"partition_ok\": {}}}",
            r.nodes,
            r.checkpointed,
            r.threads_recovered,
            r.threads_lost,
            r.slots_reclaimed,
            r.detect_ms,
            r.recover_ms,
            r.reclaim_ms,
            r.partition_ok
        ));
    }
    crate::report::emit_json(
        "BENCH_recovery.json",
        "recovery",
        "node-death drill: silent kill → heartbeat detection → spill-log replay + \
         survivor re-adoption → orphan-slot reclamation; detect_ms is kill-to-NODE_DEAD \
         at the host, recover_ms is replay + re-adoption, reclaim_ms is audit + grant; \
         8 checkpointed threads must all survive, 2 post-checkpoint threads are lost by \
         construction; instant wire profile",
        &rows,
    );
}
