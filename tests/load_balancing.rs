//! The external load-balancer module: transparent preemptive migration of
//! application threads that contain no migration code (§2's motivation).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pm2::api::*;
use pm2::loadbal::{start_balancer, BalancerConfig};
use pm2::{Machine, MachineBuilder};

/// The test-profile machine on two workers: balancing moves threads
/// between nodes that really run side by side.
fn two_workers(nodes: usize) -> MachineBuilder {
    Machine::builder(nodes).test_profile().workers(2)
}

#[test]
fn balancer_spreads_a_hot_node() {
    let mut m = two_workers(4).launch().unwrap();
    let bal = start_balancer(
        &m,
        BalancerConfig {
            period: Duration::from_millis(1),
            threshold: 1,
            max_moves_per_round: 8,
            ..BalancerConfig::default()
        },
    )
    .unwrap();

    // 16 CPU-ish workers, all dumped on node 0.  They hold at the start
    // line until the balancer has ordered its first migration, so the
    // imbalance cannot evaporate before the balancer's first round (the
    // workers' ~1 ms of work races its 1 ms poll period otherwise).
    let go = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let finished_nodes = Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for i in 0..16usize {
        let fin = Arc::clone(&finished_nodes);
        let go = Arc::clone(&go);
        handles.push(
            m.spawn_on(0, move || {
                while !go.load(Ordering::SeqCst) {
                    pm2_yield();
                }
                // Plain computation + yields; no migration calls.
                let mut acc = i as u64;
                for _ in 0..600 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    pm2_yield();
                }
                fin.lock().unwrap().push((pm2_self(), acc));
            })
            .unwrap(),
        );
    }
    let t0 = std::time::Instant::now();
    while bal.moves() == 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    go.store(true, Ordering::SeqCst);
    for h in handles {
        assert!(!m.join(h).panicked);
    }
    let moves = bal.moves();
    bal.stop(&m);

    let fins = finished_nodes.lock().unwrap();
    assert_eq!(fins.len(), 16);
    let off_node0 = fins.iter().filter(|(n, _)| *n != 0).count();
    assert!(moves > 0, "balancer must have ordered migrations");
    assert!(
        off_node0 >= 4,
        "at least a quarter of the workers should finish off node 0 (got {off_node0}, {moves} moves)"
    );
    m.shutdown();
}

#[test]
fn balancer_is_quiet_on_balanced_load() {
    let mut m = two_workers(2).launch().unwrap();
    let bal = start_balancer(
        &m,
        BalancerConfig {
            period: Duration::from_millis(1),
            threshold: 2,
            max_moves_per_round: 4,
            ..BalancerConfig::default()
        },
    )
    .unwrap();
    let counter = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for node in 0..2 {
        for _ in 0..3 {
            let c = Arc::clone(&counter);
            handles.push(
                m.spawn_on(node, move || {
                    for _ in 0..100 {
                        pm2_yield();
                    }
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap(),
            );
        }
    }
    for h in handles {
        m.join(h);
    }
    assert_eq!(counter.load(Ordering::SeqCst), 6);
    assert_eq!(bal.moves(), 0, "no imbalance → no migrations");
    bal.stop(&m);
    m.shutdown();
}

/// Tentpole acceptance (ISSUE 4): the balancer converges with *batched*
/// commands — at most one `MIGRATE_CMD` per (src, dest) pair per round,
/// each carrying a tid list — and the departures ride migration trains,
/// so the command count stays well below the move count and outgoing
/// migration messages carry more than one thread.
#[test]
fn balancer_batches_commands_and_forms_trains() {
    let mut m = two_workers(4).launch().unwrap();
    let bal = start_balancer(
        &m,
        BalancerConfig {
            period: Duration::from_millis(1),
            threshold: 1,
            max_moves_per_round: 8,
            ..BalancerConfig::default()
        },
    )
    .unwrap();

    // 16 workers dumped on node 0, held at the start line until the
    // balancer's first round has landed (same gating as
    // balancer_spreads_a_hot_node).
    let go = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for i in 0..16usize {
        let go = Arc::clone(&go);
        handles.push(
            m.spawn_on(0, move || {
                while !go.load(Ordering::SeqCst) {
                    pm2_yield();
                }
                let mut acc = i as u64;
                for _ in 0..400 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    pm2_yield();
                }
                std::hint::black_box(acc);
            })
            .unwrap(),
        );
    }
    let t0 = std::time::Instant::now();
    while bal.moves() < 4 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    go.store(true, Ordering::SeqCst);
    for h in handles {
        assert!(!m.join(h).panicked);
    }
    let (moves, cmds, rounds) = (bal.moves(), bal.cmds(), bal.rounds());
    bal.stop(&m);

    assert!(
        moves >= 4,
        "balancer must have spread the hot node: {moves}"
    );
    assert!(rounds > 0);
    assert!(
        cmds < moves,
        "a round must command whole tid lists per (src,dest) pair, not \
         one message per thread ({cmds} cmds for {moves} moves)"
    );
    // The train counters prove departures coalesced: node 0 shipped its
    // threads in fewer messages than threads.  (`moves` also counts later
    // re-balancing off other nodes, so compare node 0 to itself.)
    let s0 = m.node_stats(0);
    assert!(s0.migrations_out >= 4);
    assert!(
        s0.threads_per_message() > 1.0,
        "trains must actually form: {} migrations in {} messages",
        s0.migrations_out,
        s0.trains_out
    );
    m.shutdown();
}

/// A destination that stops answering (here: its driver is hogged by a
/// non-yielding compute thread) only *degrades* balancer rounds — the
/// deadline path must survive the batched plan/ack protocol, the daemon
/// must not wedge, and the load still spreads to the nodes that answer.
#[test]
fn frozen_destination_degrades_round_not_daemon() {
    let mut m = two_workers(3).launch().unwrap();
    // Hog node 2's driver: a thread that never yields for a while.  While
    // it runs, node 2 answers no LOAD_REQ and adopts no trains.
    let hog = m
        .spawn_on(2, || {
            pm2_set_migratable(false);
            let t0 = std::time::Instant::now();
            while t0.elapsed() < Duration::from_millis(400) {
                std::hint::spin_loop();
            }
        })
        .unwrap();
    let bal = start_balancer(
        &m,
        BalancerConfig {
            period: Duration::from_millis(1),
            threshold: 1,
            max_moves_per_round: 8,
            round_deadline: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .unwrap();
    let go = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let finished_nodes = Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..12usize {
        let go = Arc::clone(&go);
        let fin = Arc::clone(&finished_nodes);
        handles.push(
            m.spawn_on(0, move || {
                while !go.load(Ordering::SeqCst) {
                    pm2_yield();
                }
                for _ in 0..300 {
                    pm2_yield();
                }
                fin.lock().unwrap().push(pm2_self());
            })
            .unwrap(),
        );
    }
    let t0 = std::time::Instant::now();
    while bal.moves() == 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    go.store(true, Ordering::SeqCst);
    for h in handles {
        assert!(!m.join(h).panicked);
    }
    assert!(!m.join(hog).panicked);
    let (moves, rounds) = (bal.moves(), bal.rounds());
    // stop() joining proves the daemon never wedged on the frozen node.
    bal.stop(&m);
    assert!(moves > 0, "rounds must degrade, not stall: {rounds} rounds");
    let fins = finished_nodes.lock().unwrap();
    let off_node0 = fins.iter().filter(|&&n| n != 0).count();
    assert!(
        off_node0 >= 2,
        "load must spread to answering nodes (got {off_node0} off node 0)"
    );
    m.shutdown();
}

#[test]
fn non_migratable_threads_stay_put() {
    let mut m = two_workers(2).launch().unwrap();
    let bal = start_balancer(
        &m,
        BalancerConfig {
            period: Duration::from_millis(1),
            threshold: 0,
            max_moves_per_round: 8,
            ..BalancerConfig::default()
        },
    )
    .unwrap();
    let mut handles = Vec::new();
    let pinned_final = Arc::new(AtomicUsize::new(99));
    for i in 0..6usize {
        let pf = Arc::clone(&pinned_final);
        handles.push(
            m.spawn_on(0, move || {
                if i == 0 {
                    // This one pins itself.
                    pm2_set_migratable(false);
                }
                for _ in 0..300 {
                    pm2_yield();
                }
                if i == 0 {
                    pf.store(pm2_self(), Ordering::SeqCst);
                }
            })
            .unwrap(),
        );
    }
    for h in handles {
        m.join(h);
    }
    assert_eq!(
        pinned_final.load(Ordering::SeqCst),
        0,
        "pinned thread never moved"
    );
    bal.stop(&m);
    m.shutdown();
}

/// Hysteresis, end to end (PR 10): a thread equally chatty toward both
/// sides of a 2-node machine nets ≈ 0 remote-messages-saved, so the
/// affinity pass must leave it put — no ping-pong — across hundreds of
/// balancer epochs.  The min-score floor absorbs the ±2 snapshot jitter
/// of strict alternation; the cooldown would brake any stray move.
#[test]
fn symmetric_chatter_settles_under_hysteresis() {
    let mut m = two_workers(2).launch().unwrap();
    pm2_workload::register_services(&m);
    let bal = start_balancer(
        &m,
        BalancerConfig {
            period: Duration::from_millis(1),
            ..BalancerConfig::default()
        },
    )
    .unwrap();
    let run = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let run2 = Arc::clone(&run);
    let chatter = m
        .spawn_on(0, move || {
            let payload = vec![0u8; 32];
            while run2.load(Ordering::SeqCst) {
                // One call to each side per lap: perfectly symmetric
                // traffic, with yield windows in which the thread is
                // visibly Ready + migratable to every probe.
                let _ = pm2_rpc_call::<pm2_workload::Echo>(0, payload.clone());
                let _ = pm2_rpc_call::<pm2_workload::Echo>(1, payload.clone());
                for _ in 0..8 {
                    pm2_yield();
                }
            }
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    run.store(false, Ordering::SeqCst);
    assert!(!m.join(chatter).panicked);
    let (rounds, moves) = (bal.rounds(), bal.moves());
    bal.stop(&m);
    assert!(rounds >= 20, "the balancer must have run many epochs");
    assert!(
        moves <= 1,
        "symmetric chatter must settle: {moves} moves over {rounds} epochs"
    );
    m.shutdown();
}

/// Probe saving (PR 10): with gossip armed, a balancer round skips the
/// LOAD_REQ for peers whose gossiped load hint is younger than one
/// heartbeat and unremarkable, and counts the probe saved.  On an idle
/// machine every hint is both fresh and boring, so savings accrue fast.
#[test]
fn fresh_gossip_hints_save_balancer_probes() {
    let mut m = two_workers(4)
        // Gossip only runs with the failure detector armed on a
        // small machine; fast heartbeats keep the hints fresh.
        .failure_timeout(Duration::from_millis(900))
        .heartbeat_every(Duration::from_millis(2))
        .launch()
        .unwrap();
    let bal = start_balancer(
        &m,
        BalancerConfig {
            period: Duration::from_millis(5),
            ..BalancerConfig::default()
        },
    )
    .unwrap();
    let t0 = std::time::Instant::now();
    while bal.probes_saved() == 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let (rounds, saved, moves) = (bal.rounds(), bal.probes_saved(), bal.moves());
    bal.stop(&m);
    assert!(
        saved > 0,
        "fresh hints must replace probes: {saved} saved over {rounds} rounds"
    );
    assert_eq!(moves, 0, "an idle machine still migrates nothing");
    m.shutdown();
}
