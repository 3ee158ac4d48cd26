//! The multiplexed executor at paper scale (ISSUE 8): machines of 64 and
//! 256 nodes run on a worker pool ≪ p, complete the full
//! spawn/RPC/migrate/join round trips, park when quiescent, shut down by
//! joining the pool without leaking OS threads — and one flooded node
//! cannot starve the other 255.  At p = 64 the gossip detector costs its
//! digests and nothing more.

use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::node::GOSSIP_FANOUT;
use pm2::proto::tag;
use pm2::{AreaConfig, Machine, MachineBuilder};

/// A p-node machine on a two-worker pool, with per-node slot ownership held
/// constant (8 slots each) so spawns at p = 256 don't all funnel through
/// trades.
fn scale_machine(p: usize) -> MachineBuilder {
    Machine::builder(p)
        .test_profile()
        .workers(2)
        .area(AreaConfig {
            slot_size: 64 * 1024,
            n_slots: (8 * p).max(256),
        })
}

/// Live OS threads of this process (Linux) whose name starts with
/// `prefix`: the leak detector for pool joins.  The executor names its
/// workers `pm2-m<pool>-w<i>` with a pool number unique in the process, so
/// a machine's prefix counts its own workers and nobody else's — sibling
/// tests launch machines of their own while this one runs.
fn live_threads(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("listing this process's threads")
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.starts_with(prefix))
        })
        .count()
}

/// Does [`live_threads`] reach `n` within two seconds?  Both edges lag the
/// calls that cause them: a spawned thread names itself once it first runs,
/// and a joined one stays listed until the kernel has reaped it.
fn live_threads_settle_at(prefix: &str, n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while live_threads(prefix) != n && Instant::now() < deadline {
        std::thread::yield_now();
    }
    live_threads(prefix) == n
}

/// Full round trips on a sample of nodes: value-returning spawns that
/// migrate one hop, plus a host RPC, on a machine whose pool is ≪ p.
fn smoke(p: usize) {
    let mut m = scale_machine(p).launch().unwrap();
    assert!(
        m.worker_threads() < p,
        "pool of {} workers for {p} nodes is not multiplexing",
        m.worker_threads()
    );
    // Green threads run on the workers: ask one for its name.
    let worker = m
        .run_on(0, || std::thread::current().name().map(str::to_owned))
        .unwrap()
        .expect("executor workers are named");
    let prefix = &worker[..=worker.rfind('w').expect("pm2-m<pool>-w<i>")];
    assert!(live_threads_settle_at(prefix, m.worker_threads()));
    // Spawn/migrate/join on a spread of nodes (every p/8th).
    let mut handles = Vec::new();
    for i in 0..8usize {
        let node = i * p / 8;
        handles.push(
            m.spawn_on_ret(node, move || {
                pm2_migrate((pm2_self() + 1) % pm2_nodes()).unwrap();
                pm2_self() as u64
            })
            .unwrap(),
        );
    }
    for (i, h) in handles.into_iter().enumerate() {
        let node = i * p / 8;
        assert_eq!(h.join().unwrap(), ((node + 1) % p) as u64);
    }
    // A host RPC to the last node (the far end of the fabric).
    assert_eq!(m.run_on(p - 1, || 6 * 7).unwrap(), 42);
    // Shutdown joins the pool: no worker outlives the machine.
    m.shutdown();
    assert!(
        live_threads_settle_at(prefix, 0),
        "{} workers leaked past shutdown",
        live_threads(prefix)
    );
}

#[test]
fn executor_p64_smoke() {
    smoke(64);
}

#[test]
fn executor_p256_smoke() {
    smoke(256);
}

#[test]
fn quiescent_p256_machine_parks_its_workers() {
    // Gossip is on (p > 16), so idle nodes still tick at the heartbeat
    // cadence — the machine must idle at that bounded rate, not spin.
    let mut m = scale_machine(256)
        .heartbeat_every(Duration::from_millis(100))
        .launch()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300)); // settle
    let before: Vec<_> = (0..256).map(|n| m.node_stats(n)).collect();
    std::thread::sleep(Duration::from_millis(400));
    for (node, s0) in before.iter().enumerate() {
        let s1 = m.node_stats(node);
        assert!(s1.driver_parks >= 1, "node {node} never parked: {s1:?}");
        // ~4 gossip ticks in the window; each is a handful of steps
        // (pump + fault tick + a couple of digest merges).  64 bounds
        // "ticking" far below "spinning" even under CI jitter.
        assert!(
            s1.steps - s0.steps <= 64,
            "node {node} stepped {} times in a quiet 400 ms window — spinning?",
            s1.steps - s0.steps
        );
    }
    // A parked machine still answers promptly.
    let t0 = Instant::now();
    assert_eq!(m.run_on(200, || 1 + 1).unwrap(), 2);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "wake-from-park took {:?}",
        t0.elapsed()
    );
    m.shutdown();
}

/// Per node, (gossip rounds run, messages sent).
fn gossip_counts(m: &Machine) -> Vec<(u64, u64)> {
    (0..m.nodes())
        .map(|n| {
            let sent = m.net_stats(n).expect("a node's endpoint").msgs_sent;
            (m.node_stats(n).gossip_rounds, sent)
        })
        .collect()
}

/// The gossip detector at scale (1 s timeout, 25 ms rounds, p = 64).  Past
/// half the timeout, where a probing detector starts probing the peers it
/// has not heard from, a quiet machine sends its digests and nothing else —
/// `GOSSIP_FANOUT` messages per node per round — and declares nobody dead;
/// a silent corpse is declared dead within the timeout plus a few rounds.
#[test]
fn the_gossip_detector_at_p64_sends_only_digests_and_finds_a_silent_corpse() {
    let (timeout, round) = (Duration::from_secs(1), Duration::from_millis(25));
    let launched = Instant::now();
    let mut m = scale_machine(64)
        .failure_timeout(timeout)
        .heartbeat_every(round)
        .launch()
        .unwrap();
    std::thread::sleep((timeout / 2 + 2 * round).saturating_sub(launched.elapsed()));
    let before = gossip_counts(&m);
    std::thread::sleep((timeout * 3 / 2).saturating_sub(launched.elapsed()));
    let after = gossip_counts(&m);
    let fanout = GOSSIP_FANOUT as u64;
    for (node, (&(r0, s0), &(r1, s1))) in before.iter().zip(&after).enumerate() {
        let (rounds, sent) = (r1 - r0, s1 - s0);
        assert!(rounds > 0, "node {node} ran no gossip round in the window");
        // A read can land between a round's count and its sends, so each
        // end of the window may be short by up to one round's digests.
        assert!(
            sent.abs_diff(fanout * rounds) <= fanout,
            "node {node} sent {sent} messages in {rounds} rounds"
        );
    }
    let dead: Vec<usize> = (0..64).filter(|&n| m.is_node_dead(n)).collect();
    assert!(dead.is_empty(), "a quiet machine declared {dead:?} dead");

    let victim = 37;
    let bound = timeout + 12 * round;
    let t0 = Instant::now();
    m.kill_node_silent(victim).unwrap();
    assert!(
        m.wait_node_dead(victim, bound),
        "the silent corpse was not declared dead within {bound:?}"
    );
    eprintln!("p = 64: silent kill declared dead after {:?}", t0.elapsed());
    m.shutdown();
}

#[test]
fn flooded_node_does_not_starve_the_quiet_ones() {
    // One node buried under junk; RPCs to a sample of the
    // other 255 must still complete promptly — the fairness budget swaps
    // the flooded node to the back of the queue every 32 steps.
    let mut m = scale_machine(256).launch().unwrap();
    for _ in 0..10_000 {
        m.inject_raw(7, tag::RPC_RESP, vec![0u8; 8]).unwrap();
    }
    let mut worst = Duration::ZERO;
    for i in 0..16usize {
        let node = 16 * i + 9; // spread over the quiet nodes, skip 7
        let t0 = Instant::now();
        assert_eq!(m.run_on(node, move || node as u64).unwrap(), node as u64);
        worst = worst.max(t0.elapsed());
    }
    assert!(
        worst < Duration::from_secs(5),
        "idle-node RPC took {worst:?} behind the flood"
    );
    m.shutdown();
}
