//! `BENCH_scale.json`: machine-size scaling on the multiplexed executor.
//!
//! One question: what a node and an op cost as the machine grows.  The
//! same four drills run at p = 16, 64 and 256 nodes on one worker pool,
//! with the per-node cost counters that prove the gossip-scale protocols
//! hold — per-node background traffic and per-op driver work must stay
//! *flat-ish* as p grows 16×, and the whole matrix must finish in CI
//! seconds (instant wire profile, gossip detector armed).  Capacity is
//! `throughput`'s question, not this file's.
//!
//! Drills per node count:
//!
//! * **idle** — a quiet second on a freshly launched machine, opening past
//!   half the failure timeout and closing past the whole of it: per-node
//!   driver steps/s, wire messages/s and wire bytes/s.  Under the old
//!   all-pairs beacon messages grew linearly in p (every node messaged
//!   every node each tick); under gossip fan-out they are O(1) per node by
//!   construction, while the detector's digest carries the whole table,
//!   so the bytes grow as p.
//! * **hop** — the migration drill's ping-pong between nodes 0 and 1,
//!   [`STAGE_HOPS`] hops timed inside the thread (µs per hop, plus
//!   steps/parks/messages per hop summed over the two participants — the
//!   other p − 2 nodes' background is not billed to the op).
//! * **evacuation** — 64 yield-loop threads drained off node 0 by group
//!   commands to three destinations (ms total, messages per thread over
//!   the four participants).
//! * **negotiation** — 16 live single-slot acquisitions on node 0 *after*
//!   its own 128-slot share is exhausted, so every measured allocation
//!   must be fed by peers through the decentralized trade economy —
//!   synchronous demand trades against the gossiped-richest peer, with
//!   watermark prefetch disabled so nothing is hidden in the background
//!   (µs per acquire, node-0 cost).  Batched grants keep this O(1)
//!   amortized messages per acquire at any p; contrast the §4.4 global
//!   gather, which stays O(p) and is what multi-slot requests fall back
//!   to under round-robin.
//!
//! The executor claim rides the `workers` column: every row runs with the
//! auto-sized pool (≪ p on any host), so p = 256 machines on a handful of
//! cores is the measurement, not an aspiration.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::node::NodeStatsSnapshot;
use pm2::{AreaConfig, EndpointStatsSnapshot, Machine, NetProfile};

use crate::harness::{ping_pong, STAGE_HOPS};
use crate::report::Row;

/// The tracked machine sizes.
pub const PS: [usize; 3] = [16, 64, 256];

/// Threads drained in the evacuation drill.
pub const SCALE_EVAC_THREADS: usize = 64;

/// Measured slot acquisitions in the negotiation drill.
pub const NEG_ROUNDS: usize = 16;

/// Unmeasured single-slot allocations that exhaust node 0's own share
/// (128 slots) before the measured rounds, so every measured acquisition
/// rides the steady-state demand-trade economy instead of the free local
/// bitmap.
pub const NEG_WARMUP: usize = 160;

/// The failure timeout of the scale-drill machines.
const TIMEOUT: Duration = Duration::from_secs(2);

/// The scale-drill machine: executor pool auto-sized, instant
/// wire, gossip detector armed (50 ms rounds, the default), and
/// an area that keeps per-node slot ownership constant (128 slots each —
/// remote spawns fail typed rather than trade, so the evacuation drill's
/// 64 stacks must fit node 0's own share) as p grows.  The area is a
/// lazy virtual reservation; unused slots cost no memory.
fn launch(p: usize) -> Machine {
    Machine::builder(p)
        .net(NetProfile::instant())
        .area(AreaConfig {
            slot_size: 64 * 1024,
            n_slots: (128 * p).max(256),
        })
        .failure_timeout(TIMEOUT)
        .reply_deadline(Duration::from_secs(5))
        // No watermark prefetch: the negotiation drill measures the
        // *synchronous* demand-trade RTT per acquisition, not how well
        // the background prefetcher hides it (that amortization is the
        // negotiate bench's subject).
        .slot_watermarks(0, 0)
        .launch()
        .expect("launch")
}

/// Node and endpoint counters summed over a node range.
type Counts = (NodeStatsSnapshot, EndpointStatsSnapshot);

fn counts(m: &Machine, nodes: Range<usize>) -> Counts {
    let stats = nodes.clone().map(|n| m.node_stats(n)).sum();
    (stats, nodes.filter_map(|n| m.net_stats(n)).sum())
}

/// What `nodes` counted since `before` (taken over the same range).
fn counts_since(m: &Machine, nodes: Range<usize>, before: &Counts) -> Counts {
    let (stats, net) = counts(m, nodes);
    (stats.since(&before.0), net.since(&before.1))
}

/// Measure one machine size end to end.
pub fn scale_row(p: usize) -> Row {
    eprintln!("scale [p={p}]: launching");
    let launched = Instant::now();
    let mut m = launch(p);
    let workers = m.worker_threads();
    assert!(workers < p.max(2), "the pool must multiplex, not 1:1");

    // -- idle: per-node background cost in a quiet window ------------------
    // It opens past half the timeout, where a detector that probes its
    // suspects would start probing, and closes past the timeout, where a
    // false death would show.
    let opens = TIMEOUT / 2 + Duration::from_millis(100);
    std::thread::sleep(opens.saturating_sub(launched.elapsed()));
    let before = counts(&m, 0..p);
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let (stats, net) = counts_since(&m, 0..p, &before);
    let per_node_s = 1.0 / (t0.elapsed().as_secs_f64() * p as f64);
    let idle_steps_per_node_s = stats.steps as f64 * per_node_s;
    let idle_msgs_per_node_s = net.msgs_sent as f64 * per_node_s;
    let idle_bytes_per_node_s = net.bytes_sent as f64 * per_node_s;
    let dead: Vec<usize> = (0..p).filter(|&n| m.is_node_dead(n)).collect();
    assert!(
        dead.is_empty(),
        "p = {p}: an idle machine declared {dead:?} dead"
    );

    eprintln!("scale [p={p}]: hop drill");
    // -- hop: 0 ↔ 1 ping-pong migration ------------------------------------
    let before = counts(&m, 0..2);
    let hop_us = m
        .run_on(0, || ping_pong(0, STAGE_HOPS))
        .expect("hop workload");
    let (hop, hop_net) = counts_since(&m, 0..2, &before);
    let per_hop = |n: u64| n as f64 / STAGE_HOPS as f64;

    eprintln!("scale [p={p}]: evacuation drill");
    // -- evacuation: drain 64 threads off node 0 ---------------------------
    let stop = Arc::new(AtomicBool::new(false));
    let mut evacuees = Vec::new();
    for _ in 0..SCALE_EVAC_THREADS {
        let stop = Arc::clone(&stop);
        evacuees.push(
            m.spawn_on(0, move || {
                while !stop.load(Ordering::Relaxed) {
                    pm2_yield();
                }
            })
            .expect("spawn evacuee"),
        );
    }
    let tids: Vec<u64> = evacuees.iter().map(|w| w.tid).collect();
    let spawn_t0 = Instant::now();
    while m.node_stats(0).spawns < SCALE_EVAC_THREADS as u64 {
        std::thread::sleep(Duration::from_millis(1));
        if spawn_t0.elapsed() > Duration::from_secs(5) {
            eprintln!(
                "scale [p={p}]: still waiting on spawns: {}/{SCALE_EVAC_THREADS}",
                m.node_stats(0).spawns
            );
            std::thread::sleep(Duration::from_secs(1));
        }
    }
    eprintln!("scale [p={p}]: evacuees spawned, migrating");
    let before = counts(&m, 0..4);
    let t0 = Instant::now();
    m.run_on(1, move || {
        pm2_set_control_priority(true);
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
    })
    .expect("evacuator");
    let evac_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (_, evac_net) = counts_since(&m, 0..4, &before);
    stop.store(true, Ordering::SeqCst);
    for w in evacuees {
        m.join(w);
    }

    eprintln!("scale [p={p}]: negotiation drill");
    // -- negotiation: remote slot acquisitions through the trade economy ---
    // Single-slot blocks big enough that two can never pack into one slot,
    // held live, with node 0's own 128-slot share exhausted first — so
    // every measured acquisition must be fed by peers.  (Multi-slot
    // allocations are deliberately *not* the drill: under the paper's
    // round-robin distribution no node ever owns two contiguous slots, so
    // a 2-slot request bypasses the O(1) trade path and pays the §4.4
    // global gather — O(p) by design, not a protocol regression.)
    // Iso blocks die with their green thread, so the whole warm → measure →
    // free cycle lives in one thread; the host snapshots node-0 counters at
    // the phase boundaries through a pair of atomic handshakes.
    let sz = m.area().slot_size() * 3 / 4;
    // The frees ride inside the measured window on purpose: they are local
    // bitmap work in a single dispatch (a freed slot re-homes to the node
    // the thread is visiting — no wire traffic), whereas a second spin
    // handshake would pollute the step counter for milliseconds.
    let warmed = Arc::new(AtomicBool::new(false));
    let go = Arc::new(AtomicBool::new(false));
    let (w2, g2) = (Arc::clone(&warmed), Arc::clone(&go));
    let negotiator = m
        .spawn_on_ret(0, move || {
            let warm: Vec<*mut u8> = (0..NEG_WARMUP)
                .map(|_| pm2_isomalloc(sz).unwrap())
                .collect();
            w2.store(true, Ordering::SeqCst);
            while !g2.load(Ordering::SeqCst) {
                pm2_yield();
            }
            let mut live = Vec::with_capacity(NEG_ROUNDS);
            let t0 = Instant::now();
            for _ in 0..NEG_ROUNDS {
                live.push(pm2_isomalloc(sz).unwrap());
            }
            let mean = t0.elapsed().as_secs_f64() * 1e6 / NEG_ROUNDS as f64;
            for q in warm.into_iter().chain(live) {
                pm2_isofree(q).unwrap();
            }
            mean
        })
        .expect("spawn negotiator");
    while !warmed.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = counts(&m, 0..1);
    go.store(true, Ordering::SeqCst);
    let neg_us = negotiator.join().expect("negotiation workload");
    let (neg, neg_net) = counts_since(&m, 0..1, &before);
    m.shutdown();
    let per_acquire = |n: u64| n as f64 / NEG_ROUNDS as f64;

    Row::new()
        .int("p", p)
        .int("workers", workers)
        .float("idle_steps_per_node_s", idle_steps_per_node_s, 2)
        .float("idle_msgs_per_node_s", idle_msgs_per_node_s, 2)
        .float("idle_bytes_per_node_s", idle_bytes_per_node_s, 0)
        .int("hops", STAGE_HOPS)
        .float("hop_us", hop_us, 3)
        .float("hop_steps_per_op", per_hop(hop.steps), 3)
        .float("hop_parks_per_op", per_hop(hop.driver_parks), 3)
        .float("hop_msgs_per_op", per_hop(hop_net.msgs_sent), 3)
        .float("evac_ms", evac_ms, 2)
        .float(
            "evac_msgs_per_op",
            evac_net.msgs_sent as f64 / SCALE_EVAC_THREADS as f64,
            2,
        )
        .float("neg_us", neg_us, 2)
        .float("neg_steps_per_op", per_acquire(neg.steps), 2)
        .float("neg_msgs_per_op", per_acquire(neg_net.msgs_sent), 2)
}

/// Run the full size matrix and write `BENCH_scale.json` into the current
/// directory (the repo root under `cargo run`).  Prints each row and the
/// p = 256 / p = 16 per-node cost ratios (the flat-ish acceptance curve).
pub fn write_scale_json() {
    let rows: Vec<Row> = PS
        .iter()
        .map(|&p| {
            let row = scale_row(p);
            println!("scale: {row}");
            row
        })
        .collect();
    let (lo, hi) = (&rows[0], &rows[rows.len() - 1]);
    let ratio = |key: &str| {
        let (a, b) = (lo.get(key), hi.get(key));
        if a > 0.0 {
            b / a
        } else {
            f64::NAN
        }
    };
    println!(
        "scale ratios p={}/p={}: idle msgs/node {:.2}×, idle steps/node {:.2}×, \
         hop steps/op {:.2}×, evac msgs/thread {:.2}×, neg msgs/acquire {:.2}×",
        hi.get("p"),
        lo.get("p"),
        ratio("idle_msgs_per_node_s"),
        ratio("idle_steps_per_node_s"),
        ratio("hop_steps_per_op"),
        ratio("evac_msgs_per_op"),
        ratio("neg_msgs_per_op"),
    );
    crate::report::emit_json(
        "BENCH_scale.json",
        "scale",
        &format!(
            "machine-size scaling on the multiplexed executor (auto worker \
         pool, instant wire profile, gossip detector armed at 2 s / 50 ms rounds): \
         idle_* = per-node background driver steps, wire messages and wire bytes per second \
         in a quiet 1 s window from 1.1 s to 2.1 s after launch, past half the timeout and \
         past all of it, in which no node may be declared dead (gossip is 2 msgs per node \
         per round at every p, a round being 50 ms plus the node's wake-up lateness, so \
         msgs/s sits just under 40; an armed digest is 16 B per peer the sender has heard \
         from, so the bytes grow as p); hop = the migration drill's ping-pong between \
         nodes 0 and 1, hops hops timed inside the thread, its steps, parks and messages \
         per hop counted over the two nodes for the whole run_on (warm-up included); \
         evac_msgs = messages per thread over the four nodes of a 64-thread group \
         evacuation; neg_* = single-slot acquisitions on node 0 past its own share, each \
         fed synchronously by the demand-trade path (watermark prefetch disabled); \
         capacity is BENCH_throughput's question, not this file's; {}",
            crate::report::one_host_note()
        ),
        &rows,
    );
}
