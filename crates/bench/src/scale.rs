//! `BENCH_scale.json`: machine-size scaling on the multiplexed executor.
//!
//! The ISSUE-8 trajectory: the same four drills at p = 16, 64 and 256
//! nodes on one worker pool, with the per-node cost counters that prove
//! the gossip-scale protocols hold — per-node background traffic and
//! per-op driver work must stay *flat-ish* as p grows 16×, and the whole
//! matrix must finish in CI seconds (instant wire profile, failure
//! detector armed so liveness + gossip + silence scans are all on).
//!
//! Drills per node count:
//!
//! * **idle** — a quiet window on a freshly launched machine: per-node
//!   driver steps/s and wire messages/s.  Under the old all-pairs beacon
//!   this grew linearly in p (every node messaged every node each tick);
//!   under gossip fan-out it is O(1) per node by construction.
//! * **hop** — 100 ping-pong migrations between nodes 0 and 1 (µs per
//!   hop, plus steps/parks/messages per hop summed over the two
//!   participants — the other p − 2 nodes' background is not billed to
//!   the op).
//! * **evacuation** — 64 yield-loop threads drained off node 0 by group
//!   commands to three destinations (ms total, per-thread cost over the
//!   four participants).
//! * **negotiation** — 16 live single-slot acquisitions on node 0 *after*
//!   its own 128-slot share is exhausted, so every measured allocation
//!   must be fed by peers through the decentralized trade economy —
//!   synchronous demand trades against the gossiped-richest peer, with
//!   watermark prefetch disabled so nothing is hidden in the background
//!   (µs per acquire, node-0 cost).  Batched grants keep this O(1)
//!   amortized messages per acquire at any p; contrast the §4.4 global
//!   gather, which stays O(p) and is what multi-slot requests fall back
//!   to under round-robin.
//! * **workload** — the pm2-workload open-loop ramp (ping-pong RPC mix,
//!   uniform targeting over all p nodes), SLO-gated: the max sustainable
//!   RPS the machine sustains at this size.
//!
//! The executor claim rides the `workers` column: every row runs with the
//! auto-sized pool (≪ p on any host), so p = 256 machines on a handful of
//! cores is the measurement, not an aspiration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::{AreaConfig, Machine, NetProfile};
use pm2_workload::{register_services, run_ramp, RampConfig, WorkloadSpec};

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

/// Migration round trips in the hop drill.
pub const HOP_PAIRS: usize = 100;

/// One measured machine size.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    pub p: usize,
    /// Executor pool size actually used (auto-sized; the point is ≪ p).
    pub workers: usize,
    pub idle_steps_per_node_s: f64,
    pub idle_msgs_per_node_s: f64,
    pub hop_us: f64,
    pub hop_steps_per_op: f64,
    pub hop_parks_per_op: f64,
    pub hop_msgs_per_op: f64,
    pub evac_ms: f64,
    pub evac_steps_per_op: f64,
    pub evac_msgs_per_op: f64,
    pub neg_us: f64,
    pub neg_steps_per_op: f64,
    pub neg_msgs_per_op: f64,
    pub max_rps: Option<u64>,
    pub rps_rounds: usize,
}

/// The scale-drill machine: executor pool auto-sized, instant
/// wire, detector armed so the full gossip/suspicion machinery runs, and
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
        .failure_timeout(Duration::from_secs(2))
        .reply_deadline(Duration::from_secs(5))
        // No watermark prefetch: the negotiation drill measures the
        // *synchronous* demand-trade RTT per acquisition, not how well
        // the background prefetcher hides it (that amortization is the
        // negotiate bench's subject).
        .slot_watermarks(0, 0)
        .launch()
        .expect("launch")
}

/// Sum (steps, driver_parks) over a node range.
fn steps_parks(m: &Machine, nodes: std::ops::Range<usize>) -> (u64, u64) {
    nodes.fold((0, 0), |(s, k), n| {
        let st = m.node_stats(n);
        (s + st.steps, k + st.driver_parks)
    })
}

/// Sum endpoint messages sent over a node range.
fn msgs_sent(m: &Machine, nodes: std::ops::Range<usize>) -> u64 {
    nodes
        .filter_map(|n| m.net_stats(n))
        .map(|s| s.msgs_sent)
        .sum()
}

/// Measure one machine size end to end.
pub fn scale_row(p: usize) -> ScaleRow {
    eprintln!("scale [p={p}]: launching");
    let mut m = launch(p);
    let workers = m.worker_threads();
    assert!(workers < p.max(2), "the pool must multiplex, not 1:1");

    // -- idle: per-node background cost in a quiet window ------------------
    std::thread::sleep(Duration::from_millis(300)); // settle gossip/detector
    m.stats_reset();
    let msgs0 = msgs_sent(&m, 0..p);
    let window = Duration::from_millis(700);
    std::thread::sleep(window);
    let (steps, _) = steps_parks(&m, 0..p);
    let msgs = msgs_sent(&m, 0..p) - msgs0;
    let per_node_s = 1.0 / (window.as_secs_f64() * p as f64);
    let idle_steps_per_node_s = steps as f64 * per_node_s;
    let idle_msgs_per_node_s = msgs as f64 * per_node_s;

    eprintln!("scale [p={p}]: hop drill");
    // -- hop: 0 ↔ 1 ping-pong migration ------------------------------------
    m.stats_reset();
    let msgs0 = msgs_sent(&m, 0..2);
    let t0 = Instant::now();
    m.run_on(0, || {
        for _ in 0..HOP_PAIRS {
            pm2_migrate(1).unwrap();
            pm2_migrate(0).unwrap();
        }
    })
    .expect("hop workload");
    let ops = (2 * HOP_PAIRS) as f64;
    let hop_us = t0.elapsed().as_secs_f64() * 1e6 / ops;
    let (steps, parks) = steps_parks(&m, 0..2);
    let hop_steps_per_op = steps as f64 / ops;
    let hop_parks_per_op = parks as f64 / ops;
    let hop_msgs_per_op = (msgs_sent(&m, 0..2) - msgs0) as f64 / ops;

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
    m.stats_reset();
    let msgs0 = msgs_sent(&m, 0..4);
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
    let (steps, _) = steps_parks(&m, 0..4);
    let evac_steps_per_op = steps as f64 / SCALE_EVAC_THREADS as f64;
    let evac_msgs_per_op = (msgs_sent(&m, 0..4) - msgs0) as f64 / SCALE_EVAC_THREADS as f64;
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
    m.stats_reset();
    let msgs0 = msgs_sent(&m, 0..1);
    go.store(true, Ordering::SeqCst);
    let neg_us = negotiator.join().expect("negotiation workload");
    let (steps, _) = steps_parks(&m, 0..1);
    let neg_msgs_per_op = (msgs_sent(&m, 0..1) - msgs0) as f64 / NEG_ROUNDS as f64;
    let neg_steps_per_op = steps as f64 / NEG_ROUNDS as f64;

    eprintln!("scale [p={p}]: workload ramp");
    // -- workload: SLO-gated max sustainable RPS ---------------------------
    register_services(&m);
    let ramp = RampConfig {
        initial_rps: 150,
        increment_rps: 150,
        max_rps: 450,
        round_duration: Duration::from_millis(250),
        drain_grace: Duration::from_millis(300),
        quiet_timeout: Duration::from_secs(3),
        ..RampConfig::default()
    };
    let report = run_ramp(&m, &WorkloadSpec::pingpong_rpc(64), ramp, 2);
    m.shutdown();

    ScaleRow {
        p,
        workers,
        idle_steps_per_node_s,
        idle_msgs_per_node_s,
        hop_us,
        hop_steps_per_op,
        hop_parks_per_op,
        hop_msgs_per_op,
        evac_ms,
        evac_steps_per_op,
        evac_msgs_per_op,
        neg_us,
        neg_steps_per_op,
        neg_msgs_per_op,
        max_rps: report.max_sustainable_rps,
        rps_rounds: report.rounds.len(),
    }
}

/// Run the full size matrix and write `BENCH_scale.json` into the current
/// directory (the repo root under `cargo run`).  Prints each row and the
/// p = 256 / p = 16 per-node cost ratios (the flat-ish acceptance curve).
pub fn write_scale_json() {
    let rows: Vec<ScaleRow> = PS.iter().map(|&p| scale_row(p)).collect();
    let mut out = Vec::new();
    for r in &rows {
        println!(
            "scale [p={} workers={}]: idle {:.1} steps/s {:.1} msgs/s per node; \
             hop {:.1} µs ({:.1} steps, {:.1} msgs/op); evac {:.1} ms \
             ({:.1} steps/thread); neg {:.1} µs ({:.1} msgs/acquire); max {} rps",
            r.p,
            r.workers,
            r.idle_steps_per_node_s,
            r.idle_msgs_per_node_s,
            r.hop_us,
            r.hop_steps_per_op,
            r.hop_msgs_per_op,
            r.evac_ms,
            r.evac_steps_per_op,
            r.neg_us,
            r.neg_msgs_per_op,
            r.max_rps
                .map(|v| v.to_string())
                .unwrap_or_else(|| "<none>".into()),
        );
        out.push(format!(
            "{{\"p\": {}, \"workers\": {}, \"idle_steps_per_node_s\": {:.2}, \
             \"idle_msgs_per_node_s\": {:.2}, \"hop_us\": {:.2}, \
             \"hop_steps_per_op\": {:.2}, \"hop_parks_per_op\": {:.2}, \
             \"hop_msgs_per_op\": {:.2}, \"evac_ms\": {:.2}, \
             \"evac_steps_per_op\": {:.2}, \"evac_msgs_per_op\": {:.2}, \
             \"neg_us\": {:.2}, \"neg_steps_per_op\": {:.2}, \
             \"neg_msgs_per_op\": {:.2}, \"max_rps\": {}, \"rps_rounds\": {}}}",
            r.p,
            r.workers,
            r.idle_steps_per_node_s,
            r.idle_msgs_per_node_s,
            r.hop_us,
            r.hop_steps_per_op,
            r.hop_parks_per_op,
            r.hop_msgs_per_op,
            r.evac_ms,
            r.evac_steps_per_op,
            r.evac_msgs_per_op,
            r.neg_us,
            r.neg_steps_per_op,
            r.neg_msgs_per_op,
            r.max_rps
                .map(|v| v.to_string())
                .unwrap_or_else(|| "null".into()),
            r.rps_rounds,
        ));
    }
    let (lo, hi) = (&rows[0], &rows[rows.len() - 1]);
    let ratio = |a: f64, b: f64| if a > 0.0 { b / a } else { f64::NAN };
    println!(
        "scale ratios p={}/p={}: idle msgs/node {:.2}×, idle steps/node {:.2}×, \
         hop steps/op {:.2}×, evac msgs/thread {:.2}×, neg msgs/acquire {:.2}×",
        hi.p,
        lo.p,
        ratio(lo.idle_msgs_per_node_s, hi.idle_msgs_per_node_s),
        ratio(lo.idle_steps_per_node_s, hi.idle_steps_per_node_s),
        ratio(lo.hop_steps_per_op, hi.hop_steps_per_op),
        ratio(lo.evac_msgs_per_op, hi.evac_msgs_per_op),
        ratio(lo.neg_msgs_per_op, hi.neg_msgs_per_op),
    );
    crate::report::emit_json(
        "BENCH_scale.json",
        "scale",
        &format!(
            "machine-size scaling on the multiplexed executor (auto worker \
         pool, instant wire profile, failure detector armed at 2 s / 50 ms heartbeats): \
         idle_* = per-node background driver steps and wire messages per second in a \
         quiet 700 ms window that closes one second after launch (gossip is 2 msgs per \
         node per round at every p; at p = 256 the window's last round can also be the first \
         of the detector's suspicion probes, due timeout / 2 after launch, and a node whose \
         round no longer coincides with its peers' takes two steps per digest received \
         instead of merging it into its own round's step); hop/evac/neg \
         costs are per-op deltas over the participating nodes only; evac_steps includes \
         the evacuees' own yield-loop spinning and so tracks drill duration, not p — \
         evac_msgs is the scalability signal; neg_* = single-slot acquisitions on node 0 \
         past its own share, each fed synchronously by the demand-trade path (watermark \
         prefetch disabled); max_rps from the \
         SLO-gated pm2-workload ping-pong ramp, uniform targeting over all p nodes; {}",
            crate::report::one_host_note()
        ),
        &out,
    );
}
