//! `BENCH_affinity.json`: end-to-end judgment of affinity-aware balancing.
//!
//! Two communication-shaped scenarios run on the modelled Myrinet wire
//! (remote hop ≈ 22 µs, co-located self-send free — so placement, not
//! raw pump speed, decides throughput), each with the balancer's affinity
//! pass **on** vs **off** at p = 4 and p = 8:
//!
//! * **ring** — producer/consumer rings of long-lived threads scattered
//!   round-robin across the machine; each member echo-RPCs the node
//!   hosting its ring successor in a loop.  Load is perfectly balanced
//!   from the start, so the pure-load balancer sees nothing to do and
//!   every hop stays remote; the affinity pass co-locates the rings and
//!   turns hops into self-sends.  The acceptance bar is a *throughput*
//!   win (≥ 1.3× sustained ops/s at p = 8, or a ≥ 2× remote-ratio
//!   reduction at equal throughput) — prettier migration counts don't
//!   count.
//! * **hotspot** — migratable clients on every node hammer one popular
//!   service node.  This drill is SLO-gated: affinity-on must not
//!   regress throughput vs affinity-off (the pass may co-locate clients
//!   with the service when the load guard allows, but must never thrash).
//!
//! Each run warms up until the balancer converges, then measures a
//! steady-state window (`after.since(&before)` of the summed node
//! counters), reporting ops/s,
//! the remote-vs-local RPC message ratio, and the balancer's own
//! counters (moves, affinity moves, probes saved).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::{pm2_rpc_call, pm2_thread_location, pm2_yield};
use pm2::loadbal::BalancerConfig;
use pm2::node::NodeStatsSnapshot;
use pm2::{Machine, NetProfile};
use pm2_workload::{register_services, Echo};

use crate::report::{Row, Value};

/// Members per ring (scattered over min(RING_SIZE, p) distinct nodes).
pub const RING_SIZE: usize = 4;
/// Echo payload bytes for both scenarios.
const PAYLOAD: usize = 64;
/// Cooperative yields between calls: the window in which a member is
/// Ready + migratable and a balancer probe can catch it.
const YIELDS_BETWEEN_CALLS: usize = 16;
/// Balancer convergence time before the measured window.
const WARMUP: Duration = Duration::from_millis(600);
/// The measured steady-state window.
const MEASURE: Duration = Duration::from_millis(500);

fn launch(p: usize) -> Machine {
    let m = Machine::builder(p)
        .net(NetProfile::myrinet_bip())
        .reply_deadline(Duration::from_secs(2))
        .launch()
        .expect("launch");
    register_services(&m);
    m
}

/// Shared state of one looping caller thread.
struct CallerPlan {
    /// Slot of the peer whose hosting node this caller aims at, in
    /// `tids` (ring successor), or a fixed node for the hotspot shape.
    next_slot: Option<usize>,
    fixed_dest: usize,
    fallback_dest: usize,
}

/// Run `placements` as looping callers under a balancer with the
/// affinity pass on or off, and measure the steady-state window.
fn run_callers(
    m: &Machine,
    p: usize,
    scenario: &'static str,
    affinity: bool,
    placements: Vec<(usize, CallerPlan)>,
) -> Row {
    let n = placements.len();
    let tids: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let start = Arc::new(AtomicBool::new(false));
    let run = Arc::new(AtomicBool::new(true));
    let ops = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::with_capacity(n);
    for (home, plan) in placements {
        let (tids2, start2, run2, ops2) = (
            Arc::clone(&tids),
            Arc::clone(&start),
            Arc::clone(&run),
            Arc::clone(&ops),
        );
        let t = m
            .spawn_on(home, move || {
                while !start2.load(Ordering::Acquire) {
                    pm2_yield();
                }
                let payload = vec![0u8; PAYLOAD];
                while run2.load(Ordering::Relaxed) {
                    let dest = match plan.next_slot {
                        Some(slot) => {
                            let next = tids2[slot].load(Ordering::Relaxed);
                            pm2_thread_location(next).unwrap_or(plan.fallback_dest)
                        }
                        None => plan.fixed_dest,
                    };
                    if pm2_rpc_call::<Echo>(dest, payload.clone()).is_ok() {
                        ops2.fetch_add(1, Ordering::Relaxed);
                    }
                    // The migratable window: between calls the member is
                    // Ready and unpinned, so balancer rounds can move it.
                    for _ in 0..YIELDS_BETWEEN_CALLS {
                        pm2_yield();
                    }
                }
            })
            .expect("spawn caller");
        threads.push(t);
    }
    // The host assigned every tid at spawn time: publish them, then fire.
    for (i, t) in threads.iter().enumerate() {
        tids[i].store(t.tid, Ordering::Release);
    }
    let cfg = BalancerConfig {
        affinity,
        ..Default::default()
    };
    let bal = pm2::loadbal::start_balancer(m, cfg).expect("balancer");
    start.store(true, Ordering::Release);

    std::thread::sleep(WARMUP);
    let node_stats = || (0..p).map(|n| m.node_stats(n)).sum::<NodeStatsSnapshot>();
    let before = node_stats();
    let ops0 = ops.load(Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(MEASURE);
    let window_ops = ops.load(Ordering::Relaxed) - ops0;
    let elapsed = t0.elapsed().as_secs_f64();
    let window = node_stats().since(&before);

    run.store(false, Ordering::Relaxed);
    for t in threads {
        m.join(t);
    }
    let balancer = bal.stats();
    bal.stop(m);

    Row::new()
        .string("scenario", scenario)
        .int("p", p)
        .bool("affinity", affinity)
        .int("ops", window_ops)
        .float("ops_per_sec", window_ops as f64 / elapsed, 1)
        .float("window_s", elapsed, 3)
        .int("rpc_local", window.rpc_local)
        .int("rpc_remote", window.rpc_remote)
        .float("remote_ratio", window.remote_ratio(), 4)
        .int("migrations_in_window", window.migrations_in)
        .int("balancer_moves", balancer.moves)
        .int("affinity_moves", balancer.affinity_moves)
        .int("probes_saved", balancer.probes_saved)
}

/// The ring scenario: p rings of [`RING_SIZE`], ring r member j starting
/// on node `(r + j) % p`, each member calling the node hosting its ring
/// successor.
pub fn run_ring(p: usize, affinity: bool) -> Row {
    let mut m = launch(p);
    let mut placements = Vec::new();
    for r in 0..p {
        for j in 0..RING_SIZE {
            let slot_of = |jj: usize| r * RING_SIZE + jj;
            placements.push((
                (r + j) % p,
                CallerPlan {
                    next_slot: Some(slot_of((j + 1) % RING_SIZE)),
                    fixed_dest: 0,
                    fallback_dest: (r + (j + 1) % RING_SIZE) % p,
                },
            ));
        }
    }
    let out = run_callers(&m, p, "ring", affinity, placements);
    m.shutdown();
    out
}

/// The hotspot scenario: two clients per non-hot node, all calling the
/// service hosted on node 0.
pub fn run_hotspot(p: usize, affinity: bool) -> Row {
    let mut m = launch(p);
    let mut placements = Vec::new();
    for node in 1..p {
        for _ in 0..2 {
            placements.push((
                node,
                CallerPlan {
                    next_slot: None,
                    fixed_dest: 0,
                    fallback_dest: 0,
                },
            ));
        }
    }
    let out = run_callers(&m, p, "hotspot", affinity, placements);
    m.shutdown();
    out
}

/// The acceptance verdict for a `scenario`'s affinity-on run against its
/// off twin.
pub fn verdict(scenario: &str, on: &Row, off: &Row) -> &'static str {
    let (on_ops, off_ops) = (on.get("ops_per_sec"), off.get("ops_per_sec"));
    let (on_ratio, off_ratio) = (on.get("remote_ratio"), off.get("remote_ratio"));
    let tput_win = on_ops >= 1.3 * off_ops;
    let ratio_win = on_ops >= 0.95 * off_ops && off_ratio >= 2.0 * on_ratio.max(1e-6);
    match scenario {
        "ring" if tput_win || ratio_win => "pass",
        "ring" => "FAIL",
        // Hotspot is SLO-gated: no regression allowed, wins welcome.
        _ if on_ops >= 0.9 * off_ops => "pass",
        _ => "FAIL",
    }
}

/// Run the full matrix and write `BENCH_affinity.json` into the current
/// directory.  Prints every run and the on-vs-off verdicts; never panics
/// on a miss (CI uploads the JSON either way).
pub fn write_affinity_json() {
    let mut rows = Vec::new();
    for p in [4usize, 8] {
        for scenario in ["ring", "hotspot"] {
            let runner = if scenario == "ring" {
                run_ring
            } else {
                run_hotspot
            };
            let off = runner(p, false).with("verdict", Value::Null);
            println!("affinity: {off}");
            let on = runner(p, true);
            let v = verdict(scenario, &on, &off);
            let on = on.string("verdict", v);
            println!("affinity: {on}");
            rows.push(off);
            rows.push(on);
        }
    }
    crate::report::emit_json(
        "BENCH_affinity.json",
        "affinity",
        "end-to-end throughput and remote-vs-local RPC message ratio for the balancer's \
         affinity pass on vs off, on the modelled Myrinet wire (remote hop ~22 µs, \
         co-located self-send free); ring = scattered producer/consumer rings (acceptance: \
         >=1.3x ops/s or >=2x remote-ratio cut at p=8), hotspot = all-to-one service \
         drill (SLO: no regression); measured over a steady-state window after warmup, \
         balancer counters cover the whole run",
        &rows,
    );
}
