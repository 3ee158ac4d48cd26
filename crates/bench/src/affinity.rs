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
//! steady-state window after `Machine::stats_reset`, reporting ops/s,
//! the remote-vs-local RPC message ratio, and the balancer's own
//! counters (moves, affinity moves, probes saved).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::{pm2_rpc_call, pm2_thread_location, pm2_yield};
use pm2::loadbal::BalancerConfig;
use pm2::{Machine, NetProfile};
use pm2_workload::{register_services, Echo};

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

/// One measured run.
#[derive(Debug, Clone)]
pub struct AffinityOutcome {
    pub scenario: &'static str,
    pub p: usize,
    pub affinity: bool,
    /// Completed echo round trips in the measured window.
    pub ops: u64,
    pub elapsed_s: f64,
    pub ops_per_sec: f64,
    /// RPC-shaped messages that stayed on-node in the window…
    pub rpc_local: u64,
    /// …and those that paid the modelled wire.
    pub rpc_remote: u64,
    /// `rpc_remote / (rpc_local + rpc_remote)` over the window.
    pub remote_ratio: f64,
    /// Migrations that landed during the window (warmup moves excluded).
    pub migrations: u64,
    /// Balancer counters over the whole run (warmup included).
    pub balancer_moves: u64,
    pub affinity_moves: u64,
    pub probes_saved: u64,
}

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

#[allow(clippy::too_many_arguments)]
fn run_callers(
    m: &Machine,
    p: usize,
    scenario: &'static str,
    affinity: bool,
    placements: Vec<(usize, CallerPlan)>,
) -> AffinityOutcome {
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
    m.stats_reset();
    let ops0 = ops.load(Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(MEASURE);
    let window_ops = ops.load(Ordering::Relaxed) - ops0;
    let elapsed = t0.elapsed().as_secs_f64();
    let (mut local, mut remote, mut migs) = (0u64, 0u64, 0u64);
    for node in 0..p {
        let s = m.node_stats(node);
        local += s.rpc_local;
        remote += s.rpc_remote;
        migs += s.migrations_in;
    }

    run.store(false, Ordering::Relaxed);
    for t in threads {
        m.join(t);
    }
    let (moves, aff_moves, probes_saved) = (bal.moves(), bal.affinity_moves(), bal.probes_saved());
    bal.stop(m);

    let total = local + remote;
    AffinityOutcome {
        scenario,
        p,
        affinity,
        ops: window_ops,
        elapsed_s: elapsed,
        ops_per_sec: window_ops as f64 / elapsed,
        rpc_local: local,
        rpc_remote: remote,
        remote_ratio: if total == 0 {
            0.0
        } else {
            remote as f64 / total as f64
        },
        migrations: migs,
        balancer_moves: moves,
        affinity_moves: aff_moves,
        probes_saved,
    }
}

/// The ring scenario: p rings of [`RING_SIZE`], ring r member j starting
/// on node `(r + j) % p`, each member calling the node hosting its ring
/// successor.
pub fn run_ring(p: usize, affinity: bool) -> AffinityOutcome {
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
pub fn run_hotspot(p: usize, affinity: bool) -> AffinityOutcome {
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

/// The acceptance verdict for an affinity-on run against its off twin.
pub fn verdict(on: &AffinityOutcome, off: &AffinityOutcome) -> &'static str {
    let tput_win = on.ops_per_sec >= 1.3 * off.ops_per_sec;
    let ratio_win = on.ops_per_sec >= 0.95 * off.ops_per_sec
        && off.remote_ratio >= 2.0 * on.remote_ratio.max(1e-6);
    match on.scenario {
        "ring" if tput_win || ratio_win => "pass",
        "ring" => "FAIL",
        // Hotspot is SLO-gated: no regression allowed, wins welcome.
        _ if on.ops_per_sec >= 0.9 * off.ops_per_sec => "pass",
        _ => "FAIL",
    }
}

fn row(o: &AffinityOutcome, verdict: Option<&str>) -> String {
    format!(
        "{{\"scenario\": \"{}\", \"p\": {}, \"affinity\": {}, \"ops\": {}, \
         \"ops_per_sec\": {:.1}, \"window_s\": {:.3}, \"rpc_local\": {}, \
         \"rpc_remote\": {}, \"remote_ratio\": {:.4}, \"migrations_in_window\": {}, \
         \"balancer_moves\": {}, \"affinity_moves\": {}, \"probes_saved\": {}, \
         \"verdict\": {}}}",
        o.scenario,
        o.p,
        o.affinity,
        o.ops,
        o.ops_per_sec,
        o.elapsed_s,
        o.rpc_local,
        o.rpc_remote,
        o.remote_ratio,
        o.migrations,
        o.balancer_moves,
        o.affinity_moves,
        o.probes_saved,
        match verdict {
            Some(v) => format!("\"{v}\""),
            None => "null".into(),
        }
    )
}

fn print_outcome(o: &AffinityOutcome) {
    println!(
        "affinity [{} p={} affinity={}]: {:.0} ops/s, remote ratio {:.3} \
         ({} local / {} remote), {} moves ({} affinity), {} probes saved",
        o.scenario,
        o.p,
        o.affinity,
        o.ops_per_sec,
        o.remote_ratio,
        o.rpc_local,
        o.rpc_remote,
        o.balancer_moves,
        o.affinity_moves,
        o.probes_saved
    );
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
            let off = runner(p, false);
            print_outcome(&off);
            let on = runner(p, true);
            print_outcome(&on);
            let v = verdict(&on, &off);
            println!(
                "affinity [{} p={}]: on {:.0} ops/s vs off {:.0} ops/s \
                 (ratio {:.3} vs {:.3}) — {}",
                scenario, p, on.ops_per_sec, off.ops_per_sec, on.remote_ratio, off.remote_ratio, v
            );
            rows.push(row(&off, None));
            rows.push(row(&on, Some(v)));
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
