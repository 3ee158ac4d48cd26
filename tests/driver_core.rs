//! The event-driven driver core, observed from outside: quiescent
//! machines park their drivers (near-zero wake-ups, no spinning), parked
//! drivers wake promptly on traffic, and a flood of junk messages delays
//! shutdown or negotiation behind it only by bounded pumps.  Machines here
//! run on the test profile's one worker (what `_deterministic` in a test
//! name means) unless the assertion needs two nodes running at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::node::{NodeStatsSnapshot, PUMP_BUDGET};
use pm2::proto::tag;
use pm2::{AreaConfig, Machine, MachineBuilder, Pm2Config, Pm2Error, Service};

/// A probe's timeout: no reply within its one reply deadline.
const PROBE_TIMEOUT: Pm2Error = Pm2Error::Timeout { op: "load probe" };

/// `b` with the failure detector armed, but no gossip round due while a
/// test runs: an armed timer that never fires.
fn armed(b: MachineBuilder) -> MachineBuilder {
    b.failure_timeout(Duration::from_secs(600))
        .heartbeat_every(Duration::from_secs(10))
}

/// Junk RPC_RESP bytes, dropped on handling (no pending caller), so floods
/// exercise the queueing layer only.
fn flood(m: &Machine, node: usize, count: usize) {
    for _ in 0..count {
        m.inject_raw(node, tag::RPC_RESP, vec![0u8; 8]).unwrap();
    }
}

#[test]
fn quiescent_deterministic_machine_parks_its_driver() {
    // The default configuration: nothing is armed, so no node names an
    // instant when it parks and nothing steps it again.
    let mut m = Machine::builder(16).launch().unwrap();
    // Let the drivers reach their parks, then watch a quiet window.
    std::thread::sleep(Duration::from_millis(100));
    let before: Vec<_> = (0..16).map(|n| m.node_stats(n)).collect();
    std::thread::sleep(Duration::from_secs(1));
    for (node, s0) in before.iter().enumerate() {
        let s1 = m.node_stats(node);
        assert!(
            s1.driver_parks >= 1,
            "node {node} driver never parked: {s1:?}"
        );
        assert_eq!(
            (s1.driver_wakeups - s0.driver_wakeups, s1.steps - s0.steps),
            (0, 0),
            "node {node} (wake-ups, steps) in a quiet second"
        );
    }
    // With the detector armed the same quiet second is twenty rounds: each
    // node is stepped for its own, and for the digests the others' rounds
    // send it — and for nothing else.
    let mut armed = Machine::builder(4)
        .failure_timeout(Duration::from_millis(300))
        .heartbeat_every(Duration::from_millis(50))
        .launch()
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let before: Vec<_> = (0..4).map(|n| armed.node_stats(n)).collect();
    std::thread::sleep(Duration::from_secs(1));
    for (node, s0) in before.iter().enumerate() {
        let steps = armed.node_stats(node).steps - s0.steps;
        assert!(
            (10..=120).contains(&steps),
            "armed node {node} took {steps} steps in a quiet second of 20 rounds"
        );
        assert!(!armed.is_node_dead(node), "quiet node {node} declared dead");
    }
    armed.shutdown();
    // A parked driver still wakes promptly for real work.
    let t0 = Instant::now();
    let v = m.run_on(1, || 6 * 7).unwrap();
    assert_eq!(v, 42);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "wake-from-park took {:?}",
        t0.elapsed()
    );
    // Shutdown of the re-parked machine needs no park-timeout to complete:
    // the SHUTDOWN sends ring the nodes' doorbells.
    std::thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    m.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "shutdown of a parked machine waited on a timeout: {:?}",
        t0.elapsed()
    );
}

#[test]
fn data_flood_does_not_starve_shutdown_deterministic() {
    let mut m = Machine::builder(2).test_profile().launch().unwrap();
    flood(&m, 0, 4000);
    flood(&m, 1, 4000);
    let t0 = Instant::now();
    m.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "shutdown starved behind the flood: {:?}",
        t0.elapsed()
    );
}

#[test]
fn data_flood_does_not_starve_negotiation() {
    // Node 0's allocation needs slots node 1 owns (round-robin ⇒ every
    // multi-slot negotiates; trading is pinned off so the §4.4 exchange
    // really runs); node 1 is simultaneously buried under junk.  Node 1
    // handles the NEG exchange behind the flood, in link order, and it
    // must still complete within the (test-profile, 10 s) reply deadline.
    let mut m = Machine::launch(Pm2Config {
        slot_trade: false,
        ..Pm2Config::test(2)
    })
    .unwrap();
    let slot = m.area().slot_size();
    flood(&m, 1, 5000);
    m.run_on(0, move || {
        let p = pm2_isomalloc(slot + 1).unwrap();
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    assert_eq!(m.node_stats(0).negotiations, 1);
    m.shutdown();
}

#[test]
fn tiny_pump_budget_still_runs_everything() {
    // Behind more junk than one pump takes, every pump on both nodes
    // stops at its budget: that must be merely slow, never wrong —
    // spawns, migration and typed joins all keep working.
    let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
    flood(&m, 0, 4 * PUMP_BUDGET);
    flood(&m, 1, 4 * PUMP_BUDGET);
    let h = m
        .spawn_on_ret(0, || {
            pm2_migrate(1).unwrap();
            pm2_self() as u64
        })
        .unwrap();
    assert_eq!(h.join().unwrap(), 1);
    m.shutdown();
}

#[test]
fn migration_hops_are_not_poll_bound() {
    // The acceptance gate of ISSUE 3 in miniature: a hop between two
    // workers on the instant profile must cost µs, not the ~1 ms a
    // sleep-polling driver pays per hop on a busy host.  200 round trips in
    // < 2 s bounds the mean one-way hop at < 5 ms even under heavy CI
    // noise; the polled baseline needed ~2.2 s of driver latency alone
    // for the same work at its measured 1,079 µs/hop — and the wakeup
    // counters prove the event-driven path was the one taken.
    let mut m = Machine::builder(2)
        .test_profile()
        .workers(2)
        .launch()
        .unwrap();
    let t0 = Instant::now();
    m.run_on(0, || {
        for _ in 0..200 {
            pm2_migrate(1).unwrap();
            pm2_migrate(0).unwrap();
        }
    })
    .unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "400 hops took {elapsed:?} — driver is poll-bound again"
    );
    let (s0, s1) = (m.node_stats(0), m.node_stats(1));
    assert!(
        s0.driver_parks + s1.driver_parks > 100,
        "hops should be park/wake cycles, saw {} parks",
        s0.driver_parks + s1.driver_parks
    );
    m.shutdown();
}

/// Answers after 200 ms of native sleep (its node's worker sleeps with it).
struct Slow;
impl Service for Slow {
    const NAME: &'static str = "driver_core.slow";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        std::thread::sleep(Duration::from_millis(200));
        req + 1
    }
}

#[test]
fn a_waiting_rpc_caller_is_parked_not_polling() {
    // The caller is node 0's only thread: while its call is out the node
    // has nothing to run, so its driver parks instead of stepping a poll
    // loop (thousands of steps per 100 ms before the wait table).  Two
    // workers, so node 0 stays schedulable while the handler sleeps.
    let mut m = Machine::builder(2)
        .test_profile()
        .workers(2)
        .launch()
        .unwrap();
    m.register(Slow);
    std::thread::sleep(Duration::from_millis(50));
    let idle = m.node_stats(0);
    let h = m
        .spawn_on_ret(0, || pm2_rpc_call::<Slow>(1, 41).unwrap())
        .unwrap();
    std::thread::sleep(Duration::from_millis(50)); // call in flight
    let before = m.node_stats(0);
    std::thread::sleep(Duration::from_millis(100));
    let after = m.node_stats(0);
    assert!(
        after.steps - before.steps <= 8,
        "node 0 took {} steps while its caller waited",
        after.steps - before.steps
    );
    assert!(
        after.driver_parks > idle.driver_parks,
        "node 0 never parked with the call out"
    );
    assert_eq!(h.join().unwrap(), 42);
    m.shutdown();
}

#[test]
fn a_wait_deadline_ends_an_idle_park_on_time() {
    // A partition stalls the probe, so it waits out the 105 ms reply
    // deadline on a machine where nothing else happens: the deadline is
    // the only thing that ends node 0's park.
    let deadline = Duration::from_millis(105);
    let mut m = Machine::launch(Pm2Config {
        reply_deadline: deadline,
        ..Pm2Config::test(2)
    })
    .unwrap();
    m.partition_nodes(&[0], &[1]);
    let t0 = Instant::now();
    let probe = m.run_on(0, || pm2_probe_load(1)).unwrap();
    let took = t0.elapsed();
    assert_eq!(probe, Err(PROBE_TIMEOUT));
    assert!(
        took >= deadline && took < Duration::from_millis(600),
        "a 105 ms deadline took {took:?}"
    );
    m.heal_partition();
    m.shutdown();
}

#[test]
fn a_wait_deadline_is_not_missed_between_two_idle_workers() {
    // Two workers, nothing to do: whichever ran the prober parks its node
    // with a 15 ms wait deadline while the other is on its way to sleep
    // for good.  The deadline must reach that one too — seen before it
    // sleeps, or woken after — every time: a round that misses it never
    // ends, and one that is late by more than scheduling noise on a 15 ms
    // round fails the bound.
    let reply_deadline = Duration::from_millis(15);
    let mut m = Machine::launch(Pm2Config {
        workers: 2,
        reply_deadline,
        ..Pm2Config::test(2)
    })
    .unwrap();
    m.partition_nodes(&[0], &[1]);
    let mut rounds: Vec<Duration> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            assert_eq!(
                m.run_on(0, || pm2_probe_load(1)).unwrap(),
                Err(PROBE_TIMEOUT)
            );
            t0.elapsed()
        })
        .collect();
    rounds.sort();
    let (median, worst) = (rounds[100], rounds[199]);
    assert!(
        median >= reply_deadline && median < 2 * reply_deadline,
        "a wait of 15 ms took {median:?} in the median"
    );
    assert!(
        worst < Duration::from_millis(100),
        "the slowest round took {worst:?}"
    );
    m.heal_partition();
    m.shutdown();
}

#[test]
fn a_wait_deadline_is_served_while_every_worker_is_busy() {
    // As above, but node 2 yields in a loop the whole time, so no worker
    // ever finds the ready queue empty and times out asleep: the instant
    // node 0 filed must be looked at by the clock between dispatches.
    for workers in [1, 2] {
        let mut m = Machine::launch(Pm2Config {
            workers,
            reply_deadline: Duration::from_millis(105),
            ..Pm2Config::test(3)
        })
        .unwrap();
        m.partition_nodes(&[0], &[1]);
        // Spins until the probe is back — or 2 s, so that a probe waiting
        // on the spinner to stop fails the bound instead of hanging.
        let done = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&done);
        let spinner = m
            .spawn_on(2, move || {
                let t0 = Instant::now();
                while !stop.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(2) {
                    pm2_yield();
                }
            })
            .unwrap();
        let t0 = Instant::now();
        let probe = m.run_on(0, || pm2_probe_load(1)).unwrap();
        let took = t0.elapsed();
        done.store(true, Ordering::SeqCst);
        assert_eq!(probe, Err(PROBE_TIMEOUT), "{workers} worker(s)");
        assert!(
            took < Duration::from_millis(600),
            "{workers} worker(s): a 105 ms deadline took {took:?}"
        );
        assert!(!m.join(spinner).panicked);
        m.heal_partition();
        m.shutdown();
    }
}

/// Answers after 120 ms asleep in native code: past the deadline of a call
/// whose machine gives it 50 ms, and past the slack that call may take.
struct Asleep;
impl Service for Asleep {
    const NAME: &'static str = "driver_core.asleep";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        std::thread::sleep(Duration::from_millis(120));
        req
    }
}

/// A call's deadline is a span its node fixes at its next clock read, with
/// no clock read of the caller's own: so it is never early, and late by at
/// most one timer period — none for an idle caller node, which runs its
/// timers just before it parks and files the instant, and `CLOCK_EVERY`
/// steps for one kept busy by a yielding thread.  Two workers, so the
/// caller's node runs while the handler sleeps on the other.
#[test]
fn an_rpc_deadline_is_never_early_and_only_briefly_late() {
    const DEADLINE: Duration = Duration::from_millis(50);
    const SLACK: Duration = Duration::from_millis(40);
    for busy in [false, true] {
        let mut m = Machine::builder(2)
            .test_profile()
            .workers(2)
            .reply_deadline(DEADLINE)
            .launch()
            .unwrap();
        m.register(Asleep);
        let done = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&done);
        let yielder = busy.then(|| {
            m.spawn_on(0, move || {
                while !stop.load(Ordering::SeqCst) {
                    pm2_yield();
                }
            })
            .unwrap()
        });
        let calls = m
            .run_on(0, || {
                (0..3)
                    .map(|i| {
                        let t0 = Instant::now();
                        let outcome = pm2_rpc_call::<Asleep>(1, i);
                        (t0.elapsed(), outcome)
                    })
                    .collect::<Vec<_>>()
            })
            .unwrap();
        done.store(true, Ordering::SeqCst);
        for (took, outcome) in calls {
            let what = format!("busy {busy}: {outcome:?} after {took:?}");
            assert_eq!(outcome, Err(Pm2Error::Timeout { op: "rpc call" }), "{what}");
            assert!(took >= DEADLINE, "early: {what}");
            assert!(took < DEADLINE + SLACK, "late: {what}");
        }
        if let Some(t) = yielder {
            assert!(!m.join(t).panicked);
        }
        m.shutdown();
    }
}

/// The hand-off takes only rings made by driver code.  A green thread on
/// node 0 sends a fire-and-forget LRPC to node 1 and then computes for
/// 50 ms without yielding: its ring goes to the shared queue, so the other
/// worker runs the handler at once instead of waiting for the quantum.
#[test]
fn a_green_threads_ring_is_served_by_the_other_worker_at_once() {
    const SPIN: Duration = Duration::from_millis(50);
    let mut m = Machine::builder(2)
        .test_profile()
        .workers(2)
        .launch()
        .unwrap();
    let worker = || std::thread::current().name().map(String::from);
    let (tx, rx) = std::sync::mpsc::channel();
    m.register_service(7, move |_| tx.send((Instant::now(), worker())).unwrap());
    // Both workers asleep when the call goes out.
    std::thread::sleep(Duration::from_millis(50));
    let (sent, caller) = m
        .run_on(0, move || {
            let t0 = Instant::now();
            pm2_rpc_spawn(1, 7, b"").unwrap();
            while t0.elapsed() < SPIN {
                std::hint::spin_loop();
            }
            (t0, worker())
        })
        .unwrap();
    let (started, handler) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let after = started.duration_since(sent);
    assert!(
        after < SPIN / 2,
        "the handler started {after:?} after the send"
    );
    assert_ne!(handler, caller, "the handler ran on the caller's worker");
    m.shutdown();
}

/// The hand-off does not starve a timer: on one worker two nodes hop a
/// thread back and forth without pause — every hop a hand-off — while a
/// third node's thread waits out a 20 ms reply deadline (a partition
/// stalls its probe).  The wait ends as late as an idle machine's may, no
/// later — with nothing armed, and with the detector armed too.
#[test]
fn a_timed_wait_expires_on_time_beside_a_hand_off_ping_pong() {
    const DEADLINE: Duration = Duration::from_millis(20);
    const SLACK: Duration = Duration::from_millis(40);
    let plain = || Machine::builder(3).test_profile().reply_deadline(DEADLINE);
    for (setup, builder) in [("unarmed", plain()), ("armed", armed(plain()))] {
        let mut m = builder.launch().unwrap();
        m.partition_nodes(&[2], &[0]);
        let stop = Arc::new(AtomicBool::new(false));
        let halt = Arc::clone(&stop);
        let hopper = m
            .spawn_on_ret(0, move || {
                let mut hops = 0u64;
                while !halt.load(Ordering::Relaxed) {
                    pm2_migrate(1 - pm2_self()).unwrap();
                    hops += 1;
                }
                hops
            })
            .unwrap();
        let before = m.node_stats(0).migrations_out;
        while m.node_stats(0).migrations_out < before + 1000 {
            std::thread::yield_now();
        }
        let (took, probe) = m
            .run_on(2, || {
                let t0 = Instant::now();
                let probe = pm2_probe_load(0);
                (t0.elapsed(), probe)
            })
            .unwrap();
        stop.store(true, Ordering::Relaxed);
        let hops = hopper.join().unwrap();
        assert_eq!(probe, Err(PROBE_TIMEOUT), "{setup}");
        assert!(took >= DEADLINE, "{setup}: early: {took:?}");
        assert!(
            took < DEADLINE + SLACK,
            "{setup}: late: {took:?} beside {hops} hops"
        );
        m.heal_partition();
        m.shutdown();
    }
}

/// A scratch spill directory for one test.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pm2-driver-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// On one worker a hop is one step, one park and one wake-up: the node the
/// thread leaves parks at once (no empty step), and the worker runs the
/// node it woke without the shared queue.  Counted over a thousand hops
/// against a run with none, so the spawn and the join cancel out; each
/// window opens and closes on a machine whose drivers have parked.  An
/// armed timer does not change it — the detector, a checkpoint period, or
/// a 1 s wait open on both nodes (a partition stalls their calls to the
/// third node): each has an instant the parking node files, so none is
/// work for an empty step.
#[test]
fn a_hop_on_one_worker_is_one_step_one_park_and_one_wake_up() {
    const HOPS: u64 = 1000;
    let dir = scratch_dir("armed-hop");
    let plain = || Machine::builder(3).test_profile();
    let setups = [
        ("nothing armed", plain()),
        ("the detector armed", armed(plain())),
        (
            "a checkpoint period",
            plain()
                .spill_dir(&dir)
                .checkpoint_every(Duration::from_secs(60)),
        ),
        (
            "a timed wait open on both nodes",
            plain().reply_deadline(Duration::from_secs(1)),
        ),
    ];
    for (setup, builder) in setups {
        let mut m = builder.launch().unwrap();
        let waiters: Vec<_> = match setup {
            "a timed wait open on both nodes" => {
                m.register(Echo);
                m.partition_nodes(&[0, 1], &[2]);
                let call = || {
                    let rpc_timeout = Pm2Error::Timeout { op: "rpc call" };
                    assert_eq!(pm2_rpc_call::<Echo>(2, 7), Err(rpc_timeout));
                };
                (0..2).map(|n| m.spawn_on(n, call).unwrap()).collect()
            }
            _ => Vec::new(),
        };
        let counts = |m: &Machine, hops: u64| {
            let settled = || {
                std::thread::sleep(Duration::from_millis(20));
                (0..3).map(|n| m.node_stats(n)).sum::<NodeStatsSnapshot>()
            };
            let before = settled();
            m.run_on(0, move || {
                for _ in 0..hops {
                    pm2_migrate(1 - pm2_self()).unwrap();
                }
            })
            .unwrap();
            let d = settled().since(&before);
            (d.steps, d.driver_parks, d.driver_wakeups)
        };
        counts(&m, 2);
        let (none, hopped) = (counts(&m, 0), counts(&m, HOPS));
        assert_eq!(
            (hopped.0 - none.0, hopped.1 - none.1, hopped.2 - none.2),
            (HOPS, HOPS, HOPS),
            "{setup}: (steps, parks, wake-ups): {none:?} without hops, {hopped:?} with"
        );
        for waiter in waiters {
            assert!(!m.join(waiter).panicked, "{setup}");
        }
        m.heal_partition();
        m.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Holds its reply until the host says so, yielding meanwhile.
struct Held;

/// Set by [`Held`] once a call reached it; it answers once `GO` is set.
static HELD: AtomicBool = AtomicBool::new(false);
static GO: AtomicBool = AtomicBool::new(false);

impl Service for Held {
    const NAME: &'static str = "driver_core.held";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        HELD.store(true, Ordering::SeqCst);
        while !GO.load(Ordering::SeqCst) {
            pm2_yield();
        }
        req
    }
}

/// A reply withheld by a partition: the call reached its server, and the
/// answer stalls on the cut link.  Nothing arrives at the caller's node, so
/// only the node's own timer ends the wait — on an armed machine, where the
/// node's one filed instant would be a gossip round 10 s away if the
/// wait's span were left unfixed when the node parked.  It expires within
/// the slack of `an_rpc_deadline_is_never_early_and_only_briefly_late`,
/// and a watchdog fails the test if it never does.
#[test]
fn a_stalled_reply_expires_on_time_on_an_armed_machine() {
    const DEADLINE: Duration = Duration::from_millis(50);
    const SLACK: Duration = Duration::from_millis(40);
    let mut m = armed(Machine::builder(2).test_profile())
        .reply_deadline(DEADLINE)
        .launch()
        .unwrap();
    m.register(Held);
    let (tx, rx) = std::sync::mpsc::channel();
    m.spawn_on(0, move || {
        let t0 = Instant::now();
        let outcome = pm2_rpc_call::<Held>(1, 5);
        tx.send((t0.elapsed(), outcome)).unwrap();
    })
    .unwrap();
    while !HELD.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    m.partition_nodes(&[0], &[1]);
    GO.store(true, Ordering::SeqCst);
    let Ok((took, outcome)) = rx.recv_timeout(Duration::from_secs(5)) else {
        panic!("the caller's wait never expired");
    };
    assert_eq!(outcome, Err(Pm2Error::Timeout { op: "rpc call" }));
    assert!(took >= DEADLINE, "early: {took:?}");
    assert!(took < DEADLINE + SLACK, "late: {took:?}");
    m.heal_partition();
    m.shutdown();
}

/// Answers at once.
struct Echo;
impl Service for Echo {
    const NAME: &'static str = "driver_core.echo";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        req
    }
}

/// A call reads no clock of its own.  The caller's node reads one while a
/// wait is open, once each time it goes idle (before it parks) and once
/// every `CLOCK_EVERY` steps while busy; the serving node, with nothing
/// armed, reads none.  Ten thousand calls from `rpc_fanin`'s eight clients
/// on one worker, none of them near its deadline.
#[test]
fn an_rpc_costs_its_node_no_clock_read_of_its_own() {
    const CLIENTS: u64 = 8;
    const CALLS: u64 = 10_000;
    let mut m = Machine::builder(2).test_profile().launch().unwrap();
    m.register(Echo);
    let stats = |m: &Machine| [m.node_stats(0), m.node_stats(1)];
    let before = stats(&m);
    let client = || {
        for i in 0..CALLS / CLIENTS {
            assert_eq!(pm2_rpc_call::<Echo>(1, i), Ok(i));
        }
    };
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| m.spawn_on(0, client).unwrap())
        .collect();
    for tid in clients {
        assert!(!m.join(tid).panicked);
    }
    let after = stats(&m);
    for node in 0..2 {
        let d = after[node].since(&before[node]);
        let budget = d.driver_parks + d.steps / pm2::node::CLOCK_EVERY + 2;
        assert!(
            d.clock_reads <= budget,
            "node {node}: {} clock reads over {} parks and {} steps",
            d.clock_reads,
            d.driver_parks,
            d.steps
        );
    }
    assert!(
        after[0].since(&before[0]).clock_reads > 0,
        "the caller's node keeps its timers"
    );
    assert_eq!(
        after[1].since(&before[1]).clock_reads,
        0,
        "nothing armed on the server"
    );
    m.shutdown();
}

/// Leaves the serving node before answering, so its reply is checked out
/// of the serving node's payload pool by whichever worker runs the node it
/// moved to.
struct Relay;
impl Service for Relay {
    const NAME: &'static str = "driver_core.relay";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        pm2_migrate((pm2_self() + 1) % pm2_nodes()).unwrap();
        req + 1
    }
}

/// A counter is bumped with a plain load and store by its one writer, so a
/// second writer would lose updates — and an identity below would stop
/// holding.  Two workers run three nodes that hop threads and serve calls
/// whose handlers migrate before replying, while the host checkpoints
/// them.
#[test]
fn counters_stay_exact_with_two_writers_worth_of_traffic() {
    const HOPPERS: usize = 6;
    const CALLERS: usize = 6;
    // A handler's stack slot is released where it exits, one node on from
    // where it was taken.  A node starts with 1,365 slots and is served at
    // most 2 × 500 calls, so no demand trade is needed.
    const CALLS: u64 = 500;
    const CHECKPOINTS: usize = 3;
    let mut m = Machine::builder(3)
        .test_profile()
        .area(AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 4096,
        })
        .workers(2)
        .reply_deadline(Duration::from_secs(5))
        .launch()
        .unwrap();
    m.register(Relay);
    // Everyone keeps going until the host's checkpoints are over.
    let stop = Arc::new(AtomicBool::new(false));
    let busy = |stop: &AtomicBool| !stop.load(Ordering::Relaxed);
    let hoppers: Vec<_> = (0..HOPPERS)
        .map(|i| {
            let stop = Arc::clone(&stop);
            m.spawn_on_ret(i % 3, move || {
                let mut hops = 0u64;
                while busy(&stop) {
                    pm2_migrate((pm2_self() + 1 + i % 2) % 3).unwrap();
                    hops += 1;
                }
                hops
            })
            .unwrap()
        })
        .collect();
    let callers: Vec<_> = (0..CALLERS)
        .map(|c| {
            let stop = Arc::clone(&stop);
            m.spawn_on_ret(c % 3, move || {
                let mut calls = 0u64;
                while busy(&stop) && calls < CALLS {
                    assert_eq!(pm2_rpc_call::<Relay>((c + 1) % 3, calls), Ok(calls + 1));
                    calls += 1;
                }
                calls
            })
            .unwrap()
        })
        .collect();
    for node in 0..CHECKPOINTS {
        // No spill directory: a checkpoint covers no thread.
        assert_eq!(m.checkpoint_node(node % 3), Ok(0));
    }
    stop.store(true, Ordering::Relaxed);
    // A relayed call is one hop too: its handler leaves before answering.
    let hops: u64 = hoppers
        .into_iter()
        .chain(callers)
        .map(|t| t.join().unwrap())
        .sum();
    // Shutdown drains every node, so no message is left in flight.
    m.shutdown();

    let nodes = (0..3).map(|n| m.node_stats(n));
    let s: pm2::node::NodeStatsSnapshot = nodes.clone().sum();
    assert_eq!((s.migrations_out, s.migrations_in), (hops, hops));
    assert_eq!((s.migrations_failed, s.trades), (0, 0));
    for (n, st) in nodes.enumerate() {
        assert_eq!(st.driver_parks, st.driver_wakeups, "node {n}: {st:?}");
    }
    let net: pm2::EndpointStatsSnapshot = (0..=3).map(|n| m.net_stats(n).unwrap()).sum();
    assert_eq!(net.msgs_sent, net.msgs_recv, "{net:?}");
    assert_eq!(net.bytes_sent, net.bytes_recv, "{net:?}");
    for n in 0..3 {
        let pool = m.pool_stats(n);
        assert_eq!(
            pool.checkouts,
            pool.reuses + pool.allocs,
            "node {n}: {pool:?}"
        );
    }
}
