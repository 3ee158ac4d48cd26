//! The event-driven driver core, observed from outside: quiescent
//! machines park their drivers (near-zero wake-ups, no spinning), parked
//! drivers wake promptly on traffic, and a flood of data-class messages
//! cannot starve shutdown or negotiation (ISSUE 3).  Machines here run on
//! the test profile's one worker (what `_deterministic` in a test name
//! means) unless the assertion needs two nodes running at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::proto::tag;
use pm2::{FaultPlan, Machine, Pm2Config, Pm2Error, Service};

/// Junk RPC_RESP bytes: data-class on the wire, dropped on handling (no
/// pending caller), so floods exercise the queueing layer only.
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
    // node is stepped for its own, and for the digests and the odd probe
    // the others' rounds send it — and for nothing else.
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
    let mut m = Machine::builder(2)
        .test_profile()
        .pump_budget(8)
        .launch()
        .unwrap();
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
    // really runs); node 1 is simultaneously buried under data-class
    // junk.  The control-class NEG exchange must overtake the flood and
    // complete within the (test-profile, 10 s) reply deadline.
    let mut m = Machine::launch(Pm2Config {
        pump_budget: 8,
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
    // Budget 1 (one message per pump) must be merely slow, never wrong:
    // spawns, migration and typed joins all keep working.
    let mut m = Machine::launch(Pm2Config {
        pump_budget: 1,
        ..Pm2Config::test(2)
    })
    .unwrap();
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
    // Every probe is eaten, so each of the three attempts runs out its
    // slice of the 105 ms reply deadline on a machine where nothing else
    // happens: the deadline is the only thing that ends node 0's park.
    let mut m = Machine::launch(Pm2Config {
        reply_deadline: Duration::from_millis(105),
        fault_plan: Some(FaultPlan::new(7).with_drop(1.0)),
        ..Pm2Config::test(2)
    })
    .unwrap();
    let t0 = Instant::now();
    let probe = m.run_on(0, || pm2_probe_load(1)).unwrap();
    let took = t0.elapsed();
    let exhausted = Pm2Error::RetriesExhausted {
        op: "load probe",
        attempts: 3,
    };
    assert_eq!(probe, Err(exhausted));
    assert!(
        took >= Duration::from_millis(100) && took < Duration::from_millis(600),
        "three slices of 105 ms took {took:?}"
    );
    m.shutdown();
}

#[test]
fn a_wait_deadline_is_not_missed_between_two_idle_workers() {
    // Two workers, nothing to do: whichever ran the prober parks its node
    // with a 5 ms wait deadline (a third of the reply deadline) while the
    // other is on its way to sleep for good.  The deadline must reach that
    // one too — seen before it sleeps, or woken after — every time: a round
    // that misses it never ends, and one that is late by more than
    // scheduling noise on a 15 ms round fails the bound.
    let reply_deadline = Duration::from_millis(15);
    let mut m = Machine::launch(Pm2Config {
        workers: 2,
        reply_deadline,
        fault_plan: Some(FaultPlan::new(7).with_drop(1.0)),
        ..Pm2Config::test(2)
    })
    .unwrap();
    let mut rounds: Vec<Duration> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            assert!(m.run_on(0, || pm2_probe_load(1)).unwrap().is_err());
            t0.elapsed()
        })
        .collect();
    rounds.sort();
    let (median, worst) = (rounds[100], rounds[199]);
    assert!(
        median >= reply_deadline && median < 2 * reply_deadline,
        "three waits of 5 ms took {median:?} in the median"
    );
    assert!(
        worst < Duration::from_millis(100),
        "the slowest round took {worst:?}"
    );
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
            fault_plan: Some(FaultPlan::new(7).with_drop(1.0)),
            ..Pm2Config::test(3)
        })
        .unwrap();
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
        let exhausted = Pm2Error::RetriesExhausted {
            op: "load probe",
            attempts: 3,
        };
        assert_eq!(probe, Err(exhausted), "{workers} worker(s)");
        assert!(
            took < Duration::from_millis(600),
            "{workers} worker(s): three slices of 105 ms took {took:?}"
        );
        assert!(!m.join(spinner).panicked);
        m.shutdown();
    }
}
