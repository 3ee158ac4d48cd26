//! Node death without thread death: the kill switch, the heartbeat
//! failure detector, typed `NodeFailed` resolution of every blocked
//! waiter, and checkpoint-based recovery onto survivors.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::*;
use pm2::{Distribution, Machine, MachineBuilder, Pm2Config, Pm2Error, Service};

/// Fresh scratch directory for a spill log.
fn scratch_dir(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pm2-ft-{}-{name}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Park the calling green thread until `stop` flips, then return `value`.
fn loop_until(stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        marcel::yield_now();
    }
}

/// A departure to a node known to be dead is refused and the thread stays
/// where it was, so `pm2_migrate` says so instead of returning `Ok` on the
/// wrong node; migrating to the node it is on is still a no-op.
#[test]
fn migrating_to_a_dead_node_fails_and_the_thread_stays() {
    let mut m = Machine::launch(Pm2Config::test(3)).unwrap();
    m.kill_node(1).unwrap();
    let (to_corpse, here, to_self) = m
        .run_on(0, || (pm2_migrate(1), pm2_self(), pm2_migrate(0)))
        .unwrap();
    assert_eq!(to_corpse, Err(Pm2Error::NodeFailed(1)));
    assert_eq!((here, to_self), (0, Ok(())));
    assert_eq!(
        m.run_on(0, || pm2_migrate(2).map(|()| pm2_self())).unwrap(),
        Ok(2)
    );
    m.shutdown();
}

#[test]
fn killed_node_fails_host_join_within_grace() {
    let mut m = machine(2, Duration::from_millis(300)).launch().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let t = m.spawn_on(1, move || loop_until(&stop2)).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let it start looping
    m.kill_node(1).unwrap();
    let t0 = Instant::now();
    let exit = m.join(t);
    assert!(exit.panicked, "a failed thread must not read as success");
    assert_eq!(exit.failed_node, Some(1));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "join must resolve promptly after the grace window, not hang"
    );
    stop.store(true, Ordering::SeqCst);
    m.shutdown();
}

#[test]
fn killed_node_fails_typed_join_with_node_failed() {
    let mut m = machine(2, Duration::from_millis(300)).launch().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let h = m
        .spawn_on_ret(1, move || {
            loop_until(&stop2);
            42u64
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    m.kill_node(1).unwrap();
    match h.join() {
        Err(Pm2Error::NodeFailed(1)) => {}
        other => panic!("expected NodeFailed(1), got {other:?}"),
    }
    stop.store(true, Ordering::SeqCst);
    m.shutdown();
}

struct Stuck;
impl Service for Stuck {
    const NAME: &'static str = "ft.stuck";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, _req: u64) -> u64 {
        // Never replies: the handler spins until its node is killed.
        loop {
            marcel::yield_now();
        }
    }
}

#[test]
fn killed_callee_fails_host_rpc_with_node_failed() {
    let mut m = machine(2, Duration::from_secs(10)).launch().unwrap();
    m.register(Stuck);
    // Kill before the call: the send itself is refused with the death
    // certificate, well before any deadline.
    m.kill_node(1).unwrap();
    let t0 = Instant::now();
    match m.rpc_call::<Stuck>(1, 5) {
        Err(Pm2Error::NodeFailed(1)) => {}
        other => panic!("expected NodeFailed(1), got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5));
    m.shutdown();
}

/// Set to let every [`Mute`] handler return.
static UNMUTE: AtomicBool = AtomicBool::new(false);

struct Mute;
impl Service for Mute {
    const NAME: &'static str = "ft.mute";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        // No reply before the test unmutes it, long after the deadline.
        loop_until(&UNMUTE);
        req
    }
}

/// A host call whose service never answers gives up typed after its one
/// reply deadline, with the name of the operation.
#[test]
fn host_rpc_to_a_service_that_never_replies_times_out_typed() {
    let deadline = Duration::from_millis(200);
    let mut m = machine(2, deadline).launch().unwrap();
    m.register(Mute);
    let t0 = Instant::now();
    assert_eq!(
        m.rpc_call::<Mute>(1, 5),
        Err(Pm2Error::Timeout { op: "rpc call" })
    );
    let took = t0.elapsed();
    assert!(took < deadline * 3 / 2, "gave up after {took:?}");
    UNMUTE.store(true, Ordering::SeqCst);
    m.shutdown();
}

/// A `run_on` thread whose node is declared dead under it, with no
/// checkpoint to recover it from, fails with the node's name, as a typed
/// join does.  The body blocks its worker in native code, so the node
/// stops gossiping and the other worker's node declares it dead.
#[test]
fn run_on_names_the_node_that_died_under_its_thread() {
    let mut m = Machine::builder(2)
        .test_profile()
        .workers(2)
        .reply_deadline(Duration::from_millis(200))
        .failure_timeout(Duration::from_millis(100))
        .heartbeat_every(Duration::from_millis(20))
        .launch()
        .unwrap();
    let got = m.run_on(1, || std::thread::sleep(Duration::from_secs(1)));
    assert_eq!(got, Err(Pm2Error::NodeFailed(1)));
    m.shutdown();
}

#[test]
fn killed_callee_fails_green_rpc_mid_call() {
    let mut m = machine(3, Duration::from_secs(30)).launch().unwrap();
    m.register(Stuck);
    // A green thread on node 0 calls the never-replying service on node 2;
    // the kill lands mid-call.  Node 0 hears the NODE_DEAD broadcast and
    // synthesizes a typed failure reply for the pending call — the caller
    // resolves long before the 30 s reply deadline.
    let h = m
        .spawn_on_ret(0, || match pm2_rpc_call::<Stuck>(2, 5) {
            Err(Pm2Error::NodeFailed(2)) => 1u64,
            _ => 0u64,
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // call in flight
    m.kill_node(2).unwrap();
    let t0 = Instant::now();
    assert_eq!(h.join().unwrap(), 1, "caller must see NodeFailed(2)");
    assert!(t0.elapsed() < Duration::from_secs(10));
    m.shutdown();
}

/// The same death, seen from the wait table: the caller is *parked* on
/// the corpse-to-be — its node takes no scheduling steps for it — and the
/// `NODE_DEAD` certificate itself wakes it, with no liveness poll between.
#[test]
fn a_waiter_parked_on_a_peer_that_dies_fails_typed_at_once() {
    let mut m = machine(3, Duration::from_secs(30)).launch().unwrap();
    m.register(Stuck);
    let h = m
        .spawn_on_ret(0, || match pm2_rpc_call::<Stuck>(2, 5) {
            Err(Pm2Error::NodeFailed(2)) => 1u64,
            _ => 0u64,
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // call in flight
    let before = m.node_stats(0);
    std::thread::sleep(Duration::from_millis(100));
    let waited = m.node_stats(0).steps - before.steps;
    assert!(waited <= 8, "the parked caller cost node 0 {waited} steps");
    let t0 = Instant::now();
    m.kill_node(2).unwrap();
    assert_eq!(h.join().unwrap(), 1, "caller must see NodeFailed(2)");
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "the certificate wakes the waiter, not a tick: {:?}",
        t0.elapsed()
    );
    m.shutdown();
}

/// A death nobody announces — no certificate, no detector armed — still
/// fails the parked waiter typed, and at once: marking a node dead on the
/// fabric rings every bell, and a node looks at the fabric whenever it
/// steps.  Nothing else would step node 0 before the reply deadline.
#[test]
fn a_silent_death_fails_the_parked_waiter_at_the_next_tick() {
    let mut m = Machine::launch(Pm2Config {
        reply_deadline: Duration::from_secs(30),
        ..Pm2Config::test(3)
    })
    .unwrap();
    m.register(Stuck);
    let h = m
        .spawn_on_ret(0, || match pm2_rpc_call::<Stuck>(2, 5) {
            Err(Pm2Error::NodeFailed(2)) => 1u64,
            _ => 0u64,
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // call in flight
    let t0 = Instant::now();
    m.kill_node_silent(2).unwrap();
    assert_eq!(h.join().unwrap(), 1, "caller must see NodeFailed(2)");
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(500), "{took:?}");
    m.shutdown();
}

#[test]
fn killed_owner_fails_green_join_mid_wait() {
    let mut m = machine(3, Duration::from_millis(300)).launch().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let a = m
        .spawn_on_ret(2, move || {
            loop_until(&stop2);
            7u64
        })
        .unwrap();
    let a_tid = a.tid();
    // A green joiner on node 0 blocks on the thread living on node 2.
    let b = m
        .spawn_on_ret(0, move || match pm2_join_value::<u64>(a_tid) {
            Err(Pm2Error::NodeFailed(2)) => 1u64,
            _ => 0u64,
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // joiner parked
    m.kill_node(2).unwrap();
    assert_eq!(b.join().unwrap(), 1, "green joiner must see NodeFailed(2)");
    stop.store(true, Ordering::SeqCst);
    m.shutdown();
}

/// The test-profile machine with a reply deadline of the test's choosing
/// (it is also the grace a join gives recovery before failing).
fn machine(nodes: usize, reply_deadline: Duration) -> MachineBuilder {
    Machine::builder(nodes)
        .test_profile()
        .reply_deadline(reply_deadline)
}

/// A one-worker machine with the detector armed (300 ms / 50 ms) and
/// nothing else set.
fn detector_armed(nodes: usize) -> Machine {
    Machine::builder(nodes)
        .test_profile()
        .failure_timeout(Duration::from_millis(300))
        .heartbeat_every(Duration::from_millis(50))
        .launch()
        .unwrap()
}

/// `shutdown()` on its own thread, so a hang fails the test instead of
/// hanging the suite.  Returns how long it took.
fn shutdown_within(mut m: Machine, limit: Duration) -> Duration {
    let (tx, rx) = std::sync::mpsc::channel();
    let t0 = Instant::now();
    std::thread::spawn(move || {
        m.shutdown();
        let _ = tx.send(());
    });
    assert!(
        rx.recv_timeout(limit).is_ok(),
        "shutdown hung past {limit:?}"
    );
    t0.elapsed()
}

#[test]
fn heartbeat_detector_declares_a_silent_node_dead() {
    let mut m = detector_armed(3);
    // Each parked node names its next round, so a quiet machine keeps
    // gossiping and silence alone kills nobody…
    std::thread::sleep(Duration::from_millis(1500));
    for node in 0..3 {
        assert!(!m.is_node_dead(node), "quiet node {node} was declared dead");
    }
    // …and a real death (no NODE_DEAD announcement: the survivors must
    // notice the silence) is declared at the timeout, not at the next park.
    let t0 = Instant::now();
    m.kill_node_silent(2).unwrap();
    assert!(
        m.wait_node_dead(2, Duration::from_secs(20)),
        "survivors must declare the silent corpse dead via the gossip detector"
    );
    // Not before the timeout less the round the corpse may have just run:
    // the host waited for the certificate, not for the fabric flag the kill
    // itself sets.
    let took = t0.elapsed();
    assert!(
        took >= Duration::from_millis(250),
        "detected after {took:?}"
    );
    assert!(took < Duration::from_millis(450), "detected after {took:?}");
    assert!(m.is_node_dead(2));
    assert!(!m.is_node_dead(0) && !m.is_node_dead(1));
    // Shutdown waits for events, not slices: the two survivors drain and
    // their drivers exit, and nothing is spent waiting on the corpse.
    let took = shutdown_within(m, Duration::from_secs(5));
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
}

#[test]
fn a_node_declared_dead_while_running_is_fenced_and_shutdown_returns() {
    let m = detector_armed(3);
    // Cut node 2 off until the majority's detectors give up on it.  It is
    // still running — nobody sent it KILL — and from here on nobody will
    // send it SHUTDOWN either.
    m.partition_nodes(&[0, 1], &[2]);
    let deadline = Instant::now() + Duration::from_secs(20);
    while !m.is_node_dead(2) {
        assert!(Instant::now() < deadline, "the cut was never noticed");
        std::thread::sleep(Duration::from_millis(10));
    }
    m.heal_partition();
    // The verdict fences it: it stops as if killed, so its driver exits.
    shutdown_within(m, Duration::from_secs(5));
}

#[test]
fn balancer_survives_a_node_death() {
    let mut m = machine(3, Duration::from_millis(500)).launch().unwrap();
    let bal = pm2::loadbal::start_balancer(
        &m,
        pm2::loadbal::BalancerConfig {
            period: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    m.kill_node(2).unwrap();
    let before = bal.stats().rounds;
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        bal.stats().rounds > before,
        "rounds must keep completing against the survivors"
    );
    bal.stop(&m);
    m.shutdown();
}

#[test]
fn checkpointed_threads_survive_their_node() {
    let dir = scratch_dir("recover");
    let mut m = machine(4, Duration::from_secs(2))
        .spill_dir(&dir)
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    // Four iso-allocating threads on node 1, each holding a value in the
    // iso-address area that must survive the node.
    let mut survivors_handles = Vec::new();
    for i in 0..4u64 {
        let stop = Arc::clone(&stop);
        survivors_handles.push(
            m.spawn_on_ret(1, move || {
                let cell = pm2::IsoBox::new(0xC0FFEE + i).unwrap();
                loop_until(&stop);
                *cell // the iso pointer must still be valid wherever we are
            })
            .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(100)); // all four mid-loop
    let covered = m.checkpoint_node(1).unwrap();
    assert_eq!(covered, 4, "all four ready threads must be checkpointed");

    // Two more threads spawned *after* the checkpoint: unrecoverable.
    let mut lost_handles = Vec::new();
    for _ in 0..2 {
        let stop = Arc::clone(&stop);
        lost_handles.push(
            m.spawn_on_ret(1, move || {
                loop_until(&stop);
                0u64
            })
            .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(100));

    m.kill_node(1).unwrap();
    let rep = m.recover_node(1).unwrap();
    assert_eq!(rep.dead_node, 1);
    assert_eq!(
        rep.threads_recovered, 4,
        "every checkpointed thread must be re-adopted: {rep:?}"
    );
    assert_eq!(
        rep.threads_lost, 2,
        "the post-checkpoint threads are lost: {rep:?}"
    );
    assert!(
        rep.slots_reclaimed > 0,
        "the corpse's free slots must be reclaimed: {rep:?}"
    );
    assert_eq!(rep.corrupt_records_skipped, 0);
    assert!(!rep.torn_tail_truncated);

    // The lost threads fail typed, promptly.
    for h in lost_handles {
        match h.join() {
            Err(Pm2Error::NodeFailed(1)) => {}
            other => panic!("expected NodeFailed(1), got {other:?}"),
        }
    }

    // The recovered threads resume from their checkpoint on survivors and
    // finish normally — iso pointers intact.
    stop.store(true, Ordering::SeqCst);
    for (i, h) in survivors_handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), 0xC0FFEE + i as u64);
    }

    // The ownership partition is whole again: every slot has exactly one
    // owner among the survivors.
    let report = m.audit().unwrap();
    report.check_partition().unwrap();
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_without_spill_loses_everything_but_hangs_nothing() {
    let mut m = machine(2, Duration::from_millis(500)).launch().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let h = m
        .spawn_on_ret(1, move || {
            loop_until(&stop2);
            9u64
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    m.kill_node(1).unwrap();
    let rep = m.recover_node(1).unwrap();
    assert_eq!(rep.threads_recovered, 0);
    assert_eq!(rep.threads_lost, 1);
    assert!(rep.slots_reclaimed > 0);
    match h.join() {
        Err(Pm2Error::NodeFailed(1)) => {}
        other => panic!("expected NodeFailed(1), got {other:?}"),
    }
    let report = m.audit().unwrap();
    report.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn recover_rejects_a_living_node() {
    let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
    assert!(m.recover_node(1).is_err(), "recovery is for dead nodes");
    assert!(matches!(m.recover_node(7), Err(Pm2Error::NoSuchNode(7))));
    m.shutdown();
}

#[test]
fn coordinator_death_elects_successor_and_negotiations_complete() {
    // The §4.4 lock service is a leased role on the lowest-id live node —
    // initially node 0.  Kill it mid-storm: the waiters re-resolve the
    // coordinator (node 1), re-issue NEG_LOCK_REQ, and every blocked
    // negotiation completes under the successor.  Round-robin with
    // trading off forces every multi-slot allocation through the global
    // protocol.
    let mut m = machine(4, Duration::from_secs(2))
        .distribution(Distribution::RoundRobin)
        .slot_trade(false)
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    let storm = |iters: usize, slots: usize| {
        move || {
            for _ in 0..iters {
                let p = pm2_isomalloc(slots * slot).unwrap();
                pm2_yield();
                pm2_isofree(p).unwrap();
            }
        }
    };
    let t2 = m.spawn_on(2, storm(20, 2)).unwrap();
    let t3 = m.spawn_on(3, storm(20, 3)).unwrap();
    std::thread::sleep(Duration::from_millis(30)); // storms in flight
    let t0 = Instant::now();
    m.kill_node(0).unwrap(); // the incumbent coordinator dies
    assert!(
        !m.join(t2).panicked,
        "negotiations must complete under the successor"
    );
    assert!(!m.join(t3).panicked);
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "no waiter may hang past its deadline"
    );
    // A fresh negotiation goes through the successor — once its embargo
    // is over: it holds grants back for 50 ms from the death, and then has
    // nothing to do (its one requester waits on it), so the expiry itself
    // must step it.  What this bounds is the kill to that grant's
    // negotiation completing: a grant that left at some periodic wake-up
    // instead (every 500 ms, once) would show here.
    m.run_on(1, move || {
        let p = pm2_isomalloc(2 * slot).unwrap();
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "the first grant after the election left {took:?} after the death"
    );
    // Reclaim the corpse's slots so the ownership partition is whole
    // again, then audit it.
    let rep = m.recover_node(0).unwrap();
    assert!(rep.slots_reclaimed > 0);
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn checkpoint_of_a_node_killed_mid_request_resolves_typed() {
    let dir = scratch_dir("ckpt-race");
    let mut m = machine(2, Duration::from_millis(500))
        .spill_dir(&dir)
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let _t = m.spawn_on(1, move || loop_until(&stop2)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // Stop the node without telling the host (raw KILL, no death
    // certificate): the checkpoint's thread is spawned on a corpse and can
    // never run.  The reply deadline must expire and surface typed — not
    // hang on the missing completion.
    m.inject_raw(1, pm2::proto::tag::KILL, Vec::new()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    assert_eq!(
        m.checkpoint_node(1),
        Err(Pm2Error::Timeout { op: "checkpoint" })
    );
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "typed resolution must arrive within one reply deadline, took {:?}",
        t0.elapsed()
    );
    // Once the death is announced, the answer is immediate and names the
    // corpse.
    m.kill_node(1).unwrap();
    let t0 = Instant::now();
    match m.checkpoint_node(1) {
        Err(Pm2Error::NodeFailed(1)) => {}
        other => panic!("expected NodeFailed(1), got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Times [`a_node_cut_off_and_declared_dead_is_recovered_exactly_once`]'s
/// resident has finished: once, by its recovered copy.
static RESIDENT_DONE: AtomicUsize = AtomicUsize::new(0);

/// A partition outlasts every deadline across it, so the node on the far
/// side is declared dead — fenced — and its checkpointed resident is
/// recovered on a survivor.  (The host declares it: a gossip detector on
/// both sides of a symmetric cut would condemn each other.)  When the cut
/// heals, what its links held to and from the corpse is dropped as
/// zombies, the ownership partition is whole, and the resident's tid
/// completes exactly once.
#[test]
fn a_node_cut_off_and_declared_dead_is_recovered_exactly_once() {
    let dir = scratch_dir("cut-off");
    let deadline = Duration::from_millis(100);
    let mut m = machine(3, deadline).spill_dir(&dir).launch().unwrap();
    let (cut, stop) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let (cut2, stop2) = (Arc::clone(&cut), Arc::clone(&stop));
    let resident = m
        .spawn_on_ret(2, move || {
            let cell = pm2::IsoBox::new(0xC0DEu64).unwrap();
            loop_until(&cut2);
            // Across the cut, node 0 is silent: each probe times out.
            while !stop2.load(Ordering::SeqCst) {
                let _ = pm2_probe_load(0);
            }
            RESIDENT_DONE.fetch_add(1, Ordering::SeqCst);
            *cell
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(m.checkpoint_node(2), Ok(1), "the resident is covered");

    m.partition_nodes(&[0, 1], &[2]);
    cut.store(true, Ordering::SeqCst);
    let (tx, rx) = std::sync::mpsc::channel();
    m.spawn_on(0, move || {
        // Every probe across the cut times out, until the death.
        let mut probe = pm2_probe_load(2);
        while probe == Err(Pm2Error::Timeout { op: "load probe" }) {
            probe = pm2_probe_load(2);
        }
        tx.send(probe).unwrap();
    })
    .unwrap();
    std::thread::sleep(3 * deadline);
    m.kill_node(2).unwrap();
    let probe = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(
        probe,
        Err(Pm2Error::NodeFailed(2)),
        "the prober's last wait"
    );
    let rep = m.recover_node(2).unwrap();
    assert_eq!((rep.threads_recovered, rep.threads_lost), (1, 0), "{rep:?}");

    m.heal_partition();
    let zombies = |n| m.net_stats(n).unwrap().zombies;
    assert!(
        zombies(2) >= 2,
        "the corpse's stalled probes: {}",
        zombies(2)
    );
    assert!(zombies(0) >= 2, "the probes to the corpse: {}", zombies(0));
    stop.store(true, Ordering::SeqCst);
    assert_eq!(resident.join(), Ok(0xC0DE));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(RESIDENT_DONE.load(Ordering::SeqCst), 1, "completed once");
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn periodic_checkpoints_cover_recovery_without_explicit_requests() {
    let dir = scratch_dir("periodic");
    let mut m = machine(2, Duration::from_secs(2))
        .spill_dir(&dir)
        .checkpoint_every(Duration::from_millis(50))
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let h = m
        .spawn_on_ret(1, move || {
            let cell = pm2::IsoBox::new(0xFEEDu64).unwrap();
            loop_until(&stop2);
            *cell
        })
        .unwrap();
    // Let at least one periodic checkpoint fire with the thread ready.
    std::thread::sleep(Duration::from_millis(400));
    m.kill_node(1).unwrap();
    let rep = m.recover_node(1).unwrap();
    assert_eq!(
        rep.threads_recovered, 1,
        "the periodic checkpoint must cover the thread: {rep:?}"
    );
    stop.store(true, Ordering::SeqCst);
    assert_eq!(h.join().unwrap(), 0xFEED);
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compacted_spill_log_stays_bounded_and_recovers_the_newest_epoch() {
    let dir = scratch_dir("compact");
    let mut m = machine(2, Duration::from_secs(2))
        .spill_dir(&dir)
        .launch()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let phase = Arc::new(AtomicU64::new(0));
    // Each thread mirrors `phase` into an iso cell until told to stop, and
    // reports what it mirrored last; its return value is whatever the cell
    // held in the image it resumed from.
    let mut threads = Vec::new();
    for _ in 0..3 {
        let (stop, phase) = (Arc::clone(&stop), Arc::clone(&phase));
        let seen = Arc::new(AtomicU64::new(u64::MAX));
        let seen2 = Arc::clone(&seen);
        let h = m
            .spawn_on_ret(1, move || {
                let mut cell = pm2::IsoBox::new(0u64).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    *cell = phase.load(Ordering::SeqCst);
                    seen2.store(*cell, Ordering::SeqCst);
                    marcel::yield_now();
                }
                *cell
            })
            .unwrap();
        threads.push((h, seen));
    }
    // One checkpoint per phase, well past the compaction threshold.
    let epochs = 2 * pm2::spill::COMPACT_AFTER as u64 + 10;
    for k in 1..=epochs {
        phase.store(k, Ordering::SeqCst);
        while threads
            .iter()
            .any(|(_, seen)| seen.load(Ordering::SeqCst) != k)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.checkpoint_node(1).unwrap(), 3);
    }
    let frames = pm2::spill::replay(&dir.join("node1.log"))
        .unwrap()
        .records
        .len();
    assert!(
        frames <= pm2::spill::COMPACT_AFTER + 2,
        "{epochs} checkpoints must compact down, found {frames} frames"
    );

    m.kill_node(1).unwrap();
    // Resumed threads see `stop` first and return their image's cell.
    phase.store(u64::MAX, Ordering::SeqCst);
    stop.store(true, Ordering::SeqCst);
    let rep = m.recover_node(1).unwrap();
    assert_eq!(rep.threads_recovered, 3, "{rep:?}");
    for (h, _) in threads {
        assert_eq!(h.join().unwrap(), epochs, "resumed from the newest epoch");
    }
    m.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
