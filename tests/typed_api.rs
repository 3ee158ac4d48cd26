//! The v1 typed facade: builder construction, typed value-returning join
//! handles (host and green side, across migrations), typed request/reply
//! LRPC including its error paths, panic-message propagation, and `Wire`
//! encode/decode property tests.

use std::time::Duration;

use pm2::api::*;
use pm2::service::MAX_RPC_PAYLOAD;
use pm2::{Machine, NetProfile, Pm2Error, Service, Wire};
use testkit::{cases, StdRng};

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

#[test]
fn builder_launches_a_working_machine() {
    let m = Machine::builder(3)
        .workers(1)
        .net(NetProfile::instant())
        .slot_cache(0)
        .reply_deadline(Duration::from_secs(5))
        .launch()
        .unwrap();
    assert_eq!(m.nodes(), 3);
    assert_eq!((m.config().workers, m.worker_threads()), (1, 1));
    assert_eq!(m.config().reply_deadline, Duration::from_secs(5));
    let where_am_i = m.run_on(2, pm2_self).unwrap();
    assert_eq!(where_am_i, 2);
}

#[test]
fn builder_config_roundtrip_drives_launch() {
    // into_config → launch must behave exactly like launch-from-builder.
    let cfg = Machine::builder(2).test_profile().into_config();
    assert_eq!(cfg.workers, 1);
    let m = Machine::launch(cfg).unwrap();
    assert_eq!(m.run_on(1, pm2_self).unwrap(), 1);
}

fn test_machine(nodes: usize) -> Machine {
    Machine::builder(nodes).test_profile().launch().unwrap()
}

// ---------------------------------------------------------------------------
// Typed join handles
// ---------------------------------------------------------------------------

#[test]
fn spawn_on_ret_returns_a_value() {
    let m = test_machine(2);
    let h = m.spawn_on_ret(0, || 6u64 * 7).unwrap();
    assert_eq!(h.join().unwrap(), 42);
}

#[test]
fn spawn_on_ret_value_survives_migration() {
    // Spawn on node 0, migrate to node 1, die there: the value must still
    // reach the join through the exit protocol.
    let m = test_machine(2);
    let h = m
        .spawn_on_ret(0, || {
            let home = pm2_self();
            pm2_migrate(1).unwrap();
            (home, pm2_self(), String::from("made it"))
        })
        .unwrap();
    let (home, died_on, note) = h.join().unwrap();
    assert_eq!((home, died_on), (0, 1));
    assert_eq!(note, "made it");
}

#[test]
fn spawn_on_ret_composite_types_roundtrip() {
    let m = test_machine(2);
    let h = m
        .spawn_on_ret(1, || (vec![1u32, 2, 3], Some(String::from("x")), -9i64))
        .unwrap();
    assert_eq!(
        h.join().unwrap(),
        (vec![1u32, 2, 3], Some(String::from("x")), -9i64)
    );
}

#[test]
fn try_join_is_none_until_done() {
    let m = test_machine(1);
    let h = m.spawn_on_ret(0, || 5u8).unwrap();
    // Poll until completion; try_join must never panic while pending.
    loop {
        match h.try_join() {
            None => std::thread::yield_now(),
            Some(v) => {
                assert_eq!(v.unwrap(), 5);
                break;
            }
        }
    }
}

#[test]
fn green_side_value_join_across_migration() {
    let m = test_machine(3);
    let sum = m
        .run_on(0, || {
            let tid = pm2_thread_create_ret(|| {
                pm2_migrate(2).unwrap();
                pm2_self() * 100
            })
            .unwrap();
            let v: usize = pm2_join_value(tid).unwrap();
            v + pm2_self()
        })
        .unwrap();
    assert_eq!(sum, 200);
}

#[test]
fn join_value_reports_panics_with_message() {
    let m = test_machine(2);
    let r = m.run_on(0, || {
        let tid = pm2_thread_create_ret(|| -> u32 { panic!("deliberate green failure") }).unwrap();
        pm2_join_value::<u32>(tid)
    });
    match r.unwrap() {
        Err(Pm2Error::Panicked(msg)) => assert!(msg.contains("deliberate green failure")),
        other => panic!("expected Panicked, got {other:?}"),
    }
}

#[test]
fn host_join_handle_reports_panics_with_message() {
    let m = test_machine(2);
    let h = m
        .spawn_on_ret(0, || -> u64 {
            pm2_migrate(1).unwrap();
            panic!("died on node {}", pm2_self());
        })
        .unwrap();
    match h.join() {
        Err(Pm2Error::Panicked(msg)) => assert!(msg.contains("died on node 1"), "{msg}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
}

#[test]
fn run_on_carries_panic_payload() {
    // The satellite bugfix: run_on used to collapse every panic into a
    // generic Spawn("thread panicked").
    let m = test_machine(1);
    match m.run_on(0, || panic!("assertion text survives")) {
        Err(Pm2Error::Panicked(msg)) => assert!(msg.contains("assertion text survives")),
        other => panic!("expected Panicked, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Typed request/reply LRPC
// ---------------------------------------------------------------------------

struct Square;
impl Service for Square {
    const NAME: &'static str = "test.square";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        req * req
    }
}

struct WhereAmI;
impl Service for WhereAmI {
    const NAME: &'static str = "test.where";
    type Req = ();
    type Resp = (usize, String);
    fn handle(&self, _: ()) -> (usize, String) {
        (pm2_self(), format!("served on node {}", pm2_self()))
    }
}

struct Echo;
impl Service for Echo {
    const NAME: &'static str = "test.echo";
    type Req = Vec<u8>;
    type Resp = Vec<u8>;
    fn handle(&self, req: Vec<u8>) -> Vec<u8> {
        req
    }
}

struct Unregistered;
impl Service for Unregistered {
    const NAME: &'static str = "test.never-registered";
    type Req = ();
    type Resp = ();
    fn handle(&self, _: ()) {}
}

struct Explode;
impl Service for Explode {
    const NAME: &'static str = "test.explode";
    type Req = ();
    type Resp = ();
    fn handle(&self, _: ()) {
        panic!("handler exploded");
    }
}

/// Answers a `u32` with that many bytes: a response of any size from a
/// request of one.
struct Inflate;
impl Service for Inflate {
    const NAME: &'static str = "test.inflate";
    type Req = u32;
    type Resp = Vec<u8>;
    fn handle(&self, n: u32) -> Vec<u8> {
        vec![0xAB; n as usize]
    }
}

/// Leaves the serving node before answering; replies with where it went
/// and the request body as it still reads there.
struct Wanderer;
impl Service for Wanderer {
    const NAME: &'static str = "test.wanderer";
    type Req = Vec<u8>;
    type Resp = (usize, Vec<u8>);
    fn handle(&self, req: Vec<u8>) -> (usize, Vec<u8>) {
        pm2_migrate((pm2_self() + 1) % pm2_nodes()).unwrap();
        (pm2_self(), req)
    }
}

#[test]
fn host_rpc_call_roundtrip() {
    let mut m = test_machine(2);
    m.register(Square);
    assert_eq!(m.rpc_call::<Square>(1, 12).unwrap(), 144);
    assert_eq!(m.rpc_call::<Square>(0, 3).unwrap(), 9);
}

#[test]
fn green_rpc_call_roundtrip_and_handler_runs_remotely() {
    let mut m = test_machine(3);
    m.register(WhereAmI);
    let (node, text) = m
        .run_on(0, || pm2_rpc_call::<WhereAmI>(2, ()).unwrap())
        .unwrap();
    assert_eq!(node, 2);
    assert_eq!(text, "served on node 2");
    // And the host can reach the same registration.
    assert_eq!(m.rpc_call::<WhereAmI>(1, ()).unwrap().0, 1);
}

#[test]
fn rpc_unregistered_service_is_a_typed_error() {
    let mut m = test_machine(2);
    match m.rpc_call::<Unregistered>(1, ()) {
        Err(Pm2Error::NoSuchService(id)) => assert_eq!(id, pm2::service_id::<Unregistered>()),
        other => panic!("expected NoSuchService, got {other:?}"),
    }
    // Green-side callers see the same error.
    let r = m.run_on(0, || pm2_rpc_call::<Unregistered>(1, ())).unwrap();
    assert!(matches!(r, Err(Pm2Error::NoSuchService(_))), "{r:?}");
}

#[test]
fn rpc_oversized_request_fails_locally() {
    const OVER: usize = MAX_RPC_PAYLOAD + 10_000;
    let mut m = test_machine(2);
    m.register(Echo);
    match m.rpc_call::<Echo>(1, vec![0u8; OVER]) {
        Err(Pm2Error::PayloadTooLarge { len, max }) => {
            assert!(len >= OVER);
            assert_eq!(max, MAX_RPC_PAYLOAD);
        }
        other => panic!("expected PayloadTooLarge, got {other:?}"),
    }
    // Green side enforces the same ceiling.
    let r = m
        .run_on(0, || pm2_rpc_call::<Echo>(1, vec![0u8; OVER]))
        .unwrap();
    assert!(matches!(r, Err(Pm2Error::PayloadTooLarge { .. })), "{r:?}");
    // A small payload still goes through.
    assert_eq!(m.rpc_call::<Echo>(1, vec![7u8; 16]).unwrap(), vec![7u8; 16]);
}

/// The ceiling is on the encoded body (a `Vec<u8>` is its bytes plus a
/// four-byte count): exactly at it passes, one byte over is refused —
/// locally and typed for a request, remotely and as text for a response.
#[test]
fn rpc_payload_ceiling_is_exact_on_request_and_response() {
    const MAX: usize = MAX_RPC_PAYLOAD;
    let mut m = test_machine(2);
    m.register(Echo);
    m.register(Inflate);
    let over = Pm2Error::PayloadTooLarge {
        len: MAX + 1,
        max: MAX,
    };
    let too_long = Pm2Error::Rpc(format!("response of {} bytes exceeds ceiling", MAX + 1));

    assert_eq!(m.rpc_call::<Echo>(1, vec![]), Ok(vec![]), "empty body");
    assert_eq!(
        m.rpc_call::<Echo>(1, vec![9; MAX - 4]),
        Ok(vec![9; MAX - 4])
    );
    assert_eq!(m.rpc_call::<Echo>(1, vec![9; MAX - 3]), Err(over.clone()));
    assert_eq!(m.rpc_call::<Inflate>(1, 0), Ok(vec![]));
    assert_eq!(
        m.rpc_call::<Inflate>(1, MAX as u32 - 4),
        Ok(vec![0xAB; MAX - 4])
    );
    assert_eq!(
        m.rpc_call::<Inflate>(1, MAX as u32 - 3),
        Err(too_long.clone())
    );

    // Green callers go through the same encoder and decoder.
    let green = m
        .run_on(0, || {
            (
                pm2_rpc_call::<Echo>(1, vec![]),
                pm2_rpc_call::<Echo>(1, vec![9; MAX - 4]),
                pm2_rpc_call::<Echo>(1, vec![9; MAX - 3]),
                pm2_rpc_call::<Inflate>(1, MAX as u32 - 4),
                pm2_rpc_call::<Inflate>(1, MAX as u32 - 3),
            )
        })
        .unwrap();
    assert_eq!(
        green,
        (
            Ok(vec![]),
            Ok(vec![9; MAX - 4]),
            Err(over),
            Ok(vec![0xAB; MAX - 4]),
            Err(too_long)
        )
    );
}

#[test]
fn rpc_handler_panic_becomes_remote_error() {
    let mut m = test_machine(2);
    m.register(Explode);
    match m.rpc_call::<Explode>(1, ()) {
        Err(Pm2Error::Rpc(msg)) => assert!(msg.contains("handler exploded"), "{msg}"),
        other => panic!("expected Rpc, got {other:?}"),
    }
    let r = m.run_on(0, || pm2_rpc_call::<Explode>(1, ())).unwrap();
    assert!(
        matches!(&r, Err(Pm2Error::Rpc(msg)) if msg.contains("handler exploded")),
        "{r:?}"
    );
}

/// The handler thread holds the request inside the message it arrived in
/// and answers from wherever it ends up; the caller matches on the call id.
#[test]
fn rpc_handler_may_migrate_before_replying() {
    let mut m = test_machine(3);
    m.register(Wanderer);
    let body: Vec<u8> = (0..=255).collect();
    assert_eq!(
        m.rpc_call::<Wanderer>(1, body.clone()),
        Ok((2, body.clone()))
    );
    let sent = body.clone();
    let green = m.run_on(0, move || pm2_rpc_call::<Wanderer>(2, sent));
    assert_eq!(green.unwrap(), Ok((0, body)));
}

/// Handler threads are detached: nobody holds their tid, so a clean exit —
/// at home or a migration away — leaves no completion record.  (The
/// registry used to keep one per call, forever.)
#[test]
fn rpc_handler_threads_leave_no_completion_records() {
    let mut m = test_machine(2);
    m.register(Square);
    m.register(Wanderer);
    m.register(Explode);
    let before = m.registry().completed_count();
    let ok = m
        .run_on(0, || {
            (0..50_000u64)
                .filter(|&i| pm2_rpc_call::<Square>(1, i % 1000) == Ok((i % 1000).pow(2)))
                .count()
        })
        .unwrap();
    assert_eq!(ok, 50_000);
    assert!(m.rpc_call::<Wanderer>(1, vec![1]).is_ok());
    assert!(m.rpc_call::<Explode>(1, ()).is_err(), "a caught panic");
    // One record: the calling thread's own.
    assert_eq!(m.registry().completed_count(), before + 1);
}

#[test]
fn rpc_from_every_node_to_every_node() {
    let m = test_machine(3);
    m.register(Square);
    for src in 0..3 {
        for dst in 0..3 {
            let got = m
                .run_on(src, move || pm2_rpc_call::<Square>(dst, 7).unwrap())
                .unwrap();
            assert_eq!(got, 49, "src {src} dst {dst}");
        }
    }
}

#[test]
fn typed_join_consumes_the_value_once() {
    // The value bytes leave the registry on the first typed join; neither
    // a second join nor the trailing cross-node THREAD_EXIT message may
    // resurrect them.
    let m = test_machine(2);
    let (first_ok, second_is_no_value) = m
        .run_on(0, || {
            let tid = pm2_thread_create_ret(|| {
                pm2_migrate(1).unwrap();
                7u64
            })
            .unwrap();
            let first = pm2_join_value::<u64>(tid);
            // Let the cross-node THREAD_EXIT message get pumped at home.
            for _ in 0..200 {
                pm2_yield();
            }
            let second = pm2_join_value::<u64>(tid);
            (first == Ok(7), matches!(second, Err(Pm2Error::Decode(_))))
        })
        .unwrap();
    assert!(first_ok);
    assert!(
        second_is_no_value,
        "THREAD_EXIT must not resurrect a consumed value"
    );
}

#[test]
fn rpc_survives_negotiation_freezes() {
    // Multi-slot allocations under round-robin constantly trigger global
    // negotiations, freezing the serving node's bitmap: RPC_CALLs arriving
    // then are parked in the deferral queue and replayed after NEG_DONE.
    // (Regression: the deferral used to re-send to self, which the pump's
    // drain loop chased forever — a machine-wide deadlock.)
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let m = Machine::builder(3)
        .workers(1)
        .net(NetProfile::instant())
        .area(pm2::AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 96,
        })
        .slot_cache(0)
        // Pin trading off: this test is *about* the §4.4 freeze windows,
        // which the trade-first hot path exists to avoid.
        .slot_trade(false)
        .launch()
        .unwrap();
    m.register(Square);

    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let churn = m
        .spawn_on(1, move || {
            while !stop2.load(Ordering::SeqCst) {
                let p = pm2_isomalloc(2 * 64 * 1024 + 1).unwrap();
                pm2_yield();
                pm2_isofree(p).unwrap();
                pm2_yield();
            }
        })
        .unwrap();
    let ok = m
        .run_on(0, || {
            (0..60u64)
                .filter(|&i| pm2_rpc_call::<Square>(1, i) == Ok(i * i))
                .count()
        })
        .unwrap();
    stop.store(true, Ordering::SeqCst);
    assert!(!m.join(churn).panicked);
    assert_eq!(ok, 60, "every rpc must survive the bitmap freezes");
}

// ---------------------------------------------------------------------------
// Drainers: one handler thread serves the calls queued on its node
// ---------------------------------------------------------------------------

/// Answers by calling [`Square`] on its own node: the call it makes queues
/// behind the one it is serving.
struct Outer;
impl Service for Outer {
    const NAME: &'static str = "test.outer";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        pm2_rpc_call::<Square>(pm2_self(), req).unwrap() + 1
    }
}

/// A service that blocks on a call to its own node is succeeded as the
/// node's drainer, so the call it made is served and it is answered.
#[test]
fn a_handler_that_calls_its_own_node_is_answered() {
    let mut m = Machine::builder(2)
        .test_profile()
        .reply_deadline(Duration::from_secs(2))
        .launch()
        .unwrap();
    m.register(Square);
    m.register(Outer);
    assert_eq!(m.rpc_call::<Outer>(1, 6), Ok(37));
    let green = m.run_on(0, || pm2_rpc_call::<Outer>(1, 7)).unwrap();
    assert_eq!(green, Ok(50));
}

/// Yields once and notes in [`HOLD_IN_CONTROL`] whether it is still in
/// the control lane, raises [`HOLD_ENTERED`], then poll-yields until
/// [`HOLD_RELEASED`] is set.
struct Hold;
static HOLD_ENTERED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static HOLD_RELEASED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static HOLD_IN_CONTROL: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);
impl Service for Hold {
    const NAME: &'static str = "test.hold";
    type Req = ();
    type Resp = ();
    fn handle(&self, _: ()) {
        use std::sync::atomic::Ordering::SeqCst;
        pm2_yield();
        HOLD_IN_CONTROL.store(pm2_set_control_priority(false), SeqCst);
        HOLD_ENTERED.store(true, SeqCst);
        while !HOLD_RELEASED.load(SeqCst) {
            pm2_yield();
        }
    }
}

/// A service that yields leaves its quantum and with it the node's queue:
/// a second client's call is answered while the first is still held.  The
/// held service runs on as a compute thread, and the registry knows of no
/// thread on the serving node: nobody could name one there.
#[test]
fn a_call_queued_behind_a_yielding_handler_is_answered() {
    use std::sync::atomic::Ordering::SeqCst;
    let m = Machine::builder(2)
        .test_profile()
        .reply_deadline(Duration::from_secs(2))
        .launch()
        .unwrap();
    m.register(Hold);
    m.register(Square);
    let held = m
        .spawn_on_ret(0, || pm2_rpc_call::<Hold>(1, ()).is_ok())
        .unwrap();
    while !HOLD_ENTERED.load(SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let second = m.run_on(0, || pm2_rpc_call::<Square>(1, 9));
    let first_still_held = held.try_join().is_none();
    let located = m.registry().located_on(1);
    // Released before any assertion, so that a failure does not leave the
    // held service spinning through the machine's shutdown.
    HOLD_RELEASED.store(true, SeqCst);
    assert_eq!(second, Ok(Ok(81)));
    assert!(first_still_held, "answered while the first is held");
    assert!(
        located.is_empty(),
        "the registry locates {located:x?} there"
    );
    assert!(
        !HOLD_IN_CONTROL.load(SeqCst),
        "it yielded in the control lane"
    );
    assert_eq!(held.join(), Ok(true));
}

/// Eight clients calling one node at once share its handler threads: the
/// calls that queue during one drainer's quantum cost no spawn of their
/// own (one thread per call would read 1,600 spawns).
#[test]
fn a_burst_of_calls_shares_handler_threads() {
    const CLIENTS: u64 = 8;
    const CALLS: u64 = 200;
    let m = test_machine(2);
    m.register(Square);
    let before = m.node_stats(1).spawns;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            m.spawn_on_ret(0, move || {
                (0..CALLS)
                    .filter(|&i| pm2_rpc_call::<Square>(1, c + i) == Ok((c + i) * (c + i)))
                    .count() as u64
            })
            .unwrap()
        })
        .collect();
    let answered: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(answered, CLIENTS * CALLS);
    let spawns = m.node_stats(1).spawns - before;
    assert!(spawns <= CLIENTS * CALLS / 2, "{spawns} handler spawns");
}

/// LRPC traffic is counted once it has left: a call to a killed node fails
/// typed at the send and adds nothing to the caller node's tally.
#[test]
fn a_call_to_a_killed_node_counts_no_traffic() {
    let mut m = test_machine(2);
    m.register(Square);
    assert_eq!(m.run_on(0, || pm2_rpc_call::<Square>(1, 2)).unwrap(), Ok(4));
    m.kill_node(1).unwrap();
    let before = m.node_stats(0).rpc_remote;
    let r = m.run_on(0, || pm2_rpc_call::<Square>(1, 3)).unwrap();
    assert_eq!(r, Err(Pm2Error::NodeFailed(1)));
    assert_eq!(m.node_stats(0).rpc_remote, before);
}

// ---------------------------------------------------------------------------
// Wire property tests
// ---------------------------------------------------------------------------

fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
    let bytes = v.encode_vec();
    assert_eq!(T::decode_vec(&bytes), Some(v));
}

#[test]
fn wire_random_scalars_roundtrip() {
    cases(200, |rng: &mut StdRng| {
        roundtrip(rng.next_u64());
        roundtrip(rng.next_u64() as u32);
        roundtrip(rng.next_u64() as u16);
        roundtrip(rng.next_u64() as u8);
        roundtrip(rng.next_u64() as i64);
        roundtrip(rng.next_u64() as usize);
        roundtrip(rng.random_bool(0.5));
        roundtrip(f64::from_bits(rng.next_u64() | 1)); // avoid NaN-payload eq issues
    });
}

#[test]
fn wire_random_compounds_roundtrip() {
    cases(100, |rng: &mut StdRng| {
        let n = rng.random_range(0..50usize);
        let v: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
        roundtrip(v);
        let s: String = (0..rng.random_range(0..40usize))
            .map(|_| rng.random_range(32..127u32) as u8 as char)
            .collect();
        roundtrip(s.clone());
        let opt = if rng.random_bool(0.5) {
            Some(s.clone())
        } else {
            None
        };
        roundtrip(opt);
        roundtrip((
            rng.next_u64(),
            s,
            rng.random_bool(0.3),
            vec![rng.next_u64() as u8; 3],
        ));
    });
}

#[test]
fn wire_decode_rejects_truncations() {
    cases(100, |rng: &mut StdRng| {
        let value = (rng.next_u64(), String::from("payload"), vec![1u8, 2, 3]);
        let bytes = value.encode_vec();
        // Every strict prefix must fail to decode (or decode to something
        // that is not silently accepted as complete).
        for cut in 0..bytes.len() {
            assert_eq!(
                <(u64, String, Vec<u8>)>::decode_vec(&bytes[..cut]),
                None,
                "prefix of {cut} bytes must not decode"
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Reply deadline
// ---------------------------------------------------------------------------

struct Slow;
impl Service for Slow {
    const NAME: &'static str = "test.slow";
    type Req = ();
    type Resp = ();
    fn handle(&self, _: ()) {
        // Stall well past the caller's deadline (blocks the worker driving
        // this node; a second worker keeps the others responsive).
        std::thread::sleep(Duration::from_millis(600));
    }
}

#[test]
fn short_reply_deadline_times_out_cleanly() {
    let mut m = Machine::builder(2)
        .test_profile()
        .workers(2)
        .reply_deadline(Duration::from_millis(120))
        .launch()
        .unwrap();
    m.register(Slow);
    assert_eq!(
        m.rpc_call::<Slow>(1, ()),
        Err(Pm2Error::Timeout { op: "rpc call" })
    );
    // The machine is still usable afterwards (late reply is stashed away).
    m.register(Square);
    assert_eq!(m.rpc_call::<Square>(0, 5).unwrap(), 25);
}
