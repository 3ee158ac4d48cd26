//! Runtime smoke tests (the full paper-scenario tests live in the
//! workspace-level `tests/` directory).

use crate::api::*;
use crate::node::NodeCtx;
use crate::{Machine, Pm2Config};
use madeleine::Endpoint;

/// Counts this binary's allocations per thread, for the tests that claim a
/// path makes none (`migration.rs`'s hop test).
#[global_allocator]
static ALLOC: testkit::alloc::Watching = testkit::alloc::Watching;

fn test_machine(nodes: usize) -> Machine {
    Machine::launch(Pm2Config::test(nodes)).unwrap()
}

#[test]
fn launch_and_shutdown_empty() {
    for nodes in [1, 2, 5] {
        let mut m = test_machine(nodes);
        m.shutdown();
    }
}

#[test]
fn two_worker_launch_and_shutdown() {
    let mut m = Machine::builder(3)
        .test_profile()
        .workers(2)
        .launch()
        .unwrap();
    let v = m.run_on(2, pm2_self).unwrap();
    assert_eq!(v, 2);
    m.shutdown();
}

#[test]
fn run_on_returns_value() {
    let mut m = test_machine(2);
    let v = m.run_on(1, || 6 * 7).unwrap();
    assert_eq!(v, 42);
    m.shutdown();
}

#[test]
fn spawned_thread_knows_its_node() {
    let mut m = test_machine(3);
    for node in 0..3 {
        let n = m.run_on(node, pm2_self).unwrap();
        assert_eq!(n, node);
    }
    m.shutdown();
}

#[test]
fn isomalloc_roundtrip_single_node() {
    let mut m = test_machine(1);
    m.run_on(0, || {
        let p = pm2_isomalloc(4096).unwrap();
        unsafe {
            std::ptr::write_bytes(p, 0x5C, 4096);
            assert_eq!(*p.add(4095), 0x5C);
        }
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn basic_migration_preserves_pointer() {
    let mut m = test_machine(2);
    m.run_on(0, || {
        let p = pm2_isomalloc(64).unwrap() as *mut u64;
        unsafe { p.write(0xABCD) };
        let addr_before = p as usize;
        assert_eq!(pm2_self(), 0);
        pm2_migrate(1).unwrap();
        assert_eq!(pm2_self(), 1);
        assert_eq!(p as usize, addr_before);
        assert_eq!(unsafe { p.read() }, 0xABCD);
        pm2_isofree(p as *mut u8).unwrap();
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn printf_is_captured_with_node_prefix() {
    let mut m = test_machine(2);
    m.run_on(0, || {
        crate::pm2_printf!("value = {}", 1);
        pm2_migrate(1).unwrap();
        crate::pm2_printf!("value = {}", 1);
    })
    .unwrap();
    assert_eq!(
        m.output_lines(),
        vec!["[node0] value = 1", "[node1] value = 1"]
    );
    m.shutdown();
}

#[test]
fn negotiation_supplies_multislot_allocation() {
    // Round-robin, 2 nodes, trading disabled: any multi-slot allocation
    // must run the paper's §4.4 global negotiation.
    let mut m = Machine::builder(2)
        .test_profile()
        .slot_trade(false)
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(3 * slot).unwrap();
        unsafe {
            std::ptr::write_bytes(p, 0x77, 3 * slot);
            assert_eq!(*p.add(3 * slot - 1), 0x77);
        }
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    assert_eq!(m.node_stats(0).negotiations, 1);
    assert!(
        m.slot_stats(1).slots_sold > 0,
        "node 1 must have sold slots"
    );
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn trade_supplies_multislot_allocation_without_global_protocol() {
    // Same workload with the (default) trade-first economy: the shortfall
    // is covered by one point-to-point trade — no lock, no freeze, no
    // bitmap gather — and the §4.4 protocol never runs.
    let mut m = test_machine(2);
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(3 * slot).unwrap();
        unsafe {
            std::ptr::write_bytes(p, 0x77, 3 * slot);
            assert_eq!(*p.add(3 * slot - 1), 0x77);
        }
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let s = m.node_stats(0);
    assert_eq!(
        s.negotiations, 0,
        "hot path must not run the global protocol"
    );
    assert_eq!(s.trades, 1);
    assert!(s.trade_slots_in > 0);
    assert_eq!(m.node_stats(1).trade_grants, 1);
    assert!(m.slot_stats(1).slots_lent > 0);
    assert!(m.slot_stats(0).slots_adopted > 0);
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn join_across_nodes() {
    let mut m = test_machine(2);
    let t = m
        .spawn_on(0, || {
            pm2_migrate(1).unwrap(); // dies on node 1, home is node 0
        })
        .unwrap();
    let exit = m.join(t);
    assert!(!exit.panicked);
    assert_eq!(exit.died_on, 1);
    m.shutdown();
}

#[test]
fn rpc_spawn_runs_service_remotely() {
    use crate::service::MAX_RPC_PAYLOAD;
    use crate::Pm2Error;
    use std::time::Duration;
    let mut m = test_machine(2);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<u8>)>();
    m.register_service(9, move |args| {
        tx.send((pm2_self(), args)).unwrap();
    });
    // Nobody holds the tid of the thread that served a spawn, so nobody
    // could read how it ended: a clean exit leaves no completion record.
    let before = m.registry().completed_count();
    const SPAWNS: usize = 100;
    for _ in 0..SPAWNS {
        m.rpc_spawn(1, 9, b"hello").unwrap();
    }
    for _ in 0..SPAWNS {
        let (node, args) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(node, 1);
        assert_eq!(args, b"hello");
    }
    // A thread spawned on node 1 after them runs once they have exited.
    m.run_on(1, || ()).unwrap();
    assert_eq!(
        m.registry().completed_count(),
        before + 1,
        "only run_on's own thread is recorded"
    );

    // A service that panics is one line on its node, not a record, and
    // the spawns behind it are served.
    m.register_service(10, |_| panic!("service 10 refuses"));
    let lines = m.output_lines().len();
    m.rpc_spawn(1, 10, b"").unwrap();
    m.rpc_spawn(1, 9, b"after").unwrap();
    let served = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(served, (1, b"after".to_vec()));
    assert_eq!(
        m.registry().completed_count(),
        before + 1,
        "the panic left a record"
    );
    let new = m.output_lines().split_off(lines);
    assert_eq!(new.len(), 1, "{new:?}");
    assert!(new[0].contains("service 10 refuses"), "{new:?}");

    // The args travel as a `Vec<u8>` request — a length, then the bytes —
    // so they are bounded like one.
    let args = vec![7u8; MAX_RPC_PAYLOAD + 1];
    let too_large = |r: crate::Result<()>| matches!(r, Err(Pm2Error::PayloadTooLarge { .. }));
    assert!(too_large(m.rpc_spawn(1, 9, &args[..MAX_RPC_PAYLOAD - 3])));
    m.rpc_spawn(1, 9, &args[..MAX_RPC_PAYLOAD - 4]).unwrap();
    let (_, served) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(served.len(), MAX_RPC_PAYLOAD - 4);
    assert!(too_large(
        m.run_on(0, move || pm2_rpc_spawn(1, 9, &args)).unwrap()
    ));
    m.shutdown();
}

#[test]
fn audit_passes_on_idle_machine() {
    let mut m = test_machine(4);
    let report = m.audit().unwrap();
    let summary = report.check_partition().unwrap();
    assert_eq!(summary.node_owned, m.area().n_slots());
    assert_eq!(summary.thread_owned, 0);
    m.shutdown();
}

/// Build a bare NodeCtx (node 0 of 2, configured by `cfg`) plus node 1's
/// endpoint and a "host" endpoint feeding it — the harness for the
/// white-box pump tests below and the pack-path test in `migration.rs`.
pub(crate) fn bare_node(cfg: Pm2Config) -> (NodeCtx, Endpoint, Endpoint) {
    use std::sync::Arc;
    let cfg = Arc::new(cfg);
    let area = Arc::new(isoaddr::IsoArea::with_strategy(cfg.area, cfg.map_strategy).unwrap());
    let mut eps = madeleine::Fabric::new(3, madeleine::NetProfile::instant());
    let host = eps.pop().unwrap();
    let ep1 = eps.pop().unwrap();
    let ep0 = eps.pop().unwrap();
    let ctx = NodeCtx::new(
        &cfg,
        0,
        area,
        ep0,
        crate::output::OutputSink::new(),
        crate::registry::Registry::new_shared(),
        crate::registry::SpawnTable::new_shared(),
        Default::default(),
    );
    (ctx, ep1, host)
}

/// [`bare_node`]'s node 0 with node 1 built around the endpoint beside it:
/// a two-node machine with no driver, which the test thread steps itself.
pub(crate) fn bare_pair(cfg: Pm2Config) -> (NodeCtx, NodeCtx, Endpoint) {
    use std::sync::Arc;
    let (n0, ep1, host) = bare_node(cfg);
    let n1 = NodeCtx::new(
        &n0.cfg,
        1,
        Arc::clone(n0.mgr.area()),
        ep1,
        Arc::clone(&n0.out),
        Arc::clone(&n0.registry),
        Arc::clone(&n0.spawn_table),
        Arc::clone(&n0.services),
    );
    (n0, n1, host)
}

/// The pump takes messages in the order the links delivered them, at
/// most [`crate::node::PUMP_BUDGET`] a pump: a `SHUTDOWN` sent behind a
/// longer flood waits for the next pump, which finishes the flood first.
#[test]
fn a_pump_stops_at_its_budget_and_keeps_the_rest_in_order() {
    use crate::node::PUMP_BUDGET;
    use crate::proto::tag;
    let (mut ctx, _ep1, host) = bare_node(Pm2Config::test(2));
    // Junk RPC_RESPs (no caller waits on them: dropped on handling)…
    for _ in 0..PUMP_BUDGET + 6 {
        host.send(0, tag::RPC_RESP, vec![0u8; 4]).unwrap();
    }
    // …then the SHUTDOWN, sent last.
    host.send(0, tag::SHUTDOWN, Vec::new()).unwrap();
    assert!(ctx.pump());
    assert!(!ctx.shutdown, "the SHUTDOWN waits behind the flood");
    assert!(ctx.inbox_pending(), "the budget left the rest queued");
    assert!(ctx.pump());
    assert!(ctx.shutdown, "the second pump reaches the SHUTDOWN");
    assert!(!ctx.inbox_pending());
    assert!(!ctx.pump(), "nothing left");
}

/// A handler sees what its link delivered before: a `MIGRATE_CMD` the
/// host sends right behind a `SPAWN_KEY` finds the thread that spawn
/// created, within one pump.
#[test]
fn a_command_that_follows_a_spawn_on_its_link_finds_the_thread() {
    use crate::proto::{encode, tag, MigrateAck, MigrateCmd, SpawnKey};
    use madeleine::Wire;
    let (mut ctx, _ep1, host) = bare_node(Pm2Config::test(2));
    let tid = 0x5000;
    let key = ctx.spawn_table.park(Box::new(|| ()));
    host.send(
        0,
        tag::SPAWN_KEY,
        encode(host.pool(), &SpawnKey { key, tid }),
    )
    .unwrap();
    let cmd = MigrateCmd {
        cmd_id: 7,
        dest: 1,
        tids: vec![tid],
    };
    host.send(0, tag::MIGRATE_CMD, encode(host.pool(), &cmd))
        .unwrap();
    assert!(ctx.pump());
    let ack = host
        .try_recv()
        .expect("the command is answered in the pump");
    assert_eq!(ack.tag, tag::MIGRATE_CMD_ACK);
    let ack = MigrateAck::decode_vec(&ack.payload).expect("ack decodes");
    assert_eq!((ack.cmd_id, ack.accepted, ack.total), (7, 1, 1));
}

/// A node answers each §4.4 bitmap request by freezing for that
/// initiator's section alone.  A stale section's `NEG_DONE` (here node
/// 2's, whose request a stall delivered inside node 1's later section)
/// must not thaw the node while node 1's section still holds it.  The
/// third endpoint of [`bare_node`] is node 2 on a three-node config: the
/// host may not take part in §4.4.
#[test]
fn a_stale_neg_done_does_not_thaw_a_later_section() {
    use crate::proto::{encode, tag, NegBitmapReq};
    let (mut ctx, ep1, ep2) = bare_node(Pm2Config::test(3));
    let req = |round| NegBitmapReq { round };
    ep1.send(0, tag::NEG_BITMAP_REQ, encode(ep1.pool(), &req(1)))
        .unwrap();
    ep2.send(0, tag::NEG_BITMAP_REQ, encode(ep2.pool(), &req(2)))
        .unwrap();
    ep2.send(0, tag::NEG_DONE, Vec::new()).unwrap();
    while ctx.pump() {}
    assert!(ctx.frozen(), "node 1's section has not ended");
    ep1.send(0, tag::NEG_DONE, Vec::new()).unwrap();
    while ctx.pump() {}
    assert!(!ctx.frozen(), "the last section's NEG_DONE thaws the node");
}

/// A lender that dies is owed nothing: a demand trade and the watermark
/// prefetch both out to node 1 leave [`NodeCtx::owed`] with its death,
/// and the prefetcher, re-armed by that, asks the next richest peer at the
/// next step.  (The third endpoint of [`bare_node`] is node 2 here.)
#[test]
fn a_lender_that_dies_is_owed_nothing() {
    use crate::proto::{tag, SlotTradeReq};
    use madeleine::Wire;
    let (mut ctx, ep1, ep2) = bare_node(Pm2Config::test(3));
    ctx.set_peer_wealth(1, 1000);
    ctx.set_peer_wealth(2, 500);
    // Node 0 gives its whole reserve away: below its low watermark.
    let free = ctx.mgr.free_slots();
    ctx.mgr.lend_batch(free, 1).unwrap();
    let (lender, _) = ctx.trade(0, 4, 2, false).expect("a demand trade");
    ctx.step();
    let asked = |ep: &Endpoint| -> Vec<SlotTradeReq> {
        std::iter::from_fn(|| ep.try_recv())
            .filter(|m| m.tag == tag::SLOT_TRADE_REQ)
            .map(|m| SlotTradeReq::decode_vec(&m.payload).unwrap())
            .collect()
    };
    assert_eq!(lender, 1);
    assert_eq!(asked(&ep1).len(), 2, "the demand trade and the prefetch");
    assert_eq!(ctx.owed.len(), 2);
    ctx.note_node_dead(1);
    assert!(ctx.owed.is_empty(), "node 1 owes nothing now");
    ctx.step();
    let prefetch = asked(&ep2);
    assert_eq!(prefetch.len(), 1, "the prefetcher re-armed");
    assert_eq!(prefetch[0].min_contig, 1);
    assert_eq!(
        ctx.owed.keys().map(|&(_, peer)| peer).collect::<Vec<_>>(),
        [2]
    );
}

/// A gossip round sends its digest to distinct peers: on a two-node
/// machine the only live peer gets exactly one copy per round.  Its own
/// entry leads; the entry it heard from its peer rides along only with the
/// detector armed, since every relayed byte costs the receiver wire time.
#[test]
fn a_gossip_round_sends_one_digest_per_distinct_peer() {
    use crate::proto::{tag, Gossip, GossipEntry};
    use madeleine::Wire;
    let armed = Some(std::time::Duration::from_secs(1));
    for (failure_timeout, relayed) in [(armed, 1), (None, 0)] {
        let (mut ctx, ep1, _host) = bare_node(Pm2Config {
            failure_timeout,
            ..Pm2Config::test(2)
        });
        let (node, seq, wealth, load) = (1, 3, 7, 0);
        ctx.absorb_gossip(GossipEntry {
            node,
            seq,
            wealth,
            load,
        });
        ctx.gossip_round();
        let digests: Vec<_> = std::iter::from_fn(|| ep1.try_recv()).collect();
        assert_eq!(digests.len(), 1, "one round, one live peer, one digest");
        assert_eq!(digests[0].tag, tag::GOSSIP);
        let Gossip { entries } = Gossip::decode_vec(&digests[0].payload).expect("digest decodes");
        assert_eq!((entries[0].node, entries[0].seq), (0, 1), "own entry first");
        assert_eq!(entries.len(), 1 + relayed, "{failure_timeout:?}");
    }
}

/// Doubles its request: the smallest typed service.
struct Double;
impl crate::Service for Double {
    const NAME: &'static str = "tests.double";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, x: u64) -> u64 {
        2 * x
    }
}

/// An LRPC round trip allocates nothing once the pair has served a few:
/// request and reply are pooled buffers, the drainer's closure moves into
/// its stack slot, the node's call queue and the caller's wait reuse the
/// room earlier calls left, the serving node finds the handler in its own
/// copy of the service table, and the fabric's inboxes keep their room.
/// Counted on the thread that steps both nodes, so both legs, the
/// drainer's spawn and its exit are in (one caller: a drainer per call).
#[test]
fn an_rpc_round_trip_allocates_nothing_in_steady_state() {
    use testkit::alloc::allocs_in;
    const CALLS: u64 = 10_000;
    let (mut n0, mut n1, _host) = bare_pair(Pm2Config::test(2));
    n0.services.register(Double);
    let caller = || {
        for x in 0.. {
            assert_eq!(pm2_rpc_call::<Double>(1, x), Ok(2 * x));
        }
    };
    n0.try_spawn(0x501, 0, caller).unwrap();
    // A call is one step of each node: the caller files the last reply and
    // sends its next request, the server spawns and runs the handler.
    let calls = |n0: &mut NodeCtx, n1: &mut NodeCtx, k: u64| {
        let served = |n: &NodeCtx| n.stats.snapshot().spawns;
        let before = served(n1);
        for _ in 0..k {
            assert!(n0.step() && n1.step());
        }
        assert_eq!(served(n1) - before, k);
    };
    calls(&mut n0, &mut n1, 64);
    let ((), allocs) = allocs_in(|| calls(&mut n0, &mut n1, CALLS));
    assert_eq!(allocs, 0, "{CALLS} calls");
}
