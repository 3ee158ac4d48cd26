//! The global negotiation protocol (§4.4) exercised end-to-end, plus the
//! distribution ablations of §4.1.
//!
//! Since the decentralized slot economy landed, the global protocol is a
//! *fallback*: the tests here that are specifically about §4.4 mechanics
//! (the lock service, the gather/freeze, multi-seller buys) pin
//! `slot_trade(false)` so they keep exercising the paper's path; the
//! trade-first hot path has its own suite in `tests/slot_trade.rs`.

use pm2::api::*;
use pm2::{AreaConfig, Distribution, Machine};

fn machine_with(nodes: usize, dist: Distribution) -> Machine {
    Machine::builder(nodes)
        .test_profile()
        .distribution(dist)
        .launch()
        .unwrap()
}

/// A machine whose every slot shortfall runs the §4.4 global protocol.
fn global_machine_with(nodes: usize, dist: Distribution) -> Machine {
    Machine::builder(nodes)
        .test_profile()
        .distribution(dist)
        .slot_trade(false)
        .launch()
        .unwrap()
}

#[test]
fn round_robin_forces_negotiation_for_any_multislot() {
    // §4.1: under round-robin with p ≥ 2, no node owns two contiguous
    // slots, so every multi-slot allocation negotiates (trading disabled
    // here — with it on, a trade covers the shortfall instead).
    let mut m = global_machine_with(2, Distribution::RoundRobin);
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(slot + 1).unwrap(); // 2 slots
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    assert_eq!(m.node_stats(0).negotiations, 1);
    m.shutdown();
}

#[test]
fn block_cyclic_keeps_small_multislot_local() {
    // Block-cyclic(8): up to 8 contiguous slots stay local — the paper's
    // suggested fix for round-robin's multi-slot weakness.
    let mut m = machine_with(2, Distribution::BlockCyclic(8));
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(5 * slot).unwrap(); // 6 slots: local
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    assert_eq!(
        m.node_stats(0).negotiations,
        0,
        "block-cyclic must avoid negotiation"
    );
    m.shutdown();
}

#[test]
fn partitioned_distribution_never_negotiates_until_huge() {
    let mut m = machine_with(4, Distribution::Partitioned);
    let slot = m.area().slot_size();
    let quarter = m.area().n_slots() / 4;
    m.run_on(2, move || {
        // Half of this node's contiguous share: local.
        let p = pm2_isomalloc((quarter / 2) * slot).unwrap();
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    assert_eq!(m.node_stats(2).negotiations, 0);
    m.shutdown();
}

#[test]
fn negotiation_buys_from_multiple_sellers() {
    // 4 nodes round-robin: an 8-slot run spans slots owned by 4 different
    // nodes — one negotiation, three sellers (plus own slots).
    let mut m = global_machine_with(4, Distribution::RoundRobin);
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(7 * slot).unwrap(); // 8 slots
        unsafe { std::ptr::write_bytes(p, 0xEE, 7 * slot) };
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    assert_eq!(m.node_stats(0).negotiations, 1);
    for peer in 1..4 {
        assert!(
            m.slot_stats(peer).slots_sold >= 1,
            "node {peer} should have sold slots to node 0"
        );
    }
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn negotiated_block_migrates_like_any_other() {
    // A multi-slot ("large slot") block follows its thread on migration.
    let mut m = machine_with(2, Distribution::RoundRobin);
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let n = 3 * slot;
        let p = pm2_isomalloc(n).unwrap();
        unsafe {
            for i in 0..n {
                p.add(i).write((i % 251) as u8);
            }
        }
        pm2_migrate(1).unwrap();
        unsafe {
            for i in (0..n).step_by(997) {
                assert_eq!(p.add(i).read(), (i % 251) as u8);
            }
        }
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn out_of_slots_is_reported_not_wedged() {
    // Ask for more contiguous slots than the whole area has.
    let mut m = Machine::builder(2)
        .test_profile()
        .area(AreaConfig {
            slot_size: 65536,
            n_slots: 16,
        })
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    let r = m
        .run_on(0, move || pm2_isomalloc(32 * slot).map(|_| ()))
        .unwrap();
    assert!(matches!(r, Err(pm2::Pm2Error::OutOfSlots { .. })), "{r:?}");
    // The machine still works afterwards.
    m.run_on(0, || {
        let p = pm2_isomalloc(64).unwrap();
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn concurrent_negotiations_from_different_nodes_serialize() {
    // Two nodes negotiate multi-slot allocations at once; the node-0 lock
    // service serializes them and both succeed.
    let mut m = global_machine_with(4, Distribution::RoundRobin);
    let slot = m.area().slot_size();
    let t0 = m
        .spawn_on(1, move || {
            for _ in 0..3 {
                let p = pm2_isomalloc(2 * slot).unwrap();
                pm2_isofree(p).unwrap();
            }
        })
        .unwrap();
    let t1 = m
        .spawn_on(2, move || {
            for _ in 0..3 {
                let p = pm2_isomalloc(3 * slot).unwrap();
                pm2_isofree(p).unwrap();
            }
        })
        .unwrap();
    assert!(!m.join(t0).panicked);
    assert!(!m.join(t1).panicked);
    let audit = m.audit().unwrap();
    audit.check_partition().unwrap();
    m.shutdown();
}

#[test]
fn local_single_slot_allocation_continues_during_negotiation() {
    // §4.4(a): while a negotiation freezes the bitmaps, nodes "may still run
    // code and allocate/free blocks, as long as no slot management is
    // necessary".  Block-level allocs inside existing slots must proceed.
    let mut m = global_machine_with(2, Distribution::RoundRobin);
    let slot = m.area().slot_size();
    // A thread on node 1 doing many small (block-level) allocations while
    // node 0 negotiates repeatedly.
    let worker = m
        .spawn_on(1, move || {
            let warm = pm2_isomalloc(64).unwrap(); // pins one slot open
            for _ in 0..400 {
                let p = pm2_isomalloc(48).unwrap();
                pm2_yield();
                pm2_isofree(p).unwrap();
            }
            pm2_isofree(warm).unwrap();
        })
        .unwrap();
    let negotiator = m
        .spawn_on(0, move || {
            for _ in 0..5 {
                let p = pm2_isomalloc(2 * slot).unwrap();
                pm2_isofree(p).unwrap();
            }
        })
        .unwrap();
    assert!(!m.join(negotiator).panicked);
    assert!(!m.join(worker).panicked);
    m.shutdown();
}

#[test]
fn single_node_machine_never_negotiates() {
    let mut m = machine_with(1, Distribution::RoundRobin);
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(10 * slot).unwrap();
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    assert_eq!(m.node_stats(0).negotiations, 0, "p=1 owns everything");
    m.shutdown();
}
