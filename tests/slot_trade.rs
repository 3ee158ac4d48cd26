//! The decentralized slot economy: point-to-point lease-based slot trades
//! with watermark prefetch, and its fallback seam into the paper's §4.4
//! global negotiation.
//!
//! The paper-faithful global-protocol mechanics keep their own suite in
//! `tests/negotiation.rs` (pinned `slot_trade(false)`); this file covers
//! the hot path and the boundary between the two.

use pm2::api::*;
use pm2::{AreaConfig, Distribution, Machine, Pm2Config};

fn machine(nodes: usize) -> Machine {
    Machine::launch(Pm2Config::test(nodes)).unwrap()
}

#[test]
fn trade_covers_shortfall_with_one_exchange_and_no_freeze() {
    // Round-robin p=2: node 0 owns only even slots, so a 2-slot request
    // can never be satisfied locally.  One trade with node 1 merges the
    // lent odd slots with the local evens into contiguous runs — no lock,
    // no gather, no freeze anywhere.
    let mut m = machine(2);
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(slot + 1).unwrap(); // 2 slots
        unsafe { std::ptr::write_bytes(p, 0xAD, slot + 1) };
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let s0 = m.node_stats(0);
    assert_eq!(s0.trades, 1, "exactly one demand trade");
    assert_eq!(s0.negotiations, 0, "the global protocol must not run");
    assert_eq!(s0.trade_fallbacks, 0);
    assert!(s0.trade_slots_in >= 2);
    assert_eq!(m.node_stats(1).trade_grants, 1);
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

#[test]
fn trade_batch_amortizes_across_subsequent_allocations() {
    // The batch that rides the first trade covers later shortfalls: many
    // multi-slot allocations, O(1) trades.
    let mut m = Machine::builder(2)
        .test_profile()
        .trade_batch(24)
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let mut live = Vec::new();
        for _ in 0..8 {
            live.push(pm2_isomalloc(slot + 1).unwrap()); // 2 slots each
        }
        for p in live {
            pm2_isofree(p).unwrap();
        }
    })
    .unwrap();
    let s0 = m.node_stats(0);
    assert_eq!(s0.negotiations, 0);
    assert!(
        s0.trades <= 2,
        "a 24-slot batch must cover 8×2-slot allocations in O(1) trades, got {}",
        s0.trades
    );
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

#[test]
fn concurrent_trades_from_three_starving_nodes_do_not_double_grant() {
    // Nodes 1, 2 and 3 all run multi-slot churn simultaneously; every
    // shortfall trades (with node 0 as the initially richest lender and
    // then with each other as wealth shifts).  The iso-address invariant
    // — every slot owned by exactly one agent — must hold at quiescence,
    // and every thread's heap must verify structurally after the churn.
    let mut m = Machine::builder(4)
        .test_profile()
        .distribution(Distribution::Partitioned)
        .trade_batch(8)
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    let quarter = m.area().n_slots() / 4; // 64 slots per node
                                          // Each worker holds ~1.2× its node's share in whole-slot blocks, so
                                          // all three shortfalls are live at once (total demand ≈ 3.6 shares of
                                          // 4 — node 0's share is the float everyone trades over).
    let blocks = quarter + quarter / 5;
    let mut workers = Vec::new();
    for node in 1..4usize {
        workers.push(
            m.spawn_on(node, move || {
                let mut live = Vec::new();
                for i in 0..blocks {
                    live.push(pm2_isomalloc(slot - 1024).unwrap()); // 1 slot each
                    if i % 3 == 0 {
                        pm2_yield();
                    }
                }
                // Heap green after the churn.
                let d = marcel::current_desc();
                unsafe {
                    isomalloc::verify::verify_heap(&(*d).heap, slot)
                        .unwrap_or_else(|e| panic!("node {node} heap corrupt: {e}"));
                }
                for p in live {
                    pm2_isofree(p).unwrap();
                }
            })
            .unwrap(),
        );
    }
    for w in workers {
        assert!(!m.join(w).panicked, "starving worker must complete");
    }
    for node in 1..4 {
        let s = m.node_stats(node);
        assert!(
            s.trade_slots_in > 0,
            "node {node} must have adopted traded slots (demand or prefetch)"
        );
    }
    // No slot double-granted, none lost: the audit checks the exact
    // exclusive-ownership partition over the whole area.
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

#[test]
fn refused_trade_falls_back_to_global_negotiation() {
    // Watermarks so high that every lender refuses (granting would drop
    // it below its own low water).  The demand trade is refused and the
    // request falls through to the §4.4 protocol — whose NEG_BUYs ignore
    // watermarks, because it is the authority of last resort.
    let mut m = Machine::builder(2)
        .test_profile()
        .slot_watermarks(1024, 1024) // 256-slot area: everyone is "poor"
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(slot + 1).unwrap();
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let s0 = m.node_stats(0);
    assert_eq!(s0.trades, 1, "the trade was attempted first");
    assert_eq!(s0.trade_fallbacks, 1, "and fell back");
    assert_eq!(s0.negotiations, 1, "the global protocol satisfied it");
    assert_eq!(m.node_stats(1).trade_refusals, 1);
    assert!(
        m.slot_stats(1).slots_sold > 0,
        "global buy ignored the watermark"
    );
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

#[test]
fn fragmented_cluster_needs_the_global_first_fit() {
    // p=4 round-robin, request an 8-slot run: a single lender's grant can
    // never produce 8 contiguous slots (each node owns every 4th slot),
    // so the trade lands but cannot satisfy the contiguity and the global
    // first-fit over the OR of all bitmaps is the only way to assemble
    // the run — the "cluster genuinely fragmented" case.
    let mut m = machine(4);
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let p = pm2_isomalloc(7 * slot).unwrap(); // 8 slots
        unsafe { std::ptr::write_bytes(p, 0xEE, 7 * slot) };
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    let s0 = m.node_stats(0);
    assert_eq!(s0.trades, 1);
    assert_eq!(s0.trade_fallbacks, 1, "trade alone cannot defragment");
    assert_eq!(s0.negotiations, 1);
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

#[test]
fn watermark_prefetch_tops_up_the_reserve_asynchronously() {
    // Partitioned p=2: node 0 drains its own contiguous share with
    // single-slot allocations (yielding like a real workload); once the
    // reserve dips below the low watermark the driver prefetches a batch
    // from node 1 *before* the allocator ever blocks on a shortfall.
    // The low watermark is the headroom the fill has to land in: a worker
    // may run node 0 for the executor's whole `FAIRNESS` budget (32 quanta,
    // one slot each here) before the lender is dispatched at all, so the
    // reserve must outlast more than one budget.
    let mut m = Machine::builder(2)
        .test_profile()
        .distribution(Distribution::Partitioned)
        .slot_watermarks(40, 72)
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    let share = m.area().n_slots() / 2;
    m.run_on(0, move || {
        let mut live = Vec::new();
        // Walk well past the node's own share, one whole slot per block,
        // yielding between allocations like a real workload.
        for _ in 0..(share + 32) {
            live.push(pm2_isomalloc(slot - 1024).unwrap());
            pm2_yield();
        }
        for p in live {
            pm2_isofree(p).unwrap();
        }
    })
    .unwrap();
    let s0 = m.node_stats(0);
    assert!(s0.prefetches >= 1, "the watermark must have triggered");
    assert!(s0.prefetch_fills >= 1, "and the fill must have landed");
    assert_eq!(
        s0.trades, 0,
        "prefetch kept the allocator from ever blocking on a demand trade"
    );
    assert_eq!(s0.negotiations, 0);
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

#[test]
fn wealth_piggybacks_on_load_probes() {
    // A LOAD_REQ/RESP exchange refreshes the prober's wealth entry for
    // the probed node — the balancer's probes and the slot trader share
    // one freshness source.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut m = machine(3);
    let slot = m.area().slot_size();
    let n_slots = m.area().n_slots();
    // The prior is the even split…
    let prior = (n_slots / 3) as u64;
    assert_eq!(m.peer_wealth(0)[1], prior);
    // …until real traffic refreshes it: hold a few of node 1's slots
    // live while node 0 probes.
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let holder = m
        .spawn_on(1, move || {
            let a = pm2_isomalloc(slot - 1024).unwrap();
            let b = pm2_isomalloc(slot - 1024).unwrap();
            while !stop2.load(Ordering::SeqCst) {
                pm2_yield();
            }
            pm2_isofree(a).unwrap();
            pm2_isofree(b).unwrap();
        })
        .unwrap();
    m.run_on(0, || {
        let _ = pm2_probe_load(1).unwrap();
        let wealth = pm2_peer_wealth();
        assert!(wealth[1] > 0, "probe refreshed node 1's wealth");
    })
    .unwrap();
    let s0 = m.node_stats(0);
    assert!(s0.wealth_updates >= 1);
    // Host-side view agrees the hint table moved off the prior (the
    // holder's stack + blocks keep node 1 visibly below the even split).
    assert!(m.peer_wealth(0)[1] < prior);
    stop.store(true, Ordering::SeqCst);
    assert!(!m.join(holder).panicked);
    m.shutdown();
}

#[test]
fn stacked_requesters_park_instead_of_spinning() {
    // Several threads hit remote shortfalls at once on the same node: the
    // first claims the acquire path, the rest park on the waiter queue
    // (no spin-yield storm) and are woken FIFO — and typically satisfied
    // straight from the first requester's trade batch.
    let mut m = Machine::builder(2)
        .test_profile()
        .trade_batch(32)
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    let mut ts = Vec::new();
    for _ in 0..6 {
        ts.push(
            m.spawn_on(0, move || {
                let p = pm2_isomalloc(slot + 1).unwrap();
                pm2_yield();
                pm2_isofree(p).unwrap();
            })
            .unwrap(),
        );
    }
    for t in ts {
        assert!(!m.join(t).panicked);
    }
    let s0 = m.node_stats(0);
    assert_eq!(s0.negotiations, 0);
    assert!(
        s0.trades <= 2,
        "stacked requesters must ride the first trade's batch, got {}",
        s0.trades
    );
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}

#[test]
fn forced_global_still_handles_everything_trade_would() {
    // The slot_trade(false) baseline serves the same workload purely via
    // §4.4 — the fallback is a complete protocol, not a vestige.
    let mut m = Machine::builder(2)
        .test_profile()
        .slot_trade(false)
        .area(AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 64,
        })
        .launch()
        .unwrap();
    let slot = m.area().slot_size();
    m.run_on(0, move || {
        let mut live = Vec::new();
        for _ in 0..4 {
            live.push(pm2_isomalloc(slot + 1).unwrap());
        }
        for p in live {
            pm2_isofree(p).unwrap();
        }
    })
    .unwrap();
    let s0 = m.node_stats(0);
    assert_eq!(s0.trades, 0);
    assert!(s0.negotiations >= 1);
    m.audit().unwrap().check_partition().unwrap();
    m.shutdown();
}
