//! The global exclusive-ownership audit, exercised with live threads
//! holding slots: Fig. 6's life cycle made machine-checkable.

use pm2::api::*;
use pm2::{Machine, Pm2Config};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn audit_sees_thread_owned_slots_while_threads_live() {
    let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for i in 0..4usize {
        let stop = Arc::clone(&stop);
        handles.push(
            m.spawn_on(i % 2, move || {
                // Hold one stack slot + at least one heap slot.
                let p = pm2_isomalloc(1000).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    pm2_yield();
                }
                pm2_isofree(p).unwrap();
            })
            .unwrap(),
        );
    }
    // Let everyone start and allocate.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let report = m.audit().unwrap();
    let summary = report.check_partition().unwrap();
    // 4 threads × (1 stack slot + 1 heap slot).
    assert_eq!(summary.thread_owned, 8, "{summary:?}");
    assert_eq!(summary.threads, 4);
    assert_eq!(
        summary.node_owned + summary.thread_owned,
        m.area().n_slots()
    );

    stop.store(true, Ordering::SeqCst);
    for h in handles {
        m.join(h);
    }
    // After death everything is node-owned again (Fig. 6 step 4).
    let report = m.audit().unwrap();
    let summary = report.check_partition().unwrap();
    assert_eq!(summary.thread_owned, 0);
    assert_eq!(summary.node_owned, m.area().n_slots());
    m.shutdown();
}

#[test]
fn ownership_transfers_nodes_through_migrate_and_die() {
    let mut m = Machine::launch(Pm2Config::test(3)).unwrap();
    let initial_per_node: Vec<usize> = (0..3)
        .map(|n| m.audit().unwrap().nodes[n].bitmap.count_ones())
        .collect();
    // Threads spawn on node 0, allocate, migrate to node 2 and die there.
    for _ in 0..6 {
        let t = m
            .spawn_on(0, || {
                let p = pm2_isomalloc(30_000).unwrap();
                pm2_migrate(2).unwrap();
                pm2_isofree(p).unwrap();
            })
            .unwrap();
        m.join(t);
    }
    let report = m.audit().unwrap();
    report.check_partition().unwrap();
    let final_per_node: Vec<usize> = (0..3)
        .map(|n| report.nodes[n].bitmap.count_ones())
        .collect();
    assert!(
        final_per_node[2] > initial_per_node[2],
        "node 2 must own more slots than initially: {initial_per_node:?} -> {final_per_node:?}"
    );
    assert!(final_per_node[0] < initial_per_node[0]);
    // Nothing lost overall.
    assert_eq!(final_per_node.iter().sum::<usize>(), m.area().n_slots());
    m.shutdown();
}

#[test]
fn audit_reports_cached_slots_consistently() {
    let mut m = Machine::builder(1)
        .test_profile()
        .slot_cache(8)
        .launch()
        .unwrap();
    m.run_on(0, || {
        for _ in 0..5 {
            let p = pm2_isomalloc(40_000).unwrap();
            pm2_isofree(p).unwrap();
        }
    })
    .unwrap();
    let report = m.audit().unwrap();
    report.check_partition().unwrap(); // includes "cached ⊆ owned" check
    assert!(
        !report.nodes[0].cached.is_empty(),
        "released slots should be cached"
    );
    m.shutdown();
}
