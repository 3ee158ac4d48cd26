//! Dynamic load balancing of an irregular application — the paper's
//! motivating use case (§1/§2): "a generic module implemented outside the
//! running application could balance the load by migrating the application
//! threads.  The threads are unaware of their being migrated."
//!
//! An irregular workload (tasks with wildly different costs, all spawned on
//! node 0) is spread across 4 nodes by the balancer daemon; each worker
//! carries its partial results in iso-address memory, so migration is
//! completely transparent to it.
//!
//! ```sh
//! cargo run --release --example load_balancing
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pm2::api::*;
use pm2::iso::IsoVec;
use pm2::loadbal::{start_balancer, BalancerConfig};
use pm2::Machine;

const WORKERS: usize = 24;

fn main() {
    let mut machine = Machine::builder(4).launch().unwrap();

    let balancer = start_balancer(
        &machine,
        BalancerConfig {
            period: Duration::from_millis(1),
            threshold: 1,
            max_moves_per_round: 8,
            ..BalancerConfig::default()
        },
    )
    .unwrap();

    let visited = Arc::new(Mutex::new(vec![0usize; 4]));
    let checksum = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for i in 0..WORKERS {
        let visited = Arc::clone(&visited);
        let checksum = Arc::clone(&checksum);
        handles.push(
            machine
                .spawn_on(0, move || {
                    // Irregular cost: worker i does (i+1)² units of work.
                    let rounds = (i + 1) * (i + 1) * 4;
                    // Partial results live in iso memory: they follow the
                    // worker wherever the balancer sends it.
                    let mut partials: IsoVec<u64> = IsoVec::new();
                    let mut acc: u64 = i as u64;
                    for r in 0..rounds {
                        acc = acc
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        if r % 16 == 0 {
                            partials.push(acc).unwrap();
                        }
                        pm2_yield(); // scheduling point = migration point
                    }
                    let total: u64 = partials.iter().fold(0u64, |a, &b| a.wrapping_add(b));
                    checksum.fetch_add(
                        total.wrapping_mul(7).rotate_left(i as u32),
                        Ordering::Relaxed,
                    );
                    visited.lock().unwrap()[pm2_self()] += 1;
                })
                .unwrap(),
        );
    }

    for h in handles {
        assert!(!machine.join(h).panicked);
    }
    let moves = balancer.moves();
    balancer.stop(&machine);

    let per_node = visited.lock().unwrap().clone();
    println!("workers finished per node: {per_node:?}");
    println!("balancer ordered {moves} transparent migrations");
    println!("workload checksum: {:#x}", checksum.load(Ordering::Relaxed));
    assert_eq!(per_node.iter().sum::<usize>(), WORKERS);
    assert!(moves > 0, "the hot node must have been drained");

    let audit = machine.audit().unwrap();
    let summary = audit.check_partition().unwrap();
    println!(
        "final audit: {} slots node-owned, {} thread-owned — exclusive ownership holds",
        summary.node_owned, summary.thread_owned
    );
    machine.shutdown();
    println!("load_balancing: OK");
}
