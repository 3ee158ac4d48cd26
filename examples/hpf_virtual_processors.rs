//! Virtual processors for a data-parallel computation — the use case the
//! paper comes from (§1: "Our interest in iso-address allocation and
//! migration stems from data-parallel compiling"; PM2 is the runtime of two
//! HPF compilers, and Perez'97 balances HPF programs "by migrating virtual
//! processors").
//!
//! Each *virtual processor* (VP) owns a block of a distributed array in
//! iso-address memory and runs a stencil-like iteration over it.  VPs are
//! ordinary Marcel threads: the load balancer migrates them between nodes
//! mid-computation, array block and all, without the VP code containing a
//! single migration-related line.
//!
//! ```sh
//! cargo run --release --example hpf_virtual_processors
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pm2::api::*;
use pm2::iso::IsoVec;
use pm2::loadbal::{start_balancer, BalancerConfig};
use pm2::Machine;

const VPS: usize = 16;
const BLOCK: usize = 4096; // array elements per virtual processor
const ITERATIONS: usize = 30;

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

    let checksum = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    // An HPF-style BLOCK distribution would place VPs round-robin; we dump
    // them all on node 0 to force the balancer to do the distributing —
    // dynamic load balancing by VP migration.
    for vp in 0..VPS {
        let checksum = Arc::clone(&checksum);
        handles.push(
            machine
                .spawn_on(0, move || {
                    // The VP's block of the distributed array, in iso memory.
                    let mut a: IsoVec<f64> = IsoVec::with_capacity(BLOCK).unwrap();
                    for i in 0..BLOCK {
                        a.push((vp * BLOCK + i) as f64).unwrap();
                    }
                    // Jacobi-ish sweeps; VPs with higher rank do more work
                    // (irregularity ⇒ imbalance ⇒ migrations).
                    let sweeps = ITERATIONS * (1 + vp / 4);
                    for _ in 0..sweeps {
                        for i in 1..BLOCK - 1 {
                            let v = (a[i - 1] + 2.0 * a[i] + a[i + 1]) / 4.0;
                            a[i] = v;
                        }
                        pm2_yield(); // iteration boundary = migration point
                    }
                    // Fold the block into a machine-wide checksum.
                    let local: f64 = a.iter().sum();
                    checksum.fetch_add(local.to_bits() >> 20, Ordering::Relaxed);
                })
                .unwrap(),
        );
    }
    for h in handles {
        assert!(!machine.join(h).panicked);
    }
    let moves = balancer.moves();
    balancer.stop(&machine);

    println!(
        "{} virtual processors × {} elements, checksum {:#x}",
        VPS,
        BLOCK,
        checksum.load(Ordering::Relaxed)
    );
    println!("balancer migrated VPs {moves} times while they computed");
    let audit = machine.audit().unwrap();
    audit.check_partition().unwrap();
    println!("ownership audit clean");
    machine.shutdown();
    println!("hpf_virtual_processors: OK");
}
