//! Quickstart: the paper's Figures 1, 2 and 7 on the v1 typed facade —
//! no `unsafe` anywhere in this file.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! A thread on node 0 writes a stack variable, keeps a reference to it,
//! builds a linked list in iso-address memory ([`IsoList`], Fig. 7),
//! migrates to node 1 and keeps using both — no registration, no fix-up.
//! Then the typed v1 calls: a value-returning join handle whose result
//! crosses a migration, and a typed request/reply LRPC.
//!
//! Under the hood every message here — the migration buffers, the LRPC
//! frames, the exit records — rides the zero-copy payload path: buffers
//! are checked out of per-endpoint pools (`madeleine::BufPool`), sealed
//! into refcounted `Payload`s, and recycled when the receiver drops them,
//! so steady-state traffic allocates nothing.  See the `madeleine` crate
//! docs for the payload model and the "when does send copy" table;
//! `Machine::pool_stats` exposes the recycling counters (the assert at the
//! bottom of this file shows the pools actually reusing buffers).

use pm2::api::{pm2_migrate, pm2_self};
use pm2::{pm2_printf, IsoBox, IsoList, Machine, Service};

/// A typed LRPC service: registered by type, called by type.
struct Stats;
impl Service for Stats {
    const NAME: &'static str = "quickstart.stats";
    type Req = Vec<u64>;
    type Resp = (u64, u64); // (sum, max)
    fn handle(&self, xs: Vec<u64>) -> (u64, u64) {
        pm2_printf!("serving stats({} values) on node {}", xs.len(), pm2_self());
        (xs.iter().sum(), xs.iter().copied().max().unwrap_or(0))
    }
}

fn main() {
    // Two nodes, the paper's defaults (64 KiB slots, round-robin
    // distribution, BIP/Myrinet wire model); pm2_printf lines are captured
    // and printed as one trace further down.
    // `workers(2)` pins the executor pool: the nodes are multiplexed onto
    // that many OS threads (default: one per core, never more than nodes).
    let mut machine = Machine::builder(2).workers(2).launch().unwrap();
    machine.register::<Stats>(Stats);

    // A value-returning thread: the typed handle's result rides the
    // thread-exit protocol home, even across the migration inside.
    let handle = machine
        .spawn_on_ret(0, || {
            // --- Fig. 1: stack data migrates with the thread. ---
            let x: i32 = 1;
            pm2_printf!("value = {x}");

            // --- Fig. 2: pointers to stack data stay valid.  A plain
            // reference is a pointer; it survives the hop untouched. ---
            let ptr = &x;

            // --- Fig. 7: a linked list in iso-address memory. ---
            let mut list = IsoList::new();
            for j in 0..1000 {
                list.push_front(j * 2 + 1).unwrap();
            }
            // Heap boxes too: same slot discipline, same guarantee.
            let boxed = IsoBox::new(40_i64).unwrap();
            pm2_printf!(
                "list of {} elements built on node {}",
                list.len(),
                pm2_self()
            );

            // --- The migration. ---
            pm2_migrate(1).unwrap();

            // Everything still works on node 1, at the same addresses.
            pm2_printf!("value = {}", *ptr);
            let count = list.iter().count();
            let sum: i64 = list.iter().sum();
            pm2_printf!(
                "traversed {count} elements on node {}, sum = {sum}",
                pm2_self()
            );
            assert_eq!(count, 1000);
            assert_eq!(sum, (0..1000i64).map(|j| j * 2 + 1).sum::<i64>());
            *boxed + 2
        })
        .unwrap();
    let answer = handle.join().unwrap();
    println!("typed join across a migration returned: {answer}");
    assert_eq!(answer, 42);

    // Typed request/reply LRPC from the host to node 1.
    let (sum, max) = machine
        .rpc_call::<Stats>(1, vec![3, 14, 15, 92, 6])
        .unwrap();
    println!("rpc_call::<Stats> on node 1 returned sum={sum}, max={max}");
    assert_eq!((sum, max), (130, 92));

    println!("\n--- captured trace ---");
    for line in machine.output_lines() {
        println!("{line}");
    }

    // The data plane runs on pooled buffers: a migration ping-pong cycles
    // ONE buffer per direction — pack checks it out, the receiver's drop
    // recycles it, the next pack reuses it.  Zero steady-state allocation.
    machine
        .run_on(0, || {
            for _ in 0..8 {
                pm2_migrate(1).unwrap();
                pm2_migrate(0).unwrap();
            }
        })
        .unwrap();
    let mut reuses = 0;
    for node in 0..machine.nodes() {
        let p = machine.pool_stats(node);
        println!(
            "node {node} payload pool: {} checkouts, {} reuses, {} allocs",
            p.checkouts, p.reuses, p.allocs
        );
        reuses += p.reuses;
    }
    assert!(reuses > 0, "steady-state traffic must recycle buffers");

    machine.shutdown();
    println!("quickstart: OK");
}
