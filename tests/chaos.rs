//! The seeded chaos fabric exercised end-to-end: identical seeds must
//! inject identical delay and stall schedules, and any delay plan at
//! p = 4 up to 5% must complete the core thread operations with no hangs.
//!
//! The fabric-level mechanics (the delay stream, a link's once-and-in-order
//! delivery through stalls and heals, zombies) are unit-tested in
//! `madeleine`; this suite is about what the *protocols* guarantee on top.

use std::time::Duration;

use pm2::api::*;
use pm2::{Distribution, FaultPlan, Machine, Service};
use testkit::cases;

struct Echo;
impl Service for Echo {
    const NAME: &'static str = "chaos.echo";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        req.wrapping_mul(3)
    }
}

/// A trade-heavy allocation storm: every iteration falls short of local
/// slots, so the machine trades (or negotiates) constantly — maximum
/// control-plane traffic for the delay plan to chew on.
fn alloc_storm(m: &Machine, node: usize, iters: usize) -> pm2::Pm2Thread {
    let slot = m.area().slot_size();
    m.spawn_on(node, move || {
        for _ in 0..iters {
            let p = pm2_isomalloc(2 * slot).unwrap();
            pm2_yield();
            pm2_isofree(p).unwrap();
        }
    })
    .unwrap()
}

#[test]
fn identical_seeds_inject_identical_fault_schedules() {
    // Two machines, same seed, same deterministic workload — a delay plan
    // on every link, and a stall on one link the allocation storm does not
    // use, healed once the storm is over: the injected delays and stalls,
    // and every message count on every node, must be identical.  This is
    // what makes chaos failures replayable.
    let run = || {
        let mut m = Machine::builder(3)
            .test_profile()
            .distribution(Distribution::RoundRobin)
            .fault_plan(FaultPlan::new(0xC0FFEE).with_delay(0.3, Duration::from_micros(20)))
            .launch()
            .unwrap();
        m.register_service(7, |_| {});
        m.partition_nodes(&[0], &[2]);
        let spawns = m
            .spawn_on(0, || {
                for _ in 0..5 {
                    pm2_rpc_spawn(2, 7, b"").unwrap();
                }
            })
            .unwrap();
        assert!(!m.join(spawns).panicked);
        let t = alloc_storm(&m, 1, 10);
        assert!(!m.join(t).panicked);
        m.heal_partition();
        // Shutdown drains every node: nothing is left in flight.
        m.shutdown();
        (0..3)
            .map(|n| {
                let s = m.net_stats(n).unwrap();
                let stall = (s.stalled, s.zombies);
                (s.chaos_delayed, stall, s.msgs_sent, s.msgs_recv)
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    assert_eq!(first, run(), "same seed must replay the same schedule");
    assert!(first[0].1 .0 >= 5, "the spawns stalled: {first:?}");
    let delayed: u64 = first.iter().map(|node| node.0).sum();
    assert!(delayed > 0, "the plan delayed nothing: {first:?}");
}

#[test]
fn any_delay_plan_up_to_5_percent_completes_the_core_ops() {
    // Property (testkit `cases`): whatever the seed and the share ≤ 5% of
    // messages retransmitted (a millisecond late each), a p = 4 machine
    // still completes spawn, RPC, migrate and join, and nothing hangs.
    cases(6, |rng| {
        let seed = rng.next_u64();
        let rate = (rng.next_u64() % 51) as f64 / 1000.0; // 0 .. 5%
        let mut m = Machine::builder(4)
            .test_profile()
            .distribution(Distribution::RoundRobin)
            .reply_deadline(Duration::from_secs(2))
            .fault_plan(FaultPlan::new(seed).with_delay(rate, Duration::from_millis(1)))
            .launch()
            .unwrap();
        m.register(Echo);
        // Spawn + join with a value.
        let h = m.spawn_on_ret(1, || 11u64).unwrap();
        assert_eq!(h.join().unwrap(), 11);
        // RPC against every node.
        for n in 0..4 {
            assert_eq!(m.rpc_call::<Echo>(n, 5), Ok(15));
        }
        // Self-migration with live iso state, plus trade-heavy
        // allocations to push control traffic through the delays.
        let slot = m.area().slot_size();
        let t = m
            .spawn_on(2, move || {
                let p = pm2_isomalloc(2 * slot).unwrap();
                unsafe { p.write_bytes(0xAB, 2 * slot) };
                pm2_migrate(3).unwrap();
                assert_eq!(pm2_self(), 3);
                unsafe { assert_eq!(p.read(), 0xAB) };
                pm2_isofree(p).unwrap();
            })
            .unwrap();
        assert!(!m.join(t).panicked, "seed {seed} rate {rate}");
        let audit = m.audit().unwrap();
        audit.check_partition().unwrap();
        m.shutdown();
    });
}
