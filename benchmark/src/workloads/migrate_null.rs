//! `migrate_null`: the paper's headline.  One green thread with no iso
//! heap ping-pongs between the two nodes of a p = 2 machine; an op is one
//! one-way `pm2_migrate`.  Marcel's freeze/resume, Madeleine's send and
//! doorbell, and the node drivers' park/wake do nearly all the work;
//! isomalloc, negotiation and the service layer do none, so a change to
//! those must leave this workload where it was.

use pm2::api::{pm2_migrate, pm2_self};

use crate::harness::{gate, launch, Cycle, Params};
use crate::rng::Rng;
use crate::sysinfo::now_ns;

/// Warm-up hops before the window opens.
pub const WARMUP_OPS: u64 = 150_000;

/// Node driver threads (see [`crate::harness::drivers`]).
pub const DRIVERS: usize = 1;

/// No child spans: the op is a single call into the runtime.
pub const SPANS: &[(&str, f64)] = &[];

/// The words the thread leaves on its stack before each hop; what the
/// seed decides in this workload.
pub fn canary_words(seed: u64) -> [u64; 64] {
    let mut rng = Rng::stream(seed, 0x6d6e);
    std::array::from_fn(|_| rng.next_u64())
}

/// After a hop to `dest`: the thread runs there, and the word it left on
/// its stack reads back through the pointer taken before it moved.
pub fn hop_ok(here: usize, dest: usize, canary_read: u64, canary_written: u64) -> bool {
    here == dest && canary_read == canary_written
}

pub fn cycle(p: &Params) -> Result<Cycle, String> {
    let mut m = launch(2, DRIVERS)?;
    let (g, host) = gate(1);
    let mut rec = p.recorder(1);
    let words = canary_words(p.seed);
    let t = m
        .spawn_on(0, move || {
            let mut canary = 0u64;
            let slot: *mut u64 = &mut canary;
            let mut i = 0usize;
            let mut hop = || {
                let dest = 1 - pm2_self();
                let word = words[i % words.len()];
                i += 1;
                // SAFETY: `slot` points at `canary` on this thread's own
                // stack, which keeps its address across the migration —
                // the property under test.  Volatile so the read after the
                // hop is a real load through the pre-migration pointer.
                unsafe { slot.write_volatile(word) };
                let moved = pm2_migrate(dest);
                let read = unsafe { slot.read_volatile() };
                moved.map(|()| hop_ok(pm2_self(), dest, read, word))
            };
            for _ in 0..WARMUP_OPS {
                let _ = hop();
            }
            rec.begin(g.ready_and_wait());
            let mut t = now_ns();
            while t < rec.t_end {
                let traced = rec.sample();
                let outcome = hop();
                let end = now_ns();
                match outcome {
                    Ok(true) => {
                        rec.ok(t, end);
                        if traced {
                            rec.trace_op(&[t, end], &[]);
                        }
                    }
                    Ok(false) => rec.bad(),
                    Err(_) => rec.fail(),
                }
                t = end;
            }
            g.finish(rec);
        })
        .map_err(|e| format!("spawn: {e}"))?;
    let window = host.run(&m, p)?;
    let exit = m.join(t);
    m.shutdown();
    Ok(Cycle {
        window,
        checks_ok: !exit.panicked,
    })
}
