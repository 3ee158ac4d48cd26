//! `alloc_drift`: the allocator and the slot economy in steady state.
//! One green thread on a p = 2 round-robin machine; an op is one episode:
//! 256 seeded small `pm2_isomalloc`/`pm2_isofree` pairs (16 B – 2 KiB,
//! live set held at 16 blocks) on node 0, one 2-slot `pm2_isomalloc`,
//! `pm2_migrate(1)`, `pm2_isofree` of the 2-slot block there — its slots
//! now belong to node 1 — and `pm2_migrate(0)`.  Slots drift off node 0
//! every episode, so the steady state exercises isoaddr's multi-slot
//! search and commit, negotiation's trades, and isomalloc's alloc/free
//! path: the path `evacuate_heap` uses only for packing, so a heap-layout
//! change that speeds packing but slows allocation shows here.

use pm2::api::{pm2_isofree, pm2_isomalloc, pm2_migrate, pm2_self};
use pm2::AreaConfig;

use crate::harness::{builder, gate, Cycle, Params};
use crate::rng::Rng;
use crate::sysinfo::now_ns;

/// Warm-up episodes before the window opens.
pub const WARMUP_OPS: u64 = 10_000;

/// Node driver threads (see [`crate::harness::drivers`]).
pub const DRIVERS: usize = 1;

pub const PAIRS: usize = 256;
pub const LIVE: usize = 16;

/// `isomalloc.small_pair_ns` is the span over all pairs of an episode,
/// per pair.
pub const SPANS: &[(&str, f64)] = &[
    ("isomalloc.small_pair_ns", PAIRS as f64),
    ("isoaddr.multi_slot_alloc_us", 1e3),
    ("pm2.migration.hop_out_us", 1e3),
    ("isomalloc.remote_free_us", 1e3),
    ("pm2.migration.hop_back_us", 1e3),
];

/// The one machine setting that is not the builder's default: a 64 MiB
/// iso-address area instead of 1 GiB.  Each trade hands node 0 slots from
/// the top of node 1's bitmap, so the drift walks the whole area once
/// before it recycles, and under the default `Resident` map strategy
/// every slot's first use is a run of page faults.  At 1 GiB that walk
/// took the first ~8 s of the window at half the steady rate; at 64 MiB
/// it is over within the warm-up — where first touch belongs — and the
/// window times the allocator and the slot economy, not the kernel.
const AREA: AreaConfig = AreaConfig {
    slot_size: 64 * 1024,
    n_slots: 1024,
};

/// Episodes before the schedule repeats.
const EPISODES: usize = 64;

/// One small pair: free the block in `slot` of the live set, allocate
/// `size` bytes in its place.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pair {
    pub slot: u8,
    pub size: u16,
}

/// The small-pair schedule the seed decides.  Every episode draws the
/// same 256 sizes — a geometric ladder from 16 B to 2 KiB — in its own
/// order and against its own live-set slots, so the bytes an episode
/// allocates do not depend on the seed.
pub fn inputs(seed: u64) -> Vec<Pair> {
    let mut rng = Rng::stream(seed, 0x6164);
    let ladder: Vec<u16> = (0..PAIRS)
        .map(|i| (16.0 * 128f64.powf(i as f64 / (PAIRS - 1) as f64)).round() as u16)
        .collect();
    let mut out = Vec::with_capacity(EPISODES * PAIRS);
    for _ in 0..EPISODES {
        let mut sizes = ladder.clone();
        rng.shuffle(&mut sizes);
        out.extend(sizes.into_iter().map(|size| Pair {
            slot: rng.below(LIVE as u64) as u8,
            size,
        }));
    }
    out
}

/// A live block and the words stamped at its two ends.
#[derive(Clone, Copy)]
struct Block {
    ptr: *mut u8,
    size: usize,
    tag: u64,
}

impl Block {
    /// Allocate `size` bytes (≥ 16) and stamp both ends with `tag`.
    fn alloc(size: usize, tag: u64) -> pm2::Result<Block> {
        let ptr = pm2_isomalloc(size)?;
        // SAFETY: a fresh allocation of `size` ≥ 16 bytes; unaligned
        // writes because the tail word sits wherever the size puts it.
        unsafe {
            (ptr as *mut u64).write_unaligned(tag);
            (ptr.add(size - 8) as *mut u64).write_unaligned(!tag);
        }
        Ok(Block { ptr, size, tag })
    }

    fn words(&self) -> (u64, u64) {
        // SAFETY: the block is live and `size` ≥ 16 bytes long.
        unsafe {
            (
                (self.ptr as *const u64).read_unaligned(),
                (self.ptr.add(self.size - 8) as *const u64).read_unaligned(),
            )
        }
    }

    /// Verify the fill pattern, then free; `Ok(false)` on a wrong word.
    fn free(self) -> pm2::Result<bool> {
        let ok = pattern_ok(self.words(), self.tag);
        pm2_isofree(self.ptr)?;
        Ok(ok)
    }
}

/// A block still holds the words stamped when it was allocated.
pub fn pattern_ok((head, tail): (u64, u64), tag: u64) -> bool {
    head == tag && tail == !tag
}

/// One episode; `Ok` carries whether every pattern and node check held,
/// and the five span boundaries after the start stamp — the inner four
/// read the clock only when the episode is `traced`.
fn episode(
    live: &mut [Block; LIVE],
    pairs: &[Pair],
    big_size: usize,
    tag: &mut u64,
    traced: bool,
) -> pm2::Result<(bool, [u64; 5])> {
    let mark = || if traced { now_ns() } else { 0 };
    let mut ok = true;
    for p in pairs {
        *tag += 1;
        ok &= live[p.slot as usize].free()?;
        live[p.slot as usize] = Block::alloc(p.size as usize, *tag)?;
    }
    let t1 = mark();
    *tag += 1;
    let big = Block::alloc(big_size, *tag)?;
    let t2 = mark();
    pm2_migrate(1)?;
    let t3 = mark();
    ok &= pm2_self() == 1;
    ok &= big.free()?;
    let t4 = mark();
    pm2_migrate(0)?;
    let t5 = now_ns();
    ok &= pm2_self() == 0;
    Ok((ok, [t1, t2, t3, t4, t5]))
}

pub fn cycle(p: &Params) -> Result<Cycle, String> {
    let mut m = builder(2, DRIVERS)
        .area(AREA)
        .launch()
        .map_err(|e| format!("launch: {e}"))?;
    // One byte more than a slot holds: the smallest 2-slot request.
    let big_size = m.area().slot_size() + 1;
    let (g, host) = gate(1);
    let mut rec = p.recorder(1);
    let schedule = inputs(p.seed);
    let t = m
        .spawn_on(0, move || {
            let mut tag = 0u64;
            let mut live = [Block {
                ptr: std::ptr::null_mut(),
                size: 0,
                tag: 0,
            }; LIVE];
            for (i, slot) in live.iter_mut().enumerate() {
                match Block::alloc(64, i as u64 | 1 << 63) {
                    Ok(b) => *slot = b,
                    Err(_) => return, // dropping the gate fails the run
                }
            }
            let mut next = 0usize;
            let mut run = |live: &mut [Block; LIVE], traced: bool| {
                let pairs = &schedule[next * PAIRS..(next + 1) * PAIRS];
                next = (next + 1) % EPISODES;
                episode(live, pairs, big_size, &mut tag, traced)
            };
            let mut healthy = true;
            for _ in 0..WARMUP_OPS {
                healthy &= run(&mut live, false).is_ok();
            }
            rec.begin(g.ready_and_wait());
            let mut t = now_ns();
            // An episode that errors half-way leaves the live set and the
            // thread's position undefined, so the window ends there.
            while t < rec.t_end && healthy {
                let traced = rec.sample();
                match run(&mut live, traced) {
                    Ok((true, s)) => {
                        rec.ok(t, s[4]);
                        if traced {
                            rec.trace_op(&[t, s[0], s[1], s[2], s[3], s[4]], &[1, 2, 3, 4, 5]);
                        }
                        t = s[4];
                    }
                    Ok((false, s)) => {
                        rec.bad();
                        t = s[4];
                    }
                    Err(_) => {
                        rec.fail();
                        healthy = false;
                    }
                }
            }
            if healthy {
                for b in live {
                    if !matches!(b.free(), Ok(true)) {
                        rec.check_failures += 1;
                    }
                }
            }
            g.finish(rec);
        })
        .map_err(|e| format!("spawn: {e}"))?;
    let window = host.run(&m, p)?;
    let mut checks_ok = !m.join(t).panicked;
    // The machine is quiescent: every slot must have exactly one owner.
    checks_ok &= m.audit().is_ok_and(|a| a.check_partition().is_ok());
    m.shutdown();
    Ok(Cycle { window, checks_ok })
}
