//! `evacuate_heap`: the migration layer used for bandwidth instead of
//! single-hop latency.  On a p = 3 machine, 32 evacuee threads — each
//! owning a seeded ~8 KiB iso heap with about half its bytes freed again,
//! so trimmed packing has extents to skip — bounce between nodes 0 and 1.
//! A pinned, control-priority coordinator on node 2 issues one
//! `pm2_group_migrate(src, dest, tids)` per op; the op ends when every
//! evacuee has run a quantum on `dest`.  isomalloc's pack/unpack, the
//! buffer pool and train formation dominate, and driver park/wake latency
//! is amortised over 32 threads — the opposite mix from `migrate_null`.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use pm2::api::{
    pm2_group_migrate, pm2_probe_load, pm2_self, pm2_set_control_priority, pm2_set_migratable,
    pm2_yield,
};
use pm2::{IsoBox, IsoVec};

use crate::harness::{gate, launch, Cycle, Params};
use crate::rng::Rng;
use crate::sysinfo::now_ns;

/// Warm-up group migrations before the window opens.
pub const WARMUP_OPS: u64 = 1_800;

pub const SPANS: &[(&str, f64)] = &[
    ("pm2.migration.cmd_ack_us", 1e3),
    ("pm2.migration.drain_us", 1e3),
];

pub const EVACUEES: usize = 32;

/// Node driver threads: the one workload that runs on two (see
/// [`crate::harness::drivers`]).
pub const DRIVERS: usize = 2;

/// Block sizes (bytes) and how many of each an evacuee allocates: 7680 B,
/// plus the 720 B directory that points at them.  Every seed allocates
/// this same multiset — in its own order — and frees half of each class,
/// so the bytes a train carries do not depend on the seed.
const CLASSES: [(usize, usize); 5] = [(64, 8), (128, 8), (256, 8), (512, 4), (1024, 2)];
pub const BLOCKS: usize = 30;

/// An evacuee's heap is verified after every this many moves.
const VERIFY_EVERY: u32 = 64;

/// A wedged drain fails the op after this long instead of hanging the run.
const DRAIN_PATIENCE_NS: u64 = 5_000_000_000;

/// One evacuee's heap, as the seed decides it.
#[derive(Clone, Debug, PartialEq)]
pub struct HeapPlan {
    /// Block sizes in allocation order, bytes.
    pub sizes: [usize; BLOCKS],
    /// Blocks freed again once all are allocated.
    pub freed: [bool; BLOCKS],
    fill: u64,
}

impl HeapPlan {
    fn word(&self, block: usize, j: usize) -> u64 {
        (self.fill ^ ((block as u64) << 32 | j as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// What [`Heap::checksum`] must read from a heap built to this plan,
    /// computed from the plan alone.
    pub fn checksum(&self) -> u64 {
        let mut sum = 0u64;
        for b in (0..BLOCKS).filter(|&b| !self.freed[b]) {
            for j in 0..self.sizes[b] / 8 {
                sum = sum.rotate_left(1) ^ self.word(b, j);
            }
        }
        sum
    }
}

pub fn inputs(seed: u64) -> Vec<HeapPlan> {
    (0..EVACUEES)
        .map(|e| {
            let mut rng = Rng::stream(seed, 0x6576_0000 + e as u64);
            let mut order: Vec<(usize, bool)> = Vec::with_capacity(BLOCKS);
            for (size, count) in CLASSES {
                // Half of each class is freed; which half, the shuffle says.
                order.extend((0..count).map(|i| (size, i % 2 == 0)));
            }
            rng.shuffle(&mut order);
            HeapPlan {
                sizes: std::array::from_fn(|b| order[b].0),
                freed: std::array::from_fn(|b| order[b].1),
                fill: rng.next_u64(),
            }
        })
        .collect()
}

/// An evacuee's iso heap: a directory block pointing at the data blocks,
/// so the check walks pointers stored *in* iso memory after each move.
pub struct Heap {
    dir: IsoBox<[Option<IsoVec<u64>>; BLOCKS]>,
}

impl Heap {
    /// Must run on a green thread (it allocates with `pm2_isomalloc`).
    pub fn build(plan: &HeapPlan) -> pm2::Result<Heap> {
        let mut dir = IsoBox::new(std::array::from_fn(|_| None))?;
        for b in 0..BLOCKS {
            let words = plan.sizes[b] / 8;
            let mut v = IsoVec::with_capacity(words)?;
            for j in 0..words {
                v.push(plan.word(b, j))?;
            }
            dir[b] = Some(v);
        }
        for b in (0..BLOCKS).filter(|&b| plan.freed[b]) {
            dir[b] = None;
        }
        Ok(Heap { dir })
    }

    pub fn checksum(&self) -> u64 {
        let mut sum = 0u64;
        for v in self.dir.iter().flatten() {
            for &w in v.iter() {
                sum = sum.rotate_left(1) ^ w;
            }
        }
        sum
    }

    /// Test hook: flip one bit of the first live block.
    pub fn corrupt_one_word(&mut self) {
        if let Some(v) = self.dir.iter_mut().flatten().next() {
            v[0] ^= 1;
        }
    }
}

/// State the evacuees publish and the coordinator (and host) read.
struct Shared {
    /// Node each evacuee last ran a quantum on.
    here: [AtomicU32; EVACUEES],
    built: AtomicU32,
    stop: AtomicBool,
    heap_mismatches: AtomicU64,
    heap_verifies: AtomicU64,
    /// Threads resident on the final destination and on the node the
    /// evacuees left, as the runtime reports them when the window ends.
    residents: [AtomicU32; 2],
}

fn evacuee(i: usize, plan: HeapPlan, sh: Arc<Shared>) {
    let expected = plan.checksum();
    let heap = Heap::build(&plan);
    let verify = |heap: &pm2::Result<Heap>| {
        sh.heap_verifies.fetch_add(1, Ordering::Relaxed);
        if !heap.as_ref().is_ok_and(|h| h.checksum() == expected) {
            sh.heap_mismatches.fetch_add(1, Ordering::Relaxed);
        }
    };
    verify(&heap);
    let mut last = pm2_self();
    let mut moves = 0u32;
    // Release pairs with the coordinator's Acquire loads: seeing the
    // count (or a node id) implies seeing what was done before it.
    sh.here[i].store(last as u32, Ordering::Release);
    sh.built.fetch_add(1, Ordering::Release);
    while !sh.stop.load(Ordering::Acquire) {
        pm2_yield();
        let here = pm2_self();
        if here != last {
            last = here;
            moves += 1;
            if moves.is_multiple_of(VERIFY_EVERY) {
                verify(&heap);
            }
        }
        sh.here[i].store(here as u32, Ordering::Release);
    }
    verify(&heap);
}

/// All evacuees accepted, and every one of them seen on `dest`.
pub fn evacuation_ok(accepted: usize, here: &[u32], dest: usize) -> bool {
    accepted == here.len() && here.iter().all(|&h| h as usize == dest)
}

pub fn cycle(p: &Params) -> Result<Cycle, String> {
    let mut m = launch(3, DRIVERS)?;
    let (g, host) = gate(1);
    let mut rec = p.recorder(1);
    let sh = Arc::new(Shared {
        here: std::array::from_fn(|_| AtomicU32::new(u32::MAX)),
        built: AtomicU32::new(0),
        stop: AtomicBool::new(false),
        heap_mismatches: AtomicU64::new(0),
        heap_verifies: AtomicU64::new(0),
        residents: std::array::from_fn(|_| AtomicU32::new(u32::MAX)),
    });
    let mut threads = Vec::with_capacity(EVACUEES + 1);
    for (i, plan) in inputs(p.seed).into_iter().enumerate() {
        let sh = Arc::clone(&sh);
        threads.push(
            m.spawn_on(0, move || evacuee(i, plan, sh))
                .map_err(|e| format!("spawn evacuee: {e}"))?,
        );
    }
    let tids: Vec<u64> = threads.iter().map(|t| t.tid).collect();
    let csh = Arc::clone(&sh);
    threads.push(
        m.spawn_on(2, move || {
            let sh = csh;
            pm2_set_migratable(false);
            pm2_set_control_priority(true);
            while (sh.built.load(Ordering::Acquire) as usize) < EVACUEES {
                pm2_yield();
            }
            let (mut src, mut dest) = (0usize, 1usize);
            // One evacuation; `Ok((t_ack, t_end))` when all 32 were
            // accepted and seen on `dest`.
            let mut evacuate = |stamp_ack: bool| -> Result<(u64, u64), bool> {
                let accepted = pm2_group_migrate(src, dest, &tids).map_err(|_| false)?;
                let t_ack = if stamp_ack { now_ns() } else { 0 };
                let give_up = now_ns() + DRAIN_PATIENCE_NS;
                let mut here = [0u32; EVACUEES];
                loop {
                    for (h, a) in here.iter_mut().zip(&sh.here) {
                        *h = a.load(Ordering::Acquire);
                    }
                    let t_end = now_ns();
                    if evacuation_ok(accepted, &here, dest) {
                        std::mem::swap(&mut src, &mut dest);
                        return Ok((t_ack, t_end));
                    }
                    if accepted != EVACUEES || t_end > give_up {
                        return Err(true);
                    }
                    pm2_yield();
                }
            };
            let mut healthy = true;
            for _ in 0..WARMUP_OPS {
                healthy &= evacuate(false).is_ok();
            }
            rec.begin(g.ready_and_wait());
            let mut t = now_ns();
            // A failed evacuation leaves threads on both nodes; nothing
            // after it would measure the workload, so the window ends.
            while t < rec.t_end && healthy {
                let traced = rec.sample();
                match evacuate(traced) {
                    Ok((t_ack, t_end)) => {
                        rec.ok(t, t_end);
                        if traced {
                            rec.trace_op(&[t, t_ack, t_end], &[1, 2]);
                        }
                        t = t_end;
                    }
                    Err(wrong) => {
                        if wrong {
                            rec.bad();
                        } else {
                            rec.fail();
                        }
                        healthy = false;
                    }
                }
            }
            // `src` is where the last evacuation put everyone.
            for (slot, node) in sh.residents.iter().zip([src, dest]) {
                if let Ok(n) = pm2_probe_load(node) {
                    slot.store(n as u32, Ordering::Relaxed);
                }
            }
            sh.stop.store(true, Ordering::Release);
            g.finish(rec);
        })
        .map_err(|e| format!("spawn coordinator: {e}"))?,
    );
    let window = host.run(&m, p)?;
    let mut checks_ok = true;
    for t in threads {
        checks_ok &= !m.join(t).panicked;
    }
    m.shutdown();
    let residents: Vec<u32> = sh
        .residents
        .iter()
        .map(|r| r.load(Ordering::Relaxed))
        .collect();
    checks_ok &= residents == [EVACUEES as u32, 0]
        && sh.heap_mismatches.load(Ordering::Relaxed) == 0
        && sh.heap_verifies.load(Ordering::Relaxed) >= 2 * EVACUEES as u64;
    Ok(Cycle { window, checks_ok })
}
