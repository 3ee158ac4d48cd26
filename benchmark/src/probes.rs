//! Stand-alone probes: each calls one substrate crate directly, outside
//! any workload, for well under half a second.  A traced run executes the
//! probes of the workload that owns them before that workload starts, so
//! a per-layer figure is at hand next to the end-to-end one it should
//! explain.  Every probe warms up for a tenth of its iterations first.

use std::sync::Arc;

use isoaddr::{AcquireOutcome, AreaConfig, Distribution, IsoArea, NodeSlotManager, SlotProvider};
use isomalloc::{heap_init, heap_slots, pack_heap_slot, unpack_into_mapped, IsoHeapState};
use madeleine::{BufPool, Fabric, NetProfile, Wire};
use marcel::{RunOutcome, Scheduler};
use pm2::api::{pm2_isomalloc, pm2_migrate, pm2_rpc_call};
use pm2::Machine;

use crate::harness::{builder, launch, median};
use crate::sysinfo::now_ns;
use crate::workloads::rpc_fanin::Echo;

pub type Probes = Result<Vec<(&'static str, f64)>, String>;

/// Mean ns per call of `f` over `iters` calls, after `iters / 10` warm-up
/// calls.
fn per_call_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let t0 = now_ns();
    for _ in 0..iters {
        f();
    }
    (now_ns() - t0) as f64 / iters as f64
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("probe {what}: {e}")
}

fn small_rig(cache: usize) -> Result<NodeSlotManager, String> {
    let area = Arc::new(IsoArea::new(AreaConfig::small()).map_err(err("area"))?);
    Ok(NodeSlotManager::new(
        0,
        1,
        area,
        Distribution::RoundRobin,
        cache,
    ))
}

/// Run a scheduler until its queue drains, requeueing yields and
/// releasing exited threads — what a node driver does, minus the network.
fn drive(s: &Scheduler, mgr: &mut NodeSlotManager) -> Result<(), String> {
    s.activate();
    while let Some(outcome) = s.run_one() {
        match outcome {
            // SAFETY: the descriptor was just handed back by this
            // scheduler and is resident on it.
            RunOutcome::Yielded(d) => unsafe { s.requeue(d) },
            RunOutcome::Exited(d) => {
                s.note_gone();
                // SAFETY: the thread has exited and is queued nowhere.
                unsafe { marcel::release_thread_resources(d, mgr) }.map_err(err("release"))?;
            }
            other => return Err(format!("probe marcel: unexpected {other:?}")),
        }
    }
    Ok(())
}

/// `marcel.ctx_switch_ns`: one `yield_now` round trip (thread → scheduler
/// → next thread) with two threads taking turns.  `marcel.spawn_us`:
/// spawn, run to exit, release.
fn marcel_probes() -> Probes {
    const YIELDS: u64 = 200_000;
    let mut mgr = small_rig(0)?;
    let s = Scheduler::new(0);
    for _ in 0..2 {
        s.spawn(&mut mgr, || {
            for _ in 0..YIELDS / 2 {
                marcel::yield_now();
            }
        })
        .map_err(err("spawn"))?;
    }
    let t0 = now_ns();
    drive(&s, &mut mgr)?;
    let ctx_switch_ns = (now_ns() - t0) as f64 / YIELDS as f64;

    let mut failed = None;
    let spawn_ns = per_call_ns(20_000, || {
        let r = s
            .spawn(&mut mgr, || {})
            .map_err(err("spawn"))
            .and_then(|_| drive(&s, &mut mgr));
        if let Err(e) = r {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    Ok(vec![
        ("marcel.ctx_switch_ns", ctx_switch_ns),
        ("marcel.spawn_us", spawn_ns / 1e3),
    ])
}

/// `madeleine.send_recv_ns`: one pooled 64 B message sent and received on
/// one OS thread (no wake-up in the figure).  `madeleine.checkout_ns`:
/// one buffer checked out of a pool, sealed and dropped back.
fn madeleine_probes() -> Probes {
    let mut eps = Fabric::new(2, NetProfile::instant());
    let (b, a) = (eps.pop().ok_or("fabric")?, eps.pop().ok_or("fabric")?);
    let mut lost = false;
    let send_recv_ns = per_call_ns(200_000, || {
        let mut buf = a.pool().checkout(64);
        buf.extend_from_slice(&[0xA5; 64]);
        lost |= a.send(1, 1, buf).is_err() || b.try_recv().is_none();
    });
    if lost {
        return Err("probe madeleine: a message was lost".into());
    }
    let pool = BufPool::new();
    let checkout_ns = per_call_ns(500_000, || {
        std::hint::black_box(pool.checkout(256).freeze());
    });
    Ok(vec![
        ("madeleine.send_recv_ns", send_recv_ns),
        ("madeleine.checkout_ns", checkout_ns),
    ])
}

/// `pm2.machine.launch_us_p50`: launch + shutdown of the p = 2 benchmark
/// machine.  `setup_s` is dominated by the warm-up, so this is where a
/// change to launch cost itself shows.
fn launch_probe() -> Probes {
    let mut us = Vec::with_capacity(20);
    for _ in 0..20 {
        let t0 = now_ns();
        launch(2, 1)?.shutdown();
        us.push((now_ns() - t0) as f64 / 1e3);
    }
    Ok(vec![("pm2.machine.launch_us_p50", median(&us))])
}

/// Median µs of `op` run `iters` times on a green thread of node 0,
/// after `iters / 10` warm-up calls; shuts the machine down.
fn green_op_us_p50(
    mut m: Machine,
    iters: usize,
    mut op: impl FnMut(usize) -> pm2::Result<()> + Send + 'static,
) -> Result<f64, String> {
    let us = m
        .run_on(0, move || -> pm2::Result<Vec<f64>> {
            let mut us = Vec::with_capacity(iters);
            for i in 0..iters / 10 + iters {
                let t0 = now_ns();
                op(i)?;
                if i >= iters / 10 {
                    us.push((now_ns() - t0) as f64 / 1e3);
                }
            }
            Ok(us)
        })
        .map_err(err("green op"))?
        .map_err(err("green op"))?;
    m.shutdown();
    Ok(median(&us))
}

/// `pm2.migration.hop_null_2workers_us_p50`: the `migrate_null` hop on a
/// machine with two driver threads, where the destination node may be
/// picked up by a driver that has to be woken first.  The gap to
/// `migrate_null`'s `op_us_p50` is what the hand-over between drivers
/// costs on this host.
fn hop_two_workers_probe() -> Probes {
    let m = builder(2, 2).launch().map_err(err("launch"))?;
    let us = green_op_us_p50(m, 20_000, |i| pm2_migrate(1 - i % 2))?;
    Ok(vec![("pm2.migration.hop_null_2workers_us_p50", us)])
}

pub fn migrate_null() -> Probes {
    let mut out = marcel_probes()?;
    out.extend(madeleine_probes()?);
    out.extend(launch_probe()?);
    out.extend(hop_two_workers_probe()?);
    Ok(out)
}

/// `isomalloc.pack_slot_us` / `isomalloc.unpack_slot_us`: one 64 KiB heap
/// slot holding a busy/free checkerboard of 700 B blocks, packed into a
/// reused buffer and unpacked over itself.
fn pack_probes() -> Probes {
    let mut mgr = small_rig(0)?;
    let slot_size = mgr.slot_size();
    // SAFETY: an all-zero IsoHeapState is the documented pre-init state;
    // heap_init fills it before any use.
    let mut heap: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
    // SAFETY: `heap` is live and exclusively ours; `mgr` is the only
    // provider it is ever used with; every freed pointer came from it.
    let slot_base = unsafe {
        heap_init(heap.as_mut(), isomalloc::FitPolicy::FirstFit, false);
        let mut ptrs = Vec::new();
        for _ in 0..40 {
            ptrs.push(isomalloc::isomalloc(heap.as_mut(), &mut mgr, 700).map_err(err("alloc"))?);
        }
        for p in ptrs.into_iter().step_by(2) {
            isomalloc::isofree(heap.as_mut(), &mut mgr, p).map_err(err("free"))?;
        }
        heap_slots(heap.as_ref())[0].0
    };
    let mut buf = Vec::with_capacity(slot_size);
    let mut bad = false;
    let pack_ns = per_call_ns(20_000, || {
        buf.clear();
        // SAFETY: `slot_base` is the live heap slot built above.
        bad |= unsafe { pack_heap_slot(slot_base, slot_size, &mut buf) }.is_err();
    });
    let unpack_ns = per_call_ns(20_000, || {
        // SAFETY: the record describes the slot it was packed from, which
        // is still mapped and ours; unpacking rewrites identical bytes.
        bad |= unsafe { unpack_into_mapped(&buf, slot_size) }.is_err();
    });
    if bad {
        return Err("probe isomalloc: pack or unpack failed".into());
    }
    Ok(vec![
        ("isomalloc.pack_slot_us", pack_ns / 1e3),
        ("isomalloc.unpack_slot_us", unpack_ns / 1e3),
    ])
}

/// Median one-way hop of a single thread carrying one `payload`-byte iso
/// block between the nodes of a p = 2 machine — the paper's
/// migration-with-data series.  The block is allocated on the first call
/// and leaves with the thread's heap when the thread exits.
fn hop_with_heap_us(payload: usize, hops: usize) -> Result<f64, String> {
    green_op_us_p50(launch(2, 1)?, hops, move |i| {
        if i == 0 {
            let block = pm2_isomalloc(payload)?;
            // SAFETY: a fresh allocation of `payload` bytes.
            unsafe { std::ptr::write_bytes(block, 0xAB, payload) };
        }
        pm2_migrate(1 - i % 2)
    })
}

pub fn evacuate_heap() -> Probes {
    let mut out = pack_probes()?;
    out.push((
        "pm2.migration.hop_heap64k_us_p50",
        hop_with_heap_us(64 * 1024, 2_000)?,
    ));
    out.push((
        "pm2.migration.hop_heap256k_us_p50",
        hop_with_heap_us(256 * 1024, 1_000)?,
    ));
    Ok(out)
}

/// `pm2.service.single_rtt_us_p50`: one client, 256 B echo — the round
/// trip with nobody else waiting on the caller's scheduler.
/// `pm2.service.wire_codec_ns`: encode + decode of that request.
pub fn rpc_fanin() -> Probes {
    let m = launch(2, 1)?;
    m.register(Echo { stamp: false });
    let single_rtt_us = green_op_us_p50(m, 5_000, |i| {
        pm2_rpc_call::<Echo>(1, (i as u64, vec![i as u8; 256])).map(|_| ())
    })?;
    let req: <Echo as pm2::Service>::Req = (7, vec![0x5A; 256]);
    let mut bad = false;
    let codec_ns = per_call_ns(200_000, || {
        let bytes = std::hint::black_box(&req).encode_vec();
        bad |= <Echo as pm2::Service>::Req::decode_vec(&bytes).is_none();
    });
    if bad {
        return Err("probe wire: decode failed".into());
    }
    Ok(vec![
        ("pm2.service.single_rtt_us_p50", single_rtt_us),
        ("pm2.service.wire_codec_ns", codec_ns),
    ])
}

/// `isoaddr.acquire_release_ns`: one slot acquired and released through
/// the mmapped-slot cache.  `isoaddr.first_fit_ns`: a 2-slot first-fit
/// over the p = 2 round-robin bitmap of the default area, which has no
/// two contiguous slots — the full scan `alloc_drift` pays before each
/// trade.  `isomalloc.alloc_free_ns`: one 256 B block allocated and freed
/// in a warm heap.
pub fn alloc_drift() -> Probes {
    let mut mgr = small_rig(32)?;
    let mut bad = false;
    let acquire_release_ns = per_call_ns(500_000, || match mgr.try_acquire(1) {
        Ok(AcquireOutcome::Acquired(range, _)) => bad |= mgr.release(range).is_err(),
        _ => bad = true,
    });
    let bitmap = Distribution::RoundRobin.initial_bitmap(0, 2, AreaConfig::default().n_slots);
    let first_fit_ns = per_call_ns(20_000, || {
        bad |= std::hint::black_box(&bitmap).find_first_fit(2, 0).is_some();
    });
    // SAFETY: as in `pack_probes`: zeroed is the pre-init state, the heap
    // is ours, `mgr` its only provider, and each pointer is freed once.
    let mut heap: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
    let keep = unsafe {
        heap_init(heap.as_mut(), isomalloc::FitPolicy::FirstFit, true);
        isomalloc::isomalloc(heap.as_mut(), &mut mgr, 64).map_err(err("alloc"))?
    };
    let alloc_free_ns = per_call_ns(500_000, || unsafe {
        match isomalloc::isomalloc(heap.as_mut(), &mut mgr, 256) {
            Ok(p) => bad |= isomalloc::isofree(heap.as_mut(), &mut mgr, p).is_err(),
            Err(_) => bad = true,
        }
    });
    // SAFETY: `keep` came from this heap and is freed exactly once.
    bad |= unsafe { isomalloc::isofree(heap.as_mut(), &mut mgr, keep) }.is_err();
    if bad {
        return Err("probe isoaddr/isomalloc: an operation failed".into());
    }
    Ok(vec![
        ("isoaddr.acquire_release_ns", acquire_release_ns),
        ("isoaddr.first_fit_ns", first_fit_ns),
        ("isomalloc.alloc_free_ns", alloc_free_ns),
    ])
}
