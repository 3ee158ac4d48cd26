//! Property tests on the block layer: random alloc/free interleavings
//! against a shadow model, with the structural verifier as the invariant
//! oracle; plus pack/unpack roundtrips of randomly shaped heaps.
//!
//! Randomized via the in-tree `testkit` PRNG (seeded, deterministic)
//! instead of proptest — the sandbox builds offline.

use std::sync::Arc;

use testkit::{cases, StdRng};

use isoaddr::{AreaConfig, Distribution, IsoArea, NodeSlotManager, SlotProvider, SlotRange};
use isomalloc::heap::{heap_init, heap_slots, isofree, isomalloc, FitPolicy, IsoHeapState};
use isomalloc::layout::{block_area_start, check_block, slot_end, BLOCK_HDR_SIZE, SLOT_HDR_SIZE};
use isomalloc::pack::{
    heap_slot_pack_hint, pack_heap_slot, pack_raw_extents, peek_header, unpack_into_mapped,
};
use isomalloc::verify::verify_heap;
use isomalloc::SlotKind;

fn provider(n_slots: usize) -> NodeSlotManager {
    let area = Arc::new(
        IsoArea::new(AreaConfig {
            slot_size: 64 * 1024,
            n_slots,
        })
        .unwrap(),
    );
    NodeSlotManager::new(0, 1, area, Distribution::RoundRobin, 0)
}

/// The record `pack_heap_slot` must produce, built the plain way: the
/// merged extent list in a vector of its own, then serialised.
unsafe fn reference_record(base: usize, slot_size: usize) -> Vec<u8> {
    let mut extents: Vec<(u32, u32)> = vec![(0, SLOT_HDR_SIZE as u32)];
    let mut cur = block_area_start(base);
    while cur < slot_end(base, slot_size) {
        let blk = check_block(cur).unwrap();
        let off = (cur - base) as u32;
        let len = if blk.is_free() {
            BLOCK_HDR_SIZE as u32
        } else {
            blk.size as u32
        };
        let last = extents.last_mut().unwrap();
        if off <= last.0 + last.1 {
            last.1 = (off + len).max(last.0 + last.1) - last.0;
        } else {
            extents.push((off, len));
        }
        cur += blk.size as usize;
    }
    let n_slots = (slot_end(base, slot_size) - base) / slot_size;
    let mut record = Vec::new();
    pack_raw_extents(base, SlotKind::Heap as u32, n_slots, &extents, &mut record);
    record
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate `size` bytes filled with `fill`.
    Alloc { size: usize, fill: u8 },
    /// Free the `idx % live`-th live block.
    Free { idx: usize },
}

fn random_ops(rng: &mut StdRng) -> Vec<Op> {
    let n = rng.random_range(1..150usize);
    (0..n)
        .map(|_| {
            // 3:2 alloc/free mix, like the original proptest weights.
            if rng.random_range(0..5u32) < 3 {
                Op::Alloc {
                    size: rng.random_range(1..5000usize),
                    fill: rng.random_range(0..=255u32) as u8,
                }
            } else {
                Op::Free {
                    idx: rng.random_range(0..1000usize),
                }
            }
        })
        .collect()
}

/// Invariants hold and data is intact under arbitrary interleavings,
/// for every fit policy.
#[test]
fn random_ops_keep_heap_sound() {
    cases(64, |rng| {
        let ops = random_ops(rng);
        let policy = rng.random_range(0..3u32);
        let trim = rng.random_bool(0.5);
        let mut p = provider(128);
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe { heap_init(h.as_mut(), FitPolicy::from_u32(policy), trim) };
        let mut live: Vec<(*mut u8, usize, u8)> = Vec::new();
        unsafe {
            for op in &ops {
                match *op {
                    Op::Alloc { size, fill } => {
                        let ptr = isomalloc(h.as_mut(), &mut p, size).unwrap();
                        assert_eq!(ptr as usize % 16, 0, "payload alignment");
                        std::ptr::write_bytes(ptr, fill, size);
                        live.push((ptr, size, fill));
                    }
                    Op::Free { idx } => {
                        if !live.is_empty() {
                            let (ptr, size, fill) = live.swap_remove(idx % live.len());
                            assert_eq!(*ptr, fill);
                            assert_eq!(*ptr.add(size.max(1) - 1), fill);
                            isofree(h.as_mut(), &mut p, ptr).unwrap();
                        }
                    }
                }
            }
            // Structural invariants + block counts match the model.
            let report = verify_heap(h.as_ref(), p.slot_size()).unwrap();
            assert_eq!(report.busy_blocks, live.len());
            // Every surviving block is intact.
            for &(ptr, size, fill) in &live {
                assert_eq!(*ptr, fill);
                assert_eq!(*ptr.add(size.max(1) - 1), fill);
            }
            // Drain and confirm the heap empties completely.
            for (ptr, _, _) in live {
                isofree(h.as_mut(), &mut p, ptr).unwrap();
            }
            let report = verify_heap(h.as_ref(), p.slot_size()).unwrap();
            assert_eq!(report.busy_blocks, 0);
            if trim {
                assert_eq!(h.as_ref().head, 0, "trim must empty the heap");
                assert_eq!(p.area().committed_slots(), 0);
            }
        }
    });
}

/// Pack → unmap → remap → unpack is lossless for busy payloads and
/// produces a structurally identical heap; each packed record is, byte for
/// byte, the reference's (same merged extents, same order) and inside its
/// occupancy hint.
#[test]
fn pack_roundtrip_preserves_heap() {
    cases(64, |rng| {
        let ops = random_ops(rng);
        let area = Arc::new(
            IsoArea::new(AreaConfig {
                slot_size: 64 * 1024,
                n_slots: 128,
            })
            .unwrap(),
        );
        let mut m0 = NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::RoundRobin, 0);
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::RoundRobin, 0);
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        // trim=false so empty slots stay in the chain and get packed too.
        unsafe { heap_init(h.as_mut(), FitPolicy::FirstFit, false) };
        let mut live: Vec<(*mut u8, usize, u8)> = Vec::new();
        unsafe {
            for op in &ops {
                match *op {
                    Op::Alloc { size, fill } => {
                        let size = size.min(3000);
                        let ptr = isomalloc(h.as_mut(), &mut m0, size).unwrap();
                        std::ptr::write_bytes(ptr, fill, size);
                        live.push((ptr, size, fill));
                    }
                    Op::Free { idx } => {
                        if !live.is_empty() {
                            let (ptr, _, _) = live.swap_remove(idx % live.len());
                            isofree(h.as_mut(), &mut m0, ptr).unwrap();
                        }
                    }
                }
            }
            let before = verify_heap(h.as_ref(), m0.slot_size()).unwrap();
            // Pack every slot, then ship ownership node0 → node1.
            let slots = heap_slots(h.as_ref());
            let mut buf = Vec::new();
            for &(base, _) in &slots {
                let at = buf.len();
                pack_heap_slot(base, m0.slot_size(), &mut buf).unwrap();
                assert!(buf[at..] == reference_record(base, m0.slot_size())[..]);
                assert!(heap_slot_pack_hint(base).unwrap() >= buf.len() - at);
            }
            for &(base, n) in &slots {
                let first = (base - area.base()) / m0.slot_size();
                m0.surrender(SlotRange::new(first, n)).unwrap();
            }
            let mut off = 0;
            while off < buf.len() {
                let info = peek_header(&buf[off..]).unwrap();
                let first = (info.base - area.base()) / m1.slot_size();
                m1.adopt(SlotRange::new(first, info.n_slots)).unwrap();
                unpack_into_mapped(&buf[off..], m1.slot_size()).unwrap();
                off += info.record_len;
            }
            // Identical structure, intact payloads, still operational.
            let after = verify_heap(h.as_ref(), m1.slot_size()).unwrap();
            assert_eq!(before, after);
            for &(ptr, size, fill) in &live {
                assert_eq!(*ptr, fill);
                assert_eq!(*ptr.add(size.max(1) - 1), fill);
            }
            for (ptr, _, _) in live {
                isofree(h.as_mut(), &mut m1, ptr).unwrap();
            }
            verify_heap(h.as_ref(), m1.slot_size()).unwrap();
        }
    });
}
