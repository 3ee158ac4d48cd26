//! Property tests on the block layer: random alloc/free interleavings
//! against a shadow model, with the structural verifier as the invariant
//! oracle; pack/unpack roundtrips of randomly shaped heaps; and random heap
//! histories checked against the zero-fill contract.
//!
//! Randomized via the in-tree `testkit` PRNG (seeded, deterministic)
//! instead of proptest — the sandbox builds offline.

use std::sync::Arc;

use testkit::{cases, StdRng};

use isoaddr::{
    AreaConfig, Deal, Distribution, IsoAddrError, IsoArea, NodeSlotManager, SlotProvider,
    SlotRange, VAddr,
};
use isomalloc::heap::{
    heap_init, heap_release_all, heap_slots, high_water, isofree, isomalloc, FitPolicy,
    IsoHeapState,
};
use isomalloc::layout::{block_area_start, check_block, slot_end, BLOCK_HDR_SIZE, SLOT_HDR_SIZE};
use isomalloc::pack::{
    heap_slot_pack_hint, pack_full, pack_heap_slot, pack_raw_extents, peek_header,
    unpack_into_mapped,
};
use isomalloc::verify::verify_heap;
use isomalloc::{AllocError, SlotKind};

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

/// Invariants hold and data is intact under arbitrary interleavings.
#[test]
fn random_ops_keep_heap_sound() {
    cases(64, |rng| {
        let ops = random_ops(rng);
        let trim = rng.random_bool(0.5);
        let mut p = provider(128);
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe { heap_init(h.as_mut(), FitPolicy::FirstFit, trim) };
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

/// A node's slot manager that checks the zero-fill contract on every
/// acquisition: each slot a fresh commit hands over reads zero from its
/// first byte to its last.  (A single slot the node's cache hands back is
/// not fresh — the cache keeps its contents, §6 — and is not checked; a
/// cached slot inside a multi-slot range is.)
struct Checked<'a> {
    m: &'a mut NodeSlotManager,
    /// Fresh slots checked so far.
    fresh: &'a mut usize,
}

impl SlotProvider for Checked<'_> {
    fn slot_size(&self) -> usize {
        self.m.slot_size()
    }

    fn area_base(&self) -> VAddr {
        self.m.area_base()
    }

    fn acquire_slots(&mut self, n: usize) -> Result<VAddr, IsoAddrError> {
        let cached: Vec<usize> = match n {
            1 => self.m.iter_cached().collect(),
            _ => Vec::new(),
        };
        let base = self.m.acquire_slots(n)?;
        let slot_size = self.slot_size();
        let first = (base - self.area_base()) / slot_size;
        for idx in (first..first + n).filter(|idx| !cached.contains(idx)) {
            let at = self.m.area().slot_addr(idx);
            // SAFETY: just committed for this caller.
            let bytes = unsafe { std::slice::from_raw_parts(at as *const u8, slot_size) };
            if let Some(off) = bytes.iter().position(|&b| b != 0) {
                panic!("fresh slot {idx} reads {:#x} at byte {off}", bytes[off]);
            }
            *self.fresh += 1;
        }
        Ok(base)
    }

    fn release_slots(&mut self, base: VAddr, n: usize, written: usize) -> Result<(), IsoAddrError> {
        self.m.release_slots(base, n, written)
    }
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Allocate a block of `size` bytes (small, or spanning slots) and fill
    /// it with `fill`.
    Alloc { size: usize, fill: u8 },
    /// Free the `idx % live`-th live block (the heap trims).
    Free { idx: usize },
    /// Migrate the thread: pack its heap slots (whole, or their extents),
    /// surrender them with their marks, adopt and unpack on the other node.
    Hop { full: bool },
    /// The thread is lost in flight: its heap slots are surrendered with
    /// their marks, nobody adopts them, and recovery grants them to the
    /// node it left, where a new thread starts.
    Lost,
    /// The thread dies on the node it is on and a new one starts there.
    ReleaseAll,
    /// The other node lends `count` slots to the spare node, which commits
    /// them fresh, writes `written` bytes of each and gives them back.
    Lend { count: usize, written: usize },
}

fn random_history(rng: &mut StdRng, slot_size: usize) -> Vec<Step> {
    let n = rng.random_range(1..120usize);
    (0..n)
        .map(|_| match rng.random_range(0..21u32) {
            0..=6 => Step::Alloc {
                size: rng.random_range(1..5000usize),
                fill: rng.random_range(1..=255u32) as u8,
            },
            7..=8 => Step::Alloc {
                size: rng.random_range(slot_size - 200..2 * slot_size + 5000),
                fill: rng.random_range(1..=255u32) as u8,
            },
            9..=14 => Step::Free {
                idx: rng.random_range(0..1000usize),
            },
            15..=16 => Step::Hop {
                full: rng.random_bool(0.3),
            },
            17 => Step::ReleaseAll,
            18 => Step::Lost,
            _ => Step::Lend {
                count: rng.random_range(1..6usize),
                written: rng.random_range(0..=slot_size),
            },
        })
        .collect()
}

/// Zero-fill follows writes, and reads zero all the same: over random
/// histories of small and multi-slot allocations, trimming frees, hops
/// (surrender with the slots' marks, then recommit), threads lost in flight
/// (surrender, then a fresh commit for a new owner), thread deaths
/// (release) and loans to a spare node that commits them fresh, every slot
/// a fresh commit hands over reads zero — with the slot cache on or off.
#[test]
fn every_fresh_commit_reads_zero() {
    cases(48, |rng| {
        let cfg = AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 96,
        };
        let slot_size = cfg.slot_size;
        let history = random_history(rng, slot_size);
        let cache = [0, 2][rng.random_range(0..2usize)];
        let area = Arc::new(IsoArea::new(cfg).unwrap());
        let node =
            |i| NodeSlotManager::new(i, 3, Arc::clone(&area), Distribution::Partitioned, cache);
        let mut nodes = [node(0), node(1)];
        // The spare node's share goes to node 1, so that it owns only what
        // it is lent.
        let mut spare = node(2);
        let share = SlotRange::new(64, 32);
        spare.give(share, Deal::Loan).unwrap();
        assert!(nodes[1].adopt_batch(&[share], Deal::Loan));

        let mut fresh = 0;
        let mut here = 0;
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe { heap_init(h.as_mut(), FitPolicy::FirstFit, true) };
        let mut live: Vec<(*mut u8, usize, u8)> = Vec::new();
        for step in history {
            let mut p = Checked {
                m: &mut nodes[here],
                fresh: &mut fresh,
            };
            unsafe {
                match step {
                    Step::Alloc { size, fill } => match isomalloc(h.as_mut(), &mut p, size) {
                        Ok(ptr) => {
                            std::ptr::write_bytes(ptr, fill, size);
                            live.push((ptr, size, fill));
                        }
                        Err(AllocError::Provider(IsoAddrError::NeedNegotiation { .. })) => {}
                        Err(e) => panic!("alloc {size}: {e}"),
                    },
                    Step::Free { idx } => {
                        if !live.is_empty() {
                            let (ptr, _, _) = live.swap_remove(idx % live.len());
                            isofree(h.as_mut(), &mut p, ptr).unwrap();
                        }
                    }
                    Step::Hop { full } => {
                        let slots = heap_slots(h.as_ref());
                        let mut buf = Vec::new();
                        for &(base, n) in &slots {
                            if full {
                                pack_full(base, SlotKind::Heap as u32, n, slot_size, &mut buf);
                            } else {
                                pack_heap_slot(base, slot_size, &mut buf).unwrap();
                            }
                        }
                        for &(base, n) in &slots {
                            let range = SlotRange::new((base - area.base()) / slot_size, n);
                            nodes[here]
                                .surrender_written(range, high_water(base))
                                .unwrap();
                        }
                        here = 1 - here;
                        let mut off = 0;
                        while off < buf.len() {
                            let info = peek_header(&buf[off..]).unwrap();
                            let first = (info.base - area.base()) / slot_size;
                            nodes[here]
                                .adopt(SlotRange::new(first, info.n_slots))
                                .unwrap();
                            unpack_into_mapped(&buf[off..], slot_size).unwrap();
                            off += info.record_len;
                        }
                    }
                    Step::Lost => {
                        let mut lost = Vec::new();
                        for (base, n) in heap_slots(h.as_ref()) {
                            let range = SlotRange::new((base - area.base()) / slot_size, n);
                            nodes[here]
                                .surrender_written(range, high_water(base))
                                .unwrap();
                            lost.push(range);
                        }
                        assert!(nodes[here].adopt_batch(&lost, Deal::Loan));
                        heap_init(h.as_mut(), FitPolicy::FirstFit, true);
                        live.clear();
                    }
                    Step::ReleaseAll => {
                        heap_release_all(h.as_mut(), &mut p).unwrap();
                        heap_init(h.as_mut(), FitPolicy::FirstFit, true);
                        live.clear();
                    }
                    Step::Lend { count, written } => {
                        let lender = &mut nodes[1 - here];
                        let lent = lender.lend_batch(count, 1).unwrap();
                        assert!(spare.adopt_batch(&lent, Deal::Loan));
                        let mut p = Checked {
                            m: &mut spare,
                            fresh: &mut fresh,
                        };
                        let mut taken = Vec::new();
                        while p.m.free_slots() > 0 {
                            taken.push(p.acquire_slots(1).unwrap());
                        }
                        for base in taken {
                            std::ptr::write_bytes(base as *mut u8, 0x5C, written);
                            p.release_slots(base, 1, written).unwrap();
                        }
                        for &r in &lent {
                            spare.give(r, Deal::Loan).unwrap();
                        }
                        assert!(lender.adopt_batch(&lent, Deal::Loan));
                    }
                }
            }
        }
        // The surviving blocks are intact and the heap still verifies.
        unsafe {
            verify_heap(h.as_ref(), slot_size).unwrap();
            for &(ptr, size, fill) in &live {
                assert_eq!(*ptr, fill);
                assert_eq!(*ptr.add(size - 1), fill);
            }
        }
        assert!(fresh > 0, "no fresh commit was checked");
    });
}
