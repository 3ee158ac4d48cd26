//! The per-thread iso-address heap (paper §4.3–4.4).
//!
//! A thread's heap is a doubly-linked chain of slots; allocation searches
//! the chain's free lists first-fit, as the paper's implementation does
//! (§4.3), acquiring a fresh slot from the [`SlotProvider`] when no block
//! fits.  Requests larger than one slot acquire `n` contiguous raw
//! slots merged into one *large slot* — the provider reports
//! `NeedNegotiation` when the local node cannot supply them, and the PM2
//! runtime runs the global negotiation of §4.4 before retrying.
//!
//! The heap state itself ([`IsoHeapState`]) is plain `repr(C)` data designed
//! to live *inside* the thread's stack slot (in the descriptor), so it
//! migrates with the thread and its slot-chain pointers stay valid.
//!
//! Each slot header keeps a high-water mark ([`SlotHeader::high_water`]):
//! every carve raises it past the block or remainder header it wrote, and
//! a slot that leaves the heap — trimmed, or released at thread death —
//! names it to the provider, so the next owner's zero-fill stops there.

use crate::error::{AllocError, Result};
use crate::freelist::{fl_iter, fl_push, fl_remove};
use crate::layout::{
    block_area_start, block_size_for, check_block, check_slot, payload_of, slot_end,
    write_block_header, BlockHeader, SlotHeader, SlotKind, BLOCK_HDR_SIZE, MIN_PAYLOAD,
    SLOT_HDR_SIZE, SLOT_MAGIC,
};
use isoaddr::{SlotProvider, VAddr};

/// Poison written over the magic of a header that ceased to exist (absorbed
/// by coalescing or freed slot); catches stale-pointer reuse.
const DEAD_MAGIC: u32 = 0xDEAD_B10C;

/// Placement policy used when searching the free lists: the paper's, the
/// only one ([`heap_init`] still takes it, so its callers name the rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitPolicy {
    /// First block that fits, scanning slots in chain order (the paper's
    /// implementation: "a first-fit strategy is used").
    FirstFit,
}

/// The largest block [`isomalloc`] carves, header included: far past any
/// area, so a request this large is refused before any search.
const MAX_BLOCK: usize = 1 << 40;

/// Per-thread heap state.  `repr(C)`, address-stable, fully relocatable by
/// an iso-address copy (every field is either plain data or an iso-address).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct IsoHeapState {
    /// First slot header in the chain (0 = empty heap).
    pub head: VAddr,
    /// Last slot header in the chain (0 = empty heap).
    pub tail: VAddr,
    /// 1 ⇒ release fully-free slots to the current node eagerly.
    pub trim: u32,
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of successful frees.
    pub frees: u64,
    /// Slots acquired from providers over the heap's lifetime.
    pub slots_acquired: u64,
    /// Slots released back to providers.
    pub slots_released: u64,
    /// Sum of payload bytes requested.
    pub bytes_requested: u64,
}

/// Initialize a heap state in place.
///
/// # Safety
/// `h` must point to writable memory of at least `size_of::<IsoHeapState>()`.
pub unsafe fn heap_init(h: *mut IsoHeapState, _policy: FitPolicy, trim: bool) {
    h.write(IsoHeapState {
        head: 0,
        tail: 0,
        trim: trim as u32,
        allocs: 0,
        frees: 0,
        slots_acquired: 0,
        slots_released: 0,
        bytes_requested: 0,
    });
}

/// Initialize a fresh heap slot at `base` covering `n_slots` raw slots and
/// give it one all-covering free block.
///
/// # Safety
/// The memory `[base, base + n_slots*slot_size)` must be mapped and owned by
/// the caller.
pub unsafe fn init_heap_slot(
    base: VAddr,
    first_slot: u32,
    n_slots: usize,
    slot_size: usize,
) -> *mut SlotHeader {
    let slot = base as *mut SlotHeader;
    slot.write(SlotHeader {
        magic: SLOT_MAGIC,
        kind: SlotKind::Heap as u32,
        first_slot,
        n_slots: n_slots as u32,
        high_water: (SLOT_HDR_SIZE + BLOCK_HDR_SIZE) as u64,
        prev: 0,
        next: 0,
        free_head: 0,
        used_bytes: 0,
        free_blocks: 0,
    });
    let start = block_area_start(base);
    let total = base + n_slots * slot_size - start;
    write_block_header(start, total, base, 0, false);
    fl_push(slot, start as *mut BlockHeader);
    slot
}

/// Append `slot_base` to the heap's slot chain.
///
/// # Safety
/// `h` and `slot_base` must reference live structures; the slot must not be
/// on any chain.
pub unsafe fn attach_slot(h: *mut IsoHeapState, slot_base: VAddr) {
    let slot = slot_base as *mut SlotHeader;
    (*slot).prev = (*h).tail;
    (*slot).next = 0;
    if (*h).tail != 0 {
        (*((*h).tail as *mut SlotHeader)).next = slot_base;
    } else {
        (*h).head = slot_base;
    }
    (*h).tail = slot_base;
}

/// Remove `slot_base` from the heap's slot chain.
///
/// # Safety
/// The slot must currently be on `h`'s chain.
pub unsafe fn detach_slot(h: *mut IsoHeapState, slot_base: VAddr) {
    let slot = slot_base as *mut SlotHeader;
    let prev = (*slot).prev;
    let next = (*slot).next;
    if prev != 0 {
        (*(prev as *mut SlotHeader)).next = next;
    } else {
        (*h).head = next;
    }
    if next != 0 {
        (*(next as *mut SlotHeader)).prev = prev;
    } else {
        (*h).tail = prev;
    }
    (*slot).prev = 0;
    (*slot).next = 0;
}

/// Iterate the heap's slot chain, yielding slot header addresses.
///
/// # Safety
/// The chain must be well formed.
pub unsafe fn iter_slots(h: *const IsoHeapState) -> impl Iterator<Item = VAddr> {
    let mut cur = (*h).head;
    std::iter::from_fn(move || {
        if cur == 0 {
            return None;
        }
        let here = cur;
        cur = (*(cur as *const SlotHeader)).next;
        Some(here)
    })
}

/// Iterate the heap's slots as `(slot base, n raw slots)` — the thread's
/// private slots of Fig. 10, as the migration engine walks them.  A slot's
/// header is read for the last time before the slot is yielded, so the
/// caller may unmap each slot as it receives it.
///
/// # Safety
/// The chain must be well formed.
pub unsafe fn iter_slot_runs(h: *const IsoHeapState) -> impl Iterator<Item = (VAddr, usize)> {
    iter_slots(h).map(|s| (s, (*(s as *const SlotHeader)).n_slots as usize))
}

/// The slot's high-water mark ([`SlotHeader::high_water`]): how many bytes
/// from `slot_base` its owners can have written since it was committed
/// fresh — the extent to name when the slot is released or surrendered.
///
/// # Safety
/// `slot_base` must point at a live heap slot header.
pub unsafe fn high_water(slot_base: VAddr) -> usize {
    (*(slot_base as *const SlotHeader)).high_water as usize
}

/// [`iter_slot_runs`] collected into a list.
///
/// # Safety
/// The chain must be well formed.
pub unsafe fn heap_slots(h: *const IsoHeapState) -> Vec<(VAddr, usize)> {
    iter_slot_runs(h).collect()
}

unsafe fn find_in_slot(slot: VAddr, req: usize) -> Option<*mut BlockHeader> {
    fl_iter(slot as *const SlotHeader)
        .find(|&b| (*(b as *const BlockHeader)).size as usize >= req)
        .map(|b| b as *mut BlockHeader)
}

unsafe fn find_fit(h: *mut IsoHeapState, req: usize) -> Option<(VAddr, *mut BlockHeader)> {
    iter_slots(h).find_map(|s| find_in_slot(s, req).map(|b| (s, b)))
}

/// Carve a busy block of total size `req` out of free block `blk` (splitting
/// off the remainder when big enough), account it to `slot` and raise the
/// slot's high-water mark past what the owner may now write.
unsafe fn carve(slot: VAddr, blk: *mut BlockHeader, req: usize, slot_size: usize) -> VAddr {
    let slot_hdr = slot as *mut SlotHeader;
    fl_remove(slot_hdr, blk);
    let blk_addr = blk as VAddr;
    let blk_size = (*blk).size as usize;
    let end = slot_end(slot, slot_size);
    // The busy block's end, or the end of the remainder header after it.
    let mut written = blk_addr + blk_size;
    if blk_size - req >= BLOCK_HDR_SIZE + MIN_PAYLOAD {
        // Split: busy head, free remainder (fl_push sets the free flag).
        let rem_addr = blk_addr + req;
        write_block_header(rem_addr, blk_size - req, slot, blk_addr, false);
        fl_push(slot_hdr, rem_addr as *mut BlockHeader);
        (*blk).size = req as u64;
        written = rem_addr + BLOCK_HDR_SIZE;
        let after = rem_addr + (blk_size - req);
        if after < end {
            (*(after as *mut BlockHeader)).prev_phys = rem_addr;
        }
    }
    (*slot_hdr).high_water = (*slot_hdr).high_water.max((written - slot) as u64);
    (*slot_hdr).used_bytes += (*blk).size;
    payload_of(blk_addr)
}

/// Allocate `size` bytes from the heap (the engine behind `pm2_isomalloc`).
///
/// Returns a 16-byte-aligned payload address inside the iso-address area.
///
/// # Safety
/// `h` must be a live heap state; the provider must be the slot manager of
/// the node currently hosting the owning thread.
pub unsafe fn isomalloc(
    h: *mut IsoHeapState,
    provider: &mut dyn SlotProvider,
    size: usize,
) -> Result<*mut u8> {
    let req = block_size_for(size)
        .filter(|&req| req <= MAX_BLOCK)
        .ok_or(AllocError::TooLarge(size))?;
    if let Some((slot, blk)) = find_fit(h, req) {
        (*h).allocs += 1;
        (*h).bytes_requested += size as u64;
        return Ok(carve(slot, blk, req, provider.slot_size()) as *mut u8);
    }
    // No fit: acquire new slot(s).  §4.4: n = smallest number of contiguous
    // slots such that the block (plus slot header) fits.
    let slot_size = provider.slot_size();
    let n = (SLOT_HDR_SIZE + req).div_ceil(slot_size);
    let base = provider.acquire_slots(n)?;
    let first_slot = (base - provider.area_base()) / slot_size;
    init_heap_slot(base, first_slot as u32, n, slot_size);
    attach_slot(h, base);
    (*h).slots_acquired += n as u64;
    let blk =
        find_in_slot(base, req).expect("fresh slot must satisfy the request it was sized for");
    (*h).allocs += 1;
    (*h).bytes_requested += size as u64;
    Ok(carve(base, blk, req, slot_size) as *mut u8)
}

/// Slot header address owning the block behind payload pointer `ptr`.
///
/// # Safety
/// `ptr` must be a payload pointer previously returned by [`isomalloc`] and
/// still live.
pub unsafe fn owning_slot_of(ptr: *const u8) -> Result<VAddr> {
    let hdr_addr = crate::layout::header_of(ptr as VAddr);
    let hdr = check_block(hdr_addr)?;
    Ok(hdr.slot)
}

/// Free a block previously returned by [`isomalloc`] (the engine behind
/// `pm2_isofree`).  Coalesces with physical neighbours; when the containing
/// slot becomes entirely free (and trimming is enabled) the slot is released
/// to the provider — i.e. to the node the thread is *currently* visiting,
/// which is how slots change home nodes in the paper (Fig. 6, step 4).
///
/// # Safety
/// Same as [`isomalloc`]; `ptr` must come from this heap and not have been
/// freed already.
pub unsafe fn isofree(
    h: *mut IsoHeapState,
    provider: &mut dyn SlotProvider,
    ptr: *mut u8,
) -> Result<()> {
    if ptr.is_null() {
        return Err(AllocError::InvalidFree(0));
    }
    let hdr_addr = crate::layout::header_of(ptr as VAddr);
    let blk = match check_block(hdr_addr) {
        Ok(b) => b,
        Err(_) => return Err(AllocError::InvalidFree(ptr as usize)),
    };
    if blk.is_free() {
        return Err(AllocError::InvalidFree(ptr as usize));
    }
    let slot_addr = blk.slot;
    let slot = check_slot(slot_addr)?;
    if slot.kind != SlotKind::Heap as u32 {
        return Err(AllocError::InvalidFree(ptr as usize));
    }
    let slot_size = provider.slot_size();
    let end = slot_end(slot_addr, slot_size);
    slot.used_bytes -= blk.size;

    let mut merged_addr = hdr_addr;
    let mut merged_size = blk.size as usize;

    // Coalesce with the physically following block.
    let next_addr = hdr_addr + merged_size;
    if next_addr < end {
        let nxt = check_block(next_addr)?;
        if nxt.is_free() {
            fl_remove(slot_addr as *mut SlotHeader, nxt);
            merged_size += nxt.size as usize;
            nxt.magic = DEAD_MAGIC;
        }
    }
    // Coalesce with the physically preceding block.
    let prev_addr = blk.prev_phys;
    if prev_addr != 0 {
        let prv = check_block(prev_addr)?;
        if prv.is_free() {
            fl_remove(slot_addr as *mut SlotHeader, prv);
            merged_size += prv.size as usize;
            (*(hdr_addr as *mut BlockHeader)).magic = DEAD_MAGIC;
            merged_addr = prev_addr;
        }
    }
    // Rewrite the merged block header and push it onto the free list.
    let prev_phys_of_merged = if merged_addr == hdr_addr {
        blk.prev_phys
    } else {
        (*(merged_addr as *const BlockHeader)).prev_phys
    };
    write_block_header(
        merged_addr,
        merged_size,
        slot_addr,
        prev_phys_of_merged,
        false,
    );
    fl_push(
        slot_addr as *mut SlotHeader,
        merged_addr as *mut BlockHeader,
    );
    // Fix the back-link of the block following the merged region.
    let after = merged_addr + merged_size;
    if after < end {
        (*(after as *mut BlockHeader)).prev_phys = merged_addr;
    }
    (*h).frees += 1;

    // Trim: release an entirely-free slot to the current node.
    let area_start = block_area_start(slot_addr);
    if (*h).trim != 0 && merged_addr == area_start && merged_size == end - area_start {
        let n_slots = (*(slot_addr as *const SlotHeader)).n_slots as usize;
        let written = high_water(slot_addr);
        detach_slot(h, slot_addr);
        (*(slot_addr as *mut SlotHeader)).magic = DEAD_MAGIC;
        provider.release_slots(slot_addr, n_slots, written)?;
        (*h).slots_released += n_slots as u64;
    }
    Ok(())
}

/// Release every slot of the heap to the provider (thread death: "On dying,
/// a thread releases all the slots it currently owns", §3.2).
///
/// # Safety
/// After this call the heap is empty and all its memory is unmapped; no
/// pointer into it may be used again.
pub unsafe fn heap_release_all(
    h: *mut IsoHeapState,
    provider: &mut dyn SlotProvider,
) -> Result<()> {
    let slots = heap_slots(h);
    for (base, n) in slots {
        let written = high_water(base);
        detach_slot(h, base);
        provider.release_slots(base, n, written)?;
        (*h).slots_released += n as u64;
    }
    debug_assert_eq!((*h).head, 0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isoaddr::{AreaConfig, Distribution, IsoArea, NodeSlotManager};
    use std::sync::Arc;

    fn provider() -> NodeSlotManager {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        NodeSlotManager::new(0, 1, area, Distribution::RoundRobin, 0)
    }

    fn fresh_heap() -> Box<IsoHeapState> {
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe { heap_init(h.as_mut() as *mut _, FitPolicy::FirstFit, true) };
        h
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = provider();
        let mut h = fresh_heap();
        unsafe {
            let ptr = isomalloc(h.as_mut(), &mut p, 100).unwrap();
            assert_eq!(ptr as usize % 16, 0);
            std::ptr::write_bytes(ptr, 0x42, 100);
            assert_eq!(*ptr.add(99), 0x42);
            assert_eq!(h.allocs, 1);
            isofree(h.as_mut(), &mut p, ptr).unwrap();
            assert_eq!(h.frees, 1);
            // Trim returned the slot: heap empty again.
            assert_eq!(h.head, 0);
            assert_eq!(p.area().committed_slots(), 0);
        }
    }

    #[test]
    fn many_small_allocs_share_one_slot() {
        let mut p = provider();
        let mut h = fresh_heap();
        unsafe {
            let ptrs: Vec<_> = (0..100)
                .map(|_| isomalloc(h.as_mut(), &mut p, 64).unwrap())
                .collect();
            assert_eq!(h.slots_acquired, 1, "100×64B must fit one 64 KiB slot");
            // All distinct, all inside the same slot.
            let slot0 = owning_slot_of(ptrs[0]).unwrap();
            for w in ptrs.windows(2) {
                assert_ne!(w[0], w[1]);
            }
            for &q in &ptrs {
                assert_eq!(owning_slot_of(q).unwrap(), slot0);
            }
            for q in ptrs {
                isofree(h.as_mut(), &mut p, q).unwrap();
            }
            assert_eq!(h.head, 0, "full coalescing must re-form one block and trim");
        }
    }

    #[test]
    fn data_integrity_across_many_allocations() {
        let mut p = provider();
        let mut h = fresh_heap();
        unsafe {
            let mut live: Vec<(*mut u8, usize, u8)> = Vec::new();
            for i in 0..200usize {
                let sz = 16 + (i * 37) % 600;
                let ptr = isomalloc(h.as_mut(), &mut p, sz).unwrap();
                std::ptr::write_bytes(ptr, (i % 251) as u8, sz);
                live.push((ptr, sz, (i % 251) as u8));
                if i % 3 == 0 {
                    let (q, qsz, fill) = live.remove(live.len() / 2);
                    for off in [0usize, qsz / 2, qsz - 1] {
                        assert_eq!(*q.add(off), fill, "corruption before free");
                    }
                    isofree(h.as_mut(), &mut p, q).unwrap();
                }
            }
            for (q, qsz, fill) in live {
                for off in [0usize, qsz / 2, qsz - 1] {
                    assert_eq!(*q.add(off), fill, "corruption in surviving block");
                }
                isofree(h.as_mut(), &mut p, q).unwrap();
            }
            assert_eq!(h.head, 0);
        }
    }

    #[test]
    fn double_free_detected() {
        let mut p = provider();
        let mut h = fresh_heap();
        unsafe {
            let a = isomalloc(h.as_mut(), &mut p, 64).unwrap();
            let b = isomalloc(h.as_mut(), &mut p, 64).unwrap();
            isofree(h.as_mut(), &mut p, a).unwrap();
            assert!(matches!(
                isofree(h.as_mut(), &mut p, a),
                Err(AllocError::InvalidFree(_)) | Err(AllocError::Corruption { .. })
            ));
            isofree(h.as_mut(), &mut p, b).unwrap();
        }
    }

    #[test]
    fn foreign_pointer_rejected() {
        let mut p = provider();
        let mut h = fresh_heap();
        let mut foreign = vec![0u8; 256];
        unsafe {
            assert!(matches!(
                isofree(h.as_mut(), &mut p, foreign.as_mut_ptr().add(128)),
                Err(AllocError::InvalidFree(_))
            ));
            assert!(isofree(h.as_mut(), &mut p, std::ptr::null_mut()).is_err());
        }
    }

    #[test]
    fn large_block_spans_multiple_slots() {
        let mut p = provider();
        let mut h = fresh_heap();
        let slot_size = p.slot_size();
        unsafe {
            // 3 slots worth of payload.
            let sz = 3 * slot_size;
            let ptr = isomalloc(h.as_mut(), &mut p, sz).unwrap();
            assert_eq!(h.slots_acquired, 4, "3×64K payload + headers needs 4 slots");
            std::ptr::write_bytes(ptr, 0x7E, sz);
            assert_eq!(*ptr.add(sz - 1), 0x7E);
            let slot = owning_slot_of(ptr).unwrap();
            assert_eq!((*(slot as *const SlotHeader)).n_slots, 4);
            isofree(h.as_mut(), &mut p, ptr).unwrap();
            assert_eq!(p.area().committed_slots(), 0);
        }
    }

    #[test]
    fn first_fit_reuses_freed_space() {
        let mut p = provider();
        let mut h = fresh_heap();
        unsafe {
            let a = isomalloc(h.as_mut(), &mut p, 1000).unwrap();
            let _b = isomalloc(h.as_mut(), &mut p, 1000).unwrap();
            isofree(h.as_mut(), &mut p, a).unwrap();
            let c = isomalloc(h.as_mut(), &mut p, 900).unwrap();
            assert_eq!(c, a, "first-fit should reuse the freed hole");
            assert_eq!(h.slots_acquired, 1);
        }
    }

    #[test]
    fn zero_sized_alloc_works() {
        let mut p = provider();
        let mut h = fresh_heap();
        unsafe {
            let z = isomalloc(h.as_mut(), &mut p, 0).unwrap();
            assert!(!z.is_null());
            isofree(h.as_mut(), &mut p, z).unwrap();
        }
    }

    #[test]
    fn release_all_empties_heap() {
        let mut p = provider();
        let mut h = fresh_heap();
        unsafe {
            for i in 0..50 {
                let _ = isomalloc(h.as_mut(), &mut p, 1000 + i * 100).unwrap();
            }
            assert!(h.slots_acquired >= 1);
            heap_release_all(h.as_mut(), &mut p).unwrap();
            assert_eq!(h.head, 0);
            assert_eq!(h.tail, 0);
            assert_eq!(p.area().committed_slots(), 0);
        }
    }

    /// A size whose block would not fit a `usize` is refused as too large
    /// — not wrapped into a block shorter than its own header — and the
    /// heap is left as it was.
    #[test]
    fn sizes_that_overflow_are_too_large() {
        let mut p = provider();
        let mut h = fresh_heap();
        unsafe {
            let keep = isomalloc(h.as_mut(), &mut p, 100).unwrap();
            for size in [usize::MAX, usize::MAX - 30, usize::MAX - 64, MAX_BLOCK] {
                assert!(
                    matches!(isomalloc(h.as_mut(), &mut p, size), Err(AllocError::TooLarge(s)) if s == size),
                    "{size:#x}"
                );
            }
            assert_eq!((h.allocs, h.slots_acquired), (1, 1));
            let next = isomalloc(h.as_mut(), &mut p, 100).unwrap();
            assert_eq!(
                next as usize - keep as usize,
                176,
                "the next block follows the first"
            );
        }
    }

    /// Zero-fill follows writes: a heap slot written to about 1 KiB and
    /// trimmed names its high-water mark, so the next owner's fresh commit
    /// (another node's, after a loan) zero-fills that much — not the whole
    /// 64 KiB — and the pages past it are never touched.
    #[test]
    fn a_trimmed_slot_is_scrubbed_only_as_far_as_it_was_written() {
        use isoaddr::{AcquireOutcome, Deal, SlotRange};
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::Partitioned, 0);
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::Partitioned, 0);
        let mut h = fresh_heap();
        let slot = SlotRange::single(0);
        unsafe {
            let ptr = isomalloc(h.as_mut(), &mut m0, 1000).unwrap();
            std::ptr::write_bytes(ptr, 0xA7, 1000);
            let mark = high_water(owning_slot_of(ptr).unwrap());
            assert_eq!(mark, SLOT_HDR_SIZE + BLOCK_HDR_SIZE + 1008 + BLOCK_HDR_SIZE);
            isofree(h.as_mut(), &mut m0, ptr).unwrap();
        }
        assert_eq!(h.slots_released, 1, "trimmed");
        m0.give(slot, Deal::Loan).unwrap();
        assert!(m1.adopt_batch(&[slot], Deal::Loan));
        let AcquireOutcome::Acquired(got, addr) = m1.try_acquire(1).unwrap() else {
            panic!("node 1 owns free slots");
        };
        assert_eq!(got, slot);
        let scrubbed = m1.stats_snapshot();
        assert_eq!(scrubbed.scrubs, 1);
        assert!(
            scrubbed.scrubbed_bytes <= 4096,
            "{}",
            scrubbed.scrubbed_bytes
        );
        // Before anything reads the slot (a read maps a page too).  A kernel
        // that backs anonymous memory with huge pages by default pages in
        // 2 MiB at the first touch, so there the pages say nothing.
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        if !thp.is_ok_and(|mode| mode.contains("[always]")) {
            let resident = area.resident_pages(slot).unwrap();
            assert!(resident[0], "the scrubbed page");
            assert!(
                !resident[1..].iter().any(|&r| r),
                "pages 1.. paged in: {resident:?}"
            );
        }
        let bytes = unsafe { std::slice::from_raw_parts(addr as *const u8, m1.slot_size()) };
        assert!(bytes.iter().all(|&b| b == 0));
        m1.release(slot).unwrap();
    }

    #[test]
    fn exhaustion_reports_negotiation() {
        // 2-node round-robin: no contiguous pair exists locally.
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut p = NodeSlotManager::new(0, 2, area, Distribution::RoundRobin, 0);
        let mut h = fresh_heap();
        unsafe {
            let req = 2 * p.slot_size();
            let err = isomalloc(h.as_mut(), &mut p, req).unwrap_err();
            assert!(matches!(
                err,
                AllocError::Provider(isoaddr::IsoAddrError::NeedNegotiation { .. })
            ));
        }
    }
}
