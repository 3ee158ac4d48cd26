//! The per-thread iso-address heap (paper §4.3–4.4).
//!
//! A thread's heap is a doubly-linked chain of slots; allocation searches
//! the chain's free lists (first-fit by default, best-fit/next-fit for the
//! ablation study), acquiring a fresh slot from the [`SlotProvider`] when no
//! block fits.  Requests larger than one slot acquire `n` contiguous raw
//! slots merged into one *large slot* — the provider reports
//! `NeedNegotiation` when the local node cannot supply them, and the PM2
//! runtime runs the global negotiation of §4.4 before retrying.
//!
//! The heap state itself ([`IsoHeapState`]) is plain `repr(C)` data designed
//! to live *inside* the thread's stack slot (in the descriptor), so it
//! migrates with the thread and its slot-chain pointers stay valid.

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

/// Placement policy used when searching the free lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum FitPolicy {
    /// First block that fits, scanning slots in chain order (the paper's
    /// implementation: "a first-fit strategy is used").
    FirstFit = 0,
    /// Smallest block that fits (lower fragmentation, slower).
    BestFit = 1,
    /// First fit starting from the slot of the previous allocation.
    NextFit = 2,
}

impl FitPolicy {
    /// Decode from the raw heap-state field.
    pub fn from_u32(v: u32) -> FitPolicy {
        match v {
            1 => FitPolicy::BestFit,
            2 => FitPolicy::NextFit,
            _ => FitPolicy::FirstFit,
        }
    }
}

/// Per-thread heap state.  `repr(C)`, address-stable, fully relocatable by
/// an iso-address copy (every field is either plain data or an iso-address).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct IsoHeapState {
    /// First slot header in the chain (0 = empty heap).
    pub head: VAddr,
    /// Last slot header in the chain (0 = empty heap).
    pub tail: VAddr,
    /// [`FitPolicy`] as u32.
    pub policy: u32,
    /// 1 ⇒ release fully-free slots to the current node eagerly.
    pub trim: u32,
    /// Next-fit hint: slot to start searching from (0 = head).
    pub hint_slot: VAddr,
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
pub unsafe fn heap_init(h: *mut IsoHeapState, policy: FitPolicy, trim: bool) {
    h.write(IsoHeapState {
        head: 0,
        tail: 0,
        policy: policy as u32,
        trim: trim as u32,
        hint_slot: 0,
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
    first_slot: u64,
    n_slots: usize,
    slot_size: usize,
) -> *mut SlotHeader {
    let slot = base as *mut SlotHeader;
    slot.write(SlotHeader {
        magic: SLOT_MAGIC,
        kind: SlotKind::Heap as u32,
        first_slot,
        n_slots: n_slots as u64,
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
    if (*h).hint_slot == slot_base {
        (*h).hint_slot = 0;
    }
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
    match FitPolicy::from_u32((*h).policy) {
        FitPolicy::FirstFit => {
            for s in iter_slots(h) {
                if let Some(b) = find_in_slot(s, req) {
                    return Some((s, b));
                }
            }
            None
        }
        FitPolicy::BestFit => {
            let mut best: Option<(VAddr, *mut BlockHeader, usize)> = None;
            for s in iter_slots(h) {
                for b in fl_iter(s as *const SlotHeader) {
                    let sz = (*(b as *const BlockHeader)).size as usize;
                    if sz >= req && best.is_none_or(|(_, _, bs)| sz < bs) {
                        best = Some((s, b as *mut BlockHeader, sz));
                    }
                }
            }
            best.map(|(s, b, _)| (s, b))
        }
        FitPolicy::NextFit => {
            let start = if (*h).hint_slot != 0 {
                (*h).hint_slot
            } else {
                (*h).head
            };
            if start == 0 {
                return None;
            }
            // Walk from the hint to the tail, then from the head to the hint.
            let mut cur = start;
            while cur != 0 {
                if let Some(b) = find_in_slot(cur, req) {
                    (*h).hint_slot = cur;
                    return Some((cur, b));
                }
                cur = (*(cur as *const SlotHeader)).next;
            }
            let mut cur = (*h).head;
            while cur != 0 && cur != start {
                if let Some(b) = find_in_slot(cur, req) {
                    (*h).hint_slot = cur;
                    return Some((cur, b));
                }
                cur = (*(cur as *const SlotHeader)).next;
            }
            None
        }
    }
}

/// Carve a busy block of total size `req` out of free block `blk` (splitting
/// off the remainder when big enough) and account it to `slot`.
unsafe fn carve(slot: VAddr, blk: *mut BlockHeader, req: usize, slot_size: usize) -> VAddr {
    let slot_hdr = slot as *mut SlotHeader;
    fl_remove(slot_hdr, blk);
    let blk_addr = blk as VAddr;
    let blk_size = (*blk).size as usize;
    let end = slot_end(slot, slot_size);
    if blk_size - req >= BLOCK_HDR_SIZE + MIN_PAYLOAD {
        // Split: busy head, free remainder (fl_push sets the free flag).
        let rem_addr = blk_addr + req;
        write_block_header(rem_addr, blk_size - req, slot, blk_addr, false);
        fl_push(slot_hdr, rem_addr as *mut BlockHeader);
        (*blk).size = req as u64;
        let after = rem_addr + (blk_size - req);
        if after < end {
            (*(after as *mut BlockHeader)).prev_phys = rem_addr;
        }
    }
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
    let req = block_size_for(size);
    if req > (1 << 40) {
        return Err(AllocError::TooLarge(size));
    }
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
    init_heap_slot(base, first_slot as u64, n, slot_size);
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
        detach_slot(h, slot_addr);
        (*(slot_addr as *mut SlotHeader)).magic = DEAD_MAGIC;
        provider.release_slots(slot_addr, n_slots)?;
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
        detach_slot(h, base);
        provider.release_slots(base, n)?;
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

    fn fresh_heap(policy: FitPolicy) -> Box<IsoHeapState> {
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe { heap_init(h.as_mut() as *mut _, policy, true) };
        h
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = provider();
        let mut h = fresh_heap(FitPolicy::FirstFit);
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
        let mut h = fresh_heap(FitPolicy::FirstFit);
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
        let mut h = fresh_heap(FitPolicy::FirstFit);
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
        let mut h = fresh_heap(FitPolicy::FirstFit);
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
        let mut h = fresh_heap(FitPolicy::FirstFit);
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
        let mut h = fresh_heap(FitPolicy::FirstFit);
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
        let mut h = fresh_heap(FitPolicy::FirstFit);
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
    fn best_fit_picks_smallest_hole() {
        let mut p = provider();
        let mut h = fresh_heap(FitPolicy::BestFit);
        unsafe {
            // Create two holes: 2000 bytes and 500 bytes.
            let big = isomalloc(h.as_mut(), &mut p, 2000).unwrap();
            let _k1 = isomalloc(h.as_mut(), &mut p, 64).unwrap();
            let small = isomalloc(h.as_mut(), &mut p, 500).unwrap();
            let _k2 = isomalloc(h.as_mut(), &mut p, 64).unwrap();
            isofree(h.as_mut(), &mut p, big).unwrap();
            isofree(h.as_mut(), &mut p, small).unwrap();
            // A 400-byte request must land in the 500-byte hole.
            let c = isomalloc(h.as_mut(), &mut p, 400).unwrap();
            assert_eq!(c, small, "best-fit should choose the tighter hole");
        }
    }

    #[test]
    fn next_fit_starts_from_hint_slot() {
        let mut p = provider();
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe { heap_init(h.as_mut(), FitPolicy::NextFit, false) };
        unsafe {
            // a and b fill most of slot 1; c opens slot 2; e allocates in
            // slot 2 via find_fit and therefore sets the hint to slot 2.
            let a = isomalloc(h.as_mut(), &mut p, 30_000).unwrap();
            let b = isomalloc(h.as_mut(), &mut p, 30_000).unwrap();
            let c = isomalloc(h.as_mut(), &mut p, 30_000).unwrap();
            let e = isomalloc(h.as_mut(), &mut p, 10_000).unwrap();
            assert_eq!(h.slots_acquired, 2);
            assert_ne!(owning_slot_of(a).unwrap(), owning_slot_of(c).unwrap());
            assert_eq!(owning_slot_of(e).unwrap(), owning_slot_of(c).unwrap());
            assert_eq!(h.hint_slot, owning_slot_of(c).unwrap());
            // Open a hole in slot 1, then allocate: next-fit must place the
            // block in slot 2 (the hint), not in slot 1's hole.
            isofree(h.as_mut(), &mut p, a).unwrap();
            let d = isomalloc(h.as_mut(), &mut p, 20_000).unwrap();
            assert_eq!(owning_slot_of(d).unwrap(), owning_slot_of(c).unwrap());
            assert_ne!(d, a, "next-fit must not fall back to the head slot first");
            let _ = b;
        }
    }

    #[test]
    fn next_fit_wraps_to_head() {
        let mut p = provider();
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe { heap_init(h.as_mut(), FitPolicy::NextFit, false) };
        unsafe {
            let a = isomalloc(h.as_mut(), &mut p, 30_000).unwrap();
            let _b = isomalloc(h.as_mut(), &mut p, 30_000).unwrap();
            let c = isomalloc(h.as_mut(), &mut p, 30_000).unwrap();
            let _e = isomalloc(h.as_mut(), &mut p, 30_000).unwrap(); // fills slot 2, hint=slot2
            isofree(h.as_mut(), &mut p, a).unwrap();
            // Slot 2 is full; the search must wrap to the head and reuse a's hole.
            let d = isomalloc(h.as_mut(), &mut p, 20_000).unwrap();
            assert_eq!(
                d, a,
                "wrap-around must find the hole before acquiring a slot"
            );
            assert_eq!(h.slots_acquired, 2);
            let _ = c;
        }
    }

    #[test]
    fn zero_sized_alloc_works() {
        let mut p = provider();
        let mut h = fresh_heap(FitPolicy::FirstFit);
        unsafe {
            let z = isomalloc(h.as_mut(), &mut p, 0).unwrap();
            assert!(!z.is_null());
            isofree(h.as_mut(), &mut p, z).unwrap();
        }
    }

    #[test]
    fn release_all_empties_heap() {
        let mut p = provider();
        let mut h = fresh_heap(FitPolicy::FirstFit);
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

    #[test]
    fn exhaustion_reports_negotiation() {
        // 2-node round-robin: no contiguous pair exists locally.
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut p = NodeSlotManager::new(0, 2, area, Distribution::RoundRobin, 0);
        let mut h = fresh_heap(FitPolicy::FirstFit);
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
