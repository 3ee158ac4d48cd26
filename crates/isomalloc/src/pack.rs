//! Packing slot contents into migration buffers (paper §2 step 1 and the
//! §6 optimization: "When migrating a slot attached to a thread, it is
//! sufficient to send its internally allocated blocks").
//!
//! A packed slot record is self-describing:
//!
//! ```text
//! u64  base        virtual address of the slot (same on the destination!)
//! u32  n_slots     raw slots merged into this slot
//! u32  kind        SlotKind
//! u32  n_extents
//! u32  total_len   sum of extent lengths
//! (u32 off, u32 len) × n_extents
//! bytes            concatenated extent contents
//! ```
//!
//! For a heap slot the extents are: the slot header, every block header, and
//! the payloads of *busy* blocks only — free-block payloads are never
//! transmitted.  Because every pointer in those bytes is an iso-address, the
//! receiver just copies each extent to `base + off` and the slot is live
//! again: free lists, chain links and user pointers intact, with no fix-up
//! pass of any kind.

use crate::error::{AllocError, Result};
use crate::layout::{
    block_area_start, check_block, check_slot, slot_end, SlotHeader, SlotKind, BLOCK_HDR_SIZE,
    SLOT_HDR_SIZE,
};
use isoaddr::VAddr;

/// Decoded fixed-size prefix of a packed slot record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedSlotInfo {
    /// Slot base virtual address (identical on source and destination).
    pub base: VAddr,
    /// Number of raw slots this (merged) slot spans.
    pub n_slots: usize,
    /// Raw [`SlotKind`] value.
    pub kind: u32,
    /// Number of extents in the record.
    pub n_extents: usize,
    /// Total payload byte count.
    pub total_len: usize,
    /// Whole record length in the buffer, prefix included.
    pub record_len: usize,
}

const PREFIX_LEN: usize = 8 + 4 + 4 + 4 + 4;

/// Exact buffer size of a record serialized from `extents`
/// (prefix + extent table + payload bytes).
pub fn record_size(extents: &[(u32, u32)]) -> usize {
    let total: usize = extents.iter().map(|&(_, l)| l as usize).sum();
    PREFIX_LEN + extents.len() * 8 + total
}

/// Exact buffer size of a [`pack_full`] record.
pub fn full_record_size(n_slots: usize, slot_size: usize) -> usize {
    PREFIX_LEN + 8 + n_slots * slot_size
}

/// Upper bound on the [`pack_heap_slot`] record size for the slot at
/// `slot_addr`, computed **O(1) from the slot header alone**: the header's
/// `free_blocks` count (maintained by every free-list push/pop) replaces
/// the old free-list walk, and `used_bytes` accounts for the busy side.
/// This is the per-slot occupancy hint the migration engine uses to size
/// its gather buffer in one reservation, so packing never regrows
/// mid-pack — it runs once per slot per migration on the hot path.
///
/// # Safety
/// `slot_addr` must point at a live heap slot with a well-formed free list.
pub unsafe fn heap_slot_pack_hint(slot_addr: VAddr) -> Result<usize> {
    Ok(pack_hint(check_slot(slot_addr)?))
}

fn pack_hint(slot: &SlotHeader) -> usize {
    let n_free = slot.free_blocks as usize;
    // Payload bytes are exact: the slot header, every busy block
    // (used_bytes includes their headers), and one header per free block.
    // The extent table is bounded by one extent per free block plus one per
    // busy run (≤ free blocks + 1), plus the leading header extent.
    PREFIX_LEN
        + (2 * n_free + 2) * 8
        + SLOT_HDR_SIZE
        + slot.used_bytes as usize
        + n_free * BLOCK_HDR_SIZE
}

/// Upper bound on the total packed size of every slot in the heap chain at
/// `h` (the thread's heap-side occupancy hint; stack extents are the
/// caller's side of the sum).
///
/// # Safety
/// The chain and each slot's free list must be well formed.
pub unsafe fn heap_pack_hint(h: *const crate::heap::IsoHeapState) -> Result<usize> {
    let mut total = 0;
    for s in crate::heap::iter_slots(h) {
        total += heap_slot_pack_hint(s)?;
    }
    Ok(total)
}

/// Writes a merged extent table straight into the record being packed: the
/// extent still growing is held back until one that does not touch it
/// arrives, so the table is never built anywhere else first.
struct ExtentTable<'a> {
    out: &'a mut Vec<u8>,
    growing: (u32, u32),
    written: u32,
}

impl<'a> ExtentTable<'a> {
    /// A table at the end of `out` whose first extent is `[off, off+len)`.
    fn begin(out: &'a mut Vec<u8>, off: u32, len: u32) -> Self {
        ExtentTable {
            out,
            growing: (off, len),
            written: 0,
        }
    }

    fn write(&mut self) {
        self.out.extend_from_slice(&self.growing.0.to_le_bytes());
        self.out.extend_from_slice(&self.growing.1.to_le_bytes());
        self.written += 1;
    }

    /// Add `[off, off+len)`, merging with the previous extent when adjacent
    /// or overlapping.  Offsets must be pushed in non-decreasing order.
    fn push(&mut self, off: u32, len: u32) {
        if len == 0 {
            return;
        }
        let (last_off, last_len) = self.growing;
        debug_assert!(off >= last_off, "extents must be pushed in order");
        if off <= last_off + last_len {
            self.growing.1 = (off + len).max(last_off + last_len) - last_off;
        } else {
            self.write();
            self.growing = (off, len);
        }
    }

    /// Write the last extent; the number of extents in the table.
    fn finish(mut self) -> u32 {
        self.write();
        self.written
    }
}

/// Append a record's fixed-size prefix: the one writer of what
/// [`peek_header`] reads.
fn put_prefix(
    out: &mut Vec<u8>,
    base: VAddr,
    n_slots: usize,
    kind: u32,
    n_extents: usize,
    total: usize,
) {
    out.extend_from_slice(&(base as u64).to_le_bytes());
    out.extend_from_slice(&(n_slots as u32).to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(n_extents as u32).to_le_bytes());
    out.extend_from_slice(&(total as u32).to_le_bytes());
}

/// Serialize a record from an explicit extent list, reading the bytes at
/// `base + off`.
///
/// # Safety
/// Every extent must lie inside mapped memory at `base`.
pub unsafe fn pack_raw_extents(
    base: VAddr,
    kind: u32,
    n_slots: usize,
    extents: &[(u32, u32)],
    out: &mut Vec<u8>,
) {
    let total: usize = extents.iter().map(|&(_, l)| l as usize).sum();
    out.reserve(PREFIX_LEN + extents.len() * 8 + total);
    put_prefix(out, base, n_slots, kind, extents.len(), total);
    for &(off, len) in extents {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    for &(off, len) in extents {
        let src = std::slice::from_raw_parts((base + off as usize) as *const u8, len as usize);
        out.extend_from_slice(src);
    }
}

/// Pack a heap slot: header + block headers + busy payloads only.  One walk
/// over the blocks writes the merged extent table into `out`, a second over
/// that table appends the bytes; nothing is allocated but `out`'s own room,
/// which [`heap_slot_pack_hint`] reserves at once.  On `Err`, `out` is as it
/// was.
///
/// # Safety
/// `slot_addr` must point at a live, verified heap slot.
pub unsafe fn pack_heap_slot(slot_addr: VAddr, slot_size: usize, out: &mut Vec<u8>) -> Result<()> {
    let slot = check_slot(slot_addr)?;
    if slot.kind != SlotKind::Heap as u32 {
        return Err(AllocError::Corruption {
            at: slot_addr,
            what: "pack_heap_slot on a non-heap slot".into(),
        });
    }
    let record = out.len();
    out.reserve(pack_hint(slot));
    // `n_extents` and `total_len` are known, and filled in, below.
    let n_slots = slot.n_slots as usize;
    put_prefix(out, slot_addr, n_slots, SlotKind::Heap as u32, 0, 0);
    let end = slot_end(slot_addr, slot_size);
    let mut table = ExtentTable::begin(out, 0, SLOT_HDR_SIZE as u32);
    let mut cur = block_area_start(slot_addr);
    while cur < end {
        let blk = match check_block(cur) {
            Ok(blk) => blk,
            Err(e) => {
                out.truncate(record);
                return Err(e);
            }
        };
        let off = (cur - slot_addr) as u32;
        if blk.is_free() {
            table.push(off, BLOCK_HDR_SIZE as u32);
        } else {
            table.push(off, blk.size as u32);
        }
        cur += blk.size as usize;
    }
    let n_extents = table.finish();
    let mut total = 0u32;
    for i in 0..n_extents as usize {
        let at = record + PREFIX_LEN + i * 8;
        let (off, len) = (rd_u32(out, at)?, rd_u32(out, at + 4)?);
        let src = std::slice::from_raw_parts((slot_addr + off as usize) as *const u8, len as usize);
        out.extend_from_slice(src);
        total += len;
    }
    out[record + 16..record + 20].copy_from_slice(&n_extents.to_le_bytes());
    out[record + 20..record + 24].copy_from_slice(&total.to_le_bytes());
    Ok(())
}

/// Pack a slot as one full-size extent (ablation A6 baseline: ship the whole
/// slot regardless of occupancy).
///
/// # Safety
/// The whole slot must be mapped.
pub unsafe fn pack_full(
    base: VAddr,
    kind: u32,
    n_slots: usize,
    slot_size: usize,
    out: &mut Vec<u8>,
) {
    let total = n_slots * slot_size;
    pack_raw_extents(base, kind, n_slots, &[(0, total as u32)], out);
}

fn rd_u32(buf: &[u8], off: usize) -> Result<u32> {
    buf.get(off..off + 4)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| AllocError::BadPackFormat("truncated u32".into()))
}

fn rd_u64(buf: &[u8], off: usize) -> Result<u64> {
    buf.get(off..off + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| AllocError::BadPackFormat("truncated u64".into()))
}

/// Decode the prefix of the record starting at `buf[0]` without copying any
/// memory.  The receiver uses this to map (adopt) the slot range *before*
/// unpacking.
pub fn peek_header(buf: &[u8]) -> Result<PackedSlotInfo> {
    let base = rd_u64(buf, 0)? as VAddr;
    let n_slots = rd_u32(buf, 8)? as usize;
    let kind = rd_u32(buf, 12)?;
    let n_extents = rd_u32(buf, 16)? as usize;
    let total_len = rd_u32(buf, 20)? as usize;
    let record_len = PREFIX_LEN + n_extents * 8 + total_len;
    if buf.len() < record_len {
        return Err(AllocError::BadPackFormat(format!(
            "record claims {record_len} bytes, buffer has {}",
            buf.len()
        )));
    }
    if n_slots == 0 {
        return Err(AllocError::BadPackFormat("record with zero slots".into()));
    }
    Ok(PackedSlotInfo {
        base,
        n_slots,
        kind,
        n_extents,
        total_len,
        record_len,
    })
}

/// Copy a packed record's extents into (already mapped) memory at their
/// original addresses.  Returns the record info; the caller advances the
/// buffer by `record_len`.  A heap slot's high-water mark is raised to the
/// end of the furthest extent written, so the slot's next release names
/// every byte an arrival wrote too — a [`pack_full`] record's whole slot,
/// where a [`pack_heap_slot`] record reaches no further than the mark it
/// carries.
///
/// # Safety
/// The memory `[info.base, info.base + n_slots*slot_size)` must be mapped
/// and owned by the caller (freshly adopted from a migration).
pub unsafe fn unpack_into_mapped(buf: &[u8], slot_size: usize) -> Result<PackedSlotInfo> {
    let info = peek_header(buf)?;
    let slot_bytes = info.n_slots * slot_size;
    let mut data_off = PREFIX_LEN + info.n_extents * 8;
    let mut furthest = 0;
    for i in 0..info.n_extents {
        let e_off = rd_u32(buf, PREFIX_LEN + i * 8)? as usize;
        let e_len = rd_u32(buf, PREFIX_LEN + i * 8 + 4)? as usize;
        if e_off + e_len > slot_bytes {
            return Err(AllocError::BadPackFormat(format!(
                "extent [{e_off}, {}) escapes the {} byte slot",
                e_off + e_len,
                slot_bytes
            )));
        }
        let src = buf
            .get(data_off..data_off + e_len)
            .ok_or_else(|| AllocError::BadPackFormat("extent data truncated".into()))?;
        std::ptr::copy_nonoverlapping(src.as_ptr(), (info.base + e_off) as *mut u8, e_len);
        data_off += e_len;
        furthest = furthest.max(e_off + e_len);
    }
    if info.kind == SlotKind::Heap as u32 {
        // The slot is mapped and ours, so its header is too (a corrupt
        // record only costs its own slot's mark).
        let slot = &mut *(info.base as *mut SlotHeader);
        slot.high_water = slot.high_water.max(furthest as u64);
    }
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{heap_init, heap_slots, isofree, isomalloc, FitPolicy, IsoHeapState};
    use crate::verify::verify_heap;
    use isoaddr::{AreaConfig, Distribution, IsoArea, NodeSlotManager, SlotProvider, SlotRange};
    use std::sync::Arc;

    #[test]
    fn extent_table_merges() {
        let mut out = vec![0xEE];
        let mut t = ExtentTable::begin(&mut out, 0, 64);
        t.push(64, 64); // adjacent → merged
        t.push(256, 32);
        t.push(288, 16); // adjacent → merged
        t.push(512, 0); // empty → ignored
        t.push(1024, 8);
        assert_eq!(t.finish(), 3);
        let words: Vec<u32> = out[1..]
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words, [0, 128, 256, 48, 1024, 8]);
    }

    #[test]
    fn peek_rejects_truncation() {
        assert!(peek_header(&[0u8; 10]).is_err());
        let mut rec = Vec::new();
        unsafe {
            let data = [7u8; 64];
            pack_raw_extents(data.as_ptr() as usize, 1, 1, &[(0, 64)], &mut rec);
        }
        assert!(peek_header(&rec).is_ok());
        rec.pop();
        assert!(peek_header(&rec).is_err());
    }

    /// The central property: pack on "node 0", unmap, remap, unpack — the
    /// heap verifies and all busy payloads are byte-identical at identical
    /// addresses, while free-block payload bytes were never transmitted.
    #[test]
    fn heap_slot_roundtrip_preserves_busy_blocks() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::RoundRobin, 0);
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::RoundRobin, 0);
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe {
            heap_init(h.as_mut(), FitPolicy::FirstFit, false);
            // Build a slot with a busy/free checkerboard.
            let mut ptrs = Vec::new();
            for i in 0..40 {
                let ptr = isomalloc(h.as_mut(), &mut m0, 200 + i).unwrap();
                std::ptr::write_bytes(ptr, i as u8 ^ 0xA5, 200 + i);
                ptrs.push(ptr);
            }
            for i in (0..40).step_by(2) {
                isofree(h.as_mut(), &mut m0, ptrs[i]).unwrap();
            }
            verify_heap(h.as_ref(), m0.slot_size()).unwrap();
            let slots = heap_slots(h.as_ref());
            assert_eq!(slots.len(), 1);
            let (base, n) = slots[0];
            // Pack.
            let mut buf = Vec::new();
            pack_heap_slot(base, m0.slot_size(), &mut buf).unwrap();
            // The packed record must be much smaller than the slot (free
            // payloads omitted) but bigger than the busy payload sum.
            assert!(buf.len() < m0.slot_size() / 2, "packed {} bytes", buf.len());
            // Migrate: unmap on node 0, remap on node 1 at the same address.
            let first = (base - area.base()) / m0.slot_size();
            m0.surrender(SlotRange::new(first, n)).unwrap();
            let addr1 = m1.adopt(SlotRange::new(first, n)).unwrap();
            assert_eq!(addr1, base);
            let info = unpack_into_mapped(&buf, m1.slot_size()).unwrap();
            assert_eq!(info.base, base);
            assert_eq!(info.n_slots, n);
            // Full structural integrity on the destination…
            verify_heap(h.as_ref(), m1.slot_size()).unwrap();
            // …and the surviving payloads are intact.
            for i in (1..40).step_by(2) {
                let ptr = ptrs[i];
                for off in [0usize, 100, 199 + i] {
                    assert_eq!(*ptr.add(off), i as u8 ^ 0xA5, "payload {i} clobbered");
                }
            }
            // The heap is fully operational on node 1: alloc into the holes.
            let q = isomalloc(h.as_mut(), &mut m1, 150).unwrap();
            std::ptr::write_bytes(q, 0x3C, 150);
            verify_heap(h.as_ref(), m1.slot_size()).unwrap();
        }
    }

    /// The occupancy hint must upper-bound the real record size (no
    /// regrowth mid-pack) without grossly over-reserving.
    #[test]
    fn pack_hint_bounds_record_size() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 1, Arc::clone(&area), Distribution::RoundRobin, 0);
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe {
            heap_init(h.as_mut(), FitPolicy::FirstFit, false);
            let mut ptrs = Vec::new();
            for i in 0..40 {
                ptrs.push(isomalloc(h.as_mut(), &mut m0, 200 + i).unwrap());
            }
            for i in (0..40).step_by(2) {
                isofree(h.as_mut(), &mut m0, ptrs[i]).unwrap();
            }
            let (base, _) = heap_slots(h.as_ref())[0];
            let hint = heap_slot_pack_hint(base).unwrap();
            assert_eq!(hint, heap_pack_hint(h.as_ref()).unwrap());
            let mut buf = Vec::new();
            pack_heap_slot(base, m0.slot_size(), &mut buf).unwrap();
            assert!(hint >= buf.len(), "hint {hint} < packed {}", buf.len());
            assert!(
                hint <= buf.len() + buf.len() / 2 + 512,
                "hint {hint} grossly over-reserves for packed {}",
                buf.len()
            );
        }
    }

    #[test]
    fn pack_full_ships_everything() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 1, Arc::clone(&area), Distribution::RoundRobin, 0);
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe {
            heap_init(h.as_mut(), FitPolicy::FirstFit, false);
            let ptr = isomalloc(h.as_mut(), &mut m0, 64).unwrap();
            let (base, n) = heap_slots(h.as_ref())[0];
            let mut full = Vec::new();
            pack_full(base, SlotKind::Heap as u32, n, m0.slot_size(), &mut full);
            let mut sparse = Vec::new();
            pack_heap_slot(base, m0.slot_size(), &mut sparse).unwrap();
            assert!(full.len() > m0.slot_size());
            assert!(
                sparse.len() < full.len() / 10,
                "sparse pack should be ≫ smaller"
            );
            let _ = ptr;
        }
    }

    /// An arrival names what it wrote: unpacking a heap slot's extents
    /// leaves its high-water mark as it was, a whole-slot record raises it
    /// to the whole slot, so the slot's next release reports every byte the
    /// record could have put there.
    #[test]
    fn an_arrival_raises_the_mark_to_what_it_wrote() {
        use crate::heap::high_water;
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 1, Arc::clone(&area), Distribution::RoundRobin, 0);
        let mut h: Box<IsoHeapState> = Box::new(unsafe { std::mem::zeroed() });
        unsafe {
            heap_init(h.as_mut(), FitPolicy::FirstFit, false);
            isomalloc(h.as_mut(), &mut m0, 300).unwrap();
            let (base, n) = heap_slots(h.as_ref())[0];
            let mark = high_water(base);
            let (mut sparse, mut full) = (Vec::new(), Vec::new());
            pack_heap_slot(base, m0.slot_size(), &mut sparse).unwrap();
            pack_full(base, SlotKind::Heap as u32, n, m0.slot_size(), &mut full);
            unpack_into_mapped(&sparse, m0.slot_size()).unwrap();
            assert_eq!(high_water(base), mark);
            unpack_into_mapped(&full, m0.slot_size()).unwrap();
            assert_eq!(high_water(base), n * m0.slot_size());
            verify_heap(h.as_ref(), m0.slot_size()).unwrap();
        }
    }

    #[test]
    fn unpack_rejects_escaping_extent() {
        let mut rec = Vec::new();
        let data = [1u8; 128];
        unsafe {
            // Claims n_slots=1, but extent reaches past 1 slot of 64 bytes.
            pack_raw_extents(data.as_ptr() as usize, 1, 1, &[(0, 128)], &mut rec);
            assert!(unpack_into_mapped(&rec, 64).is_err());
        }
    }
}
