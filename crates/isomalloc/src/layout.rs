//! On-memory layout of slots and blocks.
//!
//! ```text
//!  slot base ─►┌──────────────────────┐
//!              │ SlotHeader (64 B)    │  chain links (prev/next slot),
//!              │                      │  free-list head, accounting
//!              ├──────────────────────┤ ◄─ block area start
//!              │ BlockHeader (64 B)   │
//!              │ payload …            │
//!              ├──────────────────────┤
//!              │ BlockHeader (64 B)   │
//!              │ payload …            │
//!              ├──────────────────────┤
//!              │        …             │
//!  slot end ──►└──────────────────────┘  = base + n_slots × slot_size
//! ```
//!
//! Every pointer stored in these structures is an **absolute virtual
//! address** inside the iso-address area.  This is deliberate and is the
//! core of the paper's design: after a migration the memory is mapped at the
//! same addresses, so the metadata graph (slot chain, free lists, physical
//! back-links) is valid verbatim — an "iso-address copy is enough" (§4.2).
//!
//! Block headers are one cache line (64 B); payloads are therefore always
//! 16-byte aligned.  Headers carry magic numbers and an address-derived
//! canary so corruption and invalid frees are detected early.

use isoaddr::VAddr;

/// Slot header magic ("ISOSLOT!").
pub const SLOT_MAGIC: u32 = 0x15_05_10_7A;
/// Block header magic.
pub const BLOCK_MAGIC: u32 = 0xB10C_4EAD;
/// Size of the slot header, bytes.
pub const SLOT_HDR_SIZE: usize = 64;
/// Size of a block header, bytes (one cache line; keeps payloads 16-aligned).
pub const BLOCK_HDR_SIZE: usize = 64;
/// Smallest payload carved for a block.
pub const MIN_PAYLOAD: usize = 16;
/// Payload alignment guarantee.
pub const PAYLOAD_ALIGN: usize = 16;
/// Seed mixed into per-block canaries.
pub const CANARY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// What a slot is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SlotKind {
    /// A heap slot managed by the block layer.
    Heap = 1,
    /// A stack slot: thread descriptor + execution stack (managed by
    /// `marcel`; the block layer never touches its interior).
    Stack = 2,
}

impl SlotKind {
    /// Decode from the raw header field.
    pub fn from_u32(v: u32) -> Option<SlotKind> {
        match v {
            1 => Some(SlotKind::Heap),
            2 => Some(SlotKind::Stack),
            _ => None,
        }
    }
}

/// Header at the base of every slot (heap *and* stack slots share the first
/// fields so the migration engine can walk a thread's slot chain uniformly).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct SlotHeader {
    /// Must equal [`SLOT_MAGIC`].
    pub magic: u32,
    /// [`SlotKind`] as u32.
    pub kind: u32,
    /// Area slot index of the first raw slot of this (possibly merged) slot.
    pub first_slot: u32,
    /// Number of contiguous raw slots merged into this slot ("large slot").
    pub n_slots: u32,
    /// High-water mark, in bytes from the slot base: the end of the
    /// furthest block or remainder header ever written here, raised by
    /// every carve and by an arrival that wrote further (see
    /// `pack::unpack_into_mapped`).  Nothing at or past it has been written
    /// since the slot was committed fresh, so it is the extent a release or
    /// a surrender names to the slot layer, which zero-fills only that much
    /// for the next owner.  Unused (0) for stack slots, which report the
    /// whole slot.
    pub high_water: u64,
    /// VAddr of the previous slot's header in the owning thread's chain
    /// (0 = none).  Iso-address ⇒ migration-safe.
    pub prev: VAddr,
    /// VAddr of the next slot's header in the chain (0 = none).
    pub next: VAddr,
    /// VAddr of the first free block header in this slot (0 = none).
    /// Unused (0) for stack slots.
    pub free_head: VAddr,
    /// Bytes consumed by busy blocks, including their headers.
    pub used_bytes: u64,
    /// Number of blocks on this slot's free list, maintained O(1) by
    /// `fl_push`/`fl_remove`.  Always 0 for stack slots.  Kept in the
    /// header (not derived) so the migration pack hint can size a gather
    /// buffer without walking the free list — and, like every other
    /// header field, it travels verbatim in the packed header extent, so
    /// the count is already correct on the destination node.
    pub free_blocks: u64,
}

const _: () = assert!(std::mem::size_of::<SlotHeader>() == SLOT_HDR_SIZE);
const _: () = assert!(std::mem::align_of::<SlotHeader>() <= 16);

/// Header preceding every block payload.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct BlockHeader {
    /// Must equal [`BLOCK_MAGIC`].
    pub magic: u32,
    /// Bit 0: block is free.
    pub flags: u32,
    /// Total block size in bytes, header included.
    pub size: u64,
    /// VAddr of the slot header of the slot containing this block.
    pub slot: VAddr,
    /// VAddr of the physically preceding block header (0 = first block).
    pub prev_phys: VAddr,
    /// Free-list predecessor (valid only when free; 0 = head).
    pub prev_free: VAddr,
    /// Free-list successor (valid only when free; 0 = tail).
    pub next_free: VAddr,
    /// Integrity canary derived from the block's own address; still valid
    /// after migration because the address is identical by construction.
    pub canary: u64,
    /// Padding to a full cache line.
    pub _pad: u64,
}

const _: () = assert!(std::mem::size_of::<BlockHeader>() == BLOCK_HDR_SIZE);

/// Flag bit: block is on the free list.
pub const BF_FREE: u32 = 1;

impl BlockHeader {
    /// Expected canary for a block header at `addr`.
    #[inline]
    pub fn expected_canary(addr: VAddr) -> u64 {
        (addr as u64).rotate_left(17) ^ CANARY_SEED
    }

    /// Is the free flag set?
    #[inline]
    pub fn is_free(&self) -> bool {
        self.flags & BF_FREE != 0
    }
}

/// Round `n` up to the payload alignment; `None` past `usize::MAX`.
#[inline]
pub fn align_up(n: usize) -> Option<usize> {
    Some(n.checked_add(PAYLOAD_ALIGN - 1)? & !(PAYLOAD_ALIGN - 1))
}

/// Total block size needed to satisfy a payload request of `size` bytes;
/// `None` if it does not fit a `usize`.
#[inline]
pub fn block_size_for(size: usize) -> Option<usize> {
    BLOCK_HDR_SIZE.checked_add(align_up(size.max(MIN_PAYLOAD))?)
}

/// First usable (block-area) address of a slot based at `base`.
#[inline]
pub fn block_area_start(base: VAddr) -> VAddr {
    base + SLOT_HDR_SIZE
}

/// One-past-the-end address of the (possibly merged) slot based at `base`.
///
/// # Safety
/// `base` must point at a live, mapped `SlotHeader`.
#[inline]
pub unsafe fn slot_end(base: VAddr, slot_size: usize) -> VAddr {
    let hdr = &*(base as *const SlotHeader);
    base + hdr.n_slots as usize * slot_size
}

/// Payload address of the block whose header is at `hdr_addr`.
#[inline]
pub fn payload_of(hdr_addr: VAddr) -> VAddr {
    hdr_addr + BLOCK_HDR_SIZE
}

/// Block header address for the payload pointer `payload`.
#[inline]
pub fn header_of(payload: VAddr) -> VAddr {
    payload - BLOCK_HDR_SIZE
}

/// Write a fresh block header at `addr`.
///
/// # Safety
/// `addr..addr+BLOCK_HDR_SIZE` must be mapped and exclusively owned.
pub unsafe fn write_block_header(
    addr: VAddr,
    size: usize,
    slot: VAddr,
    prev_phys: VAddr,
    free: bool,
) {
    let hdr = addr as *mut BlockHeader;
    hdr.write(BlockHeader {
        magic: BLOCK_MAGIC,
        flags: if free { BF_FREE } else { 0 },
        size: size as u64,
        slot,
        prev_phys,
        prev_free: 0,
        next_free: 0,
        canary: BlockHeader::expected_canary(addr),
        _pad: 0,
    });
}

/// Validate the header at `addr`, returning a typed reference.
///
/// # Safety
/// `addr` must be readable for `BLOCK_HDR_SIZE` bytes.
pub unsafe fn check_block<'a>(addr: VAddr) -> Result<&'a mut BlockHeader, crate::AllocError> {
    let hdr = &mut *(addr as *mut BlockHeader);
    if hdr.magic != BLOCK_MAGIC {
        return Err(crate::AllocError::Corruption {
            at: addr,
            what: format!("bad block magic {:#x}", hdr.magic),
        });
    }
    if hdr.canary != BlockHeader::expected_canary(addr) {
        return Err(crate::AllocError::Corruption {
            at: addr,
            what: "block canary mismatch (overflow into header?)".into(),
        });
    }
    Ok(hdr)
}

/// Validate the slot header at `addr`.
///
/// # Safety
/// `addr` must be readable for `SLOT_HDR_SIZE` bytes.
pub unsafe fn check_slot<'a>(addr: VAddr) -> Result<&'a mut SlotHeader, crate::AllocError> {
    let hdr = &mut *(addr as *mut SlotHeader);
    if hdr.magic != SLOT_MAGIC {
        return Err(crate::AllocError::Corruption {
            at: addr,
            what: format!("bad slot magic {:#x}", hdr.magic),
        });
    }
    Ok(hdr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_alignment() {
        assert_eq!(std::mem::size_of::<SlotHeader>(), 64);
        assert_eq!(std::mem::size_of::<BlockHeader>(), 64);
        assert_eq!(align_up(1), Some(16));
        assert_eq!(align_up(16), Some(16));
        assert_eq!(align_up(17), Some(32));
        assert_eq!(block_size_for(0), Some(BLOCK_HDR_SIZE + 16));
        assert_eq!(block_size_for(100), Some(BLOCK_HDR_SIZE + 112));
        // Sizes near the top of the address space overflow, never wrap.
        assert_eq!(align_up(usize::MAX), None);
        assert_eq!(block_size_for(usize::MAX), None);
        assert_eq!(block_size_for(usize::MAX - 30), None);
        // Payload alignment follows from header size being a multiple of 16.
        assert_eq!(BLOCK_HDR_SIZE % PAYLOAD_ALIGN, 0);
        assert_eq!(SLOT_HDR_SIZE % PAYLOAD_ALIGN, 0);
    }

    #[test]
    fn canary_depends_on_address() {
        assert_ne!(
            BlockHeader::expected_canary(0x1000),
            BlockHeader::expected_canary(0x1040)
        );
    }

    #[test]
    fn payload_header_roundtrip() {
        let hdr = 0x7000_0000usize;
        assert_eq!(header_of(payload_of(hdr)), hdr);
    }

    #[test]
    fn slot_kind_decode() {
        assert_eq!(SlotKind::from_u32(1), Some(SlotKind::Heap));
        assert_eq!(SlotKind::from_u32(2), Some(SlotKind::Stack));
        assert_eq!(SlotKind::from_u32(3), None);
    }
}
