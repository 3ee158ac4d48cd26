//! Thread descriptors and stack slots.
//!
//! "A PM2 thread is an execution flow managing a set of resources, i.e. its
//! state descriptor and its private execution stack" (§2) — and, with
//! isomalloc, "a series of dynamically allocated sub-areas within the
//! iso-address area" (§3.2).  We make the first two literal: the descriptor
//! lives at a fixed offset inside the thread's **stack slot**, the stack
//! grows down from the slot's top, and the spawn closure is moved into the
//! slot as well.  Packing the thread's slots therefore captures the entire
//! thread; no state lives outside the iso-address area.
//!
//! ```text
//! slot base ─►┌─────────────────────────────┐
//!             │ SlotHeader (kind = Stack)   │ 64 B — chain links
//!             ├─────────────────────────────┤
//!             │ ThreadDescriptor            │ saved context, heap state,
//!             │                             │ affinity table, …
//!             ├─────────────────────────────┤
//!             │ spawn closure (moved here)  │ variable, 16-aligned
//!             ├─────────────────────────────┤
//!             │ canary (8 B)                │ stack-overflow tripwire
//!             ├─────────────────────────────┤ ◄─ stack floor
//!             │            ▲                │
//!             │   stack (grows down)        │
//! slot top ──►└─────────────────────────────┘
//! ```

use crate::ctx::Context;
use isoaddr::VAddr;
use isomalloc::heap::IsoHeapState;
use isomalloc::layout::{SlotHeader, SlotKind, SLOT_HDR_SIZE, SLOT_MAGIC};

/// Descriptor magic.
pub const DESC_MAGIC: u64 = 0x4D41_5243_454C_0001; // "MARCEL", v1

/// Stack canary value.
pub const STACK_CANARY: u64 = 0xCAFE_F00D_DEAD_C0DE;

/// Peer-node entries tracked in the per-thread communication-affinity table.
///
/// Each thread counts messages it exchanges per remote node in a bounded
/// top-k table embedded in its descriptor (so the history migrates with the
/// thread).  Four entries cover every realistic RPC fan-out we model; a
/// thread chatting with more peers keeps its hottest four via the
/// space-saving replacement rule in [`ThreadDescriptor::record_affinity`].
pub const AFF_TOP_K: usize = 4;

/// Sentinel for an empty affinity-table slot.
pub const AFF_EMPTY: u32 = u32::MAX;

/// Thread life-cycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ThreadState {
    /// Runnable, waiting in a run queue.
    Ready = 1,
    /// Currently executing on its node's scheduler.
    Running = 2,
    /// Suspended, not in any run queue (waiting for an event).
    Blocked = 3,
    /// Finished; resources pending release.
    Exited = 4,
    /// Frozen and packed; exists only as a migration buffer in flight.
    Migrating = 5,
}

impl ThreadState {
    /// Decode from the raw descriptor field.
    pub fn from_u32(v: u32) -> Option<ThreadState> {
        match v {
            1 => Some(ThreadState::Ready),
            2 => Some(ThreadState::Running),
            3 => Some(ThreadState::Blocked),
            4 => Some(ThreadState::Exited),
            5 => Some(ThreadState::Migrating),
            _ => None,
        }
    }
}

/// Why a thread switched back to its scheduler.
pub mod switch_reason {
    /// Cooperative yield; requeue.
    pub const YIELD: u32 = 1;
    /// Thread body finished (or panicked); release resources.
    pub const EXIT: u32 = 2;
    /// `migrate_self(dest)`: pack and ship to `migrate_dest`.
    pub const MIGRATE_SELF: u32 = 3;
    /// Blocked; do not requeue until woken.
    pub const BLOCK: u32 = 4;
}

/// Descriptor flags.
pub mod flags {
    /// The thread may be migrated by third parties (preemptive migration).
    pub const MIGRATABLE: u32 = 1;
    /// The thread runs protocol work (migration, negotiation, LRPC
    /// service bodies, balancer daemons): it enqueues into the scheduler's
    /// control lane and is dispatched ahead of ordinary compute quanta, so
    /// a flood of application threads cannot starve the runtime's own
    /// request/reply exchanges.  The flag travels with the descriptor, so
    /// priority survives migration.
    pub const CONTROL: u32 = 2;
    /// Nobody will ever join this thread (its tid was handed to no one),
    /// so the layer above need keep no completion record once it exits
    /// cleanly.  Like [`CONTROL`] it travels with the descriptor: the
    /// thread is just as unjoinable wherever it ends up dying.
    pub const DETACHED: u32 = 4;
}

/// What [`ThreadDescriptor::stack_extents`] returns: one or two
/// `(offset, length)` extents held inline, read as a slice — it is computed
/// on every hop, so it does not allocate.
#[derive(Debug, Clone, Copy)]
pub struct StackExtents([(u32, u32); 2], usize);

impl std::ops::Deref for StackExtents {
    type Target = [(u32, u32)];
    fn deref(&self) -> &[(u32, u32)] {
        &self.0[..self.1]
    }
}

/// The thread descriptor.  Lives inside the stack slot; every pointer field
/// is an iso-address, so the descriptor survives migration verbatim.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct ThreadDescriptor {
    /// Must equal [`DESC_MAGIC`].
    pub magic: u64,
    /// Globally unique id: `home_node << 40 | counter`.
    pub tid: u64,
    /// [`ThreadState`] as u32.
    pub state: u32,
    /// [`switch_reason`] of the last switch-out.
    pub switch_reason: u32,
    /// Saved register context.
    pub ctx: Context,
    /// Base address of the stack slot (== address of its `SlotHeader`).
    pub stack_base: VAddr,
    /// Raw slots merged into the stack slot.
    pub stack_slots: usize,
    /// One past the highest stack address.
    pub stack_top: VAddr,
    /// Address of the stack canary word.
    pub canary_addr: VAddr,
    /// Monomorphized closure invoker: `unsafe extern "C" fn(*mut u8)`.
    pub entry_invoke: usize,
    /// Address of the moved-in closure value (inside this slot).
    pub entry_data: VAddr,
    /// Iso-address heap of the thread (slot chain head/tail live here).
    pub heap: IsoHeapState,
    /// Pending migration destination (−1 = none).  Set by `migrate_self` or
    /// by a third party requesting preemptive migration.
    pub migrate_dest: i64,
    /// Node that created the thread.
    pub home_node: u32,
    /// Node currently hosting the thread (updated on arrival).
    pub cur_node: u32,
    /// [`flags`] bits.
    pub flags: u32,
    /// Communication-affinity table keys: peer node ids this thread
    /// exchanges messages with ([`AFF_EMPTY`] = unused slot).
    pub aff_nodes: [u32; AFF_TOP_K],
    /// Message counts for the matching `aff_nodes` entry.  Decayed each
    /// balancer epoch so stale affinity fades.
    pub aff_msgs: [u32; AFF_TOP_K],
    /// Balancer epochs since this thread last migrated (`u32::MAX` = never
    /// migrated, so fresh threads are not cooldown-blocked).  Reset to 0 on
    /// migration arrival; saturating-incremented on each decay.
    pub aff_epoch: u32,
    /// Set to 1 if the thread body panicked.
    pub panicked: u32,
    /// Reserved.
    pub _pad: u32,
}

/// Offset of the descriptor inside the stack slot.
pub const DESC_OFFSET: usize = SLOT_HDR_SIZE;

/// Descriptor address for a stack slot based at `base`.
#[inline]
pub fn desc_addr(base: VAddr) -> VAddr {
    base + DESC_OFFSET
}

/// Stack-slot base for a descriptor address.
#[inline]
pub fn base_of_desc(desc: VAddr) -> VAddr {
    desc - DESC_OFFSET
}

impl ThreadDescriptor {
    /// Typed view of a descriptor address.
    ///
    /// # Safety
    /// `addr` must point at a live descriptor inside a mapped stack slot.
    pub unsafe fn from_addr<'a>(addr: VAddr) -> &'a mut ThreadDescriptor {
        let d = &mut *(addr as *mut ThreadDescriptor);
        debug_assert_eq!(
            d.magic, DESC_MAGIC,
            "descriptor magic mismatch at {addr:#x}"
        );
        d
    }

    /// Current state, decoded.
    pub fn thread_state(&self) -> ThreadState {
        ThreadState::from_u32(self.state).expect("corrupt thread state")
    }

    /// Has the thread run a first quantum (it has switched out once)?
    pub fn started(&self) -> bool {
        self.switch_reason != 0
    }

    /// Is the canary intact?
    ///
    /// # Safety
    /// The stack slot must be mapped.
    pub unsafe fn canary_ok(&self) -> bool {
        (self.canary_addr as *const u64).read() == STACK_CANARY
    }

    /// Live stack bytes: from 128 bytes below the saved `rsp` (red-zone
    /// margin; switches are synchronous so nothing below rsp is live, but
    /// the margin is cheap insurance) up to the stack top.
    pub fn live_stack_range(&self) -> (VAddr, VAddr) {
        let lo = (self.ctx.rsp as usize)
            .saturating_sub(128)
            .max(self.canary_addr);
        (lo, self.stack_top)
    }

    /// Extent list for packing this thread's stack slot: the metadata
    /// prefix (slot header + descriptor + closure + canary) and the live
    /// stack, merged into one extent when they touch.  Offsets are relative
    /// to the slot base.
    pub fn stack_extents(&self) -> StackExtents {
        let meta_end = (self.canary_addr + 8 - self.stack_base) as u32;
        let (live_lo, live_hi) = self.live_stack_range();
        let (lo, hi) = (
            (live_lo - self.stack_base) as u32,
            (live_hi - self.stack_base) as u32,
        );
        if hi <= lo {
            StackExtents([(0, meta_end), (0, 0)], 1)
        } else if lo <= meta_end {
            StackExtents([(0, meta_end.max(hi)), (0, 0)], 1)
        } else {
            StackExtents([(0, meta_end), (lo, hi - lo)], 2)
        }
    }

    /// Record one message exchanged with `node` in the affinity table.
    ///
    /// Bounded top-k with the *space-saving* replacement rule: an existing
    /// entry is incremented, an empty slot is claimed, and when the table is
    /// full the minimum-count entry is evicted and the newcomer inherits
    /// `min + 1` — an over-estimate, never an under-estimate, so genuinely
    /// chatty peers cannot be starved out of the table by churn.
    pub fn record_affinity(&mut self, node: u32) {
        let mut min_i = 0;
        let mut min_v = u32::MAX;
        for i in 0..AFF_TOP_K {
            if self.aff_nodes[i] == node {
                self.aff_msgs[i] = self.aff_msgs[i].saturating_add(1);
                return;
            }
            if self.aff_nodes[i] == AFF_EMPTY {
                self.aff_nodes[i] = node;
                self.aff_msgs[i] = 1;
                return;
            }
            if self.aff_msgs[i] < min_v {
                min_v = self.aff_msgs[i];
                min_i = i;
            }
        }
        self.aff_nodes[min_i] = node;
        self.aff_msgs[min_i] = min_v.saturating_add(1);
    }

    /// Decay the affinity counts by `shift` (counts >>= shift), clearing
    /// entries that reach zero, and advance the epochs-since-move clock.
    pub fn decay_affinity(&mut self, shift: u32) {
        for i in 0..AFF_TOP_K {
            if self.aff_nodes[i] == AFF_EMPTY {
                continue;
            }
            self.aff_msgs[i] >>= shift.min(31);
            if self.aff_msgs[i] == 0 {
                self.aff_nodes[i] = AFF_EMPTY;
            }
        }
        self.aff_epoch = self.aff_epoch.saturating_add(1);
    }

    /// Live `(peer_node, msgs)` affinity entries, unordered.
    pub fn affinity_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..AFF_TOP_K)
            .filter(|&i| self.aff_nodes[i] != AFF_EMPTY && self.aff_msgs[i] > 0)
            .map(|i| (self.aff_nodes[i], self.aff_msgs[i]))
    }
}

/// Geometry computed when building a stack slot.
#[derive(Debug, Clone, Copy)]
pub struct StackLayout {
    /// Slot base.
    pub base: VAddr,
    /// Descriptor address.
    pub desc: VAddr,
    /// Closure area address.
    pub closure: VAddr,
    /// Canary address (stack floor − 8).
    pub canary: VAddr,
    /// Lowest usable stack address.
    pub stack_floor: VAddr,
    /// One past the highest stack address (16-aligned).
    pub stack_top: VAddr,
}

/// Compute the layout for a stack slot of `n_slots × slot_size` bytes with a
/// closure payload of `closure_size` bytes, or `None` if too little room for
/// a sane stack would remain.
pub fn stack_layout(
    base: VAddr,
    n_slots: usize,
    slot_size: usize,
    closure_size: usize,
) -> Option<StackLayout> {
    let desc = desc_addr(base);
    let closure = align16(desc + std::mem::size_of::<ThreadDescriptor>());
    let canary = align16(closure + closure_size);
    let stack_floor = canary + 8;
    let stack_top = (base + n_slots * slot_size) & !15;
    // Require at least 8 KiB of usable stack.
    if stack_top.checked_sub(stack_floor)? < 8 * 1024 {
        return None;
    }
    Some(StackLayout {
        base,
        desc,
        closure,
        canary,
        stack_floor,
        stack_top,
    })
}

#[inline]
fn align16(v: usize) -> usize {
    (v + 15) & !15
}

/// Initialize a stack slot: slot header, descriptor skeleton and canary.
/// The caller finishes the descriptor (context, entry, heap init).
///
/// # Safety
/// The slot memory must be mapped and exclusively owned.
pub unsafe fn init_stack_slot(
    layout: &StackLayout,
    first_slot: u64,
    n_slots: usize,
    tid: u64,
    home_node: u32,
) -> *mut ThreadDescriptor {
    let slot = layout.base as *mut SlotHeader;
    slot.write(SlotHeader {
        magic: SLOT_MAGIC,
        kind: SlotKind::Stack as u32,
        first_slot,
        n_slots: n_slots as u64,
        prev: 0,
        next: 0,
        free_head: 0,
        used_bytes: 0,
        free_blocks: 0,
    });
    (layout.canary as *mut u64).write(STACK_CANARY);
    let d = layout.desc as *mut ThreadDescriptor;
    d.write(ThreadDescriptor {
        magic: DESC_MAGIC,
        tid,
        state: ThreadState::Ready as u32,
        switch_reason: 0,
        ctx: Context::default(),
        stack_base: layout.base,
        stack_slots: n_slots,
        stack_top: layout.stack_top,
        canary_addr: layout.canary,
        entry_invoke: 0,
        entry_data: 0,
        heap: std::mem::zeroed(),
        migrate_dest: -1,
        home_node,
        cur_node: home_node,
        flags: flags::MIGRATABLE,
        aff_nodes: [AFF_EMPTY; AFF_TOP_K],
        aff_msgs: [0; AFF_TOP_K],
        aff_epoch: u32::MAX,
        panicked: 0,
        _pad: 0,
    });
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_is_reasonably_small() {
        // Must leave ample stack room in a 64 KiB slot.
        assert!(std::mem::size_of::<ThreadDescriptor>() <= 512);
    }

    #[test]
    fn layout_geometry() {
        let l = stack_layout(0x10000, 1, 65536, 48).unwrap();
        assert_eq!(l.desc, 0x10000 + 64);
        assert_eq!(l.closure % 16, 0);
        assert!(l.canary >= l.closure + 48);
        assert_eq!(l.stack_floor, l.canary + 8);
        assert_eq!(l.stack_top, 0x20000);
        assert!(l.stack_top - l.stack_floor > 60 * 1024);
    }

    #[test]
    fn layout_rejects_tiny_slots() {
        // 16 KiB slot with a 12 KiB closure leaves < 8 KiB stack.
        assert!(stack_layout(0x10000, 1, 16384, 12 * 1024).is_none());
        // But a plain 16 KiB slot is fine.
        assert!(stack_layout(0x10000, 1, 16384, 0).is_some());
    }

    fn blank_affinity() -> ThreadDescriptor {
        let mut d: ThreadDescriptor = unsafe { std::mem::zeroed() };
        d.aff_nodes = [AFF_EMPTY; AFF_TOP_K];
        d.aff_epoch = u32::MAX;
        d
    }

    #[test]
    fn affinity_counts_and_evicts_minimum() {
        let mut d = blank_affinity();
        for _ in 0..5 {
            d.record_affinity(1);
        }
        d.record_affinity(2);
        d.record_affinity(3);
        d.record_affinity(4);
        let mut edges: Vec<_> = d.affinity_edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(1, 5), (2, 1), (3, 1), (4, 1)]);
        // Table full: a newcomer evicts a min-count entry and inherits
        // min + 1 (space-saving over-estimate).
        d.record_affinity(9);
        let edges: Vec<_> = d.affinity_edges().collect();
        assert_eq!(edges.len(), AFF_TOP_K);
        assert!(edges.contains(&(9, 2)), "{edges:?}");
        assert!(edges.contains(&(1, 5)), "hot peer must survive: {edges:?}");
    }

    #[test]
    fn affinity_decay_fades_and_clears() {
        let mut d = blank_affinity();
        for _ in 0..8 {
            d.record_affinity(1);
        }
        d.record_affinity(2);
        d.decay_affinity(1);
        let mut edges: Vec<_> = d.affinity_edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(1, 4)], "count-1 entry decays to empty");
        // Epoch clock: never-migrated sentinel saturates, arrival reset ticks.
        assert_eq!(d.aff_epoch, u32::MAX);
        d.aff_epoch = 0;
        d.decay_affinity(1);
        d.decay_affinity(1);
        assert_eq!(d.aff_epoch, 2);
        assert_eq!(d.affinity_edges().count(), 1);
        d.decay_affinity(31);
        assert_eq!(d.affinity_edges().count(), 0, "deep decay clears all");
    }

    #[test]
    fn stack_extents_cover_meta_and_live_stack() {
        let mut d: ThreadDescriptor = unsafe { std::mem::zeroed() };
        d.stack_base = 0x100000;
        d.stack_slots = 1;
        d.stack_top = 0x110000;
        d.canary_addr = 0x100300;
        d.ctx.rsp = 0x10F000;
        let ext = d.stack_extents();
        assert_eq!(ext.len(), 2);
        assert_eq!(ext[0], (0, 0x308));
        // live lo = rsp - 128 relative to base.
        assert_eq!(ext[1].0, 0xF000 - 128);
        assert_eq!(ext[1].1 as usize, 0x10000 - (0xF000 - 128));
    }

    #[test]
    fn deep_stack_extents_merge_into_one() {
        // If rsp sank below the metadata the two extents must merge.
        let mut d: ThreadDescriptor = unsafe { std::mem::zeroed() };
        d.stack_base = 0x100000;
        d.stack_top = 0x110000;
        d.canary_addr = 0x100300;
        d.ctx.rsp = 0x100310; // 8 bytes above the floor
        let ext = d.stack_extents();
        assert_eq!(ext.len(), 1, "{ext:?}");
        assert_eq!(ext[0], (0, 0x10000));
    }
}
