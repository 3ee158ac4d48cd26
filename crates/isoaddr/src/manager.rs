//! Per-node slot manager: bitmap + cache + area plumbing (paper §4.2).
//!
//! The manager realizes the slot life cycle of Fig. 6:
//!
//! * **acquire** — a thread asks the *local* node for `n` contiguous slots.
//!   The node finds them in its private bitmap (first-fit), clears the bits
//!   (ownership moves to the thread) and maps the memory.  If the bitmap has
//!   no run of `n` set bits the caller is told to start a *global
//!   negotiation* (§4.4) — the manager itself never talks to other nodes.
//! * **release** — a thread gives slots back to the node it is currently
//!   visiting: bits are set in *this* node's bitmap (which may differ from
//!   the node the slots came from — the paper makes this point explicitly).
//! * **surrender / adopt** — migration support: the departing node unmaps a
//!   migrating thread's slots *without touching any bitmap* (the thread
//!   still owns them; "the bitmaps do not undergo any change on thread
//!   migration"); the destination node maps them back at the same addresses.
//!   Every other commit is for a new owner and reads zero; these two move a
//!   slot with its owner, so nothing is scrubbed between them.
//! * **give / adopt-batch** — slots moving between nodes, sold or lent
//!   ([`lend_batch`] picks a loan's ranges, lowest first like every other
//!   slot choice, so the slots that circulate are ones already touched):
//!   [`give`] clears the bits
//!   *before* the message carrying them leaves, so a slot is set in at
//!   most one bitmap at every instant, and the taker records them with
//!   [`adopt_batch`].  The node's free-slot *reserve* is tracked in O(1)
//!   ([`free_slots`]) so watermark checks and wealth piggybacking
//!   cost nothing on the hot path.
//!
//! Zero-fill follows ownership, and zero-fill follows writes: whoever lets
//! a range go names how far into it its owner can have written
//! ([`release_written`], [`surrender_written`]; the heap passes its slot's
//! high-water mark), and the next new owner's commit zero-fills only that
//! prefix of each slot — a tail nobody wrote reads zero already and is
//! neither filled nor paged in.  A path that cannot name an extent — a
//! stack slot, [`release`] and [`surrender`] themselves — reports the whole
//! range.  A slot the node keeps in its cache keeps its length too: the
//! release records it without a decommit, so the cache's next taker, who
//! gets the slot without a commit, inherits it and can only raise it, and
//! the slot leaves the cache — evicted, given away or taken into a
//! multi-slot range — with every earlier owner's writes on record.
//!
//! [`release_written`]: NodeSlotManager::release_written
//! [`surrender_written`]: NodeSlotManager::surrender_written
//! [`release`]: NodeSlotManager::release
//! [`surrender`]: NodeSlotManager::surrender
//! [`give`]: NodeSlotManager::give
//! [`lend_batch`]: NodeSlotManager::lend_batch
//! [`adopt_batch`]: NodeSlotManager::adopt_batch
//! [`free_slots`]: NodeSlotManager::free_slots
//!
//! Each node's manager is only ever touched by that node's scheduler thread,
//! so no internal locking is needed; the shared [`IsoArea`] performs the
//! cross-node invariant checking.

use std::sync::Arc;

use crate::area::IsoArea;
use crate::bitmap::SlotBitmap;
use crate::cache::SlotCache;
use crate::distribution::Distribution;
use crate::error::{IsoAddrError, Result};
use crate::slots::{SlotRange, VAddr};
use crate::stats::{SlotStats, SlotStatsSnapshot};

/// Result of a local acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// Slots acquired locally; memory is mapped at the returned address.
    Acquired(SlotRange, VAddr),
    /// The local bitmap has no run of the requested length: the caller must
    /// run the global negotiation protocol (paper §4.4).
    NeedNegotiation,
}

/// Which pair of counters a slot transfer between nodes books: a §4.4
/// sale (`slots_sold` by the giver, `slots_bought` by the taker), or a
/// trade's loan or a host reclaim (`slots_lent`, `slots_adopted`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deal {
    Sale,
    Loan,
}

/// Abstract source of iso-address slots, consumed by the block layer
/// (`isomalloc`) and the thread substrate (`marcel`).
///
/// The PM2 runtime implements this on top of [`NodeSlotManager`] with a
/// negotiation-capable wrapper, so the block layer never needs to know
/// whether a slot came from the local bitmap or from a negotiation.
pub trait SlotProvider {
    /// Size of one slot in bytes.
    fn slot_size(&self) -> usize;
    /// Base virtual address of the iso-address area (used to convert slot
    /// base addresses to area slot indices and back).
    fn area_base(&self) -> VAddr;
    /// Acquire `n` contiguous slots for the calling thread; memory is mapped
    /// and ownership transferred to the caller.  Returns the base address.
    fn acquire_slots(&mut self, n: usize) -> Result<VAddr>;
    /// Release `n` contiguous slots starting at `base` to the provider
    /// (= the node currently hosting the thread), which wrote nothing at or
    /// past `written` bytes from `base` (`n` × slot size when it cannot
    /// tell).  Memory is unmapped or cached; ownership returns to the node.
    fn release_slots(&mut self, base: VAddr, n: usize, written: usize) -> Result<()>;
}

/// The per-node slot manager.
pub struct NodeSlotManager {
    node: usize,
    area: Arc<IsoArea>,
    bitmap: SlotBitmap,
    cache: SlotCache,
    stats: Arc<SlotStats>,
    /// Number of set bits in `bitmap`, maintained incrementally so the
    /// trade layer can read the node's free-slot reserve in O(1) on every
    /// driver step and piggyback it on outgoing protocol traffic.
    free: usize,
}

impl NodeSlotManager {
    /// Create the manager for `node` out of `p` with the given initial
    /// distribution and cache capacity.
    pub fn new(
        node: usize,
        p: usize,
        area: Arc<IsoArea>,
        distribution: Distribution,
        cache_capacity: usize,
    ) -> Self {
        let bitmap = distribution.initial_bitmap(node, p, area.n_slots());
        let free = bitmap.count_ones();
        NodeSlotManager {
            node,
            area,
            bitmap,
            cache: SlotCache::new(cache_capacity),
            stats: Arc::default(),
            free,
        }
    }

    /// Node id this manager belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<SlotStats> {
        Arc::clone(&self.stats)
    }

    /// Snapshot of the statistics.
    pub fn stats_snapshot(&self) -> SlotStatsSnapshot {
        self.stats.snapshot()
    }

    /// The underlying area.
    pub fn area(&self) -> &Arc<IsoArea> {
        &self.area
    }

    /// Read-only view of the private bitmap.
    pub fn bitmap(&self) -> &SlotBitmap {
        &self.bitmap
    }

    /// Number of free slots this node currently owns — the node's slot
    /// *reserve*.  O(1): maintained incrementally across every bitmap
    /// mutation (and debug-checked against the bitmap).
    pub fn free_slots(&self) -> usize {
        debug_assert_eq!(self.free, self.bitmap.count_ones(), "reserve drift");
        self.free
    }

    /// Iterate over cached slot indices (for audits).
    pub fn iter_cached(&self) -> impl Iterator<Item = usize> + '_ {
        self.cache.iter()
    }

    /// Commit `range` for a new owner (it reads zero afterwards), counting
    /// the commit and whatever the area had to scrub for it.
    fn commit_fresh(&self, range: SlotRange) -> Result<()> {
        self.stats.commits.add(1);
        let scrub = self.area.commit(range, true)?;
        self.stats.scrubs.add(scrub.slots as u64);
        self.stats.scrubbed_bytes.add(scrub.bytes as u64);
        Ok(())
    }

    /// Decommit a slot leaving the cache.  Its release recorded how far its
    /// owners wrote ([`IsoArea::note_written`]) and nobody has written it
    /// since, so the decommit adds no extent of its own.
    fn drop_cached(&self, idx: usize) -> Result<()> {
        self.stats.decommits.add(1);
        self.area.decommit_written(SlotRange::single(idx), 0)
    }

    /// Commit a slot range for a new owner.  Cached (still committed)
    /// slots inside it leave the cache first, so the whole range is one
    /// fresh commit and reads zero — only a single-slot cache hit hands a
    /// slot over as its last owner left it.  The range's bits must already
    /// be cleared from the bitmap.
    fn commit_with_cache(&mut self, range: SlotRange) -> Result<VAddr> {
        for idx in self.cache.remove_in_range(range) {
            self.drop_cached(idx)?;
        }
        self.commit_fresh(range)?;
        Ok(self.area.slot_addr(range.first))
    }

    /// Try to acquire `n` contiguous slots locally for a thread.
    pub fn try_acquire(&mut self, n: usize) -> Result<AcquireOutcome> {
        assert!(n >= 1, "must acquire at least one slot");
        if n == 1 {
            // Fast path: the mmapped-slot cache (§6).
            if let Some(idx) = self.cache.pop() {
                debug_assert!(self.bitmap.get(idx), "cached slot {idx} not owned");
                self.bitmap.clear(idx);
                self.free -= 1;
                self.stats.local_acquires.add(1);
                self.stats.cache_hits.add(1);
                return Ok(AcquireOutcome::Acquired(
                    SlotRange::single(idx),
                    self.area.slot_addr(idx),
                ));
            }
        }
        match self.bitmap.find_first_fit(n, 0) {
            Some(first) => {
                let range = SlotRange::new(first, n);
                self.bitmap.clear_range(range);
                self.free -= n;
                let addr = self.commit_with_cache(range)?;
                if n == 1 {
                    self.stats.local_acquires.add(1);
                    self.stats.cache_misses.add(1);
                } else {
                    self.stats.multi_acquires.add(1);
                }
                Ok(AcquireOutcome::Acquired(range, addr))
            }
            None => {
                self.stats.negotiation_required.add(1);
                Ok(AcquireOutcome::NeedNegotiation)
            }
        }
    }

    /// Release a slot range from a thread to this node, whose owner can
    /// have written any of it: [`Self::release_written`] over the whole
    /// range.
    pub fn release(&mut self, range: SlotRange) -> Result<()> {
        self.release_written(range, range.count.saturating_mul(self.area.slot_size()))
    }

    /// Release a slot range from a thread to this node (isofree, thread
    /// death), whose owner wrote nothing at or past `written` bytes from
    /// its start.  Ownership: bits set in *this* node's bitmap.  A single
    /// slot may stay mapped in the cache (§6): its extent is recorded all
    /// the same, for whoever commits it fresh after it leaves the cache.
    pub fn release_written(&mut self, range: SlotRange, written: usize) -> Result<()> {
        debug_assert!(
            self.bitmap.all_clear(range),
            "release: {range:?} already owned by node {}",
            self.node
        );
        self.bitmap.set_range(range);
        self.free += range.count;
        self.stats.releases.add(1);
        if range.count == 1 && !self.cache.disabled() {
            self.area.note_written(range, written)?;
            if let Some(evicted) = self.cache.push(range.first) {
                self.drop_cached(evicted)?;
            }
            return Ok(());
        }
        self.stats.decommits.add(1);
        self.area.decommit_written(range, written)
    }

    /// Unmap a migrating thread's slots on departure, however much of them
    /// it wrote: [`Self::surrender_written`] over the whole range.
    pub fn surrender(&mut self, range: SlotRange) -> Result<()> {
        self.surrender_written(range, range.count.saturating_mul(self.area.slot_size()))
    }

    /// Unmap a migrating thread's slots on departure; the thread wrote
    /// nothing at or past `written` bytes from the range's start.
    /// Ownership stays with the thread; no bitmap is touched (paper §4.2).
    /// Under `MapStrategy::Resident` nothing is zero-filled either: the
    /// thread carries its slots, and only if it never arrives — so the
    /// range is later granted to a node and committed afresh — is their
    /// written prefix scrubbed.
    pub fn surrender_written(&mut self, range: SlotRange, written: usize) -> Result<()> {
        debug_assert!(
            self.bitmap.all_clear(range),
            "surrender: {range:?} is owned by node {}, not by a thread",
            self.node
        );
        self.stats.decommits.add(1);
        self.area.decommit_written(range, written)
    }

    /// Map an arriving migrated thread's slots.  Ownership stays with the
    /// thread; no bitmap is touched, and — the owner being who it was —
    /// nothing is scrubbed ([`IsoArea::recommit_slots`]): it still passes
    /// through the double-commit accounting, but the caller must unpack the
    /// thread's extents into the range before anything reads it; the gaps
    /// between them (free-block payloads, dead stack) are indeterminate.
    pub fn adopt(&mut self, range: SlotRange) -> Result<VAddr> {
        debug_assert!(
            self.bitmap.all_clear(range),
            "adopt: {range:?} is marked free-owned on destination node {}",
            self.node
        );
        self.stats.commits.add(1);
        self.area.recommit_slots(range)
    }

    /// Serialized bitmap size ([`Self::bitmap_bytes_into`]'s contribution).
    pub fn bitmap_wire_len(&self) -> usize {
        self.bitmap.wire_len()
    }

    /// Append the serialized bitmap to a caller-supplied (pooled) buffer —
    /// the negotiation gather's reply (step b).
    pub fn bitmap_bytes_into(&self, out: &mut Vec<u8>) {
        self.bitmap.write_bytes(out);
    }

    /// Give `range` to another node, sold or lent as `deal` says: clear the
    /// bits and drop any cached mappings inside the range (the taker will
    /// map them).
    pub fn give(&mut self, range: SlotRange, deal: Deal) -> Result<()> {
        assert!(
            self.bitmap.all_set(range),
            "give: node {} does not own all of {range:?}",
            self.node
        );
        self.bitmap.clear_range(range);
        self.free -= range.count;
        for idx in self.cache.remove_in_range(range) {
            self.drop_cached(idx)?;
        }
        let given = match deal {
            Deal::Sale => &self.stats.slots_sold,
            Deal::Loan => &self.stats.slots_lent,
        };
        given.add(range.count as u64);
        Ok(())
    }

    /// Lend up to `max_slots` free slots to a trading peer, as a batch of
    /// contiguous ranges (the `SLOT_TRADE_RESP` payload).  Bits are cleared
    /// *here, before the reply is sent* — the sender-clears-before-
    /// receiver-sets discipline that keeps every slot owned by at most one
    /// bitmap at every instant — and cached mappings inside the lent
    /// ranges are dropped, exactly like a negotiation sale.
    ///
    /// Range selection is lowest-first: if the borrower asked for a minimum
    /// contiguous run (`min_contig > 1`) and we own one, the first-fit run
    /// is granted first (it satisfies the borrower outright); the remainder
    /// is the bitmap's lowest maximal runs, taken in one upward pass.  Loans
    /// then recycle slots already touched — by this node's own allocations
    /// or by the threads that freed them here — instead of faulting in
    /// never-used ones, so a thread whose slots drift between nodes keeps a
    /// footprint the size of its live set.
    pub fn lend_batch(&mut self, max_slots: usize, min_contig: usize) -> Result<Vec<SlotRange>> {
        let mut out = Vec::new();
        let mut remaining = max_slots;
        if min_contig > 1 && min_contig <= remaining {
            if let Some(first) = self.bitmap.find_first_fit(min_contig, 0) {
                let r = SlotRange::new(first, min_contig);
                self.give(r, Deal::Loan)?;
                out.push(r);
                remaining -= min_contig;
            }
        }
        let mut from = 0;
        while remaining > 0 {
            let Some(r) = self.bitmap.first_run(remaining, from) else {
                break;
            };
            self.give(r, Deal::Loan)?;
            out.push(r);
            remaining -= r.count;
            from = r.end();
        }
        Ok(out)
    }

    /// Adopt a batch of ranges given to this node, bought or lent as `deal`
    /// says: set the bits.  (Distinct from [`Self::adopt`], which maps a
    /// migrated *thread's* slots without touching the bitmap.)  The giver
    /// cleared its bits first, so setting ours completes the transfer.
    ///
    /// The grant is validated in release builds too — a corrupt reply
    /// (range out of the area, or overlapping slots we already own) must
    /// cost the grant, never the node: nothing is adopted and `false` is
    /// returned, exactly like a corrupt migration record is NAKed.
    pub fn adopt_batch(&mut self, ranges: &[SlotRange], deal: Deal) -> bool {
        let n = self.bitmap.len();
        // Validate and set one range at a time (checking against the
        // live bitmap also catches overlaps *within* the batch); roll
        // back on the first bad range so a refusal leaves no trace.
        for (i, r) in ranges.iter().enumerate() {
            let ok =
                r.count >= 1 && r.first < n && r.count <= n - r.first && self.bitmap.all_clear(*r);
            if !ok {
                for done in &ranges[..i] {
                    self.bitmap.clear_range(*done);
                    self.free -= done.count;
                }
                return false;
            }
            self.bitmap.set_range(*r);
            self.free += r.count;
        }
        let taken = match deal {
            Deal::Sale => &self.stats.slots_bought,
            Deal::Loan => &self.stats.slots_adopted,
        };
        taken.add(ranges.iter().map(|r| r.count as u64).sum());
        true
    }
}

impl SlotProvider for NodeSlotManager {
    fn slot_size(&self) -> usize {
        self.area.slot_size()
    }

    fn area_base(&self) -> VAddr {
        self.area.base()
    }

    fn acquire_slots(&mut self, n: usize) -> Result<VAddr> {
        match self.try_acquire(n)? {
            AcquireOutcome::Acquired(_, addr) => Ok(addr),
            AcquireOutcome::NeedNegotiation => Err(IsoAddrError::NeedNegotiation { requested: n }),
        }
    }

    fn release_slots(&mut self, base: VAddr, n: usize, written: usize) -> Result<()> {
        let first = self.area.slot_of(base)?;
        self.release_written(SlotRange::new(first, n), written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::AreaConfig;

    fn mgr(p: usize, node: usize, cache: usize) -> NodeSlotManager {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        NodeSlotManager::new(node, p, area, Distribution::RoundRobin, cache)
    }

    /// Fixtures the tests below reach for and no runtime code calls.
    impl NodeSlotManager {
        /// Number of slots sitting in the mmapped-slot cache.
        fn cached_slots(&self) -> usize {
            self.cache.len()
        }

        /// Acquire a slot range this node owns, whatever first-fit would
        /// have picked.
        fn acquire_specific(&mut self, range: SlotRange) -> Result<VAddr> {
            assert!(
                self.bitmap.all_set(range),
                "acquire_specific: node {} does not own {range:?}",
                self.node
            );
            self.bitmap.clear_range(range);
            self.free -= range.count;
            let addr = self.commit_with_cache(range)?;
            self.stats.multi_acquires.add(1);
            Ok(addr)
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let mut m = mgr(1, 0, 0);
        assert_eq!(m.free_slots(), 64);
        let AcquireOutcome::Acquired(r, addr) = m.try_acquire(4).unwrap() else {
            panic!("should be local");
        };
        assert_eq!(r, SlotRange::new(0, 4));
        assert_eq!(addr, m.area().slot_addr(0));
        assert_eq!(m.free_slots(), 60);
        m.release(r).unwrap();
        assert_eq!(m.free_slots(), 64);
    }

    #[test]
    fn round_robin_two_nodes_cannot_do_multislot() {
        let mut m = mgr(2, 0, 0);
        assert_eq!(m.free_slots(), 32);
        // Single slots fine…
        assert!(matches!(
            m.try_acquire(1).unwrap(),
            AcquireOutcome::Acquired(..)
        ));
        // …but no two contiguous slots exist under round-robin with p=2.
        assert_eq!(m.try_acquire(2).unwrap(), AcquireOutcome::NeedNegotiation);
        assert_eq!(m.stats_snapshot().negotiation_required, 1);
    }

    #[test]
    fn acquired_memory_is_usable() {
        let mut m = mgr(2, 1, 0);
        let AcquireOutcome::Acquired(r, addr) = m.try_acquire(1).unwrap() else {
            panic!();
        };
        // Node 1 under round-robin owns odd slots; first fit = slot 1.
        assert_eq!(r.first, 1);
        unsafe {
            std::ptr::write_bytes(addr as *mut u8, 0x5A, m.slot_size());
            assert_eq!((addr as *const u8).add(m.slot_size() - 1).read(), 0x5A);
        }
        m.release(r).unwrap();
    }

    #[test]
    fn cache_hit_skips_mmap_and_keeps_contents() {
        let mut m = mgr(1, 0, 4);
        let AcquireOutcome::Acquired(r, addr) = m.try_acquire(1).unwrap() else {
            panic!()
        };
        unsafe { (addr as *mut u64).write(0xFEED) };
        m.release(r).unwrap();
        assert_eq!(m.cached_slots(), 1);
        let AcquireOutcome::Acquired(r2, addr2) = m.try_acquire(1).unwrap() else {
            panic!()
        };
        assert_eq!(r2, r, "cache must hand back the same slot");
        assert_eq!(addr2, addr);
        // Cached slot keeps stale contents (documented behaviour).
        unsafe { assert_eq!((addr2 as *const u64).read(), 0xFEED) };
        let s = m.stats_snapshot();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        m.release(r2).unwrap();
    }

    #[test]
    fn cache_disabled_always_mmaps_fresh_zeroes() {
        let mut m = mgr(1, 0, 0);
        let AcquireOutcome::Acquired(r, addr) = m.try_acquire(1).unwrap() else {
            panic!()
        };
        unsafe { (addr as *mut u64).write(0xFEED) };
        m.release(r).unwrap();
        let AcquireOutcome::Acquired(_, addr2) = m.try_acquire(1).unwrap() else {
            panic!()
        };
        assert_eq!(addr2, addr);
        unsafe { assert_eq!((addr2 as *const u64).read(), 0) };
    }

    #[test]
    fn multislot_commit_reuses_cached_slots_inside_range() {
        let mut m = mgr(1, 0, 8);
        // Acquire and release slot 1 so it sits in the cache, committed.
        let a1 = m.acquire_specific(SlotRange::single(1)).unwrap();
        unsafe { (a1 as *mut u64).write(7) };
        m.release(SlotRange::single(1)).unwrap();
        assert!(m.cache.contains(1));
        // Now acquire slots [0,4): must not double-commit slot 1.
        let AcquireOutcome::Acquired(r, addr) = m.try_acquire(4).unwrap() else {
            panic!()
        };
        assert_eq!(r, SlotRange::new(0, 4));
        assert!(read(addr, m.slot_size() * 4).iter().all(|&b| b == 0));
        unsafe {
            std::ptr::write_bytes(addr as *mut u8, 1, m.slot_size() * 4);
        }
        assert!(!m.cache.contains(1));
        m.release(r).unwrap();
    }

    /// Reads `len` bytes at `addr`, which the caller holds committed.
    fn read(addr: VAddr, len: usize) -> &'static [u8] {
        unsafe { std::slice::from_raw_parts(addr as *const u8, len) }
    }

    /// A slot released into the cache keeps its written length: when it is
    /// taken into a multi-slot range the range still reads zero, and the
    /// range's next fresh commit fills what every owner wrote, not only the
    /// last one's short extent.
    #[test]
    fn a_cached_slot_inside_a_multi_slot_range_reads_zero() {
        let mut m = mgr(1, 0, 8);
        let ss = m.slot_size();
        let a1 = m.acquire_specific(SlotRange::single(1)).unwrap();
        unsafe { std::ptr::write_bytes(a1 as *mut u8, 0xAB, 40_000) };
        m.release_written(SlotRange::single(1), 40_000).unwrap();
        assert!(m.cache.contains(1));
        let AcquireOutcome::Acquired(r, addr) = m.try_acquire(2).unwrap() else {
            panic!()
        };
        assert_eq!(r, SlotRange::new(0, 2));
        assert!(read(addr, 2 * ss).iter().all(|&b| b == 0));
        // A 2-slot block that ends 208 B into its second slot.
        unsafe { std::ptr::write_bytes(addr as *mut u8, 0xCD, ss + 208) };
        m.release_written(r, ss + 208).unwrap();
        assert_eq!(m.acquire_specific(r).unwrap(), addr);
        assert!(read(addr, 2 * ss).iter().all(|&b| b == 0));
        m.release(r).unwrap();
    }

    /// A slot the cache handed to a thread keeps its earlier owner's
    /// length: the thread surrenders it with its own short mark and is
    /// lost, and the node recovery grants the slot to still zero-fills all
    /// that the earlier owner wrote.
    #[test]
    fn a_cached_slot_surrendered_and_never_adopted_is_scrubbed_for_its_next_owner() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::Partitioned, 4);
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::Partitioned, 4);
        let AcquireOutcome::Acquired(r, addr) = m0.try_acquire(1).unwrap() else {
            panic!()
        };
        unsafe { std::ptr::write_bytes(addr as *mut u8, 0x77, 40_000) };
        m0.release_written(r, 40_000).unwrap();
        let AcquireOutcome::Acquired(r2, _) = m0.try_acquire(1).unwrap() else {
            panic!()
        };
        assert_eq!((r2, m0.stats_snapshot().cache_hits), (r, 1));
        unsafe { std::ptr::write_bytes(addr as *mut u8, 0x11, 128) };
        m0.surrender_written(r, 128).unwrap();
        assert!(m1.adopt_batch(&[r], Deal::Loan));
        assert_eq!(m1.acquire_specific(r).unwrap(), addr);
        assert!(read(addr, m1.slot_size()).iter().all(|&b| b == 0));
        assert_eq!(m1.stats_snapshot().scrubbed_bytes, 40_000);
        m1.release(r).unwrap();
    }

    #[test]
    fn surrender_and_adopt_roundtrip_between_nodes() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::RoundRobin, 0);
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::RoundRobin, 0);
        // Thread acquires slot 0 on node 0 and writes data.
        let AcquireOutcome::Acquired(r, addr) = m0.try_acquire(1).unwrap() else {
            panic!()
        };
        unsafe { (addr as *mut u64).write(0xC0FFEE) };
        // Migration: read out, surrender on node 0, adopt on node 1 at the
        // SAME address, write back.
        let bytes = unsafe { std::slice::from_raw_parts(addr as *const u8, 64).to_vec() };
        m0.surrender(r).unwrap();
        let addr1 = m1.adopt(r).unwrap();
        assert_eq!(addr1, addr, "iso-address: identical virtual address");
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), addr1 as *mut u8, 64);
            assert_eq!((addr1 as *const u64).read(), 0xC0FFEE);
        }
        // The slot moves with its owner, hop after hop: every commit is
        // counted, none scrubs anything.
        for hop in 0..500 {
            let (from, to) = if hop % 2 == 0 {
                (&mut m1, &mut m0)
            } else {
                (&mut m0, &mut m1)
            };
            from.surrender(r).unwrap();
            assert_eq!(to.adopt(r).unwrap(), addr);
        }
        let scrubs = |m0: &NodeSlotManager, m1: &NodeSlotManager| {
            [m0, m1].map(|m| m.stats_snapshot().scrubs)
        };
        assert_eq!(
            m0.stats_snapshot().commits + m1.stats_snapshot().commits,
            502
        );
        assert_eq!(scrubs(&m0, &m1), [0, 0]);
        assert_eq!(unsafe { (addr as *const u64).read() }, 0xC0FFEE);
        // Thread dies on node 1: slots released THERE (Fig. 6 step 4).
        m1.release(r).unwrap();
        assert!(m1.bitmap().get(0), "node 1 now owns slot 0");
        assert!(!m0.bitmap().get(0), "node 0 no longer tracks slot 0");
        // The next owner's fresh commit pays the one scrub the hops did not.
        assert_eq!(m1.acquire_specific(r).unwrap(), addr);
        assert_eq!(unsafe { (addr as *const u64).read() }, 0);
        assert_eq!(scrubs(&m0, &m1), [0, 1]);
        m1.release(r).unwrap();
    }

    /// A thread lost in flight: its slots were surrendered with their bytes
    /// in them and nobody adopted them.  Once recovery grants the range to a
    /// node, the next owner's acquisition reads zero — the scrub a hop no
    /// longer pays is paid here, once, by the commit that changes owner.
    #[test]
    fn a_surrendered_range_nobody_adopted_is_scrubbed_for_its_next_owner() {
        use crate::area::MapStrategy;
        for (strategy, scrubs) in [(MapStrategy::Resident, 2), (MapStrategy::Syscall, 0)] {
            let area = Arc::new(IsoArea::with_strategy(AreaConfig::small(), strategy).unwrap());
            let mut m0 =
                NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::Partitioned, 0);
            let mut m1 =
                NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::Partitioned, 0);
            let AcquireOutcome::Acquired(r, addr) = m0.try_acquire(2).unwrap() else {
                panic!()
            };
            let len = 2 * m0.slot_size();
            unsafe { std::ptr::write_bytes(addr as *mut u8, 0x77, len) };
            m0.surrender(r).unwrap();
            assert!(m1.adopt_batch(&[r], Deal::Loan));
            assert_eq!(m1.acquire_specific(r).unwrap(), addr);
            let got = unsafe { std::slice::from_raw_parts(addr as *const u8, len) };
            assert!(got.iter().all(|&b| b == 0), "{strategy:?}");
            assert_eq!(m1.stats_snapshot().scrubs, scrubs, "{strategy:?}");
            assert_eq!(m0.stats_snapshot().scrubs, 0);
            m1.release(r).unwrap();
        }
    }

    #[test]
    fn a_sale_moves_ownership() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::RoundRobin, 4);
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::RoundRobin, 4);
        // Node 1 owns odd slots. Sell slot 1 and 3 to node 0.
        m1.give(SlotRange::single(1), Deal::Sale).unwrap();
        m1.give(SlotRange::single(3), Deal::Sale).unwrap();
        let bought = [SlotRange::single(1), SlotRange::single(3)];
        assert!(m0.adopt_batch(&bought, Deal::Sale));
        // Node 0 can now make a contiguous 4-slot allocation [0,4).
        let addr = m0.acquire_specific(SlotRange::new(0, 4)).unwrap();
        unsafe { std::ptr::write_bytes(addr as *mut u8, 9, 4 * m0.slot_size()) };
        assert_eq!(m0.stats_snapshot().slots_bought, 2);
        assert_eq!(m1.stats_snapshot().slots_sold, 2);
        m0.release(SlotRange::new(0, 4)).unwrap();
    }

    #[test]
    fn lend_and_adopt_move_reserve() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::Partitioned, 4);
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::Partitioned, 4);
        // Partitioned, 64 slots: node 0 owns [0,32), node 1 owns [32,64).
        assert_eq!(m1.free_slots(), 32);
        let lent = m1.lend_batch(8, 2).unwrap();
        let total: usize = lent.iter().map(|r| r.count).sum();
        assert_eq!(total, 8);
        assert_eq!(m1.free_slots(), 24);
        assert_eq!(
            lent[0].first, 32,
            "the loan starts at the lender's lowest slot: {lent:?}"
        );
        assert!(m0.adopt_batch(&lent, Deal::Loan));
        assert_eq!(m0.free_slots(), 40);
        assert_eq!(m0.stats_snapshot().slots_adopted, 8);
        assert_eq!(m1.stats_snapshot().slots_lent, 8);
        // The transferred slots are allocatable on the adopter…
        for r in &lent {
            let addr = m0.acquire_specific(*r).unwrap();
            unsafe { std::ptr::write_bytes(addr as *mut u8, 3, r.count * m0.slot_size()) };
            m0.release(*r).unwrap();
        }
        // …and the reserve count survived the round trip.
        assert_eq!(m0.free_slots(), 40);
    }

    #[test]
    fn adopt_batch_refuses_corrupt_grants() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::Partitioned, 0);
        // Partitioned, 64 slots: node 0 owns [0,32); [32,64) is clear.
        assert!(
            !m0.adopt_batch(&[SlotRange::new(1 << 40, 2)], Deal::Loan),
            "out of area"
        );
        assert!(
            !m0.adopt_batch(&[SlotRange::new(60, usize::MAX)], Deal::Loan),
            "overflow"
        );
        assert!(
            !m0.adopt_batch(&[SlotRange::new(0, 1)], Deal::Loan),
            "already owned"
        );
        // Overlap *within* one batch rolls the earlier range back out.
        assert!(!m0.adopt_batch(&[SlotRange::new(40, 2), SlotRange::new(41, 2)], Deal::Loan));
        assert_eq!(m0.free_slots(), 32, "refusals leave no trace");
        assert!(m0.bitmap().all_clear(SlotRange::new(40, 4)));
        assert_eq!(m0.stats_snapshot().slots_adopted, 0);
        // A valid grant still lands.
        assert!(m0.adopt_batch(&[SlotRange::new(40, 2)], Deal::Loan));
        assert_eq!(m0.free_slots(), 34);
    }

    #[test]
    fn lend_batch_without_contiguity_gives_the_lowest_singles() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::RoundRobin, 0);
        // Round-robin node 1 owns the odd slots: no 2-run exists, so the
        // lender still fills the batch with its lowest singles.
        let lent = m1.lend_batch(3, 2).unwrap();
        assert_eq!(
            lent,
            vec![
                SlotRange::single(1),
                SlotRange::single(3),
                SlotRange::single(5)
            ]
        );
        assert_eq!(m1.free_slots(), 29);
    }

    #[test]
    fn lend_evicts_cached_mapping() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::RoundRobin, 4);
        let AcquireOutcome::Acquired(r, _) = m1.try_acquire(1).unwrap() else {
            panic!()
        };
        m1.release(r).unwrap();
        assert_eq!(m1.cached_slots(), 1);
        // Lend everything; the cached slot must be unmapped on the way out.
        let lent = m1.lend_batch(64, 1).unwrap();
        assert_eq!(lent.iter().map(|r| r.count).sum::<usize>(), 32);
        assert_eq!(m1.cached_slots(), 0);
        assert!(
            !area.is_committed(r.first),
            "lent slot must be unmapped by the lender"
        );
    }

    #[test]
    fn sell_evicts_cached_mapping() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::RoundRobin, 4);
        let AcquireOutcome::Acquired(r, _) = m1.try_acquire(1).unwrap() else {
            panic!()
        };
        m1.release(r).unwrap();
        assert_eq!(m1.cached_slots(), 1);
        m1.give(r, Deal::Sale).unwrap();
        assert_eq!(m1.cached_slots(), 0);
        assert!(
            !area.is_committed(r.first),
            "sold slot must be unmapped by seller"
        );
    }

    #[test]
    fn provider_trait_roundtrip() {
        let mut m = mgr(1, 0, 0);
        let base = m.acquire_slots(2).unwrap();
        m.release_slots(base, 2, 2 * m.slot_size()).unwrap();
        let err = {
            let mut m2 = mgr(2, 0, 0);
            m2.acquire_slots(2).unwrap_err()
        };
        assert_eq!(err, IsoAddrError::NeedNegotiation { requested: 2 });
    }
}
