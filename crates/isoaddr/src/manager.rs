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
//! * **lend / adopt-batch** — the decentralized slot economy: a node lends
//!   a batch of contiguous ranges to a trading peer ([`lend_batch`]
//!   clears the bits *before* the reply leaves, so a slot is set in at
//!   most one bitmap at every instant) and the peer records them with
//!   [`adopt_batch`].  The node's free-slot *reserve* is tracked in O(1)
//!   ([`owned_free_slots`]) so watermark checks and wealth piggybacking
//!   cost nothing on the hot path.
//!
//! [`lend_batch`]: NodeSlotManager::lend_batch
//! [`adopt_batch`]: NodeSlotManager::adopt_batch
//! [`owned_free_slots`]: NodeSlotManager::owned_free_slots
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
    /// (= the node currently hosting the thread).  Memory is unmapped or
    /// cached; ownership returns to the node.
    fn release_slots(&mut self, base: VAddr, n: usize) -> Result<()>;
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
            stats: SlotStats::new_shared(),
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
    pub fn owned_free_slots(&self) -> usize {
        debug_assert_eq!(self.free, self.bitmap.count_ones(), "reserve drift");
        self.free
    }

    /// Alias for [`Self::owned_free_slots`] in trade-layer vocabulary.
    pub fn free_slots(&self) -> usize {
        self.owned_free_slots()
    }

    /// Number of slots sitting in the mmapped-slot cache.
    pub fn cached_slots(&self) -> usize {
        self.cache.len()
    }

    /// Iterate over cached slot indices (for audits).
    pub fn iter_cached(&self) -> impl Iterator<Item = usize> + '_ {
        self.cache.iter()
    }

    /// Commit `range` for a new owner (it reads zero afterwards), counting
    /// the commit and whatever the area had to scrub for it.
    fn commit_fresh(&self, range: SlotRange) -> Result<()> {
        SlotStats::bump(&self.stats.commits);
        let scrubbed = self.area.commit(range, true)?;
        SlotStats::add(&self.stats.scrubs, scrubbed as u64);
        Ok(())
    }

    /// Commit a slot range, reusing any cached (already-committed) slots
    /// inside it.  The range's bits must already be cleared from the bitmap.
    fn commit_with_cache(&mut self, range: SlotRange) -> Result<VAddr> {
        // Cached slots inside the range are already mapped; commit the gaps.
        let cached = self.cache.remove_in_range(range);
        let mut run_start = range.first;
        for idx in range.iter().filter(|idx| cached.contains(idx)) {
            if idx > run_start {
                self.commit_fresh(SlotRange::new(run_start, idx - run_start))?;
            }
            run_start = idx + 1;
        }
        if range.end() > run_start {
            self.commit_fresh(SlotRange::new(run_start, range.end() - run_start))?;
        }
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
                SlotStats::bump(&self.stats.local_acquires);
                SlotStats::bump(&self.stats.cache_hits);
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
                    SlotStats::bump(&self.stats.local_acquires);
                    SlotStats::bump(&self.stats.cache_misses);
                } else {
                    SlotStats::bump(&self.stats.multi_acquires);
                }
                Ok(AcquireOutcome::Acquired(range, addr))
            }
            None => {
                SlotStats::bump(&self.stats.negotiation_required);
                Ok(AcquireOutcome::NeedNegotiation)
            }
        }
    }

    /// Acquire a *specific* slot range (used right after a negotiation has
    /// transferred ownership of the range to this node).
    pub fn acquire_specific(&mut self, range: SlotRange) -> Result<VAddr> {
        assert!(
            self.bitmap.all_set(range),
            "acquire_specific: node {} does not own {range:?}",
            self.node
        );
        self.bitmap.clear_range(range);
        self.free -= range.count;
        let addr = self.commit_with_cache(range)?;
        SlotStats::bump(&self.stats.multi_acquires);
        Ok(addr)
    }

    /// Release a slot range from a thread to this node (isofree, thread
    /// death).  Ownership: bits set in *this* node's bitmap.
    pub fn release(&mut self, range: SlotRange) -> Result<()> {
        debug_assert!(
            self.bitmap.all_clear(range),
            "release: {range:?} already owned by node {}",
            self.node
        );
        self.bitmap.set_range(range);
        self.free += range.count;
        SlotStats::bump(&self.stats.releases);
        if range.count == 1 && !self.cache.disabled() {
            if let Some(evicted) = self.cache.push(range.first) {
                SlotStats::bump(&self.stats.decommits);
                self.area.decommit_slots(SlotRange::single(evicted))?;
            }
            return Ok(());
        }
        SlotStats::bump(&self.stats.decommits);
        self.area.decommit_slots(range)
    }

    /// Unmap a migrating thread's slots on departure.  Ownership stays with
    /// the thread; no bitmap is touched (paper §4.2).  Under
    /// `MapStrategy::Resident` nothing is zero-filled either: the thread
    /// carries its slots, and only if it never arrives — so the range is
    /// later granted to a node and committed afresh — are they scrubbed.
    pub fn surrender(&mut self, range: SlotRange) -> Result<()> {
        debug_assert!(
            self.bitmap.all_clear(range),
            "surrender: {range:?} is owned by node {}, not by a thread",
            self.node
        );
        SlotStats::bump(&self.stats.decommits);
        self.area.decommit_slots(range)
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
        SlotStats::bump(&self.stats.commits);
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

    /// Sell `range` to another node during a negotiation: clear the bits and
    /// drop any cached mappings inside the range (the buyer will map them).
    pub fn sell(&mut self, range: SlotRange) -> Result<()> {
        assert!(
            self.bitmap.all_set(range),
            "sell: node {} does not own all of {range:?}",
            self.node
        );
        self.bitmap.clear_range(range);
        self.free -= range.count;
        for idx in self.cache.remove_in_range(range) {
            SlotStats::bump(&self.stats.decommits);
            self.area.decommit_slots(SlotRange::single(idx))?;
        }
        SlotStats::add(&self.stats.slots_sold, range.count as u64);
        Ok(())
    }

    /// Record slots bought from other nodes: set the bits.
    pub fn grant(&mut self, range: SlotRange) {
        debug_assert!(
            self.bitmap.all_clear(range),
            "grant: node {} already owns part of {range:?}",
            self.node
        );
        self.bitmap.set_range(range);
        self.free += range.count;
        SlotStats::add(&self.stats.slots_bought, range.count as u64);
    }

    /// Lend up to `max_slots` free slots to a trading peer, as a batch of
    /// contiguous ranges (the `SLOT_TRADE_RESP` payload).  Bits are cleared
    /// *here, before the reply is sent* — the sender-clears-before-
    /// receiver-sets discipline that keeps every slot owned by at most one
    /// bitmap at every instant — and cached mappings inside the lent
    /// ranges are dropped, exactly like a negotiation sale.
    ///
    /// Range selection: if the borrower asked for a minimum contiguous run
    /// (`min_contig > 1`) and we own one, that run is granted first (it
    /// satisfies the borrower outright); the remainder is peeled off the
    /// *top* of the bitmap in maximal runs, leaving the low-address end —
    /// where first-fit scans start — for local allocations.
    pub fn lend_batch(&mut self, max_slots: usize, min_contig: usize) -> Result<Vec<SlotRange>> {
        let mut out = Vec::new();
        let mut remaining = max_slots;
        if min_contig > 1 && min_contig <= remaining {
            if let Some(first) = self.bitmap.find_first_fit(min_contig, 0) {
                let r = SlotRange::new(first, min_contig);
                self.extract_lent(r)?;
                out.push(r);
                remaining -= min_contig;
            }
        }
        while remaining > 0 {
            let Some(r) = self.bitmap.last_run(remaining) else {
                break;
            };
            self.extract_lent(r)?;
            out.push(r);
            remaining -= r.count;
        }
        let total: usize = out.iter().map(|r| r.count).sum();
        SlotStats::add(&self.stats.slots_lent, total as u64);
        Ok(out)
    }

    /// Clear one lent range and drop its cached mappings.
    fn extract_lent(&mut self, range: SlotRange) -> Result<()> {
        debug_assert!(
            self.bitmap.all_set(range),
            "lend: node {} does not own all of {range:?}",
            self.node
        );
        self.bitmap.clear_range(range);
        self.free -= range.count;
        for idx in self.cache.remove_in_range(range) {
            SlotStats::bump(&self.stats.decommits);
            self.area.decommit_slots(SlotRange::single(idx))?;
        }
        Ok(())
    }

    /// Adopt a batch of ranges granted by a trading peer: set the bits.
    /// (Distinct from [`Self::adopt`], which maps a migrated *thread's*
    /// slots without touching the bitmap.)  The peer cleared its bits
    /// before replying, so setting ours completes the ownership transfer.
    ///
    /// The grant is validated in release builds too — a corrupt reply
    /// (range out of the area, or overlapping slots we already own) must
    /// cost the grant, never the node: nothing is adopted and `false` is
    /// returned, exactly like a corrupt migration record is NAKed.
    pub fn adopt_batch(&mut self, ranges: &[SlotRange]) -> bool {
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
        let total: u64 = ranges.iter().map(|r| r.count as u64).sum();
        SlotStats::add(&self.stats.slots_adopted, total);
        true
    }

    /// Drop all cached mappings (shutdown / reconfiguration).
    pub fn flush_cache(&mut self) -> Result<()> {
        for idx in self.cache.drain_all() {
            SlotStats::bump(&self.stats.decommits);
            self.area.decommit_slots(SlotRange::single(idx))?;
        }
        Ok(())
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

    fn release_slots(&mut self, base: VAddr, n: usize) -> Result<()> {
        let first = self.area.slot_of(base)?;
        self.release(SlotRange::new(first, n))
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

    #[test]
    fn single_node_owns_everything() {
        let mut m = mgr(1, 0, 0);
        assert_eq!(m.owned_free_slots(), 64);
        let AcquireOutcome::Acquired(r, addr) = m.try_acquire(4).unwrap() else {
            panic!("should be local");
        };
        assert_eq!(r, SlotRange::new(0, 4));
        assert_eq!(addr, m.area().slot_addr(0));
        assert_eq!(m.owned_free_slots(), 60);
        m.release(r).unwrap();
        assert_eq!(m.owned_free_slots(), 64);
    }

    #[test]
    fn round_robin_two_nodes_cannot_do_multislot() {
        let mut m = mgr(2, 0, 0);
        assert_eq!(m.owned_free_slots(), 32);
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
        unsafe {
            std::ptr::write_bytes(addr as *mut u8, 1, m.slot_size() * 4);
        }
        assert!(!m.cache.contains(1));
        m.release(r).unwrap();
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
        // The slot moved with its owner: both commits were counted, neither
        // scrubbed anything.
        assert_eq!(m0.stats_snapshot().commits + m1.stats_snapshot().commits, 2);
        assert_eq!(m0.stats_snapshot().scrubs + m1.stats_snapshot().scrubs, 0);
        // Thread dies on node 1: slots released THERE (Fig. 6 step 4).
        m1.release(r).unwrap();
        assert!(m1.bitmap().get(0), "node 1 now owns slot 0");
        assert!(!m0.bitmap().get(0), "node 0 no longer tracks slot 0");
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
            m1.grant(r);
            assert_eq!(m1.acquire_specific(r).unwrap(), addr);
            let got = unsafe { std::slice::from_raw_parts(addr as *const u8, len) };
            assert!(got.iter().all(|&b| b == 0), "{strategy:?}");
            assert_eq!(m1.stats_snapshot().scrubs, scrubs, "{strategy:?}");
            assert_eq!(m0.stats_snapshot().scrubs, 0);
            m1.release(r).unwrap();
        }
    }

    #[test]
    fn sell_and_grant_move_ownership() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m0 = NodeSlotManager::new(0, 2, Arc::clone(&area), Distribution::RoundRobin, 4);
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::RoundRobin, 4);
        // Node 1 owns odd slots. Sell slot 1 and 3 to node 0.
        m1.sell(SlotRange::single(1)).unwrap();
        m1.sell(SlotRange::single(3)).unwrap();
        m0.grant(SlotRange::single(1));
        m0.grant(SlotRange::single(3));
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
        assert!(
            lent.iter().any(|r| r.end() == 64),
            "remainder peeled off the top: {lent:?}"
        );
        assert!(m0.adopt_batch(&lent));
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
            !m0.adopt_batch(&[SlotRange::new(1 << 40, 2)]),
            "out of area"
        );
        assert!(
            !m0.adopt_batch(&[SlotRange::new(60, usize::MAX)]),
            "overflow"
        );
        assert!(!m0.adopt_batch(&[SlotRange::new(0, 1)]), "already owned");
        // Overlap *within* one batch rolls the earlier range back out.
        assert!(!m0.adopt_batch(&[SlotRange::new(40, 2), SlotRange::new(41, 2)]));
        assert_eq!(m0.free_slots(), 32, "refusals leave no trace");
        assert!(m0.bitmap().all_clear(SlotRange::new(40, 4)));
        assert_eq!(m0.stats_snapshot().slots_adopted, 0);
        // A valid grant still lands.
        assert!(m0.adopt_batch(&[SlotRange::new(40, 2)]));
        assert_eq!(m0.free_slots(), 34);
    }

    #[test]
    fn lend_batch_without_contiguity_peels_top_singles() {
        let area = Arc::new(IsoArea::new(AreaConfig::small()).unwrap());
        let mut m1 = NodeSlotManager::new(1, 2, Arc::clone(&area), Distribution::RoundRobin, 0);
        // Round-robin node 1 owns the odd slots: no 2-run exists, so the
        // lender still fills the batch with top-end singles.
        let lent = m1.lend_batch(3, 2).unwrap();
        assert_eq!(
            lent,
            vec![
                SlotRange::single(63),
                SlotRange::single(61),
                SlotRange::single(59)
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
        m1.sell(r).unwrap();
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
        m.release_slots(base, 2).unwrap();
        let err = {
            let mut m2 = mgr(2, 0, 0);
            m2.acquire_slots(2).unwrap_err()
        };
        assert_eq!(err, IsoAddrError::NeedNegotiation { requested: 2 });
    }

    #[test]
    fn flush_cache_unmaps() {
        let mut m = mgr(1, 0, 8);
        let AcquireOutcome::Acquired(r, _) = m.try_acquire(1).unwrap() else {
            panic!()
        };
        m.release(r).unwrap();
        assert_eq!(m.cached_slots(), 1);
        m.flush_cache().unwrap();
        assert_eq!(m.cached_slots(), 0);
        assert_eq!(m.area().committed_slots(), 0);
    }
}
