//! The process-wide iso-address area (paper §3.1, §4.1 and Fig. 5).
//!
//! One [`IsoArea`] is reserved per "machine" (cluster simulation).  All
//! nodes of that machine allocate their slots *within the same reservation*,
//! which is exactly the paper's premise — "the iso-address area covers the
//! same virtual address range on all nodes" — taken to its logical extreme:
//! since a slot busy on one node is guaranteed free on every other node, the
//! nodes' live mappings never collide and can legally coexist in a single
//! address space.
//!
//! The area enforces that invariant at runtime: every commit
//! ([`IsoArea::commit_slots`] for a new owner, [`IsoArea::recommit_slots`]
//! for a migrated thread arriving with its slots) atomically records which
//! slots are mapped process-wide and fails loudly on any overlap.  A
//! passing test suite is therefore a machine-checked proof that the
//! slot-ownership protocol never double-allocates an address.
//!
//! The accounting is one bit per slot, updated a 64-slot word at a time: a
//! range that fits one word — every range a hop moves — costs one atomic
//! read-modify-write to commit and one to decommit.  Under
//! [`MapStrategy::Resident`] each slot also has a *dirty length*: how many
//! bytes from its start may hold an earlier owner's bytes (a slot with a
//! non-zero length is *stale*).  Only a fresh commit reads or takes a
//! length; a decommit raises it only where the departing owner wrote past
//! it, and a migrated thread's arrival leaves it alone, so a slot that hops
//! keeps its mark and its hops touch nothing but `mapped`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::error::{IsoAddrError, Result};
use crate::layout::AreaConfig;
use crate::slots::{SlotRange, VAddr};
use crate::sys;

/// How logical commit/decommit of slots maps onto the host kernel.
///
/// The paper's nodes `mmap`/`munmap` slots directly (§4.1), and §6 already
/// introduces a cache of mmapped slots *because those syscalls are the
/// dominant cost*.  Sandboxed or virtualized kernels can make each page-
/// table operation 100×+ slower than the paper's hardware, which would put
/// host-kernel artifacts — not the algorithms — in every measurement, so
/// the area supports two strategies.  Both run the same double-commit
/// accounting and both promise that **a fresh commit reads zeroes**; they
/// differ only in what a stray read of an *uncommitted* slot returns (see
/// the `strategy_equivalence` test):
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapStrategy {
    /// Faithful syscalls: commit = `mprotect(RW)`, decommit = fresh
    /// `mmap(PROT_NONE, MAP_FIXED)` dropping the pages.  Reads of
    /// uncommitted slots fault, exactly like the paper's system.
    Syscall,
    /// The whole area is committed read/write once at reservation and
    /// logical commit/decommit are accounting only — the paper's §6
    /// mmap-avoidance taken to its limit, and the default.  Zero-fill
    /// follows **ownership**: a slot is scrubbed when it changes owner,
    /// never when its owner carries it.  A decommit only records how far
    /// into each slot its owner can have written; the next fresh
    /// [`IsoArea::commit_slots`] zero-fills that prefix, while
    /// [`IsoArea::recommit_slots`] — a migrated thread's arrival — maps it
    /// as it is, because the thread still owns it and the unpack rewrites
    /// every byte that means anything.  And zero-fill follows **writes**: a
    /// tail no owner wrote still reads zero, so it is neither filled nor
    /// paged in — like a fresh `mmap`, whose untouched pages cost nothing.
    /// Relaxation: a stray read of an uncommitted slot neither faults (as
    /// under `Syscall`) nor reads zeroes — it sees the last owner's stale
    /// bytes.  The invariant checker is unchanged and still catches any
    /// double *commit*.
    Resident,
}

/// A reserved iso-address area divided into fixed-size slots.
pub struct IsoArea {
    base: VAddr,
    cfg: AreaConfig,
    strategy: MapStrategy,
    /// One bit per slot: 1 ⇔ currently committed (mapped R/W) by some node.
    /// This is *process-global accounting*, not ownership — ownership lives
    /// in the per-node bitmaps and per-thread slot lists.
    mapped: Vec<AtomicU64>,
    /// Byte length of the reservation at `base`: the slots, then — under
    /// `Resident` only — one `u32` per slot, the slot's *dirty length*: how
    /// many bytes from its start an earlier owner can have written (beyond
    /// it the slot reads zero; 0 means the slot is clean).  Raised by a
    /// decommit or by [`Self::note_written`], taken by a fresh commit just
    /// after the acquire, left as it is by [`Self::recommit_slots`] — the
    /// owner is the same, and the length is still right when it lets the
    /// slot go again.  A slot's length is only ever touched by whoever
    /// holds the slot, so the `AcqRel` hand-over of `mapped` is what
    /// publishes it, and its own accesses are `Relaxed`.  The lengths share
    /// the slots' one mapping and its one `mprotect`, so they read zero
    /// without being written and page in only where one is stored:
    /// launching a machine touches none of them.
    reserved: usize,
}

/// What a fresh commit zero-filled: the slots that had a dirty length, and
/// the bytes those lengths covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scrub {
    /// Slots zero-filled.
    pub slots: usize,
    /// Bytes zero-filled, over all of them.
    pub bytes: usize,
}

// SAFETY: all mutation goes through atomics; the raw memory behind `base`
// is handed out in disjoint slot ranges guarded by `mapped`.
unsafe impl Send for IsoArea {}
unsafe impl Sync for IsoArea {}

/// Word index and mask of slot `idx` in a one-bit-per-slot table.
#[inline]
fn word_bit(idx: usize) -> (usize, u64) {
    (idx / 64, 1u64 << (idx % 64))
}

/// The words of a one-bit-per-slot table that `range` covers, in order,
/// each with the mask of the range's slots in it.
#[inline]
fn word_masks(range: SlotRange) -> impl Iterator<Item = (usize, u64)> {
    let (first, end) = (range.first, range.end());
    (first / 64..end.div_ceil(64)).map(move |word| {
        let lo = first.max(word * 64) - word * 64;
        let bits = end.min(word * 64 + 64) - word * 64 - lo;
        let mask = if bits == 64 {
            !0
        } else {
            ((1u64 << bits) - 1) << lo
        };
        (word, mask)
    })
}

impl IsoArea {
    /// Reserve a fresh iso-address area with the default (Resident)
    /// strategy.
    pub fn new(cfg: AreaConfig) -> Result<Self> {
        Self::with_strategy(cfg, MapStrategy::Resident)
    }

    /// Reserve a fresh iso-address area with an explicit map strategy.
    pub fn with_strategy(cfg: AreaConfig, strategy: MapStrategy) -> Result<Self> {
        cfg.validate()?;
        let lengths = match strategy {
            MapStrategy::Resident => {
                (cfg.n_slots * std::mem::size_of::<AtomicU32>()).next_multiple_of(sys::page_size())
            }
            MapStrategy::Syscall => 0,
        };
        // Built before the commit below, so that a failed one drops it and
        // gives the reservation back.
        let area = IsoArea {
            base: sys::reserve_anywhere(cfg.area_size() + lengths)?,
            cfg,
            strategy,
            mapped: (0..cfg.n_slots.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            reserved: cfg.area_size() + lengths,
        };
        if strategy == MapStrategy::Resident {
            // One mprotect for the slots and their dirty lengths; pages
            // materialize on touch.
            // SAFETY: fresh reservation, exclusively ours.
            unsafe { sys::commit(area.base, area.reserved)? };
        }
        Ok(area)
    }

    /// The dirty length of slot `idx` (`Resident` only).
    #[inline]
    fn dirty(&self, idx: usize) -> &AtomicU32 {
        debug_assert!(self.strategy == MapStrategy::Resident && idx < self.cfg.n_slots);
        // SAFETY: under `Resident` the reservation maps one zero-initialised
        // `u32` per slot, page-aligned, right after the slots for the
        // area's lifetime, and `AtomicU32` has the layout and bit validity
        // of `u32`.
        unsafe { &*((self.base + self.cfg.area_size()) as *const AtomicU32).add(idx) }
    }

    /// The map strategy in force.
    pub fn strategy(&self) -> MapStrategy {
        self.strategy
    }

    /// Base virtual address of the area.
    pub fn base(&self) -> VAddr {
        self.base
    }

    /// Geometry of the area.
    pub fn config(&self) -> AreaConfig {
        self.cfg
    }

    /// Slot size in bytes.
    #[inline]
    pub fn slot_size(&self) -> usize {
        self.cfg.slot_size
    }

    /// Total number of slots.
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.cfg.n_slots
    }

    /// Virtual address of the first byte of slot `idx`.
    #[inline]
    pub fn slot_addr(&self, idx: usize) -> VAddr {
        debug_assert!(idx < self.cfg.n_slots);
        self.base + idx * self.cfg.slot_size
    }

    /// Virtual address range `[start, end)` of a slot range.
    pub fn range_addr(&self, range: SlotRange) -> (VAddr, VAddr) {
        (
            self.slot_addr(range.first),
            self.slot_addr(range.first) + range.count * self.slot_size(),
        )
    }

    /// Slot index containing virtual address `addr`.
    pub fn slot_of(&self, addr: VAddr) -> Result<usize> {
        if addr < self.base || addr >= self.base + self.cfg.area_size() {
            return Err(IsoAddrError::OutOfArea(addr));
        }
        Ok((addr - self.base) / self.cfg.slot_size)
    }

    /// Does `addr` fall inside the area?
    pub fn contains(&self, addr: VAddr) -> bool {
        addr >= self.base && addr < self.base + self.cfg.area_size()
    }

    /// Number of slots currently committed process-wide: the set bits of
    /// the accounting table, counted now (for tests and audits — no commit
    /// keeps a running total).
    pub fn committed_slots(&self) -> usize {
        self.mapped
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Reject an empty range or one that leaves the area.
    fn check_range(&self, range: SlotRange) -> Result<()> {
        if range.count == 0 || range.end() > self.cfg.n_slots {
            return Err(IsoAddrError::BadConfig(format!("bad slot range {range:?}")));
        }
        Ok(())
    }

    /// Atomically mark `range` as mapped; error if any slot already was.
    fn account_commit(&self, range: SlotRange) -> Result<()> {
        // Set a word's bits at once, checking the previous value.  On
        // conflict, clear what this call set — the bits of this word that
        // were clear, every bit of the words before — and report it.
        for (word, mask) in word_masks(range) {
            let prev = self.mapped[word].fetch_or(mask, Ordering::AcqRel);
            if prev & mask != 0 {
                self.mapped[word].fetch_and(!(mask & !prev), Ordering::AcqRel);
                for (earlier, mask) in word_masks(range).take_while(|&(w, _)| w < word) {
                    self.mapped[earlier].fetch_and(!mask, Ordering::AcqRel);
                }
                return Err(IsoAddrError::DoubleCommit(range));
            }
        }
        Ok(())
    }

    /// Atomically mark `range` as unmapped; error if any slot wasn't mapped.
    fn account_decommit(&self, range: SlotRange) -> Result<()> {
        // The mirror image of `account_commit`: on a slot that was not
        // mapped, set again what this call cleared, so a refused decommit
        // leaves the accounting as it found it.
        for (word, mask) in word_masks(range) {
            let prev = self.mapped[word].fetch_and(!mask, Ordering::AcqRel);
            if prev & mask != mask {
                self.mapped[word].fetch_or(prev & mask, Ordering::AcqRel);
                for (earlier, mask) in word_masks(range).take_while(|&(w, _)| w < word) {
                    self.mapped[earlier].fetch_or(mask, Ordering::AcqRel);
                }
                return Err(IsoAddrError::NotCommitted(range));
            }
        }
        Ok(())
    }

    /// Take the dirty lengths of `range` (which the caller has just
    /// committed for a new owner) and zero-fill the prefix each one covers,
    /// resetting it.  The only place a slot is ever scrubbed, and the only
    /// reader of a length besides the stores that raise it.
    fn take_stale(&self, range: SlotRange) -> Scrub {
        let mut scrub = Scrub::default();
        for idx in range.iter() {
            let dirty = self.dirty(idx);
            let len = dirty.load(Ordering::Relaxed) as usize;
            if len == 0 {
                continue;
            }
            dirty.store(0, Ordering::Relaxed);
            // SAFETY: the caller holds the `mapped` bit of `idx`, whose
            // acquire ordered the last owner's writes before this one,
            // under `Resident` the whole area stays mapped RW, and a length
            // never exceeds the slot.
            unsafe { std::ptr::write_bytes(self.slot_addr(idx) as *mut u8, 0, len) };
            scrub.slots += 1;
            scrub.bytes += len;
        }
        scrub
    }

    /// Record that the owner of `range`, which still holds it, wrote
    /// nothing at or past `written` bytes from its start, raising each
    /// slot's dirty length where the owner wrote past it (`Resident` only;
    /// a no-op under `Syscall`).  A slot's length only grows here — an
    /// earlier owner's bytes may still lie past this one's — and slots the
    /// owner never reached are left as they are.  Stored only where it
    /// grows, so a slot that hops, its length already covering its owner's
    /// mark, costs a load.
    ///
    /// [`Self::decommit_written`] calls it; a node that keeps a released
    /// slot committed in its cache calls it directly, so that the slot's
    /// next owner, who gets it without a commit, inherits the length.
    pub(crate) fn note_written(&self, range: SlotRange, written: usize) -> Result<()> {
        self.check_range(range)?;
        if self.strategy == MapStrategy::Resident {
            let slot_size = self.slot_size();
            for (i, idx) in range.iter().enumerate() {
                let len = written.saturating_sub(i * slot_size).min(slot_size) as u32;
                if len == 0 {
                    break;
                }
                let dirty = self.dirty(idx);
                if dirty.load(Ordering::Relaxed) < len {
                    dirty.store(len, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }

    /// The one commit path, behind [`Self::commit_slots`] (`fresh`) and
    /// [`Self::recommit_slots`] (not): account, then map (`Syscall`) or, for
    /// a fresh commit under `Resident`, scrub the stale slots.  Returns what
    /// was zero-filled here — nothing under `Syscall`, where the kernel
    /// dropped the pages, and nothing for a recommit, which keeps the
    /// owner's bytes and leaves the marks alone.
    pub(crate) fn commit(&self, range: SlotRange, fresh: bool) -> Result<Scrub> {
        self.check_range(range)?;
        self.account_commit(range)?;
        match self.strategy {
            MapStrategy::Syscall => {
                let (start, end) = self.range_addr(range);
                // SAFETY: the accounting above guarantees exclusive use of
                // the range within this area's reservation.
                if let Err(e) = unsafe { sys::commit(start, end - start) } {
                    let _ = self.account_decommit(range);
                    return Err(e);
                }
                Ok(Scrub::default())
            }
            MapStrategy::Resident if fresh => Ok(self.take_stale(range)),
            MapStrategy::Resident => Ok(Scrub::default()),
        }
    }

    /// Commit (map read/write) the memory of `range` for a **new owner**:
    /// the range reads all-zero afterwards, under both strategies, whatever
    /// its history — including slots a thread surrendered and never
    /// re-adopted.  Under `Resident` that means zero-filling exactly the
    /// prefixes that decommits recorded as written.
    ///
    /// Fails with [`IsoAddrError::DoubleCommit`] if any slot of the range is
    /// already mapped anywhere in the process — the iso-address invariant.
    pub fn commit_slots(&self, range: SlotRange) -> Result<VAddr> {
        self.commit(range, true)
            .map(|_| self.slot_addr(range.first))
    }

    /// Commit the memory of `range` for the **owner that decommitted it** —
    /// a migrating thread arriving with its slots.  Same accounting and the
    /// same [`IsoAddrError::DoubleCommit`] check as [`Self::commit_slots`],
    /// but nothing is scrubbed: under `Resident` the range holds whatever
    /// the address last held in this process, and the caller's unpack is
    /// what gives its extents meaning (under `Syscall` it reads zero, as
    /// any mapping does).
    pub fn recommit_slots(&self, range: SlotRange) -> Result<VAddr> {
        self.commit(range, false)
            .map(|_| self.slot_addr(range.first))
    }

    /// Decommit the memory of `range`, whose owner can have written any of
    /// it: [`Self::decommit_written`] over the whole range.
    pub fn decommit_slots(&self, range: SlotRange) -> Result<()> {
        self.decommit_written(range, range.count.saturating_mul(self.slot_size()))
    }

    /// Decommit the memory of `range`, whose owner wrote nothing at or past
    /// `written` bytes from its start: `Syscall` drops the pages; `Resident`
    /// only records, slot by slot, how far the owner can have written (a
    /// slot's length only grows), leaving the zero-fill of that prefix to
    /// the next fresh commit — if there is one before the owner maps the
    /// range back with [`Self::recommit_slots`].
    pub fn decommit_written(&self, range: SlotRange, written: usize) -> Result<()> {
        // Before the `mapped` bits are released, so that whoever acquires
        // one next sees its length.  (On a range that then turns out not to
        // be committed the lengths stay: they cost the next committer of
        // those slots a scrub, nothing else.)
        self.note_written(range, written)?;
        self.account_decommit(range)?;
        if self.strategy == MapStrategy::Syscall {
            let (start, end) = self.range_addr(range);
            // SAFETY: accounting says we own the only mapping of the range.
            unsafe { sys::decommit(start, end - start)? };
        }
        Ok(())
    }

    /// Is slot `idx` currently committed (mapped) process-wide?
    pub fn is_committed(&self, idx: usize) -> bool {
        let (word, bit) = word_bit(idx);
        self.mapped[word].load(Ordering::Acquire) & bit != 0
    }

    /// Which pages of `range` are resident in memory, one entry per page —
    /// what a zero-fill or a touch paged in.  For tests.
    #[doc(hidden)]
    pub fn resident_pages(&self, range: SlotRange) -> Result<Vec<bool>> {
        self.check_range(range)?;
        let (start, end) = self.range_addr(range);
        sys::resident_pages(start, end - start)
    }
}

impl Drop for IsoArea {
    fn drop(&mut self) {
        // SAFETY: we created the reservation in `new` and nothing may hold
        // references into a dropped area.
        unsafe {
            let _ = sys::release(self.base, self.reserved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn small_area() -> IsoArea {
        IsoArea::new(AreaConfig::small()).unwrap()
    }

    /// Every byte of `range`, which the caller holds committed.
    fn bytes(a: &IsoArea, range: SlotRange) -> &[u8] {
        let (start, end) = a.range_addr(range);
        unsafe { std::slice::from_raw_parts(start as *const u8, end - start) }
    }

    fn fill(a: &IsoArea, range: SlotRange, byte: u8) {
        let (start, end) = a.range_addr(range);
        unsafe { std::ptr::write_bytes(start as *mut u8, byte, end - start) };
    }

    #[test]
    fn geometry() {
        let a = small_area();
        assert_eq!(a.n_slots(), 64);
        assert_eq!(a.slot_addr(0), a.base());
        assert_eq!(a.slot_addr(1), a.base() + a.slot_size());
        assert_eq!(a.slot_of(a.base()).unwrap(), 0);
        assert_eq!(a.slot_of(a.base() + a.slot_size() * 3 + 17).unwrap(), 3);
        assert!(a.slot_of(a.base() - 1).is_err());
        assert!(a.slot_of(a.base() + a.config().area_size()).is_err());
    }

    #[test]
    fn commit_write_read_decommit() {
        let a = small_area();
        let r = SlotRange::new(5, 2);
        let addr = a.commit_slots(r).unwrap();
        assert_eq!(addr, a.slot_addr(5));
        assert_eq!(a.committed_slots(), 2);
        unsafe {
            let p = addr as *mut u8;
            std::ptr::write_bytes(p, 0xAB, a.slot_size() * 2);
            assert_eq!(p.add(a.slot_size() * 2 - 1).read(), 0xAB);
        }
        a.decommit_slots(r).unwrap();
        assert_eq!(a.committed_slots(), 0);
    }

    #[test]
    fn double_commit_is_detected() {
        let a = small_area();
        a.commit_slots(SlotRange::new(10, 4)).unwrap();
        // Exact overlap.
        assert_eq!(
            a.commit_slots(SlotRange::new(10, 4)),
            Err(IsoAddrError::DoubleCommit(SlotRange::new(10, 4)))
        );
        // Partial overlap; roll-back must leave non-overlapping part free.
        assert!(a.commit_slots(SlotRange::new(13, 2)).is_err());
        a.commit_slots(SlotRange::new(14, 2)).unwrap();
        assert_eq!(a.committed_slots(), 6);
    }

    /// The decommit side of the roll-back above: a range whose tail is not
    /// committed is refused whole, its committed head left as it was.
    #[test]
    fn partial_decommit_is_rolled_back() {
        let a = small_area();
        a.commit_slots(SlotRange::new(10, 4)).unwrap();
        assert_eq!(
            a.decommit_slots(SlotRange::new(12, 4)),
            Err(IsoAddrError::NotCommitted(SlotRange::new(12, 4)))
        );
        assert_eq!(a.committed_slots(), 4);
        assert!((10..14).all(|s| a.is_committed(s)));
        assert!(!a.is_committed(14));
        a.decommit_slots(SlotRange::new(10, 4)).unwrap();
        assert_eq!(a.committed_slots(), 0);
    }

    #[test]
    fn decommit_unmapped_is_detected() {
        let a = small_area();
        assert!(matches!(
            a.decommit_slots(SlotRange::new(0, 1)),
            Err(IsoAddrError::NotCommitted(_))
        ));
    }

    #[test]
    fn fresh_commit_is_zeroed() {
        let a = small_area();
        let r = SlotRange::single(7);
        let addr = a.commit_slots(r).unwrap();
        unsafe {
            (addr as *mut u64).write(0x1122_3344_5566_7788);
        }
        a.decommit_slots(r).unwrap();
        let addr = a.commit_slots(r).unwrap();
        unsafe {
            assert_eq!((addr as *const u64).read(), 0, "decommit must drop pages");
        }
        a.decommit_slots(r).unwrap();
    }

    /// The ownership rule: the owner that decommitted a range gets its
    /// bytes back with `recommit_slots` (`Resident`; under `Syscall` the
    /// kernel dropped them and the unpack restores what matters), and a new
    /// owner's `commit_slots` reads zero over the whole range either way.
    #[test]
    fn recommit_keeps_the_owners_bytes_and_a_fresh_commit_scrubs_them() {
        for strategy in [MapStrategy::Resident, MapStrategy::Syscall] {
            let a = IsoArea::with_strategy(AreaConfig::small(), strategy).unwrap();
            let r = SlotRange::new(6, 2);
            a.commit_slots(r).unwrap();
            fill(&a, r, 0xAB);
            a.decommit_slots(r).unwrap();
            assert_eq!(a.recommit_slots(r).unwrap(), a.slot_addr(6));
            // What the owner finds, and what a new owner's commit costs.
            let (kept, scrubs) = match strategy {
                MapStrategy::Resident => (0xAB, 1),
                MapStrategy::Syscall => (0, 0),
            };
            assert!(bytes(&a, r).iter().all(|&b| b == kept), "{strategy:?}");
            assert_eq!(a.recommit_slots(r), Err(IsoAddrError::DoubleCommit(r)));
            fill(&a, r, 0xCD);
            a.decommit_slots(r).unwrap();
            // A new owner takes one slot of the range, then another the
            // other: each reads zero from its first byte to its last.
            for s in r.iter().map(SlotRange::single) {
                assert_eq!(
                    a.commit(s, true).map(|s| s.slots),
                    Ok(scrubs),
                    "{strategy:?}"
                );
                assert!(bytes(&a, s).iter().all(|&b| b == 0), "{strategy:?}");
            }
            a.decommit_slots(r).unwrap();
            // A range nobody ever decommitted has nothing to scrub.
            assert_eq!(a.commit(SlotRange::new(20, 3), true), Ok(Scrub::default()));
        }
    }

    /// The ordering the length-before-mapped store exists for: two OS threads
    /// hand one slot back and forth with nothing between them but the
    /// area's own accounting.  Each spins on `commit_slots` while the other
    /// still holds the slot, and whoever wins must read only zeroes however
    /// closely its commit followed the other's decommit.
    #[test]
    fn a_commit_racing_a_decommit_still_reads_zero() {
        const ROUNDS: usize = 4000;
        let a = small_area();
        let r = SlotRange::single(9);
        let turn = AtomicUsize::new(0);
        // Counted, not asserted in place: a thread that stopped mid-game
        // would leave its peer waiting for a turn that never comes.
        let dirty = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for me in 0..2 {
                let (a, turn, dirty) = (&a, &turn, &dirty);
                s.spawn(move || {
                    for round in (me..ROUNDS).step_by(2) {
                        // `Relaxed`: the turn only paces the threads; the
                        // slot's bytes are published by the area alone.
                        while turn.load(Ordering::Relaxed) != round {
                            std::thread::yield_now();
                        }
                        while a.commit_slots(r).is_err() {
                            std::hint::spin_loop();
                        }
                        if bytes(a, r).iter().any(|&b| b != 0) {
                            dirty.fetch_add(1, Ordering::Relaxed);
                        }
                        fill(a, r, 0x80 | me as u8);
                        // Let the peer start hammering before we let go.
                        turn.store(round + 1, Ordering::Relaxed);
                        a.decommit_slots(r).unwrap();
                    }
                });
            }
        });
        assert_eq!(dirty.into_inner(), 0, "commits that read a peer's bytes");
        assert_eq!(a.committed_slots(), 0);
    }

    /// A hop leaves the stale mark alone: the slot keeps it through a
    /// thousand surrenders and arrivals of its owner, which scrub nothing
    /// and see their bytes; once the owner lets it go, the next owner's
    /// fresh commit takes the mark and reads zero.
    #[test]
    fn a_slot_that_hops_keeps_its_mark_until_a_new_owner_commits_it() {
        let a = small_area();
        let r = SlotRange::single(40);
        let marked = |a: &IsoArea| a.dirty(40).load(Ordering::Relaxed) != 0;
        assert_eq!(a.commit(r, true), Ok(Scrub::default()));
        assert!(!marked(&a));
        fill(&a, r, 0x5A);
        for hop in 0..1000 {
            a.decommit_slots(r).unwrap();
            assert!(marked(&a), "hop {hop}: surrendered");
            assert_eq!(
                a.commit(r, false),
                Ok(Scrub::default()),
                "hop {hop}: an arrival scrubs nothing"
            );
            assert!(marked(&a), "hop {hop}: arrived");
        }
        assert!(bytes(&a, r).iter().all(|&b| b == 0x5A), "the owner's bytes");
        a.decommit_slots(r).unwrap();
        assert_eq!(
            a.commit(r, true).map(|s| s.slots),
            Ok(1),
            "the new owner's commit scrubs"
        );
        assert!(bytes(&a, r).iter().all(|&b| b == 0));
        assert!(!marked(&a));
        a.decommit_slots(r).unwrap();
    }

    /// Zero-fill follows writes: a decommit records how far into each slot
    /// its owner can have written, a later decommit only ever raises that,
    /// and the next fresh commit fills exactly those prefixes — the range
    /// still reads zero from its first byte to its last, and a range nobody
    /// wrote costs nothing.
    #[test]
    fn a_fresh_commit_fills_only_what_earlier_owners_wrote() {
        let a = small_area();
        let ss = a.slot_size();
        let r = SlotRange::new(8, 3);
        a.commit_slots(r).unwrap();
        let (start, _) = a.range_addr(r);
        unsafe { std::ptr::write_bytes(start as *mut u8, 0xEE, ss + 100) };
        a.decommit_written(r, ss + 100).unwrap();
        // Its owner carries it and lets it go again having written less:
        // the earlier bytes are still there, and so is their length.
        a.recommit_slots(r).unwrap();
        a.decommit_written(r, 10).unwrap();
        let scrub = a.commit(r, true).unwrap();
        assert_eq!(
            scrub,
            Scrub {
                slots: 2,
                bytes: ss + 100
            }
        );
        assert!(bytes(&a, r).iter().all(|&b| b == 0));
        a.decommit_written(r, 0).unwrap();
        assert_eq!(a.commit(r, true), Ok(Scrub::default()));
        a.decommit_slots(r).unwrap();
        let scrub = a.commit(r, true).unwrap();
        assert_eq!(
            scrub,
            Scrub {
                slots: 3,
                bytes: 3 * ss
            },
            "no extent: the whole range"
        );
        a.decommit_slots(r).unwrap();
    }

    /// `committed_slots` is counted from the accounting table itself, so it
    /// is exact after any mix of commits, recommits, decommits, refusals and
    /// their rollbacks — ranges inside one word, across two, over whole
    /// words — checked slot by slot against a model.
    #[test]
    fn committed_slots_counts_the_table_through_refusals_and_rollbacks() {
        let cfg = AreaConfig {
            n_slots: 300,
            ..AreaConfig::small()
        };
        let a = IsoArea::new(cfg).unwrap();
        let mut model = vec![false; cfg.n_slots];
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |below: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % below as u64) as usize
        };
        let (mut refused, mut done) = (0, 0);
        for step in 0..20_000 {
            let count = [1, 1, 2, 3, 7, 64, 70, 130][next(8)];
            let r = SlotRange::new(next(cfg.n_slots - count + 1), count);
            let held = r.iter().filter(|&s| model[s]).count();
            let (outcome, ok) = match next(3) {
                0 => (a.commit(r, true).map(|_| ()), held == 0),
                1 => (a.commit(r, false).map(|_| ()), held == 0),
                _ => (a.decommit_slots(r), held == count),
            };
            assert_eq!(outcome.is_ok(), ok, "step {step}: {r:?} with {held} held");
            if ok {
                let commit = held == 0;
                r.iter().for_each(|s| model[s] = commit);
                done += 1;
            } else {
                refused += 1;
            }
            let want = model.iter().filter(|&&m| m).count();
            assert_eq!(a.committed_slots(), want, "step {step}");
            if step % 1000 == 0 {
                assert!((0..cfg.n_slots).all(|s| a.is_committed(s) == model[s]));
            }
        }
        assert!(
            refused > 1000 && done > 1000,
            "{refused} refused, {done} done"
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let a = small_area();
        assert!(a.commit_slots(SlotRange::new(63, 2)).is_err());
        assert!(a.commit_slots(SlotRange::new(0, 0)).is_err());
    }

    /// Both strategies run the same accounting and make the same promise
    /// to a committer.  The one documented difference is what a stray read
    /// of an *uncommitted* slot returns: a fault under `Syscall`, the last
    /// owner's bytes under `Resident`.
    #[test]
    fn strategy_equivalence() {
        for strategy in [MapStrategy::Syscall, MapStrategy::Resident] {
            let a = IsoArea::with_strategy(AreaConfig::small(), strategy).unwrap();
            assert_eq!(a.strategy(), strategy);
            let r = SlotRange::new(3, 2);
            let addr = a.commit_slots(r).unwrap();
            unsafe {
                // Fresh commit reads zero; writes stick.
                assert_eq!((addr as *const u64).read(), 0, "{strategy:?}");
                (addr as *mut u64).write(0xA5A5);
            }
            // Double commit detected identically.
            assert!(matches!(
                a.commit_slots(SlotRange::new(4, 1)),
                Err(IsoAddrError::DoubleCommit(_))
            ));
            a.decommit_slots(r).unwrap();
            // Decommit of unmapped detected identically.
            assert!(a.decommit_slots(r).is_err());
            // The difference.  (Under `Syscall` this read would fault.)
            if strategy == MapStrategy::Resident {
                unsafe { assert_eq!((addr as *const u64).read(), 0xA5A5) };
            }
            // Fresh commit reads zero again (pages dropped / scrubbed).
            let addr = a.commit_slots(r).unwrap();
            unsafe { assert_eq!((addr as *const u64).read(), 0, "{strategy:?}") };
            a.decommit_slots(r).unwrap();
            assert_eq!(a.committed_slots(), 0);
        }
    }

    #[test]
    fn syscall_strategy_still_maps_and_unmaps() {
        let a = IsoArea::with_strategy(AreaConfig::small(), MapStrategy::Syscall).unwrap();
        let r = SlotRange::single(0);
        let addr = a.commit_slots(r).unwrap();
        unsafe {
            std::ptr::write_bytes(addr as *mut u8, 0xEE, a.slot_size());
        }
        a.decommit_slots(r).unwrap();
        // (Reading now would fault — that is the point of Syscall mode.)
        let addr = a.commit_slots(r).unwrap();
        unsafe { assert_eq!((addr as *const u8).read(), 0) };
        a.decommit_slots(r).unwrap();
    }

    #[test]
    fn concurrent_commit_same_slot_only_one_wins() {
        use std::sync::Arc;
        let a = Arc::new(small_area());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                a.commit_slots(SlotRange::new(20, 3)).is_ok() as usize
            }));
        }
        let wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(wins, 1);
        assert_eq!(a.committed_slots(), 3);
    }
}
