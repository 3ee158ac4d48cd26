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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
    /// never when its owner carries it.  A decommit only marks its slots
    /// *stale*; the next fresh [`IsoArea::commit_slots`] of a stale slot
    /// zero-fills it, while [`IsoArea::recommit_slots`] — a migrated
    /// thread's arrival — maps it as it is, because the thread still owns
    /// it and the unpack rewrites every byte that means anything.
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
    /// One bit per slot, `Resident` only: 1 ⇔ the slot was decommitted with
    /// its last owner's bytes still in it.  A slot's bit is only ever
    /// touched by whoever holds its `mapped` bit — set just before the
    /// release in [`Self::decommit_slots`], taken just after the acquire in
    /// a commit — so the `AcqRel` hand-over of `mapped` is what publishes
    /// it, and its own accesses are `Relaxed`.
    stale: Vec<AtomicU64>,
    /// Running count of committed slots (for stats / leak checks).
    committed: AtomicUsize,
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

impl IsoArea {
    /// Reserve a fresh iso-address area with the default (Resident)
    /// strategy.
    pub fn new(cfg: AreaConfig) -> Result<Self> {
        Self::with_strategy(cfg, MapStrategy::Resident)
    }

    /// Reserve a fresh iso-address area with an explicit map strategy.
    pub fn with_strategy(cfg: AreaConfig, strategy: MapStrategy) -> Result<Self> {
        cfg.validate()?;
        let base = sys::reserve_anywhere(cfg.area_size())?;
        if strategy == MapStrategy::Resident {
            // One mprotect for the whole area; pages materialize on touch.
            // SAFETY: fresh reservation, exclusively ours.
            unsafe { sys::commit(base, cfg.area_size())? };
        }
        let table = || (0..cfg.n_slots.div_ceil(64)).map(|_| AtomicU64::new(0));
        Ok(IsoArea {
            base,
            cfg,
            strategy,
            mapped: table().collect(),
            stale: table().collect(),
            committed: AtomicUsize::new(0),
        })
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

    /// Number of slots currently committed process-wide.
    pub fn committed_slots(&self) -> usize {
        self.committed.load(Ordering::Relaxed)
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
        // Set bits one slot at a time, checking the previous value.  On
        // conflict, clear the prefix we set and report the violation.
        for idx in range.iter() {
            let (word, bit) = word_bit(idx);
            if self.mapped[word].fetch_or(bit, Ordering::AcqRel) & bit != 0 {
                for (word, bit) in (range.first..idx).map(word_bit) {
                    self.mapped[word].fetch_and(!bit, Ordering::AcqRel);
                }
                return Err(IsoAddrError::DoubleCommit(range));
            }
        }
        self.committed.fetch_add(range.count, Ordering::Relaxed);
        Ok(())
    }

    /// Atomically mark `range` as unmapped; error if any slot wasn't mapped.
    fn account_decommit(&self, range: SlotRange) -> Result<()> {
        // The mirror image of `account_commit`: on a slot that was not
        // mapped, set the prefix we cleared again, so a refused decommit
        // leaves the accounting as it found it.
        for idx in range.iter() {
            let (word, bit) = word_bit(idx);
            if self.mapped[word].fetch_and(!bit, Ordering::AcqRel) & bit == 0 {
                for (word, bit) in (range.first..idx).map(word_bit) {
                    self.mapped[word].fetch_or(bit, Ordering::AcqRel);
                }
                return Err(IsoAddrError::NotCommitted(range));
            }
        }
        self.committed.fetch_sub(range.count, Ordering::Relaxed);
        Ok(())
    }

    /// Take the stale bits of `range` (which the caller has just committed)
    /// and, if `scrub`, zero-fill each slot that had one.  Returns how many
    /// slots were zero-filled.  The only place a slot is ever scrubbed.
    fn take_stale(&self, range: SlotRange, scrub: bool) -> usize {
        let mut scrubbed = 0;
        for idx in range.iter() {
            let (word, bit) = word_bit(idx);
            let was_stale = self.stale[word].fetch_and(!bit, Ordering::Relaxed) & bit != 0;
            if was_stale && scrub {
                // SAFETY: the caller holds the `mapped` bit of `idx`, whose
                // acquire ordered the last owner's writes before this one,
                // and under `Resident` the whole area stays mapped RW.
                unsafe {
                    std::ptr::write_bytes(self.slot_addr(idx) as *mut u8, 0, self.slot_size())
                };
                scrubbed += 1;
            }
        }
        scrubbed
    }

    /// The one commit path, behind [`Self::commit_slots`] (`fresh`) and
    /// [`Self::recommit_slots`] (not): account, then map (`Syscall`) or
    /// settle the stale bits (`Resident`; `fresh` says whether stale bytes
    /// are scrubbed or kept).  Returns the number of slots zero-filled here
    /// — always 0 under `Syscall`, where the kernel dropped the pages.
    pub(crate) fn commit(&self, range: SlotRange, fresh: bool) -> Result<usize> {
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
                Ok(0)
            }
            MapStrategy::Resident => Ok(self.take_stale(range, fresh)),
        }
    }

    /// Commit (map read/write) the memory of `range` for a **new owner**:
    /// the range reads all-zero afterwards, under both strategies, whatever
    /// its history — including slots a thread surrendered and never
    /// re-adopted.  Under `Resident` that means zero-filling exactly the
    /// slots a decommit left stale.
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

    /// Decommit the memory of `range`: `Syscall` drops the pages; `Resident`
    /// only marks the slots stale, leaving the zero-fill to the next fresh
    /// commit — if there is one before the owner maps them back with
    /// [`Self::recommit_slots`].
    pub fn decommit_slots(&self, range: SlotRange) -> Result<()> {
        self.check_range(range)?;
        if self.strategy == MapStrategy::Resident {
            // Before the `mapped` bits are released, so that whoever
            // acquires one next sees its stale bit.  (On a range that then
            // turns out not to be committed the marks stay: they cost the
            // next committer of those slots one scrub, nothing else.)
            for (word, bit) in range.iter().map(word_bit) {
                self.stale[word].fetch_or(bit, Ordering::Relaxed);
            }
        }
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
}

impl Drop for IsoArea {
    fn drop(&mut self) {
        // SAFETY: we created the reservation in `new` and nothing may hold
        // references into a dropped area.
        unsafe {
            let _ = sys::release(self.base, self.cfg.area_size());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                assert_eq!(a.commit(s, true), Ok(scrubs), "{strategy:?}");
                assert!(bytes(&a, s).iter().all(|&b| b == 0), "{strategy:?}");
            }
            a.decommit_slots(r).unwrap();
            // A range nobody ever decommitted has nothing to scrub.
            assert_eq!(a.commit(SlotRange::new(20, 3), true), Ok(0));
        }
    }

    /// The ordering the stale-before-mapped store exists for: two OS threads
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
