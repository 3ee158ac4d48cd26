//! Slot-layer statistics.
//!
//! Counters are atomics so that the host (bench harness, audits) can read
//! them while node schedulers are running.  Every counter is monotonically
//! increasing; derive rates by snapshotting twice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, live statistics for one node's slot manager.
#[derive(Debug, Default)]
pub struct SlotStats {
    /// Single-slot acquisitions satisfied from the local bitmap.
    pub local_acquires: AtomicU64,
    /// Multi-slot (contiguous) acquisitions satisfied locally.
    pub multi_acquires: AtomicU64,
    /// Acquisitions that had to report "negotiation required".
    pub negotiation_required: AtomicU64,
    /// Slot releases (ownership returned to this node).
    pub releases: AtomicU64,
    /// Single-slot acquisitions served by the mmapped-slot cache (no mmap).
    pub cache_hits: AtomicU64,
    /// Single-slot acquisitions that had to mmap.
    pub cache_misses: AtomicU64,
    /// Slots this node sold to other nodes during negotiations.
    pub slots_sold: AtomicU64,
    /// Slots this node bought from other nodes during negotiations.
    pub slots_bought: AtomicU64,
    /// Slots this node lent to peers through point-to-point slot trades.
    pub slots_lent: AtomicU64,
    /// Slots this node adopted from peers through slot trades.
    pub slots_adopted: AtomicU64,
    /// mmap (commit) calls issued.
    pub commits: AtomicU64,
    /// munmap-equivalent (decommit) calls issued.
    pub decommits: AtomicU64,
    /// Slots zero-filled by a fresh commit because their last owner left
    /// bytes in them (`MapStrategy::Resident`; the kernel scrubs under
    /// `Syscall`, so it stays 0 there).  A migration adds none.
    pub scrubs: AtomicU64,
}

impl SlotStats {
    /// Fresh zeroed stats behind an `Arc`.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> SlotStatsSnapshot {
        SlotStatsSnapshot {
            local_acquires: self.local_acquires.load(Ordering::Relaxed),
            multi_acquires: self.multi_acquires.load(Ordering::Relaxed),
            negotiation_required: self.negotiation_required.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            slots_sold: self.slots_sold.load(Ordering::Relaxed),
            slots_bought: self.slots_bought.load(Ordering::Relaxed),
            slots_lent: self.slots_lent.load(Ordering::Relaxed),
            slots_adopted: self.slots_adopted.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            decommits: self.decommits.load(Ordering::Relaxed),
            scrubs: self.scrubs.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`SlotStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStatsSnapshot {
    pub local_acquires: u64,
    pub multi_acquires: u64,
    pub negotiation_required: u64,
    pub releases: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub slots_sold: u64,
    pub slots_bought: u64,
    pub slots_lent: u64,
    pub slots_adopted: u64,
    pub commits: u64,
    pub decommits: u64,
    pub scrubs: u64,
}

impl std::fmt::Display for SlotStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "acquires: {} local / {} multi / {} needing negotiation; releases: {}; \
             cache: {} hits / {} misses; negotiated: {} sold / {} bought; \
             traded: {} lent / {} adopted; mmap: {} commits / {} decommits / {} scrubs",
            self.local_acquires,
            self.multi_acquires,
            self.negotiation_required,
            self.releases,
            self.cache_hits,
            self.cache_misses,
            self.slots_sold,
            self.slots_bought,
            self.slots_lent,
            self.slots_adopted,
            self.commits,
            self.decommits,
            self.scrubs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = SlotStats::default();
        SlotStats::bump(&s.local_acquires);
        SlotStats::bump(&s.local_acquires);
        SlotStats::add(&s.slots_sold, 5);
        let snap = s.snapshot();
        assert_eq!(snap.local_acquires, 2);
        assert_eq!(snap.slots_sold, 5);
        assert_eq!(snap.cache_hits, 0);
        // Display shouldn't panic and should mention the numbers.
        let text = snap.to_string();
        assert!(text.contains("2 local"));
    }
}
