//! Slot-layer statistics.
//!
//! Declared once with `counters!` (the crate's `counters` module): atomics
//! so the host (bench harness, audits) can read them while node schedulers
//! run.  Every counter is monotonically increasing and nothing resets it;
//! a window is `after.since(&before)` of two [`SlotStats::snapshot`]s.

counters! {
    /// Shared, live statistics for one node's slot manager.
    pub struct SlotStats;
    /// Plain-data snapshot of [`SlotStats`].
    pub struct SlotStatsSnapshot {
        /// Single-slot acquisitions satisfied from the local bitmap.
        local_acquires,
        /// Multi-slot (contiguous) acquisitions satisfied locally.
        multi_acquires,
        /// Acquisitions that had to report "negotiation required".
        negotiation_required,
        /// Slot releases (ownership returned to this node).
        releases,
        /// Single-slot acquisitions served by the mmapped-slot cache (no mmap).
        cache_hits,
        /// Single-slot acquisitions that had to mmap.
        cache_misses,
        /// Slots this node sold to other nodes during negotiations.
        slots_sold,
        /// Slots this node bought from other nodes during negotiations.
        slots_bought,
        /// Slots this node lent to peers through point-to-point slot trades.
        slots_lent,
        /// Slots this node adopted from peers through slot trades.
        slots_adopted,
        /// mmap (commit) calls issued.
        commits,
        /// munmap-equivalent (decommit) calls issued.
        decommits,
        /// Slots zero-filled by a fresh commit because their last owner left
        /// bytes in them (`MapStrategy::Resident`; the kernel scrubs under
        /// `Syscall`, so it stays 0 there).  A migration adds none.
        scrubs,
        /// Bytes those scrubs zero-filled: each slot's prefix its earlier
        /// owners can have written, not the whole slot.
        scrubbed_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = SlotStats::default();
        s.local_acquires.add(1);
        s.local_acquires.add(1);
        s.slots_sold.add(5);
        let snap = s.snapshot();
        assert_eq!(snap.local_acquires, 2);
        assert_eq!(snap.slots_sold, 5);
        assert_eq!(snap.cache_hits, 0);
    }

    counters! {
        /// A three-counter set, declared here so a struct literal can name
        /// every field: a field the macro drops or mis-copies fails below.
        struct Probe;
        /// Plain copy of [`Probe`].
        struct ProbeCounts {
            /// First.
            a,
            /// Second.
            b,
            /// Third.
            c,
        }
    }

    #[test]
    fn a_generated_set_snapshots_subtracts_and_sums_every_field() {
        let counts = |a, b, c| ProbeCounts { a, b, c };
        let live = Probe::default();
        live.a.add(1);
        live.b.add(20);
        live.c.add(300);
        let before = live.snapshot();
        assert_eq!(before, counts(1, 20, 300));

        live.a.add(4);
        live.b.add(50);
        live.c.add(600);
        let after = live.snapshot();
        assert_eq!(after, counts(5, 70, 900));
        assert_eq!(after.since(&before), counts(4, 50, 600));
        assert_eq!(before.since(&after), counts(0, 0, 0), "saturates");

        let total: ProbeCounts = [before, after, after.since(&before)].into_iter().sum();
        assert_eq!(total, counts(10, 140, 1800));
        assert_eq!(before + after, counts(6, 90, 1200));
    }
}
