//! Per-endpoint traffic statistics.
//!
//! Declared once with `counters!` (mounted from `isoaddr`'s `counters.rs`).
//! Every counter is monotonic and nothing resets it; a window is
//! `after.since(&before)` of two snapshots.

counters! {
    /// Live atomic counters for one endpoint.
    pub struct EndpointStats;
    /// Plain-data snapshot of [`EndpointStats`].
    pub struct EndpointStatsSnapshot {
        /// Messages sent.
        msgs_sent,
        /// Payload bytes sent.
        bytes_sent,
        /// Messages received.
        msgs_recv,
        /// Payload bytes received.
        bytes_recv,
        /// Modelled wire nanoseconds charged at this receiver (paid
        /// dequeuing: the receiver-clocked model).
        wire_ns,
        /// Chaos: messages given extra modelled wire delay.
        chaos_delayed,
        /// Messages this sender sent on a link a partition had cut: kept in
        /// the fabric until the link heals (they count as sent already).
        stalled,
        /// Stalled messages from this sender dropped when their link
        /// healed, because their source or destination had died meanwhile.
        /// Bumped only under the fabric's partition lock, by whoever
        /// heals.
        zombies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = EndpointStats::default();
        for bytes in [100, 24] {
            s.msgs_sent.add(1);
            s.bytes_sent.add(bytes);
        }
        s.msgs_recv.add(1);
        s.bytes_recv.add(7);
        s.wire_ns.add(1500);
        let snap = s.snapshot();
        assert_eq!(snap.msgs_sent, 2);
        assert_eq!(snap.bytes_sent, 124);
        assert_eq!(snap.msgs_recv, 1);
        assert_eq!(snap.bytes_recv, 7);
        assert_eq!(snap.wire_ns, 1500);
        assert_eq!((snap.stalled, snap.zombies), (0, 0));
    }
}
