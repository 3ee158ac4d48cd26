//! The mmapped-slot cache (paper §6, "A number of optimizations …").
//!
//! "Instead of unmmapping a slot each time it is released, we keep a number
//! of mmapped empty slots in a process-wide cache.  This saves the mmapping
//! time at the next slot allocation."
//!
//! In this reproduction the cache is per *node* (each node is the paper's
//! "process").  Invariant maintained by [`crate::NodeSlotManager`]: every
//! cached slot index is (a) owned by the node (its bitmap bit is set) and
//! (b) still committed (mapped R/W).  A cached slot never passes through a
//! commit, so it is the one acquisition that is *not* scrubbed: it keeps its
//! previous owner's contents under both map strategies.  Every other fresh
//! acquisition reads zeroes (see [`crate::MapStrategy`]: a slot is scrubbed
//! when it changes owner through a commit, never when a migrating thread
//! carries it).  Callers must therefore initialize memory they acquire,
//! which the block layer and the thread spawner always do.

use std::collections::VecDeque;

use crate::slots::SlotRange;

/// LIFO cache of committed, node-owned, free single slots.
///
/// The store is a `VecDeque`: the hot path pushes and pops at the back
/// (LIFO keeps pages warm), while a full cache evicts its *oldest* entry
/// from the front in O(1) — the former `Vec::remove(0)` shifted the whole
/// store on every eviction of a full cache.
#[derive(Debug)]
pub struct SlotCache {
    capacity: usize,
    slots: VecDeque<usize>,
}

impl SlotCache {
    /// Create a cache holding at most `capacity` slots (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        SlotCache {
            capacity,
            slots: VecDeque::with_capacity(capacity),
        }
    }

    /// Is caching disabled?
    pub fn disabled(&self) -> bool {
        self.capacity == 0
    }

    /// Number of slots currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots are cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pop the most recently released cached slot (LIFO maximizes the chance
    /// its pages are still warm).
    pub fn pop(&mut self) -> Option<usize> {
        self.slots.pop_back()
    }

    /// Offer a slot to the cache.  Returns `Some(evicted)` if accepting it
    /// pushed out the oldest entry, `None` if the slot was simply cached, or
    /// `Some(idx)` (the argument itself) if the cache is disabled.
    pub fn push(&mut self, idx: usize) -> Option<usize> {
        if self.capacity == 0 {
            return Some(idx);
        }
        debug_assert!(!self.slots.contains(&idx), "slot {idx} cached twice");
        let evicted = if self.slots.len() == self.capacity {
            self.slots.pop_front()
        } else {
            None
        };
        self.slots.push_back(idx);
        evicted
    }

    /// Remove a specific slot from the cache (because it is being acquired
    /// or sold).  Returns true if it was cached.
    pub fn remove(&mut self, idx: usize) -> bool {
        if let Some(pos) = self.slots.iter().position(|&s| s == idx) {
            self.slots.swap_remove_back(pos);
            true
        } else {
            false
        }
    }

    /// Is `idx` currently cached?
    pub fn contains(&self, idx: usize) -> bool {
        self.slots.contains(&idx)
    }

    /// Remove every cached slot that falls inside `range`; returns them.
    pub fn remove_in_range(&mut self, range: SlotRange) -> Vec<usize> {
        let mut out = Vec::new();
        self.slots.retain(|&s| {
            if range.contains(s) {
                out.push(s);
                false
            } else {
                true
            }
        });
        out
    }

    /// Drain the whole cache (shutdown path).
    pub fn drain_all(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.slots).into_iter().collect()
    }

    /// Iterate over cached slot indices (audits).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut c = SlotCache::new(4);
        assert!(c.push(1).is_none());
        assert!(c.push(2).is_none());
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(1));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn eviction_is_fifo_among_overflow() {
        let mut c = SlotCache::new(2);
        assert!(c.push(1).is_none());
        assert!(c.push(2).is_none());
        assert_eq!(c.push(3), Some(1)); // oldest evicted
        assert_eq!(c.len(), 2);
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn disabled_cache_rejects_everything() {
        let mut c = SlotCache::new(0);
        assert!(c.disabled());
        assert_eq!(c.push(7), Some(7));
        assert!(c.is_empty());
    }

    #[test]
    fn remove_and_range_eviction() {
        let mut c = SlotCache::new(8);
        for i in [3usize, 10, 11, 20] {
            c.push(i);
        }
        assert!(c.remove(10));
        assert!(!c.remove(10));
        let mut evicted = c.remove_in_range(SlotRange::new(11, 10));
        evicted.sort_unstable();
        assert_eq!(evicted, vec![11, 20]);
        assert_eq!(c.len(), 1);
        assert!(c.contains(3));
    }

    #[test]
    fn drain() {
        let mut c = SlotCache::new(4);
        c.push(1);
        c.push(2);
        let mut all = c.drain_all();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2]);
        assert!(c.is_empty());
    }
}
