//! Per-node private heap — the `malloc` of the paper's Fig. 4/9.
//!
//! On a real cluster each node's C heap is private: data a thread `malloc`s
//! does **not** follow it, so reading the same virtual address on another
//! node yields garbage or a segfault (the paper prints `-1797270816` and
//! then dies).  In a single-process simulation the memory would accidentally
//! still be there, hiding the bug the paper demonstrates — so this arena
//! makes the failure observable: when a thread migrates away, every block it
//! `node_malloc`ed is **poisoned** (filled with `0xDE`) and marked lost.
//! Reading it yields exactly the paper's garbage values; `is_valid` lets
//! examples and tests detect the "would have segfaulted" condition safely.

use std::collections::HashMap;

/// Poison byte written over departed threads' node-local data.
pub const POISON: u8 = 0xDE;

/// The garbage value a reader of poisoned memory observes per `i32`
/// (0xDEDEDEDE as a signed int — compare the paper's Fig. 9 trace).
pub const POISON_I32: i32 = i32::from_le_bytes([POISON; 4]);

struct Block {
    ptr: *mut u8,
    len: usize,
    layout: std::alloc::Layout,
    owner_tid: u64,
    lost: bool,
}

/// A node's private heap.
#[derive(Default)]
pub struct NodeHeap {
    blocks: HashMap<usize, Block>,
    live_bytes: usize,
    lost_blocks: usize,
}

// SAFETY: the heap is only touched by its node's driving OS thread.
unsafe impl Send for NodeHeap {}

impl NodeHeap {
    /// Allocate `size` bytes owned by thread `tid`.
    pub fn alloc(&mut self, size: usize, tid: u64) -> *mut u8 {
        let size = size.max(1);
        let layout = std::alloc::Layout::from_size_align(size, 16).expect("layout");
        // SAFETY: non-zero size, valid alignment.
        let ptr = unsafe { std::alloc::alloc(layout) };
        assert!(!ptr.is_null(), "node heap exhausted");
        self.blocks.insert(
            ptr as usize,
            Block {
                ptr,
                len: size,
                layout,
                owner_tid: tid,
                lost: false,
            },
        );
        self.live_bytes += size;
        ptr
    }

    /// Free a block (only the owning node can).
    pub fn free(&mut self, ptr: *mut u8) -> bool {
        match self.blocks.remove(&(ptr as usize)) {
            Some(b) => {
                self.live_bytes -= b.len;
                if b.lost {
                    self.lost_blocks -= 1;
                }
                // SAFETY: allocated by us with this layout.
                unsafe { std::alloc::dealloc(b.ptr, b.layout) };
                true
            }
            None => false,
        }
    }

    /// A thread migrated away: poison everything it owns here.  Returns the
    /// number of poisoned blocks.
    pub fn poison_departed(&mut self, tid: u64) -> usize {
        let mut n = 0;
        for b in self.blocks.values_mut() {
            if b.owner_tid == tid && !b.lost {
                // SAFETY: the block is live and owned by this heap.
                unsafe { std::ptr::write_bytes(b.ptr, POISON, b.len) };
                b.lost = true;
                self.lost_blocks += 1;
                n += 1;
            }
        }
        n
    }

    /// Free everything a (dead) thread owns here.
    pub fn release_thread(&mut self, tid: u64) -> usize {
        let victims: Vec<usize> = self
            .blocks
            .iter()
            .filter(|(_, b)| b.owner_tid == tid)
            .map(|(&k, _)| k)
            .collect();
        let n = victims.len();
        for k in victims {
            self.free(k as *mut u8);
        }
        n
    }

    /// Is `ptr` a live, non-poisoned block on this node?  `false` means a
    /// real cluster would have faulted (or read garbage) at this address.
    pub fn is_valid(&self, ptr: *const u8) -> bool {
        self.blocks.get(&(ptr as usize)).is_some_and(|b| !b.lost)
    }

    /// No block is allocated here: nothing to poison or release.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Live (allocated, possibly lost) byte count.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Number of blocks poisoned by departures and not yet reclaimed.
    pub fn lost_blocks(&self) -> usize {
        self.lost_blocks
    }
}

impl Drop for NodeHeap {
    fn drop(&mut self) {
        for (_, b) in self.blocks.drain() {
            // SAFETY: allocated by us with this layout.
            unsafe { std::alloc::dealloc(b.ptr, b.layout) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut h = NodeHeap::default();
        let p = h.alloc(100, 1);
        assert!(h.is_valid(p));
        assert_eq!(h.live_bytes(), 100);
        assert!(h.free(p));
        assert!(!h.free(p), "double free rejected");
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn poison_reproduces_fig9_garbage() {
        let mut h = NodeHeap::default();
        let p = h.alloc(64, 7) as *mut i32;
        unsafe { p.write(201) }; // element 100 of the paper's list: value 201
        assert_eq!(h.poison_departed(7), 1);
        // The thread migrated; reading its malloc'd data now yields garbage,
        // exactly like "[node1] Element 100 = -1797270816".
        let garbage = unsafe { p.read() };
        assert_eq!(garbage, POISON_I32);
        assert_ne!(garbage, 201);
        assert!(!h.is_valid(p as *const u8));
        assert_eq!(h.lost_blocks(), 1);
    }

    #[test]
    fn poison_only_hits_the_departed_thread() {
        let mut h = NodeHeap::default();
        let a = h.alloc(16, 1);
        let b = h.alloc(16, 2);
        unsafe {
            (a as *mut u64).write(11);
            (b as *mut u64).write(22);
        }
        h.poison_departed(1);
        assert!(!h.is_valid(a));
        assert!(h.is_valid(b));
        assert_eq!(unsafe { (b as *const u64).read() }, 22);
    }

    #[test]
    fn release_thread_reclaims() {
        let mut h = NodeHeap::default();
        h.alloc(16, 5);
        h.alloc(16, 5);
        h.alloc(16, 6);
        assert_eq!(h.release_thread(5), 2);
        assert_eq!(h.live_bytes(), 16);
    }
}
