//! Pooled, refcounted payload buffers — the zero-copy data plane.
//!
//! The migration hot path lives or dies on buffer management: a 24 µs
//! iso-address copy is instantly swamped if every message allocates a fresh
//! `Vec`, every broadcast re-copies its payload per destination, and every
//! received buffer is dropped on the floor.  This module provides the two
//! types the whole message path is built on:
//!
//! * [`BufPool`] — a per-endpoint store of byte buffers.  `checkout` hands
//!   out a writable [`PayloadBuf`]; when the last reader of the sealed
//!   payload drops, the buffer (capacity intact) goes back to a free list.
//!   Steady-state traffic therefore performs **zero payload heap
//!   allocations**: the same backing buffer cycles checkout → send →
//!   receive → drop → checkout.
//! * [`Payload`] — a sealed, refcounted, read-only byte buffer
//!   (`Deref<Target = [u8]>`).  `clone` is a refcount bump, never a copy,
//!   which is what lets `broadcast` fan a single buffer out to `p − 1`
//!   receivers with one allocation total.
//!
//! ## Where a buffer recycles
//!
//! A pool keeps two free lists.  The *driver list* belongs to whichever
//! thread drives the pool's node right now — named for that thread by
//! [`BufPool::drive`] and cleared by [`BufPool::undrive`] — and takes no
//! lock, no atomic and no refcount.  The *locked list* serves everyone
//! else.  A buffer recycles **where it dies**:
//!
//! * a payload whose last reader drops on a thread that drives a node goes
//!   onto that node's driver list, whichever pool it was checked out of;
//! * a checkout by the thread driving the pool pops the driver list first,
//!   so in a ping-pong between two nodes the same buffer goes round;
//! * a drop on a thread that drives no node (the host), or onto a driver
//!   list that is full, takes the buffer home to the locked list of the
//!   pool it was first checked out of, and a checkout the driver list
//!   cannot serve — from another node's pool, or an empty list — locks it.
//!
//! `max_free` bounds each list.  Each list has its own counter set with
//! one writer — the driver for the driver list, the lock for the locked
//! one — and [`BufPool::stats`] sums them, so `checkouts = reuses + allocs`
//! holds across both.
//!
//! Lifecycle (the aliasing discipline the `unsafe` below relies on):
//!
//! ```text
//! BufPool::checkout ──► PayloadBuf (unique writer)
//!                          │ freeze / Into<Payload>
//!                          ▼
//!                       Payload ──clone──► Payload …   (shared readers)
//!                          │ last drop
//!                          ▼
//!          the driver list of the dropping thread, or the origin's locked list
//! ```
//!
//! A slab is referenced by **exactly one** of: a `PayloadBuf` (mutable
//! access), one or more `Payload`s (read-only access), or a free list (no
//! access).  The transitions are all moves (`checkout` pops a
//! uniquely-owned slab, `freeze` consumes the writer, recycling requires
//! the last reference — no `Weak<Slab>` exists, so a strong count of one
//! is that proof), so readers and the writer can never coexist.

use std::cell::{Cell, UnsafeCell};
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{fence, Ordering};
use std::sync::{Arc, Mutex, Weak};

thread_local! {
    /// The pool whose node the calling thread drives, if any: whose driver
    /// list a payload dropped here recycles into, and whose checkouts on
    /// this thread pop it.  Set by [`BufPool::drive`], cleared by
    /// [`BufPool::undrive`] and by the pool's own teardown.
    static DRIVEN: Cell<*const PoolShared> = const { Cell::new(ptr::null()) };
}

/// One pooled backing buffer.  The `UnsafeCell` is what lets the pool hand
/// the same heap allocation alternately to a unique writer and to shared
/// readers without re-allocating an `Arc` per cycle.
struct Slab {
    data: UnsafeCell<Vec<u8>>,
    /// The pool this slab was first checked out of, whose locked list it
    /// goes home to (`Weak`: a live payload must not keep a dead pool
    /// alive).  Read only off the driver lists' path.
    pool: Weak<PoolShared>,
}

// SAFETY: access to `data` is governed by the ownership protocol documented
// on the module: a slab is reachable through exactly one of PayloadBuf
// (unique `&mut`), Payloads (shared `&`), or a free list (idle), and the
// transitions between those states are moves.  No state allows a writer and
// a reader to alias.
unsafe impl Send for Slab {}
unsafe impl Sync for Slab {}

counters! {
    /// A pool's live counters: one set per free list.
    struct PoolCounters;
    /// Point-in-time counters of a [`BufPool`].
    pub struct BufPoolStats {
        /// Total `checkout` calls.
        checkouts,
        /// Checkouts served from a free list (no allocation).
        reuses,
        /// Checkouts that had to allocate a fresh buffer.
        allocs,
        /// Buffers returned to a free list by payload drops.
        recycles,
    }
}

struct PoolShared {
    /// The locked free list.
    free: Mutex<Vec<Arc<Slab>>>,
    /// Counted with `free`'s lock held: the lock is their one writer.
    counters: PoolCounters,
    /// The driver list: touched only by the thread whose `DRIVEN` names
    /// this pool — see [`BufPool::drive`] for why that is one thread at a
    /// time.
    local: UnsafeCell<Vec<Arc<Slab>>>,
    /// Counted on the driver list, by that thread: their one writer.
    local_counters: PoolCounters,
    /// Capacity of each list: beyond it, returning buffers go home or are
    /// freed (bounds worst-case memory after a traffic burst).
    max_free: usize,
}

// SAFETY: `local` is touched only by the one thread driving the pool (the
// contract of `BufPool::drive`); everything else is atomics or behind
// `free`'s lock.
unsafe impl Sync for PoolShared {}

impl PoolShared {
    /// Run `f` on the driver list and its counters, if the calling thread
    /// drives this pool.  `f` must not drop a payload (which could recycle
    /// into the list it holds).
    #[inline]
    fn on_driver_list<R>(
        &self,
        f: impl FnOnce(&mut Vec<Arc<Slab>>, &PoolCounters) -> R,
    ) -> Option<R> {
        if DRIVEN.get() != ptr::from_ref(self) {
            return None;
        }
        // SAFETY: `DRIVEN` names this pool on this thread only while no
        // other thread touches `local` (`BufPool::drive`), and `f` does not
        // reach it again.
        Some(f(unsafe { &mut *self.local.get() }, &self.local_counters))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<Slab>>> {
        self.free.lock().expect("buf pool poisoned")
    }
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        // A thread must not keep naming a pool that is gone.  (`try_with`:
        // the thread's own locals may be the ones tearing down.)
        let me = ptr::from_ref(&*self);
        let _ = DRIVEN.try_with(|d| {
            if d.get() == me {
                d.set(ptr::null());
            }
        });
    }
}

/// A pair of free lists of reusable payload buffers, cheaply clonable
/// (`Arc` handle).
///
/// Every [`crate::Endpoint`] owns one, and upper layers reach it through
/// [`crate::Endpoint::pool`].  See the module notes for which list a
/// buffer returns to.
#[derive(Clone)]
pub struct BufPool {
    shared: Arc<PoolShared>,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("free", &self.free_len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufPool {
    /// A pool keeping up to 64 idle buffers per list.
    pub fn new() -> Self {
        BufPool::with_capacity_limit(64)
    }

    /// A pool keeping at most `max_free` idle buffers per list.
    pub fn with_capacity_limit(max_free: usize) -> Self {
        BufPool {
            shared: Arc::new(PoolShared {
                free: Mutex::new(Vec::new()),
                counters: PoolCounters::default(),
                local: UnsafeCell::new(Vec::new()),
                local_counters: PoolCounters::default(),
                max_free,
            }),
        }
    }

    /// Name this pool's driver list for the calling thread: from now on a
    /// payload whose last reader drops on this thread recycles into it, and
    /// this pool's checkouts on this thread pop it first.  Replaces any
    /// pool the thread named before.
    ///
    /// # Safety
    /// No other thread may name this pool until the calling thread has
    /// named another or called [`BufPool::undrive`], and the two must be
    /// ordered (by a lock both take, say): the driver list is then touched
    /// by one thread at a time.  An executor meets this by naming a node's
    /// pool only while it holds the node, and clearing the name before it
    /// lets the node go.
    pub unsafe fn drive(&self) {
        DRIVEN.set(Arc::as_ptr(&self.shared));
    }

    /// The calling thread drives no pool any more: its drops go home to
    /// their origin's locked list.
    pub fn undrive() {
        DRIVEN.set(ptr::null());
    }

    /// Check out a writable buffer with at least `cap` bytes of capacity,
    /// reusing a pooled buffer when one is available.
    pub fn checkout(&self, cap: usize) -> PayloadBuf {
        let shared = &*self.shared;
        let recycled = shared
            .on_driver_list(|list, c| {
                let slab = list.pop()?;
                c.checkouts.add(1);
                c.reuses.add(1);
                Some(slab)
            })
            .flatten()
            .or_else(|| {
                // Not this pool's driver, or its list is empty: the lock
                // owns these counters.
                let mut free = shared.lock();
                let c = &shared.counters;
                let slab = free.pop();
                c.checkouts.add(1);
                match slab {
                    Some(_) => c.reuses.add(1),
                    None => c.allocs.add(1),
                }
                slab
            });
        match recycled {
            Some(slab) => {
                let mut buf = PayloadBuf { slab };
                let v = buf.vec_mut();
                v.clear();
                v.reserve(cap);
                buf
            }
            None => PayloadBuf {
                slab: Arc::new(Slab {
                    data: UnsafeCell::new(Vec::with_capacity(cap)),
                    pool: Arc::downgrade(&self.shared),
                }),
            },
        }
    }

    /// Number of idle buffers on the locked list — plus the driver list's,
    /// when the calling thread drives this pool (nobody else may read it).
    pub fn free_len(&self) -> usize {
        let local = self.shared.on_driver_list(|list, _| list.len());
        let local = local.unwrap_or(0);
        self.shared.lock().len() + local
    }

    /// Counter snapshot: both lists' counts, summed.
    pub fn stats(&self) -> BufPoolStats {
        self.shared.counters.snapshot() + self.shared.local_counters.snapshot()
    }
}

/// A checked-out, writable payload buffer — the **unique** owner of its
/// backing slab until it is sealed with [`PayloadBuf::freeze`] (or
/// `.into()` a [`Payload`], or sent — `Endpoint::send` seals implicitly).
///
/// Dereferences to `Vec<u8>`, so the packing code writes into it exactly
/// as it would into a plain vector — but the allocation came from, and
/// returns to, the pool.
pub struct PayloadBuf {
    slab: Arc<Slab>,
}

impl PayloadBuf {
    fn vec_mut(&mut self) -> &mut Vec<u8> {
        // SAFETY: a PayloadBuf is constructed only around a uniquely-owned
        // slab (fresh, or popped off the free list which held the only
        // reference) and is neither Clone nor convertible back from a
        // Payload, so `&mut self` proves exclusive slab access.
        unsafe { &mut *self.slab.data.get() }
    }

    fn vec(&self) -> &Vec<u8> {
        // SAFETY: as in `vec_mut`; shared reborrow of the unique owner.
        unsafe { &*self.slab.data.get() }
    }

    /// Seal the buffer into a shareable, read-only [`Payload`] without
    /// copying or allocating.
    pub fn freeze(self) -> Payload {
        Payload {
            repr: Repr::Pooled(self.slab),
        }
    }
}

impl Deref for PayloadBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        self.vec()
    }
}

impl DerefMut for PayloadBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.vec_mut()
    }
}

impl std::fmt::Debug for PayloadBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PayloadBuf")
            .field("len", &self.len())
            .finish()
    }
}

enum Repr {
    /// A sealed pool slab; recycled on last drop.
    Pooled(Arc<Slab>),
    /// An adopted plain vector (`From<Vec<u8>>`); freed on last drop.
    Owned(Arc<Vec<u8>>),
    /// Borrowed static bytes — notably the shared empty payload, so
    /// zero-byte control messages never allocate.
    Static(&'static [u8]),
}

/// A sealed, refcounted, read-only message payload.
///
/// `clone` bumps a refcount (no copy), `Deref<Target = [u8]>` gives byte
/// access, and dropping the last clone of a pooled payload recycles the
/// backing buffer into its origin [`BufPool`].
pub struct Payload {
    repr: Repr,
}

impl Payload {
    /// The shared empty payload (no allocation, ever).
    pub const fn empty() -> Payload {
        Payload {
            repr: Repr::Static(&[]),
        }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            // SAFETY: sealed slab — the unique writer was consumed by
            // `freeze`, so only shared readers remain (see module docs).
            Repr::Pooled(slab) => unsafe { &*slab.data.get() },
            Repr::Owned(v) => v.as_slice(),
            Repr::Static(s) => s,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when there are no payload bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        Payload {
            repr: match &self.repr {
                Repr::Pooled(s) => Repr::Pooled(Arc::clone(s)),
                Repr::Owned(v) => Repr::Owned(Arc::clone(v)),
                Repr::Static(s) => Repr::Static(s),
            },
        }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        if let Repr::Pooled(slab) = std::mem::replace(&mut self.repr, Repr::Static(&[])) {
            recycle(slab);
        }
    }
}

/// Recycle a slab whose payload just dropped, if that was its last
/// reference: onto the driver list of the calling thread if it drives a
/// node and the list has room — no lock, no atomic read-modify-write, no
/// refcount — and home to its origin's locked list otherwise.  The whole
/// `Arc` goes back, so the next checkout allocates nothing at all.  If two
/// final clones race here, both see a count of two and the plain `Arc`
/// teardown runs instead — where [`Slab`]'s `Drop` still salvages the byte
/// buffer (the allocation that matters).
fn recycle(slab: Arc<Slab>) {
    // Nothing ever downgrades a slab's `Arc`, so a strong count of one is
    // the proof that this was the last reader; the fence orders the other
    // readers' accesses (released by their drops) before the buffer's
    // next writer.
    if Arc::strong_count(&slab) != 1 {
        return; // not provably last; Slab::drop catches the true last one
    }
    fence(Ordering::Acquire);
    let mut slab = Some(slab);
    // SAFETY: a thread names only a pool that is alive: its teardown
    // clears the name.
    if let Some(pool) = unsafe { DRIVEN.get().as_ref() } {
        pool.on_driver_list(|list, c| {
            if list.len() < pool.max_free {
                c.recycles.add(1);
                list.extend(slab.take());
            }
        });
    }
    if let Some(slab) = slab {
        go_home(slab);
    }
}

/// The locked path of [`recycle`]: the origin pool's locked list if the
/// pool still exists and has room; otherwise the buffer is freed.
fn go_home(mut slab: Arc<Slab>) {
    let Some(pool) = slab.pool.upgrade() else {
        return; // pool torn down; just free the buffer
    };
    let mut free = pool.lock();
    if free.len() < pool.max_free {
        pool.counters.recycles.add(1);
        free.push(slab);
        return;
    }
    drop(free);
    // List full: neutralize the pool link so the Slab teardown below does
    // not try to salvage the buffer we just decided to discard.
    if let Some(s) = Arc::get_mut(&mut slab) {
        s.pool = Weak::new();
    }
}

impl Drop for Slab {
    /// Slow-path salvage.  Runs when the last reference to a slab dies
    /// without taking the fast path above: a [`PayloadBuf`] dropped before
    /// `freeze` (error paths), or two final [`Payload`] clones dropping at
    /// once (e.g. broadcast receivers on different threads).  The byte
    /// buffer is moved into a fresh slab on its origin's locked list, so
    /// the heap allocation that backs payloads is never lost to the pool —
    /// only the small refcount block is re-created, and only on this rare
    /// path.
    fn drop(&mut self) {
        let Some(pool) = self.pool.upgrade() else {
            return; // pool gone (or link neutralized): really free it
        };
        let data = std::mem::take(self.data.get_mut());
        if data.capacity() == 0 {
            return;
        }
        let origin = std::mem::replace(&mut self.pool, Weak::new());
        let mut free = pool.lock();
        if free.len() < pool.max_free {
            pool.counters.recycles.add(1);
            free.push(Arc::new(Slab {
                data: UnsafeCell::new(data),
                pool: origin,
            }));
        }
        // `data` (when the list was full) drops here, after the lock guard:
        // a Vec teardown cannot re-enter the pool.
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} B)", self.len())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl From<Vec<u8>> for Payload {
    /// Adopt a vector.  Empty vectors become the shared empty payload;
    /// everything else is wrapped (one refcount allocation, no byte copy).
    fn from(v: Vec<u8>) -> Payload {
        if v.is_empty() {
            Payload::empty()
        } else {
            Payload {
                repr: Repr::Owned(Arc::new(v)),
            }
        }
    }
}

impl From<&[u8]> for Payload {
    /// Copies the bytes (the one conversion that must).
    fn from(s: &[u8]) -> Payload {
        s.to_vec().into()
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(s: &[u8; N]) -> Payload {
        s.as_slice().into()
    }
}

impl From<PayloadBuf> for Payload {
    fn from(b: PayloadBuf) -> Payload {
        b.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_write_freeze_read() {
        let pool = BufPool::new();
        let mut b = pool.checkout(16);
        b.extend_from_slice(b"hello");
        b.push(b'!');
        let p = b.freeze();
        assert_eq!(p, b"hello!");
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn recycle_preserves_allocation() {
        let pool = BufPool::new();
        let mut b = pool.checkout(64);
        b.extend_from_slice(&[7u8; 40]);
        let ptr = b.as_ptr();
        drop(b.freeze());
        assert_eq!(pool.free_len(), 1);
        for i in 0..10 {
            let mut b = pool.checkout(64);
            assert_eq!(b.as_ptr(), ptr, "cycle {i} must reuse the same buffer");
            assert!(b.is_empty(), "recycled buffers come back cleared");
            b.extend_from_slice(&[i as u8; 64]);
            drop(b.freeze());
        }
        let s = pool.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.reuses, 10);
        assert_eq!(s.recycles, 11);
    }

    #[test]
    fn clone_aliases_and_last_drop_recycles() {
        let pool = BufPool::new();
        let mut b = pool.checkout(8);
        b.extend_from_slice(&[1, 2, 3]);
        let p = b.freeze();
        let clones: Vec<Payload> = (0..16).map(|_| p.clone()).collect();
        for c in &clones {
            assert_eq!(c.as_ptr(), p.as_ptr(), "clones must alias, not copy");
        }
        drop(p);
        assert_eq!(pool.free_len(), 0, "live clones keep the slab out");
        drop(clones);
        assert_eq!(pool.free_len(), 1, "last drop recycles");
    }

    #[test]
    fn unfrozen_writer_recycles_on_drop() {
        // Error paths drop checked-out writers without sealing them; the
        // byte buffer must still return to the pool (Slab::drop salvage).
        let pool = BufPool::new();
        let mut b = pool.checkout(64);
        b.extend_from_slice(&[9u8; 64]);
        let ptr = b.as_ptr();
        drop(b);
        assert_eq!(pool.free_len(), 1);
        let b2 = pool.checkout(16);
        assert_eq!(b2.as_ptr(), ptr, "salvaged buffer must be reused");
    }

    #[test]
    fn racing_final_clones_still_recycle() {
        // Many threads dropping the last clones concurrently: whichever
        // path wins (fast get_mut or Slab::drop salvage), the buffer ends
        // up back in the pool every round.
        let pool = BufPool::new();
        for _ in 0..50 {
            let p = pool.checkout(64).freeze();
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = p.clone();
                    std::thread::spawn(move || drop(c))
                })
                .collect();
            drop(p);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(pool.free_len(), 1, "buffer lost to a drop race");
        }
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufPool::with_capacity_limit(2);
        let bufs: Vec<Payload> = (0..5).map(|_| pool.checkout(8).freeze()).collect();
        drop(bufs);
        assert_eq!(pool.free_len(), 2);
    }

    #[test]
    fn vec_and_static_payloads() {
        let p: Payload = vec![9u8, 8, 7].into();
        assert_eq!(p, vec![9u8, 8, 7]);
        let q = p.clone();
        assert_eq!(q.as_ptr(), p.as_ptr());
        let e: Payload = Vec::new().into();
        assert!(e.is_empty());
        assert_eq!(e, Payload::empty());
    }

    #[test]
    fn cross_thread_recycle() {
        let pool = BufPool::new();
        let mut b = pool.checkout(32);
        b.extend_from_slice(&[5u8; 32]);
        let p = b.freeze();
        std::thread::spawn(move || drop(p)).join().unwrap();
        assert_eq!(pool.free_len(), 1);
    }

    /// A buffer recycles where it dies: on a thread that drives a node it
    /// joins that node's driver list whichever pool it came from, and
    /// serves that node's next checkout; on the host it goes home to the
    /// pool it was first checked out of.
    #[test]
    fn a_payload_recycles_on_its_driver_and_goes_home_from_the_host() {
        let (a, b) = (BufPool::new(), BufPool::new());
        let p = a.checkout(64).freeze();
        let ptr = p.as_ptr() as usize;
        let driver = b.clone();
        let back = std::thread::spawn(move || {
            // SAFETY: no other thread names `b`.
            unsafe { driver.drive() };
            drop(p);
            assert_eq!(driver.free_len(), 1, "on the driver's list");
            let buf = driver.checkout(16);
            assert_eq!(buf.as_ptr() as usize, ptr, "a's buffer serves b's node");
            let q = buf.freeze();
            BufPool::undrive();
            q
        })
        .join()
        .unwrap();
        assert_eq!((a.free_len(), b.free_len()), (0, 0));
        drop(back);
        assert_eq!((a.free_len(), b.free_len()), (1, 0), "home to its origin");
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.checkouts, sa.allocs, sa.recycles), (1, 1, 1));
        assert_eq!((sb.checkouts, sb.reuses, sb.recycles), (1, 1, 1));
        assert_eq!(a.checkout(8).as_ptr() as usize, ptr);
    }

    /// Two nodes driven in turn by one thread, passing payloads back and
    /// forth: one buffer goes round, off the driver lists, after one
    /// allocation.
    #[test]
    fn a_ping_pong_between_two_drivers_circulates_one_buffer() {
        let pools = [BufPool::new(), BufPool::new()];
        let mut inflight = pools[0].checkout(64).freeze();
        let ptr = inflight.as_ptr();
        for round in 0..100 {
            let to = &pools[(round + 1) % 2];
            // SAFETY: this thread is the only one naming either pool.
            unsafe { to.drive() };
            drop(inflight);
            let mut buf = to.checkout(64);
            assert_eq!(buf.as_ptr(), ptr, "round {round}");
            buf.push(round as u8);
            inflight = buf.freeze();
        }
        BufPool::undrive();
        let total: BufPoolStats = pools.iter().map(BufPool::stats).sum();
        assert_eq!((total.checkouts, total.allocs, total.reuses), (101, 1, 100));
        assert_eq!(total.checkouts, total.reuses + total.allocs);
    }

    /// A full driver list sends the overflow home, and a pool torn down
    /// while a thread names it is forgotten by that thread.
    #[test]
    fn the_driver_list_is_bounded_and_forgotten_with_its_pool() {
        let origin = BufPool::new();
        let small = BufPool::with_capacity_limit(2);
        let payloads: Vec<Payload> = (0..5).map(|_| origin.checkout(8).freeze()).collect();
        // SAFETY: this thread is the only one naming `small`.
        unsafe { small.drive() };
        drop(payloads);
        assert_eq!(small.free_len(), 2, "the driver list is full at two");
        BufPool::undrive();
        assert_eq!((origin.free_len(), small.free_len()), (3, 0));
        unsafe { small.drive() };
        drop(small);
        assert_eq!(origin.free_len(), 5, "its idle buffers went home with it");
        // The name died with the pool: this drop goes home too.
        let recycled = origin.stats().recycles;
        drop(origin.checkout(8).freeze());
        assert_eq!(origin.stats().recycles, recycled + 1);
        assert_eq!(origin.free_len(), 5);
    }
}
