//! An allocation witness: how large, for decoder tests, and how many, for
//! hot-path tests.
//!
//! A decoder that believes a length prefix before seeing the bytes behind
//! it can be made to reserve gigabytes by four corrupt bytes.  A test
//! binary installs [`Watching`] as its global allocator and wraps each
//! decode in [`largest_alloc_in`] to see the largest single request made:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: testkit::alloc::Watching = testkit::alloc::Watching;
//! ```
//!
//! A path that claims to allocate nothing in steady state is wrapped in
//! [`allocs_in`], which counts the requests the calling thread made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread has asked for since the cell
    /// was last zeroed.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
    /// Allocations and reallocations this thread has asked for, ever.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, noting each request's size on the way through.
pub struct Watching;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST_ALLOC.try_with(|c| c.set(c.get().max(size)));
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` touches only const-initialised
// thread-local `Cell`s without a destructor, so it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `f`'s result and the largest single allocation the calling thread made
/// while it ran.  Reads zero unless [`Watching`] is the global allocator.
pub fn largest_alloc_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST_ALLOC.with(|c| c.set(0));
    let r = f();
    (r, LARGEST_ALLOC.with(Cell::get))
}

/// `f`'s result and how many times the calling thread asked the allocator
/// for memory (fresh or regrown) while it ran.  Reads zero unless
/// [`Watching`] is the global allocator.
pub fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}
