//! Typed, migration-safe containers over `pm2_isomalloc`.
//!
//! The paper's interface is C (`void *pm2_isomalloc(size_t)`); these
//! wrappers give the same storage a Rust face: values placed in them live
//! in the iso-address area, follow their owning thread on migration, and
//! every internal pointer stays valid — [`IsoList`] is literally the linked
//! list of the paper's Fig. 7, with the traversal-across-migration test to
//! match.
//!
//! All types are `!Send` by construction (raw pointers): they belong to the
//! Marcel thread that created them, which is exactly the paper's ownership
//! model ("data are not shared: they belong to some unique thread and thus
//! have to follow it on migration").  Drop returns memory via
//! `pm2_isofree`, so values must be dropped by their owning thread.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Index, IndexMut};

use crate::api::{pm2_isofree, pm2_isomalloc};
use crate::error::{Pm2Error, Result};

/// A `Box` in the iso-address area.
pub struct IsoBox<T> {
    ptr: *mut T,
    _not_send: PhantomData<*mut T>,
}

impl<T> IsoBox<T> {
    /// Move `value` into iso-address memory.
    pub fn new(value: T) -> Result<IsoBox<T>> {
        assert!(
            std::mem::align_of::<T>() <= 16,
            "IsoBox alignment limit is 16"
        );
        let ptr = pm2_isomalloc(std::mem::size_of::<T>().max(1))? as *mut T;
        // SAFETY: fresh, exclusive, suitably aligned allocation.
        unsafe { ptr.write(value) };
        Ok(IsoBox {
            ptr,
            _not_send: PhantomData,
        })
    }

    /// The raw iso-address (stable across migrations).
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// Move the value out, freeing the allocation.
    pub fn into_inner(self) -> T {
        // SAFETY: we own the allocation; forget(self) skips the Drop free.
        let value = unsafe { self.ptr.read() };
        let ptr = self.ptr as *mut u8;
        std::mem::forget(self);
        let _ = pm2_isofree(ptr);
        value
    }
}

impl<T> Deref for IsoBox<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: exclusive owner; allocation lives until drop.
        unsafe { &*self.ptr }
    }
}

impl<T> DerefMut for IsoBox<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.ptr }
    }
}

impl<T> Drop for IsoBox<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive owner.
        unsafe { self.ptr.drop_in_place() };
        let _ = pm2_isofree(self.ptr as *mut u8);
    }
}

/// A growable vector in the iso-address area.
pub struct IsoVec<T> {
    ptr: *mut T,
    len: usize,
    cap: usize,
    _not_send: PhantomData<*mut T>,
}

impl<T> IsoVec<T> {
    /// New empty vector (no allocation until the first push).
    pub fn new() -> IsoVec<T> {
        assert!(
            std::mem::align_of::<T>() <= 16,
            "IsoVec alignment limit is 16"
        );
        IsoVec {
            ptr: std::ptr::null_mut(),
            len: 0,
            cap: 0,
            _not_send: PhantomData,
        }
    }

    /// New vector with reserved capacity.
    pub fn with_capacity(cap: usize) -> Result<IsoVec<T>> {
        let mut v = IsoVec::new();
        if cap > 0 {
            v.grow_to(cap)?;
        }
        Ok(v)
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Move the elements to a block of `new_cap` elements; a capacity whose
    /// bytes overflow a `usize` is [`isomalloc::AllocError::TooLarge`].
    fn grow_to(&mut self, new_cap: usize) -> Result<()> {
        let elem = std::mem::size_of::<T>().max(1);
        let bytes = new_cap
            .checked_mul(elem)
            .ok_or(Pm2Error::Alloc(isomalloc::AllocError::TooLarge(usize::MAX)))?;
        let new_ptr = pm2_isomalloc(bytes)? as *mut T;
        if self.len > 0 {
            // SAFETY: disjoint allocations; len ≤ old cap ≤ new cap.
            unsafe { std::ptr::copy_nonoverlapping(self.ptr, new_ptr, self.len) };
        }
        if !self.ptr.is_null() {
            let _ = pm2_isofree(self.ptr as *mut u8);
        }
        self.ptr = new_ptr;
        self.cap = new_cap;
        Ok(())
    }

    /// Append an element.
    pub fn push(&mut self, value: T) -> Result<()> {
        if self.len == self.cap {
            let new_cap = if self.cap == 0 {
                8
            } else {
                self.cap.saturating_mul(2)
            };
            self.grow_to(new_cap)?;
        }
        // SAFETY: len < cap after growth.
        unsafe { self.ptr.add(self.len).write(value) };
        self.len += 1;
        Ok(())
    }

    /// Remove and return the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // SAFETY: slot `len` was initialized.
        Some(unsafe { self.ptr.add(self.len).read() })
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `len` initialized elements.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len == 0 {
            return &mut [];
        }
        // SAFETY: as above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Iterate over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T> Default for IsoVec<T> {
    fn default() -> Self {
        IsoVec::new()
    }
}

impl<T> Index<usize> for IsoVec<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.as_slice()[i]
    }
}

impl<T> IndexMut<usize> for IsoVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.as_mut_slice()[i]
    }
}

impl<T> Drop for IsoVec<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
        if !self.ptr.is_null() {
            let _ = pm2_isofree(self.ptr as *mut u8);
        }
    }
}

/// The linked list of the paper's Fig. 7: nodes allocated one by one with
/// `pm2_isomalloc`, chained by raw iso-address pointers.
pub struct IsoList<T> {
    head: *mut ListNode<T>,
    len: usize,
    _not_send: PhantomData<*mut T>,
}

#[repr(C)]
struct ListNode<T> {
    value: T,
    next: *mut ListNode<T>,
}

impl<T> IsoList<T> {
    /// New empty list.
    pub fn new() -> IsoList<T> {
        assert!(
            std::mem::align_of::<T>() <= 16,
            "IsoList alignment limit is 16"
        );
        IsoList {
            head: std::ptr::null_mut(),
            len: 0,
            _not_send: PhantomData,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Prepend an element (the paper's construction order).
    pub fn push_front(&mut self, value: T) -> Result<()> {
        let node = pm2_isomalloc(std::mem::size_of::<ListNode<T>>())? as *mut ListNode<T>;
        // SAFETY: fresh allocation.
        unsafe {
            node.write(ListNode {
                value,
                next: self.head,
            })
        };
        self.head = node;
        self.len += 1;
        Ok(())
    }

    /// Remove and return the first element.
    pub fn pop_front(&mut self) -> Option<T> {
        if self.head.is_null() {
            return None;
        }
        // SAFETY: head is a live node we own.
        unsafe {
            let node = self.head;
            self.head = (*node).next;
            self.len -= 1;
            let value = std::ptr::read(std::ptr::addr_of!((*node).value));
            let _ = pm2_isofree(node as *mut u8);
            Some(value)
        }
    }

    /// Iterate over the elements front to back.
    pub fn iter(&self) -> IsoListIter<'_, T> {
        IsoListIter {
            cur: self.head,
            _marker: PhantomData,
        }
    }
}

impl<T> Default for IsoList<T> {
    fn default() -> Self {
        IsoList::new()
    }
}

impl<T> Drop for IsoList<T> {
    fn drop(&mut self) {
        while self.pop_front().is_some() {}
    }
}

/// Iterator over an [`IsoList`].
pub struct IsoListIter<'a, T> {
    cur: *const ListNode<T>,
    _marker: PhantomData<&'a T>,
}

impl<'a, T> Iterator for IsoListIter<'a, T> {
    type Item = &'a T;
    fn next(&mut self) -> Option<&'a T> {
        if self.cur.is_null() {
            return None;
        }
        // SAFETY: nodes are live while the list is borrowed.
        unsafe {
            let node = &*self.cur;
            self.cur = node.next;
            Some(&node.value)
        }
    }
}
