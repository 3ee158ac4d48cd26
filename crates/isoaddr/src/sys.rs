//! Thin wrappers around the `mmap` family.
//!
//! The paper's allocator is built directly on `mmap` at fixed virtual
//! addresses ("Memory allocation is done using the mmap primitive, which
//! allows for memory allocation at specified virtual addresses", §4.1).
//! These wrappers keep all `libc` usage in one audited module.
//!
//! Mapping states used by the area:
//!
//! * **reserved** — `PROT_NONE`, `MAP_NORESERVE`: address range is claimed so
//!   nothing else in the process can land there, but no memory is committed;
//! * **committed** — readable/writable anonymous memory;
//! * decommitting replaces the range with a *fresh* reserved mapping, which
//!   atomically drops the backing pages (equivalent to the paper's
//!   `munmap`, without ever giving the range back to the OS allocator).

use crate::error::{IsoAddrError, Result};

/// Minimal raw bindings to the `mmap` family.  Declared in-tree (this
/// sandbox builds with no external crates); the process links libc anyway,
/// so the symbols are always present.  Linux-only constants.
mod raw {
    use std::ffi::{c_int, c_long, c_void};

    pub const PROT_NONE: c_int = 0;
    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MAP_FIXED: c_int = 0x10;
    pub const MAP_ANONYMOUS: c_int = 0x20;
    pub const MAP_NORESERVE: c_int = 0x4000;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
    pub const _SC_PAGESIZE: c_int = 30;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        pub fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }
}

use raw as libc_shim;
use std::ffi::c_void;

/// System page size, cached after the first query.
pub fn page_size() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static PAGE: AtomicUsize = AtomicUsize::new(0);
    let cached = PAGE.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    // SAFETY: sysconf is always safe to call.
    let sz = unsafe { libc_shim::sysconf(libc_shim::_SC_PAGESIZE) } as usize;
    let sz = if sz == 0 { 4096 } else { sz };
    PAGE.store(sz, Ordering::Relaxed);
    sz
}

fn last_errno() -> i32 {
    std::io::Error::last_os_error().raw_os_error().unwrap_or(0)
}

/// Reserve `len` bytes of address space anywhere, without committing memory.
///
/// Returns the base address of the reservation.
pub fn reserve_anywhere(len: usize) -> Result<usize> {
    // SAFETY: anonymous PROT_NONE mapping with addr=NULL cannot clobber
    // existing mappings.
    let ptr = unsafe {
        libc_shim::mmap(
            std::ptr::null_mut(),
            len,
            libc_shim::PROT_NONE,
            libc_shim::MAP_PRIVATE | libc_shim::MAP_ANONYMOUS | libc_shim::MAP_NORESERVE,
            -1,
            0,
        )
    };
    if ptr == libc_shim::MAP_FAILED {
        return Err(IsoAddrError::Mmap {
            addr: 0,
            len,
            errno: last_errno(),
        });
    }
    Ok(ptr as usize)
}

/// Commit (make read/write) `len` bytes at `addr`, which must lie inside an
/// existing reservation created by [`reserve_anywhere`].
///
/// # Safety
/// `addr..addr+len` must be inside a reservation owned by the caller and must
/// not be in use by anyone else (the iso-address discipline guarantees this;
/// [`crate::IsoArea`] additionally checks it).
pub unsafe fn commit(addr: usize, len: usize) -> Result<()> {
    let rc = libc_shim::mprotect(
        addr as *mut c_void,
        len,
        libc_shim::PROT_READ | libc_shim::PROT_WRITE,
    );
    if rc != 0 {
        return Err(IsoAddrError::Mmap {
            addr,
            len,
            errno: last_errno(),
        });
    }
    Ok(())
}

/// Decommit `len` bytes at `addr`: drop the backing pages and return the
/// range to the reserved (inaccessible) state, keeping the address range
/// claimed by this process.
///
/// # Safety
/// Same contract as [`commit`]; additionally no live references into the
/// range may exist.
pub unsafe fn decommit(addr: usize, len: usize) -> Result<()> {
    // A fresh fixed anonymous PROT_NONE mapping atomically replaces the old
    // pages (their contents are discarded) while keeping the range reserved.
    let ptr = libc_shim::mmap(
        addr as *mut c_void,
        len,
        libc_shim::PROT_NONE,
        libc_shim::MAP_PRIVATE
            | libc_shim::MAP_ANONYMOUS
            | libc_shim::MAP_NORESERVE
            | libc_shim::MAP_FIXED,
        -1,
        0,
    );
    if ptr == libc_shim::MAP_FAILED {
        return Err(IsoAddrError::Mmap {
            addr,
            len,
            errno: last_errno(),
        });
    }
    Ok(())
}

/// Which pages of `[addr, addr + len)` are resident in memory (`mincore`),
/// one entry per page.  `addr` must be page-aligned and the range mapped
/// (a reservation counts: its pages are simply never resident).
pub fn resident_pages(addr: usize, len: usize) -> Result<Vec<bool>> {
    let mut vec = vec![0u8; len.div_ceil(page_size())];
    // SAFETY: `mincore` only reads the page tables of the range and writes
    // one byte per page into `vec`, which has room for each.
    let rc = unsafe { libc_shim::mincore(addr as *mut c_void, len, vec.as_mut_ptr()) };
    if rc != 0 {
        return Err(IsoAddrError::Mmap {
            addr,
            len,
            errno: last_errno(),
        });
    }
    Ok(vec.into_iter().map(|b| b & 1 != 0).collect())
}

/// Release a whole reservation back to the OS.
///
/// # Safety
/// `addr`/`len` must denote exactly one reservation from [`reserve_anywhere`]
/// with no live references into it.
pub unsafe fn release(addr: usize, len: usize) -> Result<()> {
    let rc = libc_shim::munmap(addr as *mut c_void, len);
    if rc != 0 {
        return Err(IsoAddrError::Mmap {
            addr,
            len,
            errno: last_errno(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_sane() {
        let p = page_size();
        assert!(p >= 4096);
        assert!(p.is_power_of_two());
    }

    #[test]
    fn reserve_commit_write_decommit() {
        let len = 1 << 20;
        let base = reserve_anywhere(len).unwrap();
        unsafe {
            commit(base, len).unwrap();
            // Write and read back through the committed pages.
            let p = base as *mut u64;
            p.write(0xDEAD_BEEF_CAFE_F00D);
            assert_eq!(p.read(), 0xDEAD_BEEF_CAFE_F00D);
            decommit(base, len).unwrap();
            // Re-commit: pages must be zeroed (fresh anonymous memory), and
            // only the page just read is resident.
            commit(base, len).unwrap();
            assert_eq!(p.read(), 0);
            let resident = resident_pages(base, len).unwrap();
            assert_eq!(resident.len(), len / page_size());
            assert!(resident.iter().skip(1).all(|&r| !r), "untouched pages");
            release(base, len).unwrap();
        }
    }
}
