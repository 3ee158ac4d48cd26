//! Area geometry configuration.
//!
//! The paper (Fig. 5) places a ~3.5 GB iso-address area between the Unix
//! process stack and the heap; slots are 64 KiB (16 pages), chosen to fit a
//! thread stack so that thread creation is always a local, single-slot
//! operation (§4.1, "Slot size").  The reproduction reserves the area
//! anywhere in the 64-bit address space (`PROT_NONE`, costs no memory) — the
//! paper's requirement is only that the range is *identical on every node*,
//! which holds trivially for our in-process nodes and is asserted by the
//! runtime accounting in [`crate::IsoArea`].

use crate::error::{IsoAddrError, Result};
use crate::sys;

/// Default slot size: 64 KiB, i.e. 16 pages of 4 KiB — the paper's choice.
pub const DEFAULT_SLOT_SIZE: usize = 64 * 1024;

/// Default number of slots: 16384 slots × 64 KiB = 1 GiB of iso-address
/// space.  (The paper used ~3.5 GB on 32-bit machines; reservations are free
/// on 64-bit, but 1 GiB keeps `/proc` maps readable.  Configurable.)
pub const DEFAULT_N_SLOTS: usize = 16 * 1024;

/// Geometry of an iso-address area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaConfig {
    /// Size of one slot in bytes.  Must be a power of two and a multiple of
    /// the page size.
    pub slot_size: usize,
    /// Total number of slots in the area.
    pub n_slots: usize,
}

impl Default for AreaConfig {
    fn default() -> Self {
        AreaConfig {
            slot_size: DEFAULT_SLOT_SIZE,
            n_slots: DEFAULT_N_SLOTS,
        }
    }
}

impl AreaConfig {
    /// A small area for unit tests (64 slots of 64 KiB = 4 MiB).
    pub fn small() -> Self {
        AreaConfig {
            slot_size: DEFAULT_SLOT_SIZE,
            n_slots: 64,
        }
    }

    /// Geometry with a custom slot size (bench ablation A3).
    pub fn with_slot_size(slot_size: usize, n_slots: usize) -> Self {
        AreaConfig { slot_size, n_slots }
    }

    /// Total byte size of the area.
    pub fn area_size(&self) -> usize {
        self.slot_size * self.n_slots
    }

    /// Validate the geometry against the running system.
    pub fn validate(&self) -> Result<()> {
        let page = sys::page_size();
        if self.slot_size == 0 || !self.slot_size.is_power_of_two() {
            return Err(IsoAddrError::BadConfig(format!(
                "slot_size {} must be a non-zero power of two",
                self.slot_size
            )));
        }
        if !self.slot_size.is_multiple_of(page) {
            return Err(IsoAddrError::BadConfig(format!(
                "slot_size {} must be a multiple of the page size {}",
                self.slot_size, page
            )));
        }
        if self.n_slots == 0 {
            return Err(IsoAddrError::BadConfig("n_slots must be non-zero".into()));
        }
        // A slot index and a byte length within one slot are kept as `u32`
        // (the block layer's slot headers, the area's dirty lengths).
        if self.n_slots > u32::MAX as usize || self.slot_size > u32::MAX as usize {
            return Err(IsoAddrError::BadConfig(format!(
                "{} slots of {} bytes: both must fit a u32",
                self.n_slots, self.slot_size
            )));
        }
        if self.area_size() > (1 << 46) {
            return Err(IsoAddrError::BadConfig(format!(
                "area of {} bytes is unreasonably large",
                self.area_size()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_slot_size() {
        let c = AreaConfig::default();
        assert_eq!(c.slot_size, 64 * 1024);
        assert_eq!(c.slot_size / sys::page_size(), 16); // "16 pages"
        c.validate().unwrap();
    }

    #[test]
    fn rejects_bad_slot_sizes() {
        assert!(AreaConfig::with_slot_size(0, 4).validate().is_err());
        assert!(AreaConfig::with_slot_size(3 * 4096, 4).validate().is_err());
        assert!(AreaConfig::with_slot_size(2048, 4).validate().is_err()); // < page
        assert!(AreaConfig::with_slot_size(4096, 0).validate().is_err());
        assert!(AreaConfig::with_slot_size(1 << 32, 4).validate().is_err());
        assert!(AreaConfig::with_slot_size(4096, 1 << 33)
            .validate()
            .is_err());
    }

    #[test]
    fn bitmap_size_matches_paper_arithmetic() {
        // Paper §4.2: 3.5 GB area / 64 KiB slots ≈ a 7 kB bitmap.
        let n_slots = (35 * (1usize << 30) / 10) / DEFAULT_SLOT_SIZE;
        let bitmap_bytes = n_slots / 8;
        assert!(
            (6_500..=7_500).contains(&bitmap_bytes),
            "got {bitmap_bytes}"
        );
    }
}
