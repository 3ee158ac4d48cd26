//! # isoaddr — the iso-address area and slot layer
//!
//! This crate implements the *slot layer* of the PM2 iso-address allocator
//! (Antoniu, Bougé, Namyst, IPPS/SPDP'99, §3.2 and §4.1–4.2):
//!
//! * a process-wide **iso-address area**: a contiguous range of virtual
//!   addresses reserved once (`PROT_NONE`) and divided into fixed-size
//!   **slots** (default 64 KiB = 16 pages, exactly as in the paper);
//! * per-node **slot bitmaps** implementing the *global reservation, local
//!   allocation* discipline: every slot is owned by exactly one agent (a node
//!   or a thread) at any time, so memory mapped at a slot on one node is
//!   guaranteed unmapped at the same addresses on every other node;
//! * initial **slot distributions** (round-robin as in the paper's
//!   implementation, plus block-cyclic and partitioned variants discussed in
//!   §4.1);
//! * the **mmapped-slot cache** optimization of §6 (keep released slots
//!   mapped so the next acquisition skips the `mmap`).
//!
//! The in-process "cluster" simulation maps every node of a [`IsoArea`] into
//! a single OS process.  This is sound *because of* the iso-address
//! discipline: a slot busy on one node is free on all others, hence the union
//! of all nodes' live mappings is collision-free inside one address space.
//! [`IsoArea`] enforces this invariant at runtime with atomic map accounting
//! (see [`IsoArea::commit_slots`]).

// The one `counters!` declaration; `madeleine` and `pm2` mount this file too.
#[macro_use]
mod counters;

pub mod area;
pub mod bitmap;
pub mod cache;
pub mod distribution;
pub mod error;
pub mod layout;
pub mod manager;
pub mod slots;
pub mod stats;
mod sys;

pub use area::{IsoArea, MapStrategy};
pub use bitmap::SlotBitmap;
pub use cache::SlotCache;
pub use distribution::Distribution;
pub use error::IsoAddrError;
pub use layout::AreaConfig;
pub use manager::{AcquireOutcome, Deal, NodeSlotManager, SlotProvider};
pub use slots::{SlotRange, VAddr};
pub use stats::{SlotStats, SlotStatsSnapshot};
