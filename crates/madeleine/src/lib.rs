//! # madeleine — the communication substrate
//!
//! PM2 runs on Madeleine, "an efficient and portable communication
//! interface for multithreaded environments" (Bougé, Méhaut, Namyst,
//! PACT'98), which in the paper's experiments drives a Myrinet network
//! through the BIP low-level interface.  The reported 75 µs migrations and
//! 255 µs negotiations are dominated by this layer's per-message latency and
//! per-byte cost.
//!
//! This reproduction keeps the *interface* (typed point-to-point messages
//! between nodes, blocking and polling receives) and replaces the wire with
//! an in-process fabric of lock-free channels plus a **calibrated wire
//! model**: each message records `latency + bytes × per-byte cost` and the
//! receiver busy-waits it as it dequeues (receiver-clocked, like polled BIP
//! receives), using published BIP/Myrinet figures
//! ([`NetProfile::myrinet_bip`]).  `NetProfile::instant()` turns the model
//! off to isolate protocol CPU cost, and tests use it for determinism.
//!
//! The substitution preserves what the paper's evaluation actually
//! exercises: the *number* of messages each protocol needs and the size of
//! each message — which is where the per-node negotiation cost and the
//! migration latency shape come from.
//!
//! ## The zero-copy payload model
//!
//! Payloads are [`Payload`] values (see [`buf`]): sealed, refcounted byte
//! buffers, usually checked out of a per-endpoint [`BufPool`].  The send
//! path never copies a sealed buffer — a clone is a refcount bump — and a
//! pooled buffer returns to its origin endpoint's free list when the last
//! receiver drops it, so steady-state traffic performs **zero payload heap
//! allocations**: checkout → send → receive → drop → checkout cycles one
//! backing buffer.
//!
//! When does [`Endpoint::send`] copy?
//!
//! | payload argument                  | copy? | allocation?                      |
//! |-----------------------------------|-------|----------------------------------|
//! | [`PayloadBuf`] (pool checkout)    | no    | none after warm-up (pool reuse)  |
//! | [`Payload`] (sealed, e.g. clone)  | no    | none (refcount bump)             |
//! | `Vec<u8>`                         | no    | one `Arc` adopting the vector    |
//! | empty `Vec<u8>` / `&[]`           | no    | none (shared empty payload)      |
//! | `&[u8]`                           | yes   | one vector (the bytes are copied)|
//!
//! [`Endpoint::broadcast`] seals its payload once and fans it out by
//! refcount: one buffer serves all `p − 1` destinations regardless of size.
//!
//! ## Doorbells: event-driven receivers
//!
//! Every send rings the destination endpoint's [`Doorbell`] *after*
//! enqueuing the message, and the ring calls the listener the receiving
//! driver installed (an executor queues the node), so an idle driver sleeps
//! instead of spin- or sleep-polling — on a loaded host the difference
//! between a ~1 ms OS-timeslice of added latency per message and a few-µs
//! wake-up.  Enqueue-then-ring means the pump a ring provokes always finds
//! the message (see [`doorbell`]); nobody parks on the bell itself, and
//! [`Endpoint::recv_until`] gives a deadline-bounded blocking receive on
//! the channel.
//!
//! ## The fault model
//!
//! By default every link is a perfect wire: no loss, no duplication, no
//! reordering beyond the documented per-pair FIFO guarantee.
//! [`Fabric::new_chaotic`] replaces it with a seeded [`FaultPlan`] (see
//! [`chaos`]) that may, per directed link and in a byte-identical
//! schedule for a given seed:
//!
//! * **drop** a message (the sender still sees `Ok` — loss is silent,
//!   like a real NIC);
//! * **duplicate** a message — the copy reuses the original's sequence
//!   number, so a receiver-side dedup window can recognize it;
//! * **delay** a message by extra modelled wire time, charged at the
//!   receiver exactly like the profile's own latency;
//! * **hold** a message in a one-slot per-link holdback queue, releasing
//!   it behind the next send on that link — a bounded same-link reorder;
//! * **cut** traffic between two node sets (scheduled windows on the
//!   plan, or [`Endpoint::set_partition`] /
//!   [`Endpoint::clear_partition`] at runtime) — partitions eat every
//!   tag bidirectionally until healed.
//!
//! What the fabric still guarantees under any plan: the modelled wire
//! clock is never falsified (each *delivered* message pays its cost at
//! the receiver exactly once), death certificates stay monotonic, and
//! tags listed in [`FaultPlan::protect_tags`] are exempt from the RNG
//! faults — embedders protect unacknowledged state-transfer messages
//! (PM2 protects migration trains, spawns, and thread-exit records:
//! those are *exactly-once* by construction, while its request/reply
//! control traffic is *at-least-once* — retried above, deduplicated at
//! the receiver).  Every injected fault is counted on the sender's
//! [`EndpointStatsSnapshot`] (`chaos_*` fields).

pub mod buf;
pub mod chaos;
pub mod doorbell;
pub mod message;
pub mod network;
pub mod profile;
pub mod stats;
pub mod wire;

pub use buf::{BufPool, BufPoolStats, Payload, PayloadBuf};
pub use chaos::FaultPlan;
pub use doorbell::Doorbell;
pub use message::Message;
pub use network::{DeathWatch, Endpoint, Fabric, NetError, WILD_GROUP};
pub use profile::{spin_for, NetProfile};
pub use stats::{EndpointStats, EndpointStatsSnapshot};
pub use wire::Wire;
