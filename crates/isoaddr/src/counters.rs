//! `counters!`: the one place a runtime counter is declared.
//!
//! Mounted as a private module in `isoaddr` and, by `#[path]`, in
//! `madeleine` and `pm2`, so sharing the macro costs no crate and no
//! dependency edge.  From one list of documented names it generates the
//! live struct (one [`Counter`] each), the `Copy`/`Eq` snapshot struct (one
//! `u64` each, same docs), `snapshot()`, the snapshot's field-wise
//! `since(&earlier)`, and `Add`/`Sum` so nodes sum with `.sum()`.
//! Counters are monotonic — nothing resets them — and a measurement window
//! is `after.since(&before)`: two snapshots, no race with what is counted.
//!
//! ## One writer per counter
//!
//! A bump is a load and a store ([`Counter::add`]), not a locked
//! read-modify-write: on a hop's path the twenty-odd `lock xadd`s cost
//! more than the plain stores by an order of magnitude.  That is sound
//! under one rule: **a counter has one writer at a time, and each writer
//! is ordered after the last** (by a lock, `&mut`, or a thread hand-off),
//! so no two bumps can interleave and lose one.  Readers — the host's
//! snapshots — may run at any time and see some recent value; a counter
//! publishes no other data, so `Relaxed` is enough on both sides, and a
//! reader that needs ordering gets it from a join or a message.
//!
//! The owners:
//!
//! * `NodeStats` — the node's driver, which holds its `NodeCtx` through
//!   the executor's node mutex (a green thread bumps through `with_ctx`,
//!   on the node it runs on *now*).  The one exception is
//!   `driver_wakeups`, which a ring can cause from any thread: it is
//!   bumped by the thread whose transition queues the node (the
//!   `Idle → Queued` claim, or the worker requeueing a node rung mid-run),
//!   and the executor's state machine admits one such transition at a
//!   time, each ordered after the last.
//! * `EndpointStats` — the `Endpoint`, which is `!Sync`: its one owner
//!   counts its own sends and receives.  The one exception is `zombies`,
//!   bumped only with the fabric's partition lock held, by whoever heals
//!   a link.
//! * `SlotStats` — the `NodeSlotManager`, through `&mut`.
//! * `BalancerStats` — the balancer daemon, one green thread.
//! * `BufPoolStats` — two sets per pool, summed when read: the locked free
//!   list's, bumped with its lock held, and the driver list's, bumped by
//!   the one thread driving the pool's node.
//!
//! A second writer needs an owner (a lock both take, or a tally of its
//! own summed in at read time); never a `fetch_add` on a counter.  Atomics that are not
//! counters — a tid source — keep theirs.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One monotonic counter of a `counters!` set: bumped by its one writer
/// (see the module notes), read by anyone.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`: a plain load and store, with no locked instruction.  Only
    /// the counter's current writer may call this — a concurrent second
    /// writer would lose bumps.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.store(self.0.load(Relaxed).wrapping_add(n), Relaxed);
    }

    /// The value now.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// `counters! { /// doc  [vis] struct Live;  /// doc  [vis] struct Snapshot { /// doc  name, … } }`
macro_rules! counters {
    (
        $(#[$live_doc:meta])* $live_vis:vis struct $live:ident;
        $(#[$snap_doc:meta])* $snap_vis:vis struct $snap:ident {
            $($(#[$doc:meta])* $name:ident,)*
        }
    ) => {
        $(#[$live_doc])*
        #[derive(Debug, Default)]
        $live_vis struct $live {
            $($(#[$doc])* pub $name: $crate::counters::Counter,)*
        }

        $(#[$snap_doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl $live {
            /// Point-in-time copy of every counter (each read on its own:
            /// the copy is not one atomic instant across fields).
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($name: self.$name.get(),)*
                }
            }
        }

        impl $snap {
            /// What was counted between `earlier` and `self`, field by
            /// field (a field read lower than `earlier` counts 0).
            pub fn since(&self, earlier: &Self) -> Self {
                $snap {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }
        }

        impl ::std::ops::Add for $snap {
            type Output = Self;
            fn add(self, other: Self) -> Self {
                $snap {
                    $($name: self.$name + other.$name,)*
                }
            }
        }

        impl ::std::iter::Sum for $snap {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::default(), |total, s| total + s)
            }
        }
    };
}
