//! The endpoint doorbell: the event that makes drivers event-driven.
//!
//! A [`Doorbell`] is one listener slot.  Every
//! [`Endpoint::send`](crate::Endpoint::send) *rings* the destination
//! endpoint's doorbell after the message is enqueued, and the ring calls the
//! listener the destination's driver installed — an executor routes it into
//! its ready queue — so an idle node costs nothing until a message is
//! addressed to it, instead of spin- or sleep-polling its inbox (≈1 ms of
//! migration latency on a busy host against a few µs).
//!
//! Nobody parks *on* a bell: a driver sleeps in its own ready queue and a
//! blocking receiver in its channel ([`crate::Endpoint::recv_until`]).
//! Because a sender enqueues the message *before* ringing, a listener that
//! schedules the receiving driver can never lose a wakeup — the message is
//! visible to the pump the ring provokes.  A bell without a listener is
//! silent; its endpoint's owner polls or blocks on the channel.

use std::sync::{Arc, OnceLock};

/// Callback invoked on every ring.
pub type RingListener = Arc<dyn Fn() + Send + Sync>;

/// A cloneable wake-up channel between senders and a driver.
///
/// Cloning is a refcount bump; all clones ring the same listener.
#[derive(Clone, Default)]
pub struct Doorbell {
    /// Installed at most once; invoked with no lock held, so the listener
    /// may take its own locks freely.
    listener: Arc<OnceLock<RingListener>>,
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell")
            .field("listener", &self.listener.get().map(|_| "…"))
            .finish()
    }
}

impl Doorbell {
    /// Fresh doorbell with no listener.
    pub fn new() -> Doorbell {
        Doorbell::default()
    }

    /// Ring: call the listener, if one is installed.
    pub fn ring(&self) {
        if let Some(l) = self.listener.get() {
            l();
        }
    }

    /// Install a ring listener.  At most one listener per bell; later calls
    /// are ignored.
    pub fn set_listener(&self, l: RingListener) {
        let _ = self.listener.set(l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn listener_fires_on_every_ring_from_any_clone() {
        let db = Doorbell::new();
        db.ring(); // silent without a listener
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        db.set_listener(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        db.ring();
        db.clone().ring();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        // Second install is a no-op, the first listener keeps firing.
        db.set_listener(Arc::new(|| panic!("must not replace")));
        db.ring();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn listener_may_ring_sibling_bells_without_deadlock() {
        // The executor pattern: a listener takes its own lock and touches
        // other state.  Re-ringing the same bell from the listener would
        // recurse forever, but ringing *another* bell must be safe.
        let a = Doorbell::new();
        let b = Doorbell::new();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_listener(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        let b2 = b.clone();
        a.set_listener(Arc::new(move || b2.ring()));
        a.ring();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
