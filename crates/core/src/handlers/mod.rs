//! Protocol handlers behind the node's event dispatch table.
//!
//! `node.rs` is the dispatch *core* (scheduler interleaving, thread
//! lifecycle, priority lanes); the per-tag protocol logic lives here, one
//! module per protocol family:
//!
//! * [`spawn`] — thread creation and LRPC: `SPAWN_KEY`, `RPC_SPAWN`,
//!   `RPC_CALL`;
//! * [`migration`] — thread arrival/rejection and remote migration
//!   commands: `MIGRATION`, `MIGRATION_NAK`, `MIGRATE_CMD`;
//! * [`negotiation`] — the slot-economy server side: point-to-point slot
//!   trades (`SLOT_TRADE_REQ`/`SLOT_TRADE_RESP`) plus the §4.4
//!   critical-section fallback: `NEG_LOCK_*`, `NEG_BITMAP_REQ`,
//!   `NEG_BUY`, `NEG_DONE`;
//! * [`control`] — machine control and observability: `SHUTDOWN`,
//!   `AUDIT_REQ`, `LOAD_REQ`, `THREAD_EXIT`, and the filing of protocol
//!   replies for parked green threads.
//!
//! New subsystems plug in by adding a module + tag arm here; the pump,
//! budget, and priority machinery in `node.rs` need no change.
//!
//! ## Wire input never panics a driver
//!
//! Everything a handler reads off `m.payload` or `m.tag` is input from
//! outside the node.  A payload that does not decode ([`decode`]), names
//! something this node does not have (a spawn key, a service id, slots it
//! does not own), or arrives under a tag with no handler is *dropped* and
//! counted in `NodeStats::malformed_dropped`; where a requester is waiting
//! and the request still named it, it gets the exchange's ordinary
//! refusal.  The `expect`s that remain in this tree guard node-internal
//! invariants no payload byte can reach.
//!
//! ## Priority classes
//!
//! Every tag maps to a [`Class`] (the tag table in [`crate::proto`]
//! assigns it); the pump drains **control before
//! migration before data**, so a flood of application traffic (spawns,
//! RPC) can never delay shutdown or negotiation progress, and migrations
//! overtake bulk data but never the control plane.  Within one class,
//! per-sender FIFO order is preserved — cross-class reordering is safe
//! because no PM2 exchange relies on ordering *across* families (e.g.
//! migrations are explicitly legal inside a frozen negotiation window,
//! §4.2).

pub(crate) mod control;
pub(crate) mod migration;
pub(crate) mod negotiation;
pub(crate) mod spawn;

use std::sync::atomic::Ordering;

use madeleine::{Message, Wire};

use crate::node::NodeCtx;
use crate::proto::tag;

/// Message priority class — the pump's drain order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub(crate) enum Class {
    /// Machine control, negotiation, completions, protocol replies.
    Control = 0,
    /// Thread transfer traffic.
    Migration = 1,
    /// Application payload traffic (spawns, LRPC).
    Data = 2,
}

/// Number of priority lanes.
pub(crate) const N_CLASSES: usize = 3;

/// Count one message dropped as malformed (see the module notes).
pub(crate) fn drop_malformed(ctx: &mut NodeCtx) {
    ctx.stats.malformed_dropped.fetch_add(1, Ordering::Relaxed);
}

/// Decode `m`'s payload as the message `M`; a payload that is not exactly
/// one `M` is counted as malformed and yields `None` — the handler drops
/// the message and returns.
pub(crate) fn decode<M: Wire>(ctx: &mut NodeCtx, m: &Message) -> Option<M> {
    let msg = M::decode_vec(&m.payload);
    if msg.is_none() {
        drop_malformed(ctx);
    }
    msg
}

/// Sliding 64-sequence receive dedup window for one (source, class)
/// stream.  `top` is the newest sequence number admitted; bit `d` of
/// `mask` says whether `top − d` was seen.  A chaos-duplicated message
/// reuses the original's fabric sequence number, so the replay lands on
/// an already-set bit.  Anything more than 64 behind `top` also reads as
/// a duplicate — per-link FIFO plus the fabric's one-slot holdback bound
/// genuine reordering to a distance of 1, so nothing real ever falls
/// that far behind.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DedupWindow {
    top: u64,
    mask: u64,
}

impl DedupWindow {
    /// Record `seq`; `false` means it was already seen.
    pub(crate) fn admit(&mut self, seq: u64) -> bool {
        if self.mask == 0 {
            self.top = seq;
            self.mask = 1;
            return true;
        }
        if seq > self.top {
            let d = seq - self.top;
            self.mask = if d >= 64 { 0 } else { self.mask << d };
            self.mask |= 1;
            self.top = seq;
            return true;
        }
        let d = self.top - seq;
        if d >= 64 {
            return false;
        }
        let bit = 1u64 << d;
        if self.mask & bit != 0 {
            return false;
        }
        self.mask |= bit;
        true
    }
}

/// The dispatch table: route one message to its handler.
pub(crate) fn dispatch(ctx: &mut NodeCtx, m: Message) {
    // Zombie guard: a message from a node known to be dead is late mail
    // from a corpse — epoch-style fencing.  Its slots may already be
    // reclaimed and its threads re-adopted, so acting on it could
    // double-grant a slot or resurrect completed state.  (NODE_DEAD
    // itself always passes: it is *about* a corpse, from a survivor.)
    if m.tag != tag::NODE_DEAD && m.src < ctx.n_nodes && ctx.dead_nodes.contains(&m.src) {
        return;
    }
    // The slot economy and the §4.4 protocol run between nodes only: the
    // host owns no bitmap, so a lock, freeze or trade request claiming to
    // come from it is garbage — and acting on one would lend slots to, or
    // freeze this node for, a peer that can never finish the exchange.
    let slot_protocol = matches!(
        m.tag,
        tag::NEG_LOCK_REQ..=tag::NEG_DONE | tag::SLOT_TRADE_REQ | tag::SLOT_TRADE_RESP
    );
    if slot_protocol && m.src >= ctx.n_nodes {
        return drop_malformed(ctx);
    }
    // (Chaos duplicates were already dropped at ingest — dedup must run
    // once per fabric *arrival*, not per dispatch, because messages
    // deferred during a freeze come back through here a second time.)
    match m.tag {
        tag::SPAWN_KEY => spawn::on_spawn_key(ctx, m),
        tag::RPC_SPAWN => spawn::on_rpc_spawn(ctx, m),
        tag::RPC_CALL => spawn::on_rpc_call(ctx, m),
        tag::MIGRATION => migration::on_migration(ctx, m),
        tag::MIGRATION_NAK => migration::on_migration_nak(ctx, m),
        tag::MIGRATE_CMD => migration::on_migrate_cmd(ctx, m),
        tag::NEG_LOCK_REQ => negotiation::on_lock_req(ctx, m.src),
        tag::NEG_LOCK_RELEASE => negotiation::on_lock_release(ctx, m.src),
        tag::NEG_BITMAP_REQ => negotiation::on_bitmap_req(ctx, m.src),
        tag::NEG_BUY => negotiation::on_buy(ctx, m),
        tag::NEG_DONE => negotiation::on_neg_done(ctx),
        tag::SLOT_TRADE_REQ => negotiation::on_slot_trade_req(ctx, m),
        tag::SLOT_TRADE_RESP => negotiation::on_slot_trade_resp(ctx, m),
        tag::SHUTDOWN => control::on_shutdown(ctx),
        tag::AUDIT_REQ => control::on_audit_req(ctx, m.src),
        tag::LOAD_REQ => control::on_load_req(ctx, &m),
        tag::THREAD_EXIT => control::on_thread_exit(ctx, m),
        // Replies that piggyback free-slot wealth refresh the trader's
        // hint table on the way to the waiting thread — one freshness source
        // for the balancer and the trader.
        tag::LOAD_RESP => {
            negotiation::note_load_wealth(ctx, &m);
            control::park_reply(ctx, m)
        }
        tag::MIGRATE_CMD_ACK => {
            negotiation::note_ack_wealth(ctx, &m);
            control::park_reply(ctx, m)
        }
        tag::NEG_LOCK_GRANT | tag::NEG_BITMAP_RESP | tag::NEG_BUY_ACK | tag::RPC_RESP => {
            control::park_reply(ctx, m)
        }
        tag::KILL => control::on_kill(ctx),
        tag::NODE_DEAD => control::on_node_dead(ctx, &m),
        tag::CKPT_REQ => control::on_ckpt_req(ctx, m),
        tag::NODE_RECLAIM => control::on_node_reclaim(ctx, m),
        // Arrival already refreshed the sender's last-heard stamp in
        // ingest; a ping byte additionally requests an answering pong.
        tag::HEARTBEAT => control::on_heartbeat(ctx, &m),
        tag::GOSSIP => control::on_gossip(ctx, &m),
        // No handler: an unassigned tag, or one only the host receives.
        _ => drop_malformed(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::classify;

    #[test]
    fn classes_cover_the_tag_space() {
        assert_eq!(classify(tag::SHUTDOWN), Class::Control);
        assert_eq!(classify(tag::NEG_BITMAP_REQ), Class::Control);
        assert_eq!(classify(tag::THREAD_EXIT), Class::Control);
        assert_eq!(classify(tag::LOAD_RESP), Class::Control);
        assert_eq!(classify(tag::SLOT_TRADE_REQ), Class::Control);
        assert_eq!(classify(tag::SLOT_TRADE_RESP), Class::Control);
        assert_eq!(classify(tag::GOSSIP), Class::Control);
        assert_eq!(classify(tag::HEARTBEAT), Class::Control);
        assert_eq!(classify(tag::MIGRATION), Class::Migration);
        assert_eq!(classify(tag::MIGRATE_CMD), Class::Migration);
        assert_eq!(
            classify(tag::LOAD_REQ),
            Class::Data,
            "probes must observe in-flight spawns"
        );
        assert_eq!(classify(tag::SPAWN_KEY), Class::Data);
        assert_eq!(classify(tag::RPC_CALL), Class::Data);
        assert_eq!(classify(tag::RPC_RESP), Class::Data);
        assert!(Class::Control < Class::Migration);
        assert!(Class::Migration < Class::Data);
    }

    #[test]
    fn dedup_window_catches_duplicates_and_tolerates_gaps() {
        let mut w = DedupWindow::default();
        assert!(w.admit(0), "first ever sequence admits");
        assert!(w.admit(1));
        assert!(!w.admit(1), "immediate duplicate caught");
        assert!(w.admit(5), "drop-induced gap admits");
        assert!(w.admit(3), "late (reordered) sequence inside the gap");
        assert!(!w.admit(3), "its duplicate caught");
        assert!(!w.admit(0), "old sequence still remembered");
        assert!(w.admit(4), "unseen in-window sequence admits");
    }

    #[test]
    fn dedup_window_handles_reorder_then_duplicate() {
        // The fabric's holdback swaps adjacent sends: seq 1 arrives
        // before seq 0, then chaos duplicates both.
        let mut w = DedupWindow::default();
        assert!(w.admit(1));
        assert!(w.admit(0));
        assert!(!w.admit(1));
        assert!(!w.admit(0));
        assert!(w.admit(2));
    }

    #[test]
    fn dedup_window_far_jump_forgets_cleanly() {
        let mut w = DedupWindow::default();
        assert!(w.admit(10));
        assert!(w.admit(500), "jump ≥ 64 ahead clears the window");
        assert!(!w.admit(500));
        assert!(!w.admit(10), "far-behind reads as duplicate, not panic");
        assert!(w.admit(499), "in-window slot behind the new top admits");
    }
}
