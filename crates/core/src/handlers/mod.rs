//! Protocol handlers behind the node's event dispatch table.
//!
//! `node.rs` is the dispatch *core* (scheduler interleaving, thread
//! lifecycle, the pump); the per-tag protocol logic lives here, one
//! module per protocol family:
//!
//! * [`spawn`] — thread creation and LRPC: `SPAWN_KEY`, `RPC_CALL`;
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
//! New subsystems plug in by adding a module + tag arm here; the pump in
//! `node.rs` needs no change.
//!
//! ## Wire input never panics a driver
//!
//! Everything a handler reads off `m.payload` or `m.tag` is input from
//! outside the node.  A payload that does not decode ([`decode`]), names
//! something this node does not have (a spawn key, a service id, slots it
//! does not own), grants it slots it already owns, or arrives under a tag
//! with no handler is *dropped* and counted in
//! `NodeStats::malformed_dropped`; where a requester is waiting
//! and the request still named it, it gets the exchange's ordinary
//! refusal.  The `expect`s that remain in this tree guard node-internal
//! invariants no payload byte can reach.
//!
//! ## One order
//!
//! The pump hands every message to [`dispatch`] in the order its link
//! delivered it, as Madeleine does: a handler sees everything its sender
//! sent before, so a `MIGRATE_CMD` that follows a `SPAWN_KEY` on a link
//! finds the thread that spawn created.  The one exception is the freeze:
//! a `SPAWN_KEY` that lands while a §4.4 section holds the bitmap waits in
//! `NodeCtx::deferred`, and the thaw dispatches it again.

pub(crate) mod control;
pub(crate) mod migration;
pub(crate) mod negotiation;
pub(crate) mod spawn;

use madeleine::{Message, Wire};

use crate::node::NodeCtx;
use crate::proto::tag;

/// Count one message dropped as malformed (see the module notes).
pub(crate) fn drop_malformed(ctx: &mut NodeCtx) {
    ctx.stats.malformed_dropped.add(1);
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
    match m.tag {
        // A spawn needs a stack slot (a bitmap mutation): while a §4.4
        // section holds the bitmap frozen, it waits for the thaw.
        tag::SPAWN_KEY if ctx.frozen() => ctx.deferred.push_back(m),
        tag::SPAWN_KEY => spawn::on_spawn_key(ctx, m),
        tag::RPC_CALL => spawn::on_rpc_call(ctx, m),
        tag::MIGRATION => migration::on_migration(ctx, m),
        tag::MIGRATION_NAK => migration::on_migration_nak(ctx, m),
        tag::MIGRATE_CMD => migration::on_migrate_cmd(ctx, m),
        tag::NEG_LOCK_REQ => negotiation::on_lock_req(ctx, &m),
        tag::NEG_LOCK_RELEASE => negotiation::on_lock_release(ctx, m.src),
        tag::NEG_BITMAP_REQ => negotiation::on_bitmap_req(ctx, &m),
        tag::NEG_BUY => negotiation::on_buy(ctx, m),
        tag::NEG_BUY_ACK => negotiation::on_buy_ack(ctx, m),
        tag::NEG_DONE => negotiation::on_neg_done(ctx, m.src),
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
        tag::NEG_LOCK_GRANT | tag::NEG_BITMAP_RESP | tag::RPC_RESP => control::park_reply(ctx, m),
        tag::KILL => control::on_kill(ctx),
        tag::NODE_DEAD => control::on_node_dead(ctx, &m),
        tag::GOSSIP => control::on_gossip(ctx, &m),
        // No handler: an unassigned tag, or one only the host receives.
        _ => drop_malformed(ctx),
    }
}
