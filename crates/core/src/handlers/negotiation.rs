//! Server-side slot-economy handlers: the point-to-point slot trade
//! (`SLOT_TRADE_REQ`/`SLOT_TRADE_RESP`) plus the surviving §4.4 global
//! fallback — the FIFO lock service on the elected coordinator (the
//! lowest-id live node; see [`crate::node::NodeCtx::coordinator`]), the
//! bitmap gather, slot sales, and the critical-section exit.  The
//! *initiator* side of both paths runs on the requesting green thread in
//! [`crate::negotiation`].
//!
//! ## The trade grant (lender side)
//!
//! A trade request names how many slots the requester wants, the minimum
//! contiguous run that would satisfy it outright, and the requester's own
//! free-slot wealth (which refreshes our hint table for free).  The grant
//! decision is purely local:
//!
//! * **frozen** (we are inside somebody's §4.4 critical section) → refuse.
//!   Our gathered bitmap is being used for a global first-fit; clearing
//!   bits now could double-grant a slot the initiator is about to buy.
//! * otherwise lend `min(want, free − low_watermark)` slots — the lender
//!   never trades itself below its own low watermark, so trade storms
//!   cannot ping-pong the same slots around the cluster.  (The *global*
//!   protocol ignores watermarks: it is the authority of last resort, so a
//!   cluster of all-poor nodes still converges through it.)
//!
//! The loan comes off the lender's low end, like every slot choice: the
//! first-fit `min_contig` run if the lender owns one, then its lowest
//! maximal runs.  So the slots that circulate are ones already touched,
//! and a thread whose slots drift between nodes keeps a footprint the size
//! of its live set.
//!
//! Bits are cleared by [`isoaddr::NodeSlotManager::lend_batch`] before the
//! reply is sent — sender-clears-before-receiver-sets — so at every
//! instant a slot is set in at most one bitmap; in-flight slots are owned
//! by the trade message itself, exactly like thread-owned slots in flight
//! during a migration.
//!
//! ## Wealth piggybacking
//!
//! Free-slot counts ride every `SLOT_TRADE_*`, `LOAD_RESP` and
//! `MIGRATE_CMD_ACK` message, so choosing the richest peer needs no extra
//! round trips: the balancer's probes and the trader share one freshness
//! source (see [`note_load_wealth`] / [`note_ack_wealth`], called from the
//! dispatch table before replies are filed).

use isoaddr::Deal;
use madeleine::message::PayloadReader;
use madeleine::{Message, Wire};

use super::{decode, drop_malformed};
use crate::node::{NodeCtx, Owed};
use crate::proto::{self, tag};

pub(crate) fn on_lock_req(ctx: &mut NodeCtx, m: &Message) {
    let Some(proto::NegLockReq { round }) = decode(ctx, m) else {
        return;
    };
    // The lock service is a *leased role*, not an address: it lives on
    // the lowest-id live node.  A request reaching a non-coordinator is
    // an election-window straggler (the requester resolved the role an
    // instant before or after we did); drop it — the requester's wait
    // fails typed when the old coordinator's death lands, and it
    // re-resolves and re-sends.
    if !ctx.is_coordinator() {
        return;
    }
    // A node asks once per round, and its release (sent on a timeout too)
    // precedes its next request on the link: no entry of it is queued.
    ctx.lock_queue.push_back((m.src, round));
    ctx.service_lock_queue();
}

pub(crate) fn on_lock_release(ctx: &mut NodeCtx, from: usize) {
    // Only the holder *we* granted can free the service.  A release from
    // anyone else is stale — typically a holder granted by a dead
    // predecessor coordinator, whose critical section we never recorded —
    // and must not unlock a section belonging to someone we did grant.
    // A requester that gave up on its grant releases too: that withdraws
    // its request, or frees the lock granted after its deadline.
    if ctx.lock_holder == Some(from) {
        ctx.lock_holder = None;
    }
    ctx.lock_queue.retain(|&(w, _)| w != from);
    ctx.service_lock_queue();
}

pub(crate) fn on_bitmap_req(ctx: &mut NodeCtx, m: &Message) {
    let Some(proto::NegBitmapReq { round }) = decode(ctx, m) else {
        return;
    };
    let from = m.src;
    // Entering the system-wide critical section as a participant: the
    // bitmap freezes until this initiator's NEG_DONE (step (a) of §4.4),
    // or its death.
    ctx.freeze(from);
    // The gather reply rides a pooled buffer: the initiator collects
    // p − 1 of these per negotiation, so recycling matters.
    let mut buf = ctx.pool.checkout(8 + ctx.mgr.bitmap_wire_len());
    buf.extend_from_slice(&round.to_le_bytes());
    ctx.mgr.bitmap_bytes_into(&mut buf);
    let _ = ctx.ep.send(from, tag::NEG_BITMAP_RESP, buf);
}

pub(crate) fn on_buy(ctx: &mut NodeCtx, m: Message) {
    let Some(proto::NegBuy { round, ranges }) = decode(ctx, &m) else {
        return;
    };
    // A buy is computed from the bitmap we answered the gather with, so
    // it names disjoint ranges we own; one that does not is garbage, and
    // selling any part of it would corrupt the partition.  The protocol
    // has no refusal, so the sender's ack gather runs into its deadline.
    let n = ctx.mgr.bitmap().len();
    let sellable = ranges.0.iter().enumerate().all(|(i, r)| {
        r.end() <= n
            && ctx.mgr.bitmap().all_set(*r)
            && ranges.0[..i].iter().all(|earlier| !earlier.overlaps(r))
    });
    if !sellable {
        return drop_malformed(ctx);
    }
    for r in ranges.0 {
        // Can only fail unmapping a slot we own: a broken area, not input.
        ctx.mgr.give(r, Deal::Sale).expect("selling owned slots");
    }
    let _ = ctx.send_msg(m.src, &proto::NegBuyAck { round });
}

/// A buy ack, on time or late: the pump adopts what the seller owed for
/// the round (`NodeCtx::owed`), then files the ack for the round's
/// gather, which only counts it.
pub(crate) fn on_buy_ack(ctx: &mut NodeCtx, m: Message) {
    let owed = proto::peek_id(&m.payload).and_then(|round| ctx.owed.remove(&(round, m.src)));
    if let Some(Owed::Buy(ranges)) = owed {
        ctx.adopt_grant(&ranges, Deal::Sale);
    }
    super::control::park_reply(ctx, m)
}

pub(crate) fn on_neg_done(ctx: &mut NodeCtx, from: usize) {
    ctx.thaw(from);
    // If we are the coordinator, the freeze may have been the one thing
    // deferring a grant (e.g. a holder inherited from a dead predecessor
    // just finished its critical section).
    ctx.service_lock_queue();
}

/// A peer below its low watermark asks this node for slots.  Decide and
/// answer immediately — the grant never blocks, never locks, never touches
/// any other node.
pub(crate) fn on_slot_trade_req(ctx: &mut NodeCtx, m: Message) {
    // A corrupt request costs the request; the requester's reply deadline
    // (or its global fallback) covers the missing answer.
    let Some(req) = decode::<proto::SlotTradeReq>(ctx, &m) else {
        return;
    };
    ctx.set_peer_wealth(m.src, req.wealth as u64);
    let free = ctx.mgr.free_slots();
    let spare = if ctx.frozen() {
        0 // mid-critical-section: our bitmap must not change (§4.4 (a))
    } else {
        free.saturating_sub(ctx.cfg.slot_low_watermark)
    };
    let give = spare.min(req.want as usize);
    let ranges = if give == 0 {
        ctx.stats.trade_refusals.add(1);
        Vec::new()
    } else {
        ctx.stats.trade_grants.add(1);
        // `give` is capped by what we own; this can only fail unmapping
        // a slot of ours — a broken area, not input.
        ctx.mgr
            .lend_batch(give, req.min_contig as usize)
            .expect("lending owned slots")
    };
    let wealth = ctx.mgr.free_slots() as u32;
    ctx.set_peer_wealth(ctx.node, wealth as u64);
    let resp = proto::SlotTradeResp {
        trade_id: req.trade_id,
        wealth,
        ranges: proto::Ranges(ranges),
    };
    let _ = ctx.send_msg(m.src, &resp);
}

/// A trade reply: the pump adopts what the lender owed (`NodeCtx::owed`)
/// — the prefetch's, a demand trade's, one nobody waits for any more —
/// then files the reply for `negotiation::try_trade`'s thread, if one
/// waits.  A reply nothing is owed under answers a trade twice.
pub(crate) fn on_slot_trade_resp(ctx: &mut NodeCtx, m: Message) {
    let Some(id) = proto::peek_id(&m.payload) else {
        return drop_malformed(ctx);
    };
    let Some(Owed::Trade { prefetch }) = ctx.owed.remove(&(id, m.src)) else {
        return super::control::park_reply(ctx, m);
    };
    if let Some(proto::SlotTradeResp { wealth, ranges, .. }) = decode(ctx, &m) {
        ctx.set_peer_wealth(m.src, wealth as u64);
        // (Nothing granted: the wealth update steers the next attempt away.)
        let ranges = ranges.0;
        if !ranges.is_empty() && ctx.adopt_grant(&ranges, Deal::Loan) {
            if prefetch {
                ctx.stats.prefetch_fills.add(1);
            }
            let total: u64 = ranges.iter().map(|r| r.count as u64).sum();
            ctx.stats.trade_slots_in.add(total);
        }
    }
    let _ = ctx.waits.file(&ctx.sched, m);
}

/// Refresh the wealth and load hint tables from a `LOAD_RESP` on its way
/// to the waiting thread — a direct probe answer is at least as fresh as any
/// gossiped entry about the same peer.
pub(crate) fn note_load_wealth(ctx: &mut NodeCtx, m: &Message) {
    // The `(resident, wealth)` pair leads the payload: read just those
    // eight bytes here — the full decode happens at the waiting green
    // thread, so the dispatch path allocates no tid vector.
    if let Some((resident, w)) = <(u32, u32)>::decode(&mut PayloadReader::new(&m.payload)) {
        ctx.set_peer_wealth(m.src, w as u64);
        if let Some(l) = ctx.peer_load.get_mut(m.src) {
            *l = resident;
        }
    }
}

/// Refresh the wealth hint table from a `MIGRATE_CMD_ACK` on its way to
/// the waiting thread.
pub(crate) fn note_ack_wealth(ctx: &mut NodeCtx, m: &Message) {
    if let Some(ack) = proto::MigrateAck::decode_vec(&m.payload) {
        ctx.set_peer_wealth(m.src, ack.wealth as u64);
    }
}
