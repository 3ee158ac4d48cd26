//! Remote slot acquisition: **trade first, negotiate as a fallback**.
//!
//! The paper's §4.4 answer to a slot shortfall is a system-wide critical
//! section: a FIFO lock on the coordinator (the lowest-id live node —
//! node 0 until it dies), a gather of all `p − 1` bitmaps, a
//! global OR, a first-fit, per-seller buys, and a freeze of every node's
//! allocator for the duration — the measured "another 165 µs per extra
//! node" affine cost.  That protocol survives below (`run_global`), but
//! it is now the *fallback*, not the hot path.
//!
//! ## The trade-first hot path
//!
//! Each node runs a decentralized slot economy: it keeps a free-slot
//! *reserve* with low/high watermarks, learns every peer's reserve from
//! free-slot counts piggybacked on existing traffic (trade replies,
//! `LOAD_RESP` probes, `MIGRATE_CMD_ACK`s — no extra round trips), and on
//! a shortfall sends one point-to-point `SLOT_TRADE_REQ` to the richest
//! known peer.  The lender clears the bits of a *batch* of contiguous
//! ranges before its reply leaves and the requester sets them on receipt
//! — sender-clears-before-receiver-sets, so a slot has exactly one bitmap
//! owner at every instant, in flight included (in-flight slots are owned
//! by the trade message, exactly like thread-owned slots mid-migration).
//! No lock, no freeze, no bitmap gather: O(1) messages per shortfall, and
//! the batch amortizes that one round trip over many later acquisitions.
//! Dropping below the low watermark additionally triggers an
//! *asynchronous* prefetch trade from the driver (see
//! `NodeCtx::maybe_prefetch`), so steady-state allocators rarely block at
//! all.
//!
//! ## When the paper's protocol still runs
//!
//! `run_global` is entered only when the trade could not help:
//!
//! * the chosen lender **refused** (it was frozen inside someone's
//!   critical section, or granting would take it below its own low
//!   watermark);
//! * the grant landed but **no contiguous run** of the requested length
//!   exists in the merged bitmap (cluster genuinely fragmented — only a
//!   global first-fit over the OR of all bitmaps can prove or disprove a
//!   fit);
//! * no peer is believed to own any spare slots at all;
//! * trading is disabled (`slot_trade` knob off — the measured baseline).
//!
//! The global path is the authority of last resort: unlike trades, its
//! `NEG_BUY`s ignore watermarks, so a uniformly poor cluster still
//! converges through it.  Its `owner_of` resolution is a precomputed
//! owner table built once from the gathered bitmaps (O(p + set bits)),
//! not the old O(p · slots) per-slot scan.
//!
//! ## Safety argument (iso-address invariant)
//!
//! Every transfer path keeps "each slot owned by exactly one agent":
//! trades clear-before-set with the in-flight interval owned by the
//! message; a frozen node refuses to lend (its gathered bitmap is being
//! used for a global first-fit, so clearing bits could double-grant);
//! a frozen requester defers adoption until `NEG_DONE` (the pump parks
//! the ranges in `pending_adopts`).  The global protocol's own argument
//! is unchanged from the paper.
//!
//! ## Local serialization
//!
//! One remote acquisition at a time per node: later requesters park in
//! the node's wait table under `For::Turn` (the `wait` module) and the
//! finishing holder hands the turn to the oldest — and when woken they
//! re-check the bitmap first, because the previous holder's batch usually
//! covers them.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use isoaddr::{SlotBitmap, SlotRange};

use crate::api::{
    call, gather, reply_deadline, retry, send_msg, send_to, timed_out, wait_unfrozen,
};
use crate::error::{Pm2Error, Result};
use crate::machine::collect_ranges;
use crate::node::with_ctx;
use crate::proto::{self, tag};
use crate::wait::{For, Wait};

/// Acquire ownership of `requested` contiguous slots into the calling
/// node's bitmap.  On success the local bitmap is guaranteed to contain a
/// run of `requested` set bits.  Runs on the requesting green thread;
/// while it waits for replies it is parked, so its node keeps pumping
/// messages and running other threads.
pub(crate) fn acquire_remote(requested: usize) -> Result<()> {
    // One remote acquisition at a time per node: a contending requester
    // parks until the holder hands it the turn (`negotiating` stays set).
    if with_ctx(|c| std::mem::replace(&mut c.negotiating, true)) {
        let _ = Wait::open(For::Turn, None).next();
    }
    let result = run_acquire(requested);
    // Pass the turn to the oldest waiter, or give it up.
    with_ctx(|c| c.negotiating = c.waits.wake(&c.sched, For::Turn));
    result
}

fn run_acquire(requested: usize) -> Result<()> {
    // A previous holder's trade batch may already cover us.
    if with_ctx(|c| !c.frozen && c.mgr.bitmap().find_first_fit(requested, 0).is_some()) {
        return Ok(());
    }
    let trading = with_ctx(|c| c.cfg.slot_trade && c.n_nodes > 1);
    if trading {
        if try_trade(requested) {
            return Ok(());
        }
        with_ctx(|c| c.stats.trade_fallbacks.fetch_add(1, Ordering::Relaxed));
    }
    // The global fallback fails typed when a participant dies mid-
    // protocol (a seller mid-buy, or the coordinator mid-grant).  The
    // cluster re-converges — the death is announced, the corpse skipped,
    // a successor coordinator elected — so one more pass per lost peer is
    // sound; cap it to the machine size.
    let max_tries = with_ctx(|c| c.n_nodes.min(4));
    let mut tries = 0;
    loop {
        match run_global(requested) {
            Err(Pm2Error::NodeFailed(_)) if tries + 1 < max_tries => tries += 1,
            other => return other,
        }
    }
}

/// One trade exchange with the richest known peer, retried on loss:
/// each attempt re-picks the richest peer (hints may have moved) under a
/// fresh trade id and an exponentially growing slice of the reply
/// deadline.  Returns whether the local bitmap now satisfies the
/// request.  A *received* refusal or insufficiency reports `false`
/// immediately — that is a negative answer, not loss — and so does a
/// spent retry budget: either way the caller falls back to the global
/// protocol.
fn try_trade(requested: usize) -> bool {
    let (total, stats) = with_ctx(|c| (c.cfg.reply_deadline, Arc::clone(&c.stats)));
    retry("slot trade", total, &stats.ctrl_retries, |deadline| {
        Ok(try_trade_once(requested, deadline))
    })
    .unwrap_or(false)
}

/// One attempt of [`try_trade`]: `Some(satisfied)` on a received answer,
/// `None` when the exchange was lost and a retry is worthwhile.
fn try_trade_once(requested: usize, deadline: Instant) -> Option<bool> {
    let t0 = Instant::now();
    let setup = with_ctx(|c| {
        let peer = c.richest_peer(0)?;
        let req = proto::SlotTradeReq {
            trade_id: c.next_call_id(),
            // Ask for the shortfall *batch*: the request itself plus enough
            // spare to amortize the round trip over later acquisitions.
            want: (requested + c.cfg.trade_batch) as u32,
            min_contig: requested as u32,
            wealth: c.mgr.free_slots() as u32,
        };
        // The pump adopts the grant when the answer lands — in time, or
        // after this attempt gave up on it: the lender has cleared the
        // slots either way — and then tells whoever still waits.
        c.prefetch_pending.insert(req.trade_id);
        c.stats.trades.fetch_add(1, Ordering::Relaxed);
        Some((peer, req))
    });
    let Some((peer, req)) = setup else {
        return Some(false); // nobody plausibly rich: straight to global
    };
    match call::<proto::SlotTradeResp>(peer, &req, Some(req.trade_id), deadline) {
        // An answer that does not decode is still an answer.
        Ok(Some(_)) | Err(Pm2Error::Decode(_)) => {}
        // Timed out, or the peer died under us (a retry re-picks).
        Ok(None) | Err(_) => return None,
    }
    // A grant that landed inside a critical section (a global negotiation
    // may have frozen us while we waited) is adopted at the thaw.
    wait_unfrozen();
    with_ctx(|c| {
        c.stats
            .trade_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Some(c.mgr.bitmap().find_first_fit(requested, 0).is_some())
    })
}

/// The paper's global negotiation (§4.4), verbatim in protocol shape:
///
/// (a) enter a system-wide critical section — a FIFO lock service on the
///     elected coordinator (the lowest-id live node); every node freezes
///     its bitmap when it answers the gather (and
///     unfreezes on `NEG_DONE`), so "no other node is allowed to modify
///     its slot bitmap within this section" while code and block-level
///     allocation keep running;
/// (b) gather the local bitmaps of all nodes;
/// (c) compute a global OR;
/// (d) first-fit for `n` contiguous available slots and *buy* the
///     non-local ones (mark 1 in the requester's bitmap, 0 in the
///     owners');
/// (e) the per-seller `NEG_BUY` messages are the updated-bitmap deltas;
/// (f) exit the critical section.
///
/// The cost is dominated by gathering `p − 1` bitmaps — what makes the
/// measured cost affine in the node count, the paper's "another 165 µs
/// per extra node" — which is exactly why this runs only when a trade
/// could not help.
fn run_global(requested: usize) -> Result<()> {
    let t0 = Instant::now();
    let result = run_global_protocol(requested);
    with_ctx(|c| {
        c.stats.negotiations.fetch_add(1, Ordering::Relaxed);
        c.stats
            .negotiation_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    });
    result
}

fn run_global_protocol(requested: usize) -> Result<()> {
    let (me, p) = with_ctx(|c| (c.node, c.n_nodes));

    // (a) system-wide critical section against the *current* coordinator
    // — the lowest-id live node (`NodeCtx::coordinator`).  If the
    // coordinator dies before granting, the wait fails typed with its id;
    // re-resolve and re-issue.  The request queue died with the corpse,
    // so re-sending is the recovery, not a duplicate.  Each failure means
    // another node died, so p iterations bound the loop.
    let mut grant_attempts = 0usize;
    loop {
        let coord = with_ctx(|c| c.coordinator());
        let grant = Wait::for_reply(tag::NEG_LOCK_GRANT, Some(coord), None, reply_deadline());
        match send_to(coord, tag::NEG_LOCK_REQ, Vec::new()).and_then(|()| grant.next()) {
            Ok(Some(_)) => break,
            Ok(None) => return Err(timed_out(tag::NEG_LOCK_GRANT)),
            Err(Pm2Error::NodeFailed(n)) => {
                grant_attempts += 1;
                if grant_attempts >= p {
                    return Err(Pm2Error::NodeFailed(n));
                }
            }
            Err(e) => return Err(e),
        }
    }
    with_ctx(|c| c.frozen = true);

    // (b)–(d) under a cleanup guarantee: whatever fails mid-section (a
    // seller dying after the gather, say), the NEG_DONE fan-out and the
    // lock release below still run — a failed buy must not leave every
    // other node frozen forever.
    let outcome = gather_and_buy(me, p, requested);

    // (e)+(f): end the critical section everywhere and release the lock —
    // addressed to whoever coordinates *now*.  If our granter died
    // mid-section, its successor never recorded our holdership and
    // ignores the stale release (but still services its queue).
    with_ctx(|c| {
        for peer in 0..p {
            if peer != c.node {
                let _ = c.ep.send(peer, tag::NEG_DONE, Vec::new());
            }
        }
        c.thaw();
    });
    let _ = send_to(
        with_ctx(|c| c.coordinator()),
        tag::NEG_LOCK_RELEASE,
        Vec::new(),
    );
    outcome
}

/// Steps (b)–(d) of the global protocol: gather live peers' bitmaps,
/// first-fit the union, buy the non-local sub-ranges.  Peers that die
/// mid-gather or mid-buy are pruned instead of hung on: their reply is
/// never coming, and their slots are recovery's business, not this
/// negotiation's.
fn gather_and_buy(me: usize, p: usize, requested: usize) -> Result<()> {
    // (b) gather the bitmaps of every *live* peer.  A send refused with a
    // death certificate drops that peer from the gather: a corpse's slots
    // are reclaimed by recovery (`Machine::recover_node`), never bought.
    let mut bitmaps: Vec<Option<SlotBitmap>> = (0..p).map(|_| None).collect();
    bitmaps[me] = Some(with_ctx(|c| c.mgr.bitmap().clone()));
    let peers = (0..p).filter(|&peer| peer != me);
    let ask = |peer| send_to(peer, tag::NEG_BITMAP_REQ, Vec::new());
    gather(tag::NEG_BITMAP_RESP, reply_deadline(), peers, ask, |m| {
        let bm = SlotBitmap::from_bytes(&m.payload)
            .ok_or_else(|| Pm2Error::Net("malformed bitmap response".into()))?;
        bitmaps[m.src] = Some(bm);
        Ok(())
    })?;

    // (c) global OR, plus the owner table: one pass over the gathered
    // bitmaps' set bits gives O(1) owner lookups in step (d) — the old
    // per-slot owner scan was O(p · slots) in the worst case.  Dead
    // peers' entries stay `None` and simply do not contribute.
    let mut global = bitmaps[me].clone().expect("own bitmap present");
    let mut owner: Vec<u16> = vec![u16::MAX; global.len()];
    for (i, bm) in bitmaps.iter().enumerate() {
        let Some(bm) = bm.as_ref() else { continue };
        if i != me {
            global.or_with(bm);
        }
        for slot in bm.iter_ones() {
            owner[slot] = i as u16;
        }
    }

    // (d) first-fit in the union.
    match global.find_first_fit(requested, 0) {
        None => Err(Pm2Error::OutOfSlots { requested }),
        Some(first) => {
            let range = SlotRange::new(first, requested);
            // Group the range into per-owner sub-ranges and buy the
            // non-local ones.
            let slots = range.first..range.end();
            let mut sellers: Vec<(usize, Vec<SlotRange>)> = Vec::new();
            for o in slots.clone().map(|slot| owner[slot] as usize) {
                if o != me && sellers.iter().all(|(seller, _)| *seller != o) {
                    sellers.push((o, collect_ranges(slots.clone(), |s| owner[s] as usize == o)));
                }
            }
            let ranges_of = |seller: usize| {
                let sale = sellers.iter().find(|(owner, _)| *owner == seller);
                sale.map_or(&[][..], |(_, ranges)| ranges)
            };
            // Grant per *acked* seller: an ack proves that seller cleared
            // its bits, so its ranges transfer even if another seller
            // dies (or the round times out).  A dead seller's ranges stay
            // ungranted — whether the corpse cleared them is unknowable,
            // so they fall to corpse reclamation — and the negotiation
            // reports the death typed (the caller may retry; our NEG_DONE
            // fan-out still runs).
            let mut bought: Vec<SlotRange> = Vec::new();
            let buy = |seller| {
                let ranges = proto::Ranges(ranges_of(seller).to_vec());
                send_msg(seller, &proto::NegBuy { ranges })
            };
            let asked = sellers.iter().map(|(owner, _)| *owner);
            let lost_sellers = gather(tag::NEG_BUY_ACK, reply_deadline(), asked, buy, |m| {
                bought.extend_from_slice(ranges_of(m.src));
                Ok(())
            });
            with_ctx(|c| {
                for r in &bought {
                    c.mgr.grant(*r);
                }
            });
            match lost_sellers?.last() {
                Some(&seller) => Err(Pm2Error::NodeFailed(seller)),
                None => Ok(()),
            }
        }
    }
}
