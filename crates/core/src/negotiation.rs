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
//! ranges before its reply leaves and the requester's pump sets them when
//! the reply lands — sender-clears-before-receiver-sets, so a slot has
//! exactly one bitmap owner at every instant, in flight included
//! (in-flight slots are owned by the trade message, exactly like
//! thread-owned slots mid-migration).  No lock, no freeze, no bitmap
//! gather: O(1) messages per shortfall, and the batch amortizes that one
//! round trip over many later acquisitions.  Dropping below the low
//! watermark additionally triggers an *asynchronous* prefetch from the
//! driver (`NodeCtx::maybe_prefetch`) — the same trade
//! (`NodeCtx::trade`), which nobody waits for — so steady-state allocators
//! rarely block at all.
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
//! Every slot that travels to a node — a trade grant, a §4.4 buy, a host
//! reclaim — moves clear-before-set: the giver clears its bits before the
//! message leaves, the message owns the slots in flight, and the
//! receiver's pump sets them when it lands (`NodeCtx::adopt_grant`).  A
//! frozen node refuses to lend (its gathered bitmap is being used for a
//! global first-fit, so clearing bits could double-grant), and a frozen
//! receiver adopts at the thaw that ends its last section — a buyer, at
//! the end of its own.  The global protocol's own argument is unchanged
//! from the paper.
//!
//! ## Local serialization
//!
//! One remote acquisition at a time per node: later requesters park in
//! the node's wait table under `For::Turn` (the `wait` module) and the
//! finishing holder hands the turn to the oldest — and when woken they
//! re-check the bitmap first, because the previous holder's batch usually
//! covers them.

use isoaddr::SlotBitmap;

use crate::api::{call, gather, reply_deadline, send_msg, send_to, wait_unfrozen};
use crate::error::{Pm2Error, Result};
use crate::machine::collect_ranges;
use crate::node::{with_ctx, Owed};
use crate::proto::{self, tag};
use crate::wait::{For, Wait};

/// Extra slots a *demand* trade asks for beyond the shortfall itself: the
/// batch that amortizes one trade round trip over many later acquisitions.
pub const TRADE_BATCH: usize = 16;

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
    if with_ctx(|c| !c.frozen() && c.mgr.bitmap().find_first_fit(requested, 0).is_some()) {
        return Ok(());
    }
    let trading = with_ctx(|c| c.cfg.slot_trade && c.n_nodes > 1);
    if trading {
        if try_trade(requested) {
            return Ok(());
        }
        with_ctx(|c| c.stats.trade_fallbacks.add(1));
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

/// One trade exchange with the richest known peer.  Returns whether the
/// local bitmap now satisfies the request.  A refusal or an insufficient
/// grant reports `false`, and so do a missed reply deadline and the
/// peer's death: either way the caller falls back to the global protocol.
fn try_trade(requested: usize) -> bool {
    let setup = with_ctx(|c| {
        // Ask for the shortfall *batch*: the request itself plus enough
        // spare to amortize the round trip over later acquisitions.
        let want = requested + TRADE_BATCH;
        let (peer, id) = c.trade(0, want, requested, false)?;
        Some((peer, id, c.now()))
    });
    let Some((peer, id, t0)) = setup else {
        return false; // nobody plausibly rich: straight to global
    };
    // The pump adopts the grant when the answer lands, and it runs only
    // once this thread parks: a wait opened after the send still hears it.
    let reply = Wait::for_reply(tag::SLOT_TRADE_RESP, Some(peer), Some(id), reply_deadline());
    if !matches!(reply.next(), Ok(Some(_))) {
        return false; // timed out, or the peer died under us
    }
    // A grant that landed inside a critical section (a global negotiation
    // may have frozen us while we waited) is adopted at the thaw.
    wait_unfrozen();
    with_ctx(|c| {
        let spent = c.now().duration_since(t0);
        c.stats.trade_ns.add(spent.as_nanos() as u64);
        c.mgr.bitmap().find_first_fit(requested, 0).is_some()
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
    let t0 = with_ctx(|c| c.now());
    let result = run_global_protocol(requested);
    with_ctx(|c| {
        let spent = c.now().duration_since(t0);
        c.stats.negotiations.add(1);
        c.stats.negotiation_ns.add(spent.as_nanos() as u64);
    });
    result
}

fn run_global_protocol(requested: usize) -> Result<()> {
    // Every leg of the section names its round, so a grant, bitmap or ack
    // that a stall delivers after its deadline never answers a later one.
    let (me, p, round) = with_ctx(|c| (c.node, c.n_nodes, c.next_call_id()));

    // (a) system-wide critical section against the *current* coordinator
    // — the lowest-id live node (`NodeCtx::coordinator`).  If the
    // coordinator dies before granting, the wait fails typed with its id;
    // re-resolve and re-issue.  The request queue died with the corpse,
    // so re-sending is the recovery, not a duplicate.  Each failure means
    // another node died, so p iterations bound the loop.
    let mut grant_attempts = 0usize;
    loop {
        let coord = with_ctx(|c| c.coordinator());
        let req = proto::NegLockReq { round };
        match call::<proto::NegLockGrant>("negotiation lock", coord, &req, Some(round)) {
            // A grant that does not decode is still the grant.
            Ok(_) | Err(Pm2Error::Decode(_)) => break,
            Err(timeout @ Pm2Error::Timeout { .. }) => {
                // The request may still be stalled on its way: the release
                // follows it on the link and withdraws it, or frees the
                // lock granted to it after the deadline.
                let _ = send_to(coord, tag::NEG_LOCK_RELEASE, Vec::new());
                return Err(timeout);
            }
            Err(Pm2Error::NodeFailed(n)) => {
                grant_attempts += 1;
                if grant_attempts >= p {
                    return Err(Pm2Error::NodeFailed(n));
                }
            }
            Err(e) => return Err(e),
        }
    }
    with_ctx(|c| c.freeze(c.node));

    // (b)–(d) under a cleanup guarantee: whatever fails mid-section (a
    // seller dying after the gather, say), the NEG_DONE fan-out and the
    // lock release below still run — a failed buy must not leave every
    // other node frozen forever.
    let outcome = gather_and_buy(me, p, round, requested);

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
        c.thaw(c.node);
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
fn gather_and_buy(me: usize, p: usize, round: u64, requested: usize) -> Result<()> {
    // (b) gather the bitmaps of every *live* peer.  A send refused with a
    // death certificate drops that peer from the gather: a corpse's slots
    // are reclaimed by recovery (`Machine::recover_node`), never bought.
    let mut bitmaps: Vec<Option<SlotBitmap>> = (0..p).map(|_| None).collect();
    bitmaps[me] = Some(with_ctx(|c| c.mgr.bitmap().clone()));
    let peers = (0..p).filter(|&peer| peer != me);
    let ask = |peer| send_msg(peer, &proto::NegBitmapReq { round });
    let op = "bitmap gather";
    gather(
        op,
        tag::NEG_BITMAP_RESP,
        Some(round),
        reply_deadline(),
        peers,
        ask,
        |m| {
            // Matched by its leading round id: at least 8 bytes long.
            let bm = SlotBitmap::from_bytes(&m.payload[8..])
                .ok_or_else(|| Pm2Error::Net("malformed bitmap response".into()))?;
            bitmaps[m.src] = Some(bm);
            Ok(())
        },
    )?;

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

    // (d) first-fit in the union, and buy the non-local sub-ranges: one
    // `NEG_BUY` per owner.
    let Some(first) = global.find_first_fit(requested, 0) else {
        return Err(Pm2Error::OutOfSlots { requested });
    };
    let slots = first..first + requested;
    let mut asked: Vec<usize> = Vec::new();
    for o in slots.clone().map(|slot| owner[slot] as usize) {
        if o != me && !asked.contains(&o) {
            asked.push(o);
        }
    }
    // An ack proves its seller cleared its bits: the pump adopts the
    // ranges owed when it lands, late or not, whoever else dies.  A dead
    // seller's ranges fall to corpse reclamation (whether it cleared them
    // is unknowable), and the round reports the death typed.
    let buy = |seller| {
        let ranges = collect_ranges(slots.clone(), |s| owner[s] as usize == seller);
        with_ctx(|c| c.owed.insert((round, seller), Owed::Buy(ranges.clone())));
        let ranges = proto::Ranges(ranges);
        send_msg(seller, &proto::NegBuy { round, ranges })
    };
    let (due, acked) = (reply_deadline(), |_| Ok(()));
    let lost = gather("buy", tag::NEG_BUY_ACK, Some(round), due, asked, buy, acked)?;
    // A seller that could not be asked is dead too.
    with_ctx(|c| lost.iter().for_each(|&s| drop(c.owed.remove(&(round, s)))));
    match lost.last() {
        Some(&seller) => Err(Pm2Error::NodeFailed(seller)),
        None => Ok(()),
    }
}
