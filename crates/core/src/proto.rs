//! Wire protocol: message tags and payload codecs.
//!
//! Tag space of the PM2 runtime over the Madeleine fabric.  Payloads are
//! little-endian framed through the [`Wire`] trait — each protocol message
//! body is a tuple of typed fields, so the encode and decode sides cannot
//! drift apart.  (`SlotBitmap` ships its own serialized form and stays
//! byte-level.)
//!
//! Every encoder writes into a buffer checked out of the caller's
//! [`BufPool`] (each endpoint owns one) and returns a sealed [`Payload`],
//! so protocol traffic allocates nothing in steady state: the receiver's
//! drop recycles the buffer into the sender's free list.

use isoaddr::SlotRange;
use madeleine::message::PayloadWriter;
use madeleine::{BufPool, Payload, Wire};

use crate::error::{Pm2Error, Result};
use crate::registry::ThreadExit;

/// Message tags.
pub mod tag {
    /// Host → node: spawn the closure stored under a spawn-table key.
    pub const SPAWN_KEY: u16 = 1;
    /// Any → node: spawn a registered service (LRPC-style remote spawn).
    pub const RPC_SPAWN: u16 = 2;
    /// Node → node: a packed migration *train* — one message carrying k ≥ 1
    /// threads bound for this node (count + tid/offset table + records; see
    /// `crate::migration` for the wire shape).
    pub const MIGRATION: u16 = 3;
    /// Receiver → sender: one or more record groups of a migration train
    /// failed to unpack (corrupt or truncated); carries the lost tids and
    /// a UTF-8 description.  Those threads are lost but both nodes stay
    /// up, and the rest of the train landed normally.
    pub const MIGRATION_NAK: u16 = 4;
    /// Any → node 0: request the system-wide negotiation lock.
    pub const NEG_LOCK_REQ: u16 = 10;
    /// Node 0 → requester: lock granted.
    pub const NEG_LOCK_GRANT: u16 = 11;
    /// Holder → node 0: lock released.
    pub const NEG_LOCK_RELEASE: u16 = 12;
    /// Initiator → all: send me your bitmap (freezes the replier's bitmap).
    pub const NEG_BITMAP_REQ: u16 = 13;
    /// Replier → initiator: my bitmap.
    pub const NEG_BITMAP_RESP: u16 = 14;
    /// Initiator → seller: transfer these slot ranges to me.
    pub const NEG_BUY: u16 = 15;
    /// Seller → initiator: done.
    pub const NEG_BUY_ACK: u16 = 16;
    /// Initiator → all: negotiation over; unfreeze your bitmap.
    pub const NEG_DONE: u16 = 17;
    /// Host → node: finish resident threads, then stop.
    pub const SHUTDOWN: u16 = 20;
    /// Node → host: stopped.
    pub const SHUTDOWN_ACK: u16 = 21;
    /// Host → node: report ownership for the global audit.
    pub const AUDIT_REQ: u16 = 22;
    /// Node → host: audit report.
    pub const AUDIT_RESP: u16 = 23;
    /// Any → node: report your load (resident thread count).
    pub const LOAD_REQ: u16 = 24;
    /// Node → requester: load report.
    pub const LOAD_RESP: u16 = 25;
    /// Any → node: preemptively migrate a *list* of threads to node `dest`
    /// (cmd id, dest, tids) — one command per (source, destination) pair,
    /// however many threads move.
    pub const MIGRATE_CMD: u16 = 26;
    /// Node → requester: migrate command outcome (cmd id, accepted count,
    /// total count).  The echoed cmd id is what lets a deadline-bounded
    /// balancer round match acks without serializing on them.
    pub const MIGRATE_CMD_ACK: u16 = 27;
    /// Node → home node: thread exited (for cross-node joins; carries the
    /// panic message and the Wire-encoded return value when present).
    pub const THREAD_EXIT: u16 = 28;
    /// Any → node: typed LRPC request (call id, service id, request bytes).
    pub const RPC_CALL: u16 = 30;
    /// Serving node → caller: typed LRPC response (call id, status, bytes).
    pub const RPC_RESP: u16 = 31;
    /// Node → node: point-to-point slot trade request (trade id, slots
    /// wanted, minimum contiguous run, requester's free-slot wealth).  The
    /// hot-path replacement for the §4.4 global negotiation: no lock, no
    /// freeze, no bitmap gather — one request to the richest known peer.
    pub const SLOT_TRADE_REQ: u16 = 32;
    /// Node → requester: trade reply (trade id, responder's post-trade
    /// wealth, granted slot ranges — empty = refused).  The responder
    /// cleared its bits before this message left, so adopting the ranges
    /// completes the ownership transfer with exactly one bitmap owner per
    /// slot at every instant.
    pub const SLOT_TRADE_RESP: u16 = 33;
    /// Host → node: die immediately (chaos kill switch).  The driver stops
    /// without finishing resident threads, without acking, without
    /// releasing anything — as close to pulling the power cord as an
    /// in-process fabric gets.
    pub const KILL: u16 = 40;
    /// Any → all: the named node is dead.  Survivors purge it from wealth
    /// hints, load snapshots and lock queues, drop its late (zombie)
    /// messages, and fail any wait targeting it with `NodeFailed`.
    pub const NODE_DEAD: u16 = 41;
    /// Host → node: checkpoint your migratable threads to the spill log
    /// now (carries a request id).
    pub const CKPT_REQ: u16 = 42;
    /// Node → host: checkpoint done (echoed id + threads written).
    pub const CKPT_ACK: u16 = 43;
    /// Host → node: adopt these orphaned slot ranges (a dead node's
    /// reclaimed estate).  Carries a reclaim id so a retried request is
    /// idempotent: the heir re-acks a duplicate id without re-adopting.
    pub const NODE_RECLAIM: u16 = 44;
    /// Node → host: reclamation done (echoed id + adopted slot count).
    pub const RECLAIM_ACK: u16 = 45;
    /// Node → node: liveness probe for the failure detector.  Arrival (of
    /// *any* message) refreshes the sender's last-heard stamp; since the
    /// gossip rework HEARTBEATs flow only toward *suspected* peers — a
    /// payload byte of 1 is a ping that requests an answering pong (empty
    /// payload), clearing the suspicion with one message.
    pub const HEARTBEAT: u16 = 46;
    /// Node → node: epidemic digest (see [`encode_gossip`]).  Carries the
    /// sender's own wealth/load under a fresh sequence number plus a few
    /// relayed table entries, so wealth hints, load snapshots and liveness
    /// evidence spread in O(fanout) messages per node per round instead of
    /// the balancer probing — or the detector beaconing — all p peers.
    pub const GOSSIP: u16 = 47;
}

/// Status byte of an [`tag::RPC_RESP`] payload.
pub mod rpc_status {
    /// Success; the bytes are the `Wire`-encoded response.
    pub const OK: u8 = 0;
    /// No service registered under the requested id; bytes empty.
    pub const NO_SUCH_SERVICE: u8 = 1;
    /// The serving side failed (decode error, handler panic, oversized
    /// response); the bytes are a UTF-8 message.
    pub const REMOTE_ERROR: u8 = 2;
    /// The serving node died before replying; callers map this to
    /// `Pm2Error::NodeFailed`.  Synthesized locally when a `NODE_DEAD`
    /// lands while calls to the corpse are pending.
    pub const NODE_FAILED: u8 = 3;
}

/// Encode a list of slot ranges (NEG_BUY payload).
pub fn encode_ranges(pool: &BufPool, ranges: &[SlotRange]) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 8 + ranges.len() * 16);
    w.u32(ranges.len() as u32);
    for r in ranges {
        w.u64(r.first as u64).u64(r.count as u64);
    }
    w.finish()
}

/// Decode a list of slot ranges.
pub fn decode_ranges(buf: &[u8]) -> Option<Vec<SlotRange>> {
    let pairs = Vec::<(u64, u64)>::decode_vec(buf)?;
    Some(
        pairs
            .into_iter()
            .map(|(f, c)| SlotRange::new(f as usize, c as usize))
            .collect(),
    )
}

/// Encode a `SLOT_TRADE_REQ` payload: (trade id, slots wanted, minimum
/// contiguous run that would satisfy the requester outright, requester's
/// own free-slot count — the piggybacked wealth hint).
pub fn encode_slot_trade_req(
    pool: &BufPool,
    trade_id: u64,
    want: u32,
    min_contig: u32,
    wealth: u32,
) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 24);
    w.u64(trade_id).u32(want).u32(min_contig).u32(wealth);
    w.finish()
}

/// Decode a `SLOT_TRADE_REQ` payload into (trade id, want, min contiguous,
/// wealth).
pub fn decode_slot_trade_req(buf: &[u8]) -> Option<(u64, u32, u32, u32)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    Some((r.u64()?, r.u32()?, r.u32()?, r.u32()?))
}

/// Encode a `SLOT_TRADE_RESP` payload: (echoed trade id, responder's
/// post-trade wealth, granted ranges).  An empty range list is a refusal.
pub fn encode_slot_trade_resp(
    pool: &BufPool,
    trade_id: u64,
    wealth: u32,
    ranges: &[SlotRange],
) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 16 + ranges.len() * 16);
    w.u64(trade_id).u32(wealth).u32(ranges.len() as u32);
    for r in ranges {
        w.u64(r.first as u64).u64(r.count as u64);
    }
    w.finish()
}

/// Decode a `SLOT_TRADE_RESP` payload into (trade id, wealth, ranges).
pub fn decode_slot_trade_resp(buf: &[u8]) -> Option<(u64, u32, Vec<SlotRange>)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let trade_id = r.u64()?;
    let wealth = r.u32()?;
    let n = r.u32()? as usize;
    let mut ranges = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let first = r.u64()? as usize;
        let count = r.u64()? as usize;
        if count == 0 {
            return None;
        }
        ranges.push(SlotRange::new(first, count));
    }
    Some((trade_id, wealth, ranges))
}

/// Read just the leading trade id off a `SLOT_TRADE_RESP` (reply matching).
pub fn peek_trade_id(buf: &[u8]) -> Option<u64> {
    madeleine::message::PayloadReader::new(buf).u64()
}

/// One thread's communication-affinity record, piggybacked on `LOAD_RESP`
/// so the balancer's planner sees who talks to whom and what a move costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffinityEdge {
    /// The migratable thread this record describes.
    pub tid: u64,
    /// Estimated bytes a migration train would carry for this thread
    /// (stack + heap pack hint) — the denominator of the planner's
    /// msgs-saved-per-byte score.
    pub pack_cost: u32,
    /// Balancer epochs since the thread last migrated (`u32::MAX` =
    /// never); the planner's hysteresis cooldown input.
    pub epochs_since_move: u32,
    /// `(peer_node, msgs)` entries from the thread's top-k table.
    pub peers: Vec<(u32, u32)>,
}

/// Encode a `LOAD_REQ` payload: the balancer's affinity decay shift for
/// this epoch.  An *empty* payload stays valid (legacy `pm2_probe_load`
/// sends one) and means "no decay".
pub fn encode_load_req(pool: &BufPool, decay_shift: u32) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 4);
    w.u32(decay_shift);
    w.finish()
}

/// Decode a `LOAD_REQ` payload's decay shift (empty payload = 0).
pub fn decode_load_req(buf: &[u8]) -> u32 {
    madeleine::message::PayloadReader::new(buf)
        .u32()
        .unwrap_or(0)
}

/// Encode a `LOAD_RESP` payload: (resident thread count, free-slot wealth,
/// migratable tids, hottest affinity edges).  The wealth field is the
/// piggyback that lets the load balancer's probes and the slot trader share
/// one freshness source; the affinity section is appended *after* the tid
/// vector so pre-affinity decoders (and `peek_load_hints`) still parse the
/// prefix unchanged.
pub fn encode_load_resp(
    pool: &BufPool,
    resident: u32,
    wealth: u32,
    tids: &[u64],
    aff: &[AffinityEdge],
) -> Payload {
    let aff_bytes: usize = aff.iter().map(|e| 20 + e.peers.len() * 8).sum();
    let mut w = PayloadWriter::pooled(pool, 20 + tids.len() * 8 + aff_bytes);
    w.u32(resident).u32(wealth).u32(tids.len() as u32);
    for t in tids {
        w.u64(*t);
    }
    w.u32(aff.len() as u32);
    for e in aff {
        w.u64(e.tid)
            .u32(e.pack_cost)
            .u32(e.epochs_since_move)
            .u32(e.peers.len() as u32);
        for &(node, msgs) in &e.peers {
            w.u32(node).u32(msgs);
        }
    }
    w.finish()
}

/// Decode a `LOAD_RESP` payload into (resident, wealth, migratable tids).
/// Ignores the trailing affinity section — the hot dispatch path and the
/// legacy `pm2_probe_load` only need the prefix.
pub fn decode_load_resp(buf: &[u8]) -> Option<(u32, u32, Vec<u64>)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let resident = r.u32()?;
    let wealth = r.u32()?;
    let n = r.u32()? as usize;
    let mut tids = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        tids.push(r.u64()?);
    }
    Some((resident, wealth, tids))
}

/// Full `LOAD_RESP` decode: (resident, wealth, migratable tids, affinity
/// edges).  A payload without the affinity section (pre-affinity encoder)
/// yields an empty edge vector rather than an error.
pub fn decode_load_resp_aff(buf: &[u8]) -> Option<(u32, u32, Vec<u64>, Vec<AffinityEdge>)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let resident = r.u32()?;
    let wealth = r.u32()?;
    let n = r.u32()? as usize;
    let mut tids = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        tids.push(r.u64()?);
    }
    let mut aff = Vec::new();
    if let Some(n_aff) = r.u32() {
        for _ in 0..n_aff {
            let tid = r.u64()?;
            let pack_cost = r.u32()?;
            let epochs_since_move = r.u32()?;
            let k = r.u32()? as usize;
            let mut peers = Vec::with_capacity(k.min(64));
            for _ in 0..k {
                peers.push((r.u32()?, r.u32()?));
            }
            aff.push(AffinityEdge {
                tid,
                pack_cost,
                epochs_since_move,
                peers,
            });
        }
    }
    Some((resident, wealth, tids, aff))
}

/// Read just the (resident, wealth) header off a `LOAD_RESP` payload
/// (dispatch-time sniffing — no tid-vector allocation; the full decode
/// happens at the waiting green thread).
pub fn peek_load_hints(buf: &[u8]) -> Option<(u32, u32)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    Some((r.u32()?, r.u32()?))
}

/// Encode a `MIGRATE_CMD` payload: one command ordering every thread in
/// `tids` (resident on the receiving node) to move to `dest`.
pub fn encode_migrate_cmd(pool: &BufPool, cmd_id: u64, dest: usize, tids: &[u64]) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 24 + tids.len() * 8);
    w.u64(cmd_id).u32(dest as u32).u32(tids.len() as u32);
    for t in tids {
        w.u64(*t);
    }
    w.finish()
}

/// Decode a `MIGRATE_CMD` payload into (cmd id, dest, tids).
pub fn decode_migrate_cmd(buf: &[u8]) -> Option<(u64, usize, Vec<u64>)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let cmd_id = r.u64()?;
    let dest = r.u32()? as usize;
    let n = r.u32()? as usize;
    let mut tids = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        tids.push(r.u64()?);
    }
    Some((cmd_id, dest, tids))
}

/// Encode a `MIGRATE_CMD_ACK` payload: the echoed cmd id, how many of the
/// commanded threads were accepted for migration, and the acking node's
/// free-slot wealth (piggybacked for the slot trader).
pub fn encode_migrate_ack(
    pool: &BufPool,
    cmd_id: u64,
    accepted: u32,
    total: u32,
    wealth: u32,
) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 24);
    w.u64(cmd_id).u32(accepted).u32(total).u32(wealth);
    w.finish()
}

/// Decode a `MIGRATE_CMD_ACK` payload into (cmd id, accepted, total,
/// wealth).
pub fn decode_migrate_ack(buf: &[u8]) -> Option<(u64, u32, u32, u32)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    Some((r.u64()?, r.u32()?, r.u32()?, r.u32()?))
}

/// Read just the leading cmd id off a `MIGRATE_CMD_ACK` (reply matching).
pub fn peek_cmd_id(buf: &[u8]) -> Option<u64> {
    madeleine::message::PayloadReader::new(buf).u64()
}

/// Encode a `MIGRATION_NAK` payload: the tids lost from a train plus a
/// UTF-8 description.  An empty tid list means the train's table itself
/// was unreadable (nothing to name).
pub fn encode_migration_nak(pool: &BufPool, tids: &[u64], text: &str) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 8 + tids.len() * 8 + text.len());
    w.u32(tids.len() as u32);
    for t in tids {
        w.u64(*t);
    }
    w.bytes(text.as_bytes());
    w.finish()
}

/// Decode a `MIGRATION_NAK` payload into (lost tids, description).
pub fn decode_migration_nak(buf: &[u8]) -> Option<(Vec<u64>, String)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let n = r.u32()? as usize;
    let mut tids = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        tids.push(r.u64()?);
    }
    Some((tids, String::from_utf8_lossy(r.rest()).into_owned()))
}

// Codecs whose payloads carry byte strings that are already slices (RPC
// args, encoded return values) frame them with `lp_bytes` directly.  The
// framing is identical to `Vec<u8>`'s `Wire` form (u32 length prefix +
// bytes; Option as one presence byte), so `Wire`-framed peers decode it
// unchanged.

/// Encode an `RPC_SPAWN` payload.
pub fn encode_rpc_spawn(pool: &BufPool, service: u32, args: &[u8]) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 8 + args.len());
    w.u32(service).lp_bytes(args);
    w.finish()
}

/// Decode an `RPC_SPAWN` payload.
pub fn decode_rpc_spawn(buf: &[u8]) -> Option<(u32, Vec<u8>)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let service = r.u32()?;
    let args = r.lp_bytes()?.to_vec();
    Some((service, args))
}

/// Encode a `THREAD_EXIT` payload from a completion record.
pub fn encode_thread_exit(pool: &BufPool, exit: &ThreadExit) -> Payload {
    let value_len = exit.value.as_ref().map_or(0, Vec::len);
    let mut w = PayloadWriter::pooled(pool, 80 + value_len);
    w.u64(exit.tid)
        .u8(exit.panicked as u8)
        .u64(exit.died_on as u64);
    match &exit.panic_msg {
        None => w.u8(0),
        Some(msg) => w.u8(1).lp_bytes(msg.as_bytes()),
    };
    match &exit.value {
        None => w.u8(0),
        Some(value) => w.u8(1).lp_bytes(value),
    };
    match exit.failed_node {
        None => w.u8(0),
        Some(n) => w.u8(1).u64(n as u64),
    };
    w.finish()
}

/// Decode a `THREAD_EXIT` payload.
pub fn decode_thread_exit(buf: &[u8]) -> Option<ThreadExit> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let tid = r.u64()?;
    let panicked = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let died_on = r.u64()? as usize;
    let panic_msg = match r.u8()? {
        0 => None,
        1 => Some(String::from_utf8(r.lp_bytes()?.to_vec()).ok()?),
        _ => return None,
    };
    let value = match r.u8()? {
        0 => None,
        1 => Some(r.lp_bytes()?.to_vec()),
        _ => return None,
    };
    let failed_node = match r.u8()? {
        0 => None,
        1 => Some(r.u64()? as usize),
        _ => return None,
    };
    Some(ThreadExit {
        tid,
        panicked,
        died_on,
        panic_msg,
        value,
        failed_node,
    })
}

/// Encode a `NODE_DEAD` payload: the dead node's id.
pub fn encode_node_dead(pool: &BufPool, node: usize) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 4);
    w.u32(node as u32);
    w.finish()
}

/// Decode a `NODE_DEAD` payload.
pub fn decode_node_dead(buf: &[u8]) -> Option<usize> {
    madeleine::message::PayloadReader::new(buf)
        .u32()
        .map(|n| n as usize)
}

/// Encode a `CKPT_REQ` payload: the request id echoed by the ack.
pub fn encode_ckpt_req(pool: &BufPool, req_id: u64) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 8);
    w.u64(req_id);
    w.finish()
}

/// Decode a `CKPT_REQ` payload.
pub fn decode_ckpt_req(buf: &[u8]) -> Option<u64> {
    madeleine::message::PayloadReader::new(buf).u64()
}

/// Encode a `CKPT_ACK` payload: (echoed request id, threads written).
pub fn encode_ckpt_ack(pool: &BufPool, req_id: u64, threads: u32) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 12);
    w.u64(req_id).u32(threads);
    w.finish()
}

/// Decode a `CKPT_ACK` payload into (request id, threads written).
pub fn decode_ckpt_ack(buf: &[u8]) -> Option<(u64, u32)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    Some((r.u64()?, r.u32()?))
}

/// Read just the leading request id off a `CKPT_ACK` (reply matching).
pub fn peek_ckpt_id(buf: &[u8]) -> Option<u64> {
    madeleine::message::PayloadReader::new(buf).u64()
}

/// Encode a `NODE_RECLAIM` payload: (reclaim id, orphaned ranges).  The
/// id makes the request idempotent under retries — an heir that already
/// adopted under this id re-acks the recorded count without re-adopting.
pub fn encode_node_reclaim(pool: &BufPool, reclaim_id: u64, ranges: &[SlotRange]) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 16 + ranges.len() * 16);
    w.u64(reclaim_id).u32(ranges.len() as u32);
    for r in ranges {
        w.u64(r.first as u64).u64(r.count as u64);
    }
    w.finish()
}

/// Decode a `NODE_RECLAIM` payload into (reclaim id, ranges).
pub fn decode_node_reclaim(buf: &[u8]) -> Option<(u64, Vec<SlotRange>)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let reclaim_id = r.u64()?;
    let count = r.u32()? as usize;
    let mut ranges = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let first = r.u64()? as usize;
        let n = r.u64()? as usize;
        ranges.push(SlotRange::new(first, n));
    }
    Some((reclaim_id, ranges))
}

/// Encode a `RECLAIM_ACK` payload: (echoed reclaim id, slots adopted).
pub fn encode_reclaim_ack(pool: &BufPool, reclaim_id: u64, slots: u32) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 12);
    w.u64(reclaim_id).u32(slots);
    w.finish()
}

/// Decode a `RECLAIM_ACK` payload into (reclaim id, slots adopted).
pub fn decode_reclaim_ack(buf: &[u8]) -> Option<(u64, u32)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    Some((r.u64()?, r.u32()?))
}

/// Read just the leading reclaim id off a `RECLAIM_ACK` (reply matching).
pub fn peek_reclaim_id(buf: &[u8]) -> Option<u64> {
    madeleine::message::PayloadReader::new(buf).u64()
}

/// Bytes of an `RPC_CALL` payload ahead of the request body: call id,
/// reply-to, service id, body length.
const RPC_CALL_HEADER: usize = 8 + 4 + 4 + 4;

/// Bytes of an `RPC_RESP` payload ahead of the body: call id, status, body
/// length.
const RPC_RESP_HEADER: usize = 8 + 1 + 4;

/// The length field of an RPC body of `len` bytes, if `len` is within the
/// `max_rpc_payload` ceiling `max` (and frameable at all).
fn rpc_body_len(len: usize, max: usize) -> Option<u32> {
    u32::try_from(len).ok().filter(|_| len <= max)
}

/// Encode an `RPC_CALL` payload, the typed request written in place behind
/// the header and its length back-patched — the one request encoder of
/// green and host callers.  Fails with [`Pm2Error::PayloadTooLarge`] when
/// the encoded request exceeds `max`.
///
/// `reply_to` is the fabric id the response must be sent to, carried
/// explicitly rather than recovered from `Message::src`: the request may be
/// parked and replayed by a frozen node and the handler may migrate before
/// replying, so the response must not depend on any fabric metadata of the
/// original delivery.
pub fn encode_rpc_call<Q: Wire>(
    pool: &BufPool,
    call_id: u64,
    reply_to: usize,
    service: u32,
    req: &Q,
    max: usize,
) -> Result<Payload> {
    let mut w = PayloadWriter::pooled(pool, RPC_CALL_HEADER + req.size_hint());
    w.u64(call_id).u32(reply_to as u32).u32(service).u32(0);
    req.encode(&mut w);
    let len = w.len() - RPC_CALL_HEADER;
    let framed = rpc_body_len(len, max).ok_or(Pm2Error::PayloadTooLarge { len, max })?;
    w.patch_u32(RPC_CALL_HEADER - 4, framed);
    Ok(w.finish())
}

/// Decode an `RPC_CALL` payload into (call id, reply-to, service, where in
/// `buf` the request bytes lie) — a range, not a slice, so the serving node
/// can move the message into the handler thread and index it there.
pub fn decode_rpc_call(buf: &[u8]) -> Option<(u64, usize, u32, std::ops::Range<usize>)> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let call_id = r.u64()?;
    let reply_to = r.u32()? as usize;
    let service = r.u32()?;
    let len = r.lp_bytes()?.len();
    Some((
        call_id,
        reply_to,
        service,
        RPC_CALL_HEADER..RPC_CALL_HEADER + len,
    ))
}

/// Encode an `RPC_RESP` payload around a ready body: the status replies
/// (error text, the dead node's id).
pub fn encode_rpc_resp(pool: &BufPool, call_id: u64, status: u8, bytes: &[u8]) -> Payload {
    let mut w = PayloadWriter::pooled(pool, RPC_RESP_HEADER + bytes.len());
    w.u64(call_id).u8(status).lp_bytes(bytes);
    w.finish()
}

/// Encode the `RPC_RESP` of a handler run: `fill` writes the response body
/// in place behind an `OK` header, and its length is back-patched.  An
/// `Err` from `fill` (it must then have written nothing), or a body over
/// `max`, becomes a `REMOTE_ERROR` reply instead.
pub fn encode_rpc_reply(
    pool: &BufPool,
    call_id: u64,
    max: usize,
    fill: impl FnOnce(&mut PayloadWriter) -> std::result::Result<(), String>,
) -> Payload {
    let mut w = PayloadWriter::pooled(pool, RPC_RESP_HEADER);
    w.u64(call_id).u8(rpc_status::OK).u32(0);
    let error = match fill(&mut w) {
        Ok(()) => {
            let len = w.len() - RPC_RESP_HEADER;
            match rpc_body_len(len, max) {
                Some(framed) => {
                    w.patch_u32(RPC_RESP_HEADER - 4, framed);
                    return w.finish();
                }
                None => format!("response of {len} bytes exceeds ceiling"),
            }
        }
        Err(e) => e,
    };
    encode_rpc_resp(pool, call_id, rpc_status::REMOTE_ERROR, error.as_bytes())
}

/// Decode an `RPC_RESP` payload into (call id, status, body borrowed from
/// `buf`).
pub fn decode_rpc_resp(buf: &[u8]) -> Option<(u64, u8, &[u8])> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    Some((r.u64()?, r.u8()?, r.lp_bytes()?))
}

/// Read just the call id off an `RPC_RESP` payload (reply matching).
pub fn peek_rpc_call_id(buf: &[u8]) -> Option<u64> {
    madeleine::message::PayloadReader::new(buf).u64()
}

/// One entry of an epidemic digest: what some node claimed about itself
/// under its `seq`-th gossip round.  Entries are relayed verbatim, so a
/// receiver orders claims about the same origin by sequence number and a
/// dead origin's entries go stale instead of being refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipEntry {
    /// The node this entry describes (the gossip *origin*, not the sender).
    pub node: u32,
    /// The origin's round counter when it produced this claim.
    pub seq: u32,
    /// The origin's free-slot count (wealth hint).
    pub wealth: u32,
    /// The origin's resident-thread count (load hint).
    pub load: u32,
}

/// Encode a `GOSSIP` digest.
pub fn encode_gossip(pool: &BufPool, entries: &[GossipEntry]) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 4 + entries.len() * 16);
    w.u32(entries.len() as u32);
    for e in entries {
        w.u32(e.node).u32(e.seq).u32(e.wealth).u32(e.load);
    }
    w.finish()
}

/// Decode a `GOSSIP` digest.
pub fn decode_gossip(buf: &[u8]) -> Option<Vec<GossipEntry>> {
    let mut r = madeleine::message::PayloadReader::new(buf);
    let n = r.u32()? as usize;
    // A digest is a handful of entries; refuse absurd counts outright so a
    // corrupt length cannot trigger a huge allocation.
    if n > 1024 {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(GossipEntry {
            node: r.u32()?,
            seq: r.u32()?,
            wealth: r.u32()?,
            load: r.u32()?,
        });
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gossip_roundtrip() {
        let pool = BufPool::new();
        let entries = vec![
            GossipEntry {
                node: 3,
                seq: 17,
                wealth: 250,
                load: 4,
            },
            GossipEntry {
                node: 250,
                seq: 1,
                wealth: 0,
                load: 0,
            },
        ];
        let buf = encode_gossip(&pool, &entries);
        assert_eq!(decode_gossip(&buf).unwrap(), entries);
        assert_eq!(decode_gossip(&encode_gossip(&pool, &[])).unwrap(), vec![]);
        // Truncated and length-lying payloads are rejected, not panicked on.
        assert!(decode_gossip(&buf[..buf.len() - 1]).is_none());
        assert!(decode_gossip(&u32::MAX.to_le_bytes()).is_none());
    }

    #[test]
    fn ranges_roundtrip() {
        let pool = BufPool::new();
        let rs = vec![SlotRange::new(3, 4), SlotRange::new(100, 1)];
        assert_eq!(decode_ranges(&encode_ranges(&pool, &rs)).unwrap(), rs);
        assert_eq!(decode_ranges(&encode_ranges(&pool, &[])).unwrap(), vec![]);
        assert!(decode_ranges(&[1, 0, 0]).is_none());
    }

    #[test]
    fn migrate_cmd_roundtrip() {
        let pool = BufPool::new();
        let buf = encode_migrate_cmd(&pool, 9, 3, &[0xAB, 0xCD]);
        assert_eq!(decode_migrate_cmd(&buf), Some((9, 3, vec![0xAB, 0xCD])));
        let empty = encode_migrate_cmd(&pool, 1, 0, &[]);
        assert_eq!(decode_migrate_cmd(&empty), Some((1, 0, vec![])));
        assert_eq!(decode_migrate_cmd(&buf[..7]), None, "truncation rejected");
    }

    #[test]
    fn migrate_ack_roundtrip() {
        let pool = BufPool::new();
        let buf = encode_migrate_ack(&pool, 42, 3, 5, 17);
        assert_eq!(decode_migrate_ack(&buf), Some((42, 3, 5, 17)));
        assert_eq!(peek_cmd_id(&buf), Some(42));
    }

    #[test]
    fn slot_trade_roundtrip() {
        let pool = BufPool::new();
        let req = encode_slot_trade_req(&pool, 0xBEEF, 16, 2, 120);
        assert_eq!(decode_slot_trade_req(&req), Some((0xBEEF, 16, 2, 120)));
        assert_eq!(decode_slot_trade_req(&req[..11]), None, "truncation");

        let ranges = vec![SlotRange::new(8, 2), SlotRange::new(60, 4)];
        let resp = encode_slot_trade_resp(&pool, 0xBEEF, 90, &ranges);
        assert_eq!(decode_slot_trade_resp(&resp), Some((0xBEEF, 90, ranges)));
        assert_eq!(peek_trade_id(&resp), Some(0xBEEF));
        let refusal = encode_slot_trade_resp(&pool, 7, 3, &[]);
        assert_eq!(decode_slot_trade_resp(&refusal), Some((7, 3, vec![])));
        assert_eq!(decode_slot_trade_resp(&resp[..17]), None, "truncation");
    }

    #[test]
    fn load_resp_roundtrip() {
        let pool = BufPool::new();
        let buf = encode_load_resp(&pool, 5, 33, &[9, 10], &[]);
        assert_eq!(decode_load_resp(&buf), Some((5, 33, vec![9, 10])));
        assert_eq!(peek_load_hints(&buf), Some((5, 33)));
        let empty = encode_load_resp(&pool, 0, 0, &[], &[]);
        assert_eq!(decode_load_resp(&empty), Some((0, 0, vec![])));
    }

    #[test]
    fn load_resp_affinity_roundtrip() {
        let pool = BufPool::new();
        let edges = vec![
            AffinityEdge {
                tid: 9,
                pack_cost: 4096,
                epochs_since_move: u32::MAX,
                peers: vec![(1, 40), (2, 3)],
            },
            AffinityEdge {
                tid: 10,
                pack_cost: 128,
                epochs_since_move: 0,
                peers: vec![],
            },
        ];
        let buf = encode_load_resp(&pool, 5, 33, &[9, 10], &edges);
        // Prefix decoders ignore the affinity tail.
        assert_eq!(decode_load_resp(&buf), Some((5, 33, vec![9, 10])));
        assert_eq!(peek_load_hints(&buf), Some((5, 33)));
        let (resident, wealth, tids, aff) = decode_load_resp_aff(&buf).unwrap();
        assert_eq!((resident, wealth, tids), (5, 33, vec![9, 10]));
        assert_eq!(aff, edges);
        // A pre-affinity payload decodes with an empty edge vector.
        let legacy = encode_load_resp(&pool, 2, 7, &[1], &[]);
        let (_, _, _, aff) = decode_load_resp_aff(&legacy[..20.min(legacy.len())]).unwrap();
        assert!(aff.is_empty());
    }

    #[test]
    fn load_req_roundtrip() {
        let pool = BufPool::new();
        let buf = encode_load_req(&pool, 3);
        assert_eq!(decode_load_req(&buf), 3);
        assert_eq!(decode_load_req(&[]), 0, "legacy empty probe = no decay");
    }

    #[test]
    fn migration_nak_roundtrip() {
        let pool = BufPool::new();
        let buf = encode_migration_nak(&pool, &[7, 8], "bad record");
        assert_eq!(
            decode_migration_nak(&buf),
            Some((vec![7, 8], "bad record".into()))
        );
        let anon = encode_migration_nak(&pool, &[], "unreadable table");
        assert_eq!(
            decode_migration_nak(&anon),
            Some((vec![], "unreadable table".into()))
        );
    }

    #[test]
    fn rpc_spawn_roundtrip() {
        let pool = BufPool::new();
        let buf = encode_rpc_spawn(&pool, 7, b"payload");
        assert_eq!(decode_rpc_spawn(&buf), Some((7, b"payload".to_vec())));
    }

    #[test]
    fn thread_exit_roundtrip() {
        let pool = BufPool::new();
        let exit = ThreadExit {
            tid: 42,
            panicked: true,
            died_on: 2,
            panic_msg: Some("assertion failed".into()),
            value: Some(vec![1, 2, 3]),
            failed_node: None,
        };
        assert_eq!(
            decode_thread_exit(&encode_thread_exit(&pool, &exit)),
            Some(exit)
        );
        let plain = ThreadExit::plain(7, false, 0);
        assert_eq!(
            decode_thread_exit(&encode_thread_exit(&pool, &plain)),
            Some(plain)
        );
        let failed = ThreadExit::node_failed(9, 3);
        assert_eq!(
            decode_thread_exit(&encode_thread_exit(&pool, &failed)),
            Some(failed)
        );
    }

    #[test]
    fn fault_tolerance_codecs_roundtrip() {
        let pool = BufPool::new();
        let nd = encode_node_dead(&pool, 3);
        assert_eq!(decode_node_dead(&nd), Some(3));
        assert_eq!(decode_node_dead(&nd[..2]), None);

        let req = encode_ckpt_req(&pool, 0xC0FFEE);
        assert_eq!(decode_ckpt_req(&req), Some(0xC0FFEE));
        let ack = encode_ckpt_ack(&pool, 0xC0FFEE, 12);
        assert_eq!(decode_ckpt_ack(&ack), Some((0xC0FFEE, 12)));
        assert_eq!(peek_ckpt_id(&ack), Some(0xC0FFEE));

        let ranges = vec![SlotRange::new(10, 4), SlotRange::new(100, 1)];
        let nr = encode_node_reclaim(&pool, 0xBEEF, &ranges);
        assert_eq!(decode_node_reclaim(&nr), Some((0xBEEF, ranges)));

        let rack = encode_reclaim_ack(&pool, 0xBEEF, 200);
        assert_eq!(decode_reclaim_ack(&rack), Some((0xBEEF, 200)));
        assert_eq!(peek_reclaim_id(&rack), Some(0xBEEF));
    }

    #[test]
    fn rpc_call_resp_roundtrip() {
        let pool = BufPool::new();
        let req = (7u64, b"req".to_vec());
        let call = encode_rpc_call(&pool, 99, 3, 0xFEED, &req, 64).unwrap();
        let (call_id, reply_to, service, body) = decode_rpc_call(&call).unwrap();
        assert_eq!((call_id, reply_to, service), (99, 3, 0xFEED));
        assert_eq!(call[body], req.encode_vec());
        let resp = encode_rpc_resp(&pool, 99, rpc_status::OK, b"resp");
        assert_eq!(
            decode_rpc_resp(&resp),
            Some((99, rpc_status::OK, &b"resp"[..]))
        );
        assert_eq!(peek_rpc_call_id(&resp), Some(99));
        assert_eq!(decode_rpc_call(&call[..5]), None, "truncation rejected");
        assert_eq!(decode_rpc_call(&call[..call.len() - 1]), None);
        assert_eq!(decode_rpc_resp(&resp[..resp.len() - 1]), None);
    }

    /// The ceiling is judged on the encoded body, header excluded: a body
    /// of exactly `max` bytes passes, one more does not.
    #[test]
    fn rpc_ceiling_is_on_the_encoded_body() {
        let pool = BufPool::new();
        let body = vec![5u8; 60]; // encodes to 4 + 60 bytes
        assert!(encode_rpc_call(&pool, 1, 0, 2, &body, 64).is_ok());
        assert_eq!(
            encode_rpc_call(&pool, 1, 0, 2, &body, 63),
            Err(Pm2Error::PayloadTooLarge { len: 64, max: 63 })
        );
        let fill = |w: &mut PayloadWriter| {
            body.encode(w);
            Ok(())
        };
        let ok = encode_rpc_reply(&pool, 1, 64, fill);
        assert_eq!(
            decode_rpc_resp(&ok),
            Some((1, rpc_status::OK, &body.encode_vec()[..]))
        );
        let over = encode_rpc_reply(&pool, 1, 63, fill);
        assert_eq!(
            decode_rpc_resp(&over),
            Some((
                1,
                rpc_status::REMOTE_ERROR,
                &b"response of 64 bytes exceeds ceiling"[..]
            ))
        );
        let failed = encode_rpc_reply(&pool, 1, 64, |_| Err("no".into()));
        assert_eq!(
            decode_rpc_resp(&failed),
            Some((1, rpc_status::REMOTE_ERROR, &b"no"[..]))
        );
    }

    /// Protocol encoders stop allocating once the pool is warm.
    #[test]
    fn encoders_recycle_pool_buffers() {
        let pool = BufPool::new();
        let mut ptr = None;
        for i in 0..10u64 {
            let p = encode_rpc_resp(&pool, i, rpc_status::OK, &[0u8; 100]);
            match ptr {
                None => ptr = Some(p.as_ptr()),
                Some(q) => assert_eq!(p.as_ptr(), q),
            }
        }
        assert_eq!(pool.stats().allocs, 1);
    }
}
