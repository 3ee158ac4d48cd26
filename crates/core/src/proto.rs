//! Wire protocol: the control plane, declared once.
//!
//! Two tables define everything the runtime says over the Madeleine
//! fabric:
//!
//! * the **tag table** (`tags!` below) — one row per message kind: its
//!   tag number, the priority class the pump drains it in, and whether a
//!   fault plan may touch it.  The `tag::*` constants, `classify` and
//!   `exactly_once` are all generated from it;
//! * the **message structs** (`message!`) — fields in wire order.  The
//!   struct *is* the layout: its [`Wire`] impl (encoder, decoder, exact
//!   size hint) is generated from the field list, so the two sides of an
//!   exchange cannot drift apart and a decoder fuzz over the structs
//!   covers the whole control plane.
//!
//! **Adding a message** is one row in `tags!` plus one `message!` struct
//! naming that tag (and one arm in `handlers::dispatch`).  Send it with
//! [`encode`]; read it with `Msg::decode_vec`, which returns `None` on
//! any underrun, bad byte or trailing garbage — never a panic.  Replies to
//! a request lead with the request's correlation id, read by [`peek_id`]
//! without decoding the rest.
//!
//! Payloads are little-endian (see [`madeleine::Wire`] for the framing
//! rules) and are written into a buffer checked out of the caller's
//! [`BufPool`], so protocol traffic allocates nothing in steady state: the
//! receiver's drop recycles the buffer into the sender's free list.
//!
//! Three payloads keep bespoke framing, for a reason each: `RPC_CALL` /
//! `RPC_RESP` write the typed body in place behind a back-patched length
//! and decode it borrowed (the LRPC fast path — one pass per leg);
//! `MIGRATION_NAK` ends in a rest-of-buffer text; and `MIGRATION` and
//! `NEG_BITMAP_RESP` carry a train and a `SlotBitmap` in those types' own
//! serialized forms.  (`AUDIT_RESP` is [`crate::audit::NodeAudit`], a
//! [`Msg`] declared beside the audit it reports.)  Tags with no row in the
//! struct list (`NEG_LOCK_REQ`, `SHUTDOWN`, `KILL`, …) are bare commands:
//! the tag is the whole message.

use isoaddr::SlotRange;
use madeleine::message::{PayloadReader, PayloadWriter};
use madeleine::{BufPool, Payload, Wire};

use crate::error::{Pm2Error, Result};
use crate::handlers::Class;

/// The tag table: `NAME = number, class, delivery;` per message kind.
///
/// *Class* is the pump's drain order (control before migration before
/// data; see [`crate::handlers`]).  *Delivery* says what a seeded fault
/// plan may do to the message: `once` rows are exempt from drop, duplicate
/// and reorder — the state-transfer messages (trains, spawn keys, exit
/// records, kill/death certificates) move state that is never re-sent,
/// application LRPC runs arbitrary user handlers that a blind retry could
/// re-execute, and the §4.4 lock/bitmap/buy exchange assumes a reliable
/// wire.  `retry` rows are at-least-once: re-sent by the requester (or
/// superseded by the next periodic round) and deduplicated by the
/// receiver's per-(source, class) window.
macro_rules! tags {
    ($($(#[$doc:meta])* $name:ident = $num:literal, $class:ident, $delivery:ident;)*) => {
        /// Message tags.
        pub mod tag {
            $($(#[$doc])* pub const $name: u16 = $num;)*
            /// Every assigned tag, in table order.
            pub const ALL: &[u16] = &[$($num),*];
        }

        /// A tag's priority class.  Unassigned tags classify as data and
        /// are dropped (and counted) by the dispatch table.
        pub(crate) fn classify(t: u16) -> Class {
            match t {
                $($num => Class::$class,)*
                _ => Class::Data,
            }
        }

        /// Whether a fault plan must leave messages under tag `t` alone.
        pub(crate) fn exactly_once(t: u16) -> bool {
            match t {
                $($num => tags!(@$delivery),)*
                _ => false,
            }
        }
    };
    (@once) => { true };
    (@retry) => { false };
}

tags! {
    /// Host → node: spawn the closure stored under a spawn-table key.
    SPAWN_KEY = 1, Data, once;
    /// Any → node: spawn a registered service (LRPC-style remote spawn).
    RPC_SPAWN = 2, Data, once;
    /// Node → node: a packed migration *train* — one message carrying k ≥ 1
    /// threads bound for this node (count + tid/offset table + records; see
    /// `crate::migration` for the wire shape).
    MIGRATION = 3, Migration, once;
    /// Receiver → sender: one or more record groups of a migration train
    /// failed to unpack (corrupt or truncated); carries the lost tids and
    /// a UTF-8 description.  Those threads are lost but both nodes stay
    /// up, and the rest of the train landed normally.
    MIGRATION_NAK = 4, Migration, once;
    /// Any → coordinator: request the system-wide negotiation lock.
    NEG_LOCK_REQ = 10, Control, once;
    /// Coordinator → requester: lock granted.
    NEG_LOCK_GRANT = 11, Control, once;
    /// Holder → coordinator: lock released.
    NEG_LOCK_RELEASE = 12, Control, once;
    /// Initiator → all: send me your bitmap (freezes the replier's bitmap).
    NEG_BITMAP_REQ = 13, Control, once;
    /// Replier → initiator: my bitmap.
    NEG_BITMAP_RESP = 14, Control, once;
    /// Initiator → seller: transfer these slot ranges to me.
    NEG_BUY = 15, Control, once;
    /// Seller → initiator: done.
    NEG_BUY_ACK = 16, Control, once;
    /// Initiator → all: negotiation over; unfreeze your bitmap.
    NEG_DONE = 17, Control, once;
    /// Host → node: finish resident threads, then stop.
    SHUTDOWN = 20, Control, once;
    /// Node → host: stopped.
    SHUTDOWN_ACK = 21, Control, once;
    /// Host → node: report ownership for the global audit.
    AUDIT_REQ = 22, Control, once;
    /// Node → host: audit report.
    AUDIT_RESP = 23, Control, once;
    /// Any → node: report your load (resident thread count).
    ///
    /// Deliberately *data*-class despite being served by the control
    /// module: a load probe asks about the application plane, so it must
    /// observe — i.e. queue behind — the spawns already in flight to the
    /// probed node, and a balancer probing a flooded node should see (and
    /// wait like) the flood.  Its `LOAD_RESP` reply is control-class: it
    /// unblocks a waiting protocol thread.
    LOAD_REQ = 24, Data, retry;
    /// Node → requester: load report.
    LOAD_RESP = 25, Control, retry;
    /// Any → node: preemptively migrate a *list* of threads to one
    /// destination — one command per (source, destination) pair, however
    /// many threads move.
    MIGRATE_CMD = 26, Migration, retry;
    /// Node → requester: migrate command outcome.  The echoed cmd id is
    /// what lets a deadline-bounded balancer round match acks without
    /// serializing on them.
    MIGRATE_CMD_ACK = 27, Control, retry;
    /// Node → home node: thread exited (for cross-node joins; carries the
    /// panic message and the Wire-encoded return value when present).
    THREAD_EXIT = 28, Control, once;
    /// Any → node: typed LRPC request (call id, service id, request bytes).
    RPC_CALL = 30, Data, once;
    /// Serving node → caller: typed LRPC response (call id, status, bytes).
    RPC_RESP = 31, Data, once;
    /// Node → node: point-to-point slot trade request.  The hot-path
    /// replacement for the §4.4 global negotiation: no lock, no freeze, no
    /// bitmap gather — one request to the richest known peer.
    SLOT_TRADE_REQ = 32, Control, retry;
    /// Node → requester: trade reply.  The responder cleared its bits
    /// before this message left, so adopting the ranges completes the
    /// ownership transfer with exactly one bitmap owner per slot at every
    /// instant.
    SLOT_TRADE_RESP = 33, Control, retry;
    /// Host → node: die immediately (chaos kill switch).  The driver stops
    /// without finishing resident threads, without acking, without
    /// releasing anything — as close to pulling the power cord as an
    /// in-process fabric gets.
    KILL = 40, Control, once;
    /// Any → all: the named node is dead.  Survivors purge it from wealth
    /// hints, load snapshots and lock queues, drop its late (zombie)
    /// messages, and fail any wait targeting it with `NodeFailed`.
    NODE_DEAD = 41, Control, once;
    /// Host → node: checkpoint your migratable threads to the spill log
    /// now.
    CKPT_REQ = 42, Control, retry;
    /// Node → host: checkpoint done.
    CKPT_ACK = 43, Control, retry;
    /// Host → node: adopt these orphaned slot ranges (a dead node's
    /// reclaimed estate).
    NODE_RECLAIM = 44, Control, retry;
    /// Node → host: reclamation done.
    RECLAIM_ACK = 45, Control, retry;
    /// Node → node: liveness probe for the failure detector.  Arrival (of
    /// *any* message) refreshes the sender's last-heard stamp; since the
    /// gossip rework HEARTBEATs flow only toward *suspected* peers — a
    /// payload byte of 1 is a ping that requests an answering pong (empty
    /// payload), clearing the suspicion with one message.
    HEARTBEAT = 46, Control, retry;
    /// Node → node: epidemic digest (see [`Gossip`](super::Gossip)).
    /// Carries the sender's own wealth/load under a fresh sequence number
    /// plus a few relayed table entries, so wealth hints, load snapshots
    /// and liveness evidence spread in O(fanout) messages per node per
    /// round instead of the balancer probing — or the detector beaconing
    /// — all p peers.
    GOSSIP = 47, Control, retry;
}

/// A control-plane message: a [`Wire`] struct bound to the one tag it
/// travels under.
pub trait Msg: Wire {
    /// The tag this message is sent under.
    const TAG: u16;
    /// The struct's name, for decode errors.
    const NAME: &'static str;

    /// Decode a whole payload as this message, or name it in the error.
    fn from_payload(buf: &[u8]) -> Result<Self> {
        Self::decode_vec(buf).ok_or(Pm2Error::Decode(Self::NAME))
    }
}

/// Declare wire structs: fields in wire order, public, each a [`Wire`]
/// type.  `Name = TAG { … }` additionally binds the struct to its tag as a
/// [`Msg`]; a bare `Name { … }` is a part used inside messages.
macro_rules! message {
    ($(
        $(#[$meta:meta])*
        $name:ident $(= $tag:ident)? {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
        }
    )+) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty),*
        }

        impl madeleine::Wire for $name {
            fn encode(&self, w: &mut madeleine::message::PayloadWriter) {
                $(madeleine::Wire::encode(&self.$field, w);)*
            }
            fn decode(r: &mut madeleine::message::PayloadReader<'_>) -> Option<Self> {
                Some($name { $($field: madeleine::Wire::decode(r)?),* })
            }
            fn size_hint(&self) -> usize {
                0 $(+ madeleine::Wire::size_hint(&self.$field))*
            }
        }

        $(impl $crate::proto::Msg for $name {
            const TAG: u16 = $crate::proto::tag::$tag;
            const NAME: &'static str = stringify!($name);
        })?
    )+};
}
pub(crate) use message;

/// Encode `msg` into a buffer checked out of `pool` — the one encoder of
/// every declared message.
pub fn encode<M: Wire>(pool: &BufPool, msg: &M) -> Payload {
    let mut w = PayloadWriter::pooled(pool, msg.size_hint());
    msg.encode(&mut w);
    w.finish()
}

/// The correlation id a reply leads with (`SLOT_TRADE_RESP`,
/// `MIGRATE_CMD_ACK`, `CKPT_ACK`, `RECLAIM_ACK`, `RPC_RESP`): reply
/// matching reads it without decoding the rest.
pub fn peek_id(buf: &[u8]) -> Option<u64> {
    PayloadReader::new(buf).u64()
}

/// Slot ranges as they travel: a u32 count, then `(first, count)` pairs
/// of u64s.  Decoding admits only ranges a bitmap could hold — at least
/// one slot, end not past `usize::MAX` — so handlers can do range
/// arithmetic on them; whether the slots exist and who owns them is still
/// the receiving slot manager's check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ranges(pub Vec<SlotRange>);

impl Wire for Ranges {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u32(self.0.len() as u32);
        for r in &self.0 {
            w.u64(r.first as u64).u64(r.count as u64);
        }
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        // `n` may be a corrupt length: reserve no more than the remaining
        // bytes could hold.
        let mut out = Vec::with_capacity(n.min(r.remaining() / 16));
        for _ in 0..n {
            let (first, count) = (usize::decode(r)?, usize::decode(r)?);
            if count == 0 || first.checked_add(count).is_none() {
                return None;
            }
            out.push(SlotRange::new(first, count));
        }
        Some(Ranges(out))
    }
    fn size_hint(&self) -> usize {
        4 + 16 * self.0.len()
    }
}

message! {
    /// Host → node: run the closure parked under `key` as thread `tid`.
    SpawnKey = SPAWN_KEY { key: u64, tid: u64 }

    /// Fire-and-forget spawn of byte-level service `service` on `args`.
    RpcSpawn = RPC_SPAWN { service: u32, args: Vec<u8> }

    /// §4.4 step (d): the seller clears these ranges from its bitmap.
    NegBuy = NEG_BUY { ranges: Ranges }

    /// A node short of slots asks a peer for some.
    SlotTradeReq = SLOT_TRADE_REQ {
        trade_id: u64,
        /// Slots wanted (the shortfall plus the amortizing batch).
        want: u32,
        /// Minimum contiguous run that would satisfy the requester
        /// outright.
        min_contig: u32,
        /// The requester's own free-slot count — the piggybacked wealth
        /// hint.
        wealth: u32,
    }

    /// The lender's answer; an empty range list is a refusal.
    SlotTradeResp = SLOT_TRADE_RESP {
        trade_id: u64,
        /// The responder's post-trade free-slot count.
        wealth: u32,
        ranges: Ranges,
    }

    /// A load probe; carries the balancer's affinity decay shift for this
    /// epoch (0 = no decay).
    LoadReq = LOAD_REQ { decay_shift: u32 }

    /// One thread's communication-affinity record, piggybacked on
    /// `LOAD_RESP` so the balancer's planner sees who talks to whom and
    /// what a move costs.
    AffinityEdge {
        /// The migratable thread this record describes.
        tid: u64,
        /// Estimated bytes a migration train would carry for this thread
        /// (stack + heap pack hint) — the denominator of the planner's
        /// msgs-saved-per-byte score.
        pack_cost: u32,
        /// Balancer epochs since the thread last migrated (`u32::MAX` =
        /// never); the planner's hysteresis cooldown input.
        epochs_since_move: u32,
        /// `(peer_node, msgs)` entries from the thread's top-k table.
        peers: Vec<(u32, u32)>,
    }

    /// A node's load report.  `(resident, wealth)` lead the payload so the
    /// dispatch path can refresh its hint tables from those eight bytes
    /// without decoding the vectors behind them.
    LoadResp = LOAD_RESP {
        /// Resident thread count.
        resident: u32,
        /// Free-slot count: the piggyback that lets the balancer's probes
        /// and the slot trader share one freshness source.
        wealth: u32,
        /// Migratable, currently-ready threads.
        tids: Vec<u64>,
        /// The hottest affinity edges among them.
        aff: Vec<AffinityEdge>,
    }

    /// Order every thread in `tids` (resident on the receiver) to `dest`.
    MigrateCmd = MIGRATE_CMD { cmd_id: u64, dest: u32, tids: Vec<u64> }

    /// How many of the `total` commanded threads were accepted, plus the
    /// acking node's free-slot wealth (piggybacked for the slot trader).
    MigrateAck = MIGRATE_CMD_ACK { cmd_id: u64, accepted: u32, total: u32, wealth: u32 }

    /// A survivor (or the host) announces `node`'s death.
    NodeDead = NODE_DEAD { node: u32 }

    /// Checkpoint now; `req_id` is echoed by the ack.
    CkptReq = CKPT_REQ { req_id: u64 }

    /// Checkpoint done: `threads` images written.
    CkptAck = CKPT_ACK { req_id: u64, threads: u32 }

    /// Adopt a dead node's orphaned ranges.  The id makes the request
    /// idempotent under retries — an heir that already adopted under this
    /// id re-acks the recorded count without re-adopting.
    NodeReclaim = NODE_RECLAIM { reclaim_id: u64, ranges: Ranges }

    /// Reclamation done: `slots` adopted.
    ReclaimAck = RECLAIM_ACK { reclaim_id: u64, slots: u32 }

    /// One entry of an epidemic digest: what some node claimed about
    /// itself under its `seq`-th gossip round.  Entries are relayed
    /// verbatim, so a receiver orders claims about the same origin by
    /// sequence number and a dead origin's entries go stale instead of
    /// being refreshed.
    #[derive(Copy)]
    GossipEntry {
        /// The node this entry describes (the gossip *origin*, not the
        /// sender).
        node: u32,
        /// The origin's round counter when it produced this claim.
        seq: u32,
        /// The origin's free-slot count (wealth hint).
        wealth: u32,
        /// The origin's resident-thread count (load hint).
        load: u32,
    }

    /// An epidemic digest: the sender's own entry plus relayed ones.
    Gossip = GOSSIP { entries: Vec<GossipEntry> }
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
}

/// Encode a `MIGRATION_NAK` payload: the tids lost from a train plus a
/// UTF-8 description running to the end of the buffer.  An empty tid list
/// means the train's table itself was unreadable (nothing to name).
pub fn encode_migration_nak(pool: &BufPool, tids: &[u64], text: &str) -> Payload {
    let mut w = PayloadWriter::pooled(pool, 4 + tids.len() * 8 + text.len());
    w.u32(tids.len() as u32);
    u64::encode_run(tids, &mut w);
    w.bytes(text.as_bytes());
    w.finish()
}

/// Decode a `MIGRATION_NAK` payload into (lost tids, description).
pub fn decode_migration_nak(buf: &[u8]) -> Option<(Vec<u64>, String)> {
    let mut r = PayloadReader::new(buf);
    let tids = Vec::<u64>::decode(&mut r)?;
    Some((tids, String::from_utf8_lossy(r.rest()).into_owned()))
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
    let mut r = PayloadReader::new(buf);
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
    let mut r = PayloadReader::new(buf);
    Some((r.u64()?, r.u8()?, r.lp_bytes()?))
}
