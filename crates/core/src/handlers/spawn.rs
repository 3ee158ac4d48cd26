//! Thread-creation and LRPC handlers: `SPAWN_KEY`, `RPC_CALL`.
//!
//! A spawn needs a fresh stack slot (a bitmap mutation), so the dispatch
//! table defers `SPAWN_KEY` while a negotiation has the bitmap frozen, and
//! the thaw dispatches it again.  A call needs no slot until its drainer
//! spawns, and [`spawn_drainer`] waits for the thaw itself.
//!
//! Every LRPC — typed, or a byte-level `pm2_rpc_spawn` — is served by the
//! node's **drainer**, not by a thread of its own: `RPC_CALL` queues the
//! call in [`NodeCtx::calls`], and a node with calls queued and no drainer
//! spawns one, which serves them in arrival order — a burst of calls costs
//! one spawn.  It is the drainer only for the quantum it is in: once it
//! yields, blocks, migrates or exits, the node's outcome hook spawns a
//! successor for what is still queued, so a service that waits — even on
//! a call to its own node — holds up no call behind it; the replaced
//! thread finishes the call in hand and exits.  Drainers spawn into the
//! scheduler's **control lane** ([`marcel::thread::flags::CONTROL`]), so a
//! serving node crowded with compute threads still turns replies around
//! promptly; the hook takes a replaced drainer out of it, so a service
//! that yields, blocks or migrates runs on as compute.  Drainers are
//! [`marcel::thread::flags::DETACHED`]: their tid is minted here and
//! handed to nobody, so nothing could join them.  A call whose id is
//! [`proto::NO_REPLY`] is answered by nobody: how it failed, if it did,
//! is a line in the serving node's output.

use std::ops::Range;

use madeleine::Message;
use marcel::thread::flags;

use super::{decode, drop_malformed};
use crate::node::{with_ctx, NodeCtx, PUMP_BUDGET};
use crate::proto::{self, rpc_status, tag};
use crate::service::{ErasedHandler, MAX_RPC_PAYLOAD};

/// An LRPC waiting in [`NodeCtx::calls`] for the node's drainer: the
/// message that carried it, its call id, where to answer, where in the
/// message the request bytes lie, and the service that answers.
pub(crate) struct Call(Message, u64, usize, Range<usize>, ErasedHandler);

pub(crate) fn on_spawn_key(ctx: &mut NodeCtx, m: Message) {
    let Some(proto::SpawnKey { key, tid }) = decode(ctx, &m) else {
        return;
    };
    // A key nothing is parked under was never handed out by the host (or
    // was already redeemed): nobody waits on this spawn.
    let Some(f) = ctx.spawn_table.take(key) else {
        return drop_malformed(ctx);
    };
    // Out of stack slots must not kill the node driver: under open-loop
    // overload (the workload harness past saturation) spawn failures are
    // expected, and the host is blocked on this tid — complete it as a
    // failed exit so joiners observe a typed failure instead of a hang.
    if let Err(e) = ctx.try_spawn(tid, 0, f) {
        ctx.registry.complete(crate::registry::ThreadExit {
            tid,
            panicked: true,
            died_on: ctx.node,
            panic_msg: Some(format!("spawn failed: {e}")),
            value: None,
            failed_node: None,
        });
    }
}

pub(crate) fn on_rpc_call(ctx: &mut NodeCtx, m: Message) {
    // The reply destination travels in the payload, NOT in `m.src`, so it
    // survives any handler migration before the response is sent.
    let Some((call_id, reply_to, service, req)) = proto::decode_rpc_call(&m.payload) else {
        return drop_malformed(ctx); // Nothing to reply to.
    };
    if req.len() > MAX_RPC_PAYLOAD {
        let msg = format!("request of {} bytes exceeds ceiling", req.len());
        return refuse(ctx, reply_to, call_id, rpc_status::REMOTE_ERROR, &msg);
    }
    let Some(handler) = ctx.service(service) else {
        if call_id == proto::NO_REPLY {
            // Nobody to refuse: dropped like any other malformed message.
            let line = format!("dropped rpc spawn of unregistered service {service}");
            ctx.out.printf(ctx.node, &line);
            return drop_malformed(ctx);
        }
        return refuse(ctx, reply_to, call_id, rpc_status::NO_SUCH_SERVICE, "");
    };
    // LRPC semantics: the call is served by a Marcel thread, so a service
    // may block, allocate, spawn, even migrate; the reply is sent from
    // whatever node it ends up on, matched by call id at the caller.
    let call = Call(m, call_id, reply_to, req, handler);
    ctx.calls.push_back(call);
    spawn_drainer(ctx);
}

/// Answer call `call_id` with `status` and `msg` instead of a result; a
/// call nobody awaits is reported on the node instead.
fn refuse(ctx: &mut NodeCtx, reply_to: usize, call_id: u64, status: u8, msg: &str) {
    if call_id == proto::NO_REPLY {
        let line = format!("dropped rpc spawn: {msg}");
        return ctx.out.printf(ctx.node, &line);
    }
    let resp = proto::encode_rpc_resp(&ctx.pool, call_id, status, msg.as_bytes());
    let _ = ctx.ep.send(reply_to, tag::RPC_RESP, resp);
}

/// Give the queued calls a drainer, unless the node has one, has none
/// queued, or has its bitmap frozen (the thaw calls this again).
pub(crate) fn spawn_drainer(ctx: &mut NodeCtx) {
    if ctx.drainer.is_some() || ctx.calls.is_empty() || ctx.frozen() {
        return;
    }
    let tid = ctx.sched.next_tid();
    match ctx.try_spawn(tid, flags::CONTROL | flags::DETACHED, move || drain(tid)) {
        Ok(()) => ctx.drainer = Some(tid),
        Err(e) => {
            // Out of stack slots: each caller gets a typed remote error
            // instead of a wedged machine and an opaque timeout.
            let msg = format!("serving node could not spawn handler: {e}");
            while let Some(Call(_, call_id, reply_to, ..)) = ctx.calls.pop_front() {
                refuse(ctx, reply_to, call_id, rpc_status::REMOTE_ERROR, &msg);
            }
        }
    }
}

/// The drainer's body: serve queued calls, at most [`PUMP_BUDGET`], while
/// this thread is its node's drainer — wherever a service moved it.  It
/// exits still named; the outcome hook clears the name.
fn drain(me: u64) {
    for _ in 0..PUMP_BUDGET {
        let next = with_ctx(|c| (c.drainer == Some(me)).then(|| c.calls.pop_front()));
        let Some(Call(m, call_id, reply_to, req, handler)) = next.flatten() else {
            return;
        };
        // Encoded through the pool of the node the service left it on.
        let w = with_ctx(|c| proto::rpc_reply_writer(&c.pool));
        let reply =
            proto::encode_rpc_reply(w, call_id, MAX_RPC_PAYLOAD, |w| handler(&m.payload[req], w));
        if call_id == proto::NO_REPLY {
            if let Some((_, rpc_status::REMOTE_ERROR, text)) = proto::decode_rpc_resp(&reply) {
                let line = format!("rpc spawn failed: {}", String::from_utf8_lossy(text));
                with_ctx(|c| c.out.printf(c.node, &line));
            }
        } else if crate::api::send_to(reply_to, tag::RPC_RESP, reply).is_ok() {
            // The reply is RPC-shaped traffic too: the serving side
            // accounts it once it has left, so both ends of a chatty pair
            // accumulate affinity toward each other.
            crate::api::note_rpc_traffic(reply_to);
        }
    }
}
