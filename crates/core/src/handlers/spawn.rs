//! Thread-creation and LRPC handlers: `SPAWN_KEY`, `RPC_SPAWN`,
//! `RPC_CALL`.
//!
//! All three need a fresh stack slot (a bitmap mutation), so all three
//! defer while the bitmap is frozen by a negotiation and are replayed by
//! the dispatch core after `NEG_DONE`.  Typed-LRPC handlers spawn into the
//! scheduler's **control lane** ([`marcel::thread::flags::CONTROL`]): a
//! serving node crowded with compute threads still turns replies around
//! promptly.  They are also [`marcel::thread::flags::DETACHED`]: their tid
//! is minted here and handed to nobody, so nothing could join them.

use madeleine::Message;
use marcel::thread::flags;

use super::{decode, drop_malformed};
use crate::node::NodeCtx;
use crate::proto::{self, rpc_status, tag};

pub(crate) fn on_spawn_key(ctx: &mut NodeCtx, m: Message) {
    if ctx.frozen {
        // Spawning needs a stack slot (bitmap mutation): park until
        // the negotiation ends.
        ctx.deferred.push_back(m);
        return;
    }
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
    if let Err(e) = ctx.try_spawn_boxed(tid, 0, f) {
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

pub(crate) fn on_rpc_spawn(ctx: &mut NodeCtx, m: Message) {
    if ctx.frozen {
        ctx.deferred.push_back(m);
        return;
    }
    let Some(proto::RpcSpawn { service, args }) = decode(ctx, &m) else {
        return;
    };
    // Fire-and-forget: a request for an unregistered service has nobody
    // to refuse, so it is dropped like any other malformed message.
    let Some(f) = ctx.services.get(service) else {
        ctx.out.printf(
            ctx.node,
            &format!("dropped rpc spawn of unregistered service {service}"),
        );
        return drop_malformed(ctx);
    };
    let tid = ctx.sched.next_tid();
    if let Err(e) = ctx.try_spawn_boxed(tid, 0, Box::new(move || f(args))) {
        // Out of stack slots under a spawn flood: the request is lost
        // (nobody awaits it), the node is not.
        ctx.out.printf(ctx.node, &format!("dropped rpc spawn: {e}"));
    }
}

pub(crate) fn on_rpc_call(ctx: &mut NodeCtx, m: Message) {
    if ctx.frozen {
        // The handler thread needs a stack slot (bitmap mutation):
        // park until the negotiation ends.
        ctx.deferred.push_back(m);
        return;
    }
    // The reply destination travels in the payload, NOT in `m.src`,
    // so it survives the deferred replay above and any handler
    // migration before the response is sent.
    let Some((call_id, reply_to, service, req)) = proto::decode_rpc_call(&m.payload) else {
        return drop_malformed(ctx); // Nothing to reply to.
    };
    if req.len() > ctx.cfg.max_rpc_payload {
        let msg = format!("request of {} bytes exceeds ceiling", req.len());
        let _ = ctx.ep.send(
            reply_to,
            tag::RPC_RESP,
            proto::encode_rpc_resp(&ctx.pool, call_id, rpc_status::REMOTE_ERROR, msg.as_bytes()),
        );
        return;
    }
    let Some(handler) = ctx.typed_services.get(service) else {
        let _ = ctx.ep.send(
            reply_to,
            tag::RPC_RESP,
            proto::encode_rpc_resp(&ctx.pool, call_id, rpc_status::NO_SUCH_SERVICE, &[]),
        );
        return;
    };
    // LRPC semantics: the handler runs as a fresh Marcel thread, so it
    // may allocate, spawn, even migrate; the reply is sent from
    // whatever node it ends up on, matched by call id at the caller.
    // It spawns control-priority so a backlog of compute quanta cannot
    // sit between the request and its reply.  The thread owns the request
    // message and reads the request bytes where they arrived.
    let max = ctx.cfg.max_rpc_payload;
    let pool = ctx.pool.clone();
    let tid = ctx.sched.next_tid();
    let spawned = ctx.try_spawn_boxed(
        tid,
        flags::CONTROL | flags::DETACHED,
        Box::new(move || {
            let reply =
                proto::encode_rpc_reply(&pool, call_id, max, |w| handler(&m.payload[req], w));
            // The reply is RPC-shaped traffic too: account it on the
            // serving side (from wherever the handler ended up) so both
            // ends of a chatty pair accumulate affinity toward each other.
            crate::api::note_rpc_traffic(reply_to);
            let _ = crate::api::send_to(reply_to, tag::RPC_RESP, reply);
        }),
    );
    if let Err(e) = spawned {
        // Out of stack slots: the caller gets a typed remote error
        // instead of a wedged machine and an opaque timeout.
        let msg = format!("serving node could not spawn handler: {e}");
        let _ = ctx.ep.send(
            reply_to,
            tag::RPC_RESP,
            proto::encode_rpc_resp(&ctx.pool, call_id, rpc_status::REMOTE_ERROR, msg.as_bytes()),
        );
    }
}
