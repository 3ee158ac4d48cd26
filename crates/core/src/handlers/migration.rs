//! Migration-class handlers: train arrival (`MIGRATION`), rejection
//! (`MIGRATION_NAK`) and third-party migration commands (`MIGRATE_CMD`).
//!
//! The *departure* side (sweep & pack & ship) stays in the dispatch core
//! (`NodeCtx::depart`): it is a scheduler outcome, not a message.
//!
//! Every `MIGRATION` payload is a *train* of k ≥ 1 threads (see
//! `crate::migration` for the wire shape).  Arrival is all-the-healthy-
//! threads-land: each record group unpacks independently, the adopted
//! threads enter the scheduler in **one** batch (`adopt_arrivals`), and
//! only the corrupt groups are NAKed back — by tid, which the fixed-size
//! train table preserves even when the records behind it are garbage.

use std::sync::atomic::Ordering;
use std::time::Instant;

use madeleine::Message;

use super::{decode, drop_malformed};
use crate::node::NodeCtx;
use crate::proto::{self, tag};
use crate::registry::ThreadExit;

pub(crate) fn on_migration(ctx: &mut NodeCtx, m: Message) {
    // Adopting slots does not touch the bitmap, so arrivals are legal
    // even inside a negotiation ("the bitmaps do not undergo any change
    // on thread migration", §4.2).
    ctx.stats
        .migration_wire_ns
        .fetch_add(m.wire_ns, Ordering::Relaxed);
    let t0 = Instant::now();
    // SAFETY: buffer from a peer's pack_threads (or, under fault
    // injection, arbitrary bytes — unpack_threads validates and rolls
    // back per record group rather than trusting them).
    let unpacked =
        unsafe { crate::migration::unpack_threads(&m.payload, &mut ctx.mgr, &mut ctx.arrival) };
    ctx.stats
        .migration_unpack_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    if let Err(e) = unpacked {
        // The train table itself was unreadable: there are no tids to
        // name, so NAK the whole message anonymously.  Costs the
        // train, never the node.
        ctx.stats.migrations_failed.fetch_add(1, Ordering::Relaxed);
        let text = format!("rejected corrupt migration from node {}: {e}", m.src);
        ctx.out.printf(ctx.node, &text);
        let nak = proto::encode_migration_nak(&ctx.pool, &[], &text);
        let _ = ctx.ep.send(m.src, tag::MIGRATION_NAK, nak);
        return;
    }
    let outcome = &ctx.arrival;
    if !outcome.adopted.is_empty() {
        // SAFETY: unpack succeeded for these; live resident descriptors.
        unsafe {
            // The whole train enters the scheduler in one batch.
            ctx.sched.adopt_arrivals(&outcome.adopted);
            for &d in &outcome.adopted {
                ctx.threads.insert((*d).tid, d);
                // Adoption moves the thread's location — recovery and
                // dead-owner join checks depend on this being current.
                ctx.registry.set_location((*d).tid, ctx.node);
                // Arrival starts the hysteresis cooldown clock: the
                // balancer won't re-plan this thread until `AFF_COOLDOWN`
                // epochs elapse, so chatty-both-ways threads settle
                // instead of ping-ponging.
                (*d).aff_epoch = 0;
            }
        }
        ctx.stats
            .migrations_in
            .fetch_add(outcome.adopted.len() as u64, Ordering::Relaxed);
        ctx.stats.trains_in.fetch_add(1, Ordering::Relaxed);
    }
    if !outcome.rejected.is_empty() {
        // Corrupt groups cost their own threads, never the train: log,
        // count, and NAK the sender with the lost tids.
        ctx.stats
            .migrations_failed
            .fetch_add(outcome.rejected.len() as u64, Ordering::Relaxed);
        let tids: Vec<u64> = outcome.rejected.iter().map(|(t, _)| *t).collect();
        let reasons: Vec<String> = outcome
            .rejected
            .iter()
            .map(|(t, e)| format!("tid {t:#x}: {e}"))
            .collect();
        let text = format!(
            "rejected corrupt migration from node {}: {}",
            m.src,
            reasons.join("; ")
        );
        ctx.out.printf(ctx.node, &text);
        let nak = proto::encode_migration_nak(&ctx.pool, &tids, &text);
        let _ = ctx.ep.send(m.src, tag::MIGRATION_NAK, nak);
    }
}

/// The peer could not unpack one or more threads we shipped.  Their slots
/// were unmapped at pack time and the tids left our tables, so those
/// threads are unrecoverable — but joiners must not hang: complete each in
/// the registry as a panic carrying the rejection text.
pub(crate) fn on_migration_nak(ctx: &mut NodeCtx, m: Message) {
    let Some((tids, text)) = proto::decode_migration_nak(&m.payload) else {
        drop_malformed(ctx);
        ctx.out.printf(
            ctx.node,
            &format!("peer node {} sent an unreadable migration NAK", m.src),
        );
        return;
    };
    ctx.out.printf(
        ctx.node,
        &format!("peer node {} NAKed a migration: {text}", m.src),
    );
    for tid in tids {
        if tid == 0 {
            continue;
        }
        // First-write-wins, like THREAD_EXIT: never resurrect a
        // completion a joiner already consumed.
        ctx.registry.complete_if_absent(ThreadExit {
            tid,
            panicked: true,
            died_on: ctx.node,
            panic_msg: Some(format!("thread lost in migration: {text}")),
            value: None,
            failed_node: None,
        });
    }
}

/// One command moves a whole tid list to one destination (the balancer's
/// per-(src, dest) plan entry).  Each resident, migratable, ready thread
/// is flagged; they all leave at the next scheduling point — and because
/// the departure side sweeps every flagged thread into one train, the k
/// accepted threads cost one wire message, not k.
pub(crate) fn on_migrate_cmd(ctx: &mut NodeCtx, m: Message) {
    // A corrupt command costs the command, never the node; the sender's
    // round deadline covers the missing ack.
    let Some(proto::MigrateCmd { cmd_id, dest, tids }) = decode(ctx, &m) else {
        ctx.out.printf(
            ctx.node,
            &format!("dropped unreadable migrate command from node {}", m.src),
        );
        return;
    };
    let total = tids.len() as u32;
    let accepted = ctx.request_migrations(tids, dest as usize);
    // The ack piggybacks this node's free-slot wealth for the trader.
    let wealth = ctx.mgr.free_slots() as u32;
    ctx.set_peer_wealth(ctx.node, wealth as u64);
    let ack = proto::MigrateAck {
        cmd_id,
        accepted,
        total,
        wealth,
    };
    let _ = ctx.send_msg(m.src, &ack);
}
