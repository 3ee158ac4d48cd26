//! Control-plane handlers: shutdown, audit, load reporting, cross-node
//! completions, deaths, and the filing of protocol replies for green
//! threads parked in a request/reply exchange.  What else the host asks
//! of a node (a checkpoint, a reclaim, an LRPC) is no message: it is a
//! thread the host spawns there, which calls the node's own API.

use isoaddr::SlotProvider;
use madeleine::Message;
use marcel::ThreadState;

use super::decode;
use crate::node::NodeCtx;
use crate::proto;

/// `SHUTDOWN`: finish the resident threads, then stop; the driver retires
/// the node once it is `done`.
pub(crate) fn on_shutdown(ctx: &mut NodeCtx) {
    ctx.shutdown = true;
}

/// Epidemic digest: merge every entry (strictly-newer sequence wins; see
/// `NodeCtx::absorb_gossip`).  A malformed digest is dropped whole — the
/// next round supersedes it anyway.
pub(crate) fn on_gossip(ctx: &mut NodeCtx, m: &Message) {
    if let Some(proto::Gossip { entries }) = decode(ctx, m) {
        for e in entries {
            ctx.absorb_gossip(e);
        }
    }
}

pub(crate) fn on_audit_req(ctx: &mut NodeCtx, from: usize) {
    let report = crate::audit::NodeAudit::of(ctx);
    let _ = ctx.send_msg(from, &report);
}

/// Most affinity records one `LOAD_RESP` carries.  The planner only ever
/// co-locates a handful of threads per round, so reporting the hottest
/// talkers is enough; the cap bounds the reply size on thread-dense nodes.
const MAX_AFF_REPORT: usize = 16;

pub(crate) fn on_load_req(ctx: &mut NodeCtx, m: &Message) {
    let Some(probe) = decode::<proto::LoadReq>(ctx, m) else {
        return;
    };
    // Migratable, currently-ready threads — with their descriptor pointers
    // so the affinity section below can read each one's top-k table.  A
    // thread is offered only once it has run: its first quantum is on the
    // node it was spawned on, so one that pins itself first never moves.
    let migratable: Vec<(u64, marcel::DescPtr)> = ctx
        .threads
        .iter()
        .filter(|(_, &d)| unsafe {
            (*d).thread_state() == ThreadState::Ready
                && (*d).started()
                && (*d).flags & marcel::thread::flags::MIGRATABLE != 0
        })
        .map(|(&tid, &d)| (tid, d))
        .collect();
    let tids: Vec<u64> = migratable.iter().map(|&(tid, _)| tid).collect();
    // Affinity section: each migratable thread's (peer → msgs) edges plus
    // what its train would cost to ship, hottest talkers first, capped.
    let slot_size = ctx.mgr.slot_size();
    let mut aff: Vec<proto::AffinityEdge> = migratable
        .iter()
        .filter_map(|&(tid, d)| unsafe {
            let peers: Vec<(u32, u32)> = (*d).affinity_edges().collect();
            if peers.is_empty() {
                return None;
            }
            let pack_cost =
                crate::migration::thread_pack_hint(d, slot_size, ctx.cfg.pack_full_slots)
                    .unwrap_or(usize::MAX)
                    .min(u32::MAX as usize) as u32;
            Some(proto::AffinityEdge {
                tid,
                pack_cost,
                epochs_since_move: (*d).aff_epoch,
                peers,
            })
        })
        .collect();
    aff.sort_by_key(|e| std::cmp::Reverse(e.peers.iter().map(|&(_, m)| m as u64).sum::<u64>()));
    aff.truncate(MAX_AFF_REPORT);
    // The reply piggybacks this node's free-slot wealth: every balancer
    // probe doubles as a freshness source for the slot trader.
    let wealth = ctx.mgr.free_slots() as u32;
    ctx.set_peer_wealth(ctx.node, wealth as u64);
    let resp = proto::LoadResp {
        resident: ctx.sched.resident() as u32,
        wealth,
        tids,
        aff,
    };
    let _ = ctx.send_msg(m.src, &resp);
    // The probe marks a balancer epoch: decay every resident thread's
    // affinity table *after* reporting, so this epoch's traffic was
    // visible to the planner before it fades.
    ctx.decay_thread_affinity(probe.decay_shift);
}

pub(crate) fn on_thread_exit(ctx: &mut NodeCtx, m: Message) {
    if let Some(exit) = decode::<crate::registry::ThreadExit>(ctx, &m) {
        // First write wins: the dying node already completed
        // the shared registry directly, and a typed join may
        // have consumed the value since — overwriting would
        // resurrect it.
        ctx.registry.complete_if_absent(exit);
    }
}

/// File a protocol reply (negotiation, load probe, migrate command, typed
/// LRPC) under the wait of the green thread it answers and wake it.  A
/// reply nobody waits for — it landed after its caller's deadline — is
/// dropped here and counted, not kept.
pub(crate) fn park_reply(ctx: &mut NodeCtx, m: Message) {
    if ctx.waits.file(&ctx.sched, m).is_some() {
        ctx.stats.replies_unclaimed.add(1);
    }
}

// -- fault tolerance --------------------------------------------------------

/// `KILL`: power-cord semantics for chaos tests.  The node stops dead —
/// no cleanup, no goodbyes; everything it owned is recovered by the
/// survivors (or lost, which is the point of the exercise).
pub(crate) fn on_kill(ctx: &mut NodeCtx) {
    ctx.killed = true;
}

/// `NODE_DEAD`: a survivor (or the host) announces a death.  Purge the
/// corpse from every local routing structure and fail waits aimed at it.
pub(crate) fn on_node_dead(ctx: &mut NodeCtx, m: &Message) {
    if let Some(proto::NodeDead { node }) = decode(ctx, m) {
        ctx.note_node_dead(node as usize);
    }
}
