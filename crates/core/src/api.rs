//! The green-side PM2 API — the reproduction of the paper's programming
//! interface (§3.4), callable from inside Marcel threads:
//!
//! | paper                           | here                          |
//! |---------------------------------|-------------------------------|
//! | `pm2_isomalloc(size)`           | [`pm2_isomalloc`]             |
//! | `pm2_isofree(addr)`             | [`pm2_isofree`]               |
//! | `pm2_migrate(marcel_self(), n)` | [`pm2_migrate`]               |
//! | `pm2_migrate(tid, n)` (other)   | [`pm2_migrate_thread`]        |
//! | `pm2_self()`                    | [`pm2_self`]                  |
//! | `marcel_self()`                 | [`pm2_self_tid`]              |
//! | `pm2_printf(...)`               | [`pm2_printf!`](crate::pm2_printf) |
//! | `pm2_register_pointer`          | none needed — pointers stay valid (Fig. 3) |
//! | `malloc` (non-migrating)        | [`node_malloc`] (see `nodeheap`) |

use std::collections::HashSet;
use std::sync::atomic::Ordering;

use madeleine::{Message, Payload, Wire};

use crate::error::{Pm2Error, Result};
use crate::node::with_ctx;
use crate::proto::{self, rpc_status, tag, Msg};
use crate::service::{service_id, Service, MAX_RPC_PAYLOAD};
use crate::wait::{Due, For, Wait};

/// Node currently hosting the calling thread (the paper's `pm2_self()`).
pub fn pm2_self() -> usize {
    marcel::current_node()
}

/// Thread id of the caller (the paper's `marcel_self()`).
pub fn pm2_self_tid() -> u64 {
    marcel::current_tid()
}

/// Number of nodes in the machine.
pub fn pm2_nodes() -> usize {
    with_ctx(|c| c.n_nodes)
}

/// Re-export: cooperative yield.
pub use marcel::yield_now as pm2_yield;

/// Wait until the local bitmap is not frozen by a negotiation.  Between the
/// successful check and the caller's next wait the pump cannot run, so the
/// frozen flag cannot flip under the caller.
pub(crate) fn wait_unfrozen() {
    // `while`: the pump may freeze again before the woken thread runs.
    while with_ctx(|c| c.frozen()) {
        let _ = Wait::open(For::Thaw, None).next();
    }
}

/// Allocate `size` bytes in the iso-address area (the paper's
/// `pm2_isomalloc`).  The data migrates with the calling thread and keeps
/// its virtual address, so pointers into it — and inside it — stay valid
/// across migrations with no post-processing.
pub fn pm2_isomalloc(size: usize) -> Result<*mut u8> {
    loop {
        wait_unfrozen();
        let d = marcel::current_desc();
        let r = with_ctx(|c| {
            // SAFETY: the descriptor belongs to the calling thread, hosted
            // on this node; the pump is not running.
            unsafe { isomalloc::isomalloc(std::ptr::addr_of_mut!((*d).heap), &mut c.mgr, size) }
        });
        match r {
            Ok(p) => return Ok(p),
            Err(isomalloc::AllocError::Provider(isoaddr::IsoAddrError::NeedNegotiation {
                requested,
            })) => {
                // The local node lacks contiguous slots: trade with the
                // richest peer, falling back to the §4.4 negotiation.
                crate::negotiation::acquire_remote(requested)?;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Free a block allocated with [`pm2_isomalloc`].  Freed slots go to the
/// node the thread is *currently* visiting (Fig. 6).
// Deliberately a safe fn despite taking a raw pointer: this is the
// paper-shaped C API, and the block layer validates the pointer (garbage
// and double frees return Err, they never dereference blindly).
#[allow(clippy::not_unsafe_ptr_arg_deref)]
pub fn pm2_isofree(ptr: *mut u8) -> Result<()> {
    wait_unfrozen();
    let d = marcel::current_desc();
    with_ctx(|c| {
        // SAFETY: as in pm2_isomalloc.
        unsafe { isomalloc::isofree(std::ptr::addr_of_mut!((*d).heap), &mut c.mgr, ptr) }
    })?;
    Ok(())
}

/// Migrate the calling thread to `dest` (the paper's
/// `pm2_migrate(marcel_self(), dest)`).  On `Ok` the thread is executing
/// on `dest` (already being there is a no-op); all its pointers are
/// intact.  A destination known to be dead refuses the thread, which stays
/// where it was: [`Pm2Error::NodeFailed`].
pub fn pm2_migrate(dest: usize) -> Result<()> {
    if dest >= with_ctx(|c| c.n_nodes) {
        return Err(Pm2Error::NoSuchNode(dest));
    }
    marcel::migrate_self(dest);
    // Refused departures are requeued here (`NodeCtx::stage_departure`).
    if pm2_self() != dest {
        return Err(Pm2Error::NodeFailed(dest));
    }
    Ok(())
}

/// Preemptively migrate *another* thread residing on this node.  The target
/// is shipped at its next scheduling point without its cooperation — the
/// transparency property of §2 (application threads contain no migration
/// code; an external module can rebalance them).
pub fn pm2_migrate_thread(tid: u64, dest: usize) -> Result<()> {
    if dest >= with_ctx(|c| c.n_nodes) {
        return Err(Pm2Error::NoSuchNode(dest));
    }
    with_ctx(|c| match c.threads.get(&tid) {
        // SAFETY: descriptor resident on this node.
        Some(&d) => {
            if unsafe { c.sched.request_migration(d, dest) } {
                Ok(())
            } else {
                Err(Pm2Error::NotMigratable(tid))
            }
        }
        None => Err(Pm2Error::NoSuchThread(tid)),
    })
}

/// Group migration: order every thread in `tids` (resident on node `src`)
/// to migrate to `dest`, returning how many were accepted (resident,
/// migratable, and at a shippable scheduling point).
///
/// This is the batched form of [`pm2_migrate_thread`] — PM2's group
/// migration API.  One `MIGRATE_CMD` carries the whole tid list, and the
/// departure side coalesces the accepted threads into migration *trains*
/// (one wire message per destination, not per thread), so evacuating k
/// threads costs one message latency per destination.  When `src` is the
/// calling thread's own node the threads are flagged locally with no wire
/// traffic at all; otherwise the caller is parked until the batched ack
/// arrives or the reply deadline passes.
pub fn pm2_group_migrate(src: usize, dest: usize, tids: &[u64]) -> Result<usize> {
    let n_nodes = with_ctx(|c| c.n_nodes);
    if dest >= n_nodes {
        return Err(Pm2Error::NoSuchNode(dest));
    }
    if src >= n_nodes {
        return Err(Pm2Error::NoSuchNode(src));
    }
    if tids.is_empty() {
        return Ok(0);
    }
    if src == pm2_self() {
        return Ok(with_ctx(|c| c.request_migrations(tids.to_vec(), dest)) as usize);
    }
    let cmd_id = with_ctx(|c| c.next_call_id());
    let cmd = proto::MigrateCmd {
        cmd_id,
        dest: dest as u32,
        tids: tids.to_vec(),
    };
    let ack: proto::MigrateAck = call("migrate command", src, &cmd, Some(cmd_id))?;
    Ok(ack.accepted as usize)
}

/// Spawn a thread on the current node (the paper's `pm2_thread_create`).
pub fn pm2_thread_create<F>(f: F) -> Result<u64>
where
    F: FnOnce() + Send + 'static,
{
    wait_unfrozen();
    with_ctx(|c| c.spawn_local(f)).map_err(|e| Pm2Error::Spawn(e.to_string()))
}

/// Spawn a value-returning thread on the current node.  The returned tid
/// joins through [`pm2_join_value`], which decodes the value the body
/// returned — across any number of migrations, because the encoded value
/// rides the thread-exit protocol back to the registry.
pub fn pm2_thread_create_ret<R, F>(f: F) -> Result<u64>
where
    R: Wire + Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    pm2_thread_create(move || {
        let value = f();
        set_exit_value(value.encode_vec());
    })
}

/// Record one RPC-shaped message the calling green thread exchanged with
/// `peer`: bumps the thread's top-k affinity table (which migrates with
/// it) and the node's `rpc_local`/`rpc_remote` counters.
pub(crate) fn note_rpc_traffic(peer: usize) {
    let d = marcel::current_desc();
    // SAFETY: own descriptor; the pump is not running.
    unsafe { (*d).record_affinity(peer as u32) };
    with_ctx(|c| c.note_traffic(peer));
}

/// Where thread `tid` currently lives, if the machine knows of it.  The
/// registry tracks every spawn/migration/adoption, so this is exact at
/// quiescence and at-most-one-hop stale while a migration is in flight —
/// good enough to aim an RPC at a peer's node (callers must still handle
/// the message reaching a node the peer just left).
pub fn pm2_thread_location(tid: u64) -> Option<usize> {
    with_ctx(|c| c.registry.location(tid))
}

/// Run byte-level service `service` on `args` on a (possibly remote) node
/// and forget it — PM2's LRPC: an `RPC_CALL` with call id
/// [`proto::NO_REPLY`], which nobody answers.  The args travel as a
/// `Vec<u8>` request: over [`MAX_RPC_PAYLOAD`] encoded bytes they fail
/// here with [`Pm2Error::PayloadTooLarge`].  A failure there is a line in
/// the machine's output.
pub fn pm2_rpc_spawn(node: usize, service: u32, args: &[u8]) -> Result<()> {
    let call = with_ctx(|c| {
        if node >= c.n_nodes {
            return Err(Pm2Error::NoSuchNode(node));
        }
        let (args, max) = (args.to_vec(), MAX_RPC_PAYLOAD);
        proto::encode_rpc_call(&c.pool, proto::NO_REPLY, c.node, service, &args, max)
    })?;
    send_to(node, tag::RPC_CALL, call)?;
    note_rpc_traffic(node);
    Ok(())
}

/// Typed request/reply LRPC: call service `S` on `node`, parking the
/// calling green thread (so this node keeps serving, at no cost) until
/// the response arrives or the configured reply deadline passes.
///
/// The service runs on `node` in a Marcel thread, the one that serves the
/// calls queued there (see [`crate::service`]).  Errors
/// distinguish an unregistered service ([`Pm2Error::NoSuchService`]), an
/// oversized request — checked locally — or response
/// ([`Pm2Error::PayloadTooLarge`] / [`Pm2Error::Rpc`]), a handler panic
/// ([`Pm2Error::Rpc`]), and a reply that missed the deadline
/// ([`Pm2Error::Timeout`]).
pub fn pm2_rpc_call<S: Service>(node: usize, req: S::Req) -> Result<S::Resp> {
    // Encoded straight into a buffer from the node's pool (the encoder
    // cannot yield, so the node is borrowed for no longer than that).
    let (call_id, call, patience) = with_ctx(|c| {
        if node >= c.n_nodes {
            return Err(Pm2Error::NoSuchNode(node));
        }
        let (call_id, max) = (c.next_call_id(), MAX_RPC_PAYLOAD);
        let call = proto::encode_rpc_call(&c.pool, call_id, c.node, service_id::<S>(), &req, max)?;
        Ok((call_id, call, c.cfg.reply_deadline))
    })?;
    // Handlers may migrate before replying, so the response is matched on
    // the call id alone; `node` is named so that its death fails the call.
    // The deadline is a span: no clock is read for it here.
    let due = Due::After(patience);
    let reply = Wait::for_reply(tag::RPC_RESP, Some(node), Some(call_id), due);
    send_to(node, tag::RPC_CALL, call)?;
    // One call = one request out + one reply back, both with `node`: the
    // caller accounts each leg once it has travelled (the serving side
    // separately accounts the reply it sent).
    note_rpc_traffic(node);
    let m = reply.next()?.ok_or(Pm2Error::Timeout { op: "rpc call" })?;
    note_rpc_traffic(node);
    let (_, status, bytes) =
        proto::decode_rpc_resp(&m.payload).ok_or(Pm2Error::Decode("rpc response"))?;
    match status {
        rpc_status::OK => S::Resp::decode_vec(bytes).ok_or(Pm2Error::Decode("rpc response body")),
        rpc_status::NO_SUCH_SERVICE => Err(Pm2Error::NoSuchService(service_id::<S>())),
        _ => Err(Pm2Error::Rpc(String::from_utf8_lossy(bytes).into_owned())),
    }
}

/// Wait (poll + yield) until thread `tid` has exited anywhere in the
/// machine.  Returns whether it panicked.
pub fn pm2_join(tid: u64) -> bool {
    wait_exit(tid).panicked
}

/// Wait (poll + yield) until thread `tid` has exited anywhere in the
/// machine, then decode the value it returned.
///
/// Pairs with [`pm2_thread_create_ret`] (green side) and
/// [`crate::machine::Machine::spawn_on_ret`] (host side): the value is
/// shipped through the thread-exit protocol, so it arrives even when the
/// thread died nodes away from where it was spawned.  Errors:
/// [`Pm2Error::Panicked`] with the panic message if the body panicked,
/// [`Pm2Error::Decode`] if the thread returned no value or a value of a
/// different type.
pub fn pm2_join_value<R: Wire>(tid: u64) -> Result<R> {
    wait_exit(tid);
    // Move the value bytes out of the registry (they are not retained
    // after the join, so completed threads cost O(1) registry space).
    with_ctx(|c| c.registry.take_typed_exit(tid))
        .expect("completion just observed")
        .typed_value()
}

/// Poll + yield until `tid` completes; returns the metadata record (no
/// value bytes — they stay in the registry until a typed join takes them).
/// A dead owner is resolved by `Registry::fail_if_owner_dead` with one
/// reply-deadline of grace.  Not a [`Wait`]: no message is addressed to a
/// joiner, and it must stay `Ready` for the balancer and checkpoints (§2).
fn wait_exit(tid: u64) -> crate::registry::ThreadExit {
    let mut grace = None;
    loop {
        if let Some(e) = with_ctx(|c| c.registry.poll_meta(tid)) {
            return e;
        }
        with_ctx(|c| {
            c.registry.fail_if_owner_dead(
                tid,
                |n| c.dead_nodes.contains(&n) || c.ep.is_dead(n),
                c.cfg.reply_deadline,
                &mut grace,
            )
        });
        marcel::yield_now();
    }
}

/// Record the calling thread's encoded return value; consumed by the node
/// when the thread exits.  Must be the last thing a thread body does (no
/// yield between this and returning).
pub(crate) fn set_exit_value(bytes: Vec<u8>) {
    let tid = marcel::current_tid();
    with_ctx(|c| c.note_exit_value(tid, bytes));
}

/// Set or clear `flag` on the calling thread's descriptor; returns whether
/// it was set before.
fn set_own_flag(flag: u32, on: bool) -> bool {
    let d = marcel::current_desc();
    // SAFETY: own descriptor.
    unsafe {
        let was = (*d).flags & flag != 0;
        if on {
            (*d).flags |= flag;
        } else {
            (*d).flags &= !flag;
        }
        was
    }
}

/// Mark the calling thread (non-)migratable; returns the previous state
/// (so a temporary pin can restore it).  Daemons (e.g. the load
/// balancer) exclude themselves from preemptive migration this way.
pub fn pm2_set_migratable(migratable: bool) -> bool {
    set_own_flag(marcel::thread::flags::MIGRATABLE, migratable)
}

/// Put the calling thread into (or out of) the scheduler's **control
/// lane**; returns the previous state.  Control-lane threads are
/// dispatched before ordinary compute quanta on every node they visit
/// (the flag rides the descriptor through migrations), so protocol
/// daemons — the load balancer, monitoring probes, anything doing
/// request/reply over the fabric — stay responsive on nodes crowded with
/// application threads.  Use sparingly: the lane drains strictly first,
/// so long-running compute in it would starve the machine.
pub fn pm2_set_control_priority(control: bool) -> bool {
    set_own_flag(marcel::thread::flags::CONTROL, control)
}

/// Allocate from the node-private heap — the paper's plain `malloc`.  The
/// data does **not** migrate: after the owning thread leaves this node the
/// memory is poisoned, reproducing Fig. 9's garbage reads (see `nodeheap`).
pub fn node_malloc(size: usize) -> *mut u8 {
    let tid = marcel::current_tid();
    with_ctx(|c| c.nodeheap.alloc(size, tid))
}

/// Free a [`node_malloc`] block on its owning node.
pub fn node_free(ptr: *mut u8) -> bool {
    with_ctx(|c| c.nodeheap.free(ptr))
}

/// Would dereferencing this [`node_malloc`] pointer be valid on the current
/// node?  `false` after the owner migrated away — a real cluster would read
/// garbage or fault here.
pub fn node_ptr_valid(ptr: *const u8) -> bool {
    with_ctx(|c| c.nodeheap.is_valid(ptr))
}

/// Capture one line of output, prefixed `[nodeN]` like the paper's traces.
pub fn printf_str(text: String) {
    with_ctx(|c| c.out.printf(c.node, &text));
}

/// `pm2_printf!(...)` — the paper's `pm2_printf`, with `format!` syntax.
#[macro_export]
macro_rules! pm2_printf {
    ($($arg:tt)*) => {
        $crate::api::printf_str(format!($($arg)*))
    };
}

/// Diagnostic: one request/reply round trip to `peer` using the same
/// wait mechanics as the negotiation gather (a `LOAD_REQ`).
/// Returns the peer's resident thread count.  (The reply also piggybacks
/// the peer's free-slot wealth, which the dispatch layer absorbs into the
/// trader's hint table before the reply is filed.)
pub fn pm2_probe_load(peer: usize) -> Result<usize> {
    let probe = proto::LoadReq { decay_shift: 0 };
    let resp: proto::LoadResp = call("load probe", peer, &probe, None)?;
    Ok(resp.resident as usize)
}

/// Slot-layer statistics of the calling thread's current node: reserve
/// traffic (lent/adopted/sold/bought), cache hits, commit counts — the
/// green-side counterpart of `Machine::slot_stats`.
pub fn pm2_slot_stats() -> isoaddr::SlotStatsSnapshot {
    with_ctx(|c| c.mgr.stats_snapshot())
}

/// The calling node's last-known free-slot count per node (its own entry
/// is live; peer entries are as fresh as the last piggybacked hint from
/// that peer).  This is the wealth table the slot trader picks lenders
/// from.
pub fn pm2_peer_wealth() -> Vec<u64> {
    with_ctx(|c| {
        let mut w: Vec<u64> = c
            .peer_wealth
            .iter()
            .map(|x| x.load(Ordering::Relaxed))
            .collect();
        w[c.node] = c.mgr.free_slots() as u64;
        w
    })
}

// ---------------------------------------------------------------------------
// Protocol plumbing shared with negotiation / load balancing.
// ---------------------------------------------------------------------------

/// Send a message from the calling thread's node.
pub(crate) fn send_to(dst: usize, tag: u16, payload: impl Into<Payload>) -> Result<()> {
    let payload = payload.into();
    with_ctx(|c| c.ep.send(dst, tag, payload))?;
    Ok(())
}

/// Send a declared message from the calling thread's node, under its tag.
pub(crate) fn send_msg<M: Msg>(dst: usize, msg: &M) -> Result<()> {
    with_ctx(|c| c.send_msg(dst, msg))?;
    Ok(())
}

/// One green-side request/reply exchange, `op`: send `req` to `peer` and
/// park for the `R` it answers with — matched by the correlation id `id`
/// when the reply leads with one, by tag and sender otherwise — for one
/// reply deadline.  A missed deadline is [`Pm2Error::Timeout`] (the peer is
/// slow, or cut off: the fabric loses nothing, so nothing is re-sent); a
/// dead peer fails fast with [`Pm2Error::NodeFailed`], a reply that does
/// not decode with [`Pm2Error::Decode`].
pub(crate) fn call<R: Msg>(
    op: &'static str,
    peer: usize,
    req: &impl Msg,
    id: Option<u64>,
) -> Result<R> {
    let reply = Wait::for_reply(R::TAG, Some(peer), id, reply_deadline());
    send_msg(peer, req)?;
    let m = reply.next()?.ok_or(Pm2Error::Timeout { op })?;
    R::from_payload(&m.payload)
}

/// The machine's `reply_deadline`, as a wait's span: it runs from the
/// node's next clock read, and reading none here is the point.
pub(crate) fn reply_deadline() -> Due {
    Due::After(with_ctx(|c| c.cfg.reply_deadline))
}

/// Scatter/gather (the §4.4 bitmap and buy-ack rounds, the balancer's
/// probes), `op`: open a wait for everybody's `tag` replies (those leading
/// with `id`, if given), `ask` each of `peers`, and hand `on_reply` one
/// reply from every peer asked.  Returns
/// the peers whose reply is never coming — they could not be asked, or
/// died owing it; [`Pm2Error::Timeout`] when `due` passes with live peers
/// owing.
pub(crate) fn gather(
    op: &'static str,
    tag: u16,
    id: Option<u64>,
    due: Due,
    peers: impl IntoIterator<Item = usize>,
    mut ask: impl FnMut(usize) -> Result<()>,
    mut on_reply: impl FnMut(Message) -> Result<()>,
) -> Result<Vec<usize>> {
    let replies = Wait::for_reply(tag, None, id, due);
    let (asked, mut lost): (Vec<_>, Vec<_>) = peers.into_iter().partition(|&p| ask(p).is_ok());
    let mut owing: HashSet<usize> = asked.into_iter().collect();
    while !owing.is_empty() {
        match replies.next() {
            Ok(Some(m)) if owing.remove(&m.src) => on_reply(m)?,
            Ok(Some(_)) => {}
            Ok(None) => return Err(Pm2Error::Timeout { op }),
            Err(Pm2Error::NodeFailed(dead)) if owing.remove(&dead) => lost.push(dead),
            Err(Pm2Error::NodeFailed(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(lost)
}
