//! The per-node runtime: an event-driven dispatch core.
//!
//! One `NodeCtx` is the reproduction of the paper's "single (heavy) process
//! running at each node" (§2): it owns the node's slot bitmap, its thread
//! scheduler, its private heap and its network endpoint.  Exactly one OS
//! thread drives it *at a time*: the node is a state machine multiplexed
//! onto the `executor` worker pool (a rung doorbell queues the node; a
//! worker locks it, steps it up to a fairness budget, and parks it
//! again).  With one worker a single OS thread runs every node and every
//! green thread, in ready-queue (ring) order — a function of the message
//! history when the host is quiet.  Marcel threads and the message pump
//! interleave but never run concurrently, which is exactly the concurrency
//! model of a user-level thread runtime.
//!
//! ## The event-driven core
//!
//! The node is **event-driven, not polled**.  Four pieces cooperate:
//!
//! * **Doorbell** — every [`madeleine::Endpoint::send`] rings the
//!   destination's [`madeleine::Doorbell`]; an idle driver *parks* (the
//!   executor marks the node `Idle` and the worker moves on, sleeping
//!   when every node is idle) instead of spin- or sleep-polling, so a
//!   quiescent machine burns ~zero CPU and a message wakes its handler at
//!   futex-wake-up latency.  The
//!   [`NodeStats::driver_parks`]/[`NodeStats::driver_wakeups`] counters
//!   make the parking observable.
//! * **Class-prioritized pump** — `NodeCtx::pump` ingests deliverable
//!   messages into three priority lanes (see `handlers::Class`:
//!   control > migration > data) and drains them in class order under a
//!   per-pump budget (`pump_budget` knob), so a flood of data messages can
//!   never delay SHUTDOWN or negotiation traffic.  Within a class, per-pair
//!   FIFO order is preserved.
//! * **Handler dispatch table** — the per-tag protocol logic lives in the
//!   `handlers` module tree (`spawn`/`rpc`, `migration`,
//!   `negotiation`, `control`), entered through
//!   `handlers::dispatch`; `node.rs` itself is only the dispatch
//!   core: scheduler interleaving, thread lifecycle, and the lanes.
//! * **Wait table** — a green thread waiting on its node (for a reply,
//!   the bitmap to thaw, its turn at a remote acquisition, a time) is
//!   parked in `NodeCtx::waits` (the `wait` module) until the pump
//!   unblocks it, so a node whose threads all wait is idle and its driver
//!   parks, until the earliest deadline.  Only `pm2_join` still polls.
//!
//! What no message brings is a timer, and a parking node names the instant
//! it next needs a step for one (`NodeCtx::next_timer`: the earliest wait
//! deadline, the gossip/detector round, the periodic checkpoint and the
//! coordinator's grant embargo, each only while armed); `NodeCtx::step`
//! runs those duties once their instant has passed.  With nothing armed —
//! the default — a step reads no clock and a quiet node is never stepped.
//!
//! ## Gossip-scale protocols
//!
//! Per-node protocol cost must stay (amortized) O(1) in the node count or
//! p = 256 machines drown in their own bookkeeping, so everything that was
//! all-pairs is now epidemic or sampled:
//!
//! * **Liveness** is piggybacked: any arriving message refreshes the
//!   sender's `last_heard` stamp, and a strictly-newer gossiped sequence
//!   number counts as (indirect) evidence too — a peer cannot produce a
//!   fresh round number after dying.  HEARTBEATs are no longer beaconed to
//!   all p peers; they are *suspicion probes* sent only to a peer that has
//!   been silent past half the failure timeout (a ping byte requesting a
//!   pong), and death is still declared purely by silence timeout.
//! * **Wealth/load dissemination** is an epidemic digest
//!   ([`crate::proto::Gossip`]): once per `heartbeat_every` each
//!   node pushes its own free-slot and resident-thread counts, plus a few
//!   relayed table entries, to `GOSSIP_FANOUT` random live peers — O(1)
//!   messages per node per round, O(log p) rounds to saturate the machine.
//! * **The silence scan** walks the peer table once per round — one lap
//!   per `heartbeat_every`, busy node or idle — with a capped number of
//!   suspicion probes per lap, instead of scanning all p every step.
//! * **Sampling**: `richest_peer` draws a random sample above
//!   `FULL_PROBE_MAX` nodes (power-of-two-choices style) instead of
//!   scanning everyone.
//!
//! The remaining O(p) structures are deliberate: the `peer_wealth` /
//! `peer_seq` / `last_heard` tables are one word-ish per peer (a few KB at
//! p = 256, refreshed — never scanned — on the hot path), broadcast
//! fan-out is O(p) but only on rare machine-wide events (NODE_DEAD,
//! SHUTDOWN), and the §4.4 all-peer bitmap gather survives as the
//! documented *fallback* path when trading cannot satisfy a request.
//!
//! The migration *departure* side also lives here (`NodeCtx::depart`): a
//! migration outcome sweeps every other ready thread already flagged for
//! preemptive migration out of the scheduler (`Scheduler::take_migrating`)
//! and ships same-destination threads as one train per destination — one
//! wire message for k threads (capped by the `max_train` knob).
//!
//! While a Marcel thread runs, it reaches its node through an OS-thread-
//! local pointer (see `with_ctx`); the same aliasing discipline as in
//! `marcel::sched` applies — short raw-pointer accesses, nothing cached
//! across yields.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isoaddr::{IsoArea, NodeSlotManager, SlotRange};
use madeleine::{BufPool, Endpoint, Message};
use marcel::{DescPtr, RunOutcome, Scheduler, ThreadState};

use crate::config::Pm2Config;
use crate::handlers::{self, N_CLASSES};
use crate::migration;
use crate::nodeheap::NodeHeap;
use crate::output::OutputSink;
use crate::proto::{self, tag, Msg};
use crate::registry::{Registry, ServiceTable, SpawnTable, ThreadExit};
use crate::service::{panic_text, TypedServiceTable};
use crate::spill::SpillLog;
use crate::wait::{For, WaitTable};

thread_local! {
    static CURRENT_NODE: Cell<*mut NodeCtx> = const { Cell::new(std::ptr::null_mut()) };
}

/// Largest machine the exact all-peer path still runs on: up to this many
/// nodes `richest_peer` scans the whole table (preserving the
/// small-machine ablation numbers); above it it samples, and gossip
/// dissemination turns on even without a detector.
/// The machine size alone makes the choice — something the code observes,
/// not something a user sets.
pub const FULL_PROBE_MAX: usize = 16;
/// Peers a gossip round pushes the digest to.
const GOSSIP_FANOUT: usize = 2;
/// Minimum relayed table entries riding along with the self-entry in a
/// digest; the actual budget grows with the machine ([`relay_budget`]) so
/// indirect liveness evidence keeps the whole table fresher than the
/// suspicion-probe threshold even at p = 256.
const GOSSIP_RELAY: usize = 6;
/// Cap on the relay budget: a digest never exceeds `1 + 32` entries
/// (~500 B), whatever the machine size.
const GOSSIP_RELAY_MAX: usize = 32;
/// Most suspicion probes one silence scan sends.
const SCAN_PROBES: usize = 4;
/// Candidates drawn by the sampled `richest_peer` on large machines.
const RICH_SAMPLE: usize = 16;
/// Thread heaps hand a fully-free slot back to the hosting node at once
/// (§4.3).
const HEAP_TRIM: bool = true;

/// The per-node counters, declared once: the live atomics ([`NodeStats`],
/// shared with the host), the plain copy ([`NodeStatsSnapshot`]),
/// [`NodeStats::snapshot`] and [`NodeStats::reset`] are all generated from
/// this one list, so a new counter is one entry here.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Live runtime counters for one node (shared with the host).
        #[derive(Debug, Default)]
        pub struct NodeStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Plain snapshot of [`NodeStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct NodeStatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl NodeStats {
            /// Zero every counter.  Intended for round-based measurement
            /// (the workload harness resets between ramp rounds so each
            /// round reports its own counters, not cumulative ones); call
            /// it near quiescence — a node mid-increment is harmless (the
            /// increment lands in the next window) but the fields are not
            /// reset as one atomic unit.
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }

            /// Point-in-time copy.
            pub fn snapshot(&self) -> NodeStatsSnapshot {
                NodeStatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

counters! {
    /// Threads shipped away.
    migrations_out,
    /// Threads received.
    migrations_in,
    /// Arriving migration record groups rejected as corrupt (NAKed).
    migrations_failed,
    /// Migration trains (wire messages) sent; `migrations_out /
    /// trains_out` is the mean threads-per-message of outgoing traffic.
    trains_out,
    /// Migration trains received (counted when ≥ 1 thread adopted).
    trains_in,
    /// Total bytes of outgoing migration buffers.
    migration_bytes_out,
    /// Nanoseconds spent packing outgoing migrations (freeze & gather).
    /// Per-stage migration cost is summed over this node's
    /// participations: packing is paid by the source…
    migration_pack_ns,
    /// …modelled wire nanoseconds charged for arriving migrations…
    migration_wire_ns,
    /// …and unpacking them (adopt & copy) by the destination.
    migration_unpack_ns,
    /// Global negotiations initiated by this node (the §4.4 fallback; on
    /// the trade-first hot path this stays 0).
    negotiations,
    /// Total nanoseconds spent in initiated global negotiations.
    negotiation_ns,
    /// Demand slot trades initiated by this node (a green thread needed
    /// slots *now* and asked the richest known peer).
    trades,
    /// Total nanoseconds green threads spent in demand trades.
    trade_ns,
    /// Slots adopted from peers via trades (demand + prefetch).
    trade_slots_in,
    /// Demand trades that could not satisfy the request (refused,
    /// insufficient, or non-contiguous) and fell back to the global §4.4
    /// protocol.
    trade_fallbacks,
    /// Trade requests this node granted as the lender.
    trade_grants,
    /// Trade requests this node refused (frozen, or at its watermark).
    trade_refusals,
    /// Asynchronous watermark prefetches sent (reserve below low water).
    prefetches,
    /// Prefetches that came back with at least one slot.
    prefetch_fills,
    /// Piggybacked wealth hints absorbed (trade/load/ack traffic).
    wealth_updates,
    /// Threads spawned here.
    spawns,
    /// Checkpoints written to the spill log.
    checkpoints,
    /// Thread images written across all checkpoints (supersessions
    /// included — the log replayer keeps only the newest epoch per tid).
    checkpoint_threads,
    /// Scheduling steps the driver executed for this node.
    steps,
    /// Times the driver parked on the doorbell with nothing to do.
    driver_parks,
    /// Times the driver came back from a park: rung, or requeued because
    /// the instant it filed on parking had passed.
    /// `driver_parks − driver_wakeups ∈ {0, 1}` at any instant; a
    /// quiescent machine with no timer armed accumulates none of either
    /// beyond the initial park.
    driver_wakeups,
    /// Messages dropped by the per-(source, class) dedup window — chaos
    /// duplicates (same fabric seq) caught before they reached a handler.
    dup_dropped,
    /// Messages dropped by a handler as malformed: a payload that does not
    /// decode or names something this node does not have, or a tag with
    /// no handler (see `handlers`).  Zero on a healthy machine.
    malformed_dropped,
    /// Re-sends of at-least-once control requests after a lost request or
    /// reply: trades and probes issued by this node's threads, checkpoint
    /// and reclaim requests issued by the host *toward* this node.
    ctrl_retries,
    /// RPC-shaped messages (calls, spawn requests, replies) this node's
    /// threads exchanged with co-located peers — self-sends that never
    /// touch the modelled wire.
    rpc_local,
    /// RPC-shaped messages exchanged with remote nodes — each one pays
    /// the full modelled hop.  `rpc_remote / (rpc_local + rpc_remote)` is
    /// the remote-message ratio the affinity balancer minimizes.
    rpc_remote,
    /// Affinity decay sweeps applied (one per LOAD_REQ-carried balancer
    /// epoch observed by this node).
    aff_decays,
    /// Protocol replies dropped at dispatch because no green thread had a
    /// wait open for them (an ack after its caller timed out, a duplicate).
    replies_unclaimed,
}

impl NodeStatsSnapshot {
    /// Mean threads carried per outgoing migration message (1.0 before any
    /// migration): > 1 proves trains actually formed.
    pub fn threads_per_message(&self) -> f64 {
        if self.trains_out == 0 {
            return 1.0;
        }
        self.migrations_out as f64 / self.trains_out as f64
    }

    /// Fraction of RPC-shaped traffic that paid the wire (0.0 when the
    /// node exchanged no RPC messages at all).
    pub fn remote_ratio(&self) -> f64 {
        let total = self.rpc_local + self.rpc_remote;
        if total == 0 {
            return 0.0;
        }
        self.rpc_remote as f64 / total as f64
    }
}

/// Per-thread data recorded between a body finishing and the scheduler
/// reaping it: the panic message and/or the encoded return value.
#[derive(Debug, Default)]
pub(crate) struct ExitNote {
    pub value: Option<Vec<u8>>,
    pub panic_msg: Option<String>,
}

/// The per-node runtime state.
pub(crate) struct NodeCtx {
    pub node: usize,
    pub n_nodes: usize,
    pub sched: Scheduler,
    pub mgr: NodeSlotManager,
    pub ep: Endpoint,
    /// This endpoint's payload-buffer pool (cheap-clone handle; protocol
    /// encoders check their buffers out of it).
    pub pool: BufPool,
    pub out: Arc<OutputSink>,
    pub registry: Arc<Registry>,
    pub spawn_table: Arc<SpawnTable>,
    pub services: Arc<ServiceTable>,
    pub typed_services: Arc<TypedServiceTable>,
    pub nodeheap: NodeHeap,
    pub stats: Arc<NodeStats>,
    /// Threads resident on this node, by tid.
    pub threads: HashMap<u64, DescPtr>,
    /// Panic messages / return values of threads mid-exit (see [`ExitNote`]).
    pub exit_notes: HashMap<u64, ExitNote>,
    /// Ingested-but-unhandled messages, one FIFO lane per priority class
    /// ([`handlers::Class`]); the pump drains control before migration
    /// before data.
    pub inbox: [VecDeque<Message>; N_CLASSES],
    /// Green threads parked on this node, each filed under what it waits
    /// for (see [`crate::wait`]).
    pub waits: WaitTable,
    /// Spawn-bearing messages (SPAWN_KEY / RPC_SPAWN / RPC_CALL) received
    /// while the bitmap was frozen; replayed after NEG_DONE.  Never
    /// re-sent to self — a self-send is immediately deliverable, so the
    /// pump's drain loop would chase its own re-injection forever.
    pub deferred: VecDeque<Message>,
    /// Bitmap frozen by an in-flight global negotiation (paper §4.4 (a)).
    pub frozen: bool,
    /// The peer whose `NEG_BITMAP_REQ` froze us (None when the freeze is
    /// our own negotiation).  If that initiator dies it can never send
    /// `NEG_DONE`, so its death unfreezes us.
    pub frozen_by: Option<usize>,
    /// A local thread currently runs the remote-acquire protocol (trade
    /// or global negotiation); the others wait their turn.
    pub negotiating: bool,
    /// Last-known free-slot counts per node, refreshed by every
    /// piggybacked wealth hint (shared with the host for observability).
    pub peer_wealth: Arc<Vec<AtomicU64>>,
    /// Cumulative RPC-shaped messages this node's threads exchanged with
    /// each peer node (self included at `[node]`) — the node-level
    /// communication-affinity row, shared with the host for
    /// [`crate::machine::Machine::affinity`].
    pub affinity: Arc<Vec<AtomicU64>>,
    /// When each peer's gossiped load/wealth entry was last refreshed
    /// (None = never heard).  A balancer probe younger than one heartbeat
    /// interval reuses this instead of a LOAD_REQ round trip.
    pub hint_at: Vec<Option<Instant>>,
    /// Trade ids in flight, whose grant the pump adopts when the answer
    /// lands: the watermark prefetch and every demand trade, timed-out
    /// ones included (a late grant must still be adopted, or the slots the
    /// lender cleared would be stranded).
    pub prefetch_pending: HashSet<u64>,
    /// Trade id of the one in-flight watermark prefetch, if any; only its
    /// own reply re-arms the prefetcher (a late demand-trade reply must
    /// not).
    pub prefetch_inflight: Option<u64>,
    /// Peer the in-flight prefetch was sent to; its death re-arms the
    /// prefetcher immediately instead of waiting out the lost reply.
    pub prefetch_target: Option<usize>,
    /// Trade grants that arrived while the bitmap was frozen; adopted
    /// after NEG_DONE.
    pub pending_adopts: Vec<SlotRange>,
    /// Lock service state (meaningful on the current coordinator — the
    /// lowest-id live node; see [`NodeCtx::coordinator`]).
    pub lock_holder: Option<usize>,
    pub lock_queue: VecDeque<usize>,
    /// Grant embargo after *inheriting* the coordinator role.  The dead
    /// predecessor may have granted a holder whose NEG_BITMAP_REQ has not
    /// frozen us yet; granting a second holder inside that window would
    /// run two critical sections at once.  Until the instant passes (or
    /// the in-flight holder's gather freezes us, which also defers
    /// grants), the queue waits; a timer while it does
    /// ([`NodeCtx::next_timer`]).
    pub coord_settle_until: Option<Instant>,
    /// Per-(source, class) receive dedup windows, indexed
    /// `src * N_CLASSES + class`.  Chaos duplicates reuse the original's
    /// fabric sequence number, so a replay lands on an already-set bit
    /// and is dropped before any handler runs.
    pub dedup: Vec<crate::handlers::DedupWindow>,
    /// Reclaim ids already adopted (id → slots granted), so a retried
    /// NODE_RECLAIM re-acks the recorded count instead of re-adopting.
    pub done_reclaims: HashMap<u64, u32>,
    /// Threads that exited while the bitmap was frozen; released later.
    pub zombies: Vec<DescPtr>,
    /// The departures one scheduling step produced, while [`NodeCtx::depart`]
    /// groups them into trains; empty between steps.  Kept, like `arrival`,
    /// so that a hop reuses the room the last one left (see
    /// `crate::migration`).
    departing: Vec<DescPtr>,
    /// What the last arriving train unpacked to.
    pub arrival: migration::TrainOutcome,
    pub shutdown: bool,
    shutdown_acked: bool,
    /// This node was killed (power-cord semantics): the driver stops
    /// stepping it, the fabric refuses its traffic, and nothing it owned
    /// is released locally — recovery happens on the survivors.
    pub killed: bool,
    /// Peers known to be dead.  Their late (zombie) messages are dropped
    /// at dispatch, the trader and prefetcher skip them, and waits
    /// targeting them fail with `NodeFailed` instead of timing out.
    pub dead_nodes: HashSet<usize>,
    /// Monotonic source of node-unique typed-LRPC call ids.
    call_counter: u64,
    /// Spill log this node checkpoints into (None disables checkpointing).
    pub spill: Option<SpillLog>,
    /// Epoch stamped on the next checkpoint record; replay keeps the
    /// newest epoch per tid, so a checkpoint is superseded, never mutated.
    ckpt_epoch: u64,
    /// When the next periodic checkpoint is due; `None` unless both
    /// `checkpoint_every` and a spill log are set, and after SHUTDOWN.
    next_checkpoint: Option<Instant>,
    /// When the next gossip round and silence scan are due; `None` unless
    /// the detector is armed or the machine is above [`FULL_PROBE_MAX`]
    /// nodes, and after SHUTDOWN.
    next_round: Option<Instant>,
    /// Last time any message arrived from each peer (direct evidence), or
    /// a strictly-newer gossip entry about it was merged (indirect).
    last_heard: Vec<Instant>,
    /// This node's own gossip round counter (monotonic; stamped on the
    /// self-entry of every digest it originates).
    gossip_seq: u32,
    /// Newest gossip sequence number seen per origin; the merge rule is
    /// strictly-newer-wins, so relays of a corpse's stale rounds can never
    /// refresh its entry.
    peer_seq: Vec<u32>,
    /// Last gossiped resident-thread count per peer (the load hint that,
    /// while fresh, saves the balancer a probe).
    pub peer_load: Vec<u32>,
    /// Per-peer suspicion-probe rate limit.
    last_probe: Vec<Instant>,
    /// Protocol sampling RNG (node-seeded, deterministic per node).
    pub(crate) rng: crate::rng::SplitMix64,
    /// The machine's configuration, normalised once at launch
    /// ([`Pm2Config::normalized`]) and shared by every node.
    pub cfg: Arc<Pm2Config>,
}

// SAFETY: a NodeCtx is owned and driven by exactly one OS thread at a time.
unsafe impl Send for NodeCtx {}

/// Wrap a thread body so a panic records its message in the hosting node's
/// exit notes before re-raising (marcel's entry shim then marks the
/// descriptor panicked).  The note is written on whatever node the thread
/// dies on — the same node whose `finish_thread` consumes it.
pub(crate) fn instrument_body(
    tid: u64,
    f: Box<dyn FnOnce() + Send + 'static>,
) -> impl FnOnce() + Send + 'static {
    move || {
        if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
            let msg = panic_text(p.as_ref());
            with_ctx(|c| c.exit_notes.entry(tid).or_default().panic_msg = Some(msg));
            resume_unwind(p);
        }
    }
}

/// Access the node hosting the calling Marcel thread.  Never hold the
/// reference across a yield: re-enter `with_ctx` after every scheduling
/// point (the thread may have migrated to another node meanwhile).
#[inline(never)]
pub(crate) fn with_ctx<R>(f: impl FnOnce(&mut NodeCtx) -> R) -> R {
    let p = CURRENT_NODE.with(|c| c.get());
    assert!(!p.is_null(), "pm2 API called outside a PM2 machine");
    // SAFETY: single OS thread per node; the pump never runs while a Marcel
    // thread runs, so this exclusive access cannot overlap another.
    unsafe { f(&mut *p) }
}

impl NodeCtx {
    #[allow(clippy::too_many_arguments)] // one shared table per argument; a struct would just rename them
    pub(crate) fn new(
        cfg: &Arc<Pm2Config>,
        node: usize,
        area: Arc<IsoArea>,
        ep: Endpoint,
        out: Arc<OutputSink>,
        registry: Arc<Registry>,
        spawn_table: Arc<SpawnTable>,
        services: Arc<ServiceTable>,
        typed_services: Arc<TypedServiceTable>,
    ) -> Self {
        let pool = ep.pool().clone();
        // Wealth prior: an even split — refined by the first piggybacked
        // hint from each peer.
        let prior = (area.n_slots() / cfg.nodes.max(1)) as u64;
        let peer_wealth: Arc<Vec<AtomicU64>> =
            Arc::new((0..cfg.nodes).map(|_| AtomicU64::new(prior)).collect());
        let spill = cfg.spill_dir.as_ref().and_then(|dir| {
            let path = dir.join(format!("node{node}.log"));
            match SpillLog::open(&path) {
                Ok(log) => Some(log),
                Err(e) => {
                    out.printf(node, &format!("spill log disabled: {e}"));
                    None
                }
            }
        });
        let now = Instant::now();
        let gossips = cfg.failure_timeout.is_some() || cfg.nodes > FULL_PROBE_MAX;
        let next_round = (cfg.nodes >= 2 && gossips).then(|| now + cfg.heartbeat_every);
        let checkpoints = cfg.checkpoint_every.filter(|_| spill.is_some());
        let next_checkpoint = checkpoints.map(|every| now + every);
        NodeCtx {
            node,
            n_nodes: cfg.nodes,
            sched: Scheduler::new(node),
            mgr: NodeSlotManager::new(node, cfg.nodes, area, cfg.distribution, cfg.slot_cache),
            ep,
            pool,
            out,
            registry,
            spawn_table,
            services,
            typed_services,
            nodeheap: NodeHeap::default(),
            stats: Arc::new(NodeStats::default()),
            threads: HashMap::new(),
            exit_notes: HashMap::new(),
            inbox: Default::default(),
            deferred: VecDeque::new(),
            waits: WaitTable::default(),
            frozen: false,
            frozen_by: None,
            negotiating: false,
            peer_wealth,
            affinity: Arc::new((0..cfg.nodes).map(|_| AtomicU64::new(0)).collect()),
            hint_at: vec![None; cfg.nodes],
            prefetch_pending: HashSet::new(),
            prefetch_inflight: None,
            prefetch_target: None,
            pending_adopts: Vec::new(),
            lock_holder: None,
            lock_queue: VecDeque::new(),
            coord_settle_until: None,
            dedup: vec![
                crate::handlers::DedupWindow::default();
                (cfg.nodes + 1) * crate::handlers::N_CLASSES
            ],
            done_reclaims: HashMap::new(),
            zombies: Vec::new(),
            departing: Vec::new(),
            arrival: Default::default(),
            shutdown: false,
            shutdown_acked: false,
            killed: false,
            dead_nodes: HashSet::new(),
            call_counter: 0,
            spill,
            ckpt_epoch: 0,
            next_checkpoint,
            next_round,
            last_heard: vec![now; cfg.nodes],
            gossip_seq: 0,
            peer_seq: vec![0; cfg.nodes],
            peer_load: vec![0; cfg.nodes],
            last_probe: vec![now; cfg.nodes],
            rng: crate::rng::SplitMix64::new(0xC0FF_EE00 ^ (node as u64) << 17),
            cfg: Arc::clone(cfg),
        }
    }

    /// Send a declared message under its tag, encoded into a buffer from
    /// this node's pool.
    pub(crate) fn send_msg<M: Msg>(
        &mut self,
        dst: usize,
        msg: &M,
    ) -> Result<(), madeleine::NetError> {
        self.ep.send(dst, M::TAG, proto::encode(&self.pool, msg))
    }

    /// Flag the threads named in `tids` to leave for `dest` at their next
    /// scheduling point — the receiving end of a migrate command, local or
    /// remote — and return how many were accepted (resident, migratable,
    /// ready).  A dead or bogus destination accepts none: the balancer's
    /// pair fails this round instead of threads dying en route.
    pub(crate) fn request_migrations(&mut self, mut tids: Vec<u64>, dest: usize) -> u32 {
        if dest >= self.n_nodes || self.dead_nodes.contains(&dest) {
            return 0;
        }
        // Dedup so a repeated tid cannot be counted as two acceptances
        // (request_migration succeeds again on an already-flagged thread).
        tids.sort_unstable();
        tids.dedup();
        let accepted = tids.iter().filter(|tid| match self.threads.get(tid) {
            // SAFETY: descriptor resident on this node.
            Some(&d) => unsafe { self.sched.request_migration(d, dest) },
            None => false,
        });
        accepted.count() as u32
    }

    /// Adopt `ranges` granted by a lender or the host — at the thaw, when
    /// the bitmap is frozen (a §4.4 critical section must not see it
    /// change; they are re-validated then).  `false`: refused whole as
    /// out-of-area or overlapping, which costs the grant, never the node.
    pub(crate) fn adopt_grant(&mut self, ranges: &[SlotRange], what: &str) -> bool {
        if self.frozen {
            self.pending_adopts.extend_from_slice(ranges);
            return true;
        }
        let valid = self.mgr.adopt_batch(ranges);
        if !valid {
            self.out
                .printf(self.node, &format!("dropped invalid {what}"));
        }
        valid
    }

    /// Record a piggybacked free-slot count for `node`.
    pub(crate) fn set_peer_wealth(&mut self, node: usize, wealth: u64) {
        if let Some(w) = self.peer_wealth.get(node) {
            w.store(wealth, Ordering::Relaxed);
            self.stats.wealth_updates.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Account one RPC-shaped message exchanged with `peer` in the
    /// node-level affinity row and the local/remote stats counters.
    pub(crate) fn note_traffic(&mut self, peer: usize) {
        if let Some(a) = self.affinity.get(peer) {
            a.fetch_add(1, Ordering::Relaxed);
        }
        if peer == self.node {
            self.stats.rpc_local.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.rpc_remote.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Decay every resident thread's affinity table by `shift` (one
    /// balancer epoch has passed).  `shift == 0` is a no-op.
    pub(crate) fn decay_thread_affinity(&mut self, shift: u32) {
        if shift == 0 {
            return;
        }
        for &d in self.threads.values() {
            // SAFETY: resident descriptors are owned by this node's driver;
            // the pump never runs concurrently with its green threads.
            unsafe { (*d).decay_affinity(shift) };
        }
        self.stats.aff_decays.fetch_add(1, Ordering::Relaxed);
    }

    /// A gossiped load hint for `peer` younger than one heartbeat
    /// interval, if we hold one — fresh enough for a balancer round to
    /// reuse instead of paying a LOAD_REQ round trip.
    pub(crate) fn fresh_load_hint(&self, peer: usize) -> Option<u32> {
        let at = (*self.hint_at.get(peer)?)?;
        if at.elapsed() <= self.cfg.heartbeat_every {
            Some(self.peer_load[peer])
        } else {
            None
        }
    }

    /// The peer with the largest known free-slot reserve strictly above
    /// `floor`, if any.  Hints are refreshed by every trade, load reply,
    /// migrate ack and gossip digest, so a drained peer stops being asked
    /// after one refusal.
    ///
    /// Up to [`FULL_PROBE_MAX`] nodes this is the exact O(p) scan the
    /// small-machine ablations were measured with; above it the table is
    /// *sampled* (`RICH_SAMPLE` random candidates, best-of-sample) so the
    /// per-acquisition cost stops growing with the machine.
    pub(crate) fn richest_peer(&self, floor: u64) -> Option<usize> {
        if self.n_nodes <= FULL_PROBE_MAX {
            return (0..self.n_nodes)
                .filter(|&p| p != self.node && !self.dead_nodes.contains(&p))
                .map(|p| (self.peer_wealth[p].load(Ordering::Relaxed), p))
                .filter(|&(w, _)| w > floor)
                .max()
                .map(|(_, p)| p);
        }
        let mut best: Option<(u64, usize)> = None;
        for _ in 0..RICH_SAMPLE {
            let p = self.rng.below(self.n_nodes);
            if p == self.node || self.dead_nodes.contains(&p) {
                continue;
            }
            let w = self.peer_wealth[p].load(Ordering::Relaxed);
            if w > floor && best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, p));
            }
        }
        best.map(|(_, p)| p)
    }

    /// Watermark prefetch: when the reserve drops below the low
    /// watermark, top it back up to the high watermark with one
    /// asynchronous trade to the richest known peer.  Runs on the driver
    /// (never a green thread), costs O(1) per step, and never blocks —
    /// the response is consumed by the pump whenever it arrives.
    fn maybe_prefetch(&mut self) {
        if !self.cfg.slot_trade
            || self.n_nodes < 2
            || self.cfg.slot_low_watermark == 0
            || self.shutdown
            || self.frozen
            || self.prefetch_inflight.is_some()
        {
            return;
        }
        let free = self.mgr.free_slots();
        if free >= self.cfg.slot_low_watermark {
            return;
        }
        // Only ask peers that can plausibly grant (they keep their own
        // low watermark back), so a uniformly poor cluster goes quiet
        // instead of ping-ponging refusals.
        let Some(peer) = self.richest_peer(self.cfg.slot_low_watermark as u64) else {
            return;
        };
        let want = (self.cfg.slot_high_watermark - free).max(1);
        let id = self.next_call_id();
        self.prefetch_pending.insert(id);
        self.prefetch_inflight = Some(id);
        self.prefetch_target = Some(peer);
        self.stats.prefetches.fetch_add(1, Ordering::Relaxed);
        let req = proto::SlotTradeReq {
            trade_id: id,
            want: want as u32,
            min_contig: 1,
            wealth: free as u32,
        };
        let _ = self.send_msg(peer, &req);
    }

    // -- fault tolerance & epidemic dissemination ---------------------------

    /// When this node next needs a step that no message will bring, if it
    /// does: the earliest of its armed timers.  What a parking node files
    /// with the executor; [`NodeCtx::run_timers`] is the other half.
    pub(crate) fn next_timer(&self) -> Option<Instant> {
        let embargoed = !self.lock_queue.is_empty();
        let timers = [
            self.waits.next_deadline(),
            self.next_round,
            self.next_checkpoint,
            self.coord_settle_until.filter(|_| embargoed),
        ];
        timers.into_iter().flatten().min()
    }

    /// Run the duties whose instant has passed by `now` and move each on,
    /// so that [`NodeCtx::next_timer`] never names a past instant twice.
    fn run_timers(&mut self, now: Instant) {
        let due = |at: Option<Instant>| at.is_some_and(|at| at <= now);
        self.waits.expire(&self.sched, now, |n| self.ep.is_dead(n));
        if self.shutdown {
            // Shutdown drains nodes at different speeds; a node that
            // finished early is quiet, not dead.
            (self.next_round, self.next_checkpoint) = (None, None);
        }
        if due(self.next_round) {
            self.next_round = Some(now + self.cfg.heartbeat_every);
            self.gossip_round();
            if self.cfg.failure_timeout.is_some() {
                self.silence_scan(now);
            }
        }
        if due(self.next_checkpoint) {
            self.next_checkpoint = self.cfg.checkpoint_every.map(|every| now + every);
            if let Err(e) = self.checkpoint_now() {
                self.out
                    .printf(self.node, &format!("checkpoint failed: {e}"));
            }
        }
        if due(self.coord_settle_until) {
            // Nothing arrives to trigger the grant the embargo deferred.
            self.coord_settle_until = None;
            self.service_lock_queue();
        }
    }

    /// Relayed entries per digest: [`GOSSIP_RELAY`] on small machines,
    /// growing as p/8 up to [`GOSSIP_RELAY_MAX`].  Scaling the *payload*
    /// (cheap bytes) instead of the *fanout* (messages) keeps per-node
    /// message rate O(1) while the per-entry refresh interval stays well
    /// under the suspicion-probe threshold — otherwise a p = 256 machine
    /// ages most of its table past `timeout / 2` between refreshes and
    /// the detector degenerates into an all-pairs probe storm.
    fn relay_budget(&self) -> usize {
        (self.n_nodes / 8).clamp(GOSSIP_RELAY, GOSSIP_RELAY_MAX)
    }

    /// One epidemic round: bump our sequence number and push a digest —
    /// our own wealth/load claim plus up to [`relay_budget`](Self::relay_budget)
    /// relayed table entries — to [`GOSSIP_FANOUT`] random live peers.
    /// O(1) messages per node per round regardless of p; a digest reaches
    /// the whole machine in O(log p) rounds with high probability.
    fn gossip_round(&mut self) {
        self.gossip_seq += 1;
        let relay = self.relay_budget();
        let mut entries = Vec::with_capacity(1 + relay);
        entries.push(proto::GossipEntry {
            node: self.node as u32,
            seq: self.gossip_seq,
            wealth: self.mgr.free_slots() as u32,
            load: self.sched.resident() as u32,
        });
        for _ in 0..(2 * relay) {
            if entries.len() > relay {
                break;
            }
            let p = self.rng.below(self.n_nodes);
            // Relay only what we actually learned (seq 0 = never heard);
            // duplicates across draws are harmless, the merge is idempotent.
            if p == self.node || self.dead_nodes.contains(&p) || self.peer_seq[p] == 0 {
                continue;
            }
            entries.push(proto::GossipEntry {
                node: p as u32,
                seq: self.peer_seq[p],
                wealth: self.peer_wealth[p].load(Ordering::Relaxed) as u32,
                load: self.peer_load[p],
            });
        }
        let buf = proto::encode(&self.pool, &proto::Gossip { entries });
        let mut sent = 0usize;
        // The payload is refcounted, so the fanout shares one buffer.  A
        // bounded number of draws, not a scan: on a machine of corpses the
        // loop gives up instead of hunting for a live peer.
        for _ in 0..(GOSSIP_FANOUT * 4) {
            if sent >= GOSSIP_FANOUT {
                break;
            }
            let p = self.rng.below(self.n_nodes);
            if p == self.node || self.dead_nodes.contains(&p) {
                continue;
            }
            let _ = self.ep.send(p, tag::GOSSIP, buf.clone());
            sent += 1;
        }
    }

    /// Merge one epidemic digest entry.  Strictly-newer sequence numbers
    /// win; entries about nodes already declared dead are ignored (no
    /// resurrection by stale relay).  A newer sequence number is indirect
    /// *liveness evidence* — the origin cannot have produced a fresh round
    /// after dying, and a corpse's counter stops advancing, so relays of
    /// its old rounds never refresh it.  Staleness of the indirect path is
    /// bounded by the O(log p) propagation time, far below any configured
    /// `failure_timeout` (timeouts are ≥ 6× the round cadence).
    pub(crate) fn absorb_gossip(&mut self, e: proto::GossipEntry) {
        let n = e.node as usize;
        if n == self.node || n >= self.n_nodes || self.dead_nodes.contains(&n) {
            return;
        }
        if e.seq > self.peer_seq[n] {
            self.peer_seq[n] = e.seq;
            self.peer_load[n] = e.load;
            self.hint_at[n] = Some(Instant::now());
            self.set_peer_wealth(n, e.wealth as u64);
            if self.cfg.failure_timeout.is_some() {
                self.last_heard[n] = Instant::now();
            }
        }
    }

    /// The silence scan, once per round: one lap of the peer table, so
    /// detection latency is `failure_timeout` plus at most a round.  A peer
    /// silent past *half* the timeout gets a direct suspicion probe
    /// (HEARTBEAT ping byte, answered with a pong); death is declared
    /// purely on the silence timeout, never on a transport error.  At most
    /// [`SCAN_PROBES`] probes go out per lap — with normal gossip coverage
    /// suspects are rare and the cap is invisible, but if the whole table
    /// somehow goes stale at once (a long host stall, a just-launched giant
    /// machine) it bounds the probe rate at O(1) per node per round instead
    /// of O(p); the deferred suspects are reached on the next laps, well
    /// inside the timeout.
    fn silence_scan(&mut self, now: Instant) {
        let timeout = self.cfg.failure_timeout.expect("detector armed");
        let (me, n) = (self.node, self.n_nodes);
        let mut probes = 0usize;
        for p in (1..n).map(|i| (me + i) % n) {
            if self.dead_nodes.contains(&p) {
                continue;
            }
            let age = now.duration_since(self.last_heard[p]);
            if age > timeout {
                self.declare_dead(p);
            } else if age >= timeout / 2
                && probes < SCAN_PROBES
                && now.duration_since(self.last_probe[p]) >= self.cfg.heartbeat_every
            {
                self.last_probe[p] = now;
                probes += 1;
                let _ = self.ep.send(p, tag::HEARTBEAT, vec![1u8]);
            }
        }
    }

    /// Silence verdict (or first-hand observation): mark `dead` on the
    /// fabric, announce it to every survivor and the host, and purge it
    /// locally.  Idempotent — duplicate verdicts from concurrent
    /// detectors collapse in `note_node_dead`.
    pub(crate) fn declare_dead(&mut self, dead: usize) {
        if dead == self.node || dead >= self.n_nodes || self.dead_nodes.contains(&dead) {
            return;
        }
        self.ep.mark_dead(dead);
        let certificate = proto::NodeDead { node: dead as u32 };
        let _ = self
            .ep
            .broadcast(tag::NODE_DEAD, proto::encode(&self.pool, &certificate));
        self.note_node_dead(dead);
    }

    /// Absorb the fact that `dead` is gone: refuse its future traffic,
    /// stop routing anything toward it, and fail every local wait aimed
    /// at it.  Safe to call any number of times.
    pub(crate) fn note_node_dead(&mut self, dead: usize) {
        if dead == self.node || dead >= self.n_nodes || !self.dead_nodes.insert(dead) {
            return;
        }
        self.ep.mark_dead(dead);
        // A corpse has no wealth: the trader and balancer stop asking.
        self.set_peer_wealth(dead, 0);
        // Re-arm the prefetcher if its in-flight trade died with the peer.
        if self.prefetch_target == Some(dead) {
            if let Some(id) = self.prefetch_inflight.take() {
                self.prefetch_pending.remove(&id);
            }
            self.prefetch_target = None;
        }
        // Green threads waiting on the corpse resolve now (typed), not at
        // their reply deadline.
        self.waits.fail_peer(&self.sched, dead);
        // Lock service: a corpse can neither hold nor want the
        // global-negotiation lock.
        self.lock_queue.retain(|&w| w != dead);
        if self.lock_holder == Some(dead) {
            self.lock_holder = None;
        }
        // Did this death hand us the coordinator role?  The predecessor
        // may have granted a holder whose gather has not frozen us yet;
        // embargo grants briefly so that holder's critical section can
        // assert itself before we would start a second one.
        if dead < self.node && self.is_coordinator() {
            let settle = Duration::from_millis(50).min(self.cfg.reply_deadline / 4);
            self.coord_settle_until = Some(Instant::now() + settle);
        }
        // If the dead node froze our bitmap as a negotiation initiator it
        // can never send NEG_DONE; unfreeze, or this node wedges forever.
        if self.frozen && self.frozen_by == Some(dead) {
            self.thaw();
        }
        self.service_lock_queue();
    }

    /// Leave the critical section that froze the bitmap and wake the
    /// threads waiting for that; the next step replays what the freeze
    /// deferred (spawn-class messages, trade adoptions, zombies).
    pub(crate) fn thaw(&mut self) {
        self.frozen = false;
        self.frozen_by = None;
        while self.waits.wake(&self.sched, For::Thaw) {}
    }

    /// The §4.4 lock-service coordinator: the lowest-id node not known to
    /// be dead.  Resolved from the fabric's death certificates (monotonic
    /// and machine-wide consistent) merged with this node's own
    /// `dead_nodes` set, so every survivor converges on the same answer
    /// without a ballot — the rank is the node id, and the election *is*
    /// the death announcement.
    pub(crate) fn coordinator(&self) -> usize {
        (0..self.n_nodes)
            .find(|&n| !self.dead_nodes.contains(&n) && !self.ep.is_dead(n))
            .unwrap_or(0)
    }

    /// Whether this node currently serves the §4.4 lock.
    pub(crate) fn is_coordinator(&self) -> bool {
        self.coordinator() == self.node
    }

    /// Grant the lock to the queue head if the service is free to do so:
    /// we are the coordinator, no holder is out, no settle embargo is in
    /// force, and no in-flight critical section has our bitmap frozen.
    /// Called from every event that could unblock a grant (request,
    /// release, NEG_DONE, a death, the embargo's expiry).
    pub(crate) fn service_lock_queue(&mut self) {
        if self.lock_holder.is_some()
            || self.lock_queue.is_empty()
            || self.frozen
            || !self.is_coordinator()
        {
            return;
        }
        if let Some(until) = self.coord_settle_until {
            if Instant::now() < until {
                return;
            }
            self.coord_settle_until = None;
        }
        if let Some(next) = self.lock_queue.pop_front() {
            self.lock_holder = Some(next);
            let _ = self.ep.send(next, tag::NEG_LOCK_GRANT, Vec::new());
        }
    }

    /// Checkpoint every migratable, currently-ready thread to the spill
    /// log under a fresh epoch.  The pack is a *snapshot* — no slots are
    /// surrendered, the threads keep running — so a checkpoint is
    /// superseded, never mutated: the replayer simply keeps the newest
    /// epoch per tid.  Returns the number of thread images written.
    pub(crate) fn checkpoint_now(&mut self) -> crate::error::Result<u32> {
        if self.spill.is_none() || self.frozen {
            return Ok(0);
        }
        let ds: Vec<DescPtr> = self
            .threads
            .values()
            .copied()
            .filter(|&d| unsafe {
                (*d).thread_state() == ThreadState::Ready
                    && (*d).flags & marcel::thread::flags::MIGRATABLE != 0
            })
            .collect();
        if ds.is_empty() {
            return Ok(0);
        }
        self.ckpt_epoch += 1;
        // SAFETY: every snapshot thread is Ready and therefore frozen from
        // the driver's point of view — the pump never runs while a green
        // thread runs.
        let buf = unsafe {
            migration::pack_threads(&ds, &self.mgr, self.cfg.pack_full_slots, &self.pool, &[])?
        };
        let epoch = self.ckpt_epoch;
        let log = self.spill.as_mut().expect("spill checked above");
        log.append(epoch, &buf)?;
        // Checkpointing grows the log without bound (every epoch re-writes
        // every live thread); compaction rewrites it down to the newest
        // record per tid once enough superseded frames have piled up.
        if log.compact_due() {
            if let Err(e) = log.compact() {
                self.out
                    .printf(self.node, &format!("spill compaction failed: {e}"));
            }
        }
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.stats
            .checkpoint_threads
            .fetch_add(ds.len() as u64, Ordering::Relaxed);
        Ok(ds.len() as u32)
    }

    /// Next node-unique typed-LRPC call id (node in the top bits, so ids
    /// never collide across concurrent callers on different nodes).
    pub(crate) fn next_call_id(&mut self) -> u64 {
        self.call_counter += 1;
        ((self.node as u64) << 48) | self.call_counter
    }

    /// Record `tid`'s encoded return value for pickup in `finish_thread`.
    pub(crate) fn note_exit_value(&mut self, tid: u64, bytes: Vec<u8>) {
        self.exit_notes.entry(tid).or_default().value = Some(bytes);
    }

    /// Bind this node to the calling OS thread (marcel + pm2 TLS).
    pub(crate) fn activate(&mut self) {
        self.sched.activate();
        CURRENT_NODE.with(|c| c.set(self as *mut NodeCtx));
    }

    /// Pull every deliverable message off the endpoint into its priority
    /// lane.  Wire time is charged here (receiver-clocked), exactly as the
    /// old drain did.
    fn ingest(&mut self) {
        while let Some(m) = self.ep.try_recv() {
            if self.cfg.failure_timeout.is_some() && m.src < self.n_nodes {
                // Any arrival is a liveness proof; the detector only fires
                // on total silence.
                self.last_heard[m.src] = Instant::now();
            }
            let class = proto::classify(m.tag);
            // Dedup guard: drop chaos duplicates (same fabric seq as a
            // message this window already admitted) before any handler
            // can double-apply them — a replayed SLOT_TRADE_RESP must not
            // adopt its slots twice.  It runs here, once per fabric
            // arrival, because dispatch sees some messages twice (those
            // deferred during a freeze are replayed after NEG_DONE).
            // Self-sends skip the window: the fabric never faults them.
            let window = self.dedup.get_mut(m.src * N_CLASSES + class as usize);
            if m.src != self.node && window.is_some_and(|w| !w.admit(m.seq)) {
                self.stats.dup_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.inbox[class as usize].push_back(m);
        }
    }

    /// Highest-priority pending message, if any (control > migration >
    /// data; FIFO within a class).
    fn next_message(&mut self) -> Option<Message> {
        self.inbox.iter_mut().find_map(|lane| lane.pop_front())
    }

    /// Any ingested message not yet handled?
    pub(crate) fn inbox_pending(&self) -> bool {
        self.inbox.iter().any(|lane| !lane.is_empty())
    }

    /// Ingest and handle pending messages — control class first, then
    /// migration, then data, at most `pump_budget` of them — and return
    /// whether any were handled.  Budget leftovers stay queued for the
    /// next pump, so one flooded lane cannot monopolize the driver either.
    pub(crate) fn pump(&mut self) -> bool {
        self.ingest();
        let mut handled = 0usize;
        while handled < self.cfg.pump_budget {
            let Some(m) = self.next_message() else { break };
            handlers::dispatch(self, m);
            handled += 1;
            if self.killed {
                // The cord was pulled mid-pump: everything still queued
                // dies with the node.
                break;
            }
            // Handling may have produced immediately-deliverable traffic
            // (self-sends are free): pick it up so priority holds across
            // everything currently deliverable.
            self.ingest();
        }
        handled > 0
    }

    /// One scheduling step: pump, then run one thread quantum.  Returns true
    /// if any work was done.
    pub(crate) fn step(&mut self) -> bool {
        // Fenced: a node its peers (or the host) declared dead is dead, even
        // if the verdict was a false suspicion or the minority side of a
        // partition — the fabric already refuses its traffic and recovery
        // may re-adopt its checkpoint, so running on would fork its threads.
        // `mark_dead` rings this node's doorbell, so a parked driver sees it.
        self.killed |= self.ep.is_dead(self.node);
        if self.killed {
            return false;
        }
        self.stats.steps.fetch_add(1, Ordering::Relaxed);
        let pumped = self.pump();
        if self.killed {
            return false;
        }
        // One clock read, and none with nothing armed.
        if self.next_timer().is_some() {
            self.run_timers(Instant::now());
        }
        if !self.frozen && !self.zombies.is_empty() {
            self.reap_zombies();
        }
        if !self.frozen && !self.pending_adopts.is_empty() {
            // Grants that landed during a critical section: the lender
            // already cleared its bits, so adoption completes the transfer
            // the moment the freeze lifts.
            let ranges = std::mem::take(&mut self.pending_adopts);
            self.adopt_grant(&ranges, "deferred slot grant");
        }
        if !self.frozen && !self.deferred.is_empty() {
            // Replay spawns parked during the critical section.  Handling
            // them cannot re-freeze the bitmap, so this drains fully.
            let deferred = std::mem::take(&mut self.deferred);
            for m in deferred {
                handlers::dispatch(self, m);
            }
        }
        self.maybe_prefetch();
        self.activate();
        match self.sched.run_one() {
            Some(outcome) => {
                self.handle_outcome(outcome);
                true
            }
            None => pumped,
        }
    }

    /// Ready to stop?  (Also false while any ingested message awaits its
    /// budget slice — an unhandled SPAWN_KEY is still pending work.)
    pub(crate) fn done(&self) -> bool {
        self.shutdown
            && self.sched.resident() == 0
            && self.zombies.is_empty()
            && self.deferred.is_empty()
            && !self.inbox_pending()
    }

    /// Drained *and* acknowledged: the driver may exit.  A killed node is
    /// trivially finished — nothing it could say would be heard.
    pub(crate) fn finished(&self) -> bool {
        self.killed || (self.done() && self.shutdown_acked)
    }

    /// Send the one-time shutdown acknowledgement once drained.
    pub(crate) fn maybe_ack_shutdown(&mut self) {
        if self.killed {
            return;
        }
        if self.done() && !self.shutdown_acked {
            self.shutdown_acked = true;
            // The host's control endpoint is the fabric id after the nodes'.
            let _ = self.ep.send(self.n_nodes, tag::SHUTDOWN_ACK, Vec::new());
        }
    }

    // -- outcome handling ---------------------------------------------------

    fn handle_outcome(&mut self, outcome: RunOutcome) {
        match outcome {
            // SAFETY: `d` came from this scheduler's run_one.
            RunOutcome::Yielded(d) => unsafe { self.sched.requeue(d) },
            RunOutcome::Exited(d) => self.finish_thread(d),
            // Either way the descriptor names its destination itself.
            RunOutcome::MigrateSelf(d, _) | RunOutcome::PreemptMigrate(d, _) => self.depart(d),
            // Parked in a `wait::Wait`: whatever completes its entry in
            // the wait table unblocks it.
            RunOutcome::Blocked(_) => {}
        }
    }

    fn finish_thread(&mut self, d: DescPtr) {
        // SAFETY: the thread has exited; we are the only owner now.
        unsafe {
            let tid = (*d).tid;
            let panicked = (*d).panicked == 1;
            let home = (*d).home_node as usize;
            let detached = (*d).flags & marcel::thread::flags::DETACHED != 0;
            self.sched.note_gone();
            self.threads.remove(&tid);
            self.nodeheap.release_thread(tid);
            if self.frozen {
                // Slot release would mutate the bitmap inside a system-wide
                // critical section; defer ("no slot management" rule, §4.4).
                self.zombies.push(d);
            } else {
                marcel::release_thread_resources(d, &mut self.mgr)
                    .expect("releasing thread resources");
            }
            let note = self.exit_notes.remove(&tid).unwrap_or_default();
            if detached && !panicked {
                // Nobody holds this tid, so nobody can ask how it ended:
                // a clean exit is forgotten, here and at home.
                self.registry.clear_location(tid);
            } else {
                let exit = ThreadExit {
                    tid,
                    panicked,
                    died_on: self.node,
                    panic_msg: note.panic_msg,
                    value: note.value,
                    failed_node: None,
                };
                if home != self.node {
                    let _ = self.send_msg(home, &exit);
                }
                self.registry.complete(exit);
            }
        }
        self.maybe_ack_shutdown();
    }

    fn reap_zombies(&mut self) {
        for d in std::mem::take(&mut self.zombies) {
            // SAFETY: deferred exited threads; exclusively ours.
            unsafe {
                marcel::release_thread_resources(d, &mut self.mgr)
                    .expect("releasing deferred thread resources");
            }
        }
        self.maybe_ack_shutdown();
    }

    /// Handle a departure outcome: stage the departing thread and — the
    /// group-migration train path — sweep every *other* ready thread
    /// already flagged for preemptive migration out of the scheduler, so
    /// same-destination departures produced by one pump drain (a batched
    /// `MIGRATE_CMD`, say) leave in one wire message each instead of k.
    fn depart(&mut self, d: DescPtr) {
        let mut staged = std::mem::take(&mut self.departing);
        staged.push(d);
        if self.cfg.max_train > 1 {
            self.sched
                .take_migrating(self.cfg.max_train - 1, &mut staged);
        }
        staged.retain(|&d| self.stage_departure(d));
        // SAFETY: every staged thread is resident, frozen and unsent.
        let dest_of = |d: DescPtr| unsafe { (*d).migrate_dest };
        // One train per destination, in the order the destinations first
        // appear, each in queue order: its threads are moved to the front
        // of what is still unsent.
        let mut unsent = &mut staged[..];
        while let Some(&first) = unsent.first() {
            let dest = dest_of(first);
            let mut n = 1;
            for i in 1..unsent.len() {
                if dest_of(unsent[i]) == dest {
                    unsent[n..=i].rotate_right(1);
                    n += 1;
                }
            }
            let (train, rest) = unsent.split_at_mut(n);
            self.send_train(dest as usize, train);
            unsent = rest;
        }
        staged.clear();
        self.departing = staged;
        self.maybe_ack_shutdown();
    }

    /// Validate one departure: true if `d` may leave for the node it names
    /// and so stays staged; otherwise it goes back on the run queue.
    fn stage_departure(&mut self, d: DescPtr) -> bool {
        // SAFETY: `d` is a frozen thread resident here.
        let dest = unsafe { (*d).migrate_dest } as usize;
        if dest == self.node || dest >= self.n_nodes || self.dead_nodes.contains(&dest) {
            // Self-migration is a no-op; bogus or dead destinations are
            // dropped back into the run queue rather than losing the
            // thread (a balancer plan can race a node death).
            unsafe {
                (*d).migrate_dest = -1;
                (*d).state = ThreadState::Ready as u32;
            }
            // SAFETY: `d` is resident here and was just marked Ready.
            unsafe { self.sched.requeue(d) };
            return false;
        }
        true
    }

    /// Freeze, pack, and ship one train of threads to `dest`.
    fn send_train(&mut self, dest: usize, ds: &[DescPtr]) {
        // SAFETY: every thread is frozen (Migrating or tagged-Ready) and
        // was removed from the scheduler's queues.
        unsafe {
            for &d in ds {
                let tid = (*d).tid;
                (*d).state = ThreadState::Migrating as u32;
                self.sched.note_gone();
                self.threads.remove(&tid);
                // Fig. 4/9: node-local malloc data does NOT follow the thread.
                self.nodeheap.poison_departed(tid);
            }
            let t0 = Instant::now();
            let train = migration::pack_threads(
                ds,
                &self.mgr,
                self.cfg.pack_full_slots,
                &self.pool,
                &self.cfg.fault_corrupt_pack,
            )
            .expect("packing migration train");
            migration::surrender_threads(ds, &mut self.mgr).expect("unmapping the departed train");
            self.stats
                .migration_pack_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.stats
                .migrations_out
                .fetch_add(ds.len() as u64, Ordering::Relaxed);
            self.stats.trains_out.fetch_add(1, Ordering::Relaxed);
            self.stats
                .migration_bytes_out
                .fetch_add(train.len() as u64, Ordering::Relaxed);
            let sent = self
                .ep
                .send_batched(dest, tag::MIGRATION, train.clone(), ds.len());
            if let Err(e) = sent {
                // An endpoint died between staging and shipping.  The
                // slots were already surrendered with the image, so
                // the threads are gone with the train; complete them as
                // failed-on-`dest` (first-write-wins — a join never
                // hangs) instead of panicking the survivor.  The
                // descriptors are unmapped: the train's table names them.
                self.stats
                    .migrations_failed
                    .fetch_add(ds.len() as u64, Ordering::Relaxed);
                let lost = migration::train_groups(&train).expect("the table just written");
                for (tid, _) in lost {
                    self.registry
                        .complete_if_absent(ThreadExit::node_failed(tid, dest));
                }
                if matches!(e, madeleine::NetError::NodeDead(n) if n == dest) {
                    self.note_node_dead(dest);
                }
            }
        }
    }

    // -- spawn plumbing (shared by the spawn/rpc handlers and spawn_local) --

    /// Spawn with extra marcel descriptor flags (`flags::CONTROL` puts a
    /// protocol handler into the scheduler's control lane from birth).
    pub(crate) fn try_spawn_boxed(
        &mut self,
        tid: u64,
        extra_flags: u32,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> Result<(), marcel::SpawnError> {
        let d = self.sched.spawn_with_tid_flags(
            &mut self.mgr,
            tid,
            extra_flags,
            instrument_body(tid, f),
        )?;
        self.finish_spawn(tid, d);
        Ok(())
    }

    /// Spawn from a green thread already running on this node.
    pub(crate) fn spawn_local<F>(&mut self, f: F) -> Result<u64, marcel::SpawnError>
    where
        F: FnOnce() + Send + 'static,
    {
        let tid = self.sched.next_tid();
        let d = self
            .sched
            .spawn_with_tid(&mut self.mgr, tid, instrument_body(tid, Box::new(f)))?;
        self.finish_spawn(tid, d);
        Ok(tid)
    }

    fn finish_spawn(&mut self, tid: u64, d: DescPtr) {
        // Apply the machine's fit policy (the heap is still empty here).
        // SAFETY: freshly spawned descriptor, not yet run.
        unsafe {
            let heap = std::ptr::addr_of_mut!((*d).heap);
            isomalloc::heap::heap_init(heap, self.cfg.fit, HEAP_TRIM);
        }
        self.threads.insert(tid, d);
        self.registry.set_location(tid, self.node);
        self.stats.spawns.fetch_add(1, Ordering::Relaxed);
    }
}
