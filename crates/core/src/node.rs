//! The per-node runtime: an event-driven dispatch core.
//!
//! One `NodeCtx` is the reproduction of the paper's "single (heavy) process
//! running at each node" (§2): it owns the node's slot bitmap, its thread
//! scheduler, its private heap and its network endpoint.  Exactly one OS
//! thread drives it *at a time*: the node is a state machine multiplexed
//! onto the `executor` worker pool (a rung doorbell queues the node; a
//! worker locks it, steps it up to a fairness budget, and parks it
//! again).  With one worker a single OS thread runs every node and every
//! green thread, in ready-queue (ring) order — a node woken by another's
//! driver code runs next — a function of the message history when the
//! host is quiet.  Marcel threads and the message pump
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
//! * **In-order pump** — `NodeCtx::pump` handles messages in the order
//!   the node's links delivered them (the fabric's per-link FIFO), at most
//!   [`PUMP_BUDGET`] per step; leftovers stay in the endpoint's inbox,
//!   which `NodeCtx::quiet` reads, so a flood costs its node steps but
//!   never reorders what a handler sees.
//! * **Handler dispatch table** — the per-tag protocol logic lives in the
//!   `handlers` module tree (`spawn`/`rpc`, `migration`,
//!   `negotiation`, `control`), entered through
//!   `handlers::dispatch`; `node.rs` itself is only the dispatch
//!   core: scheduler interleaving, thread lifecycle, and the pump.
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
//! runs those duties once their instant has passed.  The node reads the
//! clock through one door, `NodeCtx::now` (counted in
//! [`NodeStats::clock_reads`]), and rarely: while a timer is armed a busy
//! node runs its timers one step in [`CLOCK_EVERY`], and an idle one runs
//! them once before it parks, so the instant it files is current.  With
//! nothing armed — the default — a step reads no clock and a quiet node is
//! never stepped.
//!
//! ## Gossip-scale protocols
//!
//! Per-node protocol cost must stay (amortized) O(1) messages in the node
//! count or p = 256 machines drown in their own bookkeeping, so everything
//! that was all-pairs is now epidemic or sampled:
//!
//! * **One digest** ([`crate::proto::Gossip`]) carries wealth, load and
//!   liveness: once per `heartbeat_every` each node bumps its own sequence
//!   number and pushes a digest to [`GOSSIP_FANOUT`] distinct random live
//!   peers: O(1) messages per node per round.  With the detector armed the
//!   digest is its whole table — its own free-slot and resident-thread
//!   counts plus its newest entry for every live peer it has heard from,
//!   O(p) bytes (16 B an entry, ≈ 4 KB at p = 256), which the receiver pays
//!   for in wire time — and a sequence number reaches the whole machine in
//!   O(log p) rounds.  Without the detector (above `FULL_PROBE_MAX` nodes)
//!   the digest is the node's own entry alone.
//! * **The gossip detector** is van Renesse, Minsky & Hayden's (Middleware
//!   '98): a peer is dead once its sequence number has stopped moving for
//!   `failure_timeout`, counted in this node's own rounds.  Its one datum
//!   is `advanced_at`, the round at which each peer's number last strictly
//!   advanced; the verdict loop reads it once per round, so it needs no
//!   clock, and a transport error never declares a death.
//! * **Sampling**: `richest_peer` draws a random sample above
//!   `FULL_PROBE_MAX` nodes (power-of-two-choices style) instead of
//!   scanning everyone.
//!
//! The remaining O(p) structures are deliberate: the armed digest's bytes,
//! the `peer_wealth` / `peer_seq` / `advanced_at` tables (one word-ish per
//! peer, a few KB at p = 256), the walk that builds a digest and judges
//! silence once per round, broadcast fan-out on rare machine-wide events
//! (NODE_DEAD, SHUTDOWN), and the §4.4 all-peer bitmap gather, the
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

use isoaddr::{Deal, IsoArea, NodeSlotManager, SlotRange};
use madeleine::{BufPool, Endpoint, Message};
use marcel::{DescPtr, RunOutcome, Scheduler, ThreadState};

use crate::config::Pm2Config;
use crate::executor;
use crate::handlers;
use crate::migration;
use crate::nodeheap::NodeHeap;
use crate::output::OutputSink;
use crate::proto::{self, tag, Msg};
use crate::registry::{Registry, SpawnTable, ThreadExit, TidMap};
use crate::service::{panic_text, ErasedHandler, ServiceTable};
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
/// Distinct live peers a gossip round pushes the digest to (fewer only
/// when fewer are alive).
pub const GOSSIP_FANOUT: usize = 2;
/// Candidates drawn by the sampled `richest_peer` on large machines.
const RICH_SAMPLE: usize = 16;
/// Most messages one pump handles before the node runs a thread quantum:
/// a flood of them costs its node steps, each bounded, and the executor's
/// `FAIRNESS` puts a flooded node behind the others between dispatches.
pub const PUMP_BUDGET: usize = 64;
/// A busy node with a timer armed runs its timers — and so reads the clock
/// — one step in this many, counted on its own `steps`; an idle one runs
/// them before it parks.  A deadline is therefore late by at most this many
/// busy steps (see `crate::wait`).
pub const CLOCK_EVERY: u64 = 64;

counters! {
    /// Live runtime counters for one node (shared with the host).
    pub struct NodeStats;
    /// Plain snapshot of [`NodeStats`].
    pub struct NodeStatsSnapshot {
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
        ///
        /// Sampled: one outgoing train in 64 (the node's 64th, 128th, …)
        /// is timed and its time added 64 times, so `migration_pack_ns /
        /// migrations_out` is still the mean per thread, over
        /// `trains_out / 64` samples.
        migration_pack_ns,
        /// …modelled wire nanoseconds charged for arriving migrations…
        migration_wire_ns,
        /// …and unpacking them (adopt & copy) by the destination — sampled
        /// like `migration_pack_ns`: one arriving train in 64, counted 64
        /// times, so the mean per thread is `migration_unpack_ns /
        /// migrations_in`.
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
        /// Messages dropped by a handler as malformed: a payload that does not
        /// decode or names something this node does not have, or a tag with
        /// no handler (see `handlers`).  Zero on a healthy machine.
        malformed_dropped,
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
        /// wait open for them (an ack after its caller timed out).
        replies_unclaimed,
        /// Clock reads, each one through the node's one clock door: its
        /// timer runs (one busy step in [`CLOCK_EVERY`] and once per park
        /// while a timer is armed), the sampled stage clocks, and trade and
        /// negotiation timings.  With nothing armed a step reads none.
        clock_reads,
        /// Gossip rounds run: each sends one digest to each of
        /// [`GOSSIP_FANOUT`] distinct live peers, and nothing else.
        gossip_rounds,
    }
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

/// A slot transfer owed to a node ([`NodeCtx::owed`]).
pub(crate) enum Owed {
    /// A trade's grant; `prefetch` marks the watermark prefetch's.
    Trade { prefetch: bool },
    /// The ranges a §4.4 buy bought from one seller: the buyer adopts
    /// what it bought, not what the ack says.
    Buy(Vec<SlotRange>),
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
    /// The services this node has served, copied out of `services` on
    /// first use: a service cannot be registered twice, so the copy never
    /// goes stale, and a call takes no lock to find it.
    served: TidMap<u32, ErasedHandler>,
    pub nodeheap: NodeHeap,
    pub stats: Arc<NodeStats>,
    /// Threads resident on this node, by tid.
    pub threads: TidMap<u64, DescPtr>,
    /// Panic messages / return values of threads mid-exit (see [`ExitNote`]).
    pub exit_notes: TidMap<u64, ExitNote>,
    /// Green threads parked on this node, each filed under what it waits
    /// for (see [`crate::wait`]).
    pub waits: WaitTable,
    /// `SPAWN_KEY`s received while the bitmap was frozen; the thaw
    /// dispatches them again.  Never re-sent to self — a self-send is
    /// immediately deliverable, so the pump's drain loop would chase its
    /// own re-injection forever.
    pub deferred: VecDeque<Message>,
    /// LRPCs waiting for the node's drainer (`handlers::spawn`).
    pub calls: VecDeque<handlers::spawn::Call>,
    /// The thread serving `calls` in the quantum it is in, if any.
    pub drainer: Option<u64>,
    /// The §4.4 sections that hold this node's bitmap frozen (paper §4.4
    /// (a)): each initiator whose `NEG_BITMAP_REQ` this node answered and
    /// whose `NEG_DONE` has not arrived, and this node itself during its
    /// own section.  Per-link FIFO pairs a request with its `NEG_DONE`, so
    /// a stale section's `NEG_DONE` removes only its own initiator; an
    /// initiator's death removes it too (it can never send `NEG_DONE`).
    /// The bitmap is frozen while the set is non-empty (`frozen()`).
    pub freezers: Vec<usize>,
    /// A local thread currently runs the remote-acquire protocol (trade
    /// or global negotiation); the others wait their turn.
    pub negotiating: bool,
    /// Last-known free-slot counts per node, refreshed by every
    /// piggybacked wealth hint (shared with the host for observability).
    pub peer_wealth: Arc<Vec<AtomicU64>>,
    /// The slot transfers owed to this node, by `(trade id or §4.4 round,
    /// lender or seller)`: filed before the request goes out, removed when
    /// the answer lands (the pump adopts what it carries, waited for or
    /// not) or the peer dies.
    pub owed: HashMap<(u64, usize), Owed>,
    /// Ranges whose message landed while the bitmap was frozen; the thaw
    /// that ends the last section adopts them.
    pub pending_adopts: Vec<(Vec<SlotRange>, Deal)>,
    /// Lock service state (meaningful on the current coordinator — the
    /// lowest-id live node; see [`NodeCtx::coordinator`]): the holder,
    /// and the waiting requesters with the round each grant must name.
    pub lock_holder: Option<usize>,
    pub lock_queue: VecDeque<(usize, u64)>,
    /// Grant embargo after *inheriting* the coordinator role.  The dead
    /// predecessor may have granted a holder whose NEG_BITMAP_REQ has not
    /// frozen us yet; granting a second holder inside that window would
    /// run two critical sections at once.  Until the instant passes (or
    /// the in-flight holder's gather freezes us, which also defers
    /// grants), the queue waits; a timer while it does
    /// ([`NodeCtx::next_timer`]).
    pub coord_settle_until: Option<Instant>,
    /// Threads that exited while the bitmap was frozen; the thaw releases
    /// their slots.
    pub zombies: Vec<DescPtr>,
    /// The departures one scheduling step produced, while [`NodeCtx::depart`]
    /// groups them into trains; empty between steps.  Kept, like `arrival`,
    /// so that a hop reuses the room the last one left (see
    /// `crate::migration`).
    departing: Vec<DescPtr>,
    /// The tids of the train [`NodeCtx::send_train`] is shipping, for its
    /// failure path to name once the descriptors are unmapped; kept, like
    /// `departing`, so a hop reuses its room.
    train_tids: Vec<u64>,
    /// What the last arriving train unpacked to.
    pub arrival: migration::TrainOutcome,
    pub shutdown: bool,
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
    /// When the next gossip round (and with the detector armed, its
    /// verdicts) is due; `None` unless the detector is armed or the machine
    /// is above [`FULL_PROBE_MAX`] nodes, and after SHUTDOWN.
    next_round: Option<Instant>,
    /// `failure_timeout` in this node's own rounds, rounded up; `None`
    /// when the detector is not armed.
    timeout_rounds: Option<u32>,
    /// This node's own gossip round counter (monotonic; stamped on the
    /// self-entry of every digest it originates) — the detector's clock.
    gossip_seq: u32,
    /// Newest gossip sequence number seen per origin; the merge rule is
    /// strictly-newer-wins, so relays of a corpse's stale rounds can never
    /// refresh its entry.
    peer_seq: Vec<u32>,
    /// The detector's one datum: the value of `gossip_seq` when each peer's
    /// `peer_seq` last strictly advanced (0 until it first does).
    advanced_at: Vec<u32>,
    /// Last gossiped resident-thread count per peer (the load hint that,
    /// while fresh, saves the balancer a probe).
    pub peer_load: Vec<u32>,
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
    f: impl FnOnce() + Send + 'static,
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
        let every = cfg.heartbeat_every.as_nanos().max(1);
        let timeout_rounds = cfg
            .failure_timeout
            .map(|t| t.as_nanos().div_ceil(every).min(u32::MAX as u128) as u32);
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
            served: TidMap::default(),
            nodeheap: NodeHeap::default(),
            stats: Arc::new(NodeStats::default()),
            threads: TidMap::default(),
            exit_notes: TidMap::default(),
            deferred: VecDeque::new(),
            calls: VecDeque::new(),
            drainer: None,
            waits: WaitTable::default(),
            freezers: Vec::new(),
            negotiating: false,
            peer_wealth,
            owed: HashMap::new(),
            pending_adopts: Vec::new(),
            lock_holder: None,
            lock_queue: VecDeque::new(),
            coord_settle_until: None,
            zombies: Vec::new(),
            departing: Vec::new(),
            train_tids: Vec::new(),
            arrival: Default::default(),
            shutdown: false,
            killed: false,
            dead_nodes: HashSet::new(),
            call_counter: 0,
            spill,
            ckpt_epoch: 0,
            next_checkpoint,
            next_round,
            timeout_rounds,
            gossip_seq: 0,
            peer_seq: vec![0; cfg.nodes],
            advanced_at: vec![0; cfg.nodes],
            peer_load: vec![0; cfg.nodes],
            rng: crate::rng::SplitMix64::new(0xC0FF_EE00 ^ (node as u64) << 17),
            cfg: Arc::clone(cfg),
        }
    }

    /// The time.  Every clock read of the node's own goes through here, so
    /// [`NodeStats::clock_reads`] counts them all.
    pub(crate) fn now(&self) -> Instant {
        self.stats.clock_reads.add(1);
        Instant::now()
    }

    /// The handler of service `id`, if one is registered: from this node's
    /// copy, filled from the machine's table on first use.
    pub(crate) fn service(&mut self, id: u32) -> Option<ErasedHandler> {
        if let Some(h) = self.served.get(&id) {
            return Some(Arc::clone(h));
        }
        let h = self.services.get(id)?;
        self.served.insert(id, Arc::clone(&h));
        Some(h)
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

    /// Adopt `ranges` another node gave this one — a trade's lender, a
    /// §4.4 seller or the host — when the message carrying them lands; a
    /// frozen bitmap adopts them at the thaw.  `false`: refused whole as
    /// out-of-area or overlapping, which costs the grant (counted as
    /// malformed), never the node.
    pub(crate) fn adopt_grant(&mut self, ranges: &[SlotRange], deal: Deal) -> bool {
        if self.frozen() {
            self.pending_adopts.push((ranges.to_vec(), deal));
            return true;
        }
        let valid = self.mgr.adopt_batch(ranges, deal);
        if !valid {
            handlers::drop_malformed(self);
        }
        valid
    }

    /// Record a piggybacked free-slot count for `node`.
    pub(crate) fn set_peer_wealth(&mut self, node: usize, wealth: u64) {
        if let Some(w) = self.peer_wealth.get(node) {
            w.store(wealth, Ordering::Relaxed);
            self.stats.wealth_updates.add(1);
        }
    }

    /// Account one RPC-shaped message exchanged with `peer` in the
    /// local/remote stats counters.
    pub(crate) fn note_traffic(&mut self, peer: usize) {
        if peer == self.node {
            self.stats.rpc_local.add(1);
        } else {
            self.stats.rpc_remote.add(1);
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
        self.stats.aff_decays.add(1);
    }

    /// The gossiped load hint for `peer`, if its entry advanced in this
    /// round or the previous one (so it is under two rounds old) — fresh
    /// enough for a balancer round to reuse instead of paying a LOAD_REQ
    /// round trip.
    pub(crate) fn fresh_load_hint(&self, peer: usize) -> Option<u32> {
        let heard = *self.peer_seq.get(peer)? > 0;
        let age = self.gossip_seq.wrapping_sub(self.advanced_at[peer]);
        (heard && age <= 1).then(|| self.peer_load[peer])
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
    /// asynchronous trade.  Runs on the driver (never a green thread),
    /// costs O(1) per step, and never blocks.  Armed while no prefetch is
    /// owed, so a lender's death re-arms it.
    fn maybe_prefetch(&mut self) {
        if !self.cfg.slot_trade || self.n_nodes < 2 || self.shutdown || self.frozen() {
            return;
        }
        let (low, free) = (self.cfg.slot_low_watermark, self.mgr.free_slots());
        let prefetch = |o: &Owed| matches!(o, Owed::Trade { prefetch: true });
        if free >= low || self.owed.values().any(prefetch) {
            return;
        }
        // Only ask peers that can plausibly grant (they keep their own
        // low watermark back), so a uniformly poor cluster goes quiet
        // instead of ping-ponging refusals.
        let want = (self.cfg.slot_high_watermark - free).max(1);
        self.trade(low, want, 1, true);
    }

    /// One slot trade, the prefetch's or a demand's: ask the richest peer
    /// above `floor` for `want` slots, `min_contig` of them contiguous if
    /// it can.  Returns the lender and the trade id; `None` when no peer
    /// is rich enough or the send was refused (the lender is dead).
    pub(crate) fn trade(
        &mut self,
        floor: usize,
        want: usize,
        min_contig: usize,
        prefetch: bool,
    ) -> Option<(usize, u64)> {
        let peer = self.richest_peer(floor as u64)?;
        let trade_id = self.next_call_id();
        self.owed.insert((trade_id, peer), Owed::Trade { prefetch });
        match prefetch {
            true => self.stats.prefetches.add(1),
            false => self.stats.trades.add(1),
        }
        let req = proto::SlotTradeReq {
            trade_id,
            want: want as u32,
            min_contig: min_contig as u32,
            wealth: self.mgr.free_slots() as u32,
        };
        if self.send_msg(peer, &req).is_err() {
            self.owed.remove(&(trade_id, peer));
            self.set_peer_wealth(peer, 0);
            return None;
        }
        Some((peer, trade_id))
    }

    // -- fault tolerance & epidemic dissemination ---------------------------

    /// Is any timer armed?  Flags and a count, no clock: what decides
    /// whether a step runs [`NodeCtx::run_timers`] at all.
    fn timers_armed(&self) -> bool {
        self.waits.timed()
            || self.next_round.is_some()
            || self.next_checkpoint.is_some()
            || self.coord_settle_until.is_some() && !self.lock_queue.is_empty()
    }

    /// When this node next needs a step that no message will bring, if it
    /// does: the earliest of its armed timers, as of the last
    /// [`NodeCtx::run_timers`] (an idle node runs them just before it
    /// parks).  What a parking node files with the executor.
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
    /// so that [`NodeCtx::next_timer`] never names a past instant twice;
    /// fix the deadlines of waits opened since the last run (`crate::wait`).
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
            self.silence_scan();
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

    /// One epidemic round: bump our sequence number and push a digest to
    /// [`GOSSIP_FANOUT`] distinct live peers drawn uniformly (fewer if
    /// fewer are alive) — O(1) messages per node per round.  With the
    /// detector armed the digest is the whole table: our own wealth/load
    /// claim plus our newest entry for every live peer we have heard from,
    /// O(p) bytes, so every sequence number reaches the whole machine in
    /// O(log p) rounds.  Without it the digest is our own claim alone:
    /// wealth and load hints only steer the trader and the balancer, which
    /// also refresh them on their own traffic, and every relayed byte costs
    /// its receiver wire time.
    pub(crate) fn gossip_round(&mut self) {
        self.gossip_seq = self.gossip_seq.wrapping_add(1);
        let relays = self.timeout_rounds.is_some();
        let mut entries = Vec::with_capacity(if relays { self.n_nodes } else { 1 });
        entries.push(proto::GossipEntry {
            node: self.node as u32,
            seq: self.gossip_seq,
            wealth: self.mgr.free_slots() as u32,
            load: self.sched.resident() as u32,
        });
        // One walk builds the digest and draws the recipients: `to` is a
        // reservoir sample of the live peers, so they are distinct.
        let mut to = [0usize; GOSSIP_FANOUT];
        let mut live = 0usize;
        for p in (0..self.n_nodes).filter(|&p| p != self.node && !self.dead_nodes.contains(&p)) {
            let slot = if live < GOSSIP_FANOUT {
                live
            } else {
                self.rng.below(live + 1)
            };
            if let Some(t) = to.get_mut(slot) {
                *t = p;
            }
            live += 1;
            // Relay only what we actually learned (seq 0 = never heard).
            if relays && self.peer_seq[p] > 0 {
                entries.push(proto::GossipEntry {
                    node: p as u32,
                    seq: self.peer_seq[p],
                    wealth: self.peer_wealth[p].load(Ordering::Relaxed) as u32,
                    load: self.peer_load[p],
                });
            }
        }
        // The payload is refcounted, so the fanout shares one buffer.
        let buf = proto::encode(&self.pool, &proto::Gossip { entries });
        self.stats.gossip_rounds.add(1);
        for &p in &to[..live.min(GOSSIP_FANOUT)] {
            let _ = self.ep.send(p, tag::GOSSIP, buf.clone());
        }
    }

    /// Merge one epidemic digest entry.  Strictly-newer sequence numbers
    /// win; entries about nodes already declared dead are ignored (no
    /// resurrection by stale relay).  A newer sequence number is the
    /// detector's only *liveness evidence* — the origin cannot have
    /// produced a fresh round after dying, and a corpse's counter stops
    /// advancing, so relays of its old rounds never refresh it.  The
    /// advance is stamped with this node's own round, not a clock.
    pub(crate) fn absorb_gossip(&mut self, e: proto::GossipEntry) {
        let n = e.node as usize;
        let newer = n != self.node && self.peer_seq.get(n).is_some_and(|&seq| e.seq > seq);
        if !newer || self.dead_nodes.contains(&n) {
            return;
        }
        self.peer_seq[n] = e.seq;
        self.advanced_at[n] = self.gossip_seq;
        self.peer_load[n] = e.load;
        self.set_peer_wealth(n, e.wealth as u64);
    }

    /// The detector's verdicts, once per round after this node's digest
    /// went out: a live peer whose sequence number has not advanced for
    /// more than `failure_timeout` worth of this node's own rounds is
    /// declared dead — so at least the timeout has passed since the last
    /// evidence, and at most one round more.  A transport error never
    /// declares a death.
    fn silence_scan(&mut self) {
        let Some(limit) = self.timeout_rounds else {
            return;
        };
        let (me, n) = (self.node, self.n_nodes);
        for p in (1..n).map(|i| (me + i) % n) {
            let silent = self.gossip_seq.wrapping_sub(self.advanced_at[p]);
            if silent > limit && !self.dead_nodes.contains(&p) {
                self.declare_dead(p);
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
        // Nothing the corpse owes is coming; a prefetch it owed re-arms.
        self.owed.retain(|&(_, peer), _| peer != dead);
        // Green threads waiting on the corpse resolve now (typed), not at
        // their reply deadline.
        self.waits.fail_peer(&self.sched, dead);
        // Lock service: a corpse can neither hold nor want the
        // global-negotiation lock.
        self.lock_queue.retain(|&(w, _)| w != dead);
        if self.lock_holder == Some(dead) {
            self.lock_holder = None;
        }
        // Did this death hand us the coordinator role?  The predecessor
        // may have granted a holder whose gather has not frozen us yet;
        // embargo grants briefly so that holder's critical section can
        // assert itself before we would start a second one.
        if dead < self.node && self.is_coordinator() {
            let settle = Duration::from_millis(50).min(self.cfg.reply_deadline / 4);
            self.coord_settle_until = Some(self.now() + settle);
        }
        // If the dead node froze our bitmap as a negotiation initiator it
        // can never send NEG_DONE; its section ends here, or this node
        // wedges forever.
        self.thaw(dead);
        self.service_lock_queue();
    }

    /// Is the bitmap frozen by a §4.4 critical section (see
    /// [`Self::freezers`])?
    pub(crate) fn frozen(&self) -> bool {
        !self.freezers.is_empty()
    }

    /// Enter `initiator`'s critical section: the bitmap stays frozen until
    /// that section ends.
    pub(crate) fn freeze(&mut self, initiator: usize) {
        if !self.freezers.contains(&initiator) {
            self.freezers.push(initiator);
        }
    }

    /// Leave `initiator`'s critical section, if this node is in it.  The
    /// last one out replays what the freeze deferred, in order: it adopts
    /// the ranges that landed (now: an initiator retries its allocation
    /// as soon as this returns), releases the exited threads' slots,
    /// dispatches the spawns again and wakes the threads waiting.
    pub(crate) fn thaw(&mut self, initiator: usize) {
        let before = self.freezers.len();
        self.freezers.retain(|&f| f != initiator);
        if self.freezers.len() == before || self.frozen() {
            return;
        }
        for (ranges, deal) in std::mem::take(&mut self.pending_adopts) {
            self.adopt_grant(&ranges, deal);
        }
        for d in std::mem::take(&mut self.zombies) {
            // SAFETY: exited threads, exclusively ours.
            unsafe { marcel::release_thread_resources(d, &mut self.mgr) }
                .expect("releasing deferred thread resources");
        }
        // Handling a spawn cannot freeze the bitmap again: this drains.
        for m in std::mem::take(&mut self.deferred) {
            handlers::dispatch(self, m);
        }
        handlers::spawn::spawn_drainer(self);
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
            || self.frozen()
            || !self.is_coordinator()
        {
            return;
        }
        if let Some(until) = self.coord_settle_until {
            if self.now() < until {
                return;
            }
            self.coord_settle_until = None;
        }
        if let Some((next, round)) = self.lock_queue.pop_front() {
            self.lock_holder = Some(next);
            let _ = self.send_msg(next, &proto::NegLockGrant { round });
        }
    }

    /// Checkpoint every migratable, currently-ready thread to the spill
    /// log under a fresh epoch.  The pack is a *snapshot* — no slots are
    /// surrendered, the threads keep running — so a checkpoint is
    /// superseded, never mutated: the replayer simply keeps the newest
    /// epoch per tid.  Returns the number of thread images written.
    pub(crate) fn checkpoint_now(&mut self) -> crate::error::Result<u32> {
        if self.spill.is_none() || self.frozen() {
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
        self.stats.checkpoints.add(1);
        self.stats.checkpoint_threads.add(ds.len() as u64);
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

    /// Bind this node to the calling OS thread (marcel + pm2 TLS) and name
    /// its pool's driver list for it, so the buffers this node's code lets
    /// go recycle here (see `madeleine::buf`).  The executor clears the name
    /// when the dispatch ends.
    pub(crate) fn activate(&mut self) {
        self.sched.activate();
        CURRENT_NODE.with(|c| c.set(self as *mut NodeCtx));
        // SAFETY: the caller drives this node — an executor worker holding
        // its mutex, which undrives before it lets go, or a test owning it —
        // so no other thread names this pool meanwhile.
        unsafe { self.pool.drive() };
    }

    /// Any delivered message not yet handled?
    pub(crate) fn inbox_pending(&self) -> bool {
        self.ep.pending()
    }

    /// Handle delivered messages in the order the links delivered them, at
    /// most [`PUMP_BUDGET`] of them, and return whether any were handled.
    /// Leftovers stay in the endpoint's inbox for the next pump.  Wire time
    /// is charged as each message is taken (receiver-clocked).
    pub(crate) fn pump(&mut self) -> bool {
        let mut handled = 0;
        // A kill mid-pump pulls the cord: what is still queued dies with
        // the node.
        while handled < PUMP_BUDGET && !self.killed {
            let Some(m) = self.ep.try_recv() else { break };
            handlers::dispatch(self, m);
            handled += 1;
        }
        handled > 0
    }

    /// One scheduling step: pump, then run one thread quantum.  Returns true
    /// if any work was done.  The pump's handlers and the quantum's outcome
    /// are driver code (`executor::driver_code`): a node they wake may be
    /// handed to this worker — held, and released to the shared queue
    /// before this node's next quantum.
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
        self.activate();
        self.stats.steps.add(1);
        let pumped = executor::driver_code(|| self.pump());
        if self.killed {
            return false;
        }
        // A busy node's clock read: one step in CLOCK_EVERY, none with
        // nothing armed.  (An idle node's is in `idle_timers`.)
        if self.stats.steps.get().is_multiple_of(CLOCK_EVERY) && self.timers_armed() {
            self.run_timers(self.now());
        }
        self.maybe_prefetch();
        if self.sched.has_ready() {
            // A thread that sends and then computes must not delay the
            // node its driver code woke.
            executor::release_held();
        }
        match self.sched.run_one() {
            Some(outcome) => {
                executor::driver_code(|| self.handle_outcome(outcome));
                true
            }
            None => pumped || self.idle_timers(),
        }
    }

    /// Nothing left to do but report so: no ready thread, no delivered
    /// message, no wait deadline still a bare span — what a freeze
    /// deferred waits for the thaw, which replays it.  The executor parks
    /// a node that is quiet after a step at once, without the empty step
    /// that would find this, and runs the node its driver code woke next
    /// (the hand-off).
    ///
    /// An armed timer is no work: every timer with an instant — a fixed
    /// wait deadline, the gossip round, the checkpoint period, the grant
    /// embargo — is named by [`NodeCtx::next_timer`], which the parking
    /// node files with the executor, and the step that instant brings runs
    /// the due duties in `idle_timers`.  A past instant requeues the node
    /// at once.  What has no instant yet is a `Due::After` span no timer
    /// run has fixed (`WaitTable::unfixed`): only the empty step's timer
    /// run gives it one, so that is work.
    pub(crate) fn quiet(&self) -> bool {
        !self.sched.has_ready() && !self.inbox_pending() && !self.waits.unfixed()
    }

    /// The node is about to report no work: run its armed timers on a
    /// fresh clock read, so that the instant [`NodeCtx::next_timer`] then
    /// names is current, and report work after all if that woke a thread.
    fn idle_timers(&mut self) -> bool {
        if !self.timers_armed() {
            return false;
        }
        self.run_timers(self.now());
        self.sched.has_ready()
    }

    /// Ready to stop?  (Also false while any delivered message awaits its
    /// pump — an unhandled SPAWN_KEY is still pending work.)
    pub(crate) fn done(&self) -> bool {
        self.shutdown
            && self.sched.resident() == 0
            && self.zombies.is_empty()
            && self.deferred.is_empty()
            && self.calls.is_empty()
            && !self.inbox_pending()
    }

    /// Drained: the driver may exit.  A killed node is trivially
    /// finished — nothing it could do would be heard.
    pub(crate) fn finished(&self) -> bool {
        self.killed || self.done()
    }

    // -- outcome handling ---------------------------------------------------

    fn handle_outcome(&mut self, outcome: RunOutcome) {
        use RunOutcome::*;
        let (Yielded(d) | Exited(d) | MigrateSelf(d, _) | PreemptMigrate(d, _) | Blocked(d)) =
            outcome;
        // SAFETY: `d` came from this scheduler's run_one, not yet released.
        let drained = self.drainer.is_some_and(|t| t == unsafe { (*d).tid });
        if drained {
            // The control lane serves the queue, not the services: one that
            // left its quantum runs on as compute, wherever it goes.
            // SAFETY: as above; requeue and departure read the flag below.
            unsafe { (*d).flags &= !marcel::thread::flags::CONTROL };
        }
        match outcome {
            // SAFETY: `d` came from this scheduler's run_one.
            Yielded(d) => unsafe { self.sched.requeue(d) },
            Exited(d) => self.finish_thread(d),
            // Either way the descriptor names its destination itself.
            MigrateSelf(d, _) | PreemptMigrate(d, _) => self.depart(d),
            // Parked in a `wait::Wait`: whatever completes its entry in
            // the wait table unblocks it.
            Blocked(_) => {}
        }
        if drained {
            // The drainer left its quantum: what is queued behind it gets
            // a successor (`handlers::spawn`).
            self.drainer = None;
            handlers::spawn::spawn_drainer(self);
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
            if !self.nodeheap.is_empty() {
                self.nodeheap.release_thread(tid);
            }
            if self.frozen() {
                // Slot release would mutate the bitmap inside a system-wide
                // critical section; defer ("no slot management" rule, §4.4).
                self.zombies.push(d);
            } else {
                marcel::release_thread_resources(d, &mut self.mgr)
                    .expect("releasing thread resources");
            }
            let note = if self.exit_notes.is_empty() {
                ExitNote::default()
            } else {
                self.exit_notes.remove(&tid).unwrap_or_default()
            };
            if detached && !panicked {
                // Nobody holds this tid, so nobody can ask how it ended:
                // a clean exit is forgotten, here and at home.
                return;
            }
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
        self.train_tids.clear();
        // SAFETY: every thread is frozen (Migrating or tagged-Ready) and
        // was removed from the scheduler's queues.
        unsafe {
            for &d in ds {
                let tid = (*d).tid;
                self.train_tids.push(tid);
                (*d).state = ThreadState::Migrating as u32;
                self.sched.note_gone();
                self.threads.remove(&tid);
                // Fig. 4/9: node-local malloc data does NOT follow the thread.
                self.nodeheap.poison_departed(tid);
            }
            let t0 = migration::stamped(self.stats.trains_out.get()).then(|| self.now());
            let train = migration::pack_threads(
                ds,
                &self.mgr,
                self.cfg.pack_full_slots,
                &self.pool,
                &self.cfg.fault_corrupt_pack,
            )
            .expect("packing migration train");
            migration::surrender_threads(ds, &mut self.mgr).expect("unmapping the departed train");
            if let Some(t0) = t0 {
                let ns = self.now().duration_since(t0).as_nanos() as u64;
                self.stats
                    .migration_pack_ns
                    .add(ns * migration::STAMP_EVERY);
            }
            self.stats.migrations_out.add(ds.len() as u64);
            self.stats.trains_out.add(1);
            self.stats.migration_bytes_out.add(train.len() as u64);
            if let Err(e) = self.ep.send(dest, tag::MIGRATION, train) {
                // An endpoint died between staging and shipping.  The
                // slots were already surrendered with the image, so
                // the threads are gone with the train; complete them as
                // failed-on-`dest` (first-write-wins — a join never
                // hangs) instead of panicking the survivor.
                self.stats.migrations_failed.add(ds.len() as u64);
                for &tid in &self.train_tids {
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

    /// Spawn `f` as thread `tid`, with extra marcel descriptor flags
    /// (`flags::CONTROL` puts a protocol handler into the scheduler's
    /// control lane from birth).  The closure moves straight into the
    /// thread's stack slot: a spawn allocates nothing of its own.
    pub(crate) fn try_spawn<F>(
        &mut self,
        tid: u64,
        extra_flags: u32,
        f: F,
    ) -> Result<(), marcel::SpawnError>
    where
        F: FnOnce() + Send + 'static,
    {
        let body = instrument_body(tid, f);
        let d = self
            .sched
            .spawn_with_tid_flags(&mut self.mgr, tid, extra_flags, body)?;
        self.finish_spawn(tid, d);
        Ok(())
    }

    /// Spawn from a green thread already running on this node.
    pub(crate) fn spawn_local<F>(&mut self, f: F) -> Result<u64, marcel::SpawnError>
    where
        F: FnOnce() + Send + 'static,
    {
        let tid = self.sched.next_tid();
        self.try_spawn(tid, 0, f)?;
        Ok(tid)
    }

    fn finish_spawn(&mut self, tid: u64, d: DescPtr) {
        self.threads.insert(tid, d);
        // Nobody looks a detached thread up (see `finish_thread`).
        // SAFETY: freshly spawned descriptor, not yet run.
        if unsafe { (*d).flags } & marcel::thread::flags::DETACHED == 0 {
            self.registry.set_location(tid, self.node);
        }
        self.stats.spawns.add(1);
    }
}
