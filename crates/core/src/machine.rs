//! The machine: a simulated PM2 cluster inside one process.
//!
//! [`Machine::launch`] reserves the iso-address area, wires the Madeleine
//! fabric (one endpoint per node plus a host control endpoint), and hands
//! the node drivers to the one driver there is: the `executor` worker pool
//! (`workers(1)` is a single OS thread running every node in ready-queue
//! order).  The host talks to nodes exclusively through control messages,
//! like any other fabric participant.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isoaddr::{IsoArea, SlotRange, SlotStatsSnapshot};
use madeleine::{Endpoint, Fabric, Message, Payload, Wire};

use crate::audit::{AuditReport, NodeAudit};
use crate::config::{MachineBuilder, Pm2Config};
use crate::error::{Pm2Error, Result};
use crate::node::{NodeCtx, NodeStats, NodeStatsSnapshot};
use crate::output::OutputSink;
use crate::proto::{self, tag, Msg};
use crate::registry::{Registry, ServiceTable, SpawnTable, ThreadExit};
use crate::service::{service_id, Service, TypedServiceTable};

/// Host-assigned thread ids live in a separate namespace from node-assigned
/// ones (`node << 40 | counter`).
const HOST_TID_BASE: u64 = 1 << 63;

/// Handle on a spawned thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pm2Thread {
    /// Machine-wide unique thread id.
    pub tid: u64,
}

/// What [`Machine::recover_node`] accomplished, with the two phases timed
/// separately (thread re-adoption vs. slot reclamation).
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The node recovered from.
    pub dead_node: usize,
    /// Threads re-adopted onto survivors from the spill log.
    pub threads_recovered: usize,
    /// Resident threads with no covering checkpoint (completed as failed).
    pub threads_lost: usize,
    /// Orphaned slots granted to a survivor's free pool.
    pub slots_reclaimed: usize,
    /// Spill-log frames skipped for checksum mismatch.
    pub corrupt_records_skipped: usize,
    /// Whether the spill log ended in a torn (truncated) frame.
    pub torn_tail_truncated: bool,
    /// Wall time of replay + re-adoption (detection not included).
    pub recovery: Duration,
    /// Wall time of the audit + slot reclamation pass.
    pub reclaim: Duration,
}

/// Typed handle on a value-returning thread spawned with
/// [`Machine::spawn_on_ret`].
///
/// The handle is independent of the [`Machine`] borrow (it holds the
/// shared completion registry), so it can be joined after further machine
/// calls, stored, or joined out of spawn order.
pub struct JoinHandle<R> {
    tid: u64,
    registry: Arc<Registry>,
    /// View of the fabric's death certificates, so a join can resolve a
    /// dead owner instead of hanging.
    watch: madeleine::DeathWatch,
    /// Grace given to recovery before a dead owner fails the join.
    grace: Duration,
    _result: PhantomData<fn() -> R>,
}

impl<R: Wire> JoinHandle<R> {
    /// Machine-wide thread id (usable with the untyped join APIs).
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// The untyped handle for this thread.
    pub fn thread(&self) -> Pm2Thread {
        Pm2Thread { tid: self.tid }
    }

    /// Block the host until the thread completes and decode its return
    /// value.  The value travels through the thread-exit protocol, so it
    /// arrives no matter how many times the thread migrated.  Errors:
    /// [`Pm2Error::Panicked`] (with the panic message) if the body
    /// panicked, [`Pm2Error::NodeFailed`] if the hosting node died with no
    /// checkpoint covering the thread.  Panics after five minutes — a
    /// wedged machine in a test/bench should fail loudly, like
    /// [`Machine::join`].
    pub fn join(self) -> Result<R> {
        wait_exit_host(&self.registry, &self.watch, self.grace, self.tid);
        self.registry
            .take_typed_exit(self.tid)
            .expect("completion just observed")
            .typed_value()
    }

    /// Non-blocking: the decoded value if the thread already completed.
    /// Consumes the stored value — a second successful `try_join` of the
    /// same handle reports "thread returned no value".
    pub fn try_join(&self) -> Option<Result<R>> {
        Some(self.registry.take_typed_exit(self.tid)?.typed_value())
    }
}

/// A running PM2 machine.
pub struct Machine {
    /// Normalised at launch and shared with every node.
    cfg: Arc<Pm2Config>,
    area: Arc<IsoArea>,
    host_ep: Endpoint,
    out: Arc<OutputSink>,
    registry: Arc<Registry>,
    spawn_table: Arc<SpawnTable>,
    services: Arc<ServiceTable>,
    typed_services: Arc<TypedServiceTable>,
    slot_stats: Vec<Arc<isoaddr::SlotStats>>,
    node_stats: Vec<Arc<NodeStats>>,
    /// Per-node wealth hint tables (last-known free-slot count per peer).
    wealth: Vec<Arc<Vec<AtomicU64>>>,
    /// Per-node communication-affinity rows (cumulative RPC-shaped
    /// messages exchanged with each peer, self included).
    affinity: Vec<Arc<Vec<AtomicU64>>>,
    /// Cheap-clone handles on each node's payload pool (observability).
    pools: Vec<madeleine::BufPool>,
    drivers: Vec<std::thread::JoinHandle<()>>,
    /// OS threads actually driving nodes (the executor's workers).
    n_workers: usize,
    next_tid: AtomicU64,
    stopped: bool,
    /// Control messages received while waiting for something else.
    stash: Vec<Message>,
}

impl Machine {
    /// Start configuring a machine with `nodes` nodes — the v1 facade's
    /// front door (see [`MachineBuilder`]).
    pub fn builder(nodes: usize) -> MachineBuilder {
        MachineBuilder::new(nodes)
    }

    /// Launch a machine from an explicit configuration record
    /// ([`Machine::builder`] is the fluent way to make one).
    pub fn launch(cfg: Pm2Config) -> Result<Machine> {
        assert!(cfg.nodes >= 1, "a machine needs at least one node");
        let cfg = Arc::new(cfg.normalized());
        let area = Arc::new(IsoArea::with_strategy(cfg.area, cfg.map_strategy)?);
        // A configured fault plan gets the exactly-once tags (the `once`
        // rows of the tag table) stamped protected before it reaches the
        // fabric: they move state that is never retried, so losing or
        // duplicating them would be a different (unrecoverable) fault
        // model than the at-least-once request/reply traffic.
        let once: Vec<u16> = tag::ALL
            .iter()
            .copied()
            .filter(|&t| proto::exactly_once(t))
            .collect();
        let plan = cfg.fault_plan.clone().map(|p| p.protect_tags(&once));
        let mut eps = match plan {
            None => Fabric::new(cfg.nodes + 1, cfg.net),
            Some(p) => Fabric::new_chaotic(cfg.nodes + 1, cfg.net, p),
        };
        let host_ep = eps.pop().expect("host endpoint");
        let out = OutputSink::new();
        let registry = Registry::new_shared();
        let spawn_table = SpawnTable::new_shared();
        let services = ServiceTable::new_shared();
        let typed_services = TypedServiceTable::new_shared();

        let ctxs: Vec<NodeCtx> = eps
            .into_iter()
            .map(|ep| {
                NodeCtx::new(
                    &cfg,
                    ep.node(),
                    Arc::clone(&area),
                    ep,
                    Arc::clone(&out),
                    Arc::clone(&registry),
                    Arc::clone(&spawn_table),
                    Arc::clone(&services),
                    Arc::clone(&typed_services),
                )
            })
            .collect();
        let slot_stats = ctxs.iter().map(|c| c.mgr.stats()).collect();
        let node_stats = ctxs.iter().map(|c| Arc::clone(&c.stats)).collect();
        let wealth = ctxs.iter().map(|c| Arc::clone(&c.peer_wealth)).collect();
        let affinity = ctxs.iter().map(|c| Arc::clone(&c.affinity)).collect();
        let pools = ctxs.iter().map(|c| c.pool.clone()).collect();

        let n_workers = effective_workers(&cfg);
        let drivers = crate::executor::spawn_pool(ctxs, n_workers);

        Ok(Machine {
            cfg,
            area,
            host_ep,
            out,
            registry,
            spawn_table,
            services,
            typed_services,
            slot_stats,
            node_stats,
            wealth,
            affinity,
            pools,
            drivers,
            n_workers,
            next_tid: AtomicU64::new(1),
            stopped: false,
            stash: Vec::new(),
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &Pm2Config {
        &self.cfg
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// OS threads driving the node state machines: the executor pool size
    /// (the `workers` knob, auto-sized at 0).  On any realistic host this
    /// is ≪ nodes — the point of the multiplexed executor.
    pub fn worker_threads(&self) -> usize {
        self.n_workers
    }

    /// The iso-address area (shared by all nodes).
    pub fn area(&self) -> &Arc<IsoArea> {
        &self.area
    }

    /// Register a raw byte-level LRPC service (the paper-faithful layer;
    /// do this before any `rpc_spawn` names it).
    pub fn register_service<F>(&self, id: u32, f: F)
    where
        F: Fn(Vec<u8>) + Send + Sync + 'static,
    {
        self.services.register(id, Arc::new(f));
    }

    /// Register a typed request/reply [`Service`] by type.  Callable from
    /// any node afterwards via [`crate::api::pm2_rpc_call`], or from the
    /// host via [`Machine::rpc_call`].
    pub fn register<S: Service>(&self, svc: S) {
        self.typed_services.register(svc);
    }

    /// Spawn `f` as a Marcel thread on `node`.
    pub fn spawn_on<F>(&self, node: usize, f: F) -> Result<Pm2Thread>
    where
        F: FnOnce() + Send + 'static,
    {
        if node >= self.cfg.nodes {
            return Err(Pm2Error::NoSuchNode(node));
        }
        let tid = HOST_TID_BASE | self.next_tid.fetch_add(1, Ordering::Relaxed);
        let key = self.spawn_table.park(Box::new(f));
        // Optimistic location: if `node` dies before the spawn lands, the
        // dead-owner join logic still has a node to blame — no hang.
        self.registry.set_location(tid, node);
        if let Err(e) = self.send_msg(node, &proto::SpawnKey { key, tid }) {
            self.registry.clear_location(tid);
            self.spawn_table.take(key);
            return Err(e);
        }
        Ok(Pm2Thread { tid })
    }

    /// Spawn a value-returning thread on `node`; the typed [`JoinHandle`]
    /// decodes the body's return value on join.
    ///
    /// Unlike the old host-only mpsc plumbing, the value is shipped
    /// through the completion registry and the thread-exit protocol, so it
    /// arrives even if the thread migrates and dies on another node — and
    /// green threads can observe it too, via
    /// [`crate::api::pm2_join_value`] on [`JoinHandle::tid`].
    pub fn spawn_on_ret<R, F>(&self, node: usize, f: F) -> Result<JoinHandle<R>>
    where
        R: Wire + Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let t = self.spawn_on(node, move || {
            let value = f();
            crate::api::set_exit_value(value.encode_vec());
        })?;
        Ok(JoinHandle {
            tid: t.tid,
            registry: Arc::clone(&self.registry),
            watch: self.host_ep.death_watch(),
            grace: self.cfg.reply_deadline,
            _result: PhantomData,
        })
    }

    /// Spawn a registered byte-level service on `node` from the host
    /// (fire and forget — PM2's original LRPC).
    pub fn rpc_spawn(&self, node: usize, service: u32, args: &[u8]) -> Result<()> {
        if node >= self.cfg.nodes {
            return Err(Pm2Error::NoSuchNode(node));
        }
        let args = args.to_vec();
        self.send_msg(node, &proto::RpcSpawn { service, args })
    }

    /// Fault-injection hook: deliver a raw fabric message to `node` as if a
    /// peer had sent it.  Exists so tests can exercise the corrupt-input
    /// paths (e.g. a truncated migration record); not part of the public
    /// API contract.
    #[doc(hidden)]
    pub fn inject_raw(&self, node: usize, tag: u16, payload: Vec<u8>) -> Result<()> {
        if node >= self.cfg.nodes {
            return Err(Pm2Error::NoSuchNode(node));
        }
        self.host_ep.send(node, tag, payload)?;
        Ok(())
    }

    /// Typed request/reply LRPC from the host: call service `S` on `node`
    /// and block until its response arrives (deadline: the configured
    /// `reply_deadline`).  The green-thread equivalent is
    /// [`crate::api::pm2_rpc_call`].
    pub fn rpc_call<S: Service>(&mut self, node: usize, req: S::Req) -> Result<S::Resp> {
        if node >= self.cfg.nodes {
            return Err(Pm2Error::NoSuchNode(node));
        }
        let call_id = self.next_id();
        let call = proto::encode_rpc_call(
            self.host_ep.pool(),
            call_id,
            self.cfg.nodes,
            service_id::<S>(),
            &req,
            self.cfg.max_rpc_payload,
        )?;
        // Exactly-once (the handler is arbitrary user code): one attempt
        // with the whole reply deadline, never a blind re-send.
        let deadline = Instant::now() + self.cfg.reply_deadline;
        let reply = self
            .exchange(node, tag::RPC_CALL, call, tag::RPC_RESP, call_id, deadline)?
            .ok_or_else(|| Pm2Error::Net("timed out waiting for rpc response".into()))?;
        crate::api::decode_rpc_outcome::<S>(&reply.payload)
    }

    /// Block the host until a thread completes.  A thread stranded on a
    /// dead node resolves as a failed exit (`failed_node` set) after
    /// recovery's grace window instead of hanging.  Panics after five
    /// minutes (a wedged machine in a test/bench should fail loudly).
    pub fn join(&self, t: Pm2Thread) -> ThreadExit {
        wait_exit_host(
            &self.registry,
            &self.host_ep.death_watch(),
            self.cfg.reply_deadline,
            t.tid,
        )
    }

    /// Run `f` on `node` and return its value to the host.
    ///
    /// `R` is any `Send` type, so the value rides the registry's host-side
    /// mailbox (an in-process shortcut, like the spawn table); a
    /// panicking body surfaces as [`Pm2Error::Panicked`] with the panic
    /// message.  Use [`Machine::spawn_on_ret`] when the value should
    /// travel the wire protocol instead.
    pub fn run_on<R, F>(&self, node: usize, f: F) -> Result<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let registry = Arc::clone(&self.registry);
        let t = self.spawn_on(node, move || {
            let value = f();
            registry.put_value(marcel::current_tid(), Box::new(value));
        })?;
        let exit = self.join(t);
        if exit.panicked {
            return Err(Pm2Error::Panicked(exit.panic_message().to_string()));
        }
        self.registry
            .take_value(t.tid)
            .and_then(|b| b.downcast::<R>().ok())
            .map(|b| *b)
            .ok_or_else(|| Pm2Error::Spawn("thread produced no value".into()))
    }

    /// Captured `pm2_printf` lines, in order.
    pub fn output_lines(&self) -> Vec<String> {
        self.out.lines()
    }

    /// Clear captured output.
    pub fn clear_output(&self) {
        self.out.clear()
    }

    /// Completion registry (for custom host-side waiting).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Slot-layer statistics of `node`.
    pub fn slot_stats(&self, node: usize) -> SlotStatsSnapshot {
        self.slot_stats[node].snapshot()
    }

    /// Runtime statistics of `node`.
    pub fn node_stats(&self, node: usize) -> NodeStatsSnapshot {
        self.node_stats[node].snapshot()
    }

    /// Zero every node's runtime counters ([`NodeStats::reset`]) so the
    /// next [`Machine::node_stats`] snapshots are per-window, not
    /// cumulative — what a round-based harness wants between ramp rounds.
    /// Call near quiescence: a concurrent increment simply lands in the
    /// new window.  Slot-layer and pool stats are untouched (measure those
    /// as before/after deltas).
    pub fn stats_reset(&self) {
        for s in &self.node_stats {
            s.reset();
        }
        for row in &self.affinity {
            for a in row.iter() {
                a.store(0, Ordering::Relaxed);
            }
        }
    }

    /// `node`'s communication-affinity row: cumulative RPC-shaped
    /// messages its threads exchanged with every node (index `node`
    /// itself counts co-located, wire-free traffic).  This is the raw
    /// material the affinity balancer works from, aggregated per node;
    /// [`Machine::stats_reset`] zeroes it with the other counters.
    pub fn affinity(&self, node: usize) -> Vec<u64> {
        self.affinity[node]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// `node`'s wealth hint table: its last-known free-slot count for
    /// every node, refreshed by each piggybacked hint on trade, load,
    /// migrate-ack and gossip traffic.  This is what the node's slot
    /// trader picks lenders from.  Allocates a fresh Vec per call; hot
    /// callers (the balancer daemon, benches sampling every round) should
    /// reuse a buffer via [`Machine::peer_wealth_into`].
    pub fn peer_wealth(&self, node: usize) -> Vec<u64> {
        let mut buf = Vec::new();
        self.peer_wealth_into(node, &mut buf);
        buf
    }

    /// [`Machine::peer_wealth`] without the per-call allocation: clears
    /// and refills `buf` (capacity is retained across calls).
    pub fn peer_wealth_into(&self, node: usize, buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend(self.wealth[node].iter().map(|w| w.load(Ordering::Relaxed)));
    }

    /// Wire statistics of `node`'s endpoint (messages/bytes in and out) —
    /// what the scale bench divides by completed ops to get the
    /// messages-per-op cost curve.
    pub fn net_stats(&self, node: usize) -> Option<madeleine::EndpointStatsSnapshot> {
        self.host_ep.stats_of(node)
    }

    /// Payload-pool statistics of `node`'s endpoint.  In steady state the
    /// `allocs` counter stops moving: every message rides a recycled
    /// buffer.
    pub fn pool_stats(&self, node: usize) -> madeleine::BufPoolStats {
        self.pools[node].stats()
    }

    /// Send a declared message from the host, under its tag.
    fn send_msg<M: Msg>(&self, node: usize, msg: &M) -> Result<()> {
        let payload = proto::encode(self.host_ep.pool(), msg);
        self.host_ep.send(node, M::TAG, payload)?;
        Ok(())
    }

    /// A fresh host-side correlation id: the host's fabric id in the top
    /// bits keeps it disjoint from every node's (node ids < nodes = host
    /// id).
    fn next_id(&self) -> u64 {
        ((self.cfg.nodes as u64) << 48) | self.next_tid.fetch_add(1, Ordering::Relaxed)
    }

    /// One host-side request/reply exchange: send `req` to `node` and wait
    /// until `deadline` for the `resp_tag` message that leads with `id`
    /// (from anyone — an LRPC handler may migrate before replying).
    /// `Ok(None)` means no reply came in time; a `node` that dies mid-wait
    /// fails the exchange promptly with [`Pm2Error::NodeFailed`]: the
    /// `NODE_DEAD` certificate reaches the host endpoint like any reply.
    fn exchange(
        &mut self,
        node: usize,
        req_tag: u16,
        req: Payload,
        resp_tag: u16,
        id: u64,
        deadline: Instant,
    ) -> Result<Option<Message>> {
        // Host exchanges are serialized (&mut self) and ids are never
        // reused, so a `resp_tag` message still stashed answers an
        // exchange that was abandoned: drop it rather than accumulate it.
        self.stash.retain(|m| m.tag != resp_tag);
        self.host_ep.send(node, req_tag, req)?;
        while let Some(m) = self.host_ep.recv_until(deadline) {
            if m.tag == resp_tag && proto::peek_id(&m.payload) == Some(id) {
                return Ok(Some(m));
            }
            let died = certifies_death(&m, node);
            // Everything else — the certificate too, for `wait_node_dead`.
            self.stash.push(m);
            if died {
                return Err(Pm2Error::NodeFailed(node));
            }
        }
        Ok(None)
    }

    /// An at-least-once [`Machine::exchange`] over declared messages: `req`
    /// goes out under its tag, is re-sent under the same `id` on loss (so
    /// the receiver can recognise a duplicate) within one `reply_deadline`
    /// in total, and the reply is decoded as `R`.
    fn call<Q: Msg, R: Msg>(
        &mut self,
        op: &'static str,
        node: usize,
        req: &Q,
        id: u64,
    ) -> Result<R> {
        let stats = Arc::clone(&self.node_stats[node]);
        crate::api::retry(
            op,
            self.cfg.reply_deadline,
            &stats.ctrl_retries,
            |deadline| {
                let payload = proto::encode(self.host_ep.pool(), req);
                self.exchange(node, Q::TAG, payload, R::TAG, id, deadline)?
                    .map(|m| R::from_payload(&m.payload))
                    .transpose()
            },
        )
    }

    fn recv_control(&mut self, want: u16, deadline: Instant) -> Option<Message> {
        self.recv_matching(deadline, |m| m.tag == want)
    }

    /// Wait for a control message `pred` accepts.  The wait is event-driven:
    /// the host parks inside [`madeleine::Endpoint::recv_until`] (a condvar
    /// wait under the hood) and is woken per arriving message — there is
    /// no poll slicing, so an arriving reply costs a wake-up, not a poll
    /// interval.
    fn recv_matching(
        &mut self,
        deadline: Instant,
        pred: impl Fn(&Message) -> bool,
    ) -> Option<Message> {
        if let Some(i) = self.stash.iter().position(&pred) {
            return Some(self.stash.remove(i));
        }
        loop {
            match self.host_ep.recv_until(deadline) {
                Some(m) if pred(&m) => return Some(m),
                Some(m) => self.stash.push(m),
                None => return None,
            }
        }
    }

    /// Run the global ownership audit (call at quiescence only).  Dead
    /// nodes are skipped: after a kill (and before recovery) the corpse's
    /// slots legitimately have no owner, so `check_partition` on a
    /// machine with unrecovered deaths reports them as orphans.
    pub fn audit(&mut self) -> Result<AuditReport> {
        let survivors = self.alive_nodes();
        for &node in &survivors {
            self.host_ep.send(node, tag::AUDIT_REQ, Vec::new())?;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        // Keyed by node, newest report winning: a report left over from an
        // abandoned audit then neither stands in for a missing node nor
        // double-counts one.
        let mut reports = std::collections::BTreeMap::new();
        while reports.len() < survivors.len() {
            let m = self
                .recv_control(tag::AUDIT_RESP, deadline)
                .ok_or_else(|| Pm2Error::Net("audit timed out".into()))?;
            let report = NodeAudit::from_payload(&m.payload)?;
            reports.insert(report.node, report);
        }
        Ok(AuditReport {
            nodes: reports.into_values().collect(),
            n_slots: self.area.n_slots(),
        })
    }

    // ------------------------------------------------------------------
    // fault tolerance: kill switch, checkpoints, recovery
    // ------------------------------------------------------------------

    /// Node ids whose endpoints are not marked dead, in order.
    fn alive_nodes(&self) -> Vec<usize> {
        (0..self.cfg.nodes)
            .filter(|&n| !self.host_ep.is_dead(n))
            .collect()
    }

    /// Whether `node` has been declared dead (by [`Machine::kill_node`] or
    /// the failure detector).
    pub fn is_node_dead(&self, node: usize) -> bool {
        self.host_ep.is_dead(node)
    }

    /// Chaos switch: pull `node`'s power cord and announce the death.
    ///
    /// The victim stops dispatching and stepping immediately (mid-pump if
    /// it was pumping) and performs **no** cleanup — exactly what a crashed
    /// machine looks like to the rest of the cluster.  The fabric refuses
    /// sends to and from the corpse from this call on, and a `NODE_DEAD`
    /// broadcast tells every survivor at once (use
    /// [`Machine::kill_node_silent`] to leave discovery to the heartbeat
    /// detector instead).  Threads resident on the victim are *not*
    /// completed here — that is [`Machine::recover_node`]'s job, or the
    /// dead-owner grace logic in the join paths.
    pub fn kill_node(&mut self, node: usize) -> Result<()> {
        self.kill_inner(node, true)
    }

    /// [`Machine::kill_node`] without the `NODE_DEAD` announcement: the
    /// survivors must notice the silence themselves via the heartbeat
    /// failure detector (`failure_timeout` must be configured for that).
    pub fn kill_node_silent(&mut self, node: usize) -> Result<()> {
        self.kill_inner(node, false)
    }

    fn kill_inner(&mut self, node: usize, announce: bool) -> Result<()> {
        if node >= self.cfg.nodes {
            return Err(Pm2Error::NoSuchNode(node));
        }
        // KILL first, while the fabric still accepts sends to the victim —
        // it makes the corpse's driver exit instead of parking forever.
        let _ = self.host_ep.send(node, tag::KILL, Vec::new());
        self.host_ep.mark_dead(node);
        if announce {
            let certificate = proto::NodeDead { node: node as u32 };
            let _ = self.host_ep.broadcast(
                tag::NODE_DEAD,
                proto::encode(self.host_ep.pool(), &certificate),
            );
        }
        Ok(())
    }

    /// Block until some survivor (or the host) has declared `node` dead —
    /// the `NODE_DEAD` broadcast reaches the host endpoint like any other
    /// control message.  Returns `false` on timeout.  This is how tests
    /// observe the heartbeat detector after [`Machine::kill_node_silent`].
    pub fn wait_node_dead(&mut self, node: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.recv_matching(deadline, |m| certifies_death(m, node))
            .is_some()
    }

    /// Ask `node` to checkpoint its migratable threads to its spill log
    /// right now; returns how many threads the checkpoint covered.  Errors
    /// if the machine was launched without a `spill_dir` (the node acks
    /// zero threads in that case, which is reported as `Ok(0)` — a
    /// no-spill machine simply has nothing to recover from).
    pub fn checkpoint_node(&mut self, node: usize) -> Result<u32> {
        if node >= self.cfg.nodes {
            return Err(Pm2Error::NoSuchNode(node));
        }
        if self.host_ep.is_dead(node) {
            return Err(Pm2Error::NodeFailed(node));
        }
        // CKPT_REQ/ACK is at-least-once under a fault plan.  A duplicate
        // request just snapshots again (the newest epoch supersedes), so
        // retrying is always safe.
        let req_id = self.next_id();
        let ack: proto::CkptAck =
            self.call("checkpoint", node, &proto::CkptReq { req_id }, req_id)?;
        Ok(ack.threads)
    }

    /// Checkpoint every live node; returns the total threads covered.
    pub fn checkpoint_all(&mut self) -> Result<u32> {
        let mut total = 0;
        for node in self.alive_nodes() {
            total += self.checkpoint_node(node)?;
        }
        Ok(total)
    }

    /// Chaos switch: cut the fabric between node sets `a` and `b` — every
    /// message (any tag, both directions) between the two sets is silently
    /// eaten until [`Machine::heal_partition`].  Nodes in neither set, and
    /// the host, keep full connectivity; nodes never observe the cut as a
    /// death unless it outlives `failure_timeout`.
    pub fn partition_nodes(&self, a: &[usize], b: &[usize]) {
        let mut groups = vec![madeleine::WILD_GROUP; self.cfg.nodes + 1];
        for &n in a {
            assert!(n < self.cfg.nodes, "no such node: {n}");
            groups[n] = 0;
        }
        for &n in b {
            assert!(n < self.cfg.nodes, "no such node: {n}");
            assert!(groups[n] != 0, "node {n} is on both sides of the cut");
            groups[n] = 1;
        }
        self.host_ep.set_partition(groups);
    }

    /// Heal a [`Machine::partition_nodes`] cut; in-flight messages already
    /// enqueued before the cut still deliver, eaten ones stay eaten.
    pub fn heal_partition(&self) {
        self.host_ep.clear_partition();
    }

    /// Recover from `dead`'s death: replay its spill log, re-adopt every
    /// checkpointed thread onto a survivor (round-robin) as an ordinary
    /// `MIGRATION` train — a recovered thread is just a migration whose
    /// source no longer exists — complete every *uncheckpointed* resident
    /// thread as failed (typed, so joiners get [`Pm2Error::NodeFailed`]
    /// instead of a hang), and finally reclaim the corpse's orphaned slots
    /// into a survivor's free pool so the ownership partition closes
    /// again.  Call at quiescence, after the death has been observed.
    pub fn recover_node(&mut self, dead: usize) -> Result<RecoveryReport> {
        if dead >= self.cfg.nodes {
            return Err(Pm2Error::NoSuchNode(dead));
        }
        if !self.host_ep.is_dead(dead) {
            return Err(Pm2Error::Net(format!(
                "node {dead} is alive; recovery is for dead nodes"
            )));
        }
        let survivors = self.alive_nodes();
        if survivors.is_empty() {
            return Err(Pm2Error::Net(
                "no surviving node to adopt recovered threads".into(),
            ));
        }

        let t0 = Instant::now();
        // 1. Replay the corpse's spill log (tolerates a missing file — a
        //    machine without spill_dir just recovers zero threads).
        let replay = match &self.cfg.spill_dir {
            Some(dir) => crate::spill::replay(&dir.join(format!("node{dead}.log")))?,
            None => crate::spill::SpillReplay::default(),
        };
        let newest = replay.latest_by_tid();

        // 2. The corpse's address space is gone.  On real hardware that is
        //    the crash itself; in this one-process simulation its slot
        //    mappings are still registered in the area's process-wide
        //    accounting, so recovery drops them explicitly: every committed
        //    slot no survivor accounts for (cache or resident thread)
        //    belonged to the corpse.  Checkpointed bytes live in the spill
        //    log; uncheckpointed state is lost — that is what node death
        //    means.  Without this, re-adoption (and any later allocation
        //    from reclaimed slots) would trip the double-commit invariant.
        let pre = self.audit()?;
        let mut survivor_committed = vec![false; pre.n_slots];
        for na in &pre.nodes {
            for &c in &na.cached {
                survivor_committed[c] = true;
            }
            for (_tid, ranges) in &na.threads {
                for r in &ranges.0 {
                    for slot in r.iter() {
                        survivor_committed[slot] = true;
                    }
                }
            }
        }
        let corpse_mapped = collect_ranges(0..pre.n_slots, |s| {
            self.area.is_committed(s) && !survivor_committed[s]
        });
        for range in &corpse_mapped {
            self.area.decommit_slots(*range)?;
        }

        // 3. Re-adopt checkpointed victims; fail the rest promptly.
        let victims = self.registry.located_on(dead);
        let mut shipped = Vec::new();
        let mut threads_lost = 0usize;
        for (i, &tid) in victims.iter().enumerate() {
            match newest.get(&tid) {
                Some(&(_epoch, group)) => {
                    let heir = survivors[i % survivors.len()];
                    let train = crate::migration::build_train(&[(tid, group)]);
                    self.host_ep.send(heir, tag::MIGRATION, train)?;
                    shipped.push(tid);
                }
                None => {
                    self.registry
                        .complete_if_absent(ThreadExit::node_failed(tid, dead));
                    threads_lost += 1;
                }
            }
        }

        // 4. Wait for each shipped thread to leave the corpse: adoption
        //    flips its location to the survivor (completion clears it).
        let deadline = Instant::now() + self.cfg.reply_deadline;
        let mut threads_recovered = 0usize;
        for tid in shipped {
            // Completion rings the registry's condvar; an adoption is
            // looked for between 1 ms slices of that wait.
            let moved = loop {
                let left = deadline.saturating_duration_since(Instant::now());
                let gone = self.registry.location(tid) != Some(dead)
                    || (self.registry).wait_completed(tid, left.min(Duration::from_millis(1)));
                if gone || left.is_zero() {
                    break gone;
                }
            };
            if moved {
                threads_recovered += 1;
            } else {
                // The survivor NAKed or never adopted it: fail it so
                // joiners do not hang on a thread nobody hosts.
                self.registry
                    .complete_if_absent(ThreadExit::node_failed(tid, dead));
                threads_lost += 1;
            }
        }
        let recovery = t0.elapsed();

        // 5. Slot reclamation: audit the survivors, find every slot with
        //    no owner among them (the corpse's free slots plus whatever
        //    its lost threads held), and grant the orphan ranges to the
        //    first survivor via the bitmap-only NODE_RECLAIM adoption.
        let t1 = Instant::now();
        let report = self.audit()?;
        let mut owned = vec![false; report.n_slots];
        for na in &report.nodes {
            for slot in na.bitmap.iter_ones() {
                owned[slot] = true;
            }
            for (_tid, ranges) in &na.threads {
                for r in &ranges.0 {
                    for slot in r.iter() {
                        owned[slot] = true;
                    }
                }
            }
        }
        let orphans = collect_ranges(0..report.n_slots, |s| !owned[s]);
        let mut slots_reclaimed = 0usize;
        if !orphans.is_empty() {
            // At-least-once with a sticky heir: always the same survivor,
            // always the same reclaim id, so a lost ack just provokes a
            // re-ack of the recorded adoption instead of a double grant.
            let reclaim_id = self.next_id();
            let req = proto::NodeReclaim {
                reclaim_id,
                ranges: proto::Ranges(orphans),
            };
            let ack: proto::ReclaimAck = self.call("reclaim", survivors[0], &req, reclaim_id)?;
            slots_reclaimed = ack.slots as usize;
        }
        let reclaim = t1.elapsed();

        Ok(RecoveryReport {
            dead_node: dead,
            threads_recovered,
            threads_lost,
            slots_reclaimed,
            corrupt_records_skipped: replay.corrupt_skipped,
            torn_tail_truncated: replay.torn_tail,
            recovery,
            reclaim,
        })
    }

    /// Stop the machine: ask every node to drain and stop, await the acks,
    /// and join the driver threads.  Called automatically on drop.
    pub fn shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for node in self.alive_nodes() {
            let _ = self.host_ep.send(node, tag::SHUTDOWN, Vec::new());
        }
        // Only survivors can ack, and a node may die mid-shutdown: its
        // `NODE_DEAD` certificate reaches this endpoint like an ack does,
        // so either message ends the wait and only a death recounts.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut expected = self.alive_nodes().len();
        let mut acked = 0usize;
        let event = |m: &Message| m.tag == tag::SHUTDOWN_ACK || m.tag == tag::NODE_DEAD;
        while acked < expected {
            match self.recv_matching(deadline, event) {
                Some(m) if m.tag == tag::SHUTDOWN_ACK => acked += 1,
                Some(_) => expected = self.alive_nodes().len(),
                None => {
                    eprintln!("pm2: warning: node shutdown ack missing");
                    break;
                }
            }
        }
        for h in self.drivers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Is `m` a `NODE_DEAD` certificate naming `node`?
fn certifies_death(m: &Message, node: usize) -> bool {
    let certificate = proto::NodeDead { node: node as u32 };
    m.tag == tag::NODE_DEAD && proto::NodeDead::decode_vec(&m.payload) == Some(certificate)
}

/// Compress those of `slots` where `pred` holds into maximal contiguous
/// ranges.
pub(crate) fn collect_ranges(slots: Range<usize>, pred: impl Fn(usize) -> bool) -> Vec<SlotRange> {
    let mut ranges = Vec::new();
    let mut i = slots.start;
    while i < slots.end {
        if !pred(i) {
            i += 1;
            continue;
        }
        let first = i;
        while i < slots.end && pred(i) {
            i += 1;
        }
        ranges.push(SlotRange::new(first, i - first));
    }
    ranges
}

/// Host-side dead-owner-aware completion wait (the host twin of the green
/// `wait_exit`): block on the registry in short slices, applying
/// [`Registry::fail_if_owner_dead`] with one `grace_window` between them.
/// Panics after five minutes like the pre-fault-tolerance waits.
fn wait_exit_host(
    registry: &Registry,
    watch: &madeleine::DeathWatch,
    grace_window: Duration,
    tid: u64,
) -> ThreadExit {
    let overall = Instant::now() + Duration::from_secs(300);
    let mut grace = None;
    loop {
        if let Some(e) = registry.wait(tid, Duration::from_millis(10)) {
            return e;
        }
        registry.fail_if_owner_dead(tid, |n| watch.is_dead(n), grace_window, &mut grace);
        assert!(Instant::now() < overall, "thread {tid:#x} never completed");
    }
}

/// Effective executor pool size: the `workers` knob, or — at the default
/// 0 — the host's available parallelism; never more threads than nodes.
/// The auto floor is 2 so one handler blocking in native code (a sleep, a
/// syscall) cannot stall every other node on a single-core host — the
/// responsiveness thread-per-node gave for free.
fn effective_workers(cfg: &Pm2Config) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    let w = if cfg.workers == 0 { auto } else { cfg.workers };
    w.clamp(1, cfg.nodes.max(1))
}
