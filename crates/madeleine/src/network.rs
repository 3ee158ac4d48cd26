//! The in-process fabric.
//!
//! [`Fabric::new`] wires `n` endpoints together, one inbox per node.  An
//! inbox is a bounded multi-producer, single-consumer ring of
//! sequence-numbered slots (Vyukov's bounded queue, with one consumer) and a
//! locked overflow lane behind it.  A send claims a slot with one
//! compare-and-swap on the ring's tail and publishes it with a store; a
//! receive is loads and stores, and an empty poll is one load of the tail.
//! When the ring is full the overflow lane takes the push, and every push
//! after it until the owner has drained the lane, so order holds across the
//! switch.  The lane keeps its room and the ring never grows, so a message
//! allocates nothing in steady state.  Message order is preserved per
//! sender/receiver pair, as on a real Myrinet source-routed network.
//!
//! The wire model is **receiver-clocked**: a send is asynchronous (BIP DMAs
//! the frame out), and the destination pays `latency + bytes × per-byte
//! cost` for each message as it dequeues it — BIP receives are polled by
//! the host CPU, so the receiving node is genuinely occupied for the
//! transfer.  Receiver-clocking is what serializes a gather of `p − 1`
//! bitmaps at the negotiation initiator, the effect behind the paper's
//! "another 165 µs per extra node".  Self-sends are free (no NIC).
//!
//! The data plane is zero-copy: [`Endpoint::send`] takes anything
//! convertible [`Into<Payload>`] and ships the sealed buffer by reference
//! count — no copy on send, one shared buffer for an entire
//! [`Endpoint::broadcast`], and pooled buffers (see [`crate::buf`]) recycle
//! where the receiver drops them.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::buf::{BufPool, Payload};
use crate::chaos::{EndpointChaos, FaultPlan};
use crate::doorbell::Doorbell;
use crate::message::Message;
use crate::profile::{spin_for, NetProfile};
use crate::stats::{EndpointStats, EndpointStatsSnapshot};

/// Partition group id meaning "reachable from every group" — used for
/// nodes outside either side of a cut (e.g. an embedder's host endpoint).
pub const WILD_GROUP: u8 = u8::MAX;

/// Errors from the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination node id is outside the fabric.
    NoSuchNode(usize),
    /// The destination endpoint has been dropped.
    Disconnected(usize),
    /// The named node has been declared dead ([`Endpoint::mark_dead`]).
    /// Sends *to* a corpse fail instead of enqueuing to nowhere, and sends
    /// *from* a corpse fail so a zombie driver cannot keep talking.
    NodeDead(usize),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            NetError::Disconnected(n) => write!(f, "node {n} disconnected"),
            NetError::NodeDead(n) => write!(f, "node {n} is dead"),
        }
    }
}

impl std::error::Error for NetError {}

/// Slots in an inbox's ring (a power of two).  Past this many messages
/// queued at once, the overflow lane takes the pushes.
const RING: usize = 64;

/// Flag bits of [`Inbox::tail`], above the push position.
const CLOSED: usize = 1 << (usize::BITS - 1);
/// The overflow lane is non-empty (or about to be): every push goes there.
const OVERFLOW: usize = 1 << (usize::BITS - 2);
/// The owner is asleep on the condvar, or committed to it.
const ASLEEP: usize = 1 << (usize::BITS - 3);
/// The push position: the bits below the flags.
const POS: usize = ASLEEP - 1;

/// One ring slot.  `seq` says whose turn it is: `pos` while it waits for
/// the push of position `pos`, `pos + 1` once that push's message is in it,
/// and `pos + RING` when the owner has taken it (free for the next lap).
struct Slot {
    seq: AtomicUsize,
    msg: UnsafeCell<MaybeUninit<Message>>,
}

/// One endpoint's inbox.  Any thread pushes; only the owning endpoint pops
/// (an endpoint is not `Sync`).  Where a push goes and whether the owner
/// must be woken are both read off `tail` by the push's one
/// compare-and-swap.
struct Inbox {
    /// The next push position, with the `CLOSED`, `OVERFLOW` and `ASLEEP`
    /// flags on top.
    tail: AtomicUsize,
    /// The next position to pop; written by the owner only.
    head: AtomicUsize,
    ring: Box<[Slot]>,
    /// The overflow lane, and the lock a host receiver sleeps under.
    lane: Mutex<VecDeque<Message>>,
    arrived: Condvar,
}

// SAFETY: `tail`, `head` and each `seq` are atomics and the lane is behind
// its mutex.  A slot's message (`Message` is `Send`) is written only by the
// push whose tail CAS claimed the slot, before it publishes `seq`, and read
// only by the owner after it observes `seq`, which it then hands back with
// a release store: no two threads touch a message at once.
unsafe impl Sync for Inbox {}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            ring: (0..RING)
                .map(|pos| Slot {
                    seq: AtomicUsize::new(pos),
                    msg: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            lane: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
        }
    }

    fn lock_lane(&self) -> MutexGuard<'_, VecDeque<Message>> {
        // A panic under this lock leaves the lane whole: push and pop are
        // single `VecDeque` calls.
        self.lane.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append `msg`; `false` if the owner is gone.  One CAS on the ring's
    /// tail; the lane's lock only while it is in use, and a wake-up only if
    /// the owner is counted asleep.
    fn push(&self, msg: Message) -> bool {
        let mut t = self.tail.load(Ordering::Relaxed);
        loop {
            if t & CLOSED != 0 {
                return false;
            }
            if t & OVERFLOW != 0 {
                return self.push_lane(msg);
            }
            let pos = t & POS;
            let slot = &self.ring[pos % RING];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.tail.compare_exchange_weak(
                    t,
                    t + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS made this push the one writer of
                        // the slot, which the owner has emptied (`seq`).
                        unsafe { (*slot.msg.get()).write(msg) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        if t & ASLEEP != 0 {
                            drop(self.lock_lane());
                            self.arrived.notify_one();
                        }
                        return true;
                    }
                    Err(now) => t = now,
                }
            } else if (seq.wrapping_sub(pos) as isize) < 0 {
                // Still holding the message of the last lap: full.
                return self.push_lane(msg);
            } else {
                // Another push claimed it first.
                t = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// The overflow lane's push: set `OVERFLOW` (so every later push comes
    /// here too, behind this one) and append, under the lane's lock.
    fn push_lane(&self, msg: Message) -> bool {
        let mut lane = self.lock_lane();
        let t = self.tail.fetch_or(OVERFLOW, Ordering::AcqRel);
        if t & CLOSED != 0 {
            return false;
        }
        lane.push_back(msg);
        if t & ASLEEP != 0 {
            self.arrived.notify_one();
        }
        true
    }

    /// The next message, if one is published: the ring's, then — once the
    /// ring is drained — the lane's.  An empty inbox costs one load.
    fn try_pop(&self) -> Option<Message> {
        let head = self.head.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Acquire) & (POS | OVERFLOW);
        if t == head {
            return None;
        }
        if t & POS == head {
            // Every ring push has been taken: the rest is in the lane.
            return self.pop_lane();
        }
        let slot = &self.ring[head % RING];
        if slot.seq.load(Ordering::Acquire) != head + 1 {
            // Claimed, not yet published: its push rings the bell (or
            // wakes a sleeper) once it is.
            return None;
        }
        // SAFETY: `seq` says the message of position `head` is in the slot,
        // and only the owner takes it.
        let msg = unsafe { (*slot.msg.get()).assume_init_read() };
        slot.seq.store(head + RING, Ordering::Release);
        self.head.store(head + 1, Ordering::Relaxed);
        Some(msg)
    }

    /// The lane's next message; the last one clears `OVERFLOW`, under the
    /// lock every lane push takes, so the ring takes the pushes again.
    fn pop_lane(&self) -> Option<Message> {
        let mut lane = self.lock_lane();
        let m = lane.pop_front();
        if lane.is_empty() {
            self.tail.fetch_and(!OVERFLOW, Ordering::AcqRel);
        }
        m
    }

    /// Pop, sleeping for a push until `deadline`.  The owner counts itself
    /// asleep by setting `ASLEEP` with the lane's lock held, and only if
    /// nothing has been pushed since it looked; a push whose CAS then sees
    /// the flag takes that lock before it notifies, so it cannot slip in
    /// between the look and the wait.
    fn pop_until(&self, deadline: Instant) -> Option<Message> {
        loop {
            if let Some(m) = self.try_pop() {
                return Some(m);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let lane = self.lock_lane();
            let head = self.head.load(Ordering::Relaxed);
            let t = self.tail.load(Ordering::Relaxed);
            let idle = t & (POS | OVERFLOW) == head;
            if !idle
                || self
                    .tail
                    .compare_exchange(t, t | ASLEEP, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
            {
                // A push is on its way (claimed, not yet published), or
                // one just landed: look again.
                drop(lane);
                std::thread::yield_now();
                continue;
            }
            let lane = self
                .arrived
                .wait_timeout(lane, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            self.tail.fetch_and(!ASLEEP, Ordering::AcqRel);
            drop(lane);
        }
    }

    /// Take every message the ring holds from `head` up to position `end`,
    /// waiting out pushes that claimed a slot but have not published it.
    fn drain_ring(&self, end: usize) {
        let mut head = self.head.load(Ordering::Relaxed);
        while head != end {
            let slot = &self.ring[head % RING];
            while slot.seq.load(Ordering::Acquire) != head + 1 {
                std::thread::yield_now();
            }
            // SAFETY: published, and only the owner takes it.
            drop(unsafe { (*slot.msg.get()).assume_init_read() });
            slot.seq.store(head + RING, Ordering::Release);
            head += 1;
        }
        self.head.store(head, Ordering::Relaxed);
    }

    /// The owner is gone: refuse further sends and drop what is queued
    /// (pooled payloads go home now, not when the fabric dies).
    fn close(&self) {
        let t = self.tail.fetch_or(CLOSED, Ordering::AcqRel);
        if t & CLOSED == 0 {
            self.drain_ring(t & POS);
            self.lock_lane().clear();
        }
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        // Every endpoint closes its inbox; this is for one that never did.
        self.close();
    }
}

struct Shared {
    inboxes: Vec<Inbox>,
    profile: NetProfile,
    stats: Vec<Arc<EndpointStats>>,
    /// Doorbell rung when a message is enqueued for node *i*.
    doorbells: Vec<Doorbell>,
    /// Death certificates, one per node.  Set once (never cleared) by
    /// [`Endpoint::mark_dead`]; the send path refuses traffic to *and from*
    /// a flagged node, turning "enqueue to nowhere" into a typed error the
    /// moment a failure is declared.
    dead: Vec<AtomicBool>,
    /// Whether a runtime partition is in force.  It gates the lock, so
    /// the unpartitioned send path costs one load.
    partition_on: AtomicBool,
    partition: Mutex<Partition>,
}

/// A runtime partition ([`Endpoint::set_partition`]) and what it holds.
struct Partition {
    /// One group id per node: a link between two groups is cut
    /// ([`WILD_GROUP`] reaches everything).
    groups: Vec<u8>,
    /// The messages sent on cut links, in send order.
    stalled: VecDeque<Message>,
}

impl Partition {
    /// Is `src → dst` cut?  Never with no groups (healed), and never a
    /// self-send.
    fn cuts(&self, src: usize, dst: usize) -> bool {
        match (self.groups.get(src), self.groups.get(dst)) {
            (Some(&a), Some(&b)) => a != WILD_GROUP && b != WILD_GROUP && a != b,
            _ => false,
        }
    }

    /// Deliver, in send order, every stalled message whose link the
    /// groups no longer cut.  One whose source or destination died
    /// meanwhile is a zombie: dropped (its payload goes home) and counted
    /// on its sender, under this lock.
    fn release(&mut self, shared: &Shared) {
        for m in std::mem::take(&mut self.stalled) {
            if self.cuts(m.src, m.dst) {
                self.stalled.push_back(m);
                continue;
            }
            let src = m.src;
            let dead = |n: usize| shared.dead[n].load(Ordering::Acquire);
            if dead(src) || dead(m.dst) || !shared.deliver(m) {
                shared.stats[src].zombies.add(1);
            }
        }
    }
}

impl Shared {
    /// Enqueue `msg` in its destination's inbox and ring the destination's
    /// bell; `false` if the inbox's owner is gone.  The ring comes strictly
    /// *after* the enqueue, and outside the inbox lock: the pump it
    /// provokes is then guaranteed to find the message (see `doorbell`),
    /// and takes that lock uncontended.
    fn deliver(&self, msg: Message) -> bool {
        let dst = msg.dst;
        if !self.inboxes[dst].push(msg) {
            return false;
        }
        self.doorbells[dst].ring();
        true
    }

    fn lock_partition(&self) -> MutexGuard<'_, Partition> {
        self.partition
            .lock()
            .expect("a panic while the partition lock was held")
    }
}

/// Factory for a set of connected endpoints.
pub struct Fabric;

impl Fabric {
    /// Build an `n`-node fabric; returns one [`Endpoint`] per node, in node
    /// order, each with its own doorbell.  (`Fabric` itself is a pure
    /// factory and holds no state.)
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize, profile: NetProfile) -> Vec<Endpoint> {
        Fabric::build(n, profile, None)
    }

    /// [`Fabric::new`] under a seeded [`FaultPlan`]: the send path may
    /// delay eligible messages (see [`crate::chaos`]).
    pub fn new_chaotic(n: usize, profile: NetProfile, plan: FaultPlan) -> Vec<Endpoint> {
        Fabric::build(n, profile, Some(plan))
    }

    fn build(n: usize, profile: NetProfile, plan: Option<FaultPlan>) -> Vec<Endpoint> {
        assert!(n >= 1, "a fabric needs at least one node");
        let stats: Vec<_> = (0..n).map(|_| Arc::new(EndpointStats::default())).collect();
        let dead = (0..n).map(|_| AtomicBool::new(false)).collect();
        let shared = Arc::new(Shared {
            inboxes: (0..n).map(|_| Inbox::new()).collect(),
            profile,
            stats,
            doorbells: (0..n).map(|_| Doorbell::new()).collect(),
            dead,
            partition_on: AtomicBool::new(false),
            partition: Mutex::new(Partition {
                groups: Vec::new(),
                stalled: VecDeque::new(),
            }),
        });
        (0..n)
            .map(|node| Endpoint {
                node,
                chaos: plan.as_ref().map(|p| EndpointChaos::new(p, node, n)),
                _unshared: PhantomData,
                shared: Arc::clone(&shared),
                pool: BufPool::new(),
            })
            .collect()
    }
}

/// A cheap, cloneable, `Send + Sync` view of the fabric's death
/// certificates.  Lets host-side handles (a typed join handle, say)
/// observe node deaths without holding an [`Endpoint`] — an endpoint owns
/// its inbox and cannot be cloned.
#[derive(Clone)]
pub struct DeathWatch {
    shared: Arc<Shared>,
}

impl DeathWatch {
    /// True when `node` has been declared dead ([`Endpoint::mark_dead`]).
    pub fn is_dead(&self, node: usize) -> bool {
        self.shared
            .dead
            .get(node)
            .is_some_and(|f| f.load(Ordering::Acquire))
    }
}

/// One node's attachment to the fabric.
///
/// An endpoint may move to another thread, but two threads may never
/// share one: it is `Send` and not `Sync`.
///
/// ```
/// fn movable<T: Send>() {}
/// movable::<madeleine::Endpoint>();
/// ```
///
/// ```compile_fail
/// fn shareable<T: Sync>() {}
/// shareable::<madeleine::Endpoint>();
/// ```
pub struct Endpoint {
    node: usize,
    shared: Arc<Shared>,
    /// This endpoint's payload-buffer pool: outgoing traffic checks out of
    /// it, and drops on the thread driving this node recycle into it.
    pool: BufPool,
    /// Delay injection, present only on chaotic fabrics: per-link RNG
    /// streams, drawn by this endpoint's owner.
    chaos: Option<EndpointChaos>,
    /// Makes the endpoint `!Sync` whatever its other fields are: its inbox
    /// has one consumer (pops take no lock) and its send counters one
    /// writer (plain loads and stores, see `counters.rs`).
    _unshared: PhantomData<Cell<()>>,
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Number of nodes on the fabric.
    pub fn n_nodes(&self) -> usize {
        self.shared.inboxes.len()
    }

    /// The wire model in force.
    pub fn profile(&self) -> NetProfile {
        self.shared.profile
    }

    /// This endpoint's payload-buffer pool.  Check hot-path payloads out of
    /// it (directly or via [`crate::message::PayloadWriter::pooled`]) so
    /// steady-state traffic allocates nothing.
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// A cloneable [`DeathWatch`] over this fabric's death certificates.
    pub fn death_watch(&self) -> DeathWatch {
        DeathWatch {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Send `payload` to `dst` under `tag`.  Asynchronous; the modelled
    /// wire time is recorded on the message and charged at the receiver.
    ///
    /// Accepts anything [`Into<Payload>`]: a pool checkout or a sealed
    /// [`Payload`] ships with no copy, a `Vec<u8>` is adopted by refcount,
    /// a `&[u8]` is copied.
    pub fn send(&self, dst: usize, tag: u16, payload: impl Into<Payload>) -> Result<(), NetError> {
        self.send_payload(dst, tag, payload.into())
    }

    fn send_payload(&self, dst: usize, tag: u16, payload: Payload) -> Result<(), NetError> {
        if dst >= self.shared.inboxes.len() {
            return Err(NetError::NoSuchNode(dst));
        }
        // A dead destination is unreachable; a dead *source* is a zombie
        // whose late traffic must be dropped at the NIC, not delivered.
        if self.shared.dead[dst].load(Ordering::Acquire) {
            return Err(NetError::NodeDead(dst));
        }
        if self.shared.dead[self.node].load(Ordering::Acquire) {
            return Err(NetError::NodeDead(self.node));
        }
        let profile = &self.shared.profile;
        let mut wire_ns = if dst != self.node && !profile.is_instant() {
            profile.delay_for(payload.len()).as_nanos() as u64
        } else {
            0
        };
        let stats = &self.shared.stats[self.node];
        if let Some(chaos) = self.chaos.as_ref().filter(|_| dst != self.node) {
            // Chaos delay is modelled wire time: charged at the receiver
            // on dequeue, like the profile's own latency.
            let extra = chaos.delay(dst);
            if extra > 0 {
                wire_ns += extra;
                stats.chaos_delayed.add(1);
            }
        }
        let msg = Message {
            src: self.node,
            dst,
            tag,
            wire_ns,
            payload,
        };
        let Some(msg) = self.stall_if_cut(msg) else {
            return Ok(());
        };
        let len = msg.len();
        if !self.shared.deliver(msg) {
            return Err(NetError::Disconnected(dst));
        }
        stats.msgs_sent.add(1);
        stats.bytes_sent.add(len as u64);
        Ok(())
    }

    /// Keep `msg` in the fabric if a partition cuts its link, as a TCP
    /// stream keeps what a cut cable does not carry: it is sent, and the
    /// sender sees success.  Hands it back when no partition is in force
    /// (one load) or its link is whole.  Self-sends never stall.
    fn stall_if_cut(&self, msg: Message) -> Option<Message> {
        if !self.shared.partition_on.load(Ordering::Acquire) {
            return Some(msg);
        }
        let mut partition = self.shared.lock_partition();
        if !partition.cuts(self.node, msg.dst) {
            return Some(msg);
        }
        let stats = &self.shared.stats[self.node];
        stats.stalled.add(1);
        stats.msgs_sent.add(1);
        stats.bytes_sent.add(msg.len() as u64);
        partition.stalled.push_back(msg);
        None
    }

    /// Impose a runtime partition: every link between nodes with different
    /// group ids is cut, both directions, all tags; [`WILD_GROUP`] entries
    /// reach everything.  A cut link *stalls*: what is sent on it is kept
    /// in send order and delivered when the link heals — by
    /// [`Endpoint::clear_partition`], or by a later grouping that no longer
    /// cuts it — ahead of anything sent on it after.  `groups` must have
    /// one entry per node.  Works on any fabric, fault plan or not.
    pub fn set_partition(&self, groups: Vec<u8>) {
        assert_eq!(groups.len(), self.n_nodes(), "one group id per node");
        let mut partition = self.shared.lock_partition();
        partition.groups = groups;
        partition.release(&self.shared);
        self.shared.partition_on.store(true, Ordering::Release);
    }

    /// Heal a [`Endpoint::set_partition`] cut: every stalled message is
    /// delivered, in send order, before any later send on its link — or
    /// dropped as a zombie if its source or destination died meanwhile
    /// (counted on the sender's `zombies`).
    pub fn clear_partition(&self) {
        let mut partition = self.shared.lock_partition();
        partition.groups.clear();
        partition.release(&self.shared);
        // Under the lock, after the release: a send that reads the flag
        // clear finds every stalled message of its link delivered.
        self.shared.partition_on.store(false, Ordering::Release);
    }

    fn charge_and_count(&self, m: Message) -> Message {
        if m.wire_ns > 0 {
            spin_for(Duration::from_nanos(m.wire_ns));
        }
        let stats = &self.shared.stats[self.node];
        stats.msgs_recv.add(1);
        stats.bytes_recv.add(m.len() as u64);
        stats.wire_ns.add(m.wire_ns);
        m
    }

    /// Send the same payload to every other node (negotiation scatter).
    ///
    /// The payload is sealed **once**; each destination receives a
    /// refcount bump of the same buffer, so fan-out cost is independent of
    /// the payload size and no per-destination copies are made.
    ///
    /// Every survivor gets it: a destination that is dead or dropped —
    /// known before the fan-out or found during it — is skipped, not an
    /// abort (the NODE_DEAD announcement itself must reach the rest).  Only
    /// the sender's own death fails the call.
    pub fn broadcast(&self, tag: u16, payload: impl Into<Payload>) -> Result<(), NetError> {
        let payload = payload.into();
        for dst in (0..self.n_nodes()).filter(|&dst| dst != self.node) {
            match self.send_payload(dst, tag, payload.clone()) {
                Err(e @ NetError::NodeDead(n)) if n == self.node => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }

    /// Declare `node` dead fabric-wide.  Idempotent and irreversible: every
    /// subsequent send to — or from — `node` fails with
    /// [`NetError::NodeDead`].  Messages already enqueued are unaffected
    /// (they were "on the wire" when the node died); embedders drop those
    /// at dispatch by checking the source against their own dead set.
    pub fn mark_dead(&self, node: usize) {
        let Some(flag) = self.shared.dead.get(node) else {
            return;
        };
        if !flag.swap(true, Ordering::AcqRel) {
            // News, and nobody polls for it: wake every driver — the
            // corpse's to observe its own death instead of parking forever,
            // the survivors' to fail what they have waiting on it.
            self.shared.doorbells.iter().for_each(|bell| bell.ring());
        }
    }

    /// Has `node` been declared dead?
    pub fn is_dead(&self, node: usize) -> bool {
        self.shared
            .dead
            .get(node)
            .is_some_and(|f| f.load(Ordering::Acquire))
    }

    fn inbox(&self) -> &Inbox {
        &self.shared.inboxes[self.node]
    }

    /// Non-blocking poll.  If a message is pending, the caller pays its
    /// modelled wire time (the receive is where a BIP node spends the CPU).
    /// An empty inbox costs one atomic load.
    pub fn try_recv(&self) -> Option<Message> {
        let m = self.inbox().try_pop()?;
        Some(self.charge_and_count(m))
    }

    /// Is a message queued for this endpoint?  One load of each end of the
    /// inbox.  A push that has claimed its slot but not yet published it
    /// counts, though [`Endpoint::try_recv`] cannot take it yet: it rings
    /// the doorbell once it lands.
    pub fn pending(&self) -> bool {
        let inbox = self.inbox();
        inbox.tail.load(Ordering::Acquire) & (POS | OVERFLOW) != inbox.head.load(Ordering::Relaxed)
    }

    /// Blocking receive with a timeout; `None` on timeout.  The wait is a
    /// genuine park (no polling): a send wakes the caller the moment the
    /// message is enqueued.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.recv_until(Instant::now() + timeout)
    }

    /// Blocking receive until `deadline`; `None` once the deadline passes.
    /// Like [`Endpoint::recv_timeout`], this parks — it never slices the
    /// wait into polls — and a past deadline is a non-blocking poll.
    pub fn recv_until(&self, deadline: Instant) -> Option<Message> {
        let m = self.inbox().pop_until(deadline)?;
        Some(self.charge_and_count(m))
    }

    /// The doorbell rung whenever a message is enqueued for this endpoint:
    /// a driver installs its listener here to be scheduled on arrival.
    pub fn doorbell(&self) -> &Doorbell {
        &self.shared.doorbells[self.node]
    }

    /// Statistics for this endpoint.
    pub fn stats(&self) -> EndpointStatsSnapshot {
        self.shared.stats[self.node].snapshot()
    }

    /// Statistics for an arbitrary node (host-side reporting).
    pub fn stats_of(&self, node: usize) -> Option<EndpointStatsSnapshot> {
        self.shared.stats.get(node).map(|s| s.snapshot())
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.inbox().close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn point_to_point_delivery() {
        let eps = Fabric::new(2, NetProfile::instant());
        eps[0].send(1, 7, vec![1, 2, 3]).unwrap();
        let m = eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((m.src, m.dst, m.tag), (0, 1, 7));
        assert_eq!(m.payload, vec![1, 2, 3]);
        assert!(eps[1].try_recv().is_none());
    }

    /// Order holds across the ring and its overflow lane, and `pending`
    /// tells, at each pop, whether `try_recv` has a message to give.
    #[test]
    fn per_pair_ordering() {
        let eps = Fabric::new(2, NetProfile::instant());
        assert!(!eps[1].pending());
        for i in 0..100u8 {
            eps[0].send(1, 0, vec![i]).unwrap();
        }
        for i in 0..100u8 {
            assert!(eps[1].pending(), "message {i} is queued");
            let m = eps[1].try_recv().unwrap();
            assert_eq!(m.payload[0], i);
        }
        assert!(!eps[1].pending());
    }

    #[test]
    fn cross_thread_delivery() {
        let mut eps = Fabric::new(2, NetProfile::instant());
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            let m = e1.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(m.tag, 9);
            e1.send(0, 10, m.payload).unwrap();
        });
        e0.send(1, 9, vec![42]).unwrap();
        let back = e0.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(back.tag, 10);
        assert_eq!(back.payload, vec![42]);
        t.join().unwrap();
    }

    #[test]
    fn wire_model_is_charged_at_the_receiver() {
        // 100 µs latency profile: sends are async and cheap…
        let profile = NetProfile {
            name: "test",
            latency_ns: 100_000,
            ns_per_byte: 0.0,
        };
        let eps = Fabric::new(2, profile);
        let t0 = Instant::now();
        for _ in 0..10 {
            eps[0].send(1, 0, Vec::new()).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_micros(500),
            "sends must be async"
        );
        // …while dequeuing the 10 messages serializes ≥ 1 ms of wire time.
        let t0 = Instant::now();
        for _ in 0..10 {
            eps[1].try_recv().unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_micros(1000));
        assert!(eps[1].stats().wire_ns >= 1_000_000);
        // Self-sends are free on both sides.
        let t0 = Instant::now();
        for _ in 0..10 {
            eps[0].send(0, 0, Vec::new()).unwrap();
            eps[0].try_recv().unwrap();
        }
        assert!(t0.elapsed() < Duration::from_micros(500));
    }

    #[test]
    fn broadcast_reaches_everyone_but_self() {
        let eps = Fabric::new(4, NetProfile::instant());
        eps[2].broadcast(5, &[9]).unwrap();
        for (i, ep) in eps.iter().enumerate() {
            if i == 2 {
                assert!(ep.try_recv().is_none());
            } else {
                assert_eq!(ep.try_recv().unwrap().tag, 5);
            }
        }
    }

    /// A destination that fails during the fan-out is skipped: the
    /// survivors behind it still get the broadcast, and only the sender's
    /// own death fails the call.
    #[test]
    fn broadcast_reaches_the_survivors_behind_a_dropped_endpoint() {
        let mut eps = Fabric::new(4, NetProfile::instant());
        drop(eps.remove(1));
        let (e0, survivors) = (&eps[0], &eps[1..]);
        assert_eq!(e0.send(1, 0, Vec::new()), Err(NetError::Disconnected(1)));
        e0.broadcast(5, vec![9]).unwrap();
        for ep in survivors {
            assert_eq!(ep.try_recv().map(|m| (m.src, m.tag)), Some((0, 5)));
        }
        survivors[0].mark_dead(0);
        assert_eq!(e0.broadcast(5, Vec::new()), Err(NetError::NodeDead(0)));
    }

    #[test]
    fn broadcast_aliases_one_buffer() {
        let eps = Fabric::new(17, NetProfile::instant());
        let mut b = eps[0].pool().checkout(1024);
        b.extend_from_slice(&[0xC3; 1024]);
        eps[0].broadcast(5, b).unwrap();
        let msgs: Vec<Message> = eps[1..]
            .iter()
            .map(|ep| ep.try_recv().expect("delivered"))
            .collect();
        let first = msgs[0].payload.as_ptr();
        for m in &msgs {
            assert_eq!(
                m.payload.as_ptr(),
                first,
                "all receivers must share one buffer"
            );
            assert_eq!(m.payload.len(), 1024);
        }
        // One checkout allocation for the whole 16-way fan-out…
        assert_eq!(eps[0].pool().stats().allocs, 1);
        // …recycled once the last receiver lets go.
        drop(msgs);
        assert_eq!(eps[0].pool().free_len(), 1);
    }

    #[test]
    fn pooled_sends_reuse_one_buffer() {
        let eps = Fabric::new(2, NetProfile::instant());
        let mut ptr = None;
        for round in 0..32u8 {
            let mut b = eps[0].pool().checkout(256);
            b.extend_from_slice(&[round; 200]);
            eps[0].send(1, 3, b).unwrap();
            let m = eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.payload, vec![round; 200]);
            match ptr {
                None => ptr = Some(m.payload.as_ptr()),
                Some(p) => assert_eq!(m.payload.as_ptr(), p, "round {round} re-allocated"),
            }
        }
        let s = eps[0].pool().stats();
        assert_eq!(s.allocs, 1, "steady state must not allocate: {s:?}");
        assert_eq!(s.reuses, 31);
    }

    #[test]
    fn send_rings_destination_doorbell() {
        use std::sync::atomic::AtomicUsize;
        let eps = Fabric::new(3, NetProfile::instant());
        let rings = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&rings);
        eps[1].doorbell().set_listener(Arc::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        eps[0].send(1, 0, Vec::new()).unwrap();
        assert_eq!(rings.load(Ordering::SeqCst), 1);
        // A send to node 2 rings node 2's bell only: bells are per endpoint.
        eps[0].send(2, 0, Vec::new()).unwrap();
        assert_eq!(rings.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn parked_receiver_wakes_on_send() {
        let mut eps = Fabric::new(2, NetProfile::instant());
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            e1.recv_until(Instant::now() + Duration::from_secs(5))
                .expect("woken with a message pending")
        });
        std::thread::sleep(Duration::from_millis(10));
        e0.send(1, 9, vec![1]).unwrap();
        let m = t.join().unwrap();
        assert_eq!(m.tag, 9);
    }

    #[test]
    fn recv_until_respects_past_deadlines() {
        let eps = Fabric::new(2, NetProfile::instant());
        // Expired deadline: degenerates to a non-blocking poll.
        assert!(eps[1].recv_until(Instant::now()).is_none());
        eps[0].send(1, 4, Vec::new()).unwrap();
        assert_eq!(eps[1].recv_until(Instant::now()).unwrap().tag, 4);
    }

    #[test]
    fn bad_destination() {
        let eps = Fabric::new(2, NetProfile::instant());
        assert_eq!(eps[0].send(5, 0, Vec::new()), Err(NetError::NoSuchNode(5)));
    }

    #[test]
    fn dead_node_refuses_traffic_both_ways() {
        let eps = Fabric::new(3, NetProfile::instant());
        eps[0].send(1, 0, vec![1]).unwrap();
        eps[0].mark_dead(1);
        assert!(
            eps[1].is_dead(1) && eps[2].is_dead(1),
            "death is fabric-wide"
        );
        // To the corpse: typed error, not enqueue-to-nowhere.
        assert_eq!(eps[0].send(1, 0, Vec::new()), Err(NetError::NodeDead(1)));
        // From the corpse (zombie): also refused.
        assert_eq!(eps[1].send(2, 0, Vec::new()), Err(NetError::NodeDead(1)));
        // In-flight messages from before the death are still deliverable.
        assert_eq!(eps[1].try_recv().unwrap().payload, vec![1]);
        // Broadcast skips the corpse and reaches the survivor.
        eps[0].broadcast(7, Vec::new()).unwrap();
        assert_eq!(eps[2].try_recv().unwrap().tag, 7);
        // mark_dead is idempotent.
        eps[2].mark_dead(1);
        assert!(eps[0].is_dead(1));
    }

    /// Drive the same send schedule through a chaotic fabric and return
    /// the wire time of each message node 1 receives.
    fn chaos_run(plan: FaultPlan, sends: usize) -> (Vec<u64>, EndpointStatsSnapshot) {
        let eps = Fabric::new_chaotic(2, NetProfile::instant(), plan);
        for i in 0..sends {
            eps[0].send(1, (i % 7) as u16, vec![i as u8]).unwrap();
        }
        let mut got = Vec::new();
        while let Some(m) = eps[1].inbox().try_pop() {
            assert_eq!(m.payload[0], got.len() as u8, "once and in order");
            got.push(m.wire_ns);
        }
        (got, eps[0].stats())
    }

    #[test]
    fn identical_fault_plan_seeds_replay_byte_identically() {
        let plan = FaultPlan::new(0x5EED).with_delay(0.10, Duration::from_nanos(10));
        let (a, sa) = chaos_run(plan.clone(), 2000);
        let (b, sb) = chaos_run(plan, 2000);
        assert_eq!(a.len(), 2000, "a delay plan loses nothing");
        assert_eq!(a, b, "same seed ⇒ identical delay schedule");
        assert_eq!(sa, sb, "…and identical counters");
        assert!(sa.chaos_delayed > 0);
        let other = FaultPlan::new(0x0DD5_EED0).with_delay(0.10, Duration::from_nanos(10));
        let (c, _) = chaos_run(other, 2000);
        assert_ne!(a, c, "a different seed must reshuffle the schedule");
    }

    #[test]
    fn self_sends_are_never_faulted() {
        let plan = FaultPlan::new(4).with_delay(1.0, Duration::from_millis(1));
        let eps = Fabric::new_chaotic(2, NetProfile::instant(), plan);
        for _ in 0..20 {
            eps[0].send(0, 1, Vec::new()).unwrap();
            assert_eq!(eps[0].try_recv().map(|m| m.wire_ns), Some(0));
        }
        assert_eq!(eps[0].stats().chaos_delayed, 0);
    }

    #[test]
    fn chaos_delay_is_charged_at_the_receiver() {
        let plan = FaultPlan::new(5).with_delay(1.0, Duration::from_micros(200));
        let eps = Fabric::new_chaotic(2, NetProfile::instant(), plan);
        for _ in 0..5 {
            eps[0].send(1, 0, Vec::new()).unwrap();
        }
        let t0 = Instant::now();
        for _ in 0..5 {
            eps[1].try_recv().unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_micros(1000));
        assert_eq!(eps[0].stats().chaos_delayed, 5);
        assert!(eps[1].stats().wire_ns >= 1_000_000);
    }

    #[test]
    fn runtime_partition_stalls_then_heals_in_order() {
        let eps = Fabric::new(4, NetProfile::instant());
        // {0,1} vs {2}; node 3 is wild (an embedder's host endpoint).
        eps[0].set_partition(vec![0, 0, 1, WILD_GROUP]);
        eps[0].send(2, 7, Vec::new()).unwrap(); // stalled
        eps[2].send(1, 7, Vec::new()).unwrap(); // stalled, the other way
        eps[0].send(1, 8, Vec::new()).unwrap(); // intra-set: flows
        eps[3].send(2, 9, Vec::new()).unwrap(); // wild: flows
        eps[2].send(2, 6, Vec::new()).unwrap(); // self: flows
        let tags = |ep: &Endpoint| -> Vec<u16> {
            std::iter::from_fn(|| ep.try_recv().map(|m| m.tag)).collect()
        };
        assert_eq!(tags(&eps[2]), [9, 6]);
        assert_eq!(tags(&eps[1]), [8]);
        assert_eq!((eps[0].stats().stalled, eps[2].stats().stalled), (1, 1));
        assert_eq!(eps[0].stats().msgs_sent, 2, "a stalled message is sent");
        eps[0].send(2, 10, Vec::new()).unwrap();
        // A new grouping that no longer cuts 2 → 1 releases that link only.
        eps[3].set_partition(vec![0, 1, 1, WILD_GROUP]);
        assert_eq!(tags(&eps[1]), [7]);
        assert!(eps[2].try_recv().is_none(), "0 → 2 is still cut");
        // Heal: the stalled messages first, in send order, then the rest.
        eps[1].clear_partition();
        eps[0].send(2, 11, Vec::new()).unwrap();
        assert_eq!(tags(&eps[2]), [7, 10, 11]);
        assert_eq!(eps[0].stats().zombies, 0);
    }

    /// Two senders keep sending to a third node through a cut and a heal,
    /// while the host endpoint cuts and heals the links over and over: each
    /// link's messages arrive once and in order, the stalled ones ahead of
    /// those sent after their heal.
    #[test]
    fn senders_through_cuts_and_heals_keep_each_link_once_and_in_order() {
        use std::sync::atomic::AtomicU64;
        const PER_SENDER: u64 = 20_000;
        let mut eps = Fabric::new(4, NetProfile::instant());
        let host = eps.pop().unwrap();
        let receiver = eps.pop().unwrap();
        let sent = Arc::new(AtomicU64::new(0));
        let senders: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let sent = Arc::clone(&sent);
                std::thread::spawn(move || {
                    for i in 0..PER_SENDER {
                        ep.send(2, 1, i.to_le_bytes().to_vec()).unwrap();
                        sent.fetch_add(1, Ordering::SeqCst);
                    }
                    ep
                })
            })
            .collect();
        let mut next = [0u64; 2];
        let mut rounds = 0;
        while next.iter().sum::<u64>() < 2 * PER_SENDER {
            if rounds < 50 && sent.load(Ordering::SeqCst) > rounds * 500 {
                host.set_partition(vec![0, 1, 2, WILD_GROUP]);
                std::thread::yield_now();
                host.clear_partition();
                rounds += 1;
            }
            if let Some(m) = receiver.recv_timeout(Duration::from_millis(1)) {
                let i = u64::from_le_bytes(m.payload[..].try_into().unwrap());
                assert_eq!(i, next[m.src], "sender {}: out of order or twice", m.src);
                next[m.src] += 1;
            }
        }
        let senders: Vec<Endpoint> = senders.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(receiver.try_recv().is_none(), "nothing delivered twice");
        let stalled: u64 = senders.iter().map(|ep| ep.stats().stalled).sum();
        assert!(
            stalled > 0 && rounds == 50,
            "{rounds} cuts stalled {stalled}"
        );
    }

    /// At the heal, a stalled message from or to a node declared dead
    /// meanwhile is dropped and counted, and its pooled buffer goes home.
    #[test]
    fn stalled_messages_of_the_dead_are_dropped_at_the_heal() {
        let eps = Fabric::new(4, NetProfile::instant());
        eps[3].set_partition(vec![0, 0, 1, WILD_GROUP]);
        for (src, dst) in [(0, 2), (1, 2), (2, 0), (2, 1)] {
            let mut b = eps[src].pool().checkout(64);
            b.extend_from_slice(&[src as u8; 64]);
            eps[src].send(dst, 1, b).unwrap();
        }
        eps[3].mark_dead(1);
        eps[3].clear_partition();
        assert_eq!(eps[2].try_recv().map(|m| m.src), Some(0));
        assert!(
            eps[2].try_recv().is_none(),
            "node 1's stalled message is a zombie"
        );
        assert_eq!(eps[0].try_recv().map(|m| m.src), Some(2));
        let zombies: Vec<u64> = (0..3).map(|n| eps[n].stats().zombies).collect();
        assert_eq!(zombies, [0, 1, 1], "from the corpse, and to it");
        for ep in &eps[..3] {
            let s = ep.pool().stats();
            assert_eq!(s.checkouts, s.reuses + s.allocs, "{s:?}");
            assert_eq!(ep.pool().free_len() as u64, s.allocs, "a buffer is lost");
        }
    }

    /// Four producers (three nodes and the host, to the fabric all alike)
    /// send pooled messages in rounds of bursts that overfill the ring, so
    /// the overflow lane takes over and is drained again, round after round;
    /// the consumer closes mid-stream.  Each producer's messages arrive once
    /// and in its order, every send after the close is refused, and every
    /// buffer — delivered or still queued at the close — goes home.
    #[test]
    fn producers_keep_their_order_through_overflow_and_a_close() {
        use std::sync::atomic::AtomicU64;
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 20_000;
        const BURST: u64 = 500;
        const TAKE: u64 = 50_000;
        let mut eps = Fabric::new(PRODUCERS + 1, NetProfile::instant());
        let consumer = eps.pop().unwrap();
        let taken = Arc::new(AtomicU64::new(0));
        let closed = Arc::new(AtomicBool::new(false));
        let pools: Vec<BufPool> = (0..PRODUCERS)
            .map(|_| BufPool::with_capacity_limit(usize::MAX))
            .collect();
        let producers: Vec<_> = eps
            .into_iter()
            .zip(pools.clone())
            .map(|(ep, pool)| {
                let (taken, closed) = (Arc::clone(&taken), Arc::clone(&closed));
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        // A round of bursts starts once the consumer has
                        // taken the whole last round.
                        while i % BURST == 0
                            && taken.load(Ordering::SeqCst) < i * PRODUCERS as u64
                            && !closed.load(Ordering::SeqCst)
                        {
                            std::thread::yield_now();
                        }
                        let mut b = pool.checkout(8);
                        b.extend_from_slice(&i.to_le_bytes());
                        if let Err(e) = ep.send(PRODUCERS, 1, b) {
                            assert_eq!(e, NetError::Disconnected(PRODUCERS));
                            assert_eq!(ep.send(PRODUCERS, 1, vec![1]), Err(e), "still refused");
                            return i;
                        }
                    }
                    PER_PRODUCER
                })
            })
            .collect();
        let mut next = [0u64; PRODUCERS];
        let (mut overflows, mut drains, mut in_lane) = (0, 0, false);
        for _ in 0..TAKE {
            let lane = consumer.inbox().tail.load(Ordering::SeqCst) & OVERFLOW != 0;
            match (in_lane, lane) {
                (false, true) => overflows += 1,
                (true, false) => drains += 1,
                _ => {}
            }
            in_lane = lane;
            let m = consumer
                .recv_timeout(Duration::from_secs(10))
                .expect("a producer is still sending");
            let i = u64::from_le_bytes(m.payload[..].try_into().unwrap());
            assert_eq!(i, next[m.src], "producer {}: out of order or twice", m.src);
            next[m.src] += 1;
            taken.fetch_add(1, Ordering::SeqCst);
        }
        closed.store(true, Ordering::SeqCst);
        drop(consumer);
        let sent: Vec<u64> = producers.into_iter().map(|p| p.join().unwrap()).collect();
        assert!(
            overflows >= 10 && drains >= 10,
            "{overflows} overflows, {drains} drains"
        );
        for (p, pool) in pools.iter().enumerate() {
            assert!(
                sent[p] >= next[p],
                "producer {p}: {} sent, {} taken",
                sent[p],
                next[p]
            );
            assert!(sent[p] < PER_PRODUCER, "producer {p} never saw the close");
            let s = pool.stats();
            assert_eq!(
                pool.free_len() as u64,
                s.allocs,
                "producer {p}: a buffer is lost"
            );
        }
    }

    #[test]
    fn stats_track_traffic() {
        let eps = Fabric::new(2, NetProfile::instant());
        eps[0].send(1, 0, vec![0; 50]).unwrap();
        eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(eps[0].stats().msgs_sent, 1);
        assert_eq!(eps[0].stats().bytes_sent, 50);
        assert_eq!(eps[1].stats().msgs_recv, 1);
        assert_eq!(eps[0].stats_of(1).unwrap().bytes_recv, 50);
    }
}
