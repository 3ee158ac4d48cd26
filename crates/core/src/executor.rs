//! The node executor — the one driver: M node drivers on N worker threads.
//!
//! Thread-per-node stops scaling long before the paper-sized p = 256: the
//! OS pays a stack and a scheduler entity per node, and a mostly-idle
//! machine still wakes hundreds of threads to do nothing.  So each node is
//! a state machine scheduled onto a fixed worker pool, and every machine
//! runs on it.  With one worker (`workers(1)`, what the test profile sets)
//! a single OS thread runs every node and every green thread in ready-queue
//! (ring) order — a function of the message history when the host is quiet:
//!
//! ```text
//!            ring (doorbell listener)          pop + CAS
//!   Idle ───────────────────────────▶ Queued ───────────▶ Running
//!    ▲                                  ▲                   │ │
//!    │ CAS Running→Idle (nothing to do) │ budget exhausted, │ │
//!    └──────────────────────────────────┴─ or Notified ─────┘ └▶ Done
//! ```
//!
//! * Every endpoint doorbell gets a listener
//!   ([`madeleine::Doorbell::set_listener`]) that moves the node
//!   `Idle → Queued` and pushes it on the shared ready queue.  Because a
//!   sender enqueues its message *before* ringing, a node observed `Idle`
//!   by the listener has the message already visible to its next pump —
//!   no wakeup is lost.
//! * A ring landing while the node runs flips it `Running → Notified`;
//!   the worker's park attempt (`Running → Idle`) then fails and requeues
//!   instead — the wakeup is deferred, never dropped.
//! * **Fairness budget**: a worker steps one node at most [`FAIRNESS`]
//!   times per dispatch, then swaps it to the *tail* of the queue.  One
//!   flooded node therefore costs every quiet node at most one budget's
//!   worth of latency per lap, instead of starving them outright.
//! * **Tick sweep**: protocol timers (failure detector, gossip rounds,
//!   periodic checkpoints, the `idle_park` liveness backstop) must fire on
//!   nodes nobody sends to.  When the sweep is due one worker
//!   (rate-limited) requeues every `Idle` node — counted as a
//!   `driver_wakeups` tick, like a timed-out park.  A node that parks
//!   while a green thread waits out a deadline in its wait table pulls
//!   the next sweep forward to that deadline, so the wait times out on
//!   time, not at the next tick.  The sweep is due by the clock: a
//!   sleeping worker times out at it, and a worker that never sleeps looks
//!   at it every [`FAIRNESS`] dispatches, so a busy pool's idle nodes keep
//!   their timers too.
//!
//! `NodeCtx` stays single-driver: the state machine guarantees a node is
//! `Running` on at most one worker, and the per-node mutex (uncontended in
//! steady state) makes that ownership transfer a proper happens-before
//! edge, so green-thread stacks and the scheduler migrate between workers
//! safely — `NodeCtx::activate` rebinds the TLS pointers on every
//! dispatch, and marcel caches nothing across context switches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use crate::node::{NodeCtx, NodeStats};

/// Node driver states (see the module diagram).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Driver steps one dispatch may spend on a single node before it goes to
/// the back of the ready queue.  Each step already bounds its message work
/// by `pump_budget`, so one dispatch is at most `FAIRNESS × pump_budget`
/// messages plus `FAIRNESS` thread quanta.
const FAIRNESS: usize = 32;

/// How long a worker that found the ready queue empty keeps looking before
/// it sleeps: about what a futex sleep and wake cost, so looking costs at
/// most twice the better choice.  A node whose green threads all wait for
/// replies is idle, and the reply is usually nearer than that.
const LOOK_AGAIN: Duration = Duration::from_micros(20);

struct Inner {
    /// One slot per node.  The mutex is uncontended by construction (the
    /// state machine admits one runner); it exists to make cross-worker
    /// handoff sound rather than to arbitrate.
    nodes: Vec<Mutex<NodeCtx>>,
    states: Vec<AtomicU8>,
    /// Shared handles on each node's stats, so state transitions can count
    /// parks/wakeups without locking the node.
    stats: Vec<Arc<NodeStats>>,
    ready: Mutex<VecDeque<usize>>,
    cv: Condvar,
    /// Nodes not yet `Done`; at zero the pool drains and exits.
    live: AtomicUsize,
    /// Worker pop timeout and sweep cadence — the executor twin of the
    /// `idle_park` backstop, tightened to the fastest armed protocol timer.
    tick_every: Duration,
    /// Next tick sweep (rate limit: one sweeper per period), or sooner: the
    /// earliest wait deadline a parking node left behind.
    next_tick: Mutex<Instant>,
}

impl Inner {
    fn push(&self, id: usize) {
        let mut q = self.ready.lock().unwrap();
        q.push_back(id);
        self.cv.notify_one();
    }

    /// Doorbell listener body: route a ring on `id`'s bell into the ready
    /// queue (or defer it if the node is mid-run).
    fn notify(&self, id: usize) {
        loop {
            match self.states[id].load(Ordering::SeqCst) {
                IDLE => {
                    if self.states[id]
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.stats[id]
                            .driver_wakeups
                            .fetch_add(1, Ordering::Relaxed);
                        self.push(id);
                        return;
                    }
                }
                RUNNING => {
                    if self.states[id]
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued / already deferred / dead: the pending
                // dispatch will observe the message.
                _ => return,
            }
        }
    }

    /// Timer backstop: requeue every idle node so its protocol timers
    /// (detector scan, gossip round, periodic checkpoint) get a step, just
    /// as a park timeout would have stepped it under thread-per-node.
    /// Returns at once when no sweep is due; rate-limited so a large pool
    /// doesn't multiply the sweeps.
    fn tick_sweep(&self) {
        {
            let mut next = self.next_tick.lock().unwrap();
            let now = Instant::now();
            if now < *next {
                return;
            }
            *next = now + self.tick_every;
        }
        for id in 0..self.states.len() {
            if self.states[id]
                .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.stats[id]
                    .driver_wakeups
                    .fetch_add(1, Ordering::Relaxed);
                self.push(id);
            }
        }
    }

    /// One dispatch: run `id` for up to the fairness budget, then park,
    /// requeue, or retire it.
    fn run_node(self: &Arc<Inner>, id: usize) {
        if self.states[id]
            .compare_exchange(QUEUED, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // Only Done can be observed here (each queue entry corresponds
            // to exactly one Idle/Running→Queued transition).
            return;
        }
        let mut ctx = self.nodes[id].lock().unwrap();
        ctx.activate();
        let mut worked = false;
        for _ in 0..FAIRNESS {
            worked = ctx.step();
            if !worked {
                break;
            }
        }
        ctx.maybe_ack_shutdown();
        if ctx.finished() {
            self.states[id].store(DONE, Ordering::SeqCst);
            drop(ctx);
            if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last node retired: wake every parked worker to exit.
                let _q = self.ready.lock().unwrap();
                self.cv.notify_all();
            }
            return;
        }
        if worked {
            // Budget exhausted with work still pending: back of the line
            // (the fairness edge — a flood waits for everyone else's turn).
            // Overwrites a concurrent Notified, which is then redundant.
            drop(ctx);
            self.states[id].store(QUEUED, Ordering::SeqCst);
            self.push(id);
            return;
        }
        // Nothing to do: try to park.  A ring that landed mid-run left
        // Notified, in which case requeue instead — the deferred wakeup.
        self.stats[id].driver_parks.fetch_add(1, Ordering::Relaxed);
        let wake_by = ctx.waits.next_deadline();
        drop(ctx);
        if self.states[id]
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // Went Notified; the park was momentary.
            self.stats[id]
                .driver_wakeups
                .fetch_add(1, Ordering::Relaxed);
            self.states[id].store(QUEUED, Ordering::SeqCst);
            self.push(id);
        } else if let Some(at) = wake_by {
            // Folded in only once the node is `Idle`, so that a sweep which
            // resets `next_tick` now also finds the node to requeue.
            let mut next = self.next_tick.lock().unwrap();
            if at < *next {
                *next = at;
                self.cv.notify_one(); // a sleeping worker re-reads its timeout
            }
        }
    }

    fn worker_loop(self: &Arc<Inner>) {
        let mut dispatches = 0usize;
        loop {
            let popped = {
                let mut q = self.ready.lock().unwrap();
                let mut look_until = None;
                loop {
                    if self.live.load(Ordering::SeqCst) == 0 {
                        return;
                    }
                    if let Some(id) = q.pop_front() {
                        break Some(id);
                    }
                    let now = Instant::now();
                    if now < *look_until.get_or_insert(now + LOOK_AGAIN) {
                        drop(q);
                        std::hint::spin_loop();
                        q = self.ready.lock().unwrap();
                        continue;
                    }
                    let due = *self.next_tick.lock().unwrap();
                    let idle = due.saturating_duration_since(now);
                    let (guard, timeout) = self.cv.wait_timeout(q, idle).unwrap();
                    q = guard;
                    if timeout.timed_out() {
                        break None;
                    }
                }
            };
            match popped {
                Some(id) => {
                    self.run_node(id);
                    // A worker that always finds work never times out
                    // asleep, so it asks the clock itself now and then (the
                    // sweep returns at once when not due).
                    dispatches += 1;
                    if dispatches.is_multiple_of(FAIRNESS) {
                        self.tick_sweep();
                    }
                }
                None => self.tick_sweep(),
            }
        }
    }
}

/// Pools launched by this process so far: the `m` in a worker's name.
static POOLS: AtomicUsize = AtomicUsize::new(0);

/// Launch the worker pool for a machine.  Installs a
/// doorbell listener per node, seeds the ready queue with every node (so
/// initial timers and any pre-launch traffic get a first step), and spawns
/// `workers` OS threads named `pm2-m<pool>-w<i>` — the pool number is
/// unique in the process, so one machine's workers can be told from
/// another's in `/proc/self/task/*/comm` or a debugger.  The pool owns the
/// node contexts; joining the returned handles (after the last node
/// retires) drops them.
pub(crate) fn spawn_pool(
    ctxs: Vec<NodeCtx>,
    workers: usize,
    tick_every: Duration,
) -> Vec<std::thread::JoinHandle<()>> {
    let n = ctxs.len();
    let stats = ctxs.iter().map(|c| Arc::clone(&c.stats)).collect();
    let bells: Vec<madeleine::Doorbell> = ctxs.iter().map(|c| c.ep.doorbell().clone()).collect();
    let inner = Arc::new(Inner {
        nodes: ctxs.into_iter().map(Mutex::new).collect(),
        states: (0..n).map(|_| AtomicU8::new(QUEUED)).collect(),
        stats,
        ready: Mutex::new((0..n).collect()),
        cv: Condvar::new(),
        live: AtomicUsize::new(n),
        tick_every,
        next_tick: Mutex::new(Instant::now() + tick_every),
    });
    // Listeners hold a Weak: the bells live inside the fabric the nodes
    // themselves own, so a strong reference would be a cycle that leaks
    // every NodeCtx (and its iso-area mappings) at machine teardown.
    for (id, bell) in bells.iter().enumerate() {
        let w: Weak<Inner> = Arc::downgrade(&inner);
        bell.set_listener(Arc::new(move || {
            if let Some(inner) = w.upgrade() {
                inner.notify(id);
            }
        }));
    }
    let pool = POOLS.fetch_add(1, Ordering::Relaxed);
    (0..workers.max(1))
        .map(|i| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("pm2-m{pool}-w{i}"))
                .spawn(move || inner.worker_loop())
                .expect("spawning executor worker")
        })
        .collect()
}
