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
//! * **What a push costs.**  Queueing a node is a lock, a `push_back` and
//!   an unlock; a system call (`futex_wake`, several times the rest) is
//!   made only when a worker is asleep to receive it, and after the lock is
//!   released.  The workers count themselves: one adds itself to the
//!   queue's sleeper count, under the queue's lock, on its way into
//!   `wait_timeout` and takes itself off on the way out, so a push that
//!   reads zero under that lock knows every worker has yet to look at the
//!   queue and will find the node there.  One worker that is never idle —
//!   a hop's ping-pong on `workers(1)` — therefore pays no system call per
//!   message.  `driver_wakeups` / `driver_parks` count the node's state
//!   transitions as before, not these.  The sweep instant lives under the
//!   same lock, so a deadline pulled forward is either read by a worker
//!   before it sleeps or wakes it after.
//!
//! `NodeCtx` stays single-driver: the state machine guarantees a node is
//! `Running` on at most one worker, and the per-node mutex (uncontended in
//! steady state) makes that ownership transfer a proper happens-before
//! edge, so green-thread stacks and the scheduler migrate between workers
//! safely — `NodeCtx::activate` rebinds the TLS pointers on every
//! dispatch, and marcel caches nothing across context switches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
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

/// The ready queue: node ids waiting for a worker, the workers asleep
/// waiting for one, and the instant they must wake regardless — one mutex,
/// so each of the three is published against the other two.
struct ReadyQueue {
    state: Mutex<Ready>,
    cv: Condvar,
    /// `Ready::queue`'s length, for a worker that is looking again: it
    /// watches this instead of taking `state` from the worker that pushes
    /// and pops.  Only a hint, so `Relaxed` — ids are read under the mutex.
    len: AtomicUsize,
}

struct Ready {
    queue: VecDeque<usize>,
    /// Workers inside `wait_timeout`, or committed to entering it: counted
    /// by the worker itself, up before it waits and down after, under the
    /// lock.  What a push reads to decide whether anyone needs a wake-up.
    sleepers: usize,
    /// Next tick sweep (rate limit: one sweeper per period), or sooner: the
    /// earliest wait deadline a parking node left behind.
    next_tick: Instant,
    /// The last node retired: workers leave instead of sleeping.
    closed: bool,
}

/// What a worker came back from [`ReadyQueue::pop`] with.
#[derive(Debug, PartialEq, Eq)]
enum Popped {
    Node(usize),
    /// Slept until `next_tick`: a sweep is due.
    TimedOut,
    Closed,
}

impl ReadyQueue {
    fn new(queue: VecDeque<usize>, next_tick: Instant) -> ReadyQueue {
        ReadyQueue {
            len: AtomicUsize::new(queue.len()),
            state: Mutex::new(Ready {
                queue,
                sleepers: 0,
                next_tick,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ready> {
        self.state.lock().expect("a worker panicked in the queue")
    }

    /// Queue `id`; true if a sleeping worker was notified for it (the
    /// `futex_wake`, made after the lock is released).  A worker that is
    /// not counted asleep has yet to look at the queue under the lock, and
    /// will find `id` there.
    fn push(&self, id: usize) -> bool {
        let asleep = {
            let mut r = self.lock();
            r.queue.push_back(id);
            self.len.store(r.queue.len(), Ordering::Relaxed);
            r.sleepers > 0
        };
        if asleep {
            self.cv.notify_one();
        }
        asleep
    }

    /// The next queued id.  An empty queue is watched for [`LOOK_AGAIN`],
    /// then slept on until a push, [`ReadyQueue::close`], a deadline pulled
    /// forward, or `next_tick`.
    fn pop(&self) -> Popped {
        let mut r = self.lock();
        let mut look_until = None;
        loop {
            if r.closed {
                return Popped::Closed;
            }
            if let Some(id) = r.queue.pop_front() {
                self.len.store(r.queue.len(), Ordering::Relaxed);
                return Popped::Node(id);
            }
            let now = Instant::now();
            let until = *look_until.get_or_insert(now + LOOK_AGAIN);
            if now < until {
                drop(r);
                while self.len.load(Ordering::Relaxed) == 0 && Instant::now() < until {
                    std::hint::spin_loop();
                }
                r = self.lock();
                continue;
            }
            let idle = r.next_tick.saturating_duration_since(now);
            r.sleepers += 1;
            let (guard, timeout) = self
                .cv
                .wait_timeout(r, idle)
                .expect("a worker panicked in the queue");
            r = guard;
            r.sleepers -= 1;
            if timeout.timed_out() {
                return Popped::TimedOut;
            }
        }
    }

    /// Pull the next sweep forward to `at`.  A worker reads `next_tick`
    /// under the lock it then sleeps on, so it either sees `at` before it
    /// sleeps or is counted asleep here and woken to read its timeout again.
    fn wake_by(&self, at: Instant) {
        let asleep = {
            let mut r = self.lock();
            if at >= r.next_tick {
                return;
            }
            r.next_tick = at;
            r.sleepers > 0
        };
        if asleep {
            self.cv.notify_one();
        }
    }

    /// Is a sweep due?  If so the next one is `every` from now, and the
    /// caller is the one sweeper of this period.
    fn sweep_due(&self, every: Duration) -> bool {
        let mut r = self.lock();
        let now = Instant::now();
        if now < r.next_tick {
            return false;
        }
        r.next_tick = now + every;
        true
    }

    /// Send every worker home, the sleeping ones included.
    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

struct Inner {
    /// One slot per node.  The mutex is uncontended by construction (the
    /// state machine admits one runner); it exists to make cross-worker
    /// handoff sound rather than to arbitrate.
    nodes: Vec<Mutex<NodeCtx>>,
    states: Vec<AtomicU8>,
    /// Shared handles on each node's stats, so state transitions can count
    /// parks/wakeups without locking the node.
    stats: Vec<Arc<NodeStats>>,
    ready: ReadyQueue,
    /// Nodes not yet `Done`; at zero the ready queue closes and the pool
    /// exits.
    live: AtomicUsize,
    /// Worker pop timeout and sweep cadence — the executor twin of the
    /// `idle_park` backstop, tightened to the fastest armed protocol timer.
    tick_every: Duration,
}

impl Inner {
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
                        self.ready.push(id);
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
        if !self.ready.sweep_due(self.tick_every) {
            return;
        }
        for id in 0..self.states.len() {
            if self.states[id]
                .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.stats[id]
                    .driver_wakeups
                    .fetch_add(1, Ordering::Relaxed);
                self.ready.push(id);
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
                self.ready.close();
            }
            return;
        }
        if worked {
            // Budget exhausted with work still pending: back of the line
            // (the fairness edge — a flood waits for everyone else's turn).
            // Overwrites a concurrent Notified, which is then redundant.
            drop(ctx);
            self.states[id].store(QUEUED, Ordering::SeqCst);
            self.ready.push(id);
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
            self.ready.push(id);
        } else if let Some(at) = wake_by {
            // Folded in only once the node is `Idle`, so that a sweep which
            // resets `next_tick` now also finds the node to requeue.
            self.ready.wake_by(at);
        }
    }

    fn worker_loop(self: &Arc<Inner>) {
        let mut dispatches = 0usize;
        loop {
            match self.ready.pop() {
                Popped::Node(id) => {
                    self.run_node(id);
                    // A worker that always finds work never times out
                    // asleep, so it asks the clock itself now and then (the
                    // sweep returns at once when not due).
                    dispatches += 1;
                    if dispatches.is_multiple_of(FAIRNESS) {
                        self.tick_sweep();
                    }
                }
                Popped::TimedOut => self.tick_sweep(),
                Popped::Closed => return,
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
        ready: ReadyQueue::new((0..n).collect(), Instant::now() + tick_every),
        live: AtomicUsize::new(n),
        tick_every,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicU8};
    use std::thread;

    fn queue(tick: Duration) -> ReadyQueue {
        ReadyQueue::new(VecDeque::new(), Instant::now() + tick)
    }

    /// Returns once `n` workers are counted asleep — each is then inside
    /// `wait_timeout`, or holds the lock on its way in.
    fn until_asleep(q: &ReadyQueue, n: usize) {
        while q.lock().sleepers < n {
            thread::yield_now();
        }
    }

    #[test]
    fn a_push_notifies_only_a_worker_that_sleeps() {
        let q = queue(Duration::from_secs(60));
        assert!(!q.push(3), "nobody asleep: no wake-up to pay for");
        assert_eq!(q.pop(), Popped::Node(3));
        thread::scope(|s| {
            let sleeper = s.spawn(|| q.pop());
            until_asleep(&q, 1);
            assert!(q.push(7), "one asleep: it is woken");
            assert_eq!(sleeper.join().unwrap(), Popped::Node(7));
        });
        assert_eq!(q.lock().sleepers, 0);
    }

    #[test]
    fn a_deadline_pulled_forward_wakes_the_sleeper_to_it() {
        let q = queue(Duration::from_secs(60));
        thread::scope(|s| {
            let sleeper = s.spawn(|| q.pop());
            until_asleep(&q, 1);
            let t0 = Instant::now();
            q.wake_by(t0 + Duration::from_millis(5));
            assert_eq!(sleeper.join().unwrap(), Popped::TimedOut);
            assert!(t0.elapsed() < Duration::from_secs(30), "not at the tick");
        });
        assert!(q.sweep_due(Duration::from_secs(60)), "the deadline passed");
        assert!(
            !q.sweep_due(Duration::from_secs(60)),
            "one sweeper a period"
        );
    }

    #[test]
    fn closing_wakes_every_sleeper() {
        let q = queue(Duration::from_secs(60));
        thread::scope(|s| {
            let sleepers = [s.spawn(|| q.pop()), s.spawn(|| q.pop())];
            until_asleep(&q, 2);
            q.close();
            for sleeper in sleepers {
                assert_eq!(sleeper.join().unwrap(), Popped::Closed);
            }
        });
    }

    /// Two producers, two consumers, 100 k ids each way: every id comes out
    /// once, and no consumer sleeps through a push — one that did would lie
    /// until the tick, a minute away, and be counted.
    #[test]
    fn no_id_is_lost_or_doubled_and_no_push_is_slept_through() {
        const PER_PRODUCER: usize = 100_000;
        let q = queue(Duration::from_secs(60));
        let seen: Vec<AtomicU8> = (0..2 * PER_PRODUCER).map(|_| AtomicU8::new(0)).collect();
        let (popped, timeouts) = (AtomicUsize::new(0), AtomicU64::new(0));
        thread::scope(|s| {
            for producer in 0..2 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(producer * PER_PRODUCER + i);
                        if i % 4096 == 0 {
                            // Long enough for the consumers to stop
                            // looking and go to sleep.
                            thread::sleep(5 * LOOK_AGAIN);
                        }
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(|| loop {
                    match q.pop() {
                        Popped::Node(id) => {
                            seen[id].fetch_add(1, Ordering::Relaxed);
                            if popped.fetch_add(1, Ordering::SeqCst) + 1 == seen.len() {
                                q.close();
                            }
                        }
                        Popped::TimedOut => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                            q.sweep_due(Duration::from_secs(60));
                        }
                        Popped::Closed => return,
                    }
                });
            }
        });
        assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        assert_eq!(timeouts.load(Ordering::Relaxed), 0);
    }
}
