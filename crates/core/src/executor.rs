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
//! * **Filed instants**: a protocol timer (a parked thread's wait deadline,
//!   the gossip/detector round, a periodic checkpoint, the coordinator's
//!   grant embargo) must fire on a node nobody sends to.  A node that parks
//!   with one pending names the instant it next needs a step
//!   (`NodeCtx::next_timer`) and files it with the ready queue; a worker
//!   with nothing to pop sleeps until the earliest filed instant —
//!   indefinitely when none is filed — and requeues exactly the nodes whose
//!   instant has passed, counted as a `driver_wakeups` like a ring.  A
//!   worker that never sleeps looks at the filed instants every
//!   [`FAIRNESS`] pops, so a busy pool's idle nodes keep their timers too.
//!   That is the only way a timer reaches the executor: the queue's
//!   earliest filed instant is the machine's next event.  A quiet machine
//!   with nothing armed (the default) files none and makes no wake-ups at
//!   all; an armed one steps each node once per `heartbeat_every`.
//! * **What a push costs.**  Queueing a node is a lock, a `push_back` and
//!   an unlock; a system call (`futex_wake`, several times the rest) is
//!   made only when a worker is asleep to receive it, and after the lock is
//!   released.  The workers count themselves: one adds itself to the
//!   queue's sleeper count, under the queue's lock, on its way into the
//!   wait and takes itself off on the way out, so a push that reads zero
//!   under that lock knows every worker has yet to look at the queue and
//!   will find the node there.  One worker that is never idle — a hop's
//!   ping-pong on `workers(1)` — therefore pays no system call per
//!   message, and a park that names no instant takes no lock at all.
//!   `driver_wakeups` / `driver_parks` count the node's state transitions
//!   as before, not these.  The filed instants live under the same lock,
//!   and a node goes `Idle` under it when it files one, so an instant is
//!   either read by a worker before it sleeps or wakes it after, and a
//!   node popped since is never requeued for an instant it no longer has.
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

const POISONED: &str = "a worker panicked in the queue";

/// The ready queue: node ids waiting for a worker, the workers asleep
/// waiting for one, and the instants parked nodes must be stepped by
/// regardless — one mutex, so each of the three is published against the
/// other two.
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
    /// Workers inside the condvar wait, or committed to entering it: counted
    /// by the worker itself, up before it waits and down after, under the
    /// lock.  What a push reads to decide whether anyone needs a wake-up.
    sleepers: usize,
    /// Per node, the instant it filed when it last parked; taken back when
    /// the node is popped, so `Some` means parked (or rung since and about
    /// to be popped) with that timer pending.
    filed: Vec<Option<Instant>>,
    /// No filed instant is earlier (one popped since may have been): what a
    /// worker sleeps until, and `None` only when none is filed.
    earliest: Option<Instant>,
    /// Ids popped so far; every [`FAIRNESS`]th pop reads the clock.
    pops: usize,
    /// The last node retired: workers leave instead of sleeping.
    closed: bool,
}

impl ReadyQueue {
    /// `queue` holds the ids in `0..nodes` that start out queued.
    fn new(nodes: usize, queue: VecDeque<usize>) -> ReadyQueue {
        ReadyQueue {
            len: AtomicUsize::new(queue.len()),
            state: Mutex::new(Ready {
                queue,
                sleepers: 0,
                filed: vec![None; nodes],
                earliest: None,
                pops: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ready> {
        self.state.lock().expect(POISONED)
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

    /// The next queued id, or `None` once the queue is closed.  An empty
    /// queue is watched for [`LOOK_AGAIN`], then slept on until a push,
    /// [`ReadyQueue::close`] or the earliest filed instant — indefinitely
    /// when none is filed.  A node whose filed instant has passed is queued
    /// if `wake` (its `Idle → Queued` transition) says it was still parked;
    /// the clock is read for that when there is nothing to pop, and every
    /// [`FAIRNESS`] pops when there always is.
    fn pop(&self, wake: impl Fn(usize) -> bool) -> Option<usize> {
        let mut r = self.lock();
        let mut look_until = None;
        loop {
            if r.closed {
                return None;
            }
            let look =
                r.queue.is_empty() || r.earliest.is_some() && r.pops.is_multiple_of(FAIRNESS);
            let now = look.then(Instant::now);
            if let Some(now) = now.filter(|&now| r.earliest.is_some_and(|at| at <= now)) {
                r.requeue_due(now, &wake);
                if r.sleepers > 0 && r.queue.len() > 1 {
                    self.cv.notify_all();
                }
            }
            if let Some(id) = r.queue.pop_front() {
                self.len.store(r.queue.len(), Ordering::Relaxed);
                r.filed[id] = None;
                r.pops = r.pops.wrapping_add(1);
                return Some(id);
            }
            let now = now.expect("read for an empty queue");
            let until = *look_until.get_or_insert(now + LOOK_AGAIN);
            if now < until {
                drop(r);
                while self.len.load(Ordering::Relaxed) == 0 && Instant::now() < until {
                    std::hint::spin_loop();
                }
                r = self.lock();
                continue;
            }
            r.sleepers += 1;
            r = match r.earliest.map(|at| at.saturating_duration_since(now)) {
                Some(idle) => self.cv.wait_timeout(r, idle).expect(POISONED).0,
                None => self.cv.wait(r).expect(POISONED),
            };
            r.sleepers -= 1;
        }
    }

    /// Park node `id` until `at`: `go_idle` (its `Running → Idle`
    /// transition) runs under the queue's lock and, if it says the node
    /// parked, `at` is filed — so the pop that follows any later ring takes
    /// back this instant and no other.  A worker reads `earliest` under the
    /// lock it then sleeps on, so it either sees `at` before it sleeps or is
    /// counted asleep here and woken to read its timeout again.
    fn park_until(&self, id: usize, at: Instant, go_idle: impl FnOnce() -> bool) -> bool {
        let mut r = self.lock();
        if !go_idle() {
            return false;
        }
        r.filed[id] = Some(at);
        if r.earliest.is_none_or(|e| at < e) {
            r.earliest = Some(at);
            let asleep = r.sleepers > 0;
            drop(r);
            if asleep {
                self.cv.notify_one();
            }
        }
        true
    }

    /// Send every worker home, the sleeping ones included.
    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

impl Ready {
    /// Take back every filed instant that has passed by `now`, queue the
    /// nodes `wake` says were still parked, and find the earliest left.
    fn requeue_due(&mut self, now: Instant, wake: impl Fn(usize) -> bool) {
        self.earliest = None;
        for (id, slot) in self.filed.iter_mut().enumerate() {
            match *slot {
                Some(at) if at <= now => {
                    *slot = None;
                    if wake(id) {
                        self.queue.push_back(id);
                    }
                }
                Some(at) if self.earliest.is_none_or(|e| at < e) => self.earliest = Some(at),
                _ => {}
            }
        }
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
}

impl Inner {
    /// `Idle → Queued`, counted as a wake-up; false if `id` was not idle.
    fn wake(&self, id: usize) -> bool {
        let woke = self.states[id]
            .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if woke {
            self.stats[id]
                .driver_wakeups
                .fetch_add(1, Ordering::Relaxed);
        }
        woke
    }

    /// Doorbell listener body: route a ring on `id`'s bell into the ready
    /// queue (or defer it if the node is mid-run).
    fn notify(&self, id: usize) {
        loop {
            match self.states[id].load(Ordering::SeqCst) {
                IDLE => {
                    if self.wake(id) {
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
        // Nothing to do: try to park — until the instant the node names, if
        // it has a timer pending.  A ring that landed mid-run left Notified,
        // in which case requeue instead — the deferred wakeup.
        self.stats[id].driver_parks.fetch_add(1, Ordering::Relaxed);
        let wake_at = ctx.next_timer();
        drop(ctx);
        let go_idle = || {
            self.states[id]
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        };
        let parked = match wake_at {
            Some(at) => self.ready.park_until(id, at, go_idle),
            None => go_idle(),
        };
        if !parked {
            // Went Notified; the park was momentary.
            self.stats[id]
                .driver_wakeups
                .fetch_add(1, Ordering::Relaxed);
            self.states[id].store(QUEUED, Ordering::SeqCst);
            self.ready.push(id);
        }
    }

    fn worker_loop(self: &Arc<Inner>) {
        while let Some(id) = self.ready.pop(|id| self.wake(id)) {
            self.run_node(id);
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
pub(crate) fn spawn_pool(ctxs: Vec<NodeCtx>, workers: usize) -> Vec<std::thread::JoinHandle<()>> {
    let n = ctxs.len();
    let stats = ctxs.iter().map(|c| Arc::clone(&c.stats)).collect();
    let bells: Vec<madeleine::Doorbell> = ctxs.iter().map(|c| c.ep.doorbell().clone()).collect();
    let inner = Arc::new(Inner {
        nodes: ctxs.into_iter().map(Mutex::new).collect(),
        states: (0..n).map(|_| AtomicU8::new(QUEUED)).collect(),
        stats,
        ready: ReadyQueue::new(n, (0..n).collect()),
        live: AtomicUsize::new(n),
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
    use std::sync::atomic::{AtomicBool, AtomicU8};
    use std::thread;

    /// Eight nodes, none queued, nothing filed.
    fn queue() -> ReadyQueue {
        ReadyQueue::new(8, VecDeque::new())
    }

    /// Every node is parked: a passed instant always requeues it.
    fn pop(q: &ReadyQueue) -> Option<usize> {
        q.pop(|_| true)
    }

    /// Returns once `n` workers are counted asleep — each is then inside
    /// the condvar wait, or holds the lock on its way in.
    fn until_asleep(q: &ReadyQueue, n: usize) {
        while q.lock().sleepers < n {
            thread::yield_now();
        }
    }

    #[test]
    fn a_push_notifies_only_a_worker_that_sleeps() {
        let q = queue();
        assert!(!q.push(3), "nobody asleep: no wake-up to pay for");
        assert_eq!(pop(&q), Some(3));
        thread::scope(|s| {
            let sleeper = s.spawn(|| pop(&q));
            until_asleep(&q, 1);
            assert!(q.push(7), "one asleep: it is woken");
            assert_eq!(sleeper.join().unwrap(), Some(7));
        });
        assert_eq!(q.lock().sleepers, 0);
    }

    /// With no instant filed there is no timeout to wake at: a sleeper comes
    /// back for a push or for `close`, and for nothing else.
    #[test]
    fn with_no_instant_filed_only_a_push_or_close_ends_the_sleep() {
        let q = queue();
        let back = AtomicBool::new(false);
        thread::scope(|s| {
            let sleepers = [(); 2].map(|()| {
                s.spawn(|| {
                    let popped = pop(&q);
                    back.store(true, Ordering::SeqCst);
                    popped
                })
            });
            until_asleep(&q, 2);
            thread::sleep(Duration::from_millis(100));
            assert!(
                !back.load(Ordering::SeqCst),
                "woke with nothing to wake for"
            );
            assert_eq!(q.lock().earliest, None);
            q.push(5);
            while !q.lock().queue.is_empty() {
                thread::yield_now();
            }
            q.close();
            let mut popped = sleepers.map(|sleeper| sleeper.join().unwrap());
            popped.sort();
            assert_eq!(popped, [None, Some(5)]);
        });
    }

    #[test]
    fn the_earlier_of_two_filed_instants_wakes_the_sleeper_for_that_node_only() {
        let q = queue();
        thread::scope(|s| {
            let sleeper = s.spawn(|| (pop(&q), Instant::now()));
            until_asleep(&q, 1);
            let t0 = Instant::now();
            let (late, soon) = (t0 + Duration::from_secs(60), t0 + Duration::from_millis(5));
            assert!(q.park_until(2, late, || true));
            assert!(
                q.park_until(6, soon, || true),
                "pulls the sleeper's timeout forward"
            );
            assert!(
                !q.park_until(4, t0, || false),
                "rung mid-run: not parked, nothing filed"
            );
            let (popped, at) = sleeper.join().unwrap();
            assert_eq!(popped, Some(6));
            assert!(
                at >= soon && at < t0 + Duration::from_secs(30),
                "at its instant"
            );
        });
        let r = q.lock();
        assert!(r.queue.is_empty(), "node 2's instant has not passed");
        assert_eq!(r.filed.iter().flatten().count(), 1);
        assert_eq!(r.earliest, r.filed[2]);
    }

    /// A node rung before its instant is popped, which takes the instant
    /// back; parking again files the new one in its place, and a wake whose
    /// node is no longer idle queues nothing.
    #[test]
    fn a_re_park_replaces_the_instant_the_pop_took_back() {
        let q = queue();
        // (One pop behind it, the queue is not about to read the clock.)
        q.push(0);
        assert_eq!(pop(&q), Some(0));
        let t0 = Instant::now();
        assert!(q.park_until(3, t0 + Duration::from_millis(5), || true));
        q.push(3);
        assert_eq!(pop(&q), Some(3));
        assert_eq!(q.lock().filed[3], None);
        let late = t0 + Duration::from_secs(60);
        assert!(q.park_until(3, late, || true));
        assert!(q.park_until(1, t0, || true));
        let back = AtomicBool::new(false);
        thread::scope(|s| {
            let sleeper = s.spawn(|| {
                // Node 1 was rung and queued by somebody else meanwhile.
                let popped = q.pop(|id| id != 1);
                back.store(true, Ordering::SeqCst);
                popped
            });
            until_asleep(&q, 1);
            thread::sleep(Duration::from_millis(50));
            assert!(
                !back.load(Ordering::SeqCst),
                "woke at the instant taken back"
            );
            q.close();
            assert_eq!(sleeper.join().unwrap(), None);
        });
        let r = q.lock();
        assert_eq!(
            (r.filed[1], r.filed[3], r.earliest),
            (None, Some(late), Some(late))
        );
    }

    /// A worker that always finds work looks at the filed instants by the
    /// clock every `FAIRNESS` pops: a due node is queued behind what is
    /// there, without anybody having slept.
    #[test]
    fn a_busy_queue_still_serves_a_filed_instant() {
        let q = queue();
        assert!(q.park_until(7, Instant::now(), || true));
        let popped: Vec<_> = (0..=FAIRNESS)
            .map(|_| {
                q.push(0);
                pop(&q).unwrap()
            })
            .collect();
        assert_eq!(popped.iter().filter(|&&id| id == 7).count(), 1);
        assert_eq!(q.lock().earliest, None);
    }

    #[test]
    fn closing_wakes_every_sleeper() {
        let q = queue();
        thread::scope(|s| {
            let sleepers = [s.spawn(|| pop(&q)), s.spawn(|| pop(&q))];
            until_asleep(&q, 2);
            q.close();
            for sleeper in sleepers {
                assert_eq!(sleeper.join().unwrap(), None);
            }
        });
    }

    /// Two producers, two consumers, 100 k ids each way: every id comes out
    /// once, and no consumer sleeps through a push — one that did would
    /// sleep for good, nothing being filed, and the test with it.
    #[test]
    fn no_id_is_lost_or_doubled_and_no_push_is_slept_through() {
        const PER_PRODUCER: usize = 100_000;
        let q = ReadyQueue::new(2 * PER_PRODUCER, VecDeque::new());
        let seen: Vec<AtomicU8> = (0..2 * PER_PRODUCER).map(|_| AtomicU8::new(0)).collect();
        let popped = AtomicUsize::new(0);
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
                s.spawn(|| {
                    while let Some(id) = pop(&q) {
                        seen[id].fetch_add(1, Ordering::Relaxed);
                        if popped.fetch_add(1, Ordering::SeqCst) + 1 == seen.len() {
                            q.close();
                        }
                    }
                });
            }
        });
        assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
    }
}
