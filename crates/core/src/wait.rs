//! One way to wait: a green thread waiting on its node is *parked* in the
//! node's table of open waits, not polling.
//!
//! The paper's node is one process in which Marcel threads and the message
//! pump interleave (§2); an LRPC caller is simply a thread that is not
//! runnable until its reply comes.  A [`Wait`] files the thread under what
//! it needs ([`For`]) *before* the request goes out and parks it through
//! `marcel::block_current`; the pump — the only other party on the node —
//! completes the entry and unblocks the thread: a reply is filed, the
//! bitmap thaws, the acquire turn passes on, a named peer dies, or the
//! deadline passes.  A reply no wait is open for is not kept.  A thread
//! with a wait open is pinned: the reply comes here.
//!
//! ## Deadlines
//!
//! Nothing here reads the clock.  A deadline is [`Due::At`] an instant or
//! [`Due::After`] a span; the node's timer run ([`WaitTable::expire`], on
//! the node's own clock read) fixes an `After` at that read plus the span
//! and marks each wait whose instant has passed, and a poll reads the
//! mark.  So a wait opened with `After(d)` — an LRPC call, a negotiation
//! grant — costs its thread no clock read, never gives up earlier than `d`
//! after it opened, and gives up late by at most the node's timer period:
//! `CLOCK_EVERY` busy steps, or none for an idle node, which runs its
//! timers before it parks and then files the earliest fixed instant with
//! the executor ([`WaitTable::next_deadline`]).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use madeleine::Message;
use marcel::{DescPtr, Scheduler};

use crate::api::pm2_set_migratable;
use crate::error::{Pm2Error, Result};
use crate::node::with_ctx;
use crate::proto;

/// What an open wait is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum For {
    /// Replies under `tag`: with an `id`, the one that leads with it, from
    /// anyone (an LRPC handler may migrate before replying); without, any
    /// from `peer`, or from everybody when no peer is named.  The wait
    /// fails when `peer` dies — any peer, when none is named.
    Reply {
        tag: u16,
        peer: Option<usize>,
        id: Option<u64>,
    },
    /// The node's bitmap thawing (`NodeCtx::thaw`).
    Thaw,
    /// The node's turn at `negotiation::acquire_remote`, handed over FIFO.
    Turn,
    /// Nothing but the deadline.
    Time,
}

/// When a wait gives up, if nothing completes it first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Due {
    /// At this instant.
    At(Instant),
    /// This long after the node's next clock read (see the module notes).
    After(Duration),
}

/// What has happened, in order, that a waiter has not seen yet: a reply
/// filed, the event (`Ok(None)`), a named peer's death.
type Filed = VecDeque<Result<Option<Message>>>;

struct Entry {
    key: u64,
    what: For,
    waiter: DescPtr,
    due: Option<Due>,
    /// The node's last timer run found `due` passed.
    expired: bool,
    ready: Filed,
    /// The waiter is switched out in `block_current`, to be unblocked.
    parked: bool,
}

impl Entry {
    fn complete(&mut self, sched: &Scheduler, with: Result<Option<Message>>) {
        self.ready.push_back(with);
        self.rouse(sched);
    }

    fn rouse(&mut self, sched: &Scheduler) {
        if std::mem::take(&mut self.parked) {
            // SAFETY: `parked` is set by the waiter itself just before it
            // blocks on this node, and a blocked thread neither runs nor
            // migrates until unblocked — here, once.
            unsafe { sched.unblock(self.waiter) };
        }
    }

    /// How specifically this wait asks for reply `m` (0: by id), if at all.
    fn rank(&self, m: &Message) -> Option<u8> {
        match self.what {
            For::Reply { tag, .. } if tag != m.tag => None,
            For::Reply { id: Some(id), .. } => {
                (proto::peek_id(&m.payload) == Some(id)).then_some(0)
            }
            For::Reply { peer: Some(p), .. } => (p == m.src).then_some(1),
            For::Reply { .. } => Some(2),
            _ => None,
        }
    }
}

/// A node's open waits, oldest first.
#[derive(Default)]
pub(crate) struct WaitTable {
    open: Vec<Entry>,
    keys: u64,
    /// Open waits with a deadline: while there is one, the node has a
    /// timer armed.
    timed: usize,
    /// Open waits whose deadline is a span no timer run has fixed yet: no
    /// instant exists to file for them until one does.
    unfixed: usize,
    /// The queues of closed waits, for the next opens to reuse.
    spare: Vec<Filed>,
}

impl WaitTable {
    /// File reply `m` under the wait that asks for it most specifically —
    /// among equals one with nothing filed yet, the oldest — and wake its
    /// thread.  Hands `m` back when no open wait does.
    pub(crate) fn file(&mut self, sched: &Scheduler, m: Message) -> Option<Message> {
        let asking = self.open.iter_mut().filter_map(|e| Some((e.rank(&m)?, e)));
        match asking.min_by_key(|(rank, e)| (*rank, !e.ready.is_empty())) {
            Some((_, e)) => e.complete(sched, Ok(Some(m))),
            None => return Some(m),
        }
        None
    }

    /// The event `what` happened: complete the oldest wait for it that is
    /// still pending; `false` when there is none.
    pub(crate) fn wake(&mut self, sched: &Scheduler, what: For) -> bool {
        let mut pending = self.open.iter_mut().filter(|e| e.what == what);
        let oldest = pending.find(|e| e.ready.is_empty());
        oldest.map(|e| e.complete(sched, Ok(None))).is_some()
    }

    /// `dead` died: fail every reply wait that names it.  Replies already
    /// filed are still delivered first.
    pub(crate) fn fail_peer(&mut self, sched: &Scheduler, dead: usize) {
        for e in &mut self.open {
            if matches!(e.what, For::Reply { peer, .. } if peer.is_none_or(|p| p == dead)) {
                e.complete(sched, Err(Pm2Error::NodeFailed(dead)));
            }
        }
    }

    /// The node read its clock: `now`.  Fix every `Due::After` at it, mark
    /// the waits whose deadline has passed and wake their parked threads,
    /// and fail the parked reply waits whose peer is dead without
    /// `fail_peer` having said so (a silent death: no certificate has come).
    pub(crate) fn expire(
        &mut self,
        sched: &Scheduler,
        now: Instant,
        is_dead: impl Fn(usize) -> bool,
    ) {
        self.unfixed = 0;
        for e in &mut self.open {
            if let Some(Due::After(span)) = e.due {
                e.due = Some(Due::At(now + span));
            }
            e.expired |= matches!(e.due, Some(Due::At(at)) if at <= now);
            if !e.parked {
                continue;
            }
            match e.what {
                For::Reply { peer: Some(p), .. } if is_dead(p) => {
                    e.complete(sched, Err(Pm2Error::NodeFailed(p)))
                }
                _ if e.expired => e.rouse(sched),
                _ => {}
            }
        }
    }

    /// Is any open wait timed?  What makes the node run its timers.
    pub(crate) fn timed(&self) -> bool {
        self.timed > 0
    }

    /// Is any open wait's deadline a span not yet fixed at a clock read?
    /// Such a wait has no instant for [`WaitTable::next_deadline`] to name,
    /// so its node still needs a timer run before it parks.
    pub(crate) fn unfixed(&self) -> bool {
        self.unfixed > 0
    }

    /// The earliest deadline a parked thread is waiting out, as fixed by
    /// the last [`WaitTable::expire`]: an idle node's driver must step it
    /// again by then.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let parked = self.open.iter().filter(|e| e.parked);
        let due = parked.filter_map(|e| match e.due {
            Some(Due::At(at)) => Some(at),
            _ => None,
        });
        due.min()
    }

    fn open(&mut self, what: For, waiter: DescPtr, due: Option<Due>) -> u64 {
        self.keys += 1;
        self.timed += due.is_some() as usize;
        self.unfixed += matches!(due, Some(Due::After(_))) as usize;
        self.open.push(Entry {
            key: self.keys,
            what,
            waiter,
            due,
            expired: false,
            ready: self.spare.pop().unwrap_or_default(),
            parked: false,
        });
        self.keys
    }

    fn close(&mut self, key: u64) {
        let Some(at) = self.open.iter().position(|e| e.key == key) else {
            return;
        };
        let mut e = self.open.remove(at);
        self.timed -= e.due.is_some() as usize;
        self.unfixed -= matches!(e.due, Some(Due::After(_))) as usize;
        e.ready.clear();
        self.spare.push(e.ready);
    }

    /// What `key`'s wait has for its thread, oldest first; once it has
    /// expired, `Ok(None)`; otherwise `None`, and the entry is marked
    /// parked.
    fn poll(&mut self, key: u64) -> Option<Result<Option<Message>>> {
        let e = self.open.iter_mut().find(|e| e.key == key);
        let e = e.expect("polled by the Wait that holds it open");
        let has = e.ready.pop_front();
        let has = has.or_else(|| e.expired.then_some(Ok(None)));
        e.parked = has.is_none();
        has
    }
}

/// An open wait of the calling green thread; dropping it closes it.
pub(crate) struct Wait {
    key: u64,
    unpin: bool,
}

impl Wait {
    /// File the calling thread under `what` on its node.  Open the wait
    /// before sending the request it answers (the send itself is what
    /// fails when the peer is already dead).
    pub(crate) fn open(what: For, due: Option<Due>) -> Wait {
        let unpin = pm2_set_migratable(false);
        let waiter = marcel::current_desc();
        let key = with_ctx(|c| c.waits.open(what, waiter, due));
        Wait { key, unpin }
    }

    /// [`Wait::open`] for replies (see [`For::Reply`]).
    pub(crate) fn for_reply(tag: u16, peer: Option<usize>, id: Option<u64>, due: Due) -> Wait {
        Wait::open(For::Reply { tag, peer, id }, Some(due))
    }

    /// Park — at no scheduling steps to the node — until the wait has
    /// something: the next filed reply, `Ok(None)` once the event happened
    /// or the node's timers found the deadline passed, or
    /// [`Pm2Error::NodeFailed`] when a peer it names died; never a reply to
    /// somebody else's exchange.
    pub(crate) fn next(&self) -> Result<Option<Message>> {
        loop {
            if let Some(outcome) = with_ctx(|c| c.waits.poll(self.key)) {
                return outcome;
            }
            marcel::block_current();
        }
    }
}

impl Drop for Wait {
    fn drop(&mut self) {
        with_ctx(|c| c.waits.close(self.key));
        pm2_set_migratable(self.unpin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(src: usize, tag: u16, id: u64) -> Message {
        let payload = id.to_le_bytes().to_vec().into();
        Message {
            src,
            dst: 0,
            tag,
            wire_ns: 0,
            payload,
        }
    }

    /// The table alone: the waiters are null descriptors, which is sound
    /// as long as none is marked parked when something completes its wait
    /// (`ready` un-marks them: their threads are runnable again).
    fn ready(t: &mut WaitTable) {
        t.open.iter_mut().for_each(|e| e.parked = false);
    }

    fn src_of(polled: Option<Result<Option<Message>>>) -> Option<usize> {
        polled.map(|outcome| outcome.unwrap().unwrap().src)
    }

    #[test]
    fn a_reply_reaches_the_one_wait_that_asked_for_it() {
        let (sched, mut t) = (Scheduler::new(0), WaitTable::default());
        let nobody = std::ptr::null_mut();
        let by_id = |id| For::Reply {
            tag: 7,
            peer: Some(1),
            id: Some(id),
        };
        let a = t.open(by_id(10), nobody, None);
        let b = t.open(by_id(11), nobody, None);
        assert!(
            t.file(&sched, reply(3, 7, 11)).is_none(),
            "by id, from anyone"
        );
        assert!(
            t.file(&sched, reply(1, 7, 12)).is_some(),
            "nobody asked for 12"
        );
        assert!(t.file(&sched, reply(1, 8, 10)).is_some(), "nor for tag 8");
        assert!(t.poll(a).is_none(), "b's reply is not a's");
        assert_eq!(src_of(t.poll(b)), Some(3));
        ready(&mut t);

        // A gather (everybody's tag 9) keeps collecting while its thread
        // is runnable, behind a wait that names the peer.
        let from = |peer| For::Reply {
            tag: 9,
            peer,
            id: None,
        };
        let all = t.open(from(None), nobody, None);
        let one = t.open(from(Some(2)), nobody, None);
        for src in [1, 2, 2, 3] {
            assert!(t.file(&sched, reply(src, 9, 0)).is_none());
        }
        let named: Vec<_> = std::iter::from_fn(|| src_of(t.poll(one))).collect();
        assert_eq!(named, [2, 2], "the more specific wait first");
        let gathered: Vec<_> = std::iter::from_fn(|| src_of(t.poll(all))).collect();
        assert_eq!(gathered, [1, 3], "peer 2's went to the wait naming it");
        ready(&mut t);

        // Two callers on one peer get one reply each, however late they run.
        let other = t.open(from(Some(2)), nobody, None);
        assert!(t.file(&sched, reply(2, 9, 0)).is_none());
        assert!(t.file(&sched, reply(2, 9, 0)).is_none());
        assert_eq!(src_of(t.poll(one)), Some(2));
        assert!(t.poll(one).is_none(), "the second reply is the other's");
        assert_eq!(src_of(t.poll(other)), Some(2));
        ready(&mut t);

        // A reply filed before the death is still delivered, then the death.
        assert!(t.file(&sched, reply(1, 7, 10)).is_none());
        t.fail_peer(&sched, 1);
        assert_eq!(src_of(t.poll(a)), Some(1));
        assert_eq!(t.poll(a), Some(Err(Pm2Error::NodeFailed(1))));
        assert_eq!(t.poll(all), Some(Err(Pm2Error::NodeFailed(1))), "any peer");
        assert!(t.poll(one).is_none(), "peer 2 lives");
        ready(&mut t);

        // Events go to the oldest pending wait for them, once each.
        let turn = [For::Turn, For::Turn].map(|what| t.open(what, nobody, None));
        assert!(t.wake(&sched, For::Turn) && t.wake(&sched, For::Turn));
        assert!(!t.wake(&sched, For::Turn) && !t.wake(&sched, For::Thaw));
        assert_eq!(
            turn.map(|key| t.poll(key)),
            [Some(Ok(None)), Some(Ok(None))]
        );

        for key in [a, b, all, one, other, turn[0], turn[1]] {
            t.close(key);
        }
        assert!(t.open.is_empty(), "closing every wait empties the table");
        assert!(!t.timed(), "none of them had a deadline");
    }

    /// A deadline is a mark the node's timer run sets: a past one reads as
    /// `Ok(None)` only after the next `expire`, and a span is fixed there,
    /// at the node's clock read.  Only a parked wait holds its node's
    /// driver to an instant.
    #[test]
    fn a_deadline_is_read_at_the_nodes_next_expire() {
        let (sched, mut t) = (Scheduler::new(0), WaitTable::default());
        let nobody = std::ptr::null_mut();
        // Instants come from a node's clock read, as in `NodeCtx::step`.
        let (node, _, _) = crate::tests::bare_node(crate::Pm2Config::test(2));
        let (t0, minute) = (node.now(), Duration::from_secs(60));
        let late = t.open(For::Time, nobody, Some(Due::At(t0)));
        assert!(!t.unfixed(), "an instant is fixed from the start");
        let span = t.open(For::Time, nobody, Some(Due::After(minute)));
        assert!(t.timed() && t.unfixed());
        assert_eq!(t.next_deadline(), None, "nobody parked yet");
        assert!(t.poll(late).is_none(), "no clock read: not yet expired");
        assert_eq!(t.next_deadline(), Some(t0));
        assert!(t.poll(span).is_none());
        assert_eq!(t.next_deadline(), Some(t0), "a span has no instant yet");
        ready(&mut t);

        t.expire(&sched, t0, |_| false);
        assert!(!t.unfixed(), "the timer run fixed the span");
        assert_eq!(t.poll(late), Some(Ok(None)));
        assert_eq!(t.poll(late), Some(Ok(None)), "and stays expired");
        assert!(t.poll(span).is_none(), "fixed at the read, a minute on");
        assert_eq!(t.next_deadline(), Some(t0 + minute));
        ready(&mut t);

        // A closed wait's queue is kept for the next open.
        t.close(late);
        t.close(span);
        assert!(!t.timed());
        let closed = t.open(For::Time, nobody, Some(Due::After(minute)));
        t.close(closed);
        assert!(!t.unfixed(), "closing an unfixed wait uncounts it");
        assert_eq!(t.spare.len(), 2);
        let again = t.open(For::Time, nobody, None);
        assert_eq!(t.spare.len(), 1);
        t.close(again);
    }
}
