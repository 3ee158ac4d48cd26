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
//! deadline passes (an idle node's park is bounded by
//! [`WaitTable::next_deadline`], one of the timers it names the executor).  A reply no wait is open for is not
//! kept.  A thread with a wait open is pinned: the reply comes here.

use std::collections::VecDeque;
use std::time::Instant;

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

struct Entry {
    key: u64,
    what: For,
    waiter: DescPtr,
    deadline: Option<Instant>,
    /// What has happened, in order, that the waiter has not seen yet: a
    /// reply filed, the event (`Ok(None)`), a named peer's death.
    ready: VecDeque<Result<Option<Message>>>,
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

    /// Wake every parked thread whose deadline has passed by `now`, and
    /// fail the parked reply waits whose peer is dead without `fail_peer`
    /// having said so (a silent death: no certificate has come).
    pub(crate) fn expire(
        &mut self,
        sched: &Scheduler,
        now: Instant,
        is_dead: impl Fn(usize) -> bool,
    ) {
        for e in self.open.iter_mut().filter(|e| e.parked) {
            match e.what {
                For::Reply { peer: Some(p), .. } if is_dead(p) => {
                    e.complete(sched, Err(Pm2Error::NodeFailed(p)))
                }
                _ if e.deadline.is_some_and(|d| d <= now) => e.rouse(sched),
                _ => {}
            }
        }
    }

    /// The earliest deadline a parked thread is waiting out, if any: an
    /// idle node's driver must step it again by then.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let parked = self.open.iter().filter(|e| e.parked);
        parked.filter_map(|e| e.deadline).min()
    }

    fn open(&mut self, what: For, waiter: DescPtr, deadline: Option<Instant>) -> u64 {
        self.keys += 1;
        self.open.push(Entry {
            key: self.keys,
            what,
            waiter,
            deadline,
            ready: VecDeque::new(),
            parked: false,
        });
        self.keys
    }

    fn close(&mut self, key: u64) {
        self.open.retain(|e| e.key != key);
    }

    /// What `key`'s wait has for its thread, oldest first; at the deadline
    /// `Ok(None)`; otherwise `None`, and the entry is marked parked.
    fn poll(&mut self, key: u64) -> Option<Result<Option<Message>>> {
        let e = self.open.iter_mut().find(|e| e.key == key);
        let e = e.expect("polled by the Wait that holds it open");
        let expired = || e.deadline.is_some_and(|d| d <= Instant::now());
        let filed = e.ready.pop_front();
        let has = filed.or_else(|| expired().then_some(Ok(None)));
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
    pub(crate) fn open(what: For, deadline: Option<Instant>) -> Wait {
        let unpin = pm2_set_migratable(false);
        let waiter = marcel::current_desc();
        let key = with_ctx(|c| c.waits.open(what, waiter, deadline));
        Wait { key, unpin }
    }

    /// [`Wait::open`] for replies (see [`For::Reply`]).
    pub(crate) fn for_reply(tag: u16, peer: Option<usize>, id: Option<u64>, due: Instant) -> Wait {
        Wait::open(For::Reply { tag, peer, id }, Some(due))
    }

    /// Park — at no scheduling steps to the node — until the wait has
    /// something: the next filed reply, `Ok(None)` once the event happened
    /// or the deadline passed, or [`Pm2Error::NodeFailed`] when a peer it
    /// names died; never a reply to somebody else's exchange.
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
            seq: 0,
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

        // A deadline in the past reads as `Ok(None)`; only a parked wait
        // holds its node's driver to one.
        let late = t.open(For::Time, nobody, Some(Instant::now()));
        assert_eq!(t.next_deadline(), None);
        assert_eq!(t.poll(late), Some(Ok(None)));

        for key in [a, b, all, one, other, turn[0], turn[1], late] {
            t.close(key);
        }
        assert!(t.open.is_empty(), "closing every wait empties the table");
    }
}
