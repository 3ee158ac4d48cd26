//! Per-node cooperative scheduler.
//!
//! Each node runs one scheduler.  The scheduler's own context lives on the
//! OS thread's stack; Marcel threads live on iso-slot stacks and are entered
//! and left via `marcel_ctx_switch`.  One [`Scheduler::run_one`] call runs
//! one thread until it yields, blocks, exits, or asks to migrate, and tells
//! the embedder (the PM2 node runtime) what happened — the embedder owns
//! all slot/network side effects, the scheduler owns only the run queue.
//!
//! ## Aliasing discipline
//!
//! While a Marcel thread runs, the *same* scheduler state is reachable from
//! the embedder's `run_one` frame and from the thread (through the
//! OS-thread-local pointer).  All shared state therefore sits behind an
//! `UnsafeCell`, all cross-switch accesses go through raw pointers, and —
//! crucially — **nothing is cached across `marcel_ctx_switch`**: a thread
//! resumed after migration is on a different OS thread whose TLS points at
//! a different node's scheduler, so every API call re-reads TLS (the
//! accessors are `#[inline(never)]` to pin that down).

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;

use isoaddr::SlotProvider;

use crate::ctx::{marcel_ctx_switch, prepare_initial_context, Context};
use crate::error::SpawnError;
use crate::thread::{
    self, init_stack_slot, stack_layout, switch_reason, ThreadDescriptor, ThreadState,
};

/// Raw pointer to a thread descriptor (always inside a mapped stack slot).
pub type DescPtr = *mut ThreadDescriptor;

thread_local! {
    static CURRENT_SCHED: Cell<*mut SchedInner> = const { Cell::new(std::ptr::null_mut()) };
}

/// What a completed [`Scheduler::run_one`] step observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Thread yielded; requeue it (the scheduler does *not* do so itself, so
    /// the embedder may interleave message pumping fairly).
    Yielded(DescPtr),
    /// Thread finished; release its resources.
    Exited(DescPtr),
    /// Thread called `migrate_self(dest)`: pack and ship it.
    MigrateSelf(DescPtr, usize),
    /// A third party flagged this thread for migration while it was ready;
    /// it has *not* been run.  Pack and ship it (preemptive migration, §2).
    PreemptMigrate(DescPtr, usize),
    /// Thread blocked; re-enqueue only after `unblock`.
    Blocked(DescPtr),
}

/// Consecutive control-lane dispatches before one run-queue quantum is
/// interleaved.  Control work overtakes compute floods, but a control
/// thread stuck in a poll+yield wait (a balancer daemon waiting for
/// replies that *compute threads* must help generate) cannot livelock the
/// node: the normal lane always progresses at ≥ 1/(CTL_BURST+1) speed.
const CTL_BURST: u32 = 4;

struct SchedInner {
    node: usize,
    /// Control lane: threads flagged [`thread::flags::CONTROL`] (protocol
    /// handlers).  Dispatched before the run queue, in bursts of
    /// [`CTL_BURST`], so a flood of compute quanta cannot starve
    /// migration/negotiation exchanges — and vice versa.
    ctl_queue: VecDeque<DescPtr>,
    run_queue: VecDeque<DescPtr>,
    /// Control dispatches since the last run-queue dispatch.
    ctl_streak: u32,
    current: DescPtr,
    sched_ctx: Context,
    tid_counter: u64,
    resident: usize,
}

impl SchedInner {
    /// Enqueue into the lane the descriptor's flags select.
    ///
    /// # Safety
    /// `d` must be a live descriptor owned by this scheduler's node.
    unsafe fn enqueue(&mut self, d: DescPtr) {
        if (*d).flags & thread::flags::CONTROL != 0 {
            self.ctl_queue.push_back(d);
        } else {
            self.run_queue.push_back(d);
        }
    }
}

/// A per-node scheduler.  Owns no threads' memory — descriptors live in
/// their stack slots; the scheduler only queues pointers to them.
pub struct Scheduler {
    inner: Box<UnsafeCell<SchedInner>>,
}

// SAFETY: a Scheduler is driven by exactly one OS thread at a time (the
// node's), which the embedder guarantees; descriptors it queues are only
// touched by that thread.
unsafe impl Send for Scheduler {}

impl Scheduler {
    /// Create the scheduler for `node`.
    pub fn new(node: usize) -> Scheduler {
        Scheduler {
            inner: Box::new(UnsafeCell::new(SchedInner {
                node,
                ctl_queue: VecDeque::new(),
                run_queue: VecDeque::new(),
                ctl_streak: 0,
                current: std::ptr::null_mut(),
                sched_ctx: Context::default(),
                tid_counter: 0,
                resident: 0,
            })),
        }
    }

    fn ptr(&self) -> *mut SchedInner {
        self.inner.get()
    }

    /// Bind this scheduler to the calling OS thread.  Must be called by the
    /// driving thread before `run_one`, and again whenever the driving
    /// thread switches between schedulers (an executor worker runs many
    /// nodes).
    pub fn activate(&self) {
        CURRENT_SCHED.with(|c| c.set(self.ptr()));
    }

    /// Node id.
    pub fn node(&self) -> usize {
        unsafe { (*self.ptr()).node }
    }

    /// Number of runnable threads queued (both lanes).
    pub fn queue_len(&self) -> usize {
        unsafe {
            let inner = &*self.ptr();
            inner.ctl_queue.len() + inner.run_queue.len()
        }
    }

    /// Is any thread ready to run?  The embedder's driver consults this
    /// before parking: parking is only safe when the scheduler is idle
    /// (`!has_ready()`) *and* the message inbox is drained.
    pub fn has_ready(&self) -> bool {
        unsafe {
            let inner = &*self.ptr();
            !inner.ctl_queue.is_empty() || !inner.run_queue.is_empty()
        }
    }

    /// Number of threads resident on this node (queued + running + blocked).
    pub fn resident(&self) -> usize {
        unsafe { (*self.ptr()).resident }
    }

    /// Allocate a fresh thread id.
    pub fn next_tid(&self) -> u64 {
        unsafe {
            let inner = &mut *self.ptr();
            inner.tid_counter += 1;
            ((inner.node as u64) << 40) | inner.tid_counter
        }
    }

    /// Spawn a thread executing `f`.  The closure value is *moved into the
    /// thread's stack slot*, so the whole thread — descriptor, closure and
    /// stack — lives in iso-address memory and can migrate.
    ///
    /// The paper's point that "thread creation is a local operation …
    /// since a single slot is required" (§4.1) holds whenever the closure
    /// fits; enormous closures fall back to a multi-slot stack.
    pub fn spawn<F>(&self, provider: &mut dyn SlotProvider, f: F) -> Result<DescPtr, SpawnError>
    where
        F: FnOnce() + Send + 'static,
    {
        let tid = self.next_tid();
        self.spawn_with_tid(provider, tid, f)
    }

    /// [`Scheduler::spawn`] with an externally assigned thread id (used for
    /// host-initiated spawns, whose ids are allocated by the machine).
    pub fn spawn_with_tid<F>(
        &self,
        provider: &mut dyn SlotProvider,
        tid: u64,
        f: F,
    ) -> Result<DescPtr, SpawnError>
    where
        F: FnOnce() + Send + 'static,
    {
        self.spawn_with_tid_flags(provider, tid, 0, f)
    }

    /// [`Scheduler::spawn_with_tid`] with extra descriptor flags OR-ed in
    /// at birth — pass [`thread::flags::CONTROL`] to start the thread in
    /// the control lane from its very first quantum (protocol handlers
    /// must not wait behind a backlog of compute threads even once).
    pub fn spawn_with_tid_flags<F>(
        &self,
        provider: &mut dyn SlotProvider,
        tid: u64,
        extra_flags: u32,
        f: F,
    ) -> Result<DescPtr, SpawnError>
    where
        F: FnOnce() + Send + 'static,
    {
        let slot_size = provider.slot_size();
        let closure_size = std::mem::size_of::<F>();
        debug_assert!(std::mem::align_of::<F>() <= 16, "closure over-aligned");
        // Smallest n for which the layout leaves a sane stack.
        let mut n = 1usize;
        while stack_layout(0, n, slot_size, closure_size).is_none() {
            n += 1;
            if n > 1024 {
                return Err(SpawnError::ClosureTooLarge(closure_size));
            }
        }
        let base = provider.acquire_slots(n).map_err(SpawnError::Provider)?;
        let layout = stack_layout(base, n, slot_size, closure_size)
            .expect("layout feasibility is base-independent");
        let first_slot = (base - provider.area_base()) / slot_size;
        unsafe {
            let inner = &mut *self.ptr();
            let d = init_stack_slot(&layout, first_slot as u64, n, tid, inner.node as u32);
            isomalloc::heap::heap_init(&mut (*d).heap, isomalloc::FitPolicy::FirstFit, true);
            // Move the closure into the slot and record its invoker.
            std::ptr::write(layout.closure as *mut F, f);
            (*d).entry_data = layout.closure;
            (*d).entry_invoke = invoke_closure::<F> as unsafe fn(*mut u8) as usize;
            (*d).ctx = prepare_initial_context(layout.stack_top, d as usize);
            (*d).flags |= extra_flags;
            inner.enqueue(d);
            inner.resident += 1;
            Ok(d)
        }
    }

    /// Enqueue a thread that yielded or was woken.
    ///
    /// # Safety
    /// `d` must be a live, Ready descriptor resident on this scheduler's
    /// node (returned by a previous [`RunOutcome::Yielded`]).
    pub unsafe fn requeue(&self, d: DescPtr) {
        debug_assert_eq!((*d).thread_state(), ThreadState::Ready);
        (*self.ptr()).enqueue(d);
    }

    /// Wake a blocked thread.
    ///
    /// # Safety
    /// `d` must be a live, Blocked descriptor resident on this scheduler's
    /// node (returned by a previous [`RunOutcome::Blocked`]).
    pub unsafe fn unblock(&self, d: DescPtr) {
        debug_assert_eq!((*d).thread_state(), ThreadState::Blocked);
        (*d).state = ThreadState::Ready as u32;
        (*self.ptr()).enqueue(d);
    }

    /// Adopt a thread that just arrived by migration: its slots are mapped
    /// and unpacked; mark it resident and runnable here.
    ///
    /// # Safety
    /// `d` must point at a fully unpacked descriptor whose slots are mapped
    /// on this node.
    pub unsafe fn adopt_arrival(&self, d: DescPtr) {
        self.adopt_arrivals(&[d]);
    }

    /// Adopt a whole migration *train* in one scheduler-state acquisition:
    /// every descriptor is marked resident and enqueued under a single
    /// exclusive borrow, so a k-thread arrival costs one state entry, not k.
    ///
    /// # Safety
    /// Every pointer must reference a fully unpacked descriptor whose slots
    /// are mapped on this node.
    pub unsafe fn adopt_arrivals(&self, ds: &[DescPtr]) {
        let inner = &mut *self.ptr();
        for &d in ds {
            (*d).state = ThreadState::Ready as u32;
            (*d).cur_node = inner.node as u32;
            (*d).migrate_dest = -1;
            // The CONTROL flag migrated with the descriptor: an arriving
            // protocol handler keeps its lane.
            inner.enqueue(d);
            inner.resident += 1;
        }
    }

    /// Pull every *ready* thread currently flagged for preemptive migration
    /// out of both lanes (up to `max` of them), appending the descriptors to
    /// `out` in queue order; each names its destination in `migrate_dest`.
    /// None of them has been run since being flagged — exactly the
    /// [`RunOutcome::PreemptMigrate`] contract.
    ///
    /// This is the group-migration sweep: when one departure is already
    /// being packed, the embedder collects every other thread bound for the
    /// wire in the same drain and ships same-destination ones as a single
    /// message (a *train*) instead of paying per-thread message latency.
    /// It runs on every hop, so it fills the caller's buffer rather than
    /// allocating one.
    pub fn take_migrating(&self, max: usize, out: &mut Vec<DescPtr>) {
        let full = out.len().saturating_add(max);
        unsafe {
            let inner = &mut *self.ptr();
            for q in [&mut inner.ctl_queue, &mut inner.run_queue] {
                q.retain(|&d| {
                    if out.len() < full && (*d).migrate_dest >= 0 {
                        out.push(d);
                        false
                    } else {
                        true
                    }
                });
            }
        }
    }

    /// Account a thread leaving this node (migration departure or exit).
    pub fn note_gone(&self) {
        unsafe {
            let inner = &mut *self.ptr();
            inner.resident -= 1;
        }
    }

    /// Run the next ready thread until it switches back.  Returns `None`
    /// when the run queue is empty (the embedder then pumps the network or
    /// parks).
    pub fn run_one(&self) -> Option<RunOutcome> {
        let inner = self.ptr();
        unsafe {
            // Control lane first, in bounded bursts: protocol handlers
            // overtake compute quanta, but a poll-yielding control thread
            // can never monopolize the node (see CTL_BURST).
            let take_ctl = !(*inner).ctl_queue.is_empty()
                && ((*inner).run_queue.is_empty() || (*inner).ctl_streak < CTL_BURST);
            let d = if take_ctl {
                (*inner).ctl_streak += 1;
                (*inner).ctl_queue.pop_front()?
            } else {
                (*inner).ctl_streak = 0;
                (*inner).run_queue.pop_front()?
            };
            // Preemptive migration: a third party tagged the thread while it
            // was ready.  Ship it without running it — the thread itself
            // contains no migration code whatsoever (transparency, §2).
            if (*d).migrate_dest >= 0 {
                return Some(RunOutcome::PreemptMigrate(d, (*d).migrate_dest as usize));
            }
            (*d).state = ThreadState::Running as u32;
            (*inner).current = d;
            marcel_ctx_switch(
                std::ptr::addr_of_mut!((*inner).sched_ctx),
                std::ptr::addr_of!((*d).ctx),
            );
            (*inner).current = std::ptr::null_mut();
            debug_assert!((*d).canary_ok(), "stack overflow on tid {:#x}", (*d).tid);
            let outcome = match (*d).switch_reason {
                switch_reason::YIELD => {
                    (*d).state = ThreadState::Ready as u32;
                    if (*d).migrate_dest >= 0 {
                        RunOutcome::PreemptMigrate(d, (*d).migrate_dest as usize)
                    } else {
                        RunOutcome::Yielded(d)
                    }
                }
                switch_reason::EXIT => {
                    (*d).state = ThreadState::Exited as u32;
                    RunOutcome::Exited(d)
                }
                switch_reason::MIGRATE_SELF => {
                    (*d).state = ThreadState::Migrating as u32;
                    RunOutcome::MigrateSelf(d, (*d).migrate_dest as usize)
                }
                switch_reason::BLOCK => {
                    (*d).state = ThreadState::Blocked as u32;
                    RunOutcome::Blocked(d)
                }
                r => unreachable!("corrupt switch reason {r}"),
            };
            Some(outcome)
        }
    }

    /// Request preemptive migration of `d` to `dest`.  Takes effect at the
    /// thread's next scheduling point; if the thread is currently ready it
    /// is shipped without running again.
    ///
    /// # Safety
    /// `d` must be resident on this scheduler's node.
    pub unsafe fn request_migration(&self, d: DescPtr, dest: usize) -> bool {
        if (*d).flags & thread::flags::MIGRATABLE == 0 {
            return false;
        }
        match (*d).thread_state() {
            ThreadState::Ready | ThreadState::Running => {
                (*d).migrate_dest = dest as i64;
                true
            }
            _ => false,
        }
    }
}

/// Release every resource of an exited or stillborn thread: its iso heap
/// slots and finally its stack slot, all to the node hosting `provider`
/// (Fig. 6 step 4: the *destination* node acquires the slots of a thread
/// that dies after migrating).
///
/// # Safety
/// `d` must be an exited (never-again-run) thread resident on the node that
/// owns `provider`; no references into its slots may survive this call.
pub unsafe fn release_thread_resources(
    d: DescPtr,
    provider: &mut dyn SlotProvider,
) -> Result<(), isomalloc::AllocError> {
    isomalloc::heap::heap_release_all(std::ptr::addr_of_mut!((*d).heap), provider)?;
    let base = (*d).stack_base;
    let n = (*d).stack_slots;
    // The descriptor lives in this slot: read everything needed first.
    provider.release_slots(base, n)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Green-side API (called from inside Marcel threads).
// ---------------------------------------------------------------------------

#[inline(never)]
fn cur_inner() -> *mut SchedInner {
    let p = CURRENT_SCHED.with(|c| c.get());
    assert!(
        !p.is_null(),
        "marcel API called outside a scheduler-driven thread"
    );
    p
}

/// Descriptor of the calling Marcel thread.
#[inline(never)]
pub fn current_desc() -> DescPtr {
    unsafe {
        let d = (*cur_inner()).current;
        assert!(
            !d.is_null(),
            "no Marcel thread is running on this OS thread"
        );
        d
    }
}

/// Node currently executing the caller.  Re-reads TLS on every call, so the
/// answer is correct immediately after a migration.
#[inline(never)]
pub fn current_node() -> usize {
    unsafe { (*cur_inner()).node }
}

/// Thread id of the caller.
pub fn current_tid() -> u64 {
    unsafe { (*current_desc()).tid }
}

unsafe fn switch_to_sched(reason: u32) {
    let d = current_desc();
    (*d).switch_reason = reason;
    let inner = cur_inner();
    marcel_ctx_switch(
        std::ptr::addr_of_mut!((*d).ctx),
        std::ptr::addr_of!((*inner).sched_ctx),
    );
    // Resumed — possibly on another node's OS thread.  `inner` is stale
    // here; nothing below may use it.
}

/// Cooperatively yield to the scheduler.
pub fn yield_now() {
    unsafe { switch_to_sched(switch_reason::YIELD) }
}

/// Terminate the calling thread.  Never returns.
pub fn exit_current() -> ! {
    unsafe {
        switch_to_sched(switch_reason::EXIT);
        unreachable!("exited thread resumed");
    }
}

/// Block the calling thread until someone calls [`Scheduler::unblock`].
pub fn block_current() {
    unsafe { switch_to_sched(switch_reason::BLOCK) }
}

/// Migrate the calling thread to `dest` (the engine behind `pm2_migrate`
/// with the caller as target).  Returns after the thread has been resumed on
/// the destination node; every pointer it holds is still valid because all
/// of its memory reappeared at the same virtual addresses.
pub fn migrate_self(dest: usize) {
    unsafe {
        let d = current_desc();
        if (*cur_inner()).node == dest {
            return; // already there — the paper treats this as a no-op
        }
        (*d).migrate_dest = dest as i64;
        switch_to_sched(switch_reason::MIGRATE_SELF);
        // Running again: we are on `dest` now.
    }
}

/// Entry point of every Marcel thread (reached via the asm trampoline).
///
/// # Safety
/// Called only by `marcel_thread_tramp` with a valid descriptor.
#[no_mangle]
unsafe extern "C" fn marcel_thread_entry(desc: *mut ThreadDescriptor) -> ! {
    let invoke: unsafe fn(*mut u8) = std::mem::transmute((*desc).entry_invoke);
    let data = (*desc).entry_data as *mut u8;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| invoke(data)));
    if result.is_err() {
        (*desc).panicked = 1;
    }
    exit_current()
}

unsafe fn invoke_closure<F: FnOnce()>(data: *mut u8) {
    // Move the closure out of the slot and run it.  After this read the
    // closure area is dead (it is still packed on migration, which is
    // harmless: it is part of the metadata prefix).
    let f = (data as *mut F).read();
    f()
}
