//! The migration engine (paper §2, three steps):
//!
//! 1. **Freeze & pack** — each thread is stopped at a scheduling point (its
//!    context is saved in its descriptor, which lives in its stack slot);
//!    we serialize its stack slot (metadata + live stack only) and each of
//!    its heap slots (metadata + busy blocks only, the §6 optimization),
//!    then unmap everything on the source node.  No bitmap changes: the
//!    slots still belong to the thread — and, for the same reason, nothing
//!    is zero-filled: under the default `MapStrategy::Resident` an unmap is
//!    accounting, and a slot is scrubbed only when it changes owner.
//! 2. **Send** — the buffer crosses the Madeleine fabric.
//! 3. **Adopt & unpack** — the destination maps the same slot ranges at the
//!    same virtual addresses (through the double-commit accounting, without
//!    a scrub), copies the extents back, and enqueues the thread.  What
//!    lies between the extents — free-block payloads, dead stack — is the
//!    thread's own indeterminate memory.  Because every pointer in the
//!    thread's universe is an iso-address, *nothing* is fixed up: "an
//!    iso-address copy is enough".
//!
//! ## Migration trains
//!
//! The iso-address property makes a packed thread fully
//! position-independent, so *k* threads bound for the same node can ride
//! **one** wire message — a *train* — paying the per-message latency once
//! instead of k times.  Every `MIGRATION` payload is a train (k = 1 for an
//! ordinary solo migration):
//!
//! ```text
//! u32  count                         number of threads in the train
//! count × {                          per-thread table (fixed size, so it
//!     u64 tid                        is readable even when the records
//!     u32 off                        behind it are garbage)
//!     u32 len
//! }
//! bytes                              concatenated per-thread record groups;
//!                                    entry i's group is payload[off..off+len]
//! ```
//!
//! Fault isolation is **per record group**: a corrupt or truncated group is
//! rolled back (its partially adopted slot ranges surrendered again) and
//! its tid reported for a `MIGRATION_NAK`, while every other thread in the
//! train adopts and runs.  Only an unreadable *table* (a buffer too short
//! for its own header) rejects the train as a whole — there are no tids to
//! name in that case.
//!
//! The whole hop is **single-pass and allocation-free in steady state**,
//! departure to arrival.  The train buffer is checked out of the sending
//! endpoint's [`BufPool`] and sized up front from each thread's occupancy
//! (live stack extents plus the O(1) per-slot `free_blocks`/`used_bytes`
//! hint), so the pack never regrows it, a heap slot's extent table is
//! written straight into it, and the receiver's drop recycles it for the
//! next train.  The lists a hop fills — the departures staged for one
//! step (`NodeCtx::depart`), the threads an arriving train landed and the
//! slot ranges a record group must give back if it fails
//! (`TrainOutcome`) — belong to the node and keep their room from one
//! hop to the next.  `a_hop_allocates_nothing_in_steady_state` (below)
//! counts: ten thousand hops of a null thread, and of one carrying three
//! half-free heap slots, ask the allocator for nothing beyond the block the
//! fabric's `std` channel takes every 31 messages whatever they carry; a
//! 32-thread train asks for what an 8-thread one does.

use isoaddr::{NodeSlotManager, SlotProvider, SlotRange};
use isomalloc::heap::iter_slot_runs;
use isomalloc::layout::SlotKind;
use isomalloc::pack::{
    full_record_size, heap_pack_hint, pack_full, pack_heap_slot, pack_raw_extents, peek_header,
    record_size, unpack_into_mapped,
};
use madeleine::{BufPool, Payload};
use marcel::{desc_addr, DescPtr};

use crate::error::{Pm2Error, Result};

/// Train header: thread count.
const TRAIN_HDR: usize = 4;
/// Train table entry: tid + record-group offset + length.
const TRAIN_ENTRY: usize = 8 + 4 + 4;

/// What a train unpack produced: the threads that landed and the threads
/// whose record groups were rejected (with the reason, for the NAK).  Owned
/// by the node and refilled train after train, so an arrival allocates only
/// when it rejects a group.
#[derive(Debug, Default)]
pub(crate) struct TrainOutcome {
    pub adopted: Vec<DescPtr>,
    pub rejected: Vec<(u64, String)>,
    /// Slot ranges adopted so far for the record group being unpacked: what
    /// rolling that group back surrenders.
    group_ranges: Vec<SlotRange>,
}

/// Occupancy hint for one thread's record group (stack + heap slots), in
/// bytes: what sizes the train buffer, and the balancer's cold-heap-first
/// signal (a thread with a slim stack and an empty heap ships orders of
/// magnitude cheaper than a heap hoarder).
///
/// # Safety
/// `d` must be a resident, non-running thread (frozen, Ready or Blocked)
/// on the calling node — the driver's pump never overlaps its green
/// threads, so descriptor and heap hints are stable.
pub(crate) unsafe fn thread_pack_hint(
    d: DescPtr,
    slot_size: usize,
    pack_full_slots: bool,
) -> Result<usize> {
    let desc = &*d;
    let heap = std::ptr::addr_of!(desc.heap);
    if pack_full_slots {
        Ok(full_record_size(desc.stack_slots, slot_size)
            + iter_slot_runs(heap)
                .map(|(_, n)| full_record_size(n, slot_size))
                .sum::<usize>())
    } else {
        Ok(record_size(&desc.stack_extents()) + heap_pack_hint(heap)?)
    }
}

/// Append one thread's slot records to `buf`: stack slot first (so the
/// receiver can locate the descriptor early), then each heap slot.  Nothing
/// is unmapped and no bitmap changes — the bytes are a position-independent
/// record group whether the thread then departs or keeps running here.
///
/// # Safety
/// As in [`pack_threads`], for the single thread `d`.
unsafe fn pack_thread_records(
    d: DescPtr,
    slot_size: usize,
    pack_full_slots: bool,
    buf: &mut Vec<u8>,
) -> Result<()> {
    let desc = &*d;
    if pack_full_slots {
        pack_full(
            desc.stack_base,
            SlotKind::Stack as u32,
            desc.stack_slots,
            slot_size,
            buf,
        );
    } else {
        pack_raw_extents(
            desc.stack_base,
            SlotKind::Stack as u32,
            desc.stack_slots,
            &desc.stack_extents(),
            buf,
        );
    }
    for (base, n) in iter_slot_runs(std::ptr::addr_of!(desc.heap)) {
        if pack_full_slots {
            pack_full(base, SlotKind::Heap as u32, n, slot_size, buf);
        } else {
            pack_heap_slot(base, slot_size, buf)?;
        }
    }
    Ok(())
}

/// Unmap every slot of the packed threads `ds` on the source node — the
/// departure half of a migration, run once [`pack_threads`] has the image.
/// Ownership stays with each thread (no bitmap change), and so do the bytes:
/// a surrender scrubs nothing (see [`NodeSlotManager::surrender`]).
///
/// # Safety
/// As in [`pack_threads`]; afterwards none of the threads' memory may be
/// touched on this node.
pub(crate) unsafe fn surrender_threads(ds: &[DescPtr], mgr: &mut NodeSlotManager) -> Result<()> {
    let (slot_size, area_base) = (mgr.slot_size(), mgr.area_base());
    let range = |base: usize, n: usize| SlotRange::new((base - area_base) / slot_size, n);
    for &d in ds {
        // The heap chain is rooted in the descriptor, which lives in the
        // stack slot, and each link in the slot before it: the walk reads a
        // link before that slot is unmapped, and the stack slot goes last.
        let stack = range((*d).stack_base, (*d).stack_slots);
        for (base, n) in iter_slot_runs(std::ptr::addr_of!((*d).heap)) {
            mgr.surrender(range(base, n))?;
        }
        mgr.surrender(stack)?;
    }
    Ok(())
}

/// Read a train's table without touching the records: each thread's tid
/// with its record group, in table order.  `Err` if the buffer cannot hold
/// its own table (no tids can be named); a group is `Err` when the table
/// places it over the table or past the end of the buffer.  This is the one
/// reader of the format: arrival, the spill-log index and the tests all see
/// a train through it, and it allocates nothing.
pub fn train_groups(buf: &[u8]) -> Result<impl Iterator<Item = (u64, Result<&[u8]>)>> {
    let le32 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte slice")) as usize;
    let count = buf.get(..TRAIN_HDR).map_or(0, le32);
    let header_len = TRAIN_HDR.saturating_add(count.saturating_mul(TRAIN_ENTRY));
    if count == 0 || buf.len() < header_len {
        return Err(Pm2Error::Net(format!(
            "migration train claims {count} threads, buffer has {} bytes",
            buf.len()
        )));
    }
    Ok(buf[TRAIN_HDR..header_len]
        .chunks_exact(TRAIN_ENTRY)
        .map(move |e| {
            let tid = u64::from_le_bytes(e[..8].try_into().expect("8-byte slice"));
            let (off, len) = (le32(&e[8..12]), le32(&e[12..16]));
            let group = (off >= header_len)
                .then(|| buf.get(off..)?.get(..len))
                .flatten()
                .ok_or_else(|| {
                    Pm2Error::Net(format!(
                        "record group [{off}, {off}+{len}) escapes the train"
                    ))
                });
            (tid, group)
        }))
}

/// Fill in entry `i` of the table at the head of `buf`: the one writer of
/// the entry layout [`train_groups`] reads.
fn write_entry(buf: &mut [u8], i: usize, tid: u64, off: usize, len: usize) {
    let e = &mut buf[TRAIN_HDR + i * TRAIN_ENTRY..][..TRAIN_ENTRY];
    e[..8].copy_from_slice(&tid.to_le_bytes());
    e[8..12].copy_from_slice(&(off as u32).to_le_bytes());
    e[12..].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Assemble a fresh train from already-packed record groups (recovery:
/// re-ship checkpointed threads to a survivor).  Record groups are
/// position-independent, so concatenating groups lifted from different
/// checkpoints yields a valid `MIGRATION` payload.
pub(crate) fn build_train(groups: &[(u64, &[u8])]) -> Vec<u8> {
    let header_len = TRAIN_HDR + groups.len() * TRAIN_ENTRY;
    let total: usize = groups.iter().map(|(_, g)| g.len()).sum();
    let mut buf = Vec::with_capacity(header_len + total);
    buf.extend_from_slice(&(groups.len() as u32).to_le_bytes());
    buf.resize(header_len, 0);
    for (i, (tid, group)) in groups.iter().enumerate() {
        let off = buf.len();
        buf.extend_from_slice(group);
        write_entry(&mut buf, i, *tid, off, group.len());
    }
    buf
}

/// Pack a train of frozen threads into one pooled payload — the one
/// serialiser behind both a departure and a checkpoint.  Nothing is
/// unmapped: a departure follows up with [`surrender_threads`]; a
/// checkpoint is a train that is not shipped, so its threads keep running
/// here and the spilled bytes replay through the normal `MIGRATION` arrival
/// path.  The buffer is a pool checkout sized from the occupancy hints; the
/// per-thread table is backpatched once each group's length is known.
///
/// `fault_truncate` names tids whose record group is deliberately truncated
/// after packing — the test hook behind the train fault-isolation
/// regression (empty in production; see `Pm2Config::fault_corrupt_pack`).
///
/// # Safety
/// Every descriptor must be a frozen (not running) thread resident on
/// `mgr`'s node for the duration of the call.
pub(crate) unsafe fn pack_threads(
    ds: &[DescPtr],
    mgr: &NodeSlotManager,
    pack_full_slots: bool,
    pool: &BufPool,
    fault_truncate: &[u64],
) -> Result<Payload> {
    debug_assert!(!ds.is_empty(), "empty migration train");
    let slot_size = mgr.slot_size();
    let header_len = TRAIN_HDR + ds.len() * TRAIN_ENTRY;
    let mut hint = header_len;
    for &d in ds {
        hint += thread_pack_hint(d, slot_size, pack_full_slots)?;
    }
    let mut buf = pool.checkout(hint);
    buf.extend_from_slice(&(ds.len() as u32).to_le_bytes());
    buf.resize(header_len, 0); // table placeholder, backpatched below
    for (i, &d) in ds.iter().enumerate() {
        let tid = (*d).tid;
        let off = buf.len();
        pack_thread_records(d, slot_size, pack_full_slots, &mut buf)?;
        if fault_truncate.contains(&tid) {
            // Test hook: chop the tail off this thread's group so its last
            // record claims more bytes than the group holds.  The departure
            // surrenders the slots regardless — the thread is genuinely
            // lost, as in a real corruption.
            let cut = buf.len().saturating_sub(16).max(off);
            buf.truncate(cut);
        }
        let len = buf.len() - off;
        write_entry(&mut buf, i, tid, off, len);
    }
    debug_assert!(
        buf.len() <= hint || pack_full_slots || !fault_truncate.is_empty(),
        "occupancy hint {hint} under-sized the train ({} bytes)",
        buf.len()
    );
    Ok(buf.freeze())
}

/// Map and unpack an arriving train into `outcome` (whatever it held is
/// dropped first).  Record-group failures are isolated: each failed thread
/// is rolled back (its partially adopted ranges surrendered again) and
/// reported in `rejected`, while the rest of the train lands in `adopted`
/// (descriptors at the same virtual addresses they had on the source node).
///
/// Returns `Err` only when the train table itself is unreadable — no tids
/// can be named, so the caller NAKs the train anonymously.
///
/// # Safety
/// `buf` must be (possibly corrupt) bytes received as a `MIGRATION`
/// payload; the slot ranges its healthy records name must be unmapped on
/// this node (guaranteed by the iso-address discipline).
pub(crate) unsafe fn unpack_threads(
    buf: &[u8],
    mgr: &mut NodeSlotManager,
    outcome: &mut TrainOutcome,
) -> Result<()> {
    outcome.adopted.clear();
    outcome.rejected.clear();
    for (tid, group) in train_groups(buf)? {
        match group.and_then(|g| unpack_thread(g, tid, mgr, &mut outcome.group_ranges)) {
            Ok(d) => outcome.adopted.push(d),
            Err(e) => outcome.rejected.push((tid, e.to_string())),
        }
    }
    Ok(())
}

/// Map and unpack one thread's record group; returns its descriptor, which
/// sits at the same virtual address it had on the source node.
///
/// A malformed or truncated group returns `Err` without wedging the node:
/// any slot ranges already adopted for the partial unpack (`adopted`, which
/// this call refills) are surrendered again (best effort) so the node's
/// mapping state stays consistent and the caller can NAK just this thread.
unsafe fn unpack_thread(
    buf: &[u8],
    expect_tid: u64,
    mgr: &mut NodeSlotManager,
    adopted: &mut Vec<SlotRange>,
) -> Result<DescPtr> {
    adopted.clear();
    unpack_records(buf, expect_tid, mgr, adopted).inspect_err(|_| {
        // Roll the partial arrival back: unmap whatever was adopted.
        for &r in adopted.iter() {
            let _ = mgr.surrender(r);
        }
    })
}

unsafe fn unpack_records(
    buf: &[u8],
    expect_tid: u64,
    mgr: &mut NodeSlotManager,
    adopted: &mut Vec<SlotRange>,
) -> Result<DescPtr> {
    let slot_size = mgr.slot_size();
    let area_base = mgr.area_base();
    let mut off = 0;
    let mut desc: DescPtr = std::ptr::null_mut();
    while off < buf.len() {
        let info = peek_header(&buf[off..])?;
        // A corrupt record can name any address; reject before the slot
        // arithmetic can underflow.
        if info.base < area_base || !(info.base - area_base).is_multiple_of(slot_size) {
            return Err(Pm2Error::Net(format!(
                "migration record names base {:#x} outside the slot grid",
                info.base
            )));
        }
        let first = (info.base - area_base) / slot_size;
        let range = SlotRange::new(first, info.n_slots);
        if range.end() > mgr.area().n_slots() {
            return Err(Pm2Error::Net(format!(
                "migration record claims slots {range:?} beyond the area"
            )));
        }
        if !mgr.bitmap().all_clear(range) {
            return Err(Pm2Error::Net(format!(
                "migration record claims slots {range:?} this node owns"
            )));
        }
        mgr.adopt(range)?;
        adopted.push(range);
        unpack_into_mapped(&buf[off..], slot_size)?;
        if info.kind == SlotKind::Stack as u32 {
            desc = desc_addr(info.base) as DescPtr;
        }
        off += info.record_len;
    }
    if desc.is_null() {
        return Err(Pm2Error::Net(
            "migration record group contained no stack slot".into(),
        ));
    }
    // The table names the thread; the packed descriptor must agree, or the
    // registry/NAK bookkeeping would track the wrong tid.
    if (*desc).tid != expect_tid {
        return Err(Pm2Error::Net(format!(
            "train table names tid {expect_tid:#x} but the packed descriptor says {:#x}",
            (*desc).tid
        )));
    }
    Ok(desc)
}

#[cfg(test)]
mod tests {
    use super::train_groups;
    use crate::api::{pm2_isomalloc, pm2_yield};
    use crate::node::NodeCtx;
    use crate::proto::tag;
    use crate::Pm2Config;
    use madeleine::Payload;
    use marcel::ThreadState;
    use std::iter::zip;

    /// `(tid, record group)` per thread of a train, sorted by tid (a
    /// checkpoint walks the thread table, a departure the run queue).
    fn groups(train: &[u8]) -> Vec<(u64, &[u8])> {
        let mut g: Vec<_> = train_groups(train)
            .expect("readable train table")
            .map(|(tid, group)| (tid, group.expect("group inside the train")))
            .collect();
        g.sort();
        g
    }

    /// One bounds rule for every consumer: a group must lie behind the
    /// table and inside the buffer, and a bad entry costs only its thread.
    #[test]
    fn a_group_over_the_table_or_past_the_end_is_refused_alone() {
        let mut train = super::build_train(&[(7, &[0x17; 24]), (8, &[0x18; 24])]);
        assert_eq!(groups(&train), [(7, &[0x17; 24][..]), (8, &[0x18; 24][..])]);
        let intact = train.clone();
        super::write_entry(&mut train, 0, 7, super::TRAIN_HDR, 24); // over the table
        super::write_entry(&mut train, 1, 8, intact.len() - 23, 24); // one byte past the end
        let verdicts: Vec<_> = train_groups(&train)
            .unwrap()
            .map(|(tid, group)| (tid, group.is_ok()))
            .collect();
        assert_eq!(verdicts, [(7, false), (8, false)]);
        super::write_entry(&mut train, 1, 8, intact.len() - 24, 24);
        assert_eq!(
            train_groups(&train)
                .unwrap()
                .filter(|g| g.1.is_ok())
                .count(),
            1
        );
        // No table, no tids.
        assert!(train_groups(&intact[..super::TRAIN_HDR + 31]).is_err());
        assert!(train_groups(&[0, 0, 0, 0, 9, 9]).is_err(), "empty train");
    }

    /// A checkpoint is a train that is not shipped: the image
    /// `checkpoint_now` spills for a frozen thread set is, thread for
    /// thread, the bytes the same set then departs in — but for the one
    /// descriptor byte that says why the thread is frozen (`Ready` in a
    /// checkpoint, `Migrating` in a departure).
    #[test]
    fn checkpoint_image_is_the_departure_train() {
        let dir = std::env::temp_dir().join(format!("pm2-pack-path-{}", std::process::id()));
        let (mut ctx, ep1, _host) = crate::tests::bare_node(Pm2Config {
            spill_dir: Some(dir.clone()),
            ..Pm2Config::test(2)
        });
        let tids = [0x101u64, 0x102, 0x103];
        for (i, &tid) in tids.iter().enumerate() {
            let body = move || {
                // A heap of its own, so the image has heap-slot records too.
                let p = pm2_isomalloc(600 * (i + 1)).unwrap();
                unsafe { std::ptr::write_bytes(p, 0xA0 + i as u8, 600 * (i + 1)) };
                loop {
                    pm2_yield();
                }
            };
            ctx.try_spawn_boxed(tid, 0, Box::new(body)).unwrap();
        }
        for _ in 0..tids.len() {
            assert!(ctx.step(), "each thread runs to its first yield");
        }
        // Flag first, so both images carry the same `migrate_dest`.
        assert_eq!(ctx.request_migrations(tids.to_vec(), 1), 3);
        assert_eq!(ctx.checkpoint_now().unwrap(), 3);
        let log = crate::spill::replay(&dir.join("node0.log")).unwrap();
        let image = &log.records.last().expect("one checkpoint record").train;

        assert!(ctx.step(), "the flagged threads leave as one train");
        let train = ep1
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("migration train");
        assert_eq!(train.tag, tag::MIGRATION);
        assert_eq!(image.len(), train.payload.len());
        let states = (&(ThreadState::Ready as u8), &(ThreadState::Migrating as u8));
        for ((ck_tid, ck), (tr_tid, tr)) in zip(groups(image), groups(&train.payload)) {
            assert_eq!((ck_tid, ck.len()), (tr_tid, tr.len()));
            let diff: Vec<_> = zip(ck, tr).filter(|(a, b)| a != b).collect();
            assert_eq!(
                diff,
                [states],
                "tid {ck_tid:#x}: only the state byte differs"
            );
        }
        assert!(ctx.threads.is_empty(), "all three departed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hop allocates nothing of its own once the two nodes have seen one:
    /// the staging list, the arrival's outcome and rollback list are the
    /// node's and reused, a heap slot's extent table is written into the
    /// pooled train buffer, and that buffer goes round.  Counted on the
    /// thread that steps both nodes, so every stage of the hop is in.
    ///
    /// The fabric's links are `std` channels, which take a block from the
    /// allocator every few dozen messages whatever those carry.  That is
    /// measured first, on the same links, and is all a hop may ask for —
    /// give or take one block per link, for where in a block a count starts.
    #[test]
    fn a_hop_allocates_nothing_in_steady_state() {
        use crate::api::{pm2_isofree, pm2_migrate, pm2_self};
        use testkit::alloc::allocs_in;
        const HOPS: u64 = 10_000;

        let (mut n0, mut n1, _host) = crate::tests::bare_pair(Pm2Config::test(2));
        let ((), wire) = allocs_in(|| {
            for _ in 0..HOPS / 2 {
                n0.ep.send(1, tag::MIGRATION, Payload::empty()).unwrap();
                n1.ep.try_recv().expect("a message for node 1");
                n1.ep.send(0, tag::MIGRATION, Payload::empty()).unwrap();
                n0.ep.try_recv().expect("a message for node 0");
            }
        });
        let hopper = || loop {
            pm2_migrate(1 - pm2_self()).unwrap();
        };
        // One step per hop: a thread arrives, runs, and leaves again.
        let hops = |n0: &mut NodeCtx, n1: &mut NodeCtx, n: u64| {
            let arrivals = |n: &NodeCtx| n.stats.snapshot().migrations_in;
            let before = arrivals(n0) + arrivals(n1);
            for _ in 0..n / 2 {
                assert!(n1.step() && n0.step());
            }
            assert_eq!(arrivals(n0) + arrivals(n1) - before, n);
        };

        // A null thread…
        n0.try_spawn_boxed(0x201, 0, Box::new(hopper)).unwrap();
        assert!(n0.step(), "runs to its first hop");
        hops(&mut n0, &mut n1, 16);
        let ((), allocs) = allocs_in(|| hops(&mut n0, &mut n1, HOPS));
        assert!(allocs <= wire + 2, "null thread: {allocs} > {wire} + 2");

        // …and with it one that carries a heap: three slots, every other
        // block free.
        let heavy = move || {
            let blocks: Vec<_> = (0..60).map(|_| pm2_isomalloc(3000).unwrap()).collect();
            for &p in blocks.iter().step_by(2) {
                pm2_isofree(p).unwrap();
            }
            drop(blocks);
            hopper()
        };
        n0.try_spawn_boxed(0x202, 0, Box::new(heavy)).unwrap();
        hops(&mut n0, &mut n1, 16);
        let d = n0.threads[&0x202];
        let heap = unsafe { isomalloc::heap::heap_slots(std::ptr::addr_of!((*d).heap)) };
        assert!(heap.len() >= 2, "heap slots: {heap:?}");
        let ((), allocs) = allocs_in(|| hops(&mut n0, &mut n1, HOPS));
        assert!(allocs <= wire + 2, "heap owner: {allocs} > {wire} + 2");
    }

    /// Nor does a train pay per thread: moving 32 threads there and back in
    /// one message each way asks the allocator for what moving 8 does —
    /// nothing (eight messages do not reach the end of a link's first block).
    #[test]
    fn a_train_allocates_no_more_for_more_threads() {
        let (mut n0, mut n1, _host) = crate::tests::bare_pair(Pm2Config::test(2));
        let mut tids = Vec::new();
        let mut round_trip_allocs = |k: u64| {
            while (tids.len() as u64) < k {
                tids.push(0x300 + tids.len() as u64);
                let body = || loop {
                    pm2_yield();
                };
                n0.try_spawn_boxed(*tids.last().unwrap(), 0, Box::new(body))
                    .unwrap();
            }
            for _ in 0..k {
                assert!(n0.step(), "each thread runs to a yield");
            }
            // Every thread is flagged, so the first one a step finds takes
            // the rest with it; the arrival then runs one of them a quantum.
            let round_trip = |n0: &mut NodeCtx, n1: &mut NodeCtx| {
                let (out, back) = (tids.clone(), tids.clone());
                testkit::alloc::allocs_in(|| {
                    assert_eq!(n0.request_migrations(out, 1), k as u32);
                    assert!(n0.step() && n1.step());
                    assert_eq!(n1.request_migrations(back, 0), k as u32);
                    assert!(n1.step() && n0.step());
                })
                .1
            };
            round_trip(&mut n0, &mut n1); // the buffers grow to fit once
            let allocs = round_trip(&mut n0, &mut n1);
            let trains = n0.stats.snapshot().trains_in + n1.stats.snapshot().trains_in;
            (allocs, trains)
        };
        let (few, trains) = round_trip_allocs(8);
        assert_eq!(trains, 4, "one train each way, twice");
        let (many, trains) = round_trip_allocs(32);
        assert_eq!(trains, 8);
        assert_eq!(n0.stats.snapshot().migrations_in, 2 * (8 + 32));
        assert_eq!((few, many), (0, 0), "8 threads, and 32");
    }
}
