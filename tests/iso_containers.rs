//! Typed iso-address containers surviving migration.

use pm2::api::*;
use pm2::iso::{IsoBox, IsoList, IsoVec};
use pm2::{Machine, Pm2Config, Pm2Error};

fn machine(nodes: usize) -> Machine {
    Machine::launch(Pm2Config::test(nodes)).unwrap()
}

#[test]
fn isobox_basics() {
    let mut m = machine(1);
    m.run_on(0, || {
        let mut b = IsoBox::new([1u64, 2, 3]).unwrap();
        assert_eq!(b[1], 2);
        b[2] = 30;
        assert_eq!(*b, [1, 2, 30]);
        let arr = b.into_inner();
        assert_eq!(arr, [1, 2, 30]);
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn isobox_survives_migration_at_same_address() {
    let mut m = machine(2);
    m.run_on(0, || {
        let b = IsoBox::new(0xCAFEu64).unwrap();
        let addr = b.as_ptr() as usize;
        pm2_migrate(1).unwrap();
        assert_eq!(b.as_ptr() as usize, addr);
        assert_eq!(*b, 0xCAFE);
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn isovec_push_pop_index() {
    let mut m = machine(1);
    m.run_on(0, || {
        let mut v: IsoVec<u32> = IsoVec::new();
        assert!(v.is_empty());
        for i in 0..1000 {
            v.push(i).unwrap();
        }
        assert_eq!(v.len(), 1000);
        assert_eq!(v[999], 999);
        assert_eq!(v.iter().sum::<u32>(), (0..1000).sum());
        assert_eq!(v.pop(), Some(999));
        assert_eq!(v.len(), 999);
        v[0] = 7;
        assert_eq!(v.as_slice()[0], 7);
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn isovec_grows_across_migrations() {
    let mut m = machine(3);
    m.run_on(0, || {
        let mut v: IsoVec<u64> = IsoVec::with_capacity(4).unwrap();
        for round in 0..3u64 {
            for i in 0..200 {
                v.push(round * 1000 + i).unwrap();
            }
            pm2_migrate(((pm2_self() + 1) % 3) as usize).unwrap();
        }
        assert_eq!(v.len(), 600);
        for round in 0..3u64 {
            for i in 0..200 {
                assert_eq!(v[(round * 200 + i) as usize], round * 1000 + i);
            }
        }
    })
    .unwrap();
    m.shutdown();
}

/// A capacity whose bytes overflow a `usize`, or any size whose block
/// would, is refused as too large — never wrapped into a small block that
/// safe code then writes past.
#[test]
fn sizes_that_overflow_are_refused() {
    let mut m = machine(1);
    m.run_on(0, || {
        let too_large = |r: Result<(), Pm2Error>| {
            matches!(r, Err(Pm2Error::Alloc(isomalloc::AllocError::TooLarge(_))))
        };
        assert!(too_large(IsoVec::<u64>::with_capacity(1 << 61).map(drop)));
        assert!(too_large(
            IsoVec::<u64>::with_capacity(usize::MAX).map(drop)
        ));
        for size in [usize::MAX, usize::MAX - 30] {
            assert!(too_large(pm2_isomalloc(size).map(drop)), "{size:#x}");
        }
        // The heap is as it was: the next block is a normal one.
        let mut v = IsoVec::<u64>::with_capacity(2).unwrap();
        for i in 0..100 {
            v.push(i).unwrap();
        }
        assert_eq!(v.iter().sum::<u64>(), 4950);
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn isolist_is_fig7s_list() {
    let mut m = machine(2);
    m.run_on(0, || {
        let mut list: IsoList<i32> = IsoList::new();
        for j in 0..500 {
            list.push_front(j * 2 + 1).unwrap();
        }
        pm2_migrate(1).unwrap();
        // Traversal follows raw pointers laid down on node 0.
        let collected: Vec<i32> = list.iter().copied().collect();
        assert_eq!(collected.len(), 500);
        assert_eq!(collected[0], 999);
        assert_eq!(collected[499], 1);
        assert_eq!(list.pop_front(), Some(999));
        assert_eq!(list.len(), 499);
    })
    .unwrap();
    m.shutdown();
}

#[test]
fn drop_in_thread_releases_slots() {
    let mut m = machine(1);
    m.run_on(0, || {
        let mut v: IsoVec<[u8; 1024]> = IsoVec::new();
        for _ in 0..200 {
            v.push([9u8; 1024]).unwrap();
        }
        drop(v);
    })
    .unwrap();
    // After the thread exits everything must be back in node bitmaps.
    let audit = m.audit().unwrap();
    let s = audit.check_partition().unwrap();
    assert_eq!(s.thread_owned, 0);
    assert_eq!(s.node_owned, m.area().n_slots());
    m.shutdown();
}

#[test]
fn strings_and_drop_glue_work_in_iso_memory() {
    let mut m = machine(2);
    m.run_on(0, || {
        let b = IsoBox::new(String::from("heap-backed string payload")).unwrap();
        // NOTE: the String's buffer lives on the process heap (std alloc),
        // but the String struct itself is in iso memory; in-process this is
        // fine and the drop glue runs on the owning thread.
        pm2_migrate(1).unwrap();
        assert_eq!(b.len(), 26);
        drop(b);
    })
    .unwrap();
    m.shutdown();
}
