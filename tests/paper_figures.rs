//! Reproductions of the paper's example programs (Figures 1–4 and 7–9),
//! asserting the exact behaviours the paper demonstrates — including the
//! failure modes of plain `malloc`.

use pm2::api::*;
use pm2::{pm2_printf, Machine, Pm2Config};

fn machine(nodes: usize) -> Machine {
    Machine::launch(Pm2Config::test(nodes)).unwrap()
}

/// Figure 1: a stack variable is migrated with the thread.
///
/// ```c
/// void p1() {
///     int x;  x = 1;
///     pm2_printf("value = %d\n", x);
///     pm2_migrate(marcel_self(), 1);
///     pm2_printf("value = %d\n", x);
/// }
/// ```
#[test]
fn fig1_stack_data_survives() {
    let mut m = machine(2);
    m.run_on(0, || {
        let x: i32 = 1;
        pm2_printf!("value = {x}");
        pm2_migrate(1).unwrap();
        pm2_printf!("value = {x}");
    })
    .unwrap();
    assert_eq!(
        m.output_lines(),
        vec!["[node0] value = 1", "[node1] value = 1"],
        "the paper's Fig. 1 execution trace"
    );
    m.shutdown();
}

/// Figure 2 under iso-addressing: a pointer to stack data stays valid with
/// NO registration and NO post-migration processing (in the early scheme
/// this exact program segfaulted).
#[test]
fn fig2_pointer_to_stack_survives() {
    let mut m = machine(2);
    m.run_on(0, || {
        let x: i32 = 1;
        let ptr = &x as *const i32;
        pm2_printf!("value = {}", unsafe { *ptr });
        pm2_migrate(1).unwrap();
        // Same virtual address, same value: no segfault, no fix-up.
        pm2_printf!("value = {}", unsafe { *ptr });
    })
    .unwrap();
    assert_eq!(
        m.output_lines(),
        vec!["[node0] value = 1", "[node1] value = 1"]
    );
    m.shutdown();
}

/// Figure 3 is Figure 2's program wrapped in `pm2_register_pointer` /
/// `pm2_unregister_pointer`, so the early runtime could find `ptr` and
/// rewrite it on arrival.  Here the calls are simply gone: the pointer
/// variable sits at the same address on both nodes and holds the same
/// value, so there is nothing to register and nothing to rewrite.
#[test]
fn fig3_registered_pointer_program() {
    let mut m = machine(2);
    m.run_on(0, || {
        let x: i32 = 1;
        let ptr = &x as *const i32;
        let (cell, target) = (&ptr as *const _ as usize, ptr as usize);
        pm2_printf!("value = {}", unsafe { *ptr });
        pm2_migrate(1).unwrap();
        pm2_printf!("value = {}", unsafe { *ptr });
        assert_eq!((&ptr as *const _ as usize, ptr as usize), (cell, target));
    })
    .unwrap();
    assert_eq!(
        m.output_lines(),
        vec!["[node0] value = 1", "[node1] value = 1"]
    );
    m.shutdown();
}

/// Figure 4 / Figure 9: data allocated with plain `malloc` (here:
/// `node_malloc`, the node-private heap) does NOT follow the thread.  After
/// migration the old address holds poison — the paper's garbage values —
/// and the runtime can tell us a real cluster would have faulted.
#[test]
fn fig4_fig9_malloc_data_lost() {
    let mut m = machine(2);
    m.run_on(0, || {
        let t = node_malloc(100 * 4) as *mut i32;
        unsafe { t.add(10).write(1) };
        assert!(node_ptr_valid(t as *const u8));
        pm2_printf!("value = {}", unsafe { *t.add(10) });
        pm2_migrate(1).unwrap();
        // The thread left node 0; its node-local data was poisoned there.
        let garbage = unsafe { *t.add(10) };
        assert_eq!(garbage, pm2::nodeheap::POISON_I32, "Fig. 9's garbage read");
        assert_ne!(garbage, 1);
        assert!(
            !node_ptr_valid(t as *const u8),
            "a real cluster would have segfaulted here (Fig. 4)"
        );
        pm2_printf!("value = {garbage}");
    })
    .unwrap();
    let lines = m.output_lines();
    assert_eq!(lines[0], "[node0] value = 1");
    assert!(lines[1].starts_with("[node1] value = ") && !lines[1].ends_with("= 1"));
    m.shutdown();
}

/// Figures 7 + 8: build a linked list with pm2_isomalloc, traverse it,
/// migrate at element 100, and finish the traversal on node 1.  The
/// captured trace must match the paper's Fig. 8 shape exactly.
#[test]
fn fig7_fig8_isomalloc_list_traversal() {
    // The paper uses 100'000 elements; 3'000 keeps the one-worker
    // test fast while exercising multiple slots.
    const NB_ELEMENTS: usize = 3_000;

    #[repr(C)]
    struct Item {
        value: i32,
        next: *mut Item,
    }

    let mut m = machine(2);
    m.run_on(0, || {
        // Create the list (paper: ptr->value = j * 2 + 1).
        let mut head: *mut Item = std::ptr::null_mut();
        for j in 0..NB_ELEMENTS {
            let ptr = pm2_isomalloc(std::mem::size_of::<Item>()).unwrap() as *mut Item;
            unsafe {
                (*ptr).value = (j * 2 + 1) as i32;
                (*ptr).next = head;
            }
            head = ptr;
        }
        pm2_printf!("I am thread {:#x}", pm2_self_tid());
        // Traverse; migrate at element 100.
        let mut j = 0usize;
        let mut ptr = head;
        while !ptr.is_null() {
            if j == 100 {
                pm2_printf!("Initializing migration from node {}", pm2_self());
                pm2_migrate(1).unwrap();
                pm2_printf!("Arrived at node {}", pm2_self());
            }
            // Print a sample of elements (the full trace would be huge).
            if j < 102 || j == NB_ELEMENTS - 1 {
                pm2_printf!("Element {} = {}", j, unsafe { (*ptr).value });
            }
            unsafe {
                let expected = ((NB_ELEMENTS - 1 - j) * 2 + 1) as i32;
                assert_eq!((*ptr).value, expected, "list corrupted at element {j}");
                ptr = (*ptr).next;
            }
            j += 1;
        }
        assert_eq!(j, NB_ELEMENTS, "every element was visited");
    })
    .unwrap();

    let lines = m.output_lines();
    // The trace shape of Fig. 8: elements 0..99 on node 0, the migration
    // banner, then elements from 100 on node 1.
    assert!(lines[1].starts_with("[node0] Element 0 = "));
    assert!(lines.iter().any(|l| l.starts_with("[node0] Element 99 = ")));
    let mig = lines
        .iter()
        .position(|l| l == "[node0] Initializing migration from node 0")
        .expect("migration banner");
    assert_eq!(lines[mig + 1], "[node1] Arrived at node 1");
    assert!(lines[mig + 2].starts_with("[node1] Element 100 = "));
    // Values printed after migration are correct (not Fig. 9's garbage).
    let expected_100 = ((NB_ELEMENTS - 1 - 100) * 2 + 1) as i32;
    assert_eq!(
        lines[mig + 2],
        format!("[node1] Element 100 = {expected_100}")
    );
    m.shutdown();
}

/// Figure 8 vs Figure 9 contrast in one program: two identical list
/// workloads, one on pm2_isomalloc and one on node_malloc; after migration
/// the first traverses fine and the second reads garbage.
#[test]
fn fig8_vs_fig9_side_by_side() {
    #[repr(C)]
    struct Item {
        value: i32,
        next: *mut Item,
    }
    unsafe fn build(n: usize, alloc: impl Fn(usize) -> *mut u8) -> *mut Item {
        let mut head: *mut Item = std::ptr::null_mut();
        for j in 0..n {
            let ptr = alloc(std::mem::size_of::<Item>()) as *mut Item;
            (*ptr).value = j as i32;
            (*ptr).next = head;
            head = ptr;
        }
        head
    }
    let mut m = machine(2);
    m.run_on(0, || unsafe {
        let iso_head = build(50, |s| pm2_isomalloc(s).unwrap());
        let mal_head = build(50, node_malloc);
        pm2_migrate(1).unwrap();
        // isomalloc list: intact.
        let mut cur = iso_head;
        let mut count = 0;
        while !cur.is_null() {
            assert_eq!((*cur).value, 49 - count);
            cur = (*cur).next;
            count += 1;
        }
        assert_eq!(count, 50);
        // malloc list: the head value is garbage; following its next
        // pointer would chase poisoned memory (the Fig. 9 segfault).
        assert_eq!((*mal_head).value, pm2::nodeheap::POISON_I32);
        assert!(!node_ptr_valid(mal_head as *const u8));
    })
    .unwrap();
    m.shutdown();
}
