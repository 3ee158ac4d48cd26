//! One worker: a single OS thread runs every node and every green thread in
//! ready-queue order, so identical programs produce identical interleavings
//! — run-to-run and against a golden trace.

use pm2::api::*;
use pm2::{pm2_printf, Machine, Pm2Config};

fn trace_of_run(seed: u64) -> Vec<String> {
    let mut m = Machine::launch(Pm2Config::test(3)).unwrap();
    let mut handles = Vec::new();
    for i in 0..3usize {
        handles.push(
            m.spawn_on(i, move || {
                for round in 0..4 {
                    pm2_printf!("t{i} round {round} on node {}", pm2_self());
                    if round == 1 {
                        pm2_migrate((i + 1) % 3).unwrap();
                    }
                    pm2_yield();
                }
                let _ = seed;
            })
            .unwrap(),
        );
    }
    for h in handles {
        m.join(h);
    }
    let lines = m.output_lines();
    m.shutdown();
    lines
}

#[test]
fn identical_runs_produce_identical_traces() {
    let a = trace_of_run(1);
    let b = trace_of_run(1);
    let c = trace_of_run(1);
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert!(a.len() >= 12, "each thread printed 4 rounds");
}

#[test]
fn migrated_threads_report_new_nodes_in_trace() {
    let lines = trace_of_run(2);
    // Every thread's round-0 line is on its spawn node…
    for i in 0..3 {
        assert!(lines.contains(&format!("[node{i}] t{i} round 0 on node {i}")));
    }
    // …and its round-2 line (after the round-1 migration) is on (i+1)%3.
    for i in 0..3usize {
        let dest = (i + 1) % 3;
        assert!(
            lines.contains(&format!("[node{dest}] t{i} round 2 on node {dest}")),
            "thread {i} should continue on node {dest}: {lines:?}"
        );
    }
}
