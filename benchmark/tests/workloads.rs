//! The benchmark's own checks: inputs are a function of the seed, every
//! correctness check trips on a corrupted result, the metric tables agree
//! with `BENCHMARK.json`, and a short traced run of every workload is
//! correct, complete, and has span self times that add up to the op.

use benchmark::json::{self, Value};
use benchmark::workloads::{alloc_drift, evacuate_heap, migrate_null, rpc_fanin};
use benchmark::{run, workload, Report, END_TO_END, PER_LAYER, WORKLOADS};
use pm2::Machine;
use std::sync::Mutex;

/// Tests that launch threaded machines take turns: four at once on two
/// cores would time each other, not the code.
static MACHINE: Mutex<()> = Mutex::new(());

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    assert_eq!(migrate_null::canary_words(5), migrate_null::canary_words(5));
    assert_ne!(migrate_null::canary_words(5), migrate_null::canary_words(6));
    assert_eq!(evacuate_heap::inputs(5), evacuate_heap::inputs(5));
    assert_ne!(evacuate_heap::inputs(5), evacuate_heap::inputs(6));
    assert_eq!(rpc_fanin::inputs(5), rpc_fanin::inputs(5));
    assert_ne!(rpc_fanin::inputs(5), rpc_fanin::inputs(6));
    assert_eq!(alloc_drift::inputs(5), alloc_drift::inputs(5));
    assert_ne!(alloc_drift::inputs(5), alloc_drift::inputs(6));
}

#[test]
fn seeds_change_order_not_volume() {
    // The byte volume of a run must not depend on the seed, or the spread
    // between seeds would be the workload's, not the machine's.
    let heap_bytes = |seed| -> Vec<usize> {
        evacuate_heap::inputs(seed)
            .iter()
            .map(|p| {
                (0..evacuate_heap::BLOCKS)
                    .filter(|&b| !p.freed[b])
                    .map(|b| p.sizes[b])
                    .sum()
            })
            .collect()
    };
    assert_eq!(heap_bytes(1), heap_bytes(2));
    assert_eq!(heap_bytes(1)[0], heap_bytes(1)[31]);
    let pair_bytes = |seed| -> usize {
        alloc_drift::inputs(seed)[..alloc_drift::PAIRS]
            .iter()
            .map(|p| p.size as usize)
            .sum()
    };
    assert_eq!(pair_bytes(1), pair_bytes(2));
    let sizes = |seed| {
        let plan = &rpc_fanin::inputs(seed)[0];
        let mut count = [0usize; 3];
        plan.schedule.iter().for_each(|&c| count[c as usize] += 1);
        count
    };
    assert_eq!(sizes(1), sizes(2));
    assert_eq!(sizes(1)[0], sizes(1)[2]);
    assert!(alloc_drift::inputs(3)
        .iter()
        .all(|p| (16..=2048).contains(&p.size)));
}

#[test]
fn hop_check_fails_on_wrong_node_or_lost_canary() {
    assert!(migrate_null::hop_ok(1, 1, 0xFEED, 0xFEED));
    assert!(
        !migrate_null::hop_ok(0, 1, 0xFEED, 0xFEED),
        "still on the source"
    );
    assert!(
        !migrate_null::hop_ok(1, 1, 0xFEEC, 0xFEED),
        "stack word changed"
    );
}

#[test]
fn echo_check_fails_on_a_corrupted_response() {
    let plan = &rpc_fanin::inputs(9)[3];
    for seq in [0u64, 1, 2, 4097] {
        let sent = plan.body(seq);
        assert!(rpc_fanin::echo_ok(seq, &sent, seq, &sent));
        let mut flipped = sent.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(
            !rpc_fanin::echo_ok(seq, &sent, seq, &flipped),
            "one flipped bit"
        );
        assert!(
            !rpc_fanin::echo_ok(seq, &sent, seq, &sent[1..]),
            "truncated"
        );
        assert!(
            !rpc_fanin::echo_ok(seq, &sent, seq + 1, &sent),
            "another call's reply"
        );
    }
    // Bodies of consecutive calls differ even when they share a template.
    assert_ne!(
        plan.body(0)[..8],
        plan.body(rpc_fanin::PAYLOAD_SIZES.len() as u64 * 1024)[..8]
    );
}

#[test]
fn evacuation_check_fails_on_a_straggler_or_a_refusal() {
    let all_there = [1u32; evacuate_heap::EVACUEES];
    assert!(evacuate_heap::evacuation_ok(32, &all_there, 1));
    let mut straggler = all_there;
    straggler[17] = 0;
    assert!(!evacuate_heap::evacuation_ok(32, &straggler, 1));
    assert!(!evacuate_heap::evacuation_ok(31, &all_there, 1));
    assert!(!evacuate_heap::evacuation_ok(32, &all_there, 0));
}

#[test]
fn heap_check_fails_on_a_corrupted_word() {
    let mut m = Machine::builder(1).test_profile().launch().unwrap();
    let plan = evacuate_heap::inputs(4).swap_remove(7);
    let expected = plan.checksum();
    let (built, corrupted) = m
        .run_on(0, move || {
            let mut heap = evacuate_heap::Heap::build(&plan).unwrap();
            let built = heap.checksum();
            heap.corrupt_one_word();
            (built, heap.checksum())
        })
        .unwrap();
    m.shutdown();
    assert_eq!(
        built, expected,
        "a heap built to plan reads the plan's checksum"
    );
    assert_ne!(corrupted, expected, "one flipped bit is caught");
}

#[test]
fn pattern_check_fails_on_either_end() {
    let tag = 0x1234_5678_9ABC_DEF0u64;
    assert!(alloc_drift::pattern_ok((tag, !tag), tag));
    assert!(!alloc_drift::pattern_ok((tag ^ 1, !tag), tag));
    assert!(!alloc_drift::pattern_ok((tag, tag), tag));
}

fn names(table: &Value) -> Vec<(String, String)> {
    table
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").unwrap().as_str().unwrap().to_string(),
                m.get("unit")
                    .map_or(String::new(), |u| u.as_str().unwrap().to_string()),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_the_binary_prints() {
    let spec = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(spec.get("end_to_end").unwrap()), own(&END_TO_END));
    assert_eq!(names(spec.get("per_layer").unwrap()), own(&PER_LAYER));
    let workloads: Vec<String> = names(spec.get("workloads").unwrap())
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.name));
    assert_eq!(
        spec.get("paths").unwrap().as_arr().unwrap(),
        [Value::Str("benchmark".into())]
    );
}

/// The bounds of `BENCHMARK.json` are a rule applied to measurements, not
/// round numbers: the larger of the issue's floor, three times the worst
/// spread (interquartile range over median of ten runs, any workload,
/// any of three sets) and twice the worst shift of a median between two
/// of the sets, rounded up to a percent.  A new measurement changes the table
/// here and the bound together.  README.md has the per-workload figures.
#[test]
fn bounds_are_the_rule_applied_to_the_measured_spreads() {
    // (metric, floor, worst spread, worst set-to-set shift of the median)
    const MEASURED: [(&str, f64, f64, f64); 5] = [
        ("ops_per_s", 0.05, 0.0544, 0.072),
        ("op_us_p50", 0.05, 0.0827, 0.092),
        ("op_us_p90", 0.08, 0.0699, 0.093),
        // The builder's contract asks for the widest bound on set-up:
        // the ceiling, whatever was measured.
        ("setup_s", 0.25, 0.0659, 0.061),
        ("peak_rss_mib", 0.05, 0.0199, 0.008),
    ];
    let spec = benchmark::compare::load_spec(include_str!("../../BENCHMARK.json")).unwrap();
    assert_eq!(spec.len(), MEASURED.len());
    for (m, (name, floor, spread, shift)) in spec.iter().zip(MEASURED) {
        assert_eq!(m.name, name);
        let rule = floor.max(3.0 * spread).max(2.0 * shift);
        let want = ((rule * 100.0).ceil() / 100.0).min(0.25);
        assert!(
            (m.bound - want).abs() < 1e-9,
            "{name}: bound {} but the rule gives {want}",
            m.bound
        );
    }
}

/// A 1 s traced run: correct, nothing failed, every per-layer metric
/// present, the workload's own spans and probes measured, and the median
/// self times adding up to the median op within 5 %.
fn smoke(name: &str) -> Report {
    let _turn = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let w = workload(name).unwrap();
    let report = run(w, 11, 1, true).unwrap();
    assert!(report.correct, "{name}: a check tripped");
    assert_eq!(report.failed, 0);
    assert!(report.attempted >= 1);
    let printed: Vec<_> = report.metrics.iter().map(|m| (m.0, m.1)).collect();
    assert_eq!(printed, PER_LAYER);
    for &(span, _) in w.spans {
        assert!(
            report.metric(span).unwrap() > 0.0,
            "{name}: span {span} not recorded"
        );
    }
    for (probe, _) in (w.probes)().unwrap() {
        assert!(
            report.metric(probe).unwrap() > 0.0,
            "{name}: probe {probe} not measured"
        );
    }
    // With no child spans there is nothing to add up (and a hop is
    // bimodal, so "the median op" can fall between the modes).
    let sum = report.metric("bench.span_sum_ratio").unwrap();
    assert!(
        w.spans.is_empty() || (sum - 1.0).abs() <= 0.05,
        "{name}: span self times sum to {sum} of the op"
    );
    assert!(report.metric("bench.samples").unwrap() >= 64.0);
    let line = json::parse(&report.result_json()).unwrap();
    let keys: Vec<_> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    report
}

#[test]
fn smoke_migrate_null() {
    let r = smoke("migrate_null");
    for allocator_layer in [
        "pm2.negotiation.trades_per_op",
        "pm2.negotiation.globals_per_op",
        "isoaddr.multi_acquires_per_op",
        "pm2.service.remote_ratio",
    ] {
        assert_eq!(
            r.metric(allocator_layer),
            Some(0.0),
            "{allocator_layer} must idle here"
        );
    }
}

#[test]
fn smoke_evacuate_heap() {
    smoke("evacuate_heap");
}

#[test]
fn smoke_rpc_fanin() {
    let r = smoke("rpc_fanin");
    assert_eq!(r.metric("pm2.service.remote_ratio"), Some(1.0));
}

#[test]
fn smoke_alloc_drift() {
    smoke("alloc_drift");
}

#[test]
fn untraced_run_prints_the_end_to_end_set_and_bad_arguments_fail() {
    let _turn = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let bin = env!("CARGO_BIN_EXE_benchmark");
    let out = std::process::Command::new(bin)
        .args([
            "--workload",
            "migrate_null",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines();
    assert!(json::parse(lines.next().unwrap())
        .unwrap()
        .get("provenance")
        .is_some());
    let result = json::parse(lines.next_back().unwrap()).unwrap();
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    let metrics = result.get("metrics").unwrap().as_obj().unwrap();
    let printed: Vec<_> = metrics
        .iter()
        .map(|(k, v)| (k.as_str(), v.get("unit").unwrap().as_str().unwrap()))
        .collect();
    assert_eq!(printed, END_TO_END);
    assert!(metrics
        .iter()
        .all(|(_, v)| v.get("value").unwrap().as_f64().unwrap() > 0.0));

    for bad in [
        &[
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "migrate_null",
            "--seed",
            "1",
            "--seconds",
            "1",
        ][..],
        &[
            "--workload",
            "migrate_null",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[][..],
    ] {
        let out = std::process::Command::new(bin).args(bad).output().unwrap();
        assert!(!out.status.success(), "{bad:?} must fail");
        assert!(out.stdout.is_empty(), "{bad:?} must print no result");
    }
}
