//! The repo benchmark.  One run is one workload:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a provenance line, a line of per-sub-window figures and then, as
//! the last line of stdout, one JSON object `{"correct", "attempted",
//! "failed", "metrics"}`.  With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` they are the per-layer ones.  `BENCHMARK.json` at the repo root names
//! both sets with units, directions and bounds; `README.md` says why each
//! workload and metric exists and which end-to-end metric each per-layer
//! metric should move.
//!
//! Every layer is measured from outside: by timing calls into public
//! functions of the runtime and reading its public stats snapshots.

pub mod compare;
pub mod harness;
pub mod hist;
pub mod json;
pub mod probes;
pub mod rng;
pub mod sysinfo;
pub mod trace;
pub mod workloads;

use harness::{layer_counters, quantile, Cycle, Params, Snapshot, Totals, BEST};
use sysinfo::{now_ns, Provenance};
use workloads::{alloc_drift, evacuate_heap, migrate_null, rpc_fanin};

/// Cycles per run.  Each cycle launches a fresh machine, populates the
/// workload, warms it up with a fixed op count, and then measures for a
/// fifth of `--seconds`.  Set-up is timed five times and the timed
/// metrics pool the sub-windows of the five — so whatever a single
/// launch happens to fix for its lifetime (which core a driver lands on,
/// where the area is mapped) is sampled five times per run, not once.
pub const CYCLES: usize = 5;

pub struct Workload {
    pub name: &'static str,
    /// Warm-up ops before the timed window: a constant, not a duration,
    /// so work moved from the timed path into launch or first touch
    /// still shows in `setup_s`.
    pub warmup_ops: u64,
    /// Node driver threads the workload asks for (see
    /// [`harness::drivers`]).
    pub drivers: usize,
    /// Per-layer metric and divisor (ns → unit) of child span `i + 1`.
    pub spans: &'static [(&'static str, f64)],
    pub cycle: fn(&Params) -> Result<Cycle, String>,
    pub probes: fn() -> probes::Probes,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "migrate_null",
        warmup_ops: migrate_null::WARMUP_OPS,
        drivers: migrate_null::DRIVERS,
        spans: migrate_null::SPANS,
        cycle: migrate_null::cycle,
        probes: probes::migrate_null,
    },
    Workload {
        name: "evacuate_heap",
        warmup_ops: evacuate_heap::WARMUP_OPS,
        drivers: evacuate_heap::DRIVERS,
        spans: evacuate_heap::SPANS,
        cycle: evacuate_heap::cycle,
        probes: probes::evacuate_heap,
    },
    Workload {
        name: "rpc_fanin",
        warmup_ops: rpc_fanin::WARMUP_OPS,
        drivers: rpc_fanin::DRIVERS,
        spans: rpc_fanin::SPANS,
        cycle: rpc_fanin::cycle,
        probes: probes::rpc_fanin,
    },
    Workload {
        name: "alloc_drift",
        warmup_ops: alloc_drift::WARMUP_OPS,
        drivers: alloc_drift::DRIVERS,
        spans: alloc_drift::SPANS,
        cycle: alloc_drift::cycle,
        probes: probes::alloc_drift,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics, `(name, unit)`: what `--trace 0` prints.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p90", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`: what `--trace 1` prints, on every
/// workload.  A probe or span another workload owns reads 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    // Counter deltas over the timed window.
    ("marcel.steps_per_op", "count"),
    ("pm2.node.parks_per_op", "count"),
    ("pm2.node.wakeups_per_op", "count"),
    ("pm2.node.cpu_us_per_op", "us"),
    ("madeleine.msgs_per_op", "count"),
    ("madeleine.bytes_per_op", "B"),
    ("madeleine.pool_allocs_per_op", "count"),
    ("madeleine.pool_reuse_ratio", "ratio"),
    ("pm2.migration.pack_us_per_thread", "us"),
    ("pm2.migration.unpack_us_per_thread", "us"),
    ("pm2.migration.bytes_per_thread", "B"),
    ("pm2.migration.threads_per_train", "count"),
    ("pm2.migration.failed_per_op", "count"),
    ("pm2.negotiation.trades_per_op", "count"),
    ("pm2.negotiation.trade_us_mean", "us"),
    ("pm2.negotiation.fallbacks_per_op", "count"),
    ("pm2.negotiation.globals_per_op", "count"),
    ("pm2.negotiation.prefetch_hit_ratio", "ratio"),
    ("isoaddr.cache_hit_ratio", "ratio"),
    ("isoaddr.commits_per_op", "count"),
    ("isoaddr.multi_acquires_per_op", "count"),
    ("pm2.service.remote_ratio", "ratio"),
    // Self times, in the median op, of the spans around the benchmark's
    // own calls.
    ("pm2.migration.cmd_ack_us", "us"),
    ("pm2.migration.drain_us", "us"),
    ("pm2.service.request_leg_us", "us"),
    ("pm2.service.reply_leg_us", "us"),
    ("isomalloc.small_pair_ns", "ns"),
    ("isoaddr.multi_slot_alloc_us", "us"),
    ("pm2.migration.hop_out_us", "us"),
    ("isomalloc.remote_free_us", "us"),
    ("pm2.migration.hop_back_us", "us"),
    // Stand-alone substrate probes.
    ("marcel.ctx_switch_ns", "ns"),
    ("marcel.spawn_us", "us"),
    ("madeleine.send_recv_ns", "ns"),
    ("madeleine.checkout_ns", "ns"),
    ("pm2.machine.launch_us_p50", "us"),
    ("pm2.migration.hop_null_2workers_us_p50", "us"),
    ("isomalloc.pack_slot_us", "us"),
    ("isomalloc.unpack_slot_us", "us"),
    ("pm2.migration.hop_heap64k_us_p50", "us"),
    ("pm2.migration.hop_heap256k_us_p50", "us"),
    ("pm2.service.single_rtt_us_p50", "us"),
    ("pm2.service.wire_codec_ns", "ns"),
    ("isoaddr.acquire_release_ns", "ns"),
    ("isoaddr.first_fit_ns", "ns"),
    ("isomalloc.alloc_free_ns", "ns"),
    // The harness itself.
    ("bench.tail.op_us_p99", "us"),
    ("bench.tail.op_us_max", "us"),
    ("bench.samples", "count"),
    ("bench.window_cv", "ratio"),
    ("bench.timer_ns", "ns"),
    ("bench.traced_ops_per_s", "1/s"),
    ("bench.span_sum_ratio", "ratio"),
    ("bench.loadavg_1min", "count"),
];

/// A finished run.
pub struct Report {
    pub provenance: Provenance,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Ops per second, p50 and p90 latency (µs) of each sub-window and
    /// the set-up time of each cycle, printed next to the provenance so a
    /// noisy run can be told from a noisy machine.
    pub windows: [(&'static str, Vec<f64>); 4],
    /// `(name, unit, value)` in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// The contract line: the last line a run prints.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*v),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn windows_json(&self) -> String {
        let series: Vec<String> = self
            .windows
            .iter()
            .map(|(name, values)| {
                let values: Vec<String> = values.iter().map(|v| json::number(*v)).collect();
                format!("{}: [{}]", json::quote(name), values.join(", "))
            })
            .collect();
        format!("{{\"windows\": {{{}}}}}", series.join(", "))
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

/// Run one workload: probes first if traced, then [`CYCLES`] cycles.
pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let provenance = Provenance {
        workload: w.name.into(),
        seed,
        seconds,
        trace,
        workers: harness::drivers(w.drivers),
        warmup_ops: w.warmup_ops,
        loadavg_1min: sysinfo::loadavg_1min(),
    };
    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    let mut t_cycle = 0; // the first cycle starts with the process
    if trace {
        layer.push(("bench.timer_ns", sysinfo::timer_cost_ns()));
        layer.extend((w.probes)()?);
        t_cycle = now_ns();
    }
    let mut setups = Vec::with_capacity(CYCLES);
    let mut rss_mib = 0.0;
    let mut checks_ok = true;
    let mut totals = Totals::default();
    let mut counts = Snapshot::default();
    let mut recorders = Vec::new();
    for i in 0..CYCLES {
        let cycle = (w.cycle)(&Params {
            seed,
            t_cycle,
            measure_ns: seconds * 1_000_000_000 / CYCLES as u64,
            trace,
        })?;
        setups.push(cycle.window.setup_s);
        // The mark never falls, so a later cycle would read at least
        // the peak of the windows before it.
        if i == 0 {
            rss_mib = cycle.window.rss_mib;
        }
        checks_ok &= cycle.checks_ok;
        totals.add_cycle(&cycle.window.recorders);
        counts.add(&cycle.window.counts);
        recorders.extend(cycle.window.recorders);
        t_cycle = now_ns();
    }
    let correct = checks_ok && totals.check_failures == 0 && totals.hist.count() > 0;
    let us = |q: f64| totals.hist.quantile(q) / 1e3;

    let metrics = if !trace {
        let values = [
            totals.ops_per_s(),
            totals.op_p50_ns() / 1e3,
            totals.op_p90_ns() / 1e3,
            quantile(&setups, BEST),
            rss_mib,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    } else {
        layer.extend(layer_counters(&counts, totals.hist.count()));
        let bufs: Vec<_> = recorders.iter().filter_map(|r| r.spans.as_ref()).collect();
        let spans = trace::summarise(&bufs, w.spans.len() + 1);
        for (i, &(name, divisor)) in w.spans.iter().enumerate() {
            layer.push((name, spans.self_ns[i + 1] / divisor));
        }
        layer.extend([
            ("bench.tail.op_us_p99", us(0.99)),
            ("bench.tail.op_us_max", totals.hist.max() as f64 / 1e3),
            ("bench.samples", totals.hist.count() as f64),
            ("bench.window_cv", totals.window_cv()),
            ("bench.traced_ops_per_s", totals.ops_per_s()),
            ("bench.span_sum_ratio", spans.sum_ratio()),
            ("bench.loadavg_1min", provenance.loadavg_1min),
        ]);
        if let Some(stray) = layer.iter().find(|l| PER_LAYER.iter().all(|p| p.0 != l.0)) {
            return Err(format!("{} is measured but not in PER_LAYER", stray.0));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = layer.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
                (name, unit, v)
            })
            .collect()
    };
    Ok(Report {
        provenance,
        correct,
        attempted: totals.attempted,
        failed: totals.failed,
        windows: [
            ("ops_per_s", totals.rates),
            ("op_us_p50", totals.p50s.iter().map(|ns| ns / 1e3).collect()),
            ("op_us_p90", totals.p90s.iter().map(|ns| ns / 1e3).collect()),
            ("setup_s", setups),
        ],
        metrics,
    })
}
