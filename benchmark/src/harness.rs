//! What the four workloads share: the machine every one of them runs on,
//! the per-client recorder, the ready/go/done hand-shake between the host
//! thread and the green load generators, and the stats snapshots that
//! become the per-layer counters.
//!
//! The host thread never polls: it blocks in a channel receive while the
//! green threads generate load, so the node drivers are the only runnable
//! OS threads during the timed window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use pm2::api::pm2_yield;
use pm2::{Machine, NetProfile};

use crate::hist::Histogram;
use crate::sysinfo::{cpu_time_us, now_ns, nproc, peak_rss_mib};
use crate::trace::{NameId, SpanBuf, SAMPLE_EVERY};

/// Node driver threads of a machine whose workload asks for `want`: that
/// many, or one on a single-processor host.
///
/// `evacuate_heap` asks for two, so the executor's work stealing and
/// cross-driver wake-ups are under a gated metric; a group migration
/// amortises each hand-over between drivers over 32 threads.  The other
/// three ask for one: with two, each of their ops is a futex wake-up of
/// a thread on the other vCPU and its latency becomes the hypervisor's —
/// `migrate_null` sat at 130 000 hops/s and swung by a fifth between
/// runs, against 366 000 with one driver.  What the second driver costs
/// a single hop stays visible as a probe
/// (`pm2.migration.hop_null_2workers_us_p50`).
pub fn drivers(want: usize) -> usize {
    want.min(nproc())
}

/// The machine a workload runs on: builder defaults, threaded drivers,
/// no modelled wire delay, [`drivers`]`(want)` driver threads.
pub fn launch(nodes: usize, want: usize) -> Result<Machine, String> {
    builder(nodes, want)
        .launch()
        .map_err(|e| format!("launch: {e}"))
}

pub fn builder(nodes: usize, want: usize) -> pm2::MachineBuilder {
    Machine::builder(nodes)
        .threaded()
        .net(NetProfile::instant())
        .workers(drivers(want))
}

/// Longest a host-side wait may last beyond the timed window before the
/// run is declared wedged.
const HOST_PATIENCE: Duration = Duration::from_secs(60);

/// Spans one client may record (32 B each); a full buffer stops tracing.
pub const SPAN_CAPACITY: usize = 1 << 17;

/// What one green load generator records.  Allocated in set-up, moved
/// into the green thread, and sent back to the host when the window ends.
pub struct Recorder {
    /// Latencies of the ops that ended in each sub-window of the timed
    /// window, and last those of the ops that ended after it closed.
    pub hists: Vec<Histogram>,
    pub window_ns: u64,
    pub t_end: u64,
    win: usize,
    win_edge: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Ops whose result was wrong (also counted in `failed`).
    pub check_failures: u64,
    pub spans: Option<SpanBuf>,
}

/// Sub-windows are a tenth of a second, or a quarter of a window shorter
/// than 0.4 s.
fn window_ns(measure_ns: u64) -> u64 {
    (measure_ns / 4).clamp(1, 100_000_000)
}

impl Recorder {
    pub fn new(measure_ns: u64, span_capacity: Option<usize>) -> Box<Recorder> {
        let window_ns = window_ns(measure_ns);
        Box::new(Recorder {
            hists: (0..=measure_ns / window_ns)
                .map(|_| Histogram::new())
                .collect(),
            window_ns,
            t_end: 0,
            win: 0,
            win_edge: 0,
            attempted: 0,
            failed: 0,
            check_failures: 0,
            spans: span_capacity.map(SpanBuf::with_capacity),
        })
    }

    /// Open the timed window at `t_start` (the host's go stamp).
    pub fn begin(&mut self, t_start: u64) {
        self.win_edge = t_start + self.window_ns;
        self.t_end = t_start + self.window_ns * self.sub_windows() as u64;
    }

    pub fn sub_windows(&self) -> usize {
        self.hists.len() - 1
    }

    /// Should the op about to start be traced?  One op in
    /// [`SAMPLE_EVERY`] of a traced run is.
    #[inline]
    pub fn sample(&self) -> bool {
        self.attempted.is_multiple_of(SAMPLE_EVERY)
            && self.spans.as_ref().is_some_and(|s| s.has_room(8))
    }

    /// A completed, correct op that ran over `[start, end]`.
    #[inline]
    pub fn ok(&mut self, start: u64, end: u64) {
        self.attempted += 1;
        while end >= self.win_edge && self.win < self.sub_windows() {
            self.win += 1;
            self.win_edge += self.window_ns;
        }
        self.hists[self.win].record(end - start);
    }

    /// An op that returned an error: counted, never timed.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// An op that completed with a wrong result.
    pub fn bad(&mut self) {
        self.fail();
        self.check_failures += 1;
    }

    /// Record the spans of the op that just completed (after [`ok`]).
    ///
    /// [`ok`]: Recorder::ok
    pub fn trace_op(&mut self, stamps: &[u64], children: &[NameId]) {
        let op = self.attempted;
        if let Some(s) = self.spans.as_mut() {
            s.push_op(op, stamps, children);
        }
    }
}

/// Green side of the hand-shake; one clone per load generator.
#[derive(Clone)]
pub struct Gate {
    ready: Sender<()>,
    go: Arc<AtomicU64>,
    done: Sender<Box<Recorder>>,
}

impl Gate {
    /// Report set-up and warm-up complete, then yield until the host
    /// opens the window; returns the window's start stamp.
    pub fn ready_and_wait(&self) -> u64 {
        let _ = self.ready.send(());
        loop {
            // Acquire pairs with the host's Release store of the stamp.
            let t = self.go.load(Ordering::Acquire);
            if t != 0 {
                return t;
            }
            pm2_yield();
        }
    }

    pub fn finish(self, rec: Box<Recorder>) {
        let _ = self.done.send(rec);
    }
}

/// Host side of the hand-shake.
pub struct GateHost {
    clients: usize,
    ready: Receiver<()>,
    go: Arc<AtomicU64>,
    done: Receiver<Box<Recorder>>,
}

pub fn gate(clients: usize) -> (Gate, GateHost) {
    let (ready_tx, ready_rx) = channel();
    let (done_tx, done_rx) = channel();
    let go = Arc::new(AtomicU64::new(0));
    (
        Gate {
            ready: ready_tx,
            go: Arc::clone(&go),
            done: done_tx,
        },
        GateHost {
            clients,
            ready: ready_rx,
            go,
            done: done_rx,
        },
    )
}

/// The timed window as the host saw it.
pub struct Window {
    /// Cycle start → window open, seconds.
    pub setup_s: f64,
    /// Peak resident set (`VmHWM`) when the window opened, MiB.
    pub rss_mib: f64,
    /// What the machine counted while the window was open.
    pub counts: Snapshot,
    pub recorders: Vec<Box<Recorder>>,
}

impl GateHost {
    /// Sleep until every client is warm, snapshot the machine, open the
    /// window, sleep until every client has handed back its recorder,
    /// snapshot again.  A client that dies (its thread panicked) drops
    /// its channel ends, which surfaces here as an error, not a hang.
    pub fn run(&self, m: &Machine, p: &Params) -> Result<Window, String> {
        for _ in 0..self.clients {
            self.ready
                .recv_timeout(HOST_PATIENCE)
                .map_err(|e| format!("waiting for warm-up: {e}"))?;
        }
        let rss_mib = peak_rss_mib();
        let before = Snapshot::take(m);
        let t_start = now_ns();
        self.go.store(t_start, Ordering::Release);
        let patience = Duration::from_nanos(p.measure_ns) + HOST_PATIENCE;
        let mut recorders = Vec::with_capacity(self.clients);
        for _ in 0..self.clients {
            recorders.push(
                self.done
                    .recv_timeout(patience)
                    .map_err(|e| format!("waiting for the timed window: {e}"))?,
            );
        }
        let counts = Snapshot::take(m).since(&before);
        Ok(Window {
            setup_s: (t_start - p.t_cycle) as f64 / 1e9,
            rss_mib,
            counts,
            recorders,
        })
    }
}

/// The public counters the benchmark reads, summed over nodes.
#[derive(Clone, Copy)]
#[repr(usize)]
enum C {
    CpuUs,
    Steps,
    Parks,
    Wakeups,
    MigrationsOut,
    MigrationsIn,
    MigrationsFailed,
    TrainsOut,
    MigrationBytes,
    PackNs,
    UnpackNs,
    Trades,
    TradeNs,
    Fallbacks,
    Globals,
    PrefetchFills,
    RpcLocal,
    RpcRemote,
    Msgs,
    Bytes,
    PoolCheckouts,
    PoolReuses,
    PoolAllocs,
    CacheHits,
    CacheMisses,
    Commits,
    MultiAcquires,
}
const N_COUNTERS: usize = C::MultiAcquires as usize + 1;

/// Every counter of [`C`] at one instant — or, after [`Snapshot::since`],
/// over one window.
#[derive(Clone, Copy)]
pub struct Snapshot([u64; N_COUNTERS]);

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot([0; N_COUNTERS])
    }
}

impl Snapshot {
    pub fn take(m: &Machine) -> Snapshot {
        let mut s = Snapshot::default();
        let mut add = |c: C, v: u64| s.0[c as usize] += v;
        add(C::CpuUs, cpu_time_us());
        for n in 0..m.nodes() {
            let st = m.node_stats(n);
            add(C::Steps, st.steps);
            add(C::Parks, st.driver_parks);
            add(C::Wakeups, st.driver_wakeups);
            add(C::MigrationsOut, st.migrations_out);
            add(C::MigrationsIn, st.migrations_in);
            add(C::MigrationsFailed, st.migrations_failed);
            add(C::TrainsOut, st.trains_out);
            add(C::MigrationBytes, st.migration_bytes_out);
            add(C::PackNs, st.migration_pack_ns);
            add(C::UnpackNs, st.migration_unpack_ns);
            add(C::Trades, st.trades);
            add(C::TradeNs, st.trade_ns);
            add(C::Fallbacks, st.trade_fallbacks);
            add(C::Globals, st.negotiations);
            add(C::PrefetchFills, st.prefetch_fills);
            add(C::RpcLocal, st.rpc_local);
            add(C::RpcRemote, st.rpc_remote);
            if let Some(net) = m.net_stats(n) {
                add(C::Msgs, net.msgs_sent);
                add(C::Bytes, net.bytes_sent);
            }
            let pool = m.pool_stats(n);
            add(C::PoolCheckouts, pool.checkouts);
            add(C::PoolReuses, pool.reuses);
            add(C::PoolAllocs, pool.allocs);
            let slots = m.slot_stats(n);
            add(C::CacheHits, slots.cache_hits);
            add(C::CacheMisses, slots.cache_misses);
            add(C::Commits, slots.commits);
            add(C::MultiAcquires, slots.multi_acquires);
        }
        s
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot(std::array::from_fn(|i| {
            self.0[i].saturating_sub(earlier.0[i])
        }))
    }

    /// Accumulate another window's counts.
    pub fn add(&mut self, other: &Snapshot) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer counters of the timed windows: counts over `d` per completed
/// op (or per thread moved, per trade, as named).
pub fn layer_counters(d: &Snapshot, ops: u64) -> Vec<(&'static str, f64)> {
    let d = |c: C| d.0[c as usize];
    let (out, trades, fills) = (d(C::MigrationsOut), d(C::Trades), d(C::PrefetchFills));
    vec![
        ("marcel.steps_per_op", ratio(d(C::Steps), ops)),
        ("pm2.node.parks_per_op", ratio(d(C::Parks), ops)),
        ("pm2.node.wakeups_per_op", ratio(d(C::Wakeups), ops)),
        ("pm2.node.cpu_us_per_op", ratio(d(C::CpuUs), ops)),
        ("madeleine.msgs_per_op", ratio(d(C::Msgs), ops)),
        ("madeleine.bytes_per_op", ratio(d(C::Bytes), ops)),
        ("madeleine.pool_allocs_per_op", ratio(d(C::PoolAllocs), ops)),
        (
            "madeleine.pool_reuse_ratio",
            ratio(d(C::PoolReuses), d(C::PoolCheckouts)),
        ),
        (
            "pm2.migration.pack_us_per_thread",
            ratio(d(C::PackNs), out) / 1e3,
        ),
        (
            "pm2.migration.unpack_us_per_thread",
            ratio(d(C::UnpackNs), d(C::MigrationsIn)) / 1e3,
        ),
        (
            "pm2.migration.bytes_per_thread",
            ratio(d(C::MigrationBytes), out),
        ),
        (
            "pm2.migration.threads_per_train",
            ratio(out, d(C::TrainsOut)),
        ),
        (
            "pm2.migration.failed_per_op",
            ratio(d(C::MigrationsFailed), ops),
        ),
        ("pm2.negotiation.trades_per_op", ratio(trades, ops)),
        (
            "pm2.negotiation.trade_us_mean",
            ratio(d(C::TradeNs), trades) / 1e3,
        ),
        (
            "pm2.negotiation.fallbacks_per_op",
            ratio(d(C::Fallbacks), ops),
        ),
        ("pm2.negotiation.globals_per_op", ratio(d(C::Globals), ops)),
        // Refills that did not block an allocator, over all refills.
        (
            "pm2.negotiation.prefetch_hit_ratio",
            ratio(fills, fills + trades),
        ),
        (
            "isoaddr.cache_hit_ratio",
            ratio(d(C::CacheHits), d(C::CacheHits) + d(C::CacheMisses)),
        ),
        ("isoaddr.commits_per_op", ratio(d(C::Commits), ops)),
        (
            "isoaddr.multi_acquires_per_op",
            ratio(d(C::MultiAcquires), ops),
        ),
        (
            "pm2.service.remote_ratio",
            ratio(d(C::RpcRemote), d(C::RpcRemote) + d(C::RpcLocal)),
        ),
    ]
}

/// What a workload is asked to do in one cycle.
#[derive(Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// When this cycle began on the [`now_ns`] clock: 0 — process start —
    /// for the first cycle of a run.
    pub t_cycle: u64,
    /// Length of this cycle's timed window.
    pub measure_ns: u64,
    pub trace: bool,
}

impl Params {
    pub fn recorder(&self, clients: usize) -> Box<Recorder> {
        Recorder::new(
            self.measure_ns,
            self.trace.then_some(SPAN_CAPACITY / clients),
        )
    }
}

/// One set-up, warm-up and timed window of a workload.
pub struct Cycle {
    pub window: Window,
    /// Workload-level checks made after the window (joins, audit,
    /// residents); per-op checks are in the recorders.
    pub checks_ok: bool,
}

/// The share of a run's sub-windows (and set-up cycles) on the far side
/// of each end-to-end figure: `ops_per_s` is the rate the best fifth of
/// the sub-windows reach, `op_us_p50` the median latency the best fifth
/// stay under.
///
/// On a shared host the neighbours only ever slow a sub-window down,
/// for seconds at a time, and in some runs for most of the run: over ten
/// runs of one commit the median sub-window spread 5–8 % on `ops_per_s`
/// and 8–11 % on `op_us_p90`, the best fifth 4–5 % and 2–5 %.  The best
/// fifth is what the code does when it has the machine; a change that
/// slows every op slows it as much as it slows the median.  What it
/// cannot see — a stall that hits fewer than four sub-windows in five —
/// is in `bench.window_cv` and `bench.tail.*`.
pub const BEST: f64 = 0.2;

/// The value a share `q` of `v` lies below, interpolated between
/// neighbours; 0 when `v` is empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// What the load generators of a run recorded, all cycles pooled.
#[derive(Default)]
pub struct Totals {
    /// Every op of the run (for the tail figures and the sample count).
    pub hist: Histogram,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: u64,
    /// Ops per second in each sub-window, all clients together, cycle
    /// after cycle; and the p50 and p90 latency, ns, of the ops that
    /// ended in it.
    pub rates: Vec<f64>,
    pub p50s: Vec<f64>,
    pub p90s: Vec<f64>,
}

impl Totals {
    /// Pool one cycle's recorders (one per client) into the totals.
    pub fn add_cycle(&mut self, recorders: &[Box<Recorder>]) {
        let Some(first) = recorders.first() else {
            return;
        };
        for r in recorders {
            self.attempted += r.attempted;
            self.failed += r.failed;
            self.check_failures += r.check_failures;
        }
        let per_s = 1e9 / first.window_ns as f64;
        for w in 0..first.hists.len() {
            let mut pooled = Histogram::new();
            for r in recorders {
                pooled.merge(&r.hists[w]);
            }
            self.hist.merge(&pooled);
            if w < first.sub_windows() {
                self.rates.push(pooled.count() as f64 * per_s);
                // A sub-window no op ended in has a rate, not a latency.
                if pooled.count() > 0 {
                    self.p50s.push(pooled.quantile(0.5));
                    self.p90s.push(pooled.quantile(0.9));
                }
            }
        }
    }

    /// The rate the best fifth of the sub-windows reach (see [`BEST`]).
    pub fn ops_per_s(&self) -> f64 {
        quantile(&self.rates, 1.0 - BEST)
    }

    /// The p50 (p90) op latency, ns, the best fifth of the sub-windows
    /// stay under.
    pub fn op_p50_ns(&self) -> f64 {
        quantile(&self.p50s, BEST)
    }

    pub fn op_p90_ns(&self) -> f64 {
        quantile(&self.p90s, BEST)
    }

    /// Standard deviation of the sub-window rates over their mean.
    pub fn window_cv(&self) -> f64 {
        let n = self.rates.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let mean = self.rates.iter().sum::<f64>() / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self.rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0);
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder whose sub-window `w` holds `counts[w]` ops of
    /// `latency_ns[w]` each (window opened at 0).
    fn recorded(counts: &[u64], latency_ns: &[u64]) -> Box<Recorder> {
        let mut r = Recorder::new(counts.len() as u64 * 100_000_000, None);
        assert_eq!(r.sub_windows(), counts.len());
        r.begin(0);
        for (w, (&n, &ns)) in counts.iter().zip(latency_ns).enumerate() {
            let end = w as u64 * r.window_ns + r.window_ns / 2;
            for _ in 0..n {
                r.ok(end - ns, end);
            }
        }
        r
    }

    #[test]
    fn recorder_bins_ops_by_end_time_and_samples_one_op_in_64() {
        let mut r = Recorder::new(800_000_000, Some(1024));
        assert_eq!(r.sub_windows(), 8);
        r.begin(1_000);
        assert!(r.sample(), "op 0 is traced");
        r.ok(1_000, 50_000_000);
        assert!(!r.sample(), "op 1 is not the 64th");
        r.ok(50_000_000, 150_000_000); // ends in window 1
        r.ok(150_000_000, 900_000_000); // ends after the window closed
        r.fail();
        r.bad();
        let counts: Vec<u64> = r.hists.iter().map(Histogram::count).collect();
        assert_eq!(counts, [1, 1, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!((r.attempted, r.failed, r.check_failures), (5, 2, 1));
    }

    #[test]
    fn totals_pool_clients_per_sub_window_and_cycles_end_to_end() {
        let a = recorded(&[100, 100, 10, 100], &[1_000; 4]);
        let b = recorded(&[100, 100, 10, 120], &[1_000; 4]);
        let mut t = Totals::default();
        t.add_cycle(&[a, b]);
        assert_eq!(t.rates, vec![2000.0, 2000.0, 200.0, 2200.0]);
        assert!(t.window_cv() > 0.5);
        t.add_cycle(&[recorded(&[300; 4], &[1_000; 4])]);
        assert_eq!(t.rates.len(), 8, "cycles are pooled, not summed");
        assert_eq!((t.attempted, t.hist.count()), (1840, 1840));
    }

    #[test]
    fn disturbed_sub_windows_do_not_move_the_figures() {
        // Six of ten sub-windows run at two thirds of the rate and one and
        // a half times the latency: the median of the sub-windows would
        // report the disturbance, the best tenth reports the code.
        let counts = [90, 60, 60, 91, 60, 60, 60, 92, 93, 60];
        let lat = counts.map(|c| if c > 60 { 10_000 } else { 15_000 });
        let mut t = Totals::default();
        t.add_cycle(&[recorded(&counts, &lat)]);
        assert_eq!(median(&t.rates), 600.0);
        assert!((t.ops_per_s() - 921.0).abs() < 10.0, "{}", t.ops_per_s());
        assert!((t.op_p50_ns() - 10_000.0).abs() < 100.0);
        assert!((t.op_p90_ns() - 10_000.0).abs() < 100.0);
        // A sub-window no op ended in counts as a rate of 0 and has no
        // latency to report.
        let mut stalled = Totals::default();
        stalled.add_cycle(&[recorded(&[5, 0, 5, 5], &[2_000; 4])]);
        assert_eq!(stalled.rates[1], 0.0);
        assert_eq!(stalled.p50s.len(), 3);
    }

    #[test]
    fn counters_are_deltas_per_op() {
        let mut before = Snapshot::default();
        before.0[C::Msgs as usize] = 10;
        before.0[C::PoolCheckouts as usize] = 4;
        before.0[C::PoolReuses as usize] = 2;
        let mut after = before;
        after.0[C::Msgs as usize] = 30;
        after.0[C::PoolCheckouts as usize] = 14;
        after.0[C::PoolReuses as usize] = 11;
        after.0[C::Trades as usize] = 2;
        after.0[C::TradeNs as usize] = 50_000;
        let mut counts = after.since(&before);
        counts.add(&after.since(&before));
        let c: std::collections::HashMap<_, _> = layer_counters(&counts, 20).into_iter().collect();
        assert_eq!(c["madeleine.msgs_per_op"], 2.0);
        assert_eq!(c["madeleine.pool_reuse_ratio"], 0.9);
        assert_eq!(c["pm2.negotiation.trades_per_op"], 0.2);
        assert_eq!(c["pm2.negotiation.trade_us_mean"], 25.0);
        assert_eq!(c["pm2.negotiation.prefetch_hit_ratio"], 0.0);
        assert_eq!(c["pm2.service.remote_ratio"], 0.0, "empty ratios read 0");
    }
}
