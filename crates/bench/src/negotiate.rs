//! `BENCH_negotiation.json`: slot-acquisition scaling — the decentralized
//! trade economy vs the paper's §4.4 global negotiation, per node count.
//!
//! Two workloads:
//!
//! * **acquire** — a thread on node 0 of a round-robin machine performs
//!   `ROUNDS` live multi-slot (2-slot) allocations.  Under round-robin no
//!   node ever owns two contiguous slots, so every allocation needs remote
//!   slots.  With trading on, the first shortfall's batch covers many
//!   later allocations (O(1) `SLOT_TRADE` messages per acquire, no lock,
//!   no freeze, no bitmap gather); with trading off every allocation runs
//!   the global protocol, whose cost is affine in `p` (the paper's
//!   "another 165 µs per extra node").  The acceptance bar: trade-mode
//!   steady-state acquisition ≥ 3× faster than forced-global at p = 8.
//!
//! * **prefetch** — node 0 of a partitioned machine drains its contiguous
//!   share with single-slot allocations (yielding between them); once the
//!   reserve dips under the low watermark the driver prefetches a batch
//!   asynchronously.  The hit rate is the fraction of refills that were
//!   prefetches (the allocator never blocked) rather than demand trades.

use std::time::Instant;

use pm2::api::*;
use pm2::{AreaConfig, Distribution, NetProfile};

use crate::harness::paper_machine;

/// Live 2-slot allocations per acquire run.
pub const ROUNDS: usize = 48;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct NegRow {
    pub p: usize,
    /// Mean µs per 2-slot acquisition, trade-first economy.
    pub trade_us: f64,
    /// Mean µs per 2-slot acquisition, forced-global (§4.4 every time).
    pub global_us: f64,
    /// global_us / trade_us.
    pub speedup: f64,
    /// Demand trades the trade run used (the whole run, all ROUNDS).
    pub trades: u64,
    /// Demand trades that fell back to the global protocol.
    pub fallbacks: u64,
    /// Global negotiations in the trade run (== fallbacks when healthy).
    pub negotiations: u64,
    /// Trade wire messages per acquisition (req + resp per trade; the
    /// O(1)-messages claim, vs the global path's 3 + 2(p−1) + buys).
    pub msgs_per_acquire: f64,
    /// Watermark prefetches sent in the prefetch workload.
    pub prefetches: u64,
    /// Prefetches that returned slots.
    pub prefetch_fills: u64,
    /// prefetch_fills / (prefetch_fills + demand trades) in the prefetch
    /// workload: 1.0 = the allocator never blocked on a shortfall.
    pub prefetch_hit_rate: f64,
}

/// Time `ROUNDS` live 2-slot allocations on node 0; returns the mean µs
/// per allocation plus node 0's runtime counters.
fn acquire_run(p: usize, net: NetProfile, trade: bool) -> (f64, pm2::node::NodeStatsSnapshot) {
    let mut m = paper_machine(p, net)
        .slot_trade(trade)
        .launch()
        .expect("launch");
    let slot = m.area().slot_size();
    let mean_us = m
        .run_on(0, move || {
            let mut live = Vec::with_capacity(ROUNDS);
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                live.push(pm2_isomalloc(slot + 1).unwrap()); // 2 slots
            }
            let mean = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
            for q in live {
                pm2_isofree(q).unwrap();
            }
            mean
        })
        .expect("acquire workload");
    let stats = m.node_stats(0);
    m.shutdown();
    (mean_us, stats)
}

/// Drain node 0's partitioned share past the low watermark and report the
/// prefetch counters.
fn prefetch_run(p: usize, net: NetProfile) -> pm2::node::NodeStatsSnapshot {
    let mut m = paper_machine(p, net)
        .area(AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 4096,
        })
        .distribution(Distribution::Partitioned)
        .slot_watermarks(64, 256)
        .launch()
        .expect("launch");
    let slot = m.area().slot_size();
    let share = m.area().n_slots() / p;
    m.run_on(0, move || {
        let mut live = Vec::new();
        for _ in 0..(share + 192) {
            live.push(pm2_isomalloc(slot - 1024).unwrap()); // 1 slot
            pm2_yield();
        }
        for q in live {
            pm2_isofree(q).unwrap();
        }
    })
    .expect("prefetch workload");
    let stats = m.node_stats(0);
    m.shutdown();
    stats
}

/// Measure every configuration on the BIP/Myrinet wire model.
pub fn negotiation_rows() -> Vec<NegRow> {
    [2usize, 4, 8]
        .into_iter()
        .map(|p| {
            let (trade_us, ts) = acquire_run(p, NetProfile::myrinet_bip(), true);
            let (global_us, _) = acquire_run(p, NetProfile::myrinet_bip(), false);
            let pf = prefetch_run(p, NetProfile::myrinet_bip());
            let refills = pf.prefetch_fills + pf.trades;
            NegRow {
                p,
                trade_us,
                global_us,
                speedup: global_us / trade_us,
                trades: ts.trades,
                fallbacks: ts.trade_fallbacks,
                negotiations: ts.negotiations,
                msgs_per_acquire: 2.0 * (ts.trades + ts.prefetches) as f64 / ROUNDS as f64,
                prefetches: pf.prefetches,
                prefetch_fills: pf.prefetch_fills,
                prefetch_hit_rate: if refills == 0 {
                    1.0
                } else {
                    pf.prefetch_fills as f64 / refills as f64
                },
            }
        })
        .collect()
}

/// Run the benchmark and write `BENCH_negotiation.json` into the current
/// directory (the repo root under `cargo run`).  Also prints each row.
pub fn write_negotiation_json() {
    let rows = negotiation_rows();
    let mut out = Vec::new();
    for r in &rows {
        println!(
            "negotiation [p={}]: trade {:.1} µs/acquire ({} trades, {} fallbacks, \
             {:.2} msgs/acquire) vs forced-global {:.1} µs — {:.1}×; prefetch hit \
             rate {:.2} ({} fills / {} prefetches)",
            r.p,
            r.trade_us,
            r.trades,
            r.fallbacks,
            r.msgs_per_acquire,
            r.global_us,
            r.speedup,
            r.prefetch_hit_rate,
            r.prefetch_fills,
            r.prefetches
        );
        out.push(format!(
            "{{\"p\": {}, \"net\": \"myrinet_bip\", \"rounds\": {}, \
             \"trade_us\": {:.3}, \"global_us\": {:.3}, \"speedup\": {:.2}, \
             \"trades\": {}, \"fallbacks\": {}, \"negotiations\": {}, \
             \"msgs_per_acquire\": {:.3}, \"prefetches\": {}, \
             \"prefetch_fills\": {}, \"prefetch_hit_rate\": {:.3}}}",
            r.p,
            ROUNDS,
            r.trade_us,
            r.global_us,
            r.speedup,
            r.trades,
            r.fallbacks,
            r.negotiations,
            r.msgs_per_acquire,
            r.prefetches,
            r.prefetch_fills,
            r.prefetch_hit_rate
        ));
    }
    crate::report::emit_json(
        "BENCH_negotiation.json",
        "negotiation",
        "mean µs per live 2-slot acquisition on node 0 of a round-robin machine \
         (myrinet_bip wire model): trade = decentralized slot economy (one SLOT_TRADE \
         batch per shortfall, O(1) messages per acquire), global = slot_trade(false) \
         forcing the paper's §4.4 lock+gather+freeze protocol on every allocation; \
         prefetch_hit_rate from a separate partitioned drain workload = \
         prefetch_fills/(prefetch_fills+demand trades)",
        &out,
    );
}
