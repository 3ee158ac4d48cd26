//! `BENCH_negotiation.json` and the paper's E6 table: slot-acquisition
//! scaling — the decentralized trade economy vs the paper's §4.4 global
//! negotiation, per node count (E6's p ∈ {2, 3, 4, 6, 8}).
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
//!   "another 165 µs per extra node"), and the forced-global runs are the
//!   E6 table and its affine fit.  The acceptance bar: trade-mode
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

use crate::harness::{linear_slope, paper_machine};
use crate::report::{Row, Table};

/// Live 2-slot allocations per acquire run.
pub const ROUNDS: usize = 48;

/// The node counts: the paper's E6 x-axis.
pub const NEG_PS: [usize; 5] = [2, 3, 4, 6, 8];

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

/// Measure every node count on the BIP/Myrinet wire model, print the E6
/// table and its affine fit from the forced-global runs, and write
/// `BENCH_negotiation.json` into the current directory (the repo root under
/// `cargo run`).
pub fn write_negotiation_json() {
    let mut rows = Vec::new();
    let mut e6 = Table::new(
        "E6: multi-slot negotiation cost vs node count (round-robin, myrinet-bip)",
        &["nodes", "forced global (µs)", "trade (µs)", "paper (µs)"],
    );
    let mut global_points = Vec::new();
    for p in NEG_PS {
        let (trade_us, ts) = acquire_run(p, NetProfile::myrinet_bip(), true);
        let (global_us, _) = acquire_run(p, NetProfile::myrinet_bip(), false);
        let pf = prefetch_run(p, NetProfile::myrinet_bip());
        let refills = pf.prefetch_fills + pf.trades;
        let paper_us = 255.0 + 165.0 * (p as f64 - 2.0);
        let row = Row::new()
            .int("p", p)
            .string("net", "myrinet_bip")
            .int("rounds", ROUNDS)
            .float("trade_us", trade_us, 3)
            .float("global_us", global_us, 3)
            .float("paper_global_us", paper_us, 0)
            .float("speedup", global_us / trade_us, 2)
            .int("trades", ts.trades)
            .int("fallbacks", ts.trade_fallbacks)
            .int("negotiations", ts.negotiations)
            .float(
                "msgs_per_acquire",
                2.0 * (ts.trades + ts.prefetches) as f64 / ROUNDS as f64,
                3,
            )
            .int("prefetches", pf.prefetches)
            .int("prefetch_fills", pf.prefetch_fills)
            .float(
                "prefetch_hit_rate",
                if refills == 0 {
                    1.0
                } else {
                    pf.prefetch_fills as f64 / refills as f64
                },
                3,
            );
        println!("negotiation: {row}");
        e6.row(vec![
            p.to_string(),
            crate::us(global_us),
            crate::us(trade_us),
            format!("{paper_us:.0}"),
        ]);
        global_points.push((p as f64, global_us));
        rows.push(row);
    }
    e6.emit("e6_negotiation");
    let slope = linear_slope(&global_points);
    println!(
        "fit: cost(p) ≈ {:.0} µs at p=2, +{:.0} µs per extra node \
         (paper: 255 µs at p=2, +165 µs per node) — affine shape {}",
        global_points[0].1,
        slope,
        if slope > 0.0 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
    crate::report::emit_json(
        "BENCH_negotiation.json",
        "negotiation",
        "mean µs per live 2-slot acquisition on node 0 of a round-robin machine \
         (myrinet_bip wire model), timed by the wall clock inside the acquiring thread: \
         trade = decentralized slot economy (one SLOT_TRADE batch per shortfall, O(1) \
         messages per acquire), global = slot_trade(false) forcing the paper's §4.4 \
         lock+gather+freeze protocol on every allocation (the E6 table; paper_global_us is \
         the paper's 255 µs at p = 2 plus 165 µs per extra node); prefetch_hit_rate from a \
         separate partitioned drain workload = prefetch_fills/(prefetch_fills+demand trades)",
        &rows,
    );
}
