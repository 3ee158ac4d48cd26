//! A1–A6 — ablations of the design choices DESIGN.md calls out.
//!
//! ```sh
//! cargo run --release -p pm2-bench --bin ablations
//! ```

use pm2::{Distribution, FitPolicy, NetProfile};
use pm2_bench::{
    distribution_outcome, fit_policy_outcome, pack_outcome, scheme_migration_us,
    slot_cache_cycle_us, slot_size_outcome, Table,
};

fn a1_distribution() {
    let mut t = Table::new(
        "A1: initial slot distribution vs multi-slot allocation (32 allocs of 2–5 slots)",
        &["distribution", "nodes", "negotiations", "mean alloc (µs)"],
    );
    for p in [2usize, 4, 8] {
        for dist in [
            Distribution::RoundRobin,
            Distribution::BlockCyclic(8),
            Distribution::Partitioned,
        ] {
            let o = distribution_outcome(dist, p, NetProfile::myrinet_bip());
            t.row(vec![
                dist.name(),
                p.to_string(),
                o.negotiations.to_string(),
                pm2_bench::us(o.mean_alloc_us),
            ]);
        }
    }
    t.emit("a1_distribution");
}

fn a2_slot_cache() {
    let mut t = Table::new(
        "A2: mmapped-slot cache (§6) — slot acquire/release cycle, Syscall map strategy",
        &["cache capacity", "µs per cycle"],
    );
    for cap in [0usize, 1, 8, 32] {
        let us = slot_cache_cycle_us(cap, 300);
        t.row(vec![cap.to_string(), pm2_bench::us(us)]);
    }
    t.emit("a2_slot_cache");
}

fn a3_slot_size() {
    let mut t = Table::new(
        "A3: slot size vs negotiation rate (2 nodes, mixed 1 KB–256 KB blocks)",
        &["slot size", "negotiations", "mean alloc (µs)"],
    );
    for ss in [16 * 1024usize, 64 * 1024, 256 * 1024, 1024 * 1024] {
        let (negs, us) = slot_size_outcome(ss, NetProfile::myrinet_bip());
        t.row(vec![
            pm2_bench::bytes(ss as u64),
            negs.to_string(),
            pm2_bench::us(us),
        ]);
    }
    t.emit("a3_slot_size");
}

fn a4_fit_policy() {
    let mut t = Table::new(
        "A4: block placement policy (random alloc/free churn, 4000 ops)",
        &["policy", "mean alloc (µs)", "slots acquired"],
    );
    for (fit, name) in [
        (FitPolicy::FirstFit, "first-fit (paper)"),
        (FitPolicy::BestFit, "best-fit"),
        (FitPolicy::NextFit, "next-fit"),
    ] {
        let o = fit_policy_outcome(fit, 4000);
        t.row(vec![
            name.into(),
            pm2_bench::us(o.mean_alloc_us),
            o.slots_used.to_string(),
        ]);
    }
    t.emit("a4_fit_policy");
}

fn a5_scheme() {
    let mut t = Table::new(
        "A5: migration scheme — iso-address vs early-PM2 registered pointers",
        &["scheme", "registered ptrs", "µs/migration"],
    );
    let iso = scheme_migration_us(None, 300);
    t.row(vec![
        "iso-address (paper)".into(),
        "n/a".into(),
        pm2_bench::us(iso),
    ]);
    for k in [0usize, 4, 16] {
        // The same measured hop plus the early scheme's per-arrival
        // relocation pass, so the rows differ by the fix-up alone and not
        // by run-to-run noise of the hop.
        let us = iso + pm2_bench::legacy::relocate_pass_us(k);
        t.row(vec![
            "registered-pointers".into(),
            k.to_string(),
            pm2_bench::us(us),
        ]);
    }
    t.emit("a5_scheme");
}

fn a6_pack() {
    let mut t = Table::new(
        "A6: migration packing — busy blocks only (§6) vs whole slots (sparse 64 KB heap)",
        &["packing", "bytes on wire", "µs/migration (myrinet)"],
    );
    for (full, name) in [(false, "extents (paper §6)"), (true, "whole slots")] {
        let (bytes, us) = pack_outcome(full, 64 * 1024, 120);
        t.row(vec![
            name.into(),
            pm2_bench::bytes(bytes),
            pm2_bench::us(us),
        ]);
    }
    t.emit("a6_pack");
}

fn main() {
    a1_distribution();
    a2_slot_cache();
    a3_slot_size();
    a4_fit_policy();
    a5_scheme();
    a6_pack();
}
