//! The paper's §5 tables that no JSON drill prints, one per
//! [`crate::DRILLS`] row: Fig. 11 (malloc vs `pm2_isomalloc`), the A1–A3,
//! A5 and A6 ablations and the substrate microcosts.  (E5 prints from the
//! `migration` drill's rows, E6 from `negotiate`'s.)  Each prints its
//! tables and leaves them under `target/experiments/`.

use pm2::{Distribution, NetProfile};

use crate::harness::*;
use crate::report::Table;

fn panel(title: &str, name: &str, sizes: &[usize], batch: usize) {
    let net = NetProfile::myrinet_bip();
    let iso = alloc_series_us(Allocator::Isomalloc, sizes, net, batch, true);
    let mal = alloc_series_us(Allocator::Malloc, sizes, net, batch, true);
    let mut t = Table::new(
        title,
        &[
            "block size (B)",
            "malloc (µs)",
            "pm2_isomalloc (µs)",
            "overhead (µs)",
            "overhead (%)",
        ],
    );
    for ((size, iso_us), (_, mal_us)) in iso.iter().zip(mal.iter()) {
        let over = iso_us - mal_us;
        let pct = if *mal_us > 0.0 {
            100.0 * over / mal_us
        } else {
            0.0
        };
        t.row(vec![
            size.to_string(),
            crate::us(*mal_us),
            crate::us(*iso_us),
            crate::us(over),
            format!("{pct:.0}%"),
        ]);
    }
    t.emit(name);
}

/// E7/E8 — Figure 11: compared performance of `malloc` and `pm2_isomalloc`
/// for small (top panel, ≤ 500 KB) and large (bottom panel, 1–8 MB)
/// requests in a 2-node configuration.
///
/// Expected shape (paper): the two curves coincide below the slot size;
/// beyond it `pm2_isomalloc` pays a near-constant negotiation premium
/// (every multi-slot allocation negotiates under round-robin), which
/// becomes insignificant relative to total allocation time for large
/// blocks — "our approach scales well".
pub fn fig11() {
    panel(
        "Fig. 11 (top): average allocation time, small requests (2 nodes, round-robin)",
        "fig11_small",
        &fig11_small_sizes(),
        24,
    );
    panel(
        "Fig. 11 (bottom): average allocation time, large requests (2 nodes, round-robin)",
        "fig11_large",
        &fig11_large_sizes(),
        6,
    );

    // Reference only: the host allocator under this (sandboxed) kernel.
    let net = NetProfile::myrinet_bip();
    let host = alloc_series_us(Allocator::HostMalloc, &fig11_small_sizes(), net, 24, true);
    let mut t = Table::new(
        "reference: host malloc under the sandboxed kernel (page faults ~100× paper hardware)",
        &["block size (B)", "host malloc (µs)"],
    );
    for (size, us) in host {
        t.row(vec![size.to_string(), crate::us(us)]);
    }
    t.emit("fig11_hostmalloc");

    println!(
        "shape check: isomalloc ≈ malloc below the 64 KiB slot size; a near-constant\n\
         negotiation premium above it; premium relatively insignificant by 8 MB."
    );
}

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
                crate::us(o.mean_alloc_us),
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
        t.row(vec![cap.to_string(), crate::us(us)]);
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
            crate::bytes(ss as u64),
            negs.to_string(),
            crate::us(us),
        ]);
    }
    t.emit("a3_slot_size");
}

fn a5_scheme() {
    let mut t = Table::new(
        "A5: migration scheme — iso-address vs early-PM2 registered pointers",
        &["scheme", "registered ptrs", "µs/migration"],
    );
    // The paper's iso-address migration is a plain hop: nothing to do on
    // arrival (see `crate::legacy` for what the early scheme added).
    let iso =
        migration_breakdown(paper_machine(2, NetProfile::instant()), 0, 300).get("one_way_us");
    t.row(vec![
        "iso-address (paper)".into(),
        "n/a".into(),
        crate::us(iso),
    ]);
    for k in [0usize, 4, 16] {
        // The same measured hop plus the early scheme's per-arrival
        // relocation pass, so the rows differ by the fix-up alone and not
        // by run-to-run noise of the hop.
        let us = iso + crate::legacy::relocate_pass_us(k);
        t.row(vec![
            "registered-pointers".into(),
            k.to_string(),
            crate::us(us),
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
        t.row(vec![name.into(), crate::bytes(bytes), crate::us(us)]);
    }
    t.emit("a6_pack");
}

/// A1–A3, A5 and A6 — ablations of the design choices DESIGN.md calls out.
pub fn ablations() {
    a1_distribution();
    a2_slot_cache();
    a3_slot_size();
    a5_scheme();
    a6_pack();
}

/// S — substrate microcosts underneath the headline numbers.
pub fn substrates() {
    let mut t = Table::new("S: substrate microcosts", &["operation", "cost"]);
    t.row(vec![
        "context switch (yield round-robin)".into(),
        format!("{:.0} ns", ctx_switch_ns(20_000)),
    ]);
    t.row(vec![
        "thread create + run + join".into(),
        format!("{:.1} µs", spawn_us(400)),
    ]);
    t.emit("substrates");
}
