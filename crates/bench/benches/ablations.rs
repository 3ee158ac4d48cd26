//! A1–A6 — criterion benchmarks for the design-choice ablations.  Each
//! iteration is a complete workload on a fresh machine (launch included);
//! `bin/ablations` reports per-operation microcosts.

use pm2::{Distribution, NetProfile};
use pm2_bench::crit::Criterion;
use pm2_bench::{criterion_group, criterion_main};
use pm2_bench::{distribution_outcome, pack_outcome, scheme_migration_us, slot_cache_cycle_us};
use std::time::Duration;

fn bench_distribution(c: &mut Criterion) {
    let mut g = c.benchmark_group("a1_distribution");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for (name, dist) in [
        ("round_robin", Distribution::RoundRobin),
        ("block_cyclic8", Distribution::BlockCyclic(8)),
        ("partitioned", Distribution::Partitioned),
    ] {
        g.bench_function(format!("{name}/p4_32_multislot_allocs"), |b| {
            b.iter(|| {
                std::hint::black_box(distribution_outcome(dist, 4, NetProfile::myrinet_bip()))
            });
        });
    }
    g.finish();
}

fn bench_slot_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("a2_slot_cache");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for cap in [0usize, 32] {
        g.bench_function(format!("syscall_strategy/cache{cap}/100_cycles"), |b| {
            b.iter(|| std::hint::black_box(slot_cache_cycle_us(cap, 100)));
        });
    }
    g.finish();
}

fn bench_scheme(c: &mut Criterion) {
    let mut g = c.benchmark_group("a5_scheme");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(8));
    for (name, registered) in [("iso_address", None), ("registered_ptrs_16", Some(16))] {
        g.bench_function(format!("{name}/64_hop_pingpong"), |b| {
            b.iter(|| std::hint::black_box(scheme_migration_us(registered, 64)));
        });
    }
    g.finish();
}

fn bench_pack(c: &mut Criterion) {
    let mut g = c.benchmark_group("a6_pack");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(10));
    for (name, full) in [("extents", false), ("whole_slots", true)] {
        g.bench_function(format!("{name}/sparse64k_32_hops"), |b| {
            b.iter(|| std::hint::black_box(pack_outcome(full, 64 * 1024, 32)));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_distribution,
    bench_slot_cache,
    bench_scheme,
    bench_pack
);
criterion_main!(benches);
