//! Measurement harness regenerating every table and figure of the paper's
//! evaluation (§5) and the repo-root `BENCH_*.json` perf trajectories.
//!
//! [`DRILLS`] is the only list of experiments; the one binary
//! (`src/main.rs`) looks its argument up there:
//!
//! ```sh
//! cargo run --release -p pm2-bench -- list      # the table
//! cargo run --release -p pm2-bench -- latency   # one row
//! ```
//!
//! Performance *claims* go through the repo benchmark (`benchmark/`), not
//! through these drills.

pub mod affinity;
pub mod chaos;
pub mod evacuation;
pub mod harness;
pub mod latency;
pub mod legacy;
pub mod migration;
pub mod negotiate;
pub mod recovery;
pub mod report;
pub mod scale;
pub mod tables;
pub mod throughput;

pub use affinity::*;
pub use chaos::*;
pub use evacuation::*;
pub use harness::*;
pub use latency::*;
pub use migration::*;
pub use negotiate::*;
pub use recovery::*;
pub use report::*;
pub use scale::*;
pub use tables::*;
pub use throughput::*;

/// One experiment: `(name, what it writes, body)`.  A body panics on
/// failure, so a sequence of them stops at the first that fails.
pub type Drill = (&'static str, &'static str, fn());

/// Every experiment this crate can run, in the order `list` prints them.
/// A row that writes a repo-root `BENCH_*.json` names that file (and only
/// that file) in its second column: [`emit_json`] finds the row by it to
/// format `generated_by`, and `json` selects its rows by it.
pub const DRILLS: &[Drill] = &[
    ("latency", "BENCH_latency.json", write_latency_json),
    ("evacuate", "BENCH_evacuation.json", write_evacuation_json),
    (
        "negotiate",
        "BENCH_negotiation.json",
        write_negotiation_json,
    ),
    ("workload", "BENCH_throughput.json", write_throughput_json),
    ("recover", "BENCH_recovery.json", write_recovery_json),
    ("scale", "BENCH_scale.json", write_scale_json),
    ("chaos", "BENCH_chaos.json", write_chaos_json),
    ("affinity", "BENCH_affinity.json", write_affinity_json),
    ("migration", "BENCH_migration.json", write_migration_json),
    ("e5", "table E5: migration latency (§5 ¶1)", e5_migration),
    (
        "e6",
        "table E6: negotiation cost vs node count (§5 ¶2)",
        e6_negotiation,
    ),
    ("fig11", "tables Fig. 11: malloc vs pm2_isomalloc", fig11),
    (
        "ablations",
        "tables A1–A6: design-choice ablations",
        ablations,
    ),
    (
        "substrates",
        "table S: context switch and spawn microcosts",
        substrates,
    ),
    ("json", "every BENCH_*.json above, in table order", json),
    (
        "all",
        "smoke check, then every row but scale and chaos",
        all,
    ),
    ("list", "this table", list),
];

/// The command that runs row `name` — the `generated_by` of its JSON.
pub fn command(name: &str) -> String {
    format!("cargo run --release -p pm2-bench -- {name}")
}

/// Whether a row writes a repo-root perf-trajectory file.
fn writes_json(d: &Drill) -> bool {
    d.1.starts_with("BENCH_")
}

/// Print the table: name, what the row writes.
pub fn list() {
    for (name, writes, _) in DRILLS {
        println!("{name:<11}{writes}");
    }
}

/// Run, in table order and under a banner each, the rows `pick` selects.
fn run_rows(pick: impl Fn(&Drill) -> bool) {
    for (name, _, run) in DRILLS.iter().filter(|d| pick(d)) {
        println!("\n───────── {name} ─────────");
        run();
    }
}

/// Run every JSON writer.
fn json() {
    run_rows(writes_json);
}

/// Smoke-check the harness, then run every measuring row except the two
/// long ones (`scale` ramps p = 256, `chaos` runs the fault matrix).  Tables
/// land under `target/experiments/`.
fn all() {
    println!("smoke-checking the harness against the runtime…");
    smoke();
    run_rows(|d| !["scale", "chaos", "json", "all", "list"].contains(&d.0));
    println!("\nall experiment tables written to target/experiments/");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table_names_are_unique() {
        let names: HashSet<_> = DRILLS.iter().map(|d| d.0).collect();
        assert_eq!(names.len(), DRILLS.len());
    }

    /// Every `BENCH_*.json` committed at the repo root has exactly one
    /// writer row, and its `generated_by` is that row's command.
    #[test]
    fn committed_trajectories_match_the_table() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut committed = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
                continue;
            }
            committed += 1;
            let writers: Vec<_> = DRILLS.iter().filter(|d| d.1 == file).collect();
            assert_eq!(writers.len(), 1, "{file} needs exactly one writer row");
            let text = std::fs::read_to_string(root.join(&file)).unwrap();
            let by = format!("\"generated_by\": \"{}\"", command(writers[0].0));
            assert!(text.contains(&by), "{file} must say {by}");
        }
        let writers = DRILLS.iter().filter(|d| writes_json(d)).count();
        assert_eq!(committed, writers, "a writer row has no committed file");
    }
}
