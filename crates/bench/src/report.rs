//! Plain-text table / CSV rendering for the experiment binaries, plus the
//! one JSON emitter behind every repo-root `BENCH_*.json` perf-trajectory
//! file.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A rendered experiment table: header row + data rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (experiment id + description).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render as an aligned ASCII table.
    pub fn ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut header = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(header, "{:>w$}  ", c, w = widths[i]);
        }
        let _ = writeln!(out, "{}", header.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:>w$}  ", cell, w = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Render as CSV (no title line).
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Print the ASCII form and persist both forms under
    /// `target/experiments/<name>.{txt,csv}`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.ascii());
        let dir = Path::new("target/experiments");
        let _ = std::fs::create_dir_all(dir);
        if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.txt"))) {
            let _ = f.write_all(self.ascii().as_bytes());
        }
        if let Ok(mut f) = std::fs::File::create(dir.join(format!("{name}.csv"))) {
            let _ = f.write_all(self.csv().as_bytes());
        }
    }
}

/// How the `instant` null row of BENCH_latency and BENCH_migration reads
/// against the repo benchmark's `pm2.migration.hop_null_2workers_us_p50`
/// probe, which times the same hop on the same two workers.
pub fn null_hop_note() -> &'static str {
    "the instant null row times the hop the repo benchmark's \
     pm2.migration.hop_null_2workers_us_p50 probe times, on two workers too, and agrees with \
     it: a ring from a departure is handed to the worker that made it, so the ping-pong stays \
     on one worker (before that hand-off the row read about 1 us more than the probe, each hop \
     crossing workers); the row is a mean of 12800 hops after 16 warm-up hops, the probe a \
     median of 20000 after 2000, so a host hiccup moves the row more"
}

/// Closing clause of the `unit_note` of the four files that time the
/// migration path — BENCH_evacuation, BENCH_latency, BENCH_migration and
/// BENCH_scale.  A null hop is a row of three of them, and the rows can only
/// be read against each other when one host wrote them in one sitting, so
/// whoever commits one of the four re-runs and commits all four.
pub fn one_host_note() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "committed with BENCH_evacuation, BENCH_latency, BENCH_migration and BENCH_scale \
         from one run on one host ({cpus} CPUs, {}), so the four read against each other",
        cpu_model()
    )
}

/// The host CPU's model name, as `/proc/cpuinfo` gives it.
fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map(|(_, name)| name.trim().replace('"', ""));
    model.unwrap_or_else(|| "CPU model unknown".into())
}

/// How to read the `pack_us` / `unpack_us` columns of the files that carry
/// them: sample means, not every hop's time.
pub fn stage_sampling_note() -> String {
    format!(
        "pack_us and unpack_us are sampled: the runtime reads the clock for one train in 64 \
         per node and direction and counts it 64 times, so over {} hops each stage mean is \
         one of {} samples",
        crate::STAGE_HOPS,
        crate::STAGE_HOPS / 64
    )
}

/// Write one repo-root `BENCH_*.json` perf-trajectory file.
///
/// Every tracked benchmark shares this envelope — `bench` id, a
/// `unit_note` explaining what the numbers mean, the `generated_by`
/// command, the `provenance` of the run (commit, compiler, host), and a
/// `configs` array of row objects — so the trajectory files stay mutually
/// greppable.  `generated_by` is formatted here, from
/// the [`crate::DRILLS`] row that declares it writes `file`, so a JSON can
/// never name a command that does not exist.  `rows` are pre-rendered JSON
/// objects *without* indentation (this helper owns the layout);
/// `unit_note` and friends must not contain raw `"` characters.
pub fn emit_json(file: &str, bench: &str, unit_note: &str, rows: &[String]) {
    let (name, ..) = crate::DRILLS
        .iter()
        .find(|d| d.1 == file)
        .unwrap_or_else(|| panic!("{file} has no writer row in the drill table"));
    let json = render_json(bench, unit_note, &crate::command(name), &provenance(), rows);
    std::fs::write(file, &json).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    println!("wrote {file}");
}

/// The shared envelope of [`emit_json`], rendered.
fn render_json(
    bench: &str,
    unit_note: &str,
    generated_by: &str,
    provenance: &str,
    rows: &[String],
) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"unit_note\": \"{unit_note}\",\n  \
         \"generated_by\": \"{generated_by}\",\n  \"provenance\": {provenance},\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

/// Where a run was made, as a JSON object: the commit (`-dirty` when the
/// tree had uncommitted changes), `rustc -V`, the CPUs this process may
/// use (`nproc`) and the CPU model.
fn provenance() -> String {
    let run = |cmd: &str, args: &[&str]| {
        let out = std::process::Command::new(cmd).args(args).output().ok();
        out.filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().replace('"', ""))
            .unwrap_or_else(|| "unknown".into())
    };
    let commit = run("git", &["describe", "--always", "--dirty", "--abbrev=12"]);
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"commit\": \"{commit}\", \"rustc\": \"{}\", \"nproc\": {cpus}, \"cpu\": \"{}\"}}",
        run("rustc", &["-V"]),
        cpu_model()
    )
}

/// The capacity of a ramp, as its row's JSON fields: the rate under `key`
/// and `capped`.  A ramp that passed every round up to its ceiling
/// ([`pm2_workload::CapacityReport::capped`]) found no capacity, so its
/// rate is `null`.
pub fn capacity_fields(key: &str, r: &pm2_workload::CapacityReport) -> String {
    let max = match r.max_sustainable_rps {
        Some(rps) if !r.capped() => rps.to_string(),
        _ => "null".to_string(),
    };
    format!("\"{key}\": {max}, \"capped\": {}", r.capped())
}

/// Format a µs value with sensible precision.
pub fn us(v: f64) -> String {
    if v >= 10.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

/// Format a byte count.
pub fn bytes(v: u64) -> String {
    if v >= 1024 * 1024 {
        format!("{:.1} MiB", v as f64 / (1024.0 * 1024.0))
    } else if v >= 1024 {
        format!("{:.1} KiB", v as f64 / 1024.0)
    } else {
        format!("{v} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let a = t.ascii();
        assert!(a.contains("== demo =="));
        assert!(a.contains("bb"));
        assert_eq!(t.csv(), "a,bb\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new("x", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn render_json_is_the_shared_envelope() {
        let text = render_json(
            "demo",
            "a unit note",
            &crate::command("demo"),
            "{\"commit\": \"abc\"}",
            &["{\"x\": 1}".to_string(), "{\"x\": 2}".to_string()],
        );
        assert!(text.contains("\"bench\": \"demo\""));
        assert!(text.contains("\"unit_note\": \"a unit note\""));
        assert!(text.contains("\"generated_by\": \"cargo run --release -p pm2-bench -- demo\""));
        assert!(text.contains("\"provenance\": {\"commit\": \"abc\"},"));
        assert!(text.contains("    {\"x\": 1},\n    {\"x\": 2}"));
        assert!(text.ends_with("  ]\n}\n"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(3.456), "3.46");
        assert_eq!(us(42.0), "42.0");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(2048), "2.0 KiB");
        assert_eq!(bytes(3 * 1024 * 1024), "3.0 MiB");
    }
}
