//! Plain-text table / CSV rendering for the experiment binaries, plus the
//! one row type and the one JSON emitter behind every repo-root
//! `BENCH_*.json` perf-trajectory file.

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

/// How the `instant` null rows of BENCH_migration read against the repo
/// benchmark's `pm2.migration.hop_null_2workers_us_p50` probe, which times
/// the same hop on two workers.
pub fn null_hop_note() -> &'static str {
    "the instant null row with 2 workers unarmed times the hop the repo benchmark's \
     pm2.migration.hop_null_2workers_us_p50 probe times, and agrees with it: a ring from a \
     departure is handed to the worker that made it, so the ping-pong stays on one worker \
     (before that hand-off the row read about 1 us more than the probe, each hop crossing \
     workers); the row is a mean of 12800 hops after 16 warm-up hops, the probe a median of \
     20000 after 2000, so a host hiccup moves the row more"
}

/// Closing clause of the `unit_note` of the three files that time the
/// migration path — BENCH_evacuation, BENCH_migration and BENCH_scale.  A
/// null hop is a row of two of them, and the rows can only be read against
/// each other when one host wrote them in one sitting, so every
/// `BENCH_*.json` is regenerated by one `json` run.
pub fn one_host_note() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "committed with BENCH_evacuation, BENCH_migration and BENCH_scale (and every other \
         BENCH file) from one json run on one host ({cpus} CPUs, {}), so they read against \
         each other",
        cpu_model()
    )
}

/// The host CPU's model name, as `/proc/cpuinfo` gives it.
fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map(|(_, name)| name.trim().to_string());
    model.unwrap_or_else(|| "CPU model unknown".into())
}

/// How to read the `pack_us` / `unpack_us` columns of the files that carry
/// them: sample means, not every hop's time.
pub fn stage_sampling_note() -> String {
    format!(
        "pack_us and unpack_us are sampled: the runtime reads the clock for a node's 64th, \
         128th, ... train in each direction, so over {} hops each stage mean is one of {} \
         samples, fewer when a row runs fewer hops (null when it times none)",
        crate::STAGE_HOPS,
        crate::STAGE_HOPS / 64
    )
}

/// One value of a [`Row`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(u64),
    /// A float and the decimals it is written with.
    Float(f64, usize),
    Str(String),
    Bool(bool),
    Null,
    /// Nested rows: a ramp's rounds.
    Rows(Vec<Row>),
}

/// One row of a `BENCH_*.json` file, declared once as ordered keys with
/// typed values.  [`emit_json`] renders it as a JSON object and `Display`
/// as the drill's stdout line, so the two always carry the same keys.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(&'static str, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Append `key` with `value`.
    pub fn with(mut self, key: &'static str, value: Value) -> Row {
        self.0.push((key, value));
        self
    }

    /// Append an integer.
    pub fn int<T: TryInto<u64>>(self, key: &'static str, v: T) -> Row {
        let v = v.try_into().unwrap_or_else(|_| panic!("{key}: not a u64"));
        self.with(key, Value::Int(v))
    }

    /// Append a float written with `decimals` decimals.
    pub fn float(self, key: &'static str, v: f64, decimals: usize) -> Row {
        self.with(key, Value::Float(v, decimals))
    }

    /// Append a string.
    pub fn string(self, key: &'static str, v: impl Into<String>) -> Row {
        self.with(key, Value::Str(v.into()))
    }

    /// Append a bool.
    pub fn bool(self, key: &'static str, v: bool) -> Row {
        self.with(key, Value::Bool(v))
    }

    /// Append every key of `other`, in its order.
    pub fn append(mut self, other: Row) -> Row {
        self.0.extend(other.0);
        self
    }

    /// The number under `key`, for a drill that computes across rows.
    /// Panics when the row has no number under that key.
    pub fn get(&self, key: &str) -> f64 {
        match self.0.iter().find(|(k, _)| *k == key) {
            Some((_, Value::Int(v))) => *v as f64,
            Some((_, Value::Float(v, _))) => *v,
            other => panic!("row has no number under {key}: {other:?}"),
        }
    }

    /// The row as a one-line JSON object.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", v.json()))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The capacity of a ramp: the rate under `key` and `capped`.  A ramp
    /// that passed every round up to its ceiling
    /// ([`pm2_workload::CapacityReport::capped`]) found no capacity, so its
    /// rate is null.
    pub fn capacity(self, key: &'static str, r: &pm2_workload::CapacityReport) -> Row {
        let rate = match r.max_sustainable_rps {
            Some(rps) if !r.capped() => Value::Int(rps),
            _ => Value::Null,
        };
        self.with(key, rate).bool("capped", r.capped())
    }
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v, d) if v.is_finite() => format!("{v:.d$}"),
            Value::Float(..) | Value::Null => "null".into(),
            Value::Str(s) => {
                let mut out = String::from("\"");
                for c in s.chars() {
                    match c {
                        '"' | '\\' => out.extend(['\\', c]),
                        c if u32::from(c) < 0x20 => out += &format!("\\u{:04x}", u32::from(c)),
                        c => out.push(c),
                    }
                }
                out + "\""
            }
            Value::Bool(b) => b.to_string(),
            Value::Rows(rows) => {
                let rows: Vec<String> = rows.iter().map(Row::json).collect();
                format!("[{}]", rows.join(", "))
            }
        }
    }
}

/// The stdout line: `key=value` pairs in the row's order; nested rows
/// print as their count.
impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (k, v)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            match v {
                Value::Str(s) => write!(f, "{sep}{k}={s}")?,
                Value::Rows(rows) => write!(f, "{sep}{k}=[{} rows]", rows.len())?,
                v => write!(f, "{sep}{k}={}", v.json())?,
            }
        }
        Ok(())
    }
}

/// Write one repo-root `BENCH_*.json` perf-trajectory file.
///
/// Every tracked benchmark shares this envelope — `bench` id, a
/// `unit_note` explaining what the numbers mean, the `generated_by`
/// command, the `provenance` of the run (commit, compiler, host), and a
/// `configs` array of [`Row`]s — so the trajectory files stay mutually
/// greppable.  `generated_by` is formatted here, from the
/// [`crate::DRILLS`] row that declares it writes `file`, so a JSON can
/// never name a command that does not exist.
pub fn emit_json(file: &str, bench: &str, unit_note: &str, rows: &[Row]) {
    let (name, ..) = crate::DRILLS
        .iter()
        .find(|d| d.1 == file)
        .unwrap_or_else(|| panic!("{file} has no writer row in the drill table"));
    let json = render_json(bench, unit_note, &crate::command(name), provenance(), rows);
    std::fs::write(file, &json).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    println!("wrote {file}");
}

/// The shared envelope of [`emit_json`], rendered.
fn render_json(
    bench: &str,
    unit_note: &str,
    generated_by: &str,
    provenance: &Row,
    rows: &[Row],
) -> String {
    let text = |s: &str| Value::Str(s.into()).json();
    let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.json())).collect();
    format!(
        "{{\n  \"bench\": {},\n  \"unit_note\": {},\n  \"generated_by\": {},\n  \
         \"provenance\": {},\n  \"configs\": [\n{}\n  ]\n}}\n",
        text(bench),
        text(unit_note),
        text(generated_by),
        provenance.json(),
        body.join(",\n")
    )
}

/// Where a run was made: the commit (`-dirty` when the tree had
/// uncommitted changes), `rustc -V`, the CPUs this process may use
/// (`nproc`) and the CPU model.  Taken once per process, before the first
/// file is written, so every file of one `json` run carries the same one.
fn provenance() -> &'static Row {
    static PROVENANCE: std::sync::OnceLock<Row> = std::sync::OnceLock::new();
    PROVENANCE.get_or_init(read_provenance)
}

fn read_provenance() -> Row {
    let run = |cmd: &str, args: &[&str]| {
        let out = std::process::Command::new(cmd).args(args).output().ok();
        out.filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    Row::new()
        .string(
            "commit",
            run("git", &["describe", "--always", "--dirty", "--abbrev=12"]),
        )
        .string("rustc", run("rustc", &["-V"]))
        .int("nproc", cpus)
        .string("cpu", cpu_model())
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
            "a \"quoted\" unit note",
            &crate::command("demo"),
            &Row::new().string("commit", "abc"),
            &[Row::new().int("x", 1u8), Row::new().int("x", 2u8)],
        );
        assert!(text.contains("\"bench\": \"demo\""));
        assert!(text.contains("\"unit_note\": \"a \\\"quoted\\\" unit note\""));
        assert!(text.contains("\"generated_by\": \"cargo run --release -p pm2-bench -- demo\""));
        assert!(text.contains("\"provenance\": {\"commit\": \"abc\"},"));
        assert!(text.contains("    {\"x\": 1},\n    {\"x\": 2}"));
        assert!(text.ends_with("  ]\n}\n"));
    }

    /// A row names each key once: the JSON object and the stdout line
    /// carry the same keys in the same order.
    #[test]
    fn a_row_renders_as_json_and_as_its_line() {
        let round = Row::new().int("rps", 150u32).string("verdict", "pass");
        let row = Row::new()
            .string("net", "instant")
            .int("hops", 12_800usize)
            .float("one_way_us", 0.40349, 3)
            .float("ratio", f64::NAN, 2)
            .bool("armed", true)
            .with("verdict", Value::Null)
            .with("rounds", Value::Rows(vec![round]));
        assert_eq!(
            row.json(),
            "{\"net\": \"instant\", \"hops\": 12800, \"one_way_us\": 0.403, \"ratio\": null, \
             \"armed\": true, \"verdict\": null, \"rounds\": [{\"rps\": 150, \"verdict\": \"pass\"}]}"
        );
        assert_eq!(
            row.to_string(),
            "net=instant hops=12800 one_way_us=0.403 ratio=null armed=true verdict=null \
             rounds=[1 rows]"
        );
        assert_eq!(row.get("hops"), 12_800.0);
        assert_eq!(row.get("one_way_us"), 0.40349);
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
