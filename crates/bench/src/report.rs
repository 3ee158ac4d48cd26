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

/// Closing clause of the `unit_note` of the four files that time the
/// migration path — BENCH_evacuation, BENCH_latency, BENCH_migration and
/// BENCH_scale.  A null hop is a row of three of them, and the rows can only
/// be read against each other when one host wrote them in one sitting, so
/// whoever commits one of the four re-runs and commits all four.
pub fn one_host_note() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "committed with BENCH_evacuation, BENCH_latency, BENCH_migration and BENCH_scale \
         from one run on one host ({cpus} CPUs), so the four read against each other"
    )
}

/// Write one repo-root `BENCH_*.json` perf-trajectory file.
///
/// Every tracked benchmark shares this envelope — `bench` id, a
/// `unit_note` explaining what the numbers mean, the `generated_by`
/// command, and a `configs` array of row objects — so the trajectory
/// files stay mutually greppable.  `generated_by` is formatted here, from
/// the [`crate::DRILLS`] row that declares it writes `file`, so a JSON can
/// never name a command that does not exist.  `rows` are pre-rendered JSON
/// objects *without* indentation (this helper owns the layout);
/// `unit_note` and friends must not contain raw `"` characters.
pub fn emit_json(file: &str, bench: &str, unit_note: &str, rows: &[String]) {
    let (name, ..) = crate::DRILLS
        .iter()
        .find(|d| d.1 == file)
        .unwrap_or_else(|| panic!("{file} has no writer row in the drill table"));
    let json = render_json(bench, unit_note, &crate::command(name), rows);
    std::fs::write(file, &json).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    println!("wrote {file}");
}

/// The shared envelope of [`emit_json`], rendered.
fn render_json(bench: &str, unit_note: &str, generated_by: &str, rows: &[String]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
    format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"unit_note\": \"{unit_note}\",\n  \
         \"generated_by\": \"{generated_by}\",\n  \"configs\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
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
            &["{\"x\": 1}".to_string(), "{\"x\": 2}".to_string()],
        );
        assert!(text.contains("\"bench\": \"demo\""));
        assert!(text.contains("\"unit_note\": \"a unit note\""));
        assert!(text.contains("\"generated_by\": \"cargo run --release -p pm2-bench -- demo\""));
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
