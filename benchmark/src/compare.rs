//! `benchmark compare <A-dir> <B-dir>`: two sets of run outputs, one
//! verdict per workload × end-to-end metric.
//!
//! A directory holds one file per run — the run's stdout as `run.sh`
//! saves it: the provenance line, then the result line.  Bounds and
//! directions come from `BENCHMARK.json`.  A metric whose run-to-run
//! spread (interquartile range over the median, on either side) exceeds
//! its bound is `unresolved`, never `same`.  The exit code is non-zero on
//! any `worse`, on a higher failed share in B, or on an incorrect run.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` table of a `BENCHMARK.json`.
pub fn load_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = json::parse(text)?;
    let table = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("spec has no end_to_end table")?;
    table
        .iter()
        .map(|m| {
            Some(MetricSpec {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".into())
}

/// One parsed run output.
struct RunFile {
    workload: String,
    trace: bool,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn parse_run(text: &str) -> Result<RunFile, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let provenance = lines
        .clone()
        .find_map(|l| json::parse(l).ok()?.get("provenance").cloned())
        .ok_or("no provenance line")?;
    let result = json::parse(lines.next_back().ok_or("empty file")?)?;
    let field = |v: &Value, k: &str| v.get(k).cloned().ok_or(format!("missing {k}"));
    let metrics = field(&result, "metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(RunFile {
        workload: field(&provenance, "workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string(),
        trace: field(&provenance, "trace")?.as_f64() == Some(1.0),
        correct: field(&result, "correct")?.as_bool() == Some(true),
        attempted: field(&result, "attempted")?.as_f64().unwrap_or(0.0),
        failed: field(&result, "failed")?.as_f64().unwrap_or(0.0),
        metrics,
    })
}

/// The runs of one workload in one set.
#[derive(Default)]
struct Group {
    /// Values per metric, untraced and traced runs apart.
    end_to_end: BTreeMap<String, Vec<f64>>,
    per_layer: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
    incorrect: usize,
}

fn load_set(dir: &Path) -> Result<BTreeMap<String, Group>, String> {
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let g = groups.entry(run.workload).or_default();
        g.attempted += run.attempted;
        g.failed += run.failed;
        g.incorrect += !run.correct as usize;
        let table = if run.trace {
            &mut g.per_layer
        } else {
            &mut g.end_to_end
        };
        for (name, v) in run.metrics {
            table.entry(name).or_default().push(v);
        }
    }
    if groups.is_empty() {
        return Err(format!("{}: no run outputs", dir.display()));
    }
    Ok(groups)
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them
/// (the exclusive method), so the spread here is the spread the driver
/// computes.  Needs two values; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// Judge B against A for one metric.
pub fn judge(a: &[f64], b: &[f64], spec: &MetricSpec) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = |q: [f64; 3]| {
        if q[1] == 0.0 {
            0.0
        } else {
            (q[2] - q[0]) / q[1].abs()
        }
    };
    if spread(qa) > spec.bound || spread(qb) > spec.bound || qa[1] == 0.0 {
        return Verdict::Unresolved;
    }
    let change = (qb[1] - qa[1]) / qa[1].abs();
    let worse_by = if spec.higher_is_better {
        -change
    } else {
        change
    };
    if worse_by > spec.bound {
        Verdict::Worse
    } else if worse_by < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `bench.trace_overhead_ratio`: median `ops_per_s` of a set's traced
/// runs over that of its untraced runs; `None` without both kinds.
fn trace_overhead_ratio(g: &Group) -> Option<f64> {
    let traced = quartiles(g.per_layer.get("bench.traced_ops_per_s")?)[1];
    let untraced = quartiles(g.end_to_end.get("ops_per_s")?)[1];
    (untraced > 0.0).then_some(traced / untraced)
}

/// Compare two sets; prints the tables and returns whether B passes.
pub fn compare(a_dir: &Path, b_dir: &Path, spec_path: &Path) -> Result<bool, String> {
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = load_spec(&spec_text)?;
    let (a, b) = (load_set(a_dir)?, load_set(b_dir)?);
    let mut pass = true;
    println!(
        "{:<14} {:<13} {:>12} {:>25} {:>12} {:>25} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A", "bound"
    );
    for (workload, ga) in &a {
        let Some(gb) = b.get(workload) else {
            println!("{workload:<14} missing from B");
            pass = false;
            continue;
        };
        for m in &spec {
            let (Some(va), Some(vb)) = (ga.end_to_end.get(&m.name), gb.end_to_end.get(&m.name))
            else {
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let verdict = judge(va, vb, m);
            pass &= verdict != Verdict::Worse;
            println!(
                "{:<14} {:<13} {:>12.4} {:>25} {:>12.4} {:>25} {:>7.3} {:>6.3}  {}",
                workload,
                m.name,
                qa[1],
                format!("[{:.4}, {:.4}]", qa[0], qa[2]),
                qb[1],
                format!("[{:.4}, {:.4}]", qb[0], qb[2]),
                qb[1] / qa[1],
                m.bound,
                format!("{verdict:?}").to_lowercase(),
            );
        }
        let share = |g: &Group| {
            if g.attempted == 0.0 {
                0.0
            } else {
                g.failed / g.attempted
            }
        };
        if share(gb) > share(ga) || gb.incorrect > 0 {
            println!(
                "{workload:<14} failed share {:.6} -> {:.6}, incorrect runs in B: {}",
                share(ga),
                share(gb),
                gb.incorrect
            );
            pass = false;
        }
    }
    println!(
        "\nper-layer medians (traced runs; no verdicts, read them against the table in README.md)"
    );
    for (workload, ga) in &a {
        let Some(gb) = b.get(workload) else { continue };
        // What tracing costs: each set's traced runs against its own
        // untraced ones.
        if let (Some(ra), Some(rb)) = (trace_overhead_ratio(ga), trace_overhead_ratio(gb)) {
            println!(
                "{workload:<14} {:<38} {ra:>14.4} {rb:>14.4} {:>7.3}",
                "bench.trace_overhead_ratio",
                rb / ra
            );
        }
        for (name, va) in &ga.per_layer {
            let Some(vb) = gb.per_layer.get(name) else {
                continue;
            };
            let (ma, mb) = (quartiles(va)[1], quartiles(vb)[1]);
            if ma != 0.0 || mb != 0.0 {
                println!(
                    "{workload:<14} {name:<38} {ma:>14.4} {mb:>14.4} {:>7.3}",
                    mb / ma
                );
            }
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3., 1., 2.]), [1., 2., 3.]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[10., 20., 30., 40., 50.]), [15., 30., 45.]);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100., 101., 99., 100., 100.];
        let up = [110., 111., 109., 110., 110.];
        assert_eq!(judge(&a, &up, &spec(false, 0.05)), Verdict::Worse);
        assert_eq!(judge(&a, &up, &spec(true, 0.05)), Verdict::Better);
        assert_eq!(judge(&a, &up, &spec(false, 0.15)), Verdict::Same);
        let wide = [80., 120., 100., 90., 110.];
        assert_eq!(judge(&a, &wide, &spec(false, 0.05)), Verdict::Unresolved);
    }

    #[test]
    fn parses_a_run_file_and_the_repo_spec() {
        let text = "{\"provenance\": {\"workload\": \"rpc_fanin\", \"trace\": 0}}\n\
                    {\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
                    {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}\n";
        let run = parse_run(text).unwrap();
        assert_eq!(run.workload, "rpc_fanin");
        assert!(!run.trace && run.correct);
        assert_eq!((run.attempted, run.failed), (10.0, 1.0));
        assert_eq!(run.metrics, vec![("ops_per_s".to_string(), 12.5)]);
        assert!(parse_run("{\"correct\": true}").is_err());

        let spec = load_spec(include_str!("../../BENCHMARK.json")).unwrap();
        assert!(spec
            .iter()
            .any(|m| m.name == "ops_per_s" && m.higher_is_better));
    }
}
