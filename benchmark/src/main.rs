//! Command line of the repo benchmark; see the crate docs and README.md.

use std::path::Path;
use std::process::ExitCode;

use benchmark::{compare, run, sysinfo, workload, WORKLOADS};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark compare <A-dir> <B-dir> [--spec <BENCHMARK.json>]";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| (1..=3600).contains(&s))
            .ok_or("--seconds must be 1..=3600")?,
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

fn main_run(args: &[String]) -> Result<bool, String> {
    let a = parse_run_args(args)?;
    let w = workload(&a.workload).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {}; one of {}",
            a.workload,
            names.join(", ")
        )
    })?;
    let report = run(w, a.seed, a.seconds, a.trace)?;
    println!("{}", report.provenance.to_json());
    println!("{}", report.windows_json());
    println!("{}", report.result_json());
    Ok(true)
}

fn main_compare(args: &[String]) -> Result<bool, String> {
    let (dirs, spec) = match args {
        [a, b] => ((a, b), "BENCHMARK.json"),
        [a, b, flag, spec] if flag == "--spec" => ((a, b), spec.as_str()),
        _ => return Err(USAGE.into()),
    };
    compare::compare(Path::new(dirs.0), Path::new(dirs.1), Path::new(spec))
}

fn main() -> ExitCode {
    // Start the process clock before anything else: `setup_s` of the
    // first cycle counts from here.
    sysinfo::now_ns();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => main_compare(&args[1..]),
        Some(_) => main_run(&args),
        None => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
