//! What the benchmark reads from the host: the process clock, `/proc`
//! figures, and the provenance block printed with every run.

use std::sync::OnceLock;
use std::time::Instant;

use crate::json::{number, quote};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call (made at the top of `main`, so this
/// is time since process start).  Every stamp the benchmark takes — op
/// times, spans, the stamps that ride RPC payloads — is on this clock.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Cost of one [`now_ns`] call, ns (`bench.timer_ns`).
pub fn timer_cost_ns() -> f64 {
    const N: u64 = 100_000;
    let t0 = now_ns();
    for _ in 0..N {
        std::hint::black_box(now_ns());
    }
    (now_ns() - t0) as f64 / N as f64
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

pub fn loadavg_1min() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of the whole process, µs.  `/proc/self/stat`
/// counts in clock ticks, which Linux fixes at 100 per second for
/// userspace, so the resolution is 10 ms — fine over a multi-second
/// window, which is the only way it is used.
pub fn cpu_time_us() -> u64 {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15 overall: 11 and 12 after ')'.
    (tick(11) + tick(12)) * 10_000
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the current directory, read from `.git`
/// without starting a process; "unknown" outside a git checkout.
fn git_commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    let loose = read(&format!(".git/{reference}"));
    if !loose.trim().is_empty() {
        return loose.trim().into();
    }
    read(".git/packed-refs")
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// Where, on what and with which inputs a run was made.
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub workers: usize,
    pub warmup_ops: u64,
    pub loadavg_1min: f64,
}

impl Provenance {
    /// A run that starts on a busy host is still reported, but flagged.
    pub fn noisy(&self) -> bool {
        self.loadavg_1min > nproc() as f64 - 1.0
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"git_commit\": {}, \"rustc\": {}, \"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \
             \"workers\": {}, \"warmup_ops\": {}, \"loadavg_1min\": {}, \"noisy\": {}}}}}",
            quote(&self.workload),
            self.seed,
            self.seconds,
            self.trace as u8,
            quote(&git_commit()),
            quote(env!("BENCH_RUSTC_VERSION")),
            nproc(),
            quote(&cpu_model()),
            quote(read("/proc/sys/kernel/osrelease").trim()),
            self.workers,
            self.warmup_ops,
            number(self.loadavg_1min),
            self.noisy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.5);
        assert!(loadavg_1min() >= 0.0);
        let t0 = now_ns();
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 30 {}
        assert!(now_ns() - t0 >= 30_000_000);
        assert!(cpu_time_us() >= 20_000, "30 ms of spinning is ≥ 2 ticks");
        assert!(timer_cost_ns() > 0.0);
    }

    #[test]
    fn provenance_is_valid_json_with_every_field() {
        let p = Provenance {
            workload: "evacuate_heap".into(),
            seed: 3,
            seconds: 30,
            trace: false,
            workers: 2,
            warmup_ops: 100,
            loadavg_1min: 0.25,
        };
        let v = crate::json::parse(&p.to_json()).unwrap();
        let block = v.get("provenance").unwrap();
        for key in [
            "git_commit",
            "rustc",
            "nproc",
            "cpu_model",
            "kernel",
            "workers",
            "seed",
            "warmup_ops",
            "loadavg_1min",
            "noisy",
        ] {
            assert!(block.get(key).is_some(), "missing {key}");
        }
        assert!(block
            .get("rustc")
            .unwrap()
            .as_str()
            .unwrap()
            .starts_with("rustc"));
    }
}
