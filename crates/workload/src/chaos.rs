//! Chaos scenarios judged by the capacity harness's own SLO gates: a
//! node dies under load ([`run_kill_node`]), or the fabric is cut in two
//! for a window and must re-converge after healing ([`run_partition`]).
//!
//! The drill runs three acts on a machine the caller launched with a
//! spill directory:
//!
//! 1. **Baseline** — one fixed-rate [`run_gated_round`] of the
//!    [`WorkloadSpec::chaos`] mix on the healthy machine; it must pass
//!    the failure-rate and p99 gates or the machine was never keeping up.
//!    Four *resident* iso-allocating threads sit on the victim node
//!    throughout, so the kill has state to destroy.
//! 2. **Disruption** — checkpoint the victim, pull its power cord
//!    ([`Machine::kill_node`]), and run [`Machine::recover_node`]: spill
//!    replay, survivor re-adoption, orphan-slot reclamation.  The wall
//!    clock across kill → recovered is the disruption window.
//! 3. **Aftermath** — the same fixed-rate round again.  The driver routes
//!    ops around the corpse (a front-end stops dialing a dead replica),
//!    so the gate asks the real question: do p-1 survivors still clear
//!    the SLOs at the original offered rate?  Finally the residents are
//!    joined and must return their iso-values from a survivor node.
//!
//! [`ChaosReport::slo_ok`] is the single verdict CI gates on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm2::api::pm2_yield;
use pm2::{Machine, RecoveryReport};

use crate::driver::{run_gated_round, RoundReport};
use crate::ramp::RampConfig;
use crate::spec::WorkloadSpec;

/// Resident threads planted on the victim before the baseline round.
pub const CHAOS_RESIDENTS: usize = 4;

/// Everything the `kill_node` drill measured.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Spec name (`chaos_kill_node`).
    pub workload: String,
    /// Node count, including the node that dies.
    pub nodes: usize,
    /// The killed node.
    pub victim: usize,
    /// Fixed offered rate for both gated rounds.
    pub rps: u64,
    /// The healthy-machine round.
    pub baseline: RoundReport,
    /// Threads the pre-kill checkpoint covered (≥ the residents; any
    /// straggler ops from the baseline round ride along).
    pub checkpointed: u32,
    /// What recovery accomplished.
    pub recovery: RecoveryReport,
    /// Wall clock from the kill to recovery's return, ms.
    pub disruption_ms: f64,
    /// The survivors-only round at the same offered rate.
    pub aftermath: RoundReport,
    /// Residents that came back with their iso-values intact.
    pub residents_recovered: usize,
}

impl ChaosReport {
    /// The CI gate: both rounds passed their SLOs and no checkpointed
    /// resident was lost.
    pub fn slo_ok(&self) -> bool {
        self.baseline.verdict.passed()
            && self.aftermath.verdict.passed()
            && self.residents_recovered == CHAOS_RESIDENTS
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} on p={} (victim {}): baseline {} @ {} rps (fail {:.2}, p99 {:.1} ms), \
             disruption {:.1} ms ({} recovered / {} lost / {} slots reclaimed), \
             aftermath {} (fail {:.2}, p99 {:.1} ms), residents {}/{}",
            self.workload,
            self.nodes,
            self.victim,
            self.baseline.verdict.label(),
            self.rps,
            self.baseline.failure_rate,
            self.baseline.p99_ms,
            self.disruption_ms,
            self.recovery.threads_recovered,
            self.recovery.threads_lost,
            self.recovery.slots_reclaimed,
            self.aftermath.verdict.label(),
            self.aftermath.failure_rate,
            self.aftermath.p99_ms,
            self.residents_recovered,
            CHAOS_RESIDENTS,
        )
    }
}

/// Run the `kill_node` drill.  The machine must have been launched with a
/// spill directory (checkpoints have nowhere to go otherwise) and
/// [`crate::register_services`] must have been called.  Any node may be
/// the victim — the §4.4 coordinator is a leased role on the lowest-id
/// live node, so killing the incumbent just elects its successor.
pub fn run_kill_node(
    m: &mut Machine,
    victim: usize,
    cfg: &RampConfig,
    rps: u64,
    injectors: usize,
) -> pm2::Result<ChaosReport> {
    let spec = WorkloadSpec::chaos();

    // Plant the residents: state on the victim that must outlive it.
    let stop = Arc::new(AtomicBool::new(false));
    let mut residents = Vec::with_capacity(CHAOS_RESIDENTS);
    for i in 0..CHAOS_RESIDENTS as u64 {
        let stop = Arc::clone(&stop);
        residents.push(m.spawn_on_ret(victim, move || {
            let cell = pm2::IsoBox::new(0x0DD0_0000 + i).expect("resident isomalloc");
            while !stop.load(Ordering::SeqCst) {
                pm2_yield();
            }
            *cell
        })?);
    }

    let baseline = run_gated_round(m, &spec, cfg, rps, 0, injectors);

    let checkpointed = m.checkpoint_node(victim)?;
    let t0 = Instant::now();
    m.kill_node(victim)?;
    let recovery = m.recover_node(victim)?;
    let disruption_ms = t0.elapsed().as_secs_f64() * 1e3;

    let aftermath = run_gated_round(m, &spec, cfg, rps, 1, injectors);

    stop.store(true, Ordering::SeqCst);
    let mut residents_recovered = 0;
    for (i, h) in residents.into_iter().enumerate() {
        if h.join().is_ok_and(|v| v == 0x0DD0_0000 + i as u64) {
            residents_recovered += 1;
        }
    }

    Ok(ChaosReport {
        workload: spec.name,
        nodes: m.nodes(),
        victim,
        rps,
        baseline,
        checkpointed,
        recovery,
        disruption_ms,
        aftermath,
        residents_recovered,
    })
}

/// Everything the `partition` drill measured.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Spec name (`chaos_partition`).
    pub workload: String,
    /// Node count.
    pub nodes: usize,
    /// Fixed offered rate for both gated rounds.
    pub rps: u64,
    /// The healthy-machine round.
    pub baseline: RoundReport,
    /// How long the cut actually lasted, ms.
    pub partition_ms: f64,
    /// Messages the cut stalled (fabric `stalled` delta) — proof the
    /// partition held up real traffic, which the heal then delivered.
    pub messages_stalled: u64,
    /// Nodes wrongly declared dead by the cut (must be 0: a partition
    /// shorter than `failure_timeout` is not a death).
    pub false_deaths: usize,
    /// Did every node's gossiped wealth table re-converge (a fresh
    /// nonzero hint for every peer) within the quiet timeout after heal?
    pub wealth_converged: bool,
    /// The post-heal round at the same offered rate.
    pub aftermath: RoundReport,
    /// Residents on the far side whose joiners got their values back.
    pub residents_recovered: usize,
}

impl PartitionReport {
    /// The CI gate: both rounds passed, the cut killed nobody, gossip
    /// re-converged, and no joiner is stuck.
    pub fn slo_ok(&self) -> bool {
        self.baseline.verdict.passed()
            && self.aftermath.verdict.passed()
            && self.false_deaths == 0
            && self.wealth_converged
            && self.residents_recovered == CHAOS_RESIDENTS
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} on p={}: baseline {} @ {} rps (fail {:.2}, p99 {:.1} ms), \
             cut {:.1} ms ({} msgs stalled, {} false deaths), wealth converged: {}, \
             aftermath {} (fail {:.2}, p99 {:.1} ms), residents {}/{}",
            self.workload,
            self.nodes,
            self.baseline.verdict.label(),
            self.rps,
            self.baseline.failure_rate,
            self.baseline.p99_ms,
            self.partition_ms,
            self.messages_stalled,
            self.false_deaths,
            self.wealth_converged,
            self.aftermath.verdict.label(),
            self.aftermath.failure_rate,
            self.aftermath.p99_ms,
            self.residents_recovered,
            CHAOS_RESIDENTS,
        )
    }
}

/// Run the `partition` drill: a baseline SLO-gated round, then cut the
/// fabric between node sets `a` and `b` for `window`, heal, and demand
/// re-convergence — nobody falsely declared dead, gossiped wealth hints
/// fresh again on every node, the same offered rate sustained post-heal,
/// and the far-side residents joinable with their iso-values intact.
///
/// `window` must be shorter than the machine's `failure_timeout` (if a
/// detector is armed): this drill is about *transient* cuts, where the
/// right behaviour is to ride it out, not to declare deaths.
pub fn run_partition(
    m: &mut Machine,
    a: &[usize],
    b: &[usize],
    window: Duration,
    cfg: &RampConfig,
    rps: u64,
    injectors: usize,
) -> pm2::Result<PartitionReport> {
    assert!(!a.is_empty() && !b.is_empty(), "both sides need nodes");
    let spec = WorkloadSpec {
        name: "chaos_partition".into(),
        ..WorkloadSpec::chaos()
    };

    // Plant residents on the far side: post-heal joiners must get their
    // values back across the formerly-severed links.
    let stop = Arc::new(AtomicBool::new(false));
    let home = b[0];
    let mut residents = Vec::with_capacity(CHAOS_RESIDENTS);
    for i in 0..CHAOS_RESIDENTS as u64 {
        let stop = Arc::clone(&stop);
        residents.push(m.spawn_on_ret(home, move || {
            let cell = pm2::IsoBox::new(0x9A97_0000 + i).expect("resident isomalloc");
            while !stop.load(Ordering::SeqCst) {
                pm2_yield();
            }
            *cell
        })?);
    }

    let baseline = run_gated_round(m, &spec, cfg, rps, 0, injectors);

    let stalled_before: u64 = (0..m.nodes())
        .filter_map(|n| m.net_stats(n))
        .map(|s| s.stalled)
        .sum();
    let t0 = Instant::now();
    m.partition_nodes(a, b);
    std::thread::sleep(window);
    m.heal_partition();
    let partition_ms = t0.elapsed().as_secs_f64() * 1e3;
    let messages_stalled = (0..m.nodes())
        .filter_map(|n| m.net_stats(n))
        .map(|s| s.stalled)
        .sum::<u64>()
        .saturating_sub(stalled_before);
    let false_deaths = (0..m.nodes()).filter(|&n| m.is_node_dead(n)).count();

    // Re-convergence: gossip (one digest per heartbeat period per node)
    // must refresh every node's wealth hint for every peer through the
    // healed links.  Zero is the "never heard from them" sentinel; under
    // the test workloads a node's free-slot count never genuinely sits
    // at zero while idle.
    let deadline = Instant::now() + cfg.quiet_timeout;
    let mut wealth_converged = false;
    let mut buf = Vec::new();
    while Instant::now() < deadline && !wealth_converged {
        wealth_converged = (0..m.nodes()).all(|n| {
            m.peer_wealth_into(n, &mut buf);
            buf.iter().all(|&w| w > 0)
        });
        if !wealth_converged {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    let aftermath = run_gated_round(m, &spec, cfg, rps, 1, injectors);

    stop.store(true, Ordering::SeqCst);
    let mut residents_recovered = 0;
    for (i, h) in residents.into_iter().enumerate() {
        if h.join().is_ok_and(|v| v == 0x9A97_0000 + i as u64) {
            residents_recovered += 1;
        }
    }

    Ok(PartitionReport {
        workload: spec.name,
        nodes: m.nodes(),
        rps,
        baseline,
        partition_ms,
        messages_stalled,
        false_deaths,
        wealth_converged,
        aftermath,
        residents_recovered,
    })
}
