//! # pm2-workload — ramping mixed-workload harness with SLO gates
//!
//! Most rows of `pm2-bench`'s drill table (`cargo run -p pm2-bench -- list`)
//! are fixed-shape microbenches; this crate answers the production
//! question: **what request rate can a p-node machine sustain?**  (The
//! `workload` row ramps it; `chaos` runs its kill and partition drills at
//! a fixed rate.)  The design follows the
//! Internet Computer scalability suite's workload experiments: declare a
//! workload, ramp its rate round by round, gate each round on failure-rate
//! and p99-latency SLOs, and report the highest passing round as the
//! machine's capacity.
//!
//! The pieces:
//!
//! * [`WorkloadSpec`] — a declarative workload *value*: a weighted mix of
//!   ops (spawn, typed RPC, migrate, group-migrate trains, isomalloc
//!   alloc/free, broadcast fan-out) with a payload-size distribution and
//!   a node-targeting policy, sampled via testkit's seeded SplitMix64 so
//!   a run replays exactly.  Future scenarios (chaos, affinity shapes)
//!   are just new spec values.
//! * [`run_ramp`] — the open-loop driver: injector threads own the
//!   schedule and push sampled ops down a channel; the issuer thread
//!   (which owns the machine handle, `!Sync` because its host endpoint's
//!   inbox has one consumer and its send counters one writer) spawns each
//!   op the moment it is due; op latency is measured from the *scheduled* time so
//!   queueing counts and saturation is visible (no coordinated
//!   omission).  Latencies land in a concurrent log-linear histogram
//!   ([`LogHistogram`]); uncompleted ops become timeouts.
//! * [`judge`] and [`RampController`] — the IC-style gate and the
//!   schedule as pure functions of the measurements: a round fails with
//!   `failure_rate >` [`ALLOWABLE_FAILURE_RATE`] or `p99 >` [`SLO_P99_MS`],
//!   hard-stop thresholds mark the cliff; the rate doubles from
//!   `initial_rps` to the first failing round, then bisects until the
//!   bracket is within [`KNEE_TOLERANCE`]; the highest passing round is
//!   the max sustainable RPS.
//! * [`CapacityReport`] — per-round driver measurements joined with
//!   machine-side counters (scheduler steps, doorbell parks, spawns,
//!   migrations/trains, slot trades/negotiations, payload-pool churn: the
//!   round's summed `after.since(&before)` of [`pm2::Machine::node_stats`]
//!   and [`pm2::Machine::pool_stats`]) so each round shows *why* it
//!   saturated, not just that it did.
//!
//! ```no_run
//! use pm2::Machine;
//! use pm2_workload::{register_services, run_ramp, RampConfig, WorkloadSpec};
//!
//! let mut m = Machine::builder(4).launch().unwrap();
//! register_services(&m);
//! let report = run_ramp(&m, &WorkloadSpec::mixed(), RampConfig::default(), 2);
//! println!("{}", report.summary());
//! m.shutdown();
//! ```

mod chaos;
mod driver;
mod hist;
mod ramp;
mod spec;

pub use chaos::{run_kill_node, run_partition, ChaosReport, PartitionReport, CHAOS_RESIDENTS};
pub use driver::{register_services, run_gated_round, run_ramp, CapacityReport, Echo, RoundReport};
pub use hist::{LogHistogram, N_BUCKETS};
pub use ramp::{
    judge, RampConfig, RampController, RoundMeasurement, Verdict, ALLOWABLE_FAILURE_RATE,
    KNEE_TOLERANCE, SLO_P99_MS, STOP_FAILURE_RATE, STOP_P50_MS,
};
pub use spec::{OpKind, SampledOp, SizeDist, Targeting, WorkloadSpec};
