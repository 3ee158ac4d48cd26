//! Machine configuration: the raw [`Pm2Config`] record and the fluent
//! [`MachineBuilder`] over it.
//!
//! New code should start at [`crate::Machine::builder`]; `Pm2Config` stays
//! public as the paper-faithful, field-poking layer and for embedders that
//! persist configurations.

use std::time::Duration;

use isoaddr::{AreaConfig, Distribution, MapStrategy};
use isomalloc::FitPolicy;
use madeleine::NetProfile;

use crate::error::Result;
use crate::machine::Machine;

/// How node schedulers are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineMode {
    /// One OS thread per node (the default; nodes run in parallel like the
    /// paper's cluster).
    Threaded,
    /// A single OS thread drives all nodes round-robin.  Fully deterministic
    /// interleaving; used by tests.
    Deterministic,
}

/// Top-level configuration of a PM2 machine (a simulated cluster).
#[derive(Debug, Clone)]
pub struct Pm2Config {
    /// Number of nodes.
    pub nodes: usize,
    /// Geometry of the iso-address area.
    pub area: AreaConfig,
    /// How slot commit/decommit maps onto the host kernel (see
    /// [`MapStrategy`]; `Resident` keeps host-kernel page-table costs out
    /// of measurements, `Syscall` is the faithful mmap path).
    pub map_strategy: MapStrategy,
    /// Initial slot distribution (§4.1; the paper uses round-robin).
    pub distribution: Distribution,
    /// Capacity of each node's mmapped-slot cache (§6); 0 disables it.
    pub slot_cache: usize,
    /// Wire model for the Madeleine fabric.
    pub net: NetProfile,
    /// Block-placement policy for thread heaps (§4.3; paper: first-fit).
    pub fit: FitPolicy,
    /// Release fully-free heap slots to the hosting node eagerly.
    pub trim: bool,
    /// Scheduler driving mode.
    pub mode: MachineMode,
    /// Ship whole slots instead of busy blocks only (ablation A6).
    pub pack_full_slots: bool,
    /// Echo `pm2_printf` lines to the process stdout as well as capturing
    /// them.
    pub echo_output: bool,
    /// How long a green thread waits for a protocol reply (negotiation,
    /// load probes, typed LRPC) before declaring the machine wedged.
    /// Tests want it short so a deadlock fails fast; stress runs want it
    /// long so a loaded machine is not misdiagnosed.
    pub reply_deadline: Duration,
    /// Largest request/response payload the typed LRPC layer accepts,
    /// in bytes.  Oversized requests fail locally at the caller;
    /// oversized responses fail at the serving node with an RPC error.
    pub max_rpc_payload: usize,
    /// Most messages one driver pump handles before running a thread
    /// quantum.  The pump drains priority classes in order (control >
    /// migration > data), so the budget bounds how long a flooded lane
    /// can hold the scheduler off without ever letting data traffic
    /// delay control traffic.  Values < 1 are treated as 1.
    pub pump_budget: usize,
    /// Longest time an idle driver parks on its endpoint doorbell before
    /// re-checking the world.  This is a liveness backstop, **not** a poll
    /// period: every send rings the destination's doorbell, so real
    /// traffic wakes a parked driver immediately and a quiescent machine
    /// wakes only once per `idle_park`.
    pub idle_park: Duration,
    /// Worker threads the threaded-mode executor multiplexes the node
    /// drivers onto.  `0` (the default) sizes the pool automatically:
    /// `min(available cores, nodes)`.  Deterministic mode ignores it (one
    /// driver thread by definition).  A p = 256 machine on a laptop runs
    /// on a handful of workers; nodes are state machines woken by their
    /// doorbells, not threads.
    pub workers: usize,
    /// Upper bound on threads coalesced into one migration *train* (one
    /// `MIGRATION` wire message).  When a departure is packed, every other
    /// ready thread already flagged for migration is swept along and
    /// same-destination threads ride the same message, so a k-thread
    /// evacuation pays one message latency per destination instead of k.
    /// `1` disables coalescing (the per-thread-message baseline measured
    /// by the evacuation benchmark); values < 1 are treated as 1.
    pub max_train: usize,
    /// Trade-first remote slot acquisition (the decentralized slot
    /// economy).  When a node lacks contiguous slots it asks the richest
    /// known peer for a batch with one point-to-point `SLOT_TRADE`
    /// exchange — no lock, no freeze, no bitmap gather — and only falls
    /// back to the paper's §4.4 global negotiation when the trade cannot
    /// help.  `false` forces every shortfall through the global protocol
    /// (the measured baseline, and what the paper-faithful tests use).
    pub slot_trade: bool,
    /// Free-slot reserve low watermark: when a node's reserve drops below
    /// it, the driver sends one asynchronous prefetch trade to top the
    /// reserve back up, and a *lender* never grants slots that would take
    /// itself below it (the global protocol ignores watermarks — it is
    /// the authority of last resort).  0 disables prefetching.
    pub slot_low_watermark: usize,
    /// Prefetch target level: an async prefetch asks for
    /// `high − reserve` slots.  Clamped up to at least the low watermark.
    pub slot_high_watermark: usize,
    /// Extra slots a *demand* trade requests beyond the shortfall itself —
    /// the batch that amortizes one trade round trip over many later
    /// acquisitions.  Values < 1 are treated as 1.
    pub trade_batch: usize,
    /// Directory for per-node spill logs (`node<k>.log`), the persistence
    /// behind checkpoints and recovery.  `None` (the default) disables
    /// checkpointing entirely — `checkpoint_every` and `CKPT_REQ` are
    /// inert without a place to spill to.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Periodic checkpoint interval: each node driver spills a snapshot
    /// train of its migratable threads at most this often.  `None` (the
    /// default) means checkpoints happen only on demand
    /// ([`crate::Machine::checkpoint_node`]).  Requires `spill_dir`.
    pub checkpoint_every: Option<Duration>,
    /// Silence threshold of the failure detector: a node that has heard
    /// nothing from a peer for longer than this declares it dead (marks
    /// the fabric and broadcasts `NODE_DEAD`).  `None` (the default)
    /// disables detection — deaths are then only declared explicitly via
    /// [`crate::Machine::kill_node`].
    pub failure_timeout: Option<Duration>,
    /// How often a node beacons `HEARTBEAT` to its peers while the
    /// detector is armed.  Must be well under `failure_timeout`; ignored
    /// when detection is off.
    pub heartbeat_every: Duration,
    /// Seeded message-level fault plan for the fabric (chaos testing).
    /// `None` (the default) keeps every link a perfect wire.  When set,
    /// the machine exempts the exactly-once state-transfer tags
    /// (migration trains, spawns, thread exits, kill/shutdown, death
    /// certificates, and the §4.4 negotiation itself) and lets chaos
    /// loose on the at-least-once control plane — which retries above
    /// and deduplicates at the receiver.  Same seed ⇒ byte-identical
    /// fault schedule in deterministic mode.
    pub fault_plan: Option<madeleine::FaultPlan>,
    /// Fault-injection hook for tests: tids whose packed record group is
    /// deliberately truncated on departure, exercising the per-record
    /// train fault isolation end to end.  Leave empty in production.
    #[doc(hidden)]
    pub fault_corrupt_pack: Vec<u64>,
}

impl Pm2Config {
    /// A machine with `nodes` nodes and paper-faithful defaults: 64 KiB
    /// slots, round-robin distribution, first-fit blocks, slot cache on,
    /// BIP/Myrinet wire model, threaded scheduling.
    pub fn new(nodes: usize) -> Self {
        Pm2Config {
            nodes,
            area: AreaConfig::default(),
            map_strategy: MapStrategy::Resident,
            distribution: Distribution::RoundRobin,
            slot_cache: 32,
            net: NetProfile::myrinet_bip(),
            fit: FitPolicy::FirstFit,
            trim: true,
            mode: MachineMode::Threaded,
            pack_full_slots: false,
            echo_output: false,
            reply_deadline: Duration::from_secs(30),
            max_rpc_payload: 1 << 20,
            pump_budget: 64,
            idle_park: Duration::from_millis(500),
            workers: 0,
            max_train: 64,
            slot_trade: true,
            slot_low_watermark: 4,
            slot_high_watermark: 16,
            trade_batch: 16,
            spill_dir: None,
            checkpoint_every: None,
            failure_timeout: None,
            heartbeat_every: Duration::from_millis(50),
            fault_plan: None,
            fault_corrupt_pack: Vec::new(),
        }
    }

    /// Small, instant-network, deterministic machine for tests.
    pub fn test(nodes: usize) -> Self {
        Pm2Config {
            area: AreaConfig {
                slot_size: 64 * 1024,
                n_slots: 256,
            },
            net: NetProfile::instant(),
            mode: MachineMode::Deterministic,
            slot_cache: 0,
            reply_deadline: Duration::from_secs(10),
            ..Pm2Config::new(nodes)
        }
    }

    /// The configuration as the runtime reads it: each knob documented as
    /// "values < 1 are treated as 1" (or clamped against another) is
    /// floored here, once, so no reader re-applies the rule.
    pub(crate) fn normalized(mut self) -> Self {
        self.pump_budget = self.pump_budget.max(1);
        self.max_train = self.max_train.max(1);
        self.trade_batch = self.trade_batch.max(1);
        self.slot_high_watermark = self.slot_high_watermark.max(self.slot_low_watermark);
        self
    }

    /// Builder: set the area geometry.
    pub fn with_area(mut self, area: AreaConfig) -> Self {
        self.area = area;
        self
    }

    /// Builder: set the slot map strategy.
    pub fn with_map_strategy(mut self, s: MapStrategy) -> Self {
        self.map_strategy = s;
        self
    }

    /// Builder: set the slot distribution.
    pub fn with_distribution(mut self, d: Distribution) -> Self {
        self.distribution = d;
        self
    }

    /// Builder: set the wire model.
    pub fn with_net(mut self, net: NetProfile) -> Self {
        self.net = net;
        self
    }

    /// Builder: set the fit policy.
    pub fn with_fit(mut self, fit: FitPolicy) -> Self {
        self.fit = fit;
        self
    }

    /// Builder: set the scheduling mode.
    pub fn with_mode(mut self, mode: MachineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder: set the slot cache capacity.
    pub fn with_slot_cache(mut self, cap: usize) -> Self {
        self.slot_cache = cap;
        self
    }

    /// Builder: echo output lines to stdout.
    pub fn with_echo(mut self, echo: bool) -> Self {
        self.echo_output = echo;
        self
    }

    /// Builder: pack whole slots on migration (ablation A6).
    pub fn with_pack_full(mut self, full: bool) -> Self {
        self.pack_full_slots = full;
        self
    }

    /// Builder: protocol reply deadline.
    pub fn with_reply_deadline(mut self, deadline: Duration) -> Self {
        self.reply_deadline = deadline;
        self
    }

    /// Builder: typed-LRPC payload ceiling.
    pub fn with_max_rpc_payload(mut self, bytes: usize) -> Self {
        self.max_rpc_payload = bytes;
        self
    }

    /// Builder: per-pump message budget.
    pub fn with_pump_budget(mut self, budget: usize) -> Self {
        self.pump_budget = budget;
        self
    }

    /// Builder: idle-park backstop duration.
    pub fn with_idle_park(mut self, park: Duration) -> Self {
        self.idle_park = park;
        self
    }

    /// Builder: executor worker-pool size (0 = auto-size to the host).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder: migration-train size cap (1 disables coalescing).
    pub fn with_max_train(mut self, max: usize) -> Self {
        self.max_train = max;
        self
    }

    /// Builder: trade-first remote slot acquisition on/off (`false`
    /// forces the §4.4 global negotiation on every shortfall).
    pub fn with_slot_trade(mut self, on: bool) -> Self {
        self.slot_trade = on;
        self
    }

    /// Builder: reserve low/high watermarks (prefetch trigger and target).
    pub fn with_slot_watermarks(mut self, low: usize, high: usize) -> Self {
        self.slot_low_watermark = low;
        self.slot_high_watermark = high;
        self
    }

    /// Builder: demand-trade batch size.
    pub fn with_trade_batch(mut self, batch: usize) -> Self {
        self.trade_batch = batch;
        self
    }

    /// Builder: spill-log directory (enables checkpointing).
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Builder: periodic checkpoint interval.
    pub fn with_checkpoint_every(mut self, every: Duration) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Builder: arm the failure detector with a silence threshold.
    pub fn with_failure_timeout(mut self, timeout: Duration) -> Self {
        self.failure_timeout = Some(timeout);
        self
    }

    /// Builder: heartbeat beacon period (detector armed only).
    pub fn with_heartbeat_every(mut self, every: Duration) -> Self {
        self.heartbeat_every = every;
        self
    }

    /// Builder: install a seeded fault plan on the fabric (chaos).
    pub fn with_fault_plan(mut self, plan: madeleine::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder: pack-corruption fault hook (tests only).
    #[doc(hidden)]
    pub fn with_fault_corrupt_pack(mut self, tids: Vec<u64>) -> Self {
        self.fault_corrupt_pack = tids;
        self
    }
}

/// Fluent machine construction — the v1 facade's front door.
///
/// ```no_run
/// use pm2::{Machine, NetProfile};
///
/// let machine = Machine::builder(4)
///     .deterministic()
///     .net(NetProfile::instant())
///     .launch()
///     .unwrap();
/// ```
///
/// Every knob of [`Pm2Config`] is reachable; unset knobs keep the
/// paper-faithful defaults of [`Pm2Config::new`].  [`MachineBuilder::launch`]
/// consumes the builder and starts the node drivers.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    cfg: Pm2Config,
}

impl MachineBuilder {
    /// Start from the paper-faithful defaults for `nodes` nodes
    /// (equivalently: [`crate::Machine::builder`]).
    pub fn new(nodes: usize) -> Self {
        MachineBuilder {
            cfg: Pm2Config::new(nodes),
        }
    }

    /// Drive all nodes round-robin on one OS thread (fully deterministic
    /// interleaving; what tests want).
    pub fn deterministic(mut self) -> Self {
        self.cfg.mode = MachineMode::Deterministic;
        self
    }

    /// One OS thread per node (the default; nodes run in parallel like the
    /// paper's cluster).
    pub fn threaded(mut self) -> Self {
        self.cfg.mode = MachineMode::Threaded;
        self
    }

    /// Wire model for the Madeleine fabric.
    pub fn net(mut self, net: NetProfile) -> Self {
        self.cfg.net = net;
        self
    }

    /// Geometry of the iso-address area.
    pub fn area(mut self, area: AreaConfig) -> Self {
        self.cfg.area = area;
        self
    }

    /// Initial slot distribution across nodes.
    pub fn distribution(mut self, d: Distribution) -> Self {
        self.cfg.distribution = d;
        self
    }

    /// How slot commit/decommit maps onto the host kernel.
    pub fn map_strategy(mut self, s: MapStrategy) -> Self {
        self.cfg.map_strategy = s;
        self
    }

    /// Block-placement policy for thread heaps.
    pub fn fit(mut self, fit: FitPolicy) -> Self {
        self.cfg.fit = fit;
        self
    }

    /// Capacity of each node's mmapped-slot cache (0 disables it).
    pub fn slot_cache(mut self, cap: usize) -> Self {
        self.cfg.slot_cache = cap;
        self
    }

    /// Ship whole slots instead of busy blocks only (ablation A6).
    pub fn pack_full_slots(mut self, full: bool) -> Self {
        self.cfg.pack_full_slots = full;
        self
    }

    /// Release fully-free heap slots to the hosting node eagerly.
    pub fn trim(mut self, trim: bool) -> Self {
        self.cfg.trim = trim;
        self
    }

    /// Echo `pm2_printf` lines to stdout as well as capturing them.
    pub fn echo(mut self, echo: bool) -> Self {
        self.cfg.echo_output = echo;
        self
    }

    /// Protocol reply deadline (negotiation, probes, typed LRPC).
    pub fn reply_deadline(mut self, deadline: Duration) -> Self {
        self.cfg.reply_deadline = deadline;
        self
    }

    /// Typed-LRPC payload ceiling in bytes.
    pub fn max_rpc_payload(mut self, bytes: usize) -> Self {
        self.cfg.max_rpc_payload = bytes;
        self
    }

    /// Most messages one driver pump handles before running a thread
    /// quantum (drained control > migration > data; see
    /// [`Pm2Config::pump_budget`]).
    pub fn pump_budget(mut self, budget: usize) -> Self {
        self.cfg.pump_budget = budget;
        self
    }

    /// Longest doorbell park of an idle driver — a liveness backstop, not
    /// a poll period (see [`Pm2Config::idle_park`]).
    pub fn idle_park(mut self, park: Duration) -> Self {
        self.cfg.idle_park = park;
        self
    }

    /// Executor worker-pool size for threaded mode; 0 auto-sizes to
    /// `min(cores, nodes)` (see [`Pm2Config::workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Migration-train size cap — most threads coalesced into one
    /// `MIGRATION` message; 1 disables coalescing (see
    /// [`Pm2Config::max_train`]).
    pub fn max_train(mut self, max: usize) -> Self {
        self.cfg.max_train = max;
        self
    }

    /// Trade-first remote slot acquisition on/off (`false` forces the
    /// paper's §4.4 global negotiation on every shortfall; see
    /// [`Pm2Config::slot_trade`]).
    pub fn slot_trade(mut self, on: bool) -> Self {
        self.cfg.slot_trade = on;
        self
    }

    /// Free-slot reserve watermarks: prefetch trigger (`low`) and target
    /// (`high`); see [`Pm2Config::slot_low_watermark`].
    pub fn slot_watermarks(mut self, low: usize, high: usize) -> Self {
        self.cfg.slot_low_watermark = low;
        self.cfg.slot_high_watermark = high;
        self
    }

    /// Demand-trade batch size (see [`Pm2Config::trade_batch`]).
    pub fn trade_batch(mut self, batch: usize) -> Self {
        self.cfg.trade_batch = batch;
        self
    }

    /// Spill-log directory — enables checkpointing (see
    /// [`Pm2Config::spill_dir`]).
    pub fn spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cfg.spill_dir = Some(dir.into());
        self
    }

    /// Periodic checkpoint interval (see [`Pm2Config::checkpoint_every`];
    /// requires a spill dir).
    pub fn checkpoint_every(mut self, every: Duration) -> Self {
        self.cfg.checkpoint_every = Some(every);
        self
    }

    /// Arm the failure detector: silence beyond `timeout` declares a peer
    /// dead (see [`Pm2Config::failure_timeout`]).
    pub fn failure_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.failure_timeout = Some(timeout);
        self
    }

    /// Heartbeat beacon period while the detector is armed (see
    /// [`Pm2Config::heartbeat_every`]).
    pub fn heartbeat_every(mut self, every: Duration) -> Self {
        self.cfg.heartbeat_every = every;
        self
    }

    /// Install a seeded message-level fault plan on the fabric (see
    /// [`Pm2Config::fault_plan`]).
    pub fn fault_plan(mut self, plan: madeleine::FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// The small deterministic instant-network profile tests use (the
    /// knobs of [`Pm2Config::test`]).  Overlays only the profile's own
    /// knobs (area, net, mode, slot cache, reply deadline); anything else
    /// set on the builder is kept, in either call order.
    pub fn test_profile(mut self) -> Self {
        let t = Pm2Config::test(self.cfg.nodes);
        self.cfg.area = t.area;
        self.cfg.net = t.net;
        self.cfg.mode = t.mode;
        self.cfg.slot_cache = t.slot_cache;
        self.cfg.reply_deadline = t.reply_deadline;
        self
    }

    /// The configuration this builder would launch, without launching it.
    pub fn into_config(self) -> Pm2Config {
        self.cfg
    }

    /// Launch the machine.
    pub fn launch(self) -> Result<Machine> {
        Machine::launch(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = Pm2Config::new(4);
        assert_eq!(c.area.slot_size, 64 * 1024);
        assert_eq!(c.distribution, Distribution::RoundRobin);
        assert_eq!(c.fit, FitPolicy::FirstFit);
        assert_eq!(c.net.name, "myrinet-bip");
    }

    #[test]
    fn builders_compose() {
        let c = Pm2Config::test(2)
            .with_distribution(Distribution::BlockCyclic(8))
            .with_slot_cache(4)
            .with_fit(FitPolicy::BestFit);
        assert_eq!(c.distribution, Distribution::BlockCyclic(8));
        assert_eq!(c.slot_cache, 4);
        assert_eq!(c.fit, FitPolicy::BestFit);
        assert_eq!(c.mode, MachineMode::Deterministic);
    }

    #[test]
    fn machine_builder_roundtrips_to_config() {
        let c = MachineBuilder::new(3)
            .deterministic()
            .net(NetProfile::instant())
            .slot_cache(2)
            .reply_deadline(Duration::from_millis(1500))
            .max_rpc_payload(4096)
            .pump_budget(7)
            .idle_park(Duration::from_millis(40))
            .max_train(5)
            .echo(true)
            .into_config();
        assert_eq!(c.nodes, 3);
        assert_eq!(c.pump_budget, 7);
        assert_eq!(c.max_train, 5);
        assert_eq!(c.idle_park, Duration::from_millis(40));
        assert_eq!(c.mode, MachineMode::Deterministic);
        assert_eq!(c.net.name, "instant");
        assert_eq!(c.slot_cache, 2);
        assert_eq!(c.reply_deadline, Duration::from_millis(1500));
        assert_eq!(c.max_rpc_payload, 4096);
        assert!(c.echo_output);
    }

    #[test]
    fn workers_knob_roundtrips() {
        let c = MachineBuilder::new(8).workers(3).into_config();
        assert_eq!(c.workers, 3);
        let d = Pm2Config::new(8);
        assert_eq!(d.workers, 0, "auto-sized pool is the default");
        assert_eq!(Pm2Config::new(8).with_workers(2).workers, 2);
    }

    #[test]
    fn slot_economy_knobs_roundtrip() {
        let c = MachineBuilder::new(2)
            .slot_trade(false)
            .slot_watermarks(8, 64)
            .trade_batch(32)
            .into_config();
        assert!(!c.slot_trade);
        assert_eq!(c.slot_low_watermark, 8);
        assert_eq!(c.slot_high_watermark, 64);
        assert_eq!(c.trade_batch, 32);
        let d = Pm2Config::new(2);
        assert!(d.slot_trade, "trade-first is the default");
        assert!(d.slot_low_watermark <= d.slot_high_watermark);
        let e = Pm2Config::test(2)
            .with_slot_trade(false)
            .with_trade_batch(7);
        assert!(!e.slot_trade);
        assert_eq!(e.trade_batch, 7);
    }

    #[test]
    fn fault_tolerance_knobs_roundtrip() {
        let c = MachineBuilder::new(4)
            .spill_dir("/tmp/pm2-spill")
            .checkpoint_every(Duration::from_millis(10))
            .failure_timeout(Duration::from_millis(200))
            .heartbeat_every(Duration::from_millis(25))
            .into_config();
        assert_eq!(
            c.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/pm2-spill"))
        );
        assert_eq!(c.checkpoint_every, Some(Duration::from_millis(10)));
        assert_eq!(c.failure_timeout, Some(Duration::from_millis(200)));
        assert_eq!(c.heartbeat_every, Duration::from_millis(25));
        let d = Pm2Config::new(4);
        assert!(d.spill_dir.is_none(), "checkpointing is opt-in");
        assert!(d.checkpoint_every.is_none());
        assert!(d.failure_timeout.is_none(), "detection is opt-in");
    }

    #[test]
    fn chaos_knobs_roundtrip() {
        let plan = madeleine::FaultPlan::lossy(7, 0.01);
        let c = MachineBuilder::new(4)
            .fault_plan(plan.clone())
            .into_config();
        assert_eq!(c.fault_plan.as_ref().map(|p| p.seed()), Some(7));
        let d = Pm2Config::new(4);
        assert!(d.fault_plan.is_none(), "perfect wire by default");
        let e = Pm2Config::test(2).with_fault_plan(plan);
        assert!(e.fault_plan.is_some());
    }

    #[test]
    fn normalizing_floors_the_documented_knobs() {
        let mut c = Pm2Config::new(2);
        c.pump_budget = 0;
        c.max_train = 0;
        c.trade_batch = 0;
        c.slot_low_watermark = 9;
        c.slot_high_watermark = 3;
        let n = c.normalized();
        assert_eq!((n.pump_budget, n.max_train, n.trade_batch), (1, 1, 1));
        assert_eq!(n.slot_high_watermark, 9, "clamped up to the low mark");
    }

    #[test]
    fn builder_defaults_match_paper_defaults() {
        let built = MachineBuilder::new(4).into_config();
        let base = Pm2Config::new(4);
        assert_eq!(built.area.slot_size, base.area.slot_size);
        assert_eq!(built.distribution, base.distribution);
        assert_eq!(built.fit, base.fit);
        assert_eq!(built.net.name, base.net.name);
        assert_eq!(built.reply_deadline, base.reply_deadline);
    }
}
