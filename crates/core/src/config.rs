//! Machine configuration, spelled once.
//!
//! [`Pm2Config`] is the plain record: public fields, [`Pm2Config::new`] for
//! the paper-faithful defaults, [`Pm2Config::test`] for the small
//! one-worker machine tests use, and struct-update syntax for anything
//! else (`Pm2Config { slot_trade: false, ..Pm2Config::test(2) }`).
//! [`MachineBuilder`] ([`crate::Machine::builder`]) is the only fluent
//! surface — one setter per knob, none on the record itself.
//!
//! A value is a knob only while a `pm2-bench` drill, a `pm2-workload` run,
//! a `benchmark/` workload or a test assertion needs it off its default;
//! everything else is a documented constant next to the code that reads it
//! (CHANGES.md, PR 18, has the per-knob ledger).  How long an idle driver
//! parks is not a knob either: until the earliest timer it has armed, and
//! for good when it has none.

use std::time::Duration;

use isoaddr::{AreaConfig, Distribution, MapStrategy};
use isomalloc::FitPolicy;
use madeleine::NetProfile;

use crate::error::Result;
use crate::machine::Machine;

/// Top-level configuration of a PM2 machine (a simulated cluster).
#[derive(Debug, Clone, PartialEq)]
pub struct Pm2Config {
    /// Number of nodes.
    pub nodes: usize,
    /// Geometry of the iso-address area.
    pub area: AreaConfig,
    /// How slot commit/decommit maps onto the host kernel (see
    /// [`MapStrategy`]).  `Resident`, the default, makes both accounting
    /// only, so neither page-table costs nor memsets sit in a measurement:
    /// a slot is zero-filled when it changes owner (its next fresh commit),
    /// never when a migrating thread carries it, and a stray read of an
    /// uncommitted slot sees stale bytes.  `Syscall` is the faithful mmap
    /// path: the kernel drops the pages and such a read faults.  Either way
    /// a fresh commit reads zeroes and a double commit is caught.
    pub map_strategy: MapStrategy,
    /// Initial slot distribution (§4.1; the paper uses round-robin).
    pub distribution: Distribution,
    /// Capacity of each node's mmapped-slot cache (§6); 0 disables it.
    pub slot_cache: usize,
    /// Wire model for the Madeleine fabric.
    pub net: NetProfile,
    /// Block-placement policy for thread heaps (§4.3; paper: first-fit).
    pub fit: FitPolicy,
    /// Ship whole slots instead of busy blocks only (ablation A6).
    pub pack_full_slots: bool,
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
    /// Worker threads the executor multiplexes the node drivers onto.
    /// `0` (the default) sizes the pool automatically: the available
    /// cores (at least 2), never more than nodes.  `1` is the
    /// single-threaded machine: one OS thread runs every node and every
    /// green thread in ready-queue order, a function of the message history
    /// when the host is quiet.
    /// A p = 256 machine on a laptop runs on a handful of workers; nodes
    /// are state machines woken by their doorbells, not threads.
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
    /// Period of a node's gossip round — one epidemic digest pushed, and
    /// with the detector armed one silence scan of the peer table — so a
    /// death is declared within `failure_timeout` plus one period, and it
    /// must be well under `failure_timeout`.  Rounds run when the detector
    /// is armed, and without one on machines above
    /// [`crate::node::FULL_PROBE_MAX`] nodes (the trader and the balancer
    /// live off the gossiped hints there).  It is also how long a gossiped
    /// load hint stays fresh enough to save the balancer a probe.
    pub heartbeat_every: Duration,
    /// Seeded message-level fault plan for the fabric (chaos testing).
    /// `None` (the default) keeps every link a perfect wire.  When set,
    /// the machine exempts the exactly-once state-transfer tags
    /// (migration trains, spawns, thread exits, kill/shutdown, death
    /// certificates, and the §4.4 negotiation itself) and lets chaos
    /// loose on the at-least-once control plane — which retries above
    /// and deduplicates at the receiver.  Same seed ⇒ byte-identical
    /// fault schedule on one worker.
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
    /// BIP/Myrinet wire model, an auto-sized worker pool.
    pub fn new(nodes: usize) -> Self {
        Pm2Config {
            nodes,
            area: AreaConfig::default(),
            map_strategy: MapStrategy::Resident,
            distribution: Distribution::RoundRobin,
            slot_cache: 32,
            net: NetProfile::myrinet_bip(),
            fit: FitPolicy::FirstFit,
            pack_full_slots: false,
            reply_deadline: Duration::from_secs(30),
            max_rpc_payload: 1 << 20,
            pump_budget: 64,
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

    /// Small, instant-network, one-worker machine for tests: the
    /// defaults under [`MachineBuilder::test_profile`].
    pub fn test(nodes: usize) -> Self {
        MachineBuilder::new(nodes).test_profile().cfg
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
}

/// Fluent machine construction — the v1 facade's front door.
///
/// ```no_run
/// use pm2::{Machine, NetProfile};
///
/// let machine = Machine::builder(4)
///     .workers(1)
///     .net(NetProfile::instant())
///     .launch()
///     .unwrap();
/// ```
///
/// One setter per knob of [`Pm2Config`] (the record itself has none);
/// unset knobs keep the paper-faithful defaults of [`Pm2Config::new`].
/// [`MachineBuilder::launch`] consumes the builder and starts the node
/// drivers; [`MachineBuilder::into_config`] hands back the record for
/// callers that launch later ([`Machine::launch`]).
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

    /// Does nothing: every machine runs on the executor.  Kept only because
    /// the frozen `benchmark/` package calls it (`benchmark/src/harness.rs`);
    /// nothing in this workspace may, and it goes in the next PR that is
    /// allowed to edit `benchmark/`.
    pub fn threaded(self) -> Self {
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

    /// Executor worker-pool size; 0 auto-sizes to `min(cores, nodes)`, 1 is
    /// the single-threaded machine (see [`Pm2Config::workers`]).
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

    /// Period of the gossip round and, with the detector armed, of its
    /// silence scan (see [`Pm2Config::heartbeat_every`]).
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

    /// The small one-worker instant-network profile tests use: a
    /// 256-slot area, the instant wire, one executor worker, no slot cache,
    /// a 10 s reply deadline.  Overlays only those five knobs; anything
    /// else set on the builder is kept, in either call order.
    pub fn test_profile(mut self) -> Self {
        self.cfg.area = AreaConfig {
            slot_size: 64 * 1024,
            n_slots: 256,
        };
        self.cfg.net = NetProfile::instant();
        self.cfg.workers = 1;
        self.cfg.slot_cache = 0;
        self.cfg.reply_deadline = Duration::from_secs(10);
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
        assert_eq!(c.workers, 0, "auto-sized pool is the default");
        assert!(c.slot_trade, "trade-first is the default");
        assert!(c.slot_low_watermark <= c.slot_high_watermark);
        assert!(c.spill_dir.is_none(), "checkpointing is opt-in");
        assert!(c.failure_timeout.is_none(), "detection is opt-in");
        assert!(c.fault_plan.is_none(), "perfect wire by default");
    }

    /// `setter(args) => field = value, …`: the setter, applied to the
    /// defaults, gives the defaults with exactly those fields changed.  The
    /// whole-record comparison catches a setter that also touches a
    /// neighbour, and one that touches nothing.
    macro_rules! sets {
        ($setter:ident($($arg:expr),*) => $($field:ident = $val:expr),+) => {{
            let built = MachineBuilder::new(3).$setter($($arg),*).into_config();
            let mut poked = Pm2Config::new(3);
            $(poked.$field = $val;)+
            assert_ne!(poked, Pm2Config::new(3), "{}: not off its default", stringify!($setter));
            assert_eq!(built, poked, "{} sets exactly its own field", stringify!($setter));
        }};
    }

    /// The builder is the record plus one setter per knob, nothing more.
    #[test]
    fn builder_is_the_record_with_one_setter_per_knob() {
        assert_eq!(MachineBuilder::new(4).into_config(), Pm2Config::new(4));
        assert_eq!(
            MachineBuilder::new(4).test_profile().into_config(),
            Pm2Config::test(4)
        );
        // The profile overlays only its own knobs, in either call order.
        let late = MachineBuilder::new(4).pump_budget(2).test_profile();
        let early = MachineBuilder::new(4).test_profile().pump_budget(2);
        assert_eq!(late.into_config(), early.into_config());
        assert_eq!(Pm2Config::test(4).workers, 1, "tests run on one worker");

        let ms = Duration::from_millis;
        let plan = madeleine::FaultPlan::lossy(7, 0.01);
        let area = AreaConfig {
            slot_size: 16 * 1024,
            n_slots: 512,
        };
        sets!(net(NetProfile::instant()) => net = NetProfile::instant());
        sets!(area(area) => area = area);
        sets!(distribution(Distribution::BlockCyclic(8)) => distribution = Distribution::BlockCyclic(8));
        sets!(map_strategy(MapStrategy::Syscall) => map_strategy = MapStrategy::Syscall);
        sets!(fit(FitPolicy::BestFit) => fit = FitPolicy::BestFit);
        sets!(slot_cache(2) => slot_cache = 2);
        sets!(pack_full_slots(true) => pack_full_slots = true);
        sets!(reply_deadline(ms(1500)) => reply_deadline = ms(1500));
        sets!(max_rpc_payload(4096) => max_rpc_payload = 4096);
        sets!(pump_budget(7) => pump_budget = 7);
        sets!(workers(3) => workers = 3);
        sets!(max_train(5) => max_train = 5);
        sets!(slot_trade(false) => slot_trade = false);
        sets!(slot_watermarks(8, 64) => slot_low_watermark = 8, slot_high_watermark = 64);
        sets!(trade_batch(32) => trade_batch = 32);
        sets!(spill_dir("/tmp/pm2-spill") => spill_dir = Some("/tmp/pm2-spill".into()));
        sets!(checkpoint_every(ms(10)) => checkpoint_every = Some(ms(10)));
        sets!(failure_timeout(ms(200)) => failure_timeout = Some(ms(200)));
        sets!(heartbeat_every(ms(25)) => heartbeat_every = ms(25));
        sets!(fault_plan(plan.clone()) => fault_plan = Some(plan.clone()));
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
}
