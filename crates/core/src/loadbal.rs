//! Generic load balancing via transparent preemptive migration — now
//! **communication-affinity aware**: rounds minimize remote-message
//! volume first and thread-count skew second.
//!
//! The paper's motivation for preemptive migration (§2): "a generic module
//! implemented outside the running application could balance the load by
//! migrating the application threads.  The threads are unaware of their
//! being migrated and keep on running irrespective of their location."
//!
//! [`start_balancer`] spawns exactly such a module: a daemon thread (on
//! node 0, excluded from migration itself) that periodically polls every
//! node's load over the fabric and ships ready threads around.
//! Application threads contain no migration code whatsoever.
//!
//! ## The affinity scoring model
//!
//! A thread-count-balanced placement can still be terrible: two threads
//! that RPC each other every quantum pay the full modelled wire for every
//! exchange when separated, and nothing when co-located (a self-send
//! skips the wire entirely).  So every thread carries a bounded top-k
//! `(peer node → msgs)` table in its descriptor (`marcel::AFF_TOP_K`
//! entries, updated on every RPC call/reply, migrating with the thread),
//! and each `LOAD_RESP` piggybacks the reporting node's hottest
//! thread→node edges.  The planner scores moving thread *t* from *src*
//! to *dest* as
//!
//! ```text
//!                 net(t, dest)         net = msgs(t → dest)        (saved)
//!   score(t) = ────────────────             − msgs(t → src)        (broken)
//!              pack_cost(t) bytes
//! ```
//!
//! — remote messages saved minus local messages broken, per byte of
//! stack + heap the migration train would have to carry
//! (`pack_cost` comes from the same occupancy hints that size real
//! trains, so **cold-heap threads move first**).  Candidates are applied
//! greedily best-score-first while a load guard keeps the move from
//! *creating* skew beyond `threshold`; whatever move budget remains goes
//! to the classic most-loaded → least-loaded walk, so pure idle-skew
//! still equalizes and plain load balancing is the tie-breaker.
//!
//! Two hysteresis brakes stop chatty threads from ping-ponging between
//! partners on both sides:
//!
//! * **decay** — each balancer probe of a node ages its threads' tables
//!   (`msgs >>= AFF_DECAY_SHIFT`), so affinity reflects *recent* traffic;
//! * **cooldown + floor** — a thread is not re-planned until
//!   `AFF_COOLDOWN` epochs after its last migration, and never for a net
//!   score below `AFF_MIN_SCORE` (a thread equally chatty toward two
//!   nodes nets ≈ 0 and stays put).
//!
//! The brakes are constants: the only comparison any drill or test makes
//! is the whole pass on or off ([`BalancerConfig::affinity`]).
//!
//! ## The plan/ack round protocol
//!
//! A round is **pipelined, not serialized** — its latency is proportional
//! to the number of (source → destination) *pairs* that trade, never to
//! the number of threads moved:
//!
//! 1. **Gather** — `LOAD_REQ` (carrying this epoch's decay shift) to
//!    every node; replies collected until all answer or the round
//!    deadline passes (a frozen node sits the round out; < 2 responders
//!    skips the round).  A peer whose *gossiped* load hint is younger
//!    than one heartbeat interval and marks it a non-source is not
//!    probed at all — its hint stands in as a destination-only entry
//!    (counted in [`BalancerHandle::probes_saved`]).
//! 2. **Plan** — affinity pass then load pass, executed against the
//!    snapshot: a move plan keyed by (src, dest) pair, each entry
//!    carrying the full tid list.
//! 3. **Command** — exactly one `MIGRATE_CMD` per planned pair, all
//!    issued back-to-back with a fresh cmd id each, no ack waits between
//!    them.  The source flags every named thread and the departure side
//!    coalesces them into one migration *train* per destination.
//! 4. **Collect** — batched `MIGRATE_CMD_ACK`s (cmd id, accepted, total)
//!    are matched by cmd id until every pending command answers or the
//!    deadline passes.  A straggler ack from an abandoned round has a
//!    stale cmd id and is ignored, never credited to a later round.
//!
//! ## The balancer's limit
//!
//! A round probes every node: one `LOAD_REQ` per peer no fresh gossip hint
//! stands in for, so the gather is O(p) on the wire in the worst case and
//! the daemon is meant for machines where that is cheap (no drill runs it
//! above 16 nodes).  On larger machines gossip runs without a detector and
//! the hints carry most of the round.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use madeleine::Wire;

use crate::api::{self, send_msg};
use crate::error::Result;
use crate::machine::Machine;
use crate::proto::{self, tag, AffinityEdge};
use crate::wait::{For, Wait};

/// Per-epoch decay applied to every thread's affinity counts by each
/// probed node (`msgs >>= shift`).
const AFF_DECAY_SHIFT: u32 = 1;
/// Epochs a freshly migrated thread sits out before the affinity pass may
/// plan it again (never-migrated threads are exempt).
const AFF_COOLDOWN: u32 = 2;
/// Minimum `remote_msgs_saved − local_msgs_broken` for an affinity move.
/// A thread equally chatty toward both sides nets ≈ 0, but strict
/// alternation still leaves a ±2 transient in any snapshot (two legs per
/// in-flight call), so the floor sits above that jitter band.
const AFF_MIN_SCORE: i64 = 4;

/// Balancer tuning.  A plain record: set fields with struct-update syntax
/// (`BalancerConfig { affinity: false, ..Default::default() }`).
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Poll period.
    pub period: Duration,
    /// A node is overloaded when its load exceeds the mean by more than
    /// this many threads; the affinity pass reuses it as the skew a
    /// co-location move is allowed to create.
    pub threshold: usize,
    /// Maximum migrations ordered per round (affinity + load combined).
    pub max_moves_per_round: usize,
    /// Hard time budget for one round (load gather + migrate commands).
    /// A node that stops answering — frozen in a long negotiation,
    /// mid-shutdown, wedged — *degrades* the round to the nodes that did
    /// answer instead of wedging the daemon until the machine-wide reply
    /// deadline.
    pub round_deadline: Duration,
    /// Run the affinity pass (false = the pre-affinity pure-load
    /// balancer, the ablation baseline of `pm2-bench -- affinity`).
    pub affinity: bool,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            period: Duration::from_millis(2),
            threshold: 1,
            max_moves_per_round: 8,
            round_deadline: Duration::from_millis(250),
            affinity: true,
        }
    }
}

/// Handle to stop the balancer daemon.
pub struct BalancerHandle {
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    thread: crate::machine::Pm2Thread,
}

/// Daemon observability: proof that rounds batch instead of serializing,
/// that the affinity pass actually plans, and that gossip hints save
/// probe round trips.
#[derive(Debug, Default)]
struct Counters {
    moves: AtomicU64,
    rounds: AtomicU64,
    cmds: AtomicU64,
    aff_moves: AtomicU64,
    probes_saved: AtomicU64,
}

impl BalancerHandle {
    /// Ask the daemon to exit and wait for it.
    pub fn stop(self, machine: &Machine) {
        self.stop.store(true, Ordering::SeqCst);
        machine.join(self.thread);
    }

    /// Total migrations the balancer has ordered (and had accepted) so far.
    pub fn moves(&self) -> u64 {
        self.counters.moves.load(Ordering::SeqCst)
    }

    /// Completed balance rounds.
    pub fn rounds(&self) -> u64 {
        self.counters.rounds.load(Ordering::SeqCst)
    }

    /// `MIGRATE_CMD` messages sent — at most one per (src, dest) pair per
    /// round, so under imbalance `cmds() < moves()` proves batching.
    pub fn cmds(&self) -> u64 {
        self.counters.cmds.load(Ordering::SeqCst)
    }

    /// Migrations planned by the *affinity* pass (subset of the commands
    /// sent; the pure-load walk accounts for the rest).
    pub fn affinity_moves(&self) -> u64 {
        self.counters.aff_moves.load(Ordering::SeqCst)
    }

    /// `LOAD_REQ` round trips skipped because a gossiped load hint
    /// younger than one heartbeat interval stood in for the probe.
    pub fn probes_saved(&self) -> u64 {
        self.counters.probes_saved.load(Ordering::SeqCst)
    }
}

/// Start the balancer daemon on node 0.
pub fn start_balancer(machine: &Machine, cfg: BalancerConfig) -> Result<BalancerHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    let stop2 = Arc::clone(&stop);
    let counters2 = Arc::clone(&counters);
    let thread = machine.spawn_on(0, move || daemon(cfg, stop2, counters2))?;
    Ok(BalancerHandle {
        stop,
        counters,
        thread,
    })
}

fn daemon(cfg: BalancerConfig, stop: Arc<AtomicBool>, counters: Arc<Counters>) {
    // The balancer itself must not be bounced around by… itself.
    api::pm2_set_migratable(false);
    // …and its probe/command exchanges must not queue behind the very
    // compute backlog it exists to spread out: run in the control lane.
    api::pm2_set_control_priority(true);
    let p = api::pm2_nodes();
    while !stop.load(Ordering::SeqCst) {
        let round_started = Instant::now();
        if let Err(e) = balance_round(p, &cfg, &counters) {
            // A node dying mid-round degrades that round, not the daemon:
            // the next round simply plans around the corpse.  Anything
            // else (a shutting-down machine dropping replies, say) exits
            // quietly.
            if !matches!(e, crate::error::Pm2Error::NodeFailed(_)) {
                break;
            }
        }
        counters.rounds.fetch_add(1, Ordering::SeqCst);
        // Sleep, parked, until the next round.
        let _ = Wait::open(For::Time, Some(round_started + cfg.period)).next();
    }
}

/// One load snapshot of a node.
struct Load {
    node: usize,
    resident: usize,
    migratable: Vec<u64>,
    /// Hottest thread→node affinity edges the node reported.
    edges: Vec<AffinityEdge>,
}

/// Fixed-point scale for the msgs-per-byte score (score arithmetic stays
/// integral and deterministic; 2^16 per byte resolves ties well below one
/// message per 64 KiB slot).
const SCORE_SCALE: i64 = 1 << 16;

/// One applicable affinity move, scored.
struct AffCandidate {
    src_i: usize,
    dest_i: usize,
    tid: u64,
    /// `net * SCORE_SCALE / pack_cost` — msgs saved per byte shipped.
    score: i64,
}

/// Plan one round's moves against the gathered snapshot (pure; no wire
/// traffic).  Returns the (src, dest) → tids plan plus how many of those
/// tids the affinity pass planned.
fn plan_moves(
    loads: &mut [Load],
    cfg: &BalancerConfig,
) -> (HashMap<(usize, usize), Vec<u64>>, usize) {
    let mut budget = cfg.max_moves_per_round;
    let mut plan: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    let mut aff_moves = 0usize;

    // -- Affinity pass: co-locate chatty threads, cheapest trains first.
    if cfg.affinity {
        let mut cands: Vec<AffCandidate> = Vec::new();
        for src_i in 0..loads.len() {
            for e in &loads[src_i].edges {
                // Hysteresis: freshly moved threads sit out the cooldown.
                if e.epochs_since_move != u32::MAX && e.epochs_since_move < AFF_COOLDOWN {
                    continue;
                }
                if !loads[src_i].migratable.contains(&e.tid) {
                    continue;
                }
                let local: i64 = e
                    .peers
                    .iter()
                    .filter(|&&(n, _)| n as usize == loads[src_i].node)
                    .map(|&(_, m)| m as i64)
                    .sum();
                // Best destination among the nodes visible this round.
                let best = loads
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != src_i)
                    .filter_map(|(i, l)| {
                        let msgs: i64 = e
                            .peers
                            .iter()
                            .filter(|&&(n, _)| n as usize == l.node)
                            .map(|&(_, m)| m as i64)
                            .sum();
                        (msgs > 0).then_some((i, msgs))
                    })
                    .max_by_key(|&(_, msgs)| msgs);
                let Some((dest_i, remote)) = best else {
                    continue;
                };
                let net = remote - local;
                // Hysteresis floor: an ≈ 0 net (equally chatty toward
                // both sides) never justifies a train.
                if net < AFF_MIN_SCORE {
                    continue;
                }
                let cost = (e.pack_cost as i64).max(1);
                cands.push(AffCandidate {
                    src_i,
                    dest_i,
                    tid: e.tid,
                    score: net * SCORE_SCALE / cost,
                });
            }
        }
        // Best msgs-saved-per-byte first; tid tie-break keeps the plan
        // deterministic for a given snapshot.
        cands.sort_by_key(|c| (std::cmp::Reverse(c.score), c.tid));
        // Anti-swap rule: within one round, never drain a node others are
        // being packed into, and never pack into a node that is draining.
        // Without it two mutually-chatty threads swap homes in the same
        // round and stay remote forever; with it the higher-scoring move
        // wins and the loser re-plans next round against the new layout.
        let mut packing_into: HashSet<usize> = HashSet::new();
        let mut draining: HashSet<usize> = HashSet::new();
        for c in cands {
            if budget == 0 {
                break;
            }
            // The snapshot moved under earlier candidates: re-check.
            if !loads[c.src_i].migratable.contains(&c.tid) {
                continue;
            }
            let (src, dest) = (loads[c.src_i].node, loads[c.dest_i].node);
            if packing_into.contains(&src) || draining.contains(&dest) {
                continue;
            }
            // Load guard: co-location may *tolerate* skew up to the
            // threshold but must not create more — that is the load
            // pass's undo condition, and planning both directions in one
            // round would thrash.
            if loads[c.dest_i].resident + 1 > loads[c.src_i].resident + cfg.threshold {
                continue;
            }
            loads[c.src_i].migratable.retain(|&t| t != c.tid);
            plan.entry((src, dest)).or_default().push(c.tid);
            loads[c.src_i].resident -= 1;
            loads[c.dest_i].resident += 1;
            packing_into.insert(dest);
            draining.insert(src);
            budget -= 1;
            aff_moves += 1;
        }
    }

    // -- Load pass: the classic greedy most-loaded → least-loaded walk
    // on whatever budget remains, so pure idle-skew still equalizes.
    let total: usize = loads.iter().map(|l| l.resident).sum();
    let mean = total / loads.len();
    let mut order: Vec<usize> = (0..loads.len()).collect();
    loop {
        if budget == 0 {
            break;
        }
        order.sort_by_key(|&i| loads[i].resident);
        let (min_i, max_i) = (order[0], order[order.len() - 1]);
        let gap_over = loads[max_i].resident.saturating_sub(mean);
        let gap = loads[max_i].resident.saturating_sub(loads[min_i].resident);
        if gap_over <= cfg.threshold || gap < 2 {
            break;
        }
        let dest = loads[min_i].node;
        let Some(tid) = loads[max_i].migratable.pop() else {
            break;
        };
        let src_node = loads[max_i].node;
        plan.entry((src_node, dest)).or_default().push(tid);
        loads[max_i].resident -= 1;
        loads[min_i].resident += 1;
        budget -= 1;
    }
    (plan, aff_moves)
}

fn balance_round(p: usize, cfg: &BalancerConfig, counters: &Counters) -> Result<()> {
    let deadline = Instant::now() + cfg.round_deadline;
    // Gather loads (the daemon itself counts towards node 0's load; the
    // threshold absorbs it).  A probe refused with a death certificate
    // drops that node from the round — corpses have no load to balance.
    // Probe-saving: a peer whose gossiped load entry is younger than one
    // heartbeat interval and marks it a non-source (at or below the mean
    // of the fresh hints plus the threshold) contributes its hint as a
    // destination-only snapshot entry instead of paying a round trip.
    // Self is always probed — the reply is a local self-send anyway.
    let fresh: Vec<(usize, Option<u32>)> = crate::node::with_ctx(|c| {
        let hint = |peer| (peer != c.node).then(|| c.fresh_load_hint(peer)).flatten();
        (0..p).map(|peer| (peer, hint(peer))).collect()
    });
    let known: Vec<u32> = fresh.iter().filter_map(|&(_, h)| h).collect();
    let hint_mean = if known.is_empty() {
        0
    } else {
        known.iter().map(|&h| h as usize).sum::<usize>() / known.len()
    };
    let mut loads: Vec<Load> = Vec::with_capacity(p);
    let mut to_probe = Vec::new();
    let probe = proto::LoadReq {
        decay_shift: if cfg.affinity { AFF_DECAY_SHIFT } else { 0 },
    };
    for &(peer, hint) in &fresh {
        match hint {
            Some(h) if (h as usize) <= hint_mean + cfg.threshold => {
                loads.push(Load {
                    node: peer,
                    resident: h as usize,
                    // From a gossip hint, not a probe: usable as a
                    // destination, never as a source (no tids, no edges).
                    migratable: Vec::new(),
                    edges: Vec::new(),
                });
                counters.probes_saved.fetch_add(1, Ordering::SeqCst);
            }
            _ => to_probe.push(peer),
        }
    }
    // Collect until every probed node answered or the round deadline
    // passes (the error ignored here); a node that answers late, never, or
    // dies simply sits this round out.  (The dispatch layer absorbed each
    // reply's piggybacked free-slot wealth into the trader's hint table:
    // the balancer's probes double as the slot economy's freshness source.)
    let ask = |peer| send_msg(peer, &probe);
    let _ = api::gather(tag::LOAD_RESP, deadline, to_probe, ask, |m| {
        if let Some(resp) = proto::LoadResp::decode_vec(&m.payload) {
            loads.push(Load {
                node: m.src,
                resident: resp.resident as usize,
                migratable: resp.tids,
                edges: resp.aff,
            });
        }
        Ok(())
    });
    if loads.len() < 2 {
        return Ok(()); // Nobody to trade with this round.
    }

    // Plan against the snapshot only — no wire traffic yet.  The plan is
    // keyed by (src, dest) pair; moving k threads between a pair costs
    // one entry.
    let (plan, aff_moves) = plan_moves(&mut loads, cfg);
    if plan.is_empty() {
        return Ok(());
    }
    counters
        .aff_moves
        .fetch_add(aff_moves as u64, Ordering::SeqCst);

    // Command: every source concurrently, one MIGRATE_CMD per pair with
    // the full tid list — no per-thread (or even per-pair) RTT gaps.
    let acks = Wait::for_reply(tag::MIGRATE_CMD_ACK, None, None, deadline);
    let mut pending: HashMap<u64, usize> = HashMap::new(); // cmd id → tids sent
    for ((src, dest), tids) in plan {
        let cmd = proto::MigrateCmd {
            cmd_id: crate::node::with_ctx(|c| c.next_call_id()),
            dest: dest as u32,
            tids,
        };
        // A source that died between gather and command fails its *pair*,
        // never the round (a dead *destination* is the source's problem:
        // its departure handler refuses the move and acks zero).
        if send_msg(src, &cmd).is_err() {
            continue;
        }
        counters.cmds.fetch_add(1, Ordering::SeqCst);
        pending.insert(cmd.cmd_id, cmd.tids.len());
    }

    // Collect: batched acks matched by cmd id until the deadline.  Ids
    // are node-unique and never reused, so a late ack to an abandoned
    // round can never be credited to this one.
    while !pending.is_empty() {
        let Some(m) = acks.next().transpose() else {
            break; // Deadline: the unanswered sources degrade the round.
        };
        // (An error is a death: a dead source's ack is one the deadline
        // gives up on.)
        let Some(ack) = (m.ok()).and_then(|m| proto::MigrateAck::decode_vec(&m.payload)) else {
            continue;
        };
        if pending.remove(&ack.cmd_id).is_some() {
            counters
                .moves
                .fetch_add(ack.accepted as u64, Ordering::SeqCst);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- white-box planner tests ----------------------------------------

    fn load(node: usize, resident: usize, migratable: Vec<u64>, edges: Vec<AffinityEdge>) -> Load {
        Load {
            node,
            resident,
            migratable,
            edges,
        }
    }

    fn edge(tid: u64, pack_cost: u32, epochs: u32, peers: Vec<(u32, u32)>) -> AffinityEdge {
        AffinityEdge {
            tid,
            pack_cost,
            epochs_since_move: epochs,
            peers,
        }
    }

    #[test]
    fn planner_colocates_a_chatty_thread() {
        // Thread 7 on node 0 talks to node 1 (40 msgs) and barely locally
        // (2): the affinity pass ships it even though loads are equal.
        let mut loads = vec![
            load(
                0,
                3,
                vec![7],
                vec![edge(7, 4096, u32::MAX, vec![(1, 40), (0, 2)])],
            ),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert_eq!(plan.get(&(0, 1)), Some(&vec![7]));
        assert_eq!(aff, 1);
    }

    #[test]
    fn planner_cold_heap_beats_hot_heap_when_equally_chatty() {
        // Two equally chatty threads, one with a 100× cheaper train; a
        // budget of 1 must pick the cold-heap one.
        let cfg = BalancerConfig {
            max_moves_per_round: 1,
            ..Default::default()
        };
        let mut loads = vec![
            load(
                0,
                4,
                vec![7, 8],
                vec![
                    edge(7, 200_000, u32::MAX, vec![(1, 40)]), // hot heap
                    edge(8, 2_000, u32::MAX, vec![(1, 40)]),   // cold heap
                ],
            ),
            load(1, 4, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &cfg);
        assert_eq!(plan.get(&(0, 1)), Some(&vec![8]), "cold heap ships first");
        assert_eq!(aff, 1);
    }

    #[test]
    fn planner_cooldown_blocks_fresh_movers() {
        // Thread 7 migrated last epoch: under the default 2-epoch
        // cooldown it must sit this round out, however chatty.
        let mut loads = vec![
            load(0, 3, vec![7], vec![edge(7, 4096, 1, vec![(1, 40)])]),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(aff, 0);
        // Once the cooldown has elapsed the same edge plans.
        let mut loads = vec![
            load(0, 3, vec![7], vec![edge(7, 4096, 2, vec![(1, 40)])]),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert_eq!(plan.get(&(0, 1)), Some(&vec![7]));
        assert_eq!(aff, 1);
    }

    #[test]
    fn planner_min_score_keeps_symmetric_threads_put() {
        // Equally chatty toward home and the remote side: net = 0 < the
        // min score, so no move — the anti-ping-pong floor.
        let mut loads = vec![
            load(
                0,
                3,
                vec![7],
                vec![edge(7, 4096, u32::MAX, vec![(1, 25), (0, 25)])],
            ),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(aff, 0);
        // The floor also absorbs the ±2 snapshot jitter a strictly
        // alternating caller leaves (two legs per in-flight call).
        let mut loads = vec![
            load(
                0,
                3,
                vec![7],
                vec![edge(7, 4096, u32::MAX, vec![(1, 27), (0, 25)])],
            ),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(aff, 0);
    }

    #[test]
    fn planner_anti_swap_defers_the_weaker_of_a_mutual_pair() {
        // Thread 7 on node 0 and thread 9 on node 1, each chatty toward
        // the other's home: applying both would swap them past each other
        // and leave every hop remote.  One round moves only the stronger
        // candidate; the loser re-plans next round against the new layout.
        let mut loads = vec![
            load(0, 3, vec![7], vec![edge(7, 4096, u32::MAX, vec![(1, 40)])]),
            load(1, 3, vec![9], vec![edge(9, 4096, u32::MAX, vec![(0, 30)])]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert_eq!(aff, 1, "only one side of the pair may move: {plan:?}");
        assert_eq!(plan.get(&(0, 1)), Some(&vec![7]), "the stronger edge wins");
        assert_eq!(plan.get(&(1, 0)), None);
    }

    #[test]
    fn planner_load_guard_caps_colocation_skew() {
        // Destination already over the source by the threshold: the
        // affinity move must yield to the load balance.
        let mut loads = vec![
            load(0, 2, vec![7], vec![edge(7, 4096, u32::MAX, vec![(1, 40)])]),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(aff, 0);
    }

    #[test]
    fn planner_pure_load_walk_still_equalizes() {
        // No edges at all (idle-skew workload): the classic walk moves
        // threads from the loaded node to the idle one.
        let mut loads = vec![
            load(0, 8, vec![1, 2, 3, 4, 5, 6], vec![]),
            load(1, 0, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &BalancerConfig::default());
        assert_eq!(aff, 0);
        let moved = plan.get(&(0, 1)).map(|v| v.len()).unwrap_or(0);
        assert!(moved >= 3, "load walk equalizes: {plan:?}");
    }

    #[test]
    fn planner_affinity_off_is_the_pure_load_baseline() {
        let cfg = BalancerConfig {
            affinity: false,
            ..Default::default()
        };
        let mut loads = vec![
            load(0, 3, vec![7], vec![edge(7, 4096, u32::MAX, vec![(1, 40)])]),
            load(1, 3, vec![], vec![]),
        ];
        let (plan, aff) = plan_moves(&mut loads, &cfg);
        assert!(plan.is_empty(), "no affinity pass, no skew: {plan:?}");
        assert_eq!(aff, 0);
    }
}
