//! `rpc_fanin`: typed LRPC under fan-in.  Eight green clients on node 0
//! of a p = 2 machine each call an `Echo` service on node 1 in a closed
//! loop, with seeded payloads of 32 B, 256 B and 2 KiB; an op is one
//! `pm2_rpc_call` round trip.  No migration and no iso heap: the service
//! layer's encode/decode, the handler spawn on Marcel, and the reply wait
//! do the work.  Eight waiters share one scheduler on purpose — a single
//! client would hide what the others' poll + yield waits cost each reply.

use std::sync::Arc;

use pm2::api::pm2_rpc_call;
use pm2::Service;

use crate::harness::{gate, launch, Cycle, Params};
use crate::rng::Rng;
use crate::sysinfo::now_ns;

/// Warm-up calls before the window opens, all clients together.
pub const WARMUP_OPS: u64 = 45_000;

pub const SPANS: &[(&str, f64)] = &[
    ("pm2.service.request_leg_us", 1e3),
    ("pm2.service.reply_leg_us", 1e3),
];

pub const CLIENTS: usize = 8;

/// Node driver threads (see [`crate::harness::drivers`]).
pub const DRIVERS: usize = 1;
pub const PAYLOAD_SIZES: [usize; 3] = [32, 256, 2048];
/// Calls before a client's size schedule repeats.
const SCHEDULE: usize = 3 * 1024;

/// Request: call id, then the body.  Response: when the handler started
/// on the [`now_ns`] clock (0 when stamping is off), the call id, and the
/// body as received.
pub struct Echo {
    /// Stamp handler start times (traced runs only, so an untraced run
    /// reads no clock the workload does not need).
    pub stamp: bool,
}

impl Service for Echo {
    const NAME: &'static str = "bench.echo";
    type Req = (u64, Vec<u8>);
    type Resp = (u64, u64, Vec<u8>);
    fn handle(&self, (id, body): Self::Req) -> Self::Resp {
        let started = if self.stamp { now_ns() } else { 0 };
        (started, id, body)
    }
}

/// One client's inputs, as the seed decides them.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientPlan {
    /// One body per payload size; a call sends a copy with its sequence
    /// number written over the first 8 bytes.
    pub templates: [Vec<u8>; 3],
    /// Which template each call uses.  Every client sends each size
    /// equally often — in its own order — so the byte volume of a run
    /// does not depend on the seed.
    pub schedule: Vec<u8>,
}

pub fn inputs(seed: u64) -> Vec<ClientPlan> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::stream(seed, 0x7270_0000 + c as u64);
            let templates = PAYLOAD_SIZES.map(|n| (0..n).map(|_| rng.next_u64() as u8).collect());
            let mut schedule: Vec<u8> = (0..SCHEDULE).map(|i| (i % 3) as u8).collect();
            rng.shuffle(&mut schedule);
            ClientPlan {
                templates,
                schedule,
            }
        })
        .collect()
}

impl ClientPlan {
    /// The body of this client's call number `seq`.
    pub fn body(&self, seq: u64) -> Vec<u8> {
        let mut b = self.templates[self.schedule[seq as usize % SCHEDULE] as usize].clone();
        b[..8].copy_from_slice(&seq.to_le_bytes());
        b
    }
}

fn call_id(client: usize, seq: u64) -> u64 {
    (client as u64) << 48 | seq
}

/// The response is the request: same call id, same bytes.
pub fn echo_ok(sent_id: u64, sent: &[u8], got_id: u64, got: &[u8]) -> bool {
    sent_id == got_id && sent == got
}

fn client(c: usize, plans: Arc<Vec<ClientPlan>>, g: crate::harness::Gate, p: Params) {
    let plan = &plans[c];
    let mut rec = p.recorder(CLIENTS);
    let mut seq = 0u64;
    // `Ok((handler_start, correct))`.
    let mut call = || {
        let body = plan.body(seq);
        let id = call_id(c, seq);
        seq += 1;
        // The runtime takes the request by value; the copy kept for the
        // comparison is made outside the timed call.
        let sent = body.clone();
        let t = now_ns();
        let r = pm2_rpc_call::<Echo>(1, (id, body));
        let end = now_ns();
        (
            t,
            end,
            r.map(|(started, rid, rbody)| (started, echo_ok(id, &sent, rid, &rbody))),
        )
    };
    for _ in 0..WARMUP_OPS / CLIENTS as u64 {
        let _ = call();
    }
    rec.begin(g.ready_and_wait());
    while now_ns() < rec.t_end {
        let traced = rec.sample();
        match call() {
            (t, end, Ok((started, true))) => {
                rec.ok(t, end);
                if traced {
                    rec.trace_op(&[t, started.clamp(t, end), end], &[1, 2]);
                }
            }
            (_, _, Ok((_, false))) => rec.bad(),
            (_, _, Err(_)) => rec.fail(),
        }
    }
    g.finish(rec);
}

pub fn cycle(p: &Params) -> Result<Cycle, String> {
    let mut m = launch(2, DRIVERS)?;
    m.register(Echo { stamp: p.trace });
    let (g, host) = gate(CLIENTS);
    let plans = Arc::new(inputs(p.seed));
    let mut threads = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let (plans, g, p) = (Arc::clone(&plans), g.clone(), *p);
        threads.push(
            m.spawn_on(0, move || client(c, plans, g, p))
                .map_err(|e| format!("spawn client: {e}"))?,
        );
    }
    // Only the clients hold channel ends now: one that dies is noticed.
    drop(g);
    let window = host.run(&m, p)?;
    let mut checks_ok = true;
    for t in threads {
        checks_ok &= !m.join(t).panicked;
    }
    m.shutdown();
    Ok(Cycle { window, checks_ok })
}
