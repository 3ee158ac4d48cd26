//! Token ring by migration: a single thread carries a token (in its own
//! stack!) around every node of the machine, measuring per-hop migration
//! latency — a miniature of the paper's §5 ping-pong experiment.
//!
//! ```sh
//! cargo run --release --example token_ring
//! ```

use std::time::Instant;

use pm2::api::*;
use pm2::{pm2_printf, Machine, NetProfile};

const LAPS: usize = 50;

fn main() {
    for profile in [NetProfile::myrinet_bip(), NetProfile::instant()] {
        let nodes = 4;
        let mut machine = Machine::builder(nodes).net(profile).launch().unwrap();

        let (hops, total_us) = machine
            .run_on(0, move || {
                // The token is plain stack data; it follows the thread.
                let mut token: u64 = 0;
                let t0 = Instant::now();
                let mut hops = 0usize;
                for _ in 0..LAPS {
                    for next in (0..nodes).cycle().skip(1).take(nodes) {
                        pm2_migrate(next % nodes).unwrap();
                        token = token.wrapping_add(pm2_self() as u64 + 1);
                        hops += 1;
                    }
                }
                let dt = t0.elapsed();
                pm2_printf!(
                    "token value {} after {} hops ({} laps of {} nodes)",
                    token,
                    hops,
                    LAPS,
                    nodes
                );
                (hops, dt.as_micros() as u64)
            })
            .unwrap();

        println!(
            "[{:>12}] {} hops in {} µs  →  {:.1} µs per migration \
             (paper: < 75 µs on BIP/Myrinet; Active Threads: 150 µs)",
            profile.name,
            hops,
            total_us,
            total_us as f64 / hops as f64
        );
        machine.shutdown();
    }
    println!("token_ring: OK");
}
