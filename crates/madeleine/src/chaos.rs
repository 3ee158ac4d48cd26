//! Seeded delay injection — the chaos fabric.
//!
//! The fabric's contract holds under any plan: every link delivers its
//! messages once and in send order until one end dies.  A [`FaultPlan`]
//! may only make a message *late*: each eligible message is given extra
//! modelled wire time with the plan's probability, charged at the
//! receiver like any other wire cost.  That is what a reliable transport
//! makes of a loss — a retransmission — so a loss rate is written
//! `with_delay(rate, retransmit)`.  Cutting links is not the plan's
//! business: a runtime partition ([`crate::Endpoint::set_partition`])
//! stalls them.
//!
//! Determinism: every link owns its own SplitMix64 stream seeded from
//! `(plan seed, src, dst)`, and one decision is drawn per eligible send in
//! send order.  Two fabrics built from the same plan and driven with the
//! same per-endpoint send sequences therefore inject byte-identical delay
//! schedules — chaos runs replay exactly on a one-worker machine.
//!
//! Scoping: self-sends are never delayed (no NIC on that path).

use std::cell::Cell;
use std::time::Duration;

/// Parts-per-million helper: probability `p` (0.0..=1.0) as ppm.
fn ppm(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * 1_000_000.0) as u32
}

/// The same SplitMix64 the test kit uses, embedded so this crate keeps
/// zero dependencies and the schedule is reproducible from a bare seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplitMix64(pub(crate) u64);

impl SplitMix64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Roll an event with probability `ppm` parts-per-million.
    fn roll(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.next_u64() % 1_000_000 < ppm as u64
    }
}

/// A seeded per-link delay schedule.  Build one with [`FaultPlan::new`],
/// set its delay with [`FaultPlan::with_delay`], and hand it to
/// `Fabric::new_chaotic`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    delay_ppm: u32,
    delay: Duration,
}

impl FaultPlan {
    /// A plan that injects nothing until [`FaultPlan::with_delay`] is set.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_ppm: 0,
            delay: Duration::from_micros(200),
        }
    }

    /// Add `extra` modelled wire time to each eligible message with
    /// probability `p`.
    pub fn with_delay(mut self, p: f64, extra: Duration) -> Self {
        self.delay_ppm = ppm(p);
        self.delay = extra;
        self
    }

    /// The plan's seed (for reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn link_rng(&self, src: usize, dst: usize) -> SplitMix64 {
        // Decorrelate links: fold (src, dst) into the seed through one
        // mix round so adjacent links draw unrelated streams.
        let mut s = SplitMix64(
            self.seed ^ ((src as u64) << 32) ^ (dst as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        SplitMix64(s.next_u64())
    }
}

/// One endpoint's view of the fault plan: a delay stream per destination,
/// drawn by the endpoint's one owner (an endpoint is not `Sync`).
#[derive(Debug)]
pub(crate) struct EndpointChaos {
    delay_ppm: u32,
    delay_ns: u64,
    links: Box<[Cell<SplitMix64>]>,
}

impl EndpointChaos {
    pub(crate) fn new(plan: &FaultPlan, src: usize, n: usize) -> Self {
        EndpointChaos {
            delay_ppm: plan.delay_ppm,
            delay_ns: plan.delay.as_nanos() as u64,
            links: (0..n)
                .map(|dst| Cell::new(plan.link_rng(src, dst)))
                .collect(),
        }
    }

    /// The extra wire nanoseconds of one eligible message on link `dst`
    /// (0: on time).  Exactly one draw per call, in send order — the
    /// determinism contract.
    pub(crate) fn delay(&self, dst: usize) -> u64 {
        let mut rng = self.links[dst].get();
        let late = rng.roll(self.delay_ppm);
        self.links[dst].set(rng);
        if late {
            self.delay_ns
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, p: f64) -> FaultPlan {
        FaultPlan::new(seed).with_delay(p, Duration::from_micros(50))
    }

    #[test]
    fn identical_seeds_give_identical_delay_streams() {
        let (a, b) = (
            EndpointChaos::new(&plan(0xDEAD_BEEF, 0.05), 0, 4),
            EndpointChaos::new(&plan(0xDEAD_BEEF, 0.05), 0, 4),
        );
        for i in 0..10_000 {
            let dst = i % 4;
            assert_eq!(a.delay(dst), b.delay(dst), "message {i}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = EndpointChaos::new(&plan(1, 0.10), 0, 2);
        let b = EndpointChaos::new(&plan(2, 0.10), 0, 2);
        let same = (0..10_000).filter(|_| a.delay(1) == b.delay(1)).count();
        assert!(same < 10_000, "independent seeds must not replay");
    }

    #[test]
    fn links_draw_independent_streams() {
        let c = EndpointChaos::new(&plan(7, 0.5), 0, 3);
        let s1: Vec<_> = (0..100).map(|_| c.delay(1)).collect();
        let s2: Vec<_> = (0..100).map(|_| c.delay(2)).collect();
        assert_ne!(s1, s2, "links 0→1 and 0→2 must be decorrelated");
    }

    #[test]
    fn delay_rate_tracks_the_knob() {
        let c = EndpointChaos::new(&plan(42, 0.01), 0, 2);
        let late = (0..100_000).filter(|_| c.delay(1) > 0).count();
        assert!((600..1400).contains(&late), "1% of 100k ≈ {late}");
        let never = EndpointChaos::new(&FaultPlan::new(42), 0, 2);
        assert!((0..1000).all(|_| never.delay(1) == 0));
    }
}
