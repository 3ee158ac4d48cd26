//! Property tests: the word-accelerated bitmap agrees with a naive
//! bit-vector model on every operation the negotiation protocol and the
//! slot trade use.
//!
//! Randomized via the in-tree `testkit` PRNG (seeded, deterministic)
//! instead of proptest — the sandbox builds offline.

use testkit::{cases, StdRng};

use isoaddr::{Distribution, SlotBitmap, SlotRange};

/// Naive reference: Vec<bool>.
#[derive(Clone, Debug)]
struct Model(Vec<bool>);

impl Model {
    fn new(n: usize) -> Self {
        Model(vec![false; n])
    }

    fn find_first_fit(&self, n: usize, from: usize) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let mut run = 0usize;
        for (i, &b) in self.0.iter().enumerate().skip(from) {
            if b {
                run += 1;
                if run == n {
                    return Some(i + 1 - n);
                }
            } else {
                run = 0;
            }
        }
        None
    }

    fn first_run(&self, cap: usize, from: usize) -> Option<SlotRange> {
        let start = (from..self.0.len()).find(|&i| self.0[i])?;
        let mut count = 0;
        while count < cap && start + count < self.0.len() && self.0[start + count] {
            count += 1;
        }
        (count > 0).then(|| SlotRange::new(start, count))
    }
}

#[derive(Clone, Debug)]
enum Op {
    Set(usize),
    Clear(usize),
    SetRange(usize, usize),
    ClearRange(usize, usize),
}

fn random_op(rng: &mut StdRng, n_bits: usize) -> Op {
    match rng.random_range(0..4u32) {
        0 => Op::Set(rng.random_range(0..n_bits)),
        1 => Op::Clear(rng.random_range(0..n_bits)),
        2 => {
            let s = rng.random_range(0..n_bits);
            let l = rng.random_range(1..16usize).min(n_bits - s);
            Op::SetRange(s, l)
        }
        _ => {
            let s = rng.random_range(0..n_bits);
            let l = rng.random_range(1..16usize).min(n_bits - s);
            Op::ClearRange(s, l)
        }
    }
}

#[test]
fn bitmap_matches_model() {
    cases(64, |rng| {
        let n_bits = rng.random_range(65..400usize);
        let n_ops = rng.random_range(1..120usize);
        let mut bm = SlotBitmap::new_clear(n_bits);
        let mut model = Model::new(n_bits);
        for _ in 0..n_ops {
            match random_op(rng, n_bits) {
                Op::Set(i) => {
                    bm.set(i);
                    model.0[i] = true;
                }
                Op::Clear(i) => {
                    bm.clear(i);
                    model.0[i] = false;
                }
                Op::SetRange(s, l) if l > 0 => {
                    bm.set_range(SlotRange::new(s, l));
                    for i in s..s + l {
                        model.0[i] = true;
                    }
                }
                Op::ClearRange(s, l) if l > 0 => {
                    bm.clear_range(SlotRange::new(s, l));
                    for i in s..s + l {
                        model.0[i] = false;
                    }
                }
                _ => {}
            }
        }
        // Bit-for-bit agreement.
        for i in 0..n_bits {
            assert_eq!(bm.get(i), model.0[i], "bit {i}");
        }
        assert_eq!(bm.count_ones(), model.0.iter().filter(|&&b| b).count());
        // First-fit agreement for a batch of queries.
        for _ in 0..12 {
            let n = rng.random_range(1..20usize);
            let from = rng.random_range(0..400usize);
            assert_eq!(
                bm.find_first_fit(n, from),
                model.find_first_fit(n, from),
                "find_first_fit({n}, {from})"
            );
        }
        // first_run agreement, including a cap that truncates a run.
        for _ in 0..12 {
            let cap = rng.random_range(0..80usize);
            let from = rng.random_range(0..400usize);
            assert_eq!(
                bm.first_run(cap, from),
                model.first_run(cap, from),
                "first_run({cap}, {from})"
            );
        }
        // first_set agreement.
        let naive_first = model.0.iter().position(|&b| b);
        assert_eq!(bm.first_set(0), naive_first);
        // Serialization roundtrip.
        let back = SlotBitmap::from_bytes(&bm.to_bytes()).unwrap();
        assert_eq!(back, bm);
    });
}

#[test]
fn or_is_union() {
    cases(64, |rng| {
        let n = rng.random_range(65..300usize);
        let mut ba = SlotBitmap::new_clear(n);
        let mut bb = SlotBitmap::new_clear(n);
        for _ in 0..rng.random_range(0..40usize) {
            ba.set(rng.random_range(0..n));
        }
        for _ in 0..rng.random_range(0..40usize) {
            bb.set(rng.random_range(0..n));
        }
        let mut un = ba.clone();
        un.or_with(&bb);
        for i in 0..n {
            assert_eq!(un.get(i), ba.get(i) || bb.get(i));
        }
    });
}

/// Every distribution partitions the area: each slot owned exactly once.
#[test]
fn distributions_partition() {
    cases(48, |rng| {
        let p = rng.random_range(1..9usize);
        let n = rng.random_range(1..300usize);
        let k = rng.random_range(1..32usize);
        for d in [
            Distribution::RoundRobin,
            Distribution::BlockCyclic(k),
            Distribution::Partitioned,
        ] {
            let maps: Vec<_> = (0..p).map(|node| d.initial_bitmap(node, p, n)).collect();
            for slot in 0..n {
                let owners = maps.iter().filter(|m| m.get(slot)).count();
                assert_eq!(owners, 1, "{d:?} p={p} n={n} slot={slot}");
            }
            // The union must be the full area.
            let mut total = 0;
            for m in &maps {
                total += m.count_ones();
            }
            assert_eq!(total, n);
        }
    });
}
