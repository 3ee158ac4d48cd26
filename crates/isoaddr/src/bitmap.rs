//! Per-node slot bitmaps (paper §4.2).
//!
//! "Each node keeps track of its private slots by means of a private bitmap.
//! Each bit in this bitmap corresponds to a slot in the iso-address zone. …
//! the bits are set to 1 if they correspond to slots owned by the local
//! node" — a set bit therefore means *owned by this node and free*; a clear
//! bit means the slot belongs to another node or to some thread.
//!
//! The bitmap supports the operations the negotiation protocol needs
//! (§4.4): serialize/deserialize for shipping over the network, bitwise OR
//! across all nodes' bitmaps, and first-fit search for `n` contiguous set
//! bits.  Every slot choice is lowest-first: a trade's loan takes the
//! lowest runs ([`SlotBitmap::first_run`]), as first-fit does.

use crate::slots::SlotRange;

const WORD_BITS: usize = 64;

/// A fixed-size bitmap over slot indices.
#[derive(Clone, PartialEq, Eq)]
pub struct SlotBitmap {
    words: Vec<u64>,
    n_bits: usize,
}

impl std::fmt::Debug for SlotBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SlotBitmap({} bits, {} set)",
            self.n_bits,
            self.count_ones()
        )
    }
}

impl SlotBitmap {
    /// Create a bitmap of `n_bits` bits, all clear.
    pub fn new_clear(n_bits: usize) -> Self {
        SlotBitmap {
            words: vec![0; n_bits.div_ceil(WORD_BITS)],
            n_bits,
        }
    }

    /// Create a bitmap of `n_bits` bits, all set.
    pub fn new_set(n_bits: usize) -> Self {
        let mut bm = SlotBitmap {
            words: vec![!0u64; n_bits.div_ceil(WORD_BITS)],
            n_bits,
        };
        bm.clear_tail();
        bm
    }

    /// Zero the padding bits beyond `n_bits` in the last word.
    fn clear_tail(&mut self) {
        let rem = self.n_bits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of bits in the bitmap.
    pub fn len(&self) -> usize {
        self.n_bits
    }

    /// True if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.n_bits == 0
    }

    /// Value of bit `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.n_bits);
        self.words[idx / WORD_BITS] & (1u64 << (idx % WORD_BITS)) != 0
    }

    /// Set bit `idx`.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        debug_assert!(idx < self.n_bits);
        self.words[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
    }

    /// Clear bit `idx`.
    #[inline]
    pub fn clear(&mut self, idx: usize) {
        debug_assert!(idx < self.n_bits);
        self.words[idx / WORD_BITS] &= !(1u64 << (idx % WORD_BITS));
    }

    /// Set every bit in `range`.
    pub fn set_range(&mut self, range: SlotRange) {
        for i in range.iter() {
            self.set(i);
        }
    }

    /// Clear every bit in `range`.
    pub fn clear_range(&mut self, range: SlotRange) {
        for i in range.iter() {
            self.clear(i);
        }
    }

    /// Are all bits of `range` set?
    pub fn all_set(&self, range: SlotRange) -> bool {
        range.iter().all(|i| self.get(i))
    }

    /// Are all bits of `range` clear?
    pub fn all_clear(&self, range: SlotRange) -> bool {
        range.iter().all(|i| !self.get(i))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// First-fit search for `n` contiguous set bits starting the scan at
    /// `from` (wrapping is *not* performed; the negotiation initiator scans
    /// from 0).  Returns the index of the first bit of the run.
    ///
    /// Word-parallel: per word the search does O(log n) shift-AND steps for
    /// fully-contained runs plus O(1) prefix/suffix run accounting for runs
    /// crossing word boundaries.  The worst case the negotiation hits — a
    /// paper-scale 57344-bit round-robin bitmap with *no* 2-run at all —
    /// scans in ~1 µs instead of the ~75 µs of a naive bit loop.
    pub fn find_first_fit(&self, n: usize, from: usize) -> Option<usize> {
        if n == 0 || self.n_bits == 0 || from >= self.n_bits {
            return None;
        }
        if n == 1 {
            return self.first_set(from);
        }
        // Length of the run of set bits ending at the current word boundary.
        let mut run: usize = 0;
        let first_word = from / WORD_BITS;
        for wi in first_word..self.words.len() {
            let mut w = self.words[wi];
            if wi == first_word {
                let bit = from % WORD_BITS;
                w &= !0u64 << bit;
            }
            let base = wi * WORD_BITS;
            if w == 0 {
                run = 0;
                continue;
            }
            // (1) A run carried in from previous words completed by this
            //     word's trailing ones (starts earliest by construction).
            if run > 0 {
                let t = w.trailing_ones() as usize;
                if run + t >= n {
                    let start = base - run;
                    return (start + n <= self.n_bits).then_some(start);
                }
                if t == WORD_BITS {
                    run += WORD_BITS;
                    continue;
                }
                // Otherwise the carried run is broken inside this word and
                // the in-word / suffix handling below takes over.
            }
            if w == !0u64 {
                // Fresh all-ones word: the run starts here.
                run = WORD_BITS;
                if run >= n {
                    let start = base;
                    return (start + n <= self.n_bits).then_some(start);
                }
                continue;
            }
            // (2) Runs fully inside this word: shift-AND with doubling.
            if n <= WORD_BITS {
                let mut x = w;
                let mut have = 1usize;
                while have < n && x != 0 {
                    let s = (n - have).min(have);
                    x &= x >> s;
                    have += s;
                }
                if x != 0 {
                    let start = base + x.trailing_zeros() as usize;
                    if start + n <= self.n_bits {
                        return Some(start);
                    }
                    return None; // only tail-escaping candidates remain
                }
            }
            // (3) A suffix run may continue into the next word.
            run = w.leading_ones() as usize;
        }
        None
    }

    /// The lowest maximal run of set bits at or after `from`, truncated to
    /// at most `cap` bits (keeping the run's *low* end).  This is the
    /// lender's range-transfer primitive: it picks the slots first-fit
    /// would, so the slots that travel between nodes are the low ones
    /// already touched and the top of the area stays untouched.  A run that
    /// straddles `from` counts from `from`; feeding each result's `end()`
    /// back in as the next `from` walks the runs upward in one scan.
    pub fn first_run(&self, cap: usize, from: usize) -> Option<SlotRange> {
        if cap == 0 {
            return None;
        }
        let start = self.first_set(from)?;
        let limit = self.n_bits.min(start.saturating_add(cap));
        let mut end = start;
        // A word at a time: the run ends at the first clear bit.
        while end < limit {
            let bit = end % WORD_BITS;
            let ones = (self.words[end / WORD_BITS] >> bit).trailing_ones() as usize;
            end += ones;
            if ones < WORD_BITS - bit {
                break;
            }
        }
        Some(SlotRange::new(start, end.min(limit) - start))
    }

    /// Index of the first set bit at or after `from`.
    pub fn first_set(&self, from: usize) -> Option<usize> {
        if from >= self.n_bits {
            return None;
        }
        let mut w = from / WORD_BITS;
        let mut mask = !0u64 << (from % WORD_BITS);
        while w < self.words.len() {
            let bits = self.words[w] & mask;
            if bits != 0 {
                let idx = w * WORD_BITS + bits.trailing_zeros() as usize;
                return (idx < self.n_bits).then_some(idx);
            }
            mask = !0u64;
            w += 1;
        }
        None
    }

    /// In-place bitwise OR with another bitmap of identical length.
    ///
    /// This is step (c) of the negotiation protocol: "Compute a global or
    /// taking all bitmaps as operands".
    pub fn or_with(&mut self, other: &SlotBitmap) {
        assert_eq!(self.n_bits, other.n_bits, "bitmap size mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// In-place bitwise AND (used by audits to detect ownership overlap).
    pub fn and_with(&mut self, other: &SlotBitmap) {
        assert_eq!(self.n_bits, other.n_bits, "bitmap size mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
        }
    }

    /// True if the two bitmaps share at least one set bit.
    pub fn intersects(&self, other: &SlotBitmap) -> bool {
        assert_eq!(self.n_bits, other.n_bits, "bitmap size mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Iterate over the indices of the set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * WORD_BITS;
            let n_bits = self.n_bits;
            let mut word = w;
            std::iter::from_fn(move || {
                while word != 0 {
                    let tz = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let idx = base + tz;
                    if idx < n_bits {
                        return Some(idx);
                    }
                }
                None
            })
        })
    }

    /// Serialize for shipping in a negotiation message (little-endian words).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.write_bytes(&mut out);
        out
    }

    /// Serialized size in bytes (what [`Self::write_bytes`] appends).
    pub fn wire_len(&self) -> usize {
        8 + self.words.len() * 8
    }

    /// Append the serialized form to `out` (same framing as
    /// [`Self::to_bytes`], but into a caller-supplied — e.g. pooled —
    /// buffer).
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        out.extend_from_slice(&(self.n_bits as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Deserialize a bitmap previously produced by [`Self::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        if buf.len() < 8 {
            return None;
        }
        let n_bits = u64::from_le_bytes(buf[0..8].try_into().ok()?) as usize;
        let n_words = n_bits.div_ceil(WORD_BITS);
        if buf.len() != 8 + n_words * 8 {
            return None;
        }
        let mut words = Vec::with_capacity(n_words);
        for i in 0..n_words {
            let off = 8 + i * 8;
            words.push(u64::from_le_bytes(buf[off..off + 8].try_into().ok()?));
        }
        Some(SlotBitmap { words, n_bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bm = SlotBitmap::new_clear(130);
        assert_eq!(bm.count_ones(), 0);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(128));
        assert_eq!(bm.count_ones(), 4);
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn new_set_has_exact_popcount() {
        for n in [1usize, 63, 64, 65, 127, 128, 129, 1000] {
            let bm = SlotBitmap::new_set(n);
            assert_eq!(bm.count_ones(), n, "n={n}");
        }
    }

    #[test]
    fn range_ops() {
        let mut bm = SlotBitmap::new_clear(256);
        bm.set_range(SlotRange::new(60, 10));
        assert!(bm.all_set(SlotRange::new(60, 10)));
        assert!(!bm.get(59) && !bm.get(70));
        bm.clear_range(SlotRange::new(62, 3));
        assert!(bm.all_clear(SlotRange::new(62, 3)));
        assert!(bm.get(61) && bm.get(65));
    }

    #[test]
    fn first_fit_simple() {
        let mut bm = SlotBitmap::new_clear(200);
        bm.set_range(SlotRange::new(10, 3));
        bm.set_range(SlotRange::new(50, 8));
        assert_eq!(bm.find_first_fit(1, 0), Some(10));
        assert_eq!(bm.find_first_fit(3, 0), Some(10));
        assert_eq!(bm.find_first_fit(4, 0), Some(50));
        assert_eq!(bm.find_first_fit(8, 0), Some(50));
        assert_eq!(bm.find_first_fit(9, 0), None);
        assert_eq!(bm.find_first_fit(2, 12), Some(50));
    }

    #[test]
    fn first_fit_spanning_words() {
        let mut bm = SlotBitmap::new_clear(300);
        bm.set_range(SlotRange::new(62, 70)); // crosses two word boundaries
        assert_eq!(bm.find_first_fit(70, 0), Some(62));
        assert_eq!(bm.find_first_fit(71, 0), None);
    }

    #[test]
    fn first_fit_full_bitmap() {
        let bm = SlotBitmap::new_set(1024);
        assert_eq!(bm.find_first_fit(1024, 0), Some(0));
        assert_eq!(bm.find_first_fit(1025, 0), None);
        assert_eq!(bm.find_first_fit(100, 512), Some(512));
    }

    #[test]
    fn first_run_takes_the_lowest_run() {
        let mut bm = SlotBitmap::new_clear(300);
        assert_eq!(bm.first_run(4, 0), None, "empty bitmap");
        bm.set_range(SlotRange::new(10, 5));
        bm.set_range(SlotRange::new(120, 10)); // crosses a word boundary
        assert_eq!(bm.first_run(0, 0), None, "cap 0");
        assert_eq!(bm.first_run(100, 0), Some(SlotRange::new(10, 5)));
        assert_eq!(
            bm.first_run(3, 0),
            Some(SlotRange::new(10, 3)),
            "cap keeps the run's low end"
        );
        assert_eq!(
            bm.first_run(100, 15),
            Some(SlotRange::new(120, 10)),
            "from skips the run below it"
        );
        assert_eq!(bm.first_run(100, 125), Some(SlotRange::new(125, 5)));
        assert_eq!(bm.first_run(100, 130), None);
        bm.set_range(SlotRange::new(250, 50)); // runs to the last bit
        assert_eq!(bm.first_run(100, 130), Some(SlotRange::new(250, 50)));
        let full = SlotBitmap::new_set(300);
        assert_eq!(full.first_run(1000, 0), Some(SlotRange::new(0, 300)));
        assert_eq!(full.first_run(70, 60), Some(SlotRange::new(60, 70)));
    }

    #[test]
    fn first_set_scans_words() {
        let mut bm = SlotBitmap::new_clear(300);
        bm.set(257);
        assert_eq!(bm.first_set(0), Some(257));
        assert_eq!(bm.first_set(257), Some(257));
        assert_eq!(bm.first_set(258), None);
    }

    #[test]
    fn or_and_intersect() {
        let mut a = SlotBitmap::new_clear(100);
        let mut b = SlotBitmap::new_clear(100);
        a.set(3);
        b.set(97);
        assert!(!a.intersects(&b));
        a.or_with(&b);
        assert!(a.get(3) && a.get(97));
        assert!(a.intersects(&b));
        a.and_with(&b);
        assert!(!a.get(3) && a.get(97));
    }

    #[test]
    fn serde_roundtrip() {
        let mut bm = SlotBitmap::new_clear(777);
        for i in (0..777).step_by(13) {
            bm.set(i);
        }
        let bytes = bm.to_bytes();
        let back = SlotBitmap::from_bytes(&bytes).unwrap();
        assert_eq!(bm, back);
    }

    #[test]
    fn serde_rejects_garbage() {
        assert!(SlotBitmap::from_bytes(&[]).is_none());
        assert!(SlotBitmap::from_bytes(&[1, 2, 3]).is_none());
        let mut bytes = SlotBitmap::new_set(64).to_bytes();
        bytes.pop();
        assert!(SlotBitmap::from_bytes(&bytes).is_none());
    }

    #[test]
    fn iter_ones_matches_gets() {
        let mut bm = SlotBitmap::new_clear(500);
        let idxs = [0usize, 1, 63, 64, 65, 200, 499];
        for &i in &idxs {
            bm.set(i);
        }
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), idxs.to_vec());
    }
}
