//! The early-PM2 migration baseline: stack relocation with pointer fix-up
//! — the measured half of ablation A5.
//!
//! Before isomalloc, PM2 relocated a migrated stack "at a usually different
//! address on the destination node" and then repaired two classes of
//! pointers (§2): the *implicit* frame-chain pointers the compiler
//! generates, and the *explicit* user pointers declared through
//! `pm2_register_pointer`.  The paper's argument is that this approach
//! "does not extend to complex applications" — it misses unregistered
//! pointers (Fig. 2 crashes) and breaks under compiler optimization.
//!
//! The complete fix-up math lives here, exercised on **synthetic frozen
//! stacks**: the runtime only ever resumes threads under the iso-address
//! scheme, because resuming a relocated Rust stack would rely on
//! frame-pointer discipline Rust does not promise — precisely the fragility
//! the paper eliminated.  A5 therefore prices the early scheme as what it
//! added to every migration: one iso-address hop (measured on a live
//! machine) plus one [`FrozenStack::relocate`] pass over a stack with k
//! registered pointers ([`relocate_pass_us`]).

use std::time::Instant;

/// A frozen stack image as the early scheme would ship it.
#[derive(Debug, Clone)]
pub struct FrozenStack {
    /// Raw bytes of the stack region `[old_base, old_base + bytes.len())`.
    pub bytes: Vec<u8>,
    /// Base address the image occupied on the source node.
    pub old_base: usize,
    /// Saved stack pointer (absolute, inside the old range).
    pub rsp: usize,
    /// Saved frame pointer (absolute, inside the old range; head of the
    /// frame chain).
    pub rbp: usize,
    /// Offsets (within the image) of registered pointer variables.
    pub registered: Vec<usize>,
}

/// What a relocation pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixupReport {
    /// Frame-chain cells adjusted.
    pub frames_fixed: usize,
    /// Registered user pointers adjusted.
    pub registered_fixed: usize,
    /// Registered pointers left alone (they pointed outside the stack).
    pub registered_skipped: usize,
}

impl FrozenStack {
    /// End of the old address range.
    pub fn old_end(&self) -> usize {
        self.old_base + self.bytes.len()
    }

    fn in_old_range(&self, addr: usize) -> bool {
        addr >= self.old_base && addr < self.old_end()
    }

    /// Read the `usize` at absolute old-range address `addr`.
    fn read(&self, addr: usize) -> usize {
        let off = addr - self.old_base;
        usize::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Write the `usize` at absolute old-range address `addr`.
    fn write(&mut self, addr: usize, v: usize) {
        let off = addr - self.old_base;
        self.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Relocate the image to `new_base`: rebase `rsp`/`rbp`, walk the frame
    /// chain adjusting every saved frame pointer that points into the old
    /// range, and adjust every registered pointer that points into the old
    /// range.  This is the whole post-migration pass the iso-address design
    /// makes unnecessary.
    pub fn relocate(&mut self, new_base: usize) -> FixupReport {
        let delta = new_base.wrapping_sub(self.old_base);
        let mut report = FixupReport {
            frames_fixed: 0,
            registered_fixed: 0,
            registered_skipped: 0,
        };

        // 1. Frame chain: each frame's saved rbp cell holds the address of
        //    the caller's frame; terminate on 0 or an out-of-range value.
        let mut fp = self.rbp;
        while self.in_old_range(fp) {
            let saved = self.read(fp);
            if self.in_old_range(saved) {
                self.write(fp, saved.wrapping_add(delta));
                report.frames_fixed += 1;
            }
            if saved <= fp {
                break; // chains grow towards higher addresses; stop on junk
            }
            fp = saved;
        }

        // 2. Registered user pointers.
        for i in 0..self.registered.len() {
            let cell = self.old_base + self.registered[i];
            let value = self.read(cell);
            if self.in_old_range(value) {
                self.write(cell, value.wrapping_add(delta));
                report.registered_fixed += 1;
            } else {
                report.registered_skipped += 1;
            }
        }

        // 3. Rebase the machine context.
        self.rsp = self.rsp.wrapping_add(delta);
        self.rbp = self.rbp.wrapping_add(delta);
        self.old_base = new_base;
        report
    }
}

/// Frames in the chain of an A5 synthetic stack — a moderately deep call
/// stack at the migration point.
const A5_FRAMES: usize = 16;

impl FrozenStack {
    /// A synthetic frozen stack for A5: a chain of `frames` frames and
    /// `registered` registered pointer variables, every one of which
    /// points into the stack (so every one needs fixing).
    pub fn synthetic(frames: usize, registered: usize) -> FrozenStack {
        let old_base = 0x7000_0000usize;
        let frame_bytes = 0x40;
        let cells_at = (frames + 2) * frame_bytes;
        let mut s = FrozenStack {
            bytes: vec![0; cells_at + registered * 8 + 8],
            old_base,
            rsp: old_base + frame_bytes - 0x20,
            rbp: old_base + frame_bytes,
            registered: (0..registered).map(|i| cells_at + i * 8).collect(),
        };
        for f in 1..=frames {
            let caller = if f == frames {
                0 // outermost frame terminates the chain
            } else {
                old_base + (f + 1) * frame_bytes
            };
            s.write(old_base + f * frame_bytes, caller);
        }
        for i in 0..registered {
            // Each registered variable points at a local of some frame.
            let local = old_base + (1 + i % frames) * frame_bytes + 8;
            s.write(old_base + cells_at + i * 8, local);
        }
        s
    }
}

/// Mean µs of one relocation pass over an A5 synthetic stack with
/// `registered` registered pointers: the post-migration work the early
/// scheme paid on every arrival and iso-address migration does not.
pub fn relocate_pass_us(registered: usize) -> f64 {
    let mut s = FrozenStack::synthetic(A5_FRAMES, registered);
    let bases = [0x9000_0000usize, 0x7000_0000];
    let passes = 20_000;
    let t0 = Instant::now();
    for i in 0..passes {
        let report = s.relocate(bases[i % 2]);
        std::hint::black_box(report);
    }
    t0.elapsed().as_secs_f64() * 1e6 / passes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a synthetic frozen stack with a 3-frame chain and two
    /// registered pointers (one into the stack, one to "heap").
    fn synthetic() -> FrozenStack {
        let old_base = 0x7000_0000usize;
        let len = 4096;
        let mut s = FrozenStack {
            bytes: vec![0; len],
            old_base,
            rsp: old_base + 0x100,
            rbp: old_base + 0x120,
            registered: vec![0x400, 0x500],
        };
        // Frame chain: 0x120 -> 0x200 -> 0x300 -> 0 (outermost).
        s.write(old_base + 0x120, old_base + 0x200);
        s.write(old_base + 0x200, old_base + 0x300);
        s.write(old_base + 0x300, 0);
        // Registered pointer #1 points at a local at 0x128.
        s.write(old_base + 0x400, old_base + 0x128);
        // Registered pointer #2 points outside the stack (heap): untouched.
        s.write(old_base + 0x500, 0x1234_5678);
        // A local "x" the pointer refers to.
        s.write(old_base + 0x128, 42);
        s
    }

    #[test]
    fn relocation_fixes_chain_and_registered() {
        let mut s = synthetic();
        let new_base = 0x9000_0000usize;
        let rep = s.relocate(new_base);
        assert_eq!(rep.frames_fixed, 2, "two in-range chain cells");
        assert_eq!(rep.registered_fixed, 1);
        assert_eq!(rep.registered_skipped, 1);
        assert_eq!(s.rsp, new_base + 0x100);
        assert_eq!(s.rbp, new_base + 0x120);
        // Chain re-targets the new range.
        assert_eq!(s.read(new_base + 0x120), new_base + 0x200);
        assert_eq!(s.read(new_base + 0x200), new_base + 0x300);
        assert_eq!(s.read(new_base + 0x300), 0);
        // Registered stack pointer re-targets; heap pointer untouched.
        assert_eq!(s.read(new_base + 0x400), new_base + 0x128);
        assert_eq!(s.read(new_base + 0x500), 0x1234_5678);
        // The pointee value is still reachable through the fixed pointer.
        let ptr = s.read(new_base + 0x400);
        assert_eq!(s.read(ptr), 42);
    }

    #[test]
    fn unregistered_pointer_breaks_exactly_like_fig2() {
        // The paper's Fig. 2: a pointer NOT registered keeps its old-range
        // value after relocation — dereferencing it on the destination is
        // the bug the iso-address scheme eliminates.
        let mut s = synthetic();
        let secret_cell = 0x600usize;
        let old_target = s.old_base + 0x128;
        s.write(s.old_base + secret_cell, old_target); // never registered
        let new_base = 0x9000_0000usize;
        s.relocate(new_base);
        let dangling = s.read(new_base + secret_cell);
        assert_eq!(dangling, old_target, "still points at the OLD range");
        assert!(
            dangling < new_base,
            "a dereference would fault on a real node"
        );
    }

    #[test]
    fn identity_relocation_is_a_noop() {
        let mut s = synthetic();
        let before = s.bytes.clone();
        let rep = s.relocate(s.old_base);
        assert_eq!(s.bytes, before, "delta 0 changes nothing");
        assert_eq!(
            rep.frames_fixed, 2,
            "but the walk still happened (the cost)"
        );
    }

    #[test]
    fn a5_stack_needs_every_frame_and_pointer_fixed() {
        let mut s = FrozenStack::synthetic(A5_FRAMES, 16);
        let rep = s.relocate(0x9000_0000);
        assert_eq!(rep.frames_fixed, A5_FRAMES - 1, "all but the outermost");
        assert_eq!((rep.registered_fixed, rep.registered_skipped), (16, 0));
        assert!(relocate_pass_us(16) > 0.0);
    }

    #[test]
    fn relocation_cost_scales_with_registered_count() {
        // The fix-up work is O(frames + registered) — the scaling the A5
        // ablation measures.
        let mut s = synthetic();
        s.registered = (0..64).map(|i| 0x800 + i * 8).collect();
        for i in 0..64 {
            let tgt = s.old_base + 0x100 + i;
            s.write(s.old_base + 0x800 + i * 8, tgt);
        }
        let rep = s.relocate(0xA000_0000);
        assert_eq!(rep.registered_fixed, 64);
    }
}
