//! Spans the benchmark records around its own calls into the runtime.
//!
//! A span is (name, start, end, parent, op id).  Spans of one op share
//! the op id; the op itself is the root span and the calls it makes are
//! its children.  They are kept in a buffer preallocated in set-up and
//! only summarised when the run ends.  A layer's self time is its span's
//! duration minus what its children cover, so the self times of one op
//! add up to that op's latency exactly; the summary reports them for the
//! median op.

/// One op in this many is traced.
pub const SAMPLE_EVERY: u64 = 64;

/// Index of a span name in a workload's name table; 0 is always the op.
pub type NameId = u16;
pub const ROOT: NameId = 0;
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: NameId,
    parent: u32,
    op: u64,
    start: u64,
    end: u64,
}

pub struct SpanBuf {
    spans: Vec<Span>,
}

impl SpanBuf {
    pub fn with_capacity(cap: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(cap),
        }
    }

    /// Room for one more op of `n` spans?  A full buffer stops tracing
    /// rather than growing inside the timed window.
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.spans.capacity()
    }

    /// Record one op: its root span over `[stamps[0], stamps[last]]` and
    /// one child per consecutive pair of stamps, named `children[i]` — or
    /// no children at all for an op that is a single call.
    pub fn push_op(&mut self, op: u64, stamps: &[u64], children: &[NameId]) {
        debug_assert!(children.is_empty() || stamps.len() == children.len() + 1);
        if !self.has_room(stamps.len()) {
            return;
        }
        let root = self.spans.len() as u32;
        self.spans.push(Span {
            name: ROOT,
            parent: NO_PARENT,
            op,
            start: stamps[0],
            end: stamps[stamps.len() - 1],
        });
        for (i, &name) in children.iter().enumerate() {
            self.spans.push(Span {
                name,
                parent: root,
                op,
                start: stamps[i],
                end: stamps[i + 1],
            });
        }
    }
}

/// Where the median op spends its time.
pub struct SpanSummary {
    /// Self time per span name in the median op: the mean over the
    /// sampled ops whose latency lies between the 45th and the 55th
    /// percentile.  Index 0 is the op's own self time (what no child span
    /// covers).  Taken over the same ops, the parts add up to the whole,
    /// which per-name medians of skewed parts do not.
    pub self_ns: Vec<f64>,
    pub op_p50_ns: f64,
    pub ops: u64,
}

impl SpanSummary {
    /// Sum of the self times over the op's median latency: 1.0 when the
    /// layers account for the op.
    pub fn sum_ratio(&self) -> f64 {
        if self.op_p50_ns == 0.0 {
            return 1.0;
        }
        self.self_ns.iter().sum::<f64>() / self.op_p50_ns
    }
}

/// Summarise the buffers of every client of a run.
pub fn summarise(bufs: &[&SpanBuf], n_names: usize) -> SpanSummary {
    // One row per op: its latency, then its self time per name.
    let stride = n_names + 1;
    let mut rows: Vec<u64> = Vec::new();
    for buf in bufs {
        for s in &buf.spans {
            let dur = s.end.saturating_sub(s.start);
            if s.parent == NO_PARENT {
                rows.push(dur);
                rows.extend(std::iter::repeat_n(0, n_names));
                let at = rows.len() - n_names;
                rows[at + ROOT as usize] = dur;
            } else if buf.spans[s.parent as usize].op == s.op {
                // Children follow their root in the buffer, so the row
                // being filled is their op's.
                let at = rows.len() - n_names;
                rows[at + s.name as usize] += dur;
                rows[at + ROOT as usize] = rows[at + ROOT as usize].saturating_sub(dur);
            }
        }
    }
    let ops = rows.len() / stride;
    if ops == 0 {
        return SpanSummary {
            self_ns: vec![0.0; n_names],
            op_p50_ns: 0.0,
            ops: 0,
        };
    }
    let mut order: Vec<usize> = (0..ops).collect();
    order.sort_by_key(|&i| rows[i * stride]);
    let band = &order[ops * 9 / 20..(ops * 11 / 20).max(ops * 9 / 20 + 1)];
    let self_ns = (1..stride)
        .map(|col| {
            band.iter()
                .map(|&i| rows[i * stride + col] as f64)
                .sum::<f64>()
                / band.len() as f64
        })
        .collect();
    SpanSummary {
        self_ns,
        op_p50_ns: rows[order[ops / 2] * stride] as f64,
        ops: ops as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_op() {
        let mut buf = SpanBuf::with_capacity(64);
        for op in 0..10u64 {
            let t = op * 10_000;
            // 1 µs + 2 µs + 4 µs children, contiguous.
            buf.push_op(op, &[t, t + 1_000, t + 3_000, t + 7_000], &[1, 2, 3]);
        }
        let s = summarise(&[&buf], 4);
        assert_eq!(s.ops, 10);
        assert_eq!(s.op_p50_ns, 7_000.0);
        assert_eq!(
            s.self_ns,
            [0.0, 1_000.0, 2_000.0, 4_000.0],
            "children cover the op"
        );
        assert_eq!(s.sum_ratio(), 1.0);
    }

    #[test]
    fn skewed_parts_still_add_up_in_the_median_op() {
        // Two right-skewed, anti-correlated parts: their medians do not add
        // up to the op's median, their means over the median ops do.
        let mut buf = SpanBuf::with_capacity(4096);
        let mut rng = crate::rng::Rng::new(3);
        for op in 0..1000u64 {
            let a = 1_000 + rng.below(100) * rng.below(100);
            let b = 20_000 - a + rng.below(50) * rng.below(50);
            buf.push_op(op, &[0, a, a + b], &[1, 2]);
        }
        let s = summarise(&[&buf], 3);
        assert!((s.sum_ratio() - 1.0).abs() < 0.01, "{}", s.sum_ratio());
    }

    #[test]
    fn full_buffer_drops_whole_ops() {
        let mut buf = SpanBuf::with_capacity(5);
        buf.push_op(0, &[0, 10, 20], &[1, 2]);
        buf.push_op(1, &[30, 40, 50], &[1, 2]);
        let s = summarise(&[&buf], 3);
        assert_eq!(s.ops, 1, "the second op did not fit");
        assert_eq!(s.self_ns, [0.0, 10.0, 10.0], "and left no partial spans");
    }
}
