//! Global ownership audit.
//!
//! Machine-checks the paper's central invariant: **every slot is owned by
//! exactly one agent** — a node (bit set in exactly one node bitmap) xor a
//! thread (in exactly one resident thread's slot list).  Caches are a
//! subset of node ownership and mapped-ness is cross-checked against the
//! area's process-wide accounting.
//!
//! Call [`crate::Machine::audit`] only at quiescence (no thread running, no
//! migration in flight).  The host sends each node `AUDIT_REQ` and receives
//! the reports itself — the one host operation that is not a thread on a
//! node, since that thread would be resident in the report it gathered.

use isoaddr::{SlotBitmap, SlotRange};
use madeleine::message::{PayloadReader, PayloadWriter};
use madeleine::Wire;

use crate::node::NodeCtx;
use crate::proto::{tag, Msg, Ranges};

/// One node's declared ownership — the `AUDIT_RESP` message.  On the wire:
/// the node id (u32), the bitmap length-prefixed in [`SlotBitmap`]'s own
/// serialized form, then `cached` and `threads` under the ordinary
/// [`Wire`] framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAudit {
    /// Node id.
    pub node: usize,
    /// The node's private bitmap (set = owned-and-free).
    pub bitmap: SlotBitmap,
    /// Slots sitting in the node's mmapped-slot cache.
    pub cached: Vec<usize>,
    /// Resident threads and the slot ranges they own (stack + heap).
    pub threads: Vec<(u64, Ranges)>,
}

impl Wire for NodeAudit {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u32(self.node as u32).lp_bytes(&self.bitmap.to_bytes());
        self.cached.encode(w);
        self.threads.encode(w);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        Some(NodeAudit {
            node: r.u32()? as usize,
            bitmap: SlotBitmap::from_bytes(r.lp_bytes()?)?,
            cached: Wire::decode(r)?,
            threads: Wire::decode(r)?,
        })
    }
    fn size_hint(&self) -> usize {
        4 + 4 + self.bitmap.wire_len() + self.cached.size_hint() + self.threads.size_hint()
    }
}

impl Msg for NodeAudit {
    const TAG: u16 = tag::AUDIT_RESP;
    const NAME: &'static str = "NodeAudit";
}

/// Whole-machine audit result.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Per-node reports, in node order.
    pub nodes: Vec<NodeAudit>,
    /// Total number of slots in the area.
    pub n_slots: usize,
}

/// Aggregate ownership counts from a passing audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSummary {
    /// Slots owned (free) by some node.
    pub node_owned: usize,
    /// Slots owned by resident threads.
    pub thread_owned: usize,
    /// Total threads observed.
    pub threads: usize,
}

impl AuditReport {
    /// Verify the exclusive-ownership partition.  Returns counts on success
    /// and a description of every violation on failure.
    pub fn check_partition(&self) -> Result<PartitionSummary, String> {
        let mut owners: Vec<Vec<String>> = vec![Vec::new(); self.n_slots];
        for na in &self.nodes {
            for slot in na.bitmap.iter_ones() {
                owners[slot].push(format!("node{}", na.node));
            }
            for &c in &na.cached {
                if !na.bitmap.get(c) {
                    return Err(format!("node{} caches slot {c} it does not own", na.node));
                }
            }
            for (tid, ranges) in &na.threads {
                for r in &ranges.0 {
                    for slot in r.iter() {
                        owners[slot].push(format!("thread{tid:#x}@node{}", na.node));
                    }
                }
            }
        }
        let mut violations = Vec::new();
        let mut node_owned = 0;
        let mut thread_owned = 0;
        for (slot, who) in owners.iter().enumerate() {
            match who.len() {
                1 => {
                    if who[0].starts_with("node") {
                        node_owned += 1;
                    } else {
                        thread_owned += 1;
                    }
                }
                0 => violations.push(format!("slot {slot} has no owner")),
                _ => violations.push(format!("slot {slot} owned by {}", who.join(" + "))),
            }
        }
        if violations.is_empty() {
            Ok(PartitionSummary {
                node_owned,
                thread_owned,
                threads: self.nodes.iter().map(|n| n.threads.len()).sum(),
            })
        } else {
            violations.truncate(20);
            Err(violations.join("; "))
        }
    }
}

impl NodeAudit {
    /// What `ctx` owns right now.
    pub(crate) fn of(ctx: &NodeCtx) -> NodeAudit {
        let slot_size = ctx.mgr.area().slot_size();
        let area_base = ctx.mgr.area().base();
        let slots_of = |&d: &marcel::DescPtr| {
            // SAFETY: resident descriptors; the pump runs with no thread active.
            let desc = unsafe { &*d };
            let mut rs = vec![SlotRange::new(
                (desc.stack_base - area_base) / slot_size,
                desc.stack_slots,
            )];
            // SAFETY: as above — the heap chain is not being mutated.
            for (base, n) in unsafe { isomalloc::heap::heap_slots(std::ptr::addr_of!(desc.heap)) } {
                rs.push(SlotRange::new((base - area_base) / slot_size, n));
            }
            Ranges(rs)
        };
        NodeAudit {
            node: ctx.node,
            bitmap: ctx.mgr.bitmap().clone(),
            cached: ctx.mgr.iter_cached().collect(),
            threads: ctx.threads.iter().map(|(&t, d)| (t, slots_of(d))).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_with(bitmaps: Vec<SlotBitmap>, threads: Vec<Vec<(u64, Ranges)>>) -> AuditReport {
        let n_slots = bitmaps[0].len();
        AuditReport {
            nodes: bitmaps
                .into_iter()
                .zip(threads)
                .enumerate()
                .map(|(node, (bitmap, threads))| NodeAudit {
                    node,
                    bitmap,
                    cached: vec![],
                    threads,
                })
                .collect(),
            n_slots,
        }
    }

    #[test]
    fn clean_partition_passes() {
        let mut b0 = SlotBitmap::new_clear(8);
        let mut b1 = SlotBitmap::new_clear(8);
        for i in 0..8 {
            if i % 2 == 0 {
                b0.set(i)
            } else {
                b1.set(i)
            }
        }
        // Move slot 0 from node0 to a thread on node1.
        b0.clear(0);
        let rep = audit_with(
            vec![b0, b1],
            vec![vec![], vec![(0xA, Ranges(vec![SlotRange::single(0)]))]],
        );
        let s = rep.check_partition().unwrap();
        assert_eq!(s.node_owned, 7);
        assert_eq!(s.thread_owned, 1);
        assert_eq!(s.threads, 1);
    }

    #[test]
    fn double_ownership_detected() {
        let mut b0 = SlotBitmap::new_clear(4);
        let mut b1 = SlotBitmap::new_clear(4);
        b0.set(2);
        b1.set(2);
        b0.set(0);
        b1.set(1);
        b0.set(3);
        let rep = audit_with(vec![b0, b1], vec![vec![], vec![]]);
        let err = rep.check_partition().unwrap_err();
        assert!(err.contains("slot 2 owned by node0 + node1"), "{err}");
    }

    #[test]
    fn orphan_slot_detected() {
        let b0 = SlotBitmap::new_clear(2);
        let mut b1 = SlotBitmap::new_clear(2);
        b1.set(0);
        let rep = audit_with(vec![b0, b1], vec![vec![], vec![]]);
        let err = rep.check_partition().unwrap_err();
        assert!(err.contains("slot 1 has no owner"), "{err}");
    }
}
