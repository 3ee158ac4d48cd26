//! The control plane as one table: every declared message's bytes are
//! pinned, every decoder survives mutation, a live node survives garbage
//! under every tag, and every at-least-once exchange gives up typed.

use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pm2::api::{
    pm2_group_migrate, pm2_isofree, pm2_isomalloc, pm2_migrate, pm2_probe_load, pm2_rpc_call,
    pm2_self,
};
use pm2::audit::NodeAudit;
use pm2::proto::{self, tag, Msg};
use pm2::spill;
use pm2::{
    BufPool, FaultPlan, Machine, Pm2Config, Pm2Error, Service, SlotBitmap, SlotRange, ThreadExit,
    Wire,
};
use testkit::alloc::{largest_alloc_in, Watching};
use testkit::{cases, StdRng};

#[global_allocator]
static ALLOC: Watching = Watching;

/// What a walk over the message table does with each row.
trait Visit {
    fn row<M: Msg + PartialEq + Debug>(&mut self, value: M, golden: &[u8]);
}

/// The message table: one fixed value per declared message, with the bytes
/// the hand-written encoder of the commit before the declarative rewrite
/// produced for it.  A layout change — a reordered, resized or retyped
/// field — fails here, loudly, before it fails between two nodes.
fn every_message(v: &mut impl Visit) {
    let ranges = |rs: &[(usize, usize)]| {
        proto::Ranges(rs.iter().map(|&(f, c)| SlotRange::new(f, c)).collect())
    };
    v.row(
        proto::SpawnKey {
            key: 0x1122_3344_5566_7788,
            tid: (1 << 63) | 5,
        },
        b"\x88\x77\x66\x55\x44\x33\x22\x11\x05\x00\x00\x00\x00\x00\x00\x80",
    );
    v.row(
        proto::RpcSpawn {
            service: 7,
            args: b"payload".to_vec(),
        },
        b"\x07\x00\x00\x00\x07\x00\x00\x00\x70\x61\x79\x6c\x6f\x61\x64",
    );
    v.row(
        proto::NegBuy {
            ranges: ranges(&[(3, 4), (100, 1)]),
        },
        b"\x02\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\
          \x64\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00",
    );
    v.row(
        proto::SlotTradeReq {
            trade_id: 0xBEEF,
            want: 16,
            min_contig: 2,
            wealth: 120,
        },
        b"\xef\xbe\x00\x00\x00\x00\x00\x00\x10\x00\x00\x00\x02\x00\x00\x00\x78\x00\x00\x00",
    );
    v.row(
        proto::SlotTradeResp {
            trade_id: 0xBEEF,
            wealth: 90,
            ranges: ranges(&[(8, 2), (60, 4)]),
        },
        b"\xef\xbe\x00\x00\x00\x00\x00\x00\x5a\x00\x00\x00\x02\x00\x00\x00\
          \x08\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\
          \x3c\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00",
    );
    v.row(proto::LoadReq { decay_shift: 3 }, b"\x03\x00\x00\x00");
    v.row(
        proto::LoadResp {
            resident: 5,
            wealth: 33,
            tids: vec![9, 10],
            aff: vec![
                proto::AffinityEdge {
                    tid: 9,
                    pack_cost: 4096,
                    epochs_since_move: u32::MAX,
                    peers: vec![(1, 40), (2, 3)],
                },
                proto::AffinityEdge {
                    tid: 10,
                    pack_cost: 128,
                    epochs_since_move: 0,
                    peers: vec![],
                },
            ],
        },
        b"\x05\x00\x00\x00\x21\x00\x00\x00\x02\x00\x00\x00\
          \x09\x00\x00\x00\x00\x00\x00\x00\x0a\x00\x00\x00\x00\x00\x00\x00\
          \x02\x00\x00\x00\
          \x09\x00\x00\x00\x00\x00\x00\x00\x00\x10\x00\x00\xff\xff\xff\xff\x02\x00\x00\x00\
          \x01\x00\x00\x00\x28\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\
          \x0a\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
    );
    v.row(
        proto::MigrateCmd {
            cmd_id: 9,
            dest: 3,
            tids: vec![0xAB, 0xCD],
        },
        b"\x09\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x02\x00\x00\x00\
          \xab\x00\x00\x00\x00\x00\x00\x00\xcd\x00\x00\x00\x00\x00\x00\x00",
    );
    v.row(
        proto::MigrateAck {
            cmd_id: 42,
            accepted: 3,
            total: 5,
            wealth: 17,
        },
        b"\x2a\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x05\x00\x00\x00\x11\x00\x00\x00",
    );
    v.row(
        ThreadExit {
            tid: 42,
            panicked: true,
            died_on: 2,
            panic_msg: Some("assertion failed".into()),
            value: Some(vec![1, 2, 3]),
            failed_node: None,
        },
        b"\x2a\x00\x00\x00\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x00\x00\x00\
          \x01\x10\x00\x00\x00assertion failed\x01\x03\x00\x00\x00\x01\x02\x03\x00",
    );
    v.row(
        ThreadExit::node_failed(9, 3),
        b"\x09\x00\x00\x00\x00\x00\x00\x00\x01\x03\x00\x00\x00\x00\x00\x00\x00\
          \x01\x26\x00\x00\x00node 3 failed before the thread exited\x00\
          \x01\x03\x00\x00\x00\x00\x00\x00\x00",
    );
    // The audit report: node id, the bitmap length-prefixed in its own
    // form (bit count, then words), the cached slots, then per thread its
    // tid and ranges.
    let mut bitmap = SlotBitmap::new_clear(10);
    for bit in [0, 3, 9] {
        bitmap.set(bit);
    }
    v.row(
        NodeAudit {
            node: 2,
            bitmap,
            cached: vec![3],
            threads: vec![(0x2A, ranges(&[(4, 2)]))],
        },
        b"\x02\x00\x00\x00\x10\x00\x00\x00\
          \x0a\x00\x00\x00\x00\x00\x00\x00\x09\x02\x00\x00\x00\x00\x00\x00\
          \x01\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\
          \x01\x00\x00\x00\x2a\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\
          \x04\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00",
    );
    v.row(proto::NodeDead { node: 3 }, b"\x03\x00\x00\x00");
    v.row(
        proto::CkptReq { req_id: 0xC0FFEE },
        b"\xee\xff\xc0\x00\x00\x00\x00\x00",
    );
    v.row(
        proto::CkptAck {
            req_id: 0xC0FFEE,
            threads: 12,
        },
        b"\xee\xff\xc0\x00\x00\x00\x00\x00\x0c\x00\x00\x00",
    );
    v.row(
        proto::NodeReclaim {
            reclaim_id: 0xBEEF,
            ranges: ranges(&[(10, 4), (100, 1)]),
        },
        b"\xef\xbe\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\
          \x0a\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\
          \x64\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00",
    );
    v.row(
        proto::ReclaimAck {
            reclaim_id: 0xBEEF,
            slots: 200,
        },
        b"\xef\xbe\x00\x00\x00\x00\x00\x00\xc8\x00\x00\x00",
    );
    v.row(
        proto::Gossip {
            entries: vec![
                proto::GossipEntry {
                    node: 3,
                    seq: 17,
                    wealth: 250,
                    load: 4,
                },
                proto::GossipEntry {
                    node: 250,
                    seq: 1,
                    wealth: 0,
                    load: 0,
                },
            ],
        },
        b"\x02\x00\x00\x00\x03\x00\x00\x00\x11\x00\x00\x00\xfa\x00\x00\x00\x04\x00\x00\x00\
          \xfa\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
    );
}

/// Tags that carry nothing: the tag is the whole message.
const BARE: &[u16] = &[
    tag::NEG_LOCK_REQ,
    tag::NEG_LOCK_GRANT,
    tag::NEG_LOCK_RELEASE,
    tag::NEG_BITMAP_REQ,
    tag::NEG_BUY_ACK,
    tag::NEG_DONE,
    tag::SHUTDOWN,
    tag::SHUTDOWN_ACK,
    tag::AUDIT_REQ,
    tag::KILL,
];

/// Tags whose payload is framed outside the message table: the migration
/// train codec, `SlotBitmap`'s own form, the LRPC fast path, the NAK's
/// trailing text, and the heartbeat's ping byte.
const OWN_FRAMING: &[u16] = &[
    tag::MIGRATION,
    tag::MIGRATION_NAK,
    tag::NEG_BITMAP_RESP,
    tag::RPC_CALL,
    tag::RPC_RESP,
    tag::HEARTBEAT,
];

/// Golden bytes, exact size hint, round trip through the pooled encoder.
struct Golden {
    pool: BufPool,
    tags: Vec<u16>,
}

impl Visit for Golden {
    fn row<M: Msg + PartialEq + Debug>(&mut self, value: M, golden: &[u8]) {
        let bytes = proto::encode(&self.pool, &value);
        assert_eq!(&bytes[..], golden, "{} changed its wire layout", M::NAME);
        assert_eq!(value.size_hint(), golden.len(), "{} hint is exact", M::NAME);
        assert_eq!(M::decode_vec(golden), Some(value), "{} round trip", M::NAME);
        self.tags.push(M::TAG);
    }
}

#[test]
fn every_message_encodes_to_its_golden_bytes_and_back() {
    let mut golden = Golden {
        pool: BufPool::new(),
        tags: Vec::new(),
    };
    every_message(&mut golden);
    // Protocol encoders stop allocating once the pool is warm: every row
    // after the first rode the first row's buffer.
    assert_eq!(golden.pool.stats().allocs, 1);
    // The table is complete: every assigned tag is a row above, or is
    // listed (with the reason) as carrying no struct.
    let mut covered: Vec<u16> = [&golden.tags[..], BARE, OWN_FRAMING].concat();
    covered.sort_unstable();
    covered.dedup();
    let mut all = tag::ALL.to_vec();
    all.sort_unstable();
    assert_eq!(covered, all, "a tag is missing from the message table");
}

/// The bespoke framings keep their bytes too, and refuse truncation.
#[test]
fn bespoke_framings_keep_their_golden_bytes() {
    let pool = BufPool::new();
    let nak = proto::encode_migration_nak(&pool, &[7, 8], "bad record");
    assert_eq!(
        nak,
        b"\x02\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00bad record"
    );
    assert_eq!(
        proto::decode_migration_nak(&nak),
        Some((vec![7, 8], "bad record".into()))
    );
    // No tids: the train's table itself was unreadable.
    let anon = proto::encode_migration_nak(&pool, &[], "unreadable table");
    assert_eq!(
        proto::decode_migration_nak(&anon),
        Some((vec![], "unreadable table".into()))
    );
    assert_eq!(proto::decode_migration_nak(&nak[..11]), None, "cut tids");
    assert_eq!(proto::decode_migration_nak(&u32::MAX.to_le_bytes()), None);

    let req = (7u64, b"req".to_vec());
    let call = proto::encode_rpc_call(&pool, 99, 3, 0xFEED, &req, 64).unwrap();
    assert_eq!(
        call,
        b"\x63\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\xed\xfe\x00\x00\x0f\x00\x00\x00\
          \x07\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00req"
    );
    let (call_id, reply_to, service, body) = proto::decode_rpc_call(&call).unwrap();
    assert_eq!((call_id, reply_to, service), (99, 3, 0xFEED));
    assert_eq!(call[body], req.encode_vec());
    assert_eq!(proto::decode_rpc_call(&call[..5]), None);
    assert_eq!(proto::decode_rpc_call(&call[..call.len() - 1]), None);

    let resp = proto::encode_rpc_resp(&pool, 99, proto::rpc_status::OK, b"resp");
    assert_eq!(
        resp,
        b"\x63\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00resp"
    );
    let ok = Some((99, proto::rpc_status::OK, &b"resp"[..]));
    assert_eq!(proto::decode_rpc_resp(&resp), ok);
    assert_eq!(proto::peek_id(&resp), Some(99));
    assert_eq!(proto::decode_rpc_resp(&resp[..resp.len() - 1]), None);
}

/// The ceiling is judged on the encoded body, header excluded: a body of
/// exactly `max` bytes passes, one more does not.
#[test]
fn rpc_ceiling_is_on_the_encoded_body() {
    let pool = BufPool::new();
    let body = vec![5u8; 60]; // encodes to 4 + 60 bytes
    assert!(proto::encode_rpc_call(&pool, 1, 0, 2, &body, 64).is_ok());
    assert_eq!(
        proto::encode_rpc_call(&pool, 1, 0, 2, &body, 63),
        Err(Pm2Error::PayloadTooLarge { len: 64, max: 63 })
    );
    let status_and_body = |reply: &[u8]| {
        let (_, status, bytes) = proto::decode_rpc_resp(reply).unwrap();
        (status, bytes.to_vec())
    };
    let ok = proto::encode_rpc_reply(&pool, 1, 64, |w| {
        body.encode(w);
        Ok(())
    });
    assert_eq!(
        status_and_body(&ok),
        (proto::rpc_status::OK, body.encode_vec())
    );
    let over = proto::encode_rpc_reply(&pool, 1, 63, |w| {
        body.encode(w);
        Ok(())
    });
    assert_eq!(
        status_and_body(&over),
        (
            proto::rpc_status::REMOTE_ERROR,
            b"response of 64 bytes exceeds ceiling".to_vec()
        )
    );
    let refused = proto::encode_rpc_reply(&pool, 1, 64, |_| Err("no".into()));
    assert_eq!(
        status_and_body(&refused),
        (proto::rpc_status::REMOTE_ERROR, b"no".to_vec())
    );
}

/// One of the four ways a buffer goes bad on the way: cut short, a bit
/// flipped, junk appended, or a length field (any aligned-or-not four
/// bytes, since the fuzz does not know the layout) promising far more
/// than is there.
fn mutate(rng: &mut StdRng, valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    match rng.random_range(0..4u32) {
        0 => bytes.truncate(rng.random_range(0..bytes.len())),
        1 => {
            let at = rng.random_range(0..bytes.len());
            bytes[at] ^= 1 << rng.random_range(0..8u32);
        }
        2 => {
            let extra = rng.random_range(1..=24usize);
            bytes.extend((0..extra).map(|_| rng.next_u64() as u8));
        }
        _ => {
            let lie =
                [u32::MAX, i32::MAX as u32, bytes.len() as u32 + 1][rng.random_range(0..3usize)];
            let at = rng.random_range(0..bytes.len());
            for (b, l) in bytes[at..].iter_mut().zip(lie.to_le_bytes()) {
                *b = l;
            }
        }
    }
    bytes
}

/// Decoding `bytes` must not reserve memory on a length field's say-so.
/// The bound is twice the buffer, not once: the densest element of the
/// table, an `AffinityEdge` with no peers, is 20 bytes on the wire and 40
/// in memory — plus the four-element floor a growing `Vec` starts from.
fn assert_bounded(largest: usize, bytes: &[u8], what: &str) {
    let floor = 4 * std::mem::size_of::<proto::AffinityEdge>();
    assert!(
        largest <= 2 * bytes.len() + floor,
        "{what}: one allocation of {largest} B decoding a {} B buffer",
        bytes.len()
    );
}

/// Mutation fuzz: a damaged encoding decodes to `None`, or to a value that
/// encodes back to exactly the damaged bytes (the encoding is canonical,
/// so nothing is silently normalised) — never a panic, never a
/// length-driven allocation.
struct Fuzz;

impl Visit for Fuzz {
    fn row<M: Msg + PartialEq + Debug>(&mut self, _value: M, golden: &[u8]) {
        cases(400, |rng| {
            let bytes = mutate(rng, golden);
            let (decoded, largest) = largest_alloc_in(|| M::decode_vec(&bytes));
            assert_bounded(largest, &bytes, M::NAME);
            if let Some(value) = decoded {
                assert_eq!(value.encode_vec(), bytes, "{} re-encodes", M::NAME);
            }
        });
    }
}

#[test]
fn damaged_messages_decode_to_none_or_reencode_and_never_overallocate() {
    every_message(&mut Fuzz);
    // The bespoke decoders face the same wire.
    let pool = BufPool::new();
    let nak = proto::encode_migration_nak(&pool, &[7, 8], "bad record");
    let call = proto::encode_rpc_call(&pool, 99, 3, 0xFEED, &vec![5u8; 40], 64).unwrap();
    let resp = proto::encode_rpc_resp(&pool, 99, proto::rpc_status::OK, b"resp");
    cases(400, |rng| {
        let bytes = mutate(rng, &nak);
        let (_, largest) = largest_alloc_in(|| proto::decode_migration_nak(&bytes));
        assert_bounded(largest, &bytes, "MIGRATION_NAK");
        let bytes = mutate(rng, &call);
        if let Some((_, _, _, body)) = proto::decode_rpc_call(&bytes) {
            assert!(body.end <= bytes.len(), "request range inside the buffer");
        }
        let bytes = mutate(rng, &resp);
        let (_, largest) = largest_alloc_in(|| proto::decode_rpc_resp(&bytes).is_some());
        assert_bounded(largest, &bytes, "RPC_RESP");
    });
}

/// A real spill log, three checkpoints of two threads through
/// `SpillLog::append`, and the train in its last record — a checkpoint is a
/// train out of `pack_threads` that is not shipped, so the log hands one
/// over intact.  Captured once for the tests that damage them.
fn captured_log_and_train() -> &'static (Vec<u8>, Vec<u8>) {
    static CAPTURED: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    CAPTURED.get_or_init(capture_log_and_train)
}

fn capture_log_and_train() -> (Vec<u8>, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("pm2-train-fuzz-{}", std::process::id()));
    let mut m = Machine::builder(2)
        .test_profile()
        .spill_dir(&dir)
        .launch()
        .unwrap();
    // A thread checkpointed before its first quantum has no heap record
    // yet: wait until both have allocated.
    static HEAPS: AtomicUsize = AtomicUsize::new(0);
    for fill in [0xA1u8, 0xB2] {
        m.spawn_on(0, move || {
            let p = pm2_isomalloc(700).unwrap();
            unsafe { std::ptr::write_bytes(p, fill, 700) };
            HEAPS.fetch_add(1, Ordering::SeqCst);
            loop {
                pm2::api::pm2_yield();
            }
        })
        .unwrap();
    }
    while HEAPS.load(Ordering::SeqCst) < 2 {
        std::thread::yield_now();
    }
    for _ in 0..3 {
        while m.checkpoint_node(0).unwrap() < 2 {}
    }
    m.kill_node(0).unwrap(); // the two loops never end
    m.shutdown();
    let path = dir.join("node0.log");
    let log = std::fs::read(&path).unwrap();
    let mut records = spill::replay(&path).unwrap().records;
    let _ = std::fs::remove_dir_all(&dir);
    assert!(records.len() >= 3, "a record per checkpoint");
    (log, records.pop().expect("counted").train)
}

/// The migration decoders face the wire and the spill log too.  The table
/// reader and the record-header reader are pure, so they can be shown any
/// bytes: a damaged train is refused, or every group it yields lies inside
/// the buffer behind the table and every record header it accepts ends
/// inside its group — never a panic, never a length-driven allocation.
/// (`unpack_threads` maps memory on their say-so and is not driven here.)
#[test]
fn damaged_trains_yield_only_in_bounds_groups_and_records() {
    use isomalloc::pack::peek_header;
    use pm2::migration::train_groups;

    let (_, train) = captured_log_and_train();
    // Walk `bytes` the way arrival does; returns (groups, records) accepted.
    let walk = |bytes: &[u8]| {
        let (mut groups, mut records) = (0, 0);
        let Ok(table) = train_groups(bytes) else {
            return (groups, records);
        };
        let span = bytes.as_ptr_range();
        for (_tid, group) in table {
            let Ok(group) = group else { continue };
            let g = group.as_ptr_range();
            assert!(
                span.start <= g.start && g.end <= span.end,
                "group in bounds"
            );
            groups += 1;
            let mut rest = group;
            while !rest.is_empty() {
                let Ok(info) = peek_header(rest) else { break };
                assert!(info.n_slots >= 1 && info.record_len <= rest.len());
                rest = &rest[info.record_len..];
                records += 1;
            }
        }
        (groups, records)
    };
    let (groups, records) = walk(train);
    assert_eq!(groups, 2, "two threads");
    assert!(records >= 4, "a stack and a heap record each: {records}");
    cases(2000, |rng| {
        let bytes = mutate(rng, train);
        let (_, largest) = largest_alloc_in(|| walk(&bytes));
        assert_bounded(largest, &bytes, "MIGRATION train");
    });
}

/// The spill log is read back after a crash, so its reader faces torn and
/// rotten bytes.  Whatever happened to the file, `replay` neither panics
/// nor allocates on a length field's say-so; every record it returns sits
/// in the file, in order, behind a header carrying its length, epoch and
/// checksum; and `SpillLog::open` cuts the file back to a prefix that
/// replays to the same records with no tear left.
#[test]
fn damaged_spill_logs_replay_only_what_the_file_vouches_for() {
    // The frame header of spill.rs's module doc.
    let header = |rec: &spill::SpillRecord| {
        let (len, sum) = (rec.train.len() as u32, spill::fnv1a(&rec.train));
        let fields = [
            &b"PMSP"[..],
            &len.to_le_bytes(),
            &rec.epoch.to_le_bytes(),
            &sum.to_le_bytes(),
        ];
        fields.concat()
    };
    let contents = |r: &spill::SpillReplay| {
        let records = r.records.iter().map(|rec| (rec.epoch, rec.train.clone()));
        (records.collect::<Vec<_>>(), r.corrupt_skipped)
    };
    let (log, _) = captured_log_and_train();
    let path = std::env::temp_dir().join(format!("pm2-spill-fuzz-{}.log", std::process::id()));
    cases(2000, |rng| {
        let bytes = mutate(rng, log);
        std::fs::write(&path, &bytes).unwrap();
        let (replayed, largest) = largest_alloc_in(|| spill::replay(&path).unwrap());
        assert_bounded(largest, &bytes, "spill log");
        let mut rest = &bytes[..];
        for rec in &replayed.records {
            let frame = [header(rec), rec.train.clone()].concat();
            let at = rest.windows(frame.len()).position(|w| w == frame);
            let at = at.expect("a returned record is in the file, checksummed");
            rest = &rest[at + frame.len()..];
        }
        drop(spill::SpillLog::open(&path).unwrap());
        assert!(
            bytes.starts_with(&std::fs::read(&path).unwrap()),
            "cut, not rewritten"
        );
        let reopened = spill::replay(&path).unwrap();
        assert!(!reopened.torn_tail);
        assert_eq!(contents(&reopened), contents(&replayed));
    });
    std::fs::remove_file(&path).unwrap();
}

struct Echo;
impl Service for Echo {
    const NAME: &'static str = "control_plane.echo";
    type Req = u64;
    type Resp = u64;
    fn handle(&self, req: u64) -> u64 {
        req + 1
    }
}

/// No payload byte and no tag can take a node driver down: garbage under
/// every assigned tag (and two unassigned ones) is dropped and counted,
/// and the node then spawns, hosts a migration and serves LRPC as before.
#[test]
fn garbage_under_every_tag_is_dropped_and_the_node_lives_on() {
    let mut m = Machine::launch(Pm2Config::test(2)).unwrap();
    m.register(Echo);
    // SHUTDOWN and KILL are bare commands: no payload to be malformed,
    // and delivering one does what it says.
    let commands = [tag::SHUTDOWN, tag::KILL];
    let unassigned = (1..u16::MAX).find(|t| !tag::ALL.contains(t)).unwrap();
    let mut rng = StdRng::seed_from_u64(0x0BAD_F00D);
    let mut injected = 0u64;
    for &t in tag::ALL.iter().chain(&[unassigned, u16::MAX]) {
        if commands.contains(&t) {
            continue;
        }
        // Empty, short, and exactly the size of the fixed-width messages
        // (all ones: every id, count and node number out of range)…
        let mut payloads: Vec<Vec<u8>> = [0usize, 1, 3, 4, 8, 12, 16, 20]
            .iter()
            .map(|&n| vec![0xFF; n])
            .collect();
        // …and random bytes of awkward lengths.
        for len in [7usize, 21, 64, 300] {
            payloads.push((0..len).map(|_| rng.next_u64() as u8).collect());
        }
        for payload in payloads {
            m.inject_raw(1, t, payload).unwrap();
            injected += 1;
        }
    }
    // A data-class spawn queues behind everything injected above, so when
    // it runs the node has handled the lot.
    let slot = m.area().slot_size();
    let seen = m
        .run_on(1, move || {
            let p = pm2_isomalloc(slot / 2).unwrap();
            // SAFETY: a fresh block of at least 8 bytes.
            unsafe { p.cast::<u64>().write(0xFEED) };
            pm2_migrate(0).unwrap();
            let there = pm2_self();
            pm2_migrate(1).unwrap();
            // SAFETY: the block migrated with the thread, twice.
            let word = unsafe { p.cast::<u64>().read() };
            pm2_isofree(p).unwrap();
            (there, pm2_self(), word, pm2_rpc_call::<Echo>(1, 41))
        })
        .unwrap();
    assert_eq!(seen, (0, 1, 0xFEED, Ok(42)));
    assert_eq!(m.rpc_call::<Echo>(1, 6), Ok(7));
    let dropped = m.node_stats(1).malformed_dropped;
    assert!(dropped > 0, "nothing was counted as malformed");
    assert!(dropped <= injected);
    assert_eq!(
        m.node_stats(0).malformed_dropped,
        0,
        "node 0 saw none of it"
    );
    // Nothing the garbage named was lent, sold, adopted or frozen.
    m.audit().unwrap().check_partition().unwrap();

    // Well-formed replies nobody is waiting for — acks to commands whose
    // caller gave up long ago — are dropped where they land, one count
    // each, instead of being kept for every later wait to walk past; the
    // next exchanges on the same tags go through.
    let unclaimed = m.node_stats(1).replies_unclaimed;
    for cmd_id in 0..1000u64 {
        let late = proto::MigrateAck {
            cmd_id: 0xDEAD_0000 + cmd_id,
            accepted: 1,
            total: 1,
            wealth: 3,
        };
        m.inject_raw(1, tag::MIGRATE_CMD_ACK, late.encode_vec())
            .unwrap();
    }
    let after = m
        .run_on(1, || {
            (
                pm2_group_migrate(0, 1, &[0xBAD]),
                pm2_rpc_call::<Echo>(0, 1),
            )
        })
        .unwrap();
    assert_eq!(after, (Ok(0), Ok(2)));
    assert_eq!(m.node_stats(1).replies_unclaimed, unclaimed + 1000);
    m.shutdown();
}

/// On a fabric that eats every at-least-once message, each retried
/// exchange spends exactly its one reply deadline — the slices sum to it —
/// and then gives up typed, naming the operation; the trade's exhaustion
/// is the documented fallback to the (exactly-once) §4.4 protocol.
#[test]
fn a_fabric_that_eats_every_request_exhausts_each_exchange_typed() {
    let deadline = Duration::from_millis(300);
    let mut m = Machine::builder(3)
        .test_profile()
        .reply_deadline(deadline)
        .fault_plan(FaultPlan::new(7).with_drop(1.0))
        .launch()
        .unwrap();
    let within_one_deadline = |t0: Instant, what: &str| {
        let took = t0.elapsed();
        assert!(
            // Three full deadlines is what un-split retries would take.
            took >= deadline.mul_f64(0.9) && took < deadline.mul_f64(2.5),
            "{what} gave up after {took:?}, not one {deadline:?} deadline"
        );
    };
    let exhausted = |op| Pm2Error::RetriesExhausted { op, attempts: 3 };

    let t0 = Instant::now();
    let probe = m.run_on(0, || pm2_probe_load(1)).unwrap();
    assert_eq!(probe, Err(exhausted("load probe")));
    within_one_deadline(t0, "probe");
    assert_eq!(m.node_stats(0).ctrl_retries, 2);

    let t0 = Instant::now();
    assert_eq!(m.checkpoint_node(1), Err(exhausted("checkpoint")));
    within_one_deadline(t0, "checkpoint");
    assert_eq!(m.node_stats(1).ctrl_retries, 2, "host re-sends count too");

    // Round-robin slots: two contiguous ones need a peer's.
    let slot = m.area().slot_size();
    let t0 = Instant::now();
    m.run_on(0, move || {
        let p = pm2_isomalloc(2 * slot).unwrap();
        pm2_isofree(p).unwrap();
    })
    .unwrap();
    assert!(t0.elapsed() >= deadline.mul_f64(0.9), "the trade was tried");
    let st = m.node_stats(0);
    assert_eq!((st.trades, st.trade_fallbacks, st.negotiations), (3, 1, 1));
    assert_eq!(st.ctrl_retries, 2 + 2, "two trade re-sends on top");

    m.kill_node(2).unwrap();
    let t0 = Instant::now();
    match m.recover_node(2) {
        Err(e) => assert_eq!(e, exhausted("reclaim")),
        Ok(rep) => panic!("reclaim cannot have been acked: {rep:?}"),
    }
    assert!(t0.elapsed() >= deadline.mul_f64(0.9));
    m.shutdown();
}
