//! The spill log: migration trains on disk instead of on the wire.
//!
//! Iso-address packing makes a train fully position-independent, so the
//! same bytes that cross the Madeleine fabric can land in an append-only
//! file and replay later through the normal `MIGRATION` arrival path — a
//! recovered thread is just a migration whose source no longer exists.
//! Checkpoints (`NodeCtx::checkpoint_now`) append snapshot trains here;
//! recovery (`Machine::recover_node`) reads the dead node's log back and
//! re-ships the newest record group per thread to a survivor.
//!
//! ## Record framing
//!
//! ```text
//! u32  magic      "PMSP"
//! u32  body_len   train bytes that follow the header
//! u64  epoch      per-node monotonic checkpoint counter
//! u64  checksum   FNV-1a 64 over the body
//! bytes body      one train (count + tid/off/len table + record groups)
//! ```
//!
//! A checkpoint is **superseded, never mutated**: every append is a whole
//! new record, and the reader keeps, per tid, only the newest epoch that
//! mentions it.  The reader's failure policy mirrors the train unpacker's
//! per-group isolation:
//!
//! * a **torn tail** (incomplete header, unknown magic, or a body the file
//!   is too short to hold — the node died mid-append) ends the replay;
//!   [`SpillLog::open`] truncates it away so the next append starts clean;
//! * a **checksum mismatch** on a complete frame skips that one record and
//!   keeps replaying — bit rot costs the record, never the log.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::{Pm2Error, Result};

/// Frame magic: "PMSP" little-endian.
const MAGIC: u32 = u32::from_le_bytes(*b"PMSP");
/// Frame header length: magic + body_len + epoch + checksum.
const HDR: usize = 4 + 4 + 8 + 8;

/// FNV-1a 64-bit over `bytes` — dependency-free integrity check; this is
/// corruption *detection*, not authentication.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frames a log may gain on top of what its last compaction left before
/// [`SpillLog::compact_due`] asks for the next one (every checkpoint epoch
/// re-writes every live thread).  Growth is measured from that floor, not
/// from zero, so the rewrite stays amortised when many epochs keep a survivor.
pub const COMPACT_AFTER: usize = 64;

/// Append handle for one node's spill log.
pub struct SpillLog {
    path: PathBuf,
    file: File,
    /// Whole frames currently in the log (pre-existing ones counted on
    /// open; compaction resets it), so the compaction trigger never
    /// re-scans the file.
    records: usize,
    /// Frames the last compaction left behind (0 until one has run).
    compacted_to: usize,
}

impl SpillLog {
    /// Open (creating if needed) the log at `path` for appending.  Any torn
    /// tail left by a crash mid-append is truncated away first, so the new
    /// records always start on a frame boundary.
    pub fn open(path: &Path) -> Result<SpillLog> {
        let io = |e: std::io::Error| Pm2Error::Spill(format!("{}: {e}", path.display()));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io)?;
        let (sound, records) = sound_prefix(&mut file).map_err(io)?;
        file.set_len(sound).map_err(io)?;
        file.seek(SeekFrom::End(0)).map_err(io)?;
        Ok(SpillLog {
            path: path.to_path_buf(),
            file,
            records,
            compacted_to: 0,
        })
    }

    /// Append one train under `epoch`.  The record is flushed before the
    /// call returns; a crash mid-append leaves a torn tail the reader
    /// truncates, never a half-record that parses.
    pub fn append(&mut self, epoch: u64, train: &[u8]) -> Result<()> {
        let io = |e: std::io::Error| Pm2Error::Spill(format!("{}: {e}", self.path.display()));
        let mut hdr = [0u8; HDR];
        hdr[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        hdr[4..8].copy_from_slice(&(train.len() as u32).to_le_bytes());
        hdr[8..16].copy_from_slice(&epoch.to_le_bytes());
        hdr[16..24].copy_from_slice(&fnv1a(train).to_le_bytes());
        self.file.write_all(&hdr).map_err(io)?;
        self.file.write_all(train).map_err(io)?;
        self.file.flush().map_err(io)?;
        self.records += 1;
        Ok(())
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whole frames currently in the log.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Whether the log has outgrown its last compaction by more than
    /// [`COMPACT_AFTER`] frames — checked after every checkpoint append.
    pub fn compact_due(&self) -> bool {
        self.records > self.compacted_to + COMPACT_AFTER
    }

    /// Rewrite the log down to the newest record group per tid.  Every
    /// epoch of checkpointing re-writes every live thread, so an
    /// append-only log grows without bound; compaction reclaims the
    /// superseded records while preserving exactly what replay would
    /// recover: for each tid, the same `(epoch, group)` pair, regrouped
    /// into one train per surviving epoch.  The rewrite goes to a temp
    /// file first and lands via atomic rename, so a crash mid-compaction
    /// costs nothing — the old log is intact until the rename commits.
    pub fn compact(&mut self) -> Result<()> {
        let io = |e: std::io::Error| Pm2Error::Spill(format!("{}: {e}", self.path.display()));
        let before = replay(&self.path)?;
        let newest = before.latest_by_tid();
        // One train per surviving epoch (a record carries a single epoch
        // stamp), tids sorted for deterministic output.
        let mut by_epoch: BTreeMap<u64, Vec<(u64, &[u8])>> = BTreeMap::new();
        for (tid, (epoch, group)) in &newest {
            by_epoch.entry(*epoch).or_default().push((*tid, *group));
        }
        let tmp = self.path.with_extension("compact");
        {
            let mut out = SpillLog::open(&tmp)?;
            // A leftover temp from a crashed compaction must not leak its
            // stale records into this one.
            out.file.set_len(0).map_err(io)?;
            out.file.seek(SeekFrom::Start(0)).map_err(io)?;
            out.records = 0;
            for (epoch, mut groups) in by_epoch {
                groups.sort_by_key(|&(tid, _)| tid);
                let train = crate::migration::build_train(&groups);
                out.append(epoch, &train)?;
            }
        }
        std::fs::rename(&tmp, &self.path).map_err(io)?;
        let reopened = SpillLog::open(&self.path)?;
        self.file = reopened.file;
        self.records = reopened.records;
        self.compacted_to = reopened.records;
        Ok(())
    }
}

/// One intact record replayed from a spill log.
#[derive(Debug, Clone)]
pub struct SpillRecord {
    /// The checkpoint epoch the record was written under.
    pub epoch: u64,
    /// The train bytes (replayable through the `MIGRATION` arrival path).
    pub train: Vec<u8>,
}

/// Everything a replay recovered, plus what it had to drop.
#[derive(Debug, Default)]
pub struct SpillReplay {
    /// Intact records in append order.
    pub records: Vec<SpillRecord>,
    /// Complete frames whose checksum did not match (skipped).
    pub corrupt_skipped: usize,
    /// Whether a torn tail (crash mid-append) was cut off.
    pub torn_tail: bool,
}

impl SpillReplay {
    /// The newest checkpointed record group per tid, across every record:
    /// `tid → (epoch, group bytes)`.  Later epochs supersede earlier ones;
    /// equal epochs (one thread twice in a log, e.g. after a re-open)
    /// resolve to the record appended last.
    pub fn latest_by_tid(&self) -> HashMap<u64, (u64, &[u8])> {
        let mut newest: HashMap<u64, (u64, &[u8])> = HashMap::new();
        for rec in &self.records {
            let Ok(groups) = crate::migration::train_groups(&rec.train) else {
                continue; // checksum passed but the table is unreadable
            };
            for (tid, group) in groups {
                let Ok(group) = group else {
                    continue;
                };
                match newest.get(&tid) {
                    Some(&(e, _)) if e > rec.epoch => {}
                    _ => {
                        newest.insert(tid, (rec.epoch, group));
                    }
                }
            }
        }
        newest
    }
}

/// Replay every intact record in the log at `path`.  A missing file is an
/// empty replay (a node that never checkpointed has nothing to recover).
pub fn replay(path: &Path) -> Result<SpillReplay> {
    let io = |e: std::io::Error| Pm2Error::Spill(format!("{}: {e}", path.display()));
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(SpillReplay::default()),
        Err(e) => return Err(io(e)),
    };
    Ok(replay_bytes(&bytes))
}

fn replay_bytes(bytes: &[u8]) -> SpillReplay {
    let mut out = SpillReplay::default();
    let mut off = 0;
    while off < bytes.len() {
        let Some((epoch, sum, body)) = parse_frame(&bytes[off..]) else {
            out.torn_tail = true;
            return out;
        };
        if fnv1a(body) == sum {
            out.records.push(SpillRecord {
                epoch,
                train: body.to_vec(),
            });
        } else {
            out.corrupt_skipped += 1;
        }
        off += HDR + body.len();
    }
    out
}

/// Parse one frame at the head of `bytes`; `None` means torn tail (short
/// header, bad magic, or a body the buffer cannot hold).
fn parse_frame(bytes: &[u8]) -> Option<(u64, u64, &[u8])> {
    let hdr = bytes.get(..HDR)?;
    if u32::from_le_bytes(hdr[0..4].try_into().expect("4-byte slice")) != MAGIC {
        return None;
    }
    let body_len = u32::from_le_bytes(hdr[4..8].try_into().expect("4-byte slice")) as usize;
    let epoch = u64::from_le_bytes(hdr[8..16].try_into().expect("8-byte slice"));
    let sum = u64::from_le_bytes(hdr[16..24].try_into().expect("8-byte slice"));
    let body = bytes.get(HDR..HDR + body_len)?;
    Some((epoch, sum, body))
}

/// Byte length of the longest prefix of `file` made of whole frames (the
/// cut point for torn-tail truncation on re-open), plus how many frames
/// it holds.  Frames with bad checksums still count — their *framing* is
/// sound, and the replayer skips them by content.
fn sound_prefix(file: &mut File) -> std::io::Result<(u64, usize)> {
    let mut bytes = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut bytes)?;
    let mut off = 0;
    let mut frames = 0;
    while off < bytes.len() {
        match parse_frame(&bytes[off..]) {
            Some((_, _, body)) => {
                off += HDR + body.len();
                frames += 1;
            }
            None => break,
        }
    }
    Ok((off as u64, frames))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "pm2-spill-{}-{}-{}.log",
            std::process::id(),
            name,
            n
        ))
    }

    /// A minimal valid train: one thread, one fake record group.
    fn fake_train(tid: u64, fill: u8) -> Vec<u8> {
        crate::migration::build_train(&[(tid, &[fill; 32])])
    }

    #[test]
    fn roundtrip_and_append_order() {
        let p = scratch("roundtrip");
        let mut log = SpillLog::open(&p).unwrap();
        log.append(1, &fake_train(7, 0xAA)).unwrap();
        log.append(2, &fake_train(8, 0xBB)).unwrap();
        let r = replay(&p).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.corrupt_skipped, 0);
        assert!(!r.torn_tail);
        assert_eq!(r.records[0].epoch, 1);
        assert_eq!(r.records[1].epoch, 2);
        let by_tid = r.latest_by_tid();
        assert_eq!(by_tid.len(), 2);
        assert_eq!(by_tid[&7].0, 1);
        assert_eq!(by_tid[&8].0, 2);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn missing_and_empty_files_replay_empty() {
        let p = scratch("missing");
        let r = replay(&p).unwrap();
        assert!(r.records.is_empty() && !r.torn_tail);
        std::fs::write(&p, b"").unwrap();
        let r = replay(&p).unwrap();
        assert!(r.records.is_empty() && !r.torn_tail);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let p = scratch("torn");
        let mut log = SpillLog::open(&p).unwrap();
        log.append(1, &fake_train(7, 0x11)).unwrap();
        log.append(2, &fake_train(7, 0x22)).unwrap();
        drop(log);
        // Crash mid-append: a partial header lands after the good records.
        let whole = std::fs::read(&p).unwrap();
        let mut torn = whole.clone();
        torn.extend_from_slice(&MAGIC.to_le_bytes());
        torn.extend_from_slice(&[0x55; 7]); // half a length field + junk
        std::fs::write(&p, &torn).unwrap();
        let r = replay(&p).unwrap();
        assert_eq!(r.records.len(), 2, "records before the tear replay");
        assert!(r.torn_tail);
        // Re-open truncates the tear; the next append lands on a boundary.
        let mut log = SpillLog::open(&p).unwrap();
        assert_eq!(std::fs::metadata(&p).unwrap().len(), whole.len() as u64);
        log.append(3, &fake_train(9, 0x33)).unwrap();
        let r = replay(&p).unwrap();
        assert_eq!(r.records.len(), 3);
        assert!(!r.torn_tail);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn checksum_mismatch_skips_one_record_only() {
        let p = scratch("sum");
        let mut log = SpillLog::open(&p).unwrap();
        log.append(1, &fake_train(7, 0x11)).unwrap();
        let second_at = std::fs::metadata(&p).unwrap().len() as usize;
        log.append(2, &fake_train(8, 0x22)).unwrap();
        log.append(3, &fake_train(9, 0x33)).unwrap();
        drop(log);
        // Flip a body byte in the middle record: framing stays sound.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[second_at + HDR + 10] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let r = replay(&p).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.corrupt_skipped, 1);
        assert!(!r.torn_tail);
        let by_tid = r.latest_by_tid();
        assert!(by_tid.contains_key(&7) && by_tid.contains_key(&9));
        assert!(!by_tid.contains_key(&8), "the corrupt record is gone");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn garbage_file_replays_nothing() {
        let p = scratch("garbage");
        std::fs::write(&p, [0xDE; 300]).unwrap();
        let r = replay(&p).unwrap();
        assert!(r.records.is_empty());
        assert!(r.torn_tail, "unknown magic reads as a tear");
        // Opening for append truncates it to zero and works.
        let mut log = SpillLog::open(&p).unwrap();
        log.append(1, &fake_train(7, 0x11)).unwrap();
        assert_eq!(replay(&p).unwrap().records.len(), 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn compaction_preserves_replay_and_shrinks_the_log() {
        let p = scratch("compact");
        let mut log = SpillLog::open(&p).unwrap();
        // Three epochs of two threads plus one thread that stops being
        // checkpointed after epoch 1 (exited or migrated away — its
        // newest record must survive compaction regardless).
        log.append(
            1,
            &crate::migration::build_train(&[(7, &[0x17; 24]), (8, &[0x18; 24]), (9, &[0x19; 24])]),
        )
        .unwrap();
        for epoch in 2..=3 {
            let fill = epoch as u8;
            log.append(
                epoch,
                &crate::migration::build_train(&[(7, &[fill; 24]), (8, &[fill ^ 0xFF; 24])]),
            )
            .unwrap();
        }
        assert_eq!(log.records(), 3);
        let before: Vec<(u64, u64, Vec<u8>)> = {
            let r = replay(&p).unwrap();
            let mut v: Vec<_> = r
                .latest_by_tid()
                .into_iter()
                .map(|(tid, (e, g))| (tid, e, g.to_vec()))
                .collect();
            v.sort();
            v
        };
        let bytes_before = std::fs::metadata(&p).unwrap().len();

        log.compact().unwrap();

        let after: Vec<(u64, u64, Vec<u8>)> = {
            let r = replay(&p).unwrap();
            assert_eq!(r.corrupt_skipped, 0);
            assert!(!r.torn_tail);
            let mut v: Vec<_> = r
                .latest_by_tid()
                .into_iter()
                .map(|(tid, (e, g))| (tid, e, g.to_vec()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(after, before, "replay is byte-identical per tid");
        assert!(
            std::fs::metadata(&p).unwrap().len() < bytes_before,
            "superseded records were reclaimed"
        );
        // Two surviving epochs (1 for tid 9, 3 for tids 7/8) → two frames.
        assert_eq!(log.records(), 2);
        // The handle keeps appending cleanly after the rename.
        log.append(4, &fake_train(7, 0x44)).unwrap();
        assert_eq!(log.records(), 3);
        assert_eq!(replay(&p).unwrap().latest_by_tid()[&7].0, 4);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn compaction_comes_due_relative_to_the_last_floor() {
        let p = scratch("due");
        let mut log = SpillLog::open(&p).unwrap();
        // Every epoch keeps a survivor, so compaction cannot shrink the log.
        for epoch in 1..=COMPACT_AFTER as u64 + 1 {
            assert!(!log.compact_due());
            log.append(epoch, &fake_train(epoch, 0x11)).unwrap();
        }
        assert!(log.compact_due());
        log.compact().unwrap();
        assert_eq!(log.records(), COMPACT_AFTER + 1);
        assert!(!log.compact_due(), "the floor moved up with the survivors");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn open_counts_existing_records() {
        let p = scratch("count");
        let mut log = SpillLog::open(&p).unwrap();
        log.append(1, &fake_train(7, 0x11)).unwrap();
        log.append(2, &fake_train(8, 0x22)).unwrap();
        drop(log);
        let log = SpillLog::open(&p).unwrap();
        assert_eq!(log.records(), 2);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn epoch_supersession_picks_the_newest_checkpoint() {
        let p = scratch("epoch");
        let mut log = SpillLog::open(&p).unwrap();
        log.append(1, &fake_train(7, 0x01)).unwrap();
        log.append(2, &fake_train(7, 0x02)).unwrap();
        // Two threads in one train at epoch 3.
        let t = crate::migration::build_train(&[(7, &[0x03; 16]), (8, &[0x30; 16])]);
        log.append(3, &t).unwrap();
        let r = replay(&p).unwrap();
        let by_tid = r.latest_by_tid();
        let (epoch, group) = by_tid[&7];
        assert_eq!(epoch, 3);
        assert_eq!(group, &[0x03; 16]);
        assert_eq!(by_tid[&8].0, 3);
        std::fs::remove_file(&p).unwrap();
    }
}
