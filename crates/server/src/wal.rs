//! Stream Server metadata durability: transaction log + checkpoints.
//!
//! "The Stream Server has its own in memory metadata about its Streamlets
//! and Fragments, and persists this by writing to a transaction log and
//! periodically writing checkpoints. After writing a checkpoint, old
//! transaction logs and checkpoints are garbage collected. Fragments,
//! checkpoints, and transaction logs are all stored in Colossus." (§5.3)
//!
//! The log records streamlet lifecycle events; a checkpoint snapshots the
//! full hosted-streamlet map. Recovery replays checkpoint + newer log
//! records. Recovered streamlets come back *revoked* — a restarted server
//! never resumes writing to old log files (the SMS reconciles and places
//! a fresh streamlet instead, §5.2), but it can still serve metadata,
//! heartbeat, and GC for them.

use vortex_colossus::Colossus;
use vortex_common::codec::{get_len, get_uvarint, put_uvarint, take};
use vortex_common::error::{VortexError, VortexResult};
use vortex_common::frame;
use vortex_common::ids::{ServerId, StreamletId, TableId};
use vortex_common::obs::{Counter, Lazy, Registry, GROUP_COMMIT_WAL_EVENTS};
use vortex_common::truetime::Timestamp;

static RECORDS_LOGGED: Lazy<Counter> = Lazy::new("wal.records_logged", Registry::counter);
static WAL_EVENTS: Lazy<Counter> = Lazy::new(GROUP_COMMIT_WAL_EVENTS, Registry::counter);

/// One durable metadata event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEvent {
    /// A streamlet was created on this server.
    StreamletOpened {
        /// Owning table.
        table: TableId,
        /// The streamlet.
        streamlet: StreamletId,
        /// Stream-level first row.
        first_stream_row: u64,
    },
    /// A fragment was sealed (rotation or finalize).
    FragmentSealed {
        /// The streamlet.
        streamlet: StreamletId,
        /// Sealed fragment's ordinal.
        ordinal: u32,
        /// Committed size in bytes.
        committed_size: u64,
        /// Committed rows.
        rows: u64,
    },
    /// The streamlet stopped accepting appends.
    StreamletFinalized {
        /// The streamlet.
        streamlet: StreamletId,
    },
    /// Fragment log files were garbage collected.
    FragmentsDeleted {
        /// The streamlet.
        streamlet: StreamletId,
        /// Deleted ordinals.
        ordinals: Vec<u32>,
    },
}

impl WalEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalEvent::StreamletOpened {
                table,
                streamlet,
                first_stream_row,
            } => {
                out.push(1);
                put_uvarint(out, table.raw());
                put_uvarint(out, streamlet.raw());
                put_uvarint(out, *first_stream_row);
            }
            WalEvent::FragmentSealed {
                streamlet,
                ordinal,
                committed_size,
                rows,
            } => {
                out.push(2);
                put_uvarint(out, streamlet.raw());
                put_uvarint(out, *ordinal as u64);
                put_uvarint(out, *committed_size);
                put_uvarint(out, *rows);
            }
            WalEvent::StreamletFinalized { streamlet } => {
                out.push(3);
                put_uvarint(out, streamlet.raw());
            }
            WalEvent::FragmentsDeleted {
                streamlet,
                ordinals,
            } => {
                out.push(4);
                put_uvarint(out, streamlet.raw());
                put_uvarint(out, ordinals.len() as u64);
                for o in ordinals {
                    put_uvarint(out, *o as u64);
                }
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> VortexResult<Self> {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| VortexError::Decode("wal event tag".into()))?;
        *pos += 1;
        Ok(match tag {
            1 => WalEvent::StreamletOpened {
                table: TableId::from_raw(get_uvarint(buf, pos)?),
                streamlet: StreamletId::from_raw(get_uvarint(buf, pos)?),
                first_stream_row: get_uvarint(buf, pos)?,
            },
            2 => WalEvent::FragmentSealed {
                streamlet: StreamletId::from_raw(get_uvarint(buf, pos)?),
                ordinal: get_uvarint(buf, pos)? as u32,
                committed_size: get_uvarint(buf, pos)?,
                rows: get_uvarint(buf, pos)?,
            },
            3 => WalEvent::StreamletFinalized {
                streamlet: StreamletId::from_raw(get_uvarint(buf, pos)?),
            },
            4 => {
                let streamlet = StreamletId::from_raw(get_uvarint(buf, pos)?);
                let n = get_uvarint(buf, pos)? as usize;
                if n > buf.len() {
                    return Err(VortexError::Decode("wal ordinals count".into()));
                }
                let mut ordinals = Vec::with_capacity(n);
                for _ in 0..n {
                    ordinals.push(get_uvarint(buf, pos)? as u32);
                }
                WalEvent::FragmentsDeleted {
                    streamlet,
                    ordinals,
                }
            }
            other => return Err(VortexError::Decode(format!("bad wal tag {other}"))),
        })
    }
}

/// One hosted streamlet as a shard checkpoint records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The streamlet.
    pub streamlet: StreamletId,
    /// Owning table.
    pub table: TableId,
    /// Committed streamlet-relative rows at checkpoint time.
    pub rows: u64,
    /// Sealed fragments at checkpoint time.
    pub fragments: u64,
    /// Whether the streamlet still accepted appends.
    pub writable: bool,
}

/// Encodes a shard's checkpoint snapshot: `count`, then per streamlet
/// `streamlet | table | rows | fragments` (uvarints) and a writable byte.
pub fn encode_snapshot(entries: impl ExactSizeIterator<Item = SnapshotEntry>) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, entries.len() as u64);
    for e in entries {
        put_uvarint(&mut out, e.streamlet.raw());
        put_uvarint(&mut out, e.table.raw());
        put_uvarint(&mut out, e.rows);
        put_uvarint(&mut out, e.fragments);
        out.push(e.writable as u8);
    }
    out
}

/// Decodes [`encode_snapshot`] output; truncation anywhere is an error.
pub fn decode_snapshot(buf: &[u8]) -> VortexResult<Vec<SnapshotEntry>> {
    let pos = &mut 0usize;
    // Every entry is at least five bytes, so the count is bounded by the
    // remaining input like a byte length is.
    let n = get_len(buf, pos)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(SnapshotEntry {
            streamlet: StreamletId::from_raw(get_uvarint(buf, pos)?),
            table: TableId::from_raw(get_uvarint(buf, pos)?),
            rows: get_uvarint(buf, pos)?,
            fragments: get_uvarint(buf, pos)?,
            writable: take(buf, pos, 1)?[0] != 0,
        });
    }
    Ok(entries)
}

fn wal_path(server: ServerId, shard: u32, epoch: u64) -> String {
    format!("srv/{:016x}/s{:02x}/wal.{:08x}", server.raw(), shard, epoch)
}

fn checkpoint_path(server: ServerId, shard: u32, epoch: u64) -> String {
    format!(
        "srv/{:016x}/s{:02x}/ckpt.{:08x}",
        server.raw(),
        shard,
        epoch
    )
}

fn shard_prefix(server: ServerId, shard: u32) -> String {
    format!("srv/{:016x}/s{:02x}/", server.raw(), shard)
}

/// Prefix of a shard's WAL files; the epoch in hex follows.
fn wal_prefix(server: ServerId, shard: u32) -> String {
    shard_prefix(server, shard) + "wal."
}

/// Prefix of a shard's checkpoint files; the epoch in hex follows.
fn checkpoint_prefix(server: ServerId, shard: u32) -> String {
    shard_prefix(server, shard) + "ckpt."
}

fn srv_prefix(server: ServerId) -> String {
    format!("srv/{:016x}/", server.raw())
}

/// Shard directories present under a server's log prefix — how recovery
/// discovers a dead incarnation's shards without assuming the restarted
/// server runs the same shard count.
pub fn shards_present(server: ServerId, cluster: &Colossus) -> VortexResult<Vec<u32>> {
    let prefix = srv_prefix(server);
    let mut shards: Vec<u32> = cluster
        .list(&prefix)?
        .iter()
        .filter_map(|p| p.strip_prefix(&prefix))
        .filter_map(|rest| rest.split('/').next())
        .filter_map(|dir| dir.strip_prefix('s'))
        .filter_map(|hex| u32::from_str_radix(hex, 16).ok())
        .collect();
    shards.sort_unstable();
    shards.dedup();
    Ok(shards)
}

/// One shard's metadata log, bound to the server's home cluster. Each
/// shard thread owns its log outright (single writer): records from
/// different shards never interleave within a file, so a group commit's
/// events always land as one contiguous, CRC-framed record.
pub struct ServerLog {
    server: ServerId,
    shard: u32,
    epoch: u64,
    // Reused encode scratch: the group-commit hot path appends into these
    // pre-grown arenas instead of allocating per record.
    body: Vec<u8>,
    rec: Vec<u8>,
}

impl ServerLog {
    /// Opens one shard's log, starting a fresh epoch after any existing
    /// ones.
    pub fn open(server: ServerId, shard: u32, cluster: &Colossus) -> VortexResult<Self> {
        let mut existing = cluster.list_numbered(&wal_prefix(server, shard))?;
        existing.extend(cluster.list_numbered(&checkpoint_prefix(server, shard))?);
        let epoch = existing.iter().map(|(e, _)| e + 1).max().unwrap_or(0);
        Ok(Self {
            server,
            shard,
            epoch,
            body: Vec::with_capacity(256), // lint:allow(L010, open-path arena preallocation; hot edge is a name-resolved fs `open`)
            rec: Vec::with_capacity(256), // lint:allow(L010, open-path arena preallocation; hot edge is a name-resolved fs `open`)
        })
    }

    /// Appends one event (length- and CRC-framed).
    pub fn log(&mut self, cluster: &Colossus, event: &WalEvent) -> VortexResult<()> {
        self.log_batch(cluster, std::slice::from_ref(event))
    }

    /// Appends a group commit's events as ONE record-aligned WAL append:
    /// the whole batch shares a single length + CRC frame, so a torn
    /// write truncates recovery to a whole-group prefix — a group's
    /// events are all replayed or none are (§5.3 durability at group
    /// granularity).
    pub fn log_batch(&mut self, cluster: &Colossus, events: &[WalEvent]) -> VortexResult<()> {
        if events.is_empty() {
            return Ok(());
        }
        self.body.clear();
        self.rec.clear();
        for event in events {
            event.encode(&mut self.body);
        }
        frame::put_frame(&mut self.rec, &self.body);
        cluster.append(
            &wal_path(self.server, self.shard, self.epoch),
            &self.rec,
            Timestamp::MIN,
        )?;
        // WAL leg of the append path: one durable record per group.
        RECORDS_LOGGED.inc();
        WAL_EVENTS.add(events.len() as u64);
        Ok(())
    }

    /// Writes a checkpoint of opaque snapshot bytes and garbage-collects
    /// all older WAL/checkpoint files (§5.3).
    pub fn checkpoint(&mut self, cluster: &Colossus, snapshot: &[u8]) -> VortexResult<()> {
        self.epoch += 1;
        cluster.append(
            &checkpoint_path(self.server, self.shard, self.epoch),
            &frame::framed(snapshot),
            Timestamp::MIN,
        )?;
        // A crash here leaves the new checkpoint durable but the old
        // epoch's files un-collected; recovery prefers the newest intact
        // checkpoint, so the stale files are harmless until the next
        // successful checkpoint sweeps them.
        vortex_common::crash_point!("server.checkpoint.mid");
        // GC older logs and checkpoints (this shard's directory only —
        // sibling shards own their files).
        for p in cluster.list(&shard_prefix(self.server, self.shard))? {
            let keep_wal = p == wal_path(self.server, self.shard, self.epoch);
            let keep_ckpt = p == checkpoint_path(self.server, self.shard, self.epoch);
            if !keep_wal && !keep_ckpt {
                let _ = cluster.delete(&p);
            }
        }
        Ok(())
    }

    /// Recovers the newest *intact* checkpoint (if any) and all events
    /// logged after it.
    ///
    /// A server can die mid-`checkpoint` — after a torn append left a
    /// truncated or CRC-damaged `ckpt.{epoch}` file, but before the
    /// older epoch's files were garbage collected (GC only runs once the
    /// checkpoint append succeeded). Recovery therefore walks checkpoint
    /// epochs newest→oldest and takes the first one whose framing and
    /// CRC validate; the surviving WAL files from that epoch onward
    /// replay on top. If *no* checkpoint validates, the torn checkpoint
    /// simply never happened: recover from the WAL alone.
    pub fn recover(
        server: ServerId,
        shard: u32,
        cluster: &Colossus,
    ) -> VortexResult<(Option<Vec<u8>>, Vec<WalEvent>)> {
        let checkpoints = cluster.list_numbered(&checkpoint_prefix(server, shard))?;
        let mut snapshot = None;
        let mut snapshot_epoch = None;
        // Newest first.
        for (e, path) in checkpoints.into_iter().rev() {
            let data = cluster.read_all(&path)?.data;
            // A truncated or CRC-damaged file (a torn checkpoint append
            // persisted only a prefix) has no intact frame.
            if let Some(body) = frame::read_frames(&data).0.first() {
                snapshot = Some(body.to_vec());
                snapshot_epoch = Some(e);
                break;
            }
            // Torn or corrupt checkpoint: fall back to the previous one.
        }
        // Replay WAL files with epoch >= the recovered checkpoint epoch
        // (those written after it), in epoch order.
        let min_epoch = snapshot_epoch.unwrap_or(0);
        let wals = cluster.list_numbered(&wal_prefix(server, shard))?;
        let mut events = Vec::new();
        for (_, path) in wals.into_iter().filter(|(e, _)| *e >= min_epoch) {
            let data = cluster.read_all(&path)?.data;
            // A torn tail ends the file's replay. One record may carry a
            // whole group commit's events: decode until the body is
            // exhausted. A torn append never splits a group — the CRC
            // frame covers all of it.
            for body in frame::read_frames(&data).0 {
                let mut bp = 0usize;
                while bp < body.len() {
                    events.push(WalEvent::decode(body, &mut bp)?);
                }
            }
        }
        Ok((snapshot, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_common::ids::ClusterId;
    use vortex_common::latency::WriteProfile;

    fn cluster() -> std::sync::Arc<Colossus> {
        Colossus::new_mem(ClusterId::from_raw(0), WriteProfile::instant(), 3)
    }

    fn ev(i: u64) -> WalEvent {
        WalEvent::FragmentSealed {
            streamlet: StreamletId::from_raw(i),
            ordinal: i as u32,
            committed_size: i * 100,
            rows: i * 10,
        }
    }

    #[test]
    fn snapshot_round_trips_and_every_truncation_is_an_error() {
        let entries: Vec<SnapshotEntry> = (0..5u64)
            .map(|i| SnapshotEntry {
                streamlet: StreamletId::from_raw(1_000 + i * 300),
                table: TableId::from_raw(7),
                rows: i * 1_000_000,
                fragments: i,
                writable: i % 2 == 0,
            })
            .collect();
        let bytes = encode_snapshot(entries.iter().copied());
        assert_eq!(decode_snapshot(&bytes).unwrap(), entries);
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A count that promises more entries than there are bytes is
        // refused before anything is allocated for it.
        let mut huge = Vec::new();
        put_uvarint(&mut huge, u64::MAX);
        assert!(decode_snapshot(&huge).is_err());
    }

    #[test]
    fn log_and_recover_events() {
        let c = cluster();
        let srv = ServerId::from_raw(5);
        let mut log = ServerLog::open(srv, 0, &c).unwrap();
        let events = vec![
            WalEvent::StreamletOpened {
                table: TableId::from_raw(1),
                streamlet: StreamletId::from_raw(2),
                first_stream_row: 0,
            },
            ev(1),
            WalEvent::StreamletFinalized {
                streamlet: StreamletId::from_raw(2),
            },
            WalEvent::FragmentsDeleted {
                streamlet: StreamletId::from_raw(2),
                ordinals: vec![0, 1, 2],
            },
        ];
        for e in &events {
            log.log(&c, e).unwrap();
        }
        let (snap, recovered) = ServerLog::recover(srv, 0, &c).unwrap();
        assert!(snap.is_none());
        assert_eq!(recovered, events);
    }

    #[test]
    fn checkpoint_truncates_history() {
        let c = cluster();
        let srv = ServerId::from_raw(6);
        let mut log = ServerLog::open(srv, 0, &c).unwrap();
        log.log(&c, &ev(1)).unwrap();
        log.log(&c, &ev(2)).unwrap();
        log.checkpoint(&c, b"SNAPSHOT-STATE").unwrap();
        log.log(&c, &ev(3)).unwrap();
        let (snap, events) = ServerLog::recover(srv, 0, &c).unwrap();
        assert_eq!(snap.as_deref(), Some(&b"SNAPSHOT-STATE"[..]));
        assert_eq!(events, vec![ev(3)], "pre-checkpoint events dropped");
        // Old files physically gone.
        let files = c.list(&shard_prefix(srv, 0)).unwrap();
        assert_eq!(files.len(), 2, "one ckpt + one wal: {files:?}");
    }

    #[test]
    fn torn_wal_tail_is_ignored() {
        let c = cluster();
        let srv = ServerId::from_raw(7);
        let mut log = ServerLog::open(srv, 0, &c).unwrap();
        log.log(&c, &ev(1)).unwrap();
        // Simulate a torn record: append garbage.
        c.append(&wal_path(srv, 0, 0), &[9, 1, 2], Timestamp::MIN)
            .unwrap();
        let (_, events) = ServerLog::recover(srv, 0, &c).unwrap();
        assert_eq!(events, vec![ev(1)]);
    }

    /// Regression: a tail whose length varint is near `u64::MAX` used to
    /// overflow the replay loop's bounds check and panic on the slice.
    #[test]
    fn maximal_length_varint_tail_is_ignored() {
        let c = cluster();
        let srv = ServerId::from_raw(15);
        let mut log = ServerLog::open(srv, 0, &c).unwrap();
        log.log(&c, &ev(1)).unwrap();
        let mut tail = Vec::new();
        put_uvarint(&mut tail, u64::MAX - 2);
        tail.extend_from_slice(&[0xAB; 8]);
        c.append(&wal_path(srv, 0, 0), &tail, Timestamp::MIN)
            .unwrap();
        let (_, events) = ServerLog::recover(srv, 0, &c).unwrap();
        assert_eq!(events, vec![ev(1)]);
    }

    #[test]
    fn reopen_starts_new_epoch() {
        let c = cluster();
        let srv = ServerId::from_raw(8);
        let mut log1 = ServerLog::open(srv, 0, &c).unwrap();
        log1.log(&c, &ev(1)).unwrap();
        let mut log2 = ServerLog::open(srv, 0, &c).unwrap();
        log2.log(&c, &ev(2)).unwrap();
        let (_, events) = ServerLog::recover(srv, 0, &c).unwrap();
        assert_eq!(events, vec![ev(1), ev(2)]);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_previous_intact_one() {
        let c = cluster();
        let srv = ServerId::from_raw(9);
        let mut log = ServerLog::open(srv, 0, &c).unwrap();
        log.checkpoint(&c, b"GOOD").unwrap();
        // A newer bogus checkpoint (as if the server died after a torn
        // checkpoint append) must not poison recovery.
        let bogus_path = checkpoint_path(srv, 0, 99);
        c.append(&bogus_path, &[0xFF; 10], Timestamp::MIN).unwrap();
        let (snap, _) = ServerLog::recover(srv, 0, &c).unwrap();
        assert_eq!(snap.as_deref(), Some(&b"GOOD"[..]));
    }

    #[test]
    fn torn_checkpoint_tail_recovers_previous_state() {
        let c = cluster();
        let srv = ServerId::from_raw(10);
        let mut log = ServerLog::open(srv, 0, &c).unwrap();
        log.log(&c, &ev(1)).unwrap();
        log.checkpoint(&c, b"FIRST").unwrap();
        log.log(&c, &ev(2)).unwrap();
        // The next checkpoint append tears: only a prefix lands, and the
        // checkpoint call fails *before* GC runs, so the first
        // checkpoint and its newer WAL records survive.
        c.faults().set_torn_seed(7);
        c.faults().torn_next_appends(1);
        assert!(log.checkpoint(&c, b"SECOND").is_err());
        let (snap, events) = ServerLog::recover(srv, 0, &c).unwrap();
        assert_eq!(snap.as_deref(), Some(&b"FIRST"[..]));
        assert_eq!(events, vec![ev(2)], "post-checkpoint events replayed");
    }

    #[test]
    fn all_checkpoints_torn_recovers_from_wal_alone() {
        let c = cluster();
        let srv = ServerId::from_raw(11);
        let mut log = ServerLog::open(srv, 0, &c).unwrap();
        log.log(&c, &ev(1)).unwrap();
        // The very first checkpoint tears: there is no older intact one,
        // so recovery behaves as if no checkpoint was ever taken.
        c.faults().set_torn_seed(3);
        c.faults().torn_next_appends(1);
        assert!(log.checkpoint(&c, b"ONLY").is_err());
        let (snap, events) = ServerLog::recover(srv, 0, &c).unwrap();
        assert!(snap.is_none());
        assert_eq!(events, vec![ev(1)]);
    }

    #[test]
    fn batch_is_one_record_and_roundtrips() {
        let c = cluster();
        let srv = ServerId::from_raw(12);
        let mut log = ServerLog::open(srv, 0, &c).unwrap();
        let group = vec![ev(1), ev(2), ev(3)];
        log.log_batch(&c, &group).unwrap();
        // One record-aligned frame: a single uvarint length covers the
        // whole group's bytes, then one CRC trailer.
        let data = c.read_all(&wal_path(srv, 0, 0)).unwrap().data;
        let mut pos = 0usize;
        let n = get_uvarint(&data, &mut pos).unwrap() as usize;
        assert_eq!(pos + n + 4, data.len(), "exactly one frame in the file");
        let (_, events) = ServerLog::recover(srv, 0, &c).unwrap();
        assert_eq!(events, group, "all of the group's events replay");
    }

    #[test]
    fn torn_group_truncates_to_whole_group_prefix() {
        let c = cluster();
        let srv = ServerId::from_raw(13);
        let mut log = ServerLog::open(srv, 0, &c).unwrap();
        let group_a = vec![ev(1), ev(2)];
        log.log_batch(&c, &group_a).unwrap();
        // The next group's append tears mid-record: a prefix of its
        // bytes lands, the CRC frame cannot validate, and recovery must
        // truncate to the whole-group prefix — group A intact, nothing
        // of group B, never a partial group.
        c.faults().set_torn_seed(11);
        c.faults().torn_next_appends(1);
        let group_b = vec![ev(3), ev(4), ev(5)];
        assert!(log.log_batch(&c, &group_b).is_err());
        let (_, events) = ServerLog::recover(srv, 0, &c).unwrap();
        assert_eq!(events, group_a, "whole-group prefix, no partial group");
        // A later group on the same epoch still lands and replays after
        // the torn frame is skipped... the torn bytes sit mid-file, so
        // recovery stops at them: epoch hygiene means a real restart
        // would open a fresh epoch. Verify the stop is at the group
        // boundary by appending on a NEW epoch (fresh open).
        let mut log2 = ServerLog::open(srv, 0, &c).unwrap();
        log2.log_batch(&c, &[ev(6)]).unwrap();
        let (_, events) = ServerLog::recover(srv, 0, &c).unwrap();
        assert_eq!(events, vec![ev(1), ev(2), ev(6)]);
    }

    #[test]
    fn shards_present_lists_every_shard_dir() {
        let c = cluster();
        let srv = ServerId::from_raw(14);
        for shard in [0u32, 1, 3] {
            let mut log = ServerLog::open(srv, shard, &c).unwrap();
            log.log(&c, &ev(u64::from(shard) + 1)).unwrap();
        }
        assert_eq!(shards_present(srv, &c).unwrap(), vec![0, 1, 3]);
        // Shard logs are isolated: each recovers only its own events.
        let (_, events) = ServerLog::recover(srv, 1, &c).unwrap();
        assert_eq!(events, vec![ev(2)]);
    }
}
