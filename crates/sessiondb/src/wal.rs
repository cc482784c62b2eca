//! Write-ahead log: crash durability for the unsealed segment.
//!
//! [`crate::StoreWriter`] buffers up to `rows_per_segment` sessions in
//! memory before sealing them into a segment file, so without a WAL a
//! crash silently discards everything since the last seal. A writer
//! opened with a WAL appends every record here *before* it enters the
//! in-memory segment buffer; after a crash, [`replay`] returns the
//! longest valid prefix of those records so recovery can re-seal them
//! into a real segment.
//!
//! # Layout
//!
//! One `wal.hswal` file per store directory:
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header  magic "HSWL" · version u16 · flags u16               |
//! |         · segment_index u64 · crc32(header)         (20 B)   |
//! +--------------------------------------------------------------+
//! | frame   len u32 · crc32(payload) u32 · payload               |
//! | frame   ...                                                  |
//! +--------------------------------------------------------------+
//! ```
//!
//! Each frame holds one self-contained [`SessionRecord`] (strings
//! inline, no dictionary — WAL frames must be independently decodable
//! because any suffix of the file can be torn off by a crash). The
//! header's `segment_index` records which segment the frames belong to;
//! recovery uses it to discard a WAL made stale by a crash that landed
//! *between* sealing that segment and truncating the log.
//!
//! # Torn writes
//!
//! A crash can leave a partial frame at the tail (or, on pathological
//! storage, flip bits anywhere). [`replay`] walks frames until the
//! first one whose length overruns the file or whose CRC mismatches,
//! and cleanly reports everything before it as recovered and the rest
//! as lost bytes — never a panic, never a garbage row.

use crate::segment::{
    put_i64, put_u16, put_u32, put_u64, sync_dir, Cursor, OP_CREATED, OP_DELETED,
    OP_DOWNLOAD_FAILED, OP_EXEC_HASH, OP_EXEC_MISSING, OP_MODIFIED,
};
use crate::{SessionDbError, WAL_MAGIC, WAL_VERSION};
use honeypot::{
    CommandRecord, FileEvent, FileOp, LoginAttempt, Protocol, SessionEndReason, SessionRecord,
};
use hutil::{crc32, DateTime};
use netsim::Ipv4Addr;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Byte length of the fixed WAL header.
pub const WAL_HEADER_LEN: usize = 20;

/// How often the WAL forces its appended frames to stable storage.
///
/// The policy bounds what a *power loss* can take: with `EveryN(n)`, at
/// most the last `n - 1` acknowledged sessions plus the one in flight.
/// A plain process kill (SIGKILL, OOM) loses nothing regardless of
/// policy — written bytes survive in the page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync; the OS flushes when it pleases.
    Never,
    /// Fsync at the end of an append once at least `n` records are
    /// unsynced (`EveryN(1)` = every append, one fsync per batch). The
    /// contained value is never 0.
    EveryN(u32),
}

impl FsyncPolicy {
    /// Policy from a CLI-style count: 0 means never, `n` means every
    /// `n` records.
    pub fn every(n: u32) -> Self {
        if n == 0 {
            FsyncPolicy::Never
        } else {
            FsyncPolicy::EveryN(n)
        }
    }
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(1)
    }
}

fn header_bytes(segment_index: u64) -> [u8; WAL_HEADER_LEN] {
    let mut h = Vec::with_capacity(WAL_HEADER_LEN);
    h.extend_from_slice(&WAL_MAGIC);
    put_u16(&mut h, WAL_VERSION);
    put_u16(&mut h, 0); // flags
    put_u64(&mut h, segment_index);
    let crc = crc32(&h);
    put_u32(&mut h, crc);
    h.try_into().expect("fixed header length")
}

// --- record codec --------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

/// Serializes one record as a self-contained WAL payload.
#[cfg(test)]
pub(crate) fn encode_record(rec: &SessionRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    encode_record_into(&mut out, rec);
    out
}

/// Appends one framed record (`len · crc32 · payload`) to `out`.
fn put_frame(out: &mut Vec<u8>, rec: &SessionRecord) {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    encode_record_into(out, rec);
    let payload = &out[at + 8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Appends the self-contained WAL payload of `rec` to `out`.
fn encode_record_into(out: &mut Vec<u8>, rec: &SessionRecord) {
    put_u64(out, rec.session_id);
    put_u16(out, rec.honeypot_id);
    put_u32(out, rec.honeypot_ip.0);
    put_u32(out, rec.client_ip.0);
    put_u16(out, rec.client_port);
    out.push(match rec.protocol {
        Protocol::Ssh => 0,
        Protocol::Telnet => 1,
    });
    put_i64(out, rec.start.unix());
    put_i64(out, rec.end.unix());
    out.push(match rec.end_reason {
        SessionEndReason::ClientClose => 0,
        SessionEndReason::Timeout => 1,
    });
    put_opt_str(out, rec.client_version.as_deref());

    put_u32(out, rec.logins.len() as u32);
    for l in &rec.logins {
        put_str(out, &l.username);
        put_str(out, &l.password);
        out.push(u8::from(l.success));
    }
    put_u32(out, rec.commands.len() as u32);
    for c in &rec.commands {
        put_str(out, &c.input);
        out.push(u8::from(c.known));
    }
    put_u32(out, rec.uris.len() as u32);
    for u in &rec.uris {
        put_str(out, u);
    }
    put_u32(out, rec.file_events.len() as u32);
    for e in &rec.file_events {
        put_str(out, &e.path);
        let (tag, hash) = match &e.op {
            FileOp::Created { sha256 } => (OP_CREATED, Some(sha256.as_str())),
            FileOp::Modified { sha256 } => (OP_MODIFIED, Some(sha256.as_str())),
            FileOp::Deleted => (OP_DELETED, None),
            FileOp::ExecAttempt { sha256: Some(h) } => (OP_EXEC_HASH, Some(h.as_str())),
            FileOp::ExecAttempt { sha256: None } => (OP_EXEC_MISSING, None),
            FileOp::DownloadFailed => (OP_DOWNLOAD_FAILED, None),
        };
        out.push(tag);
        if let Some(h) = hash {
            put_str(out, h);
        }
        put_opt_str(out, e.source_uri.as_deref());
    }
}

fn take_str(c: &mut Cursor<'_>) -> Result<String, String> {
    let len = c.u32()? as usize;
    let bytes = c.take(len)?;
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|e| format!("string is not UTF-8: {e}"))
}

fn take_opt_str(c: &mut Cursor<'_>) -> Result<Option<String>, String> {
    match c.take(1)?[0] {
        0 => Ok(None),
        1 => take_str(c).map(Some),
        t => Err(format!("bad option tag {t}")),
    }
}

/// Inverse of [`encode_record`].
pub(crate) fn decode_record(payload: &[u8]) -> Result<SessionRecord, String> {
    let mut c = Cursor::new(payload);
    let session_id = c.u64()?;
    let honeypot_id = c.u16()?;
    let honeypot_ip = Ipv4Addr(c.u32()?);
    let client_ip = Ipv4Addr(c.u32()?);
    let client_port = c.u16()?;
    let protocol = match c.take(1)?[0] {
        0 => Protocol::Ssh,
        1 => Protocol::Telnet,
        t => return Err(format!("unknown protocol tag {t}")),
    };
    let start = DateTime::from_unix(c.i64()?);
    let end = DateTime::from_unix(c.i64()?);
    let end_reason = match c.take(1)?[0] {
        0 => SessionEndReason::ClientClose,
        1 => SessionEndReason::Timeout,
        t => return Err(format!("unknown end-reason tag {t}")),
    };
    let client_version = take_opt_str(&mut c)?;

    let n = c.u32()? as usize;
    let mut logins = Vec::with_capacity(n.min(payload.len() / 8));
    for _ in 0..n {
        logins.push(LoginAttempt {
            username: take_str(&mut c)?,
            password: take_str(&mut c)?,
            success: c.take(1)?[0] != 0,
        });
    }
    let n = c.u32()? as usize;
    let mut commands = Vec::with_capacity(n.min(payload.len() / 8));
    for _ in 0..n {
        commands.push(CommandRecord {
            input: take_str(&mut c)?,
            known: c.take(1)?[0] != 0,
        });
    }
    let n = c.u32()? as usize;
    let mut uris = Vec::with_capacity(n.min(payload.len() / 8));
    for _ in 0..n {
        uris.push(take_str(&mut c)?);
    }
    let n = c.u32()? as usize;
    let mut file_events = Vec::with_capacity(n.min(payload.len() / 8));
    for _ in 0..n {
        let path = take_str(&mut c)?;
        let op = match c.take(1)?[0] {
            OP_CREATED => FileOp::Created {
                sha256: take_str(&mut c)?,
            },
            OP_MODIFIED => FileOp::Modified {
                sha256: take_str(&mut c)?,
            },
            OP_DELETED => FileOp::Deleted,
            OP_EXEC_HASH => FileOp::ExecAttempt {
                sha256: Some(take_str(&mut c)?),
            },
            OP_EXEC_MISSING => FileOp::ExecAttempt { sha256: None },
            OP_DOWNLOAD_FAILED => FileOp::DownloadFailed,
            t => return Err(format!("unknown file-op tag {t}")),
        };
        let source_uri = take_opt_str(&mut c)?;
        file_events.push(FileEvent {
            path,
            op,
            source_uri,
        });
    }
    if !c.done() {
        return Err("trailing bytes after WAL record".to_string());
    }
    Ok(SessionRecord {
        session_id,
        honeypot_id,
        honeypot_ip,
        client_ip,
        client_port,
        protocol,
        start,
        end,
        end_reason,
        client_version,
        logins,
        commands,
        uris,
        file_events,
    })
}

// --- writer --------------------------------------------------------------

/// Append-side of the log. One lives inside every [`crate::StoreWriter`]
/// opened with a WAL-enabled [`crate::StoreOptions`].
pub struct WalWriter {
    path: PathBuf,
    file: std::fs::File,
    policy: FsyncPolicy,
    unsynced: u32,
    /// Reused frame buffer: a batch goes out in one `write`.
    frames: Vec<u8>,
}

impl WalWriter {
    /// Creates (truncating) the log at `path`, covering the unsealed
    /// segment `segment_index`. The header is written and synced
    /// immediately so the file itself survives a crash.
    pub fn create(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        segment_index: u64,
    ) -> Result<Self, SessionDbError> {
        let path = path.into();
        let mut file = std::fs::File::create(&path).map_err(|e| SessionDbError::io(&path, e))?;
        file.write_all(&header_bytes(segment_index))
            .map_err(|e| SessionDbError::io(&path, e))?;
        file.sync_all().map_err(|e| SessionDbError::io(&path, e))?;
        if let Some(dir) = path.parent() {
            sync_dir(dir)?;
        }
        Ok(Self {
            path,
            file,
            policy,
            unsynced: 0,
            frames: Vec::new(),
        })
    }

    /// Appends one record frame, fsyncing per the configured policy.
    pub fn append(&mut self, rec: &SessionRecord) -> Result<(), SessionDbError> {
        self.append_batch(std::slice::from_ref(rec))
    }

    /// Appends one frame per record with a single `write`, then fsyncs
    /// at most once: when the records not yet synced reach the policy's
    /// count. This is the log half of a group commit — with
    /// `EveryN(1)` a whole batch costs one `fdatasync`.
    pub fn append_batch(&mut self, recs: &[SessionRecord]) -> Result<(), SessionDbError> {
        if recs.is_empty() {
            return Ok(());
        }
        self.frames.clear();
        for rec in recs {
            put_frame(&mut self.frames, rec);
        }
        self.file
            .write_all(&self.frames)
            .map_err(|e| SessionDbError::io(&self.path, e))?;
        if let FsyncPolicy::EveryN(n) = self.policy {
            self.unsynced = self.unsynced.saturating_add(recs.len() as u32);
            if self.unsynced >= n {
                self.sync()?;
            }
        }
        Ok(())
    }

    /// Forces appended frames to stable storage.
    pub fn sync(&mut self) -> Result<(), SessionDbError> {
        self.file
            .sync_data()
            .map_err(|e| SessionDbError::io(&self.path, e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Restarts the log for the unsealed segment `segment_index`. Called
    /// after a segment seals: the sealed file now owns those rows.
    ///
    /// The frames are overwritten with zeros (and synced) before the new
    /// header names the next segment, so no crash can pair that header
    /// with the old frames. The file keeps the length this log reached,
    /// zero-filled: the next segment's appends overwrite blocks inside
    /// the file, and their `fdatasync` has no size change to commit.
    pub fn reset(&mut self, segment_index: u64) -> Result<(), SessionDbError> {
        let io = |e| SessionDbError::io(&self.path, e);
        let reached = self.file.stream_position().map_err(io)?;
        self.file
            .seek(SeekFrom::Start(WAL_HEADER_LEN as u64))
            .map_err(io)?;
        let frames = reached.saturating_sub(WAL_HEADER_LEN as u64);
        std::io::copy(&mut std::io::repeat(0).take(frames), &mut self.file).map_err(io)?;
        self.file.sync_data().map_err(io)?;
        self.file.seek(SeekFrom::Start(0)).map_err(io)?;
        self.file
            .write_all(&header_bytes(segment_index))
            .map_err(io)?;
        self.file.sync_all().map_err(io)?;
        self.unsynced = 0;
        Ok(())
    }

    /// Deletes the log file — the writer is closing cleanly, so there is
    /// nothing left to recover.
    pub fn remove(self) -> Result<(), SessionDbError> {
        let path = self.path;
        drop(self.file);
        std::fs::remove_file(&path).map_err(|e| SessionDbError::io(&path, e))?;
        if let Some(dir) = path.parent() {
            sync_dir(dir)?;
        }
        Ok(())
    }
}

// --- replay --------------------------------------------------------------

/// What [`replay`] salvaged from a log file.
pub struct WalReplay {
    /// Unsealed segment index the log covers (from the header).
    pub segment_index: u64,
    /// Records in the longest valid frame prefix, in append order.
    pub rows: Vec<SessionRecord>,
    /// Bytes after the last valid frame (torn tail, corrupt frame, or
    /// trailing garbage) up to the last non-zero byte — lost, by design,
    /// rather than guessed at. A reset's zero fill is not counted.
    pub bytes_lost: u64,
}

/// Reads the longest valid prefix of a WAL file.
///
/// Header damage is a typed error (there is nothing trustworthy to
/// salvage without it); anything after a valid header degrades to a
/// clean partial result.
pub fn replay(path: impl AsRef<Path>) -> Result<WalReplay, SessionDbError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| SessionDbError::io(path, e))?;
    if bytes.len() < WAL_HEADER_LEN {
        return Err(SessionDbError::corrupt(path, "WAL header truncated"));
    }
    if bytes[0..4] != WAL_MAGIC {
        return Err(SessionDbError::BadMagic {
            path: path.display().to_string(),
        });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != WAL_VERSION {
        return Err(SessionDbError::BadVersion {
            path: path.display().to_string(),
            found: version,
        });
    }
    let stored_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crc32(&bytes[0..16]) != stored_crc {
        return Err(SessionDbError::corrupt(
            path,
            "WAL header checksum mismatch",
        ));
    }
    let segment_index = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));

    let mut rows = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let mut bytes_lost = 0u64;
    // A reset leaves the log zero-filled past its frames, and no frame
    // starts with a zero length: zeros from a frame boundary to the end
    // of the file are the log's clean end. A bad frame loses the bytes
    // from it up to the last non-zero byte.
    let end = bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    while pos < end {
        let rem = bytes.len() - pos;
        let lost = (end - pos) as u64;
        if rem < 8 {
            bytes_lost = lost;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > rem - 8 {
            // Torn tail: the frame was being written when the crash hit
            // (or the length itself is garbage). Either way, stop here.
            bytes_lost = lost;
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != stored_crc {
            bytes_lost = lost;
            break;
        }
        match decode_record(payload) {
            Ok(rec) => rows.push(rec),
            Err(_) => {
                // CRC-valid but undecodable — treat like any other
                // corrupt tail rather than surfacing garbage rows.
                bytes_lost = lost;
                break;
            }
        }
        pos += 8 + len;
    }
    Ok(WalReplay {
        segment_index,
        rows,
        bytes_lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hutil::Date;

    fn rec(i: u64) -> SessionRecord {
        SessionRecord {
            session_id: i,
            honeypot_id: (i % 5) as u16,
            honeypot_ip: Ipv4Addr(0x0a00_0001),
            client_ip: Ipv4Addr(0xc0a8_0001 + i as u32),
            client_port: 1024 + i as u16,
            protocol: if i.is_multiple_of(2) {
                Protocol::Ssh
            } else {
                Protocol::Telnet
            },
            start: Date::new(2023, 6, 1).at_midnight().plus_secs(i as i64),
            end: Date::new(2023, 6, 1).at_midnight().plus_secs(i as i64 + 40),
            end_reason: SessionEndReason::ClientClose,
            client_version: i.is_multiple_of(3).then(|| format!("SSH-2.0-client-{i}")),
            logins: vec![LoginAttempt {
                username: "root".into(),
                password: format!("pw-{i}"),
                success: true,
            }],
            commands: vec![
                CommandRecord {
                    input: format!("echo wal-{i}"),
                    known: true,
                },
                CommandRecord {
                    input: "uname -a".into(),
                    known: true,
                },
            ],
            uris: vec![format!("http://evil.example/{i}.sh")],
            file_events: vec![FileEvent {
                path: format!("/tmp/.x{i}"),
                op: FileOp::Created {
                    sha256: format!("{i:064x}"),
                },
                source_uri: Some(format!("http://evil.example/{i}.sh")),
            }],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hswal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_wal(dir: &Path, n: u64, policy: FsyncPolicy) -> PathBuf {
        let path = dir.join(crate::WAL_FILE);
        let mut w = WalWriter::create(&path, policy, 3).unwrap();
        for i in 0..n {
            w.append(&rec(i)).unwrap();
        }
        path
    }

    #[test]
    fn record_codec_round_trips() {
        for i in 0..20 {
            let r = rec(i);
            let decoded = decode_record(&encode_record(&r)).unwrap();
            assert_eq!(decoded, r);
        }
    }

    #[test]
    fn replay_returns_everything_appended() {
        let dir = tmpdir("roundtrip");
        let path = write_wal(&dir, 12, FsyncPolicy::EveryN(4));
        let replay = replay(&path).unwrap();
        assert_eq!(replay.segment_index, 3);
        assert_eq!(replay.bytes_lost, 0);
        assert_eq!(replay.rows.len(), 12);
        for (i, r) in replay.rows.iter().enumerate() {
            assert_eq!(*r, rec(i as u64));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_writes_the_same_frames_and_syncs_once_per_batch() {
        let dir = tmpdir("batch");
        let single = write_wal(&dir, 7, FsyncPolicy::Never);
        let one_by_one = std::fs::read(&single).unwrap();
        let path = dir.join("batched.hswal");
        let mut w = WalWriter::create(&path, FsyncPolicy::EveryN(3), 3).unwrap();
        let recs: Vec<SessionRecord> = (0..7).map(rec).collect();
        w.append_batch(&recs[..2]).unwrap();
        assert_eq!(w.unsynced, 2, "below the policy's count: no sync");
        w.append_batch(&recs[2..6]).unwrap();
        assert_eq!(w.unsynced, 0, "one sync covers the whole batch");
        w.append_batch(&recs[6..]).unwrap();
        w.append_batch(&[]).unwrap();
        assert_eq!(w.unsynced, 1);
        assert_eq!(std::fs::read(&path).unwrap(), one_by_one);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_truncates_back_to_a_bare_header() {
        let dir = tmpdir("reset");
        let path = dir.join(crate::WAL_FILE);
        let mut w = WalWriter::create(&path, FsyncPolicy::Never, 0).unwrap();
        for i in 0..6 {
            w.append(&rec(i)).unwrap();
        }
        w.reset(1).unwrap();
        w.append(&rec(100)).unwrap();
        w.sync().unwrap();
        let replay = replay(&path).unwrap();
        assert_eq!(replay.segment_index, 1);
        assert_eq!(replay.rows.len(), 1);
        assert_eq!(replay.rows[0], rec(100));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reset keeps the length the log reached, zero-filled, and the
    /// zeros after the last frame replay as the clean end of the log.
    #[test]
    fn reset_zero_fills_and_the_zero_tail_is_a_clean_end() {
        let dir = tmpdir("zero-fill");
        let path = dir.join(crate::WAL_FILE);
        let mut w = WalWriter::create(&path, FsyncPolicy::EveryN(1), 0).unwrap();
        for i in 0..6 {
            w.append(&rec(i)).unwrap();
        }
        let reached = std::fs::metadata(&path).unwrap().len();
        w.reset(1).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, reached, "the length is kept");
        assert_eq!(bytes[..WAL_HEADER_LEN], header_bytes(1));
        assert!(bytes[WAL_HEADER_LEN..].iter().all(|&b| b == 0));
        let r = replay(&path).unwrap();
        assert_eq!((r.segment_index, r.rows.len(), r.bytes_lost), (1, 0, 0));

        // The next segment's frames overwrite the zeros in place.
        for i in 10..13 {
            w.append(&rec(i)).unwrap();
        }
        assert_eq!(std::fs::metadata(&path).unwrap().len(), reached);
        let r = replay(&path).unwrap();
        assert_eq!(r.rows, (10..13).map(rec).collect::<Vec<_>>());
        assert_eq!(r.bytes_lost, 0, "zero fill is not lost bytes");

        // A log that outgrows the fill just grows.
        for i in 13..20 {
            w.append(&rec(i)).unwrap();
        }
        let r = replay(&path).unwrap();
        assert_eq!(r.rows, (10..20).map(rec).collect::<Vec<_>>());
        assert_eq!(r.bytes_lost, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A frame torn inside the zero fill (its tail never written, or
    /// only its length field) stops replay after the valid prefix, and
    /// only its written bytes count as lost.
    #[test]
    fn torn_frame_inside_the_zero_fill_keeps_the_valid_prefix() {
        let dir = tmpdir("zero-torn");
        let path = dir.join(crate::WAL_FILE);
        let mut w = WalWriter::create(&path, FsyncPolicy::Never, 0).unwrap();
        for i in 0..8 {
            w.append(&rec(i)).unwrap();
        }
        w.reset(1).unwrap();
        let mut frames = Vec::new();
        for i in 20..23 {
            put_frame(&mut frames, &rec(i));
        }
        let filled = std::fs::read(&path).unwrap();
        let third = frames.len() - (8 + encode_record(&rec(22)).len());
        let torn_path = dir.join("torn.hswal");
        // The third frame's last 10 bytes, then all but its length field.
        for torn_at in [frames.len() - 10, third + 4] {
            let mut bytes = filled.clone();
            bytes[WAL_HEADER_LEN..WAL_HEADER_LEN + torn_at].copy_from_slice(&frames[..torn_at]);
            std::fs::write(&torn_path, &bytes).unwrap();
            let r = replay(&torn_path).unwrap();
            assert_eq!(r.rows, vec![rec(20), rec(21)], "torn at {torn_at}");
            assert!(r.bytes_lost > 0, "torn at {torn_at}");
            assert!(
                r.bytes_lost <= (torn_at - third) as u64,
                "torn at {torn_at}"
            );
        }
        // Garbage anywhere in the fill is not a clean end either.
        let mut bytes = filled.clone();
        bytes[WAL_HEADER_LEN..WAL_HEADER_LEN + frames.len()].copy_from_slice(&frames);
        let stray = bytes.len() - 1;
        bytes[stray] = 0x5a;
        std::fs::write(&torn_path, &bytes).unwrap();
        let r = replay(&torn_path).unwrap();
        assert_eq!(r.rows, (20..23).map(rec).collect::<Vec<_>>());
        assert_eq!(
            r.bytes_lost,
            (stray + 1 - WAL_HEADER_LEN - frames.len()) as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_the_file() {
        let dir = tmpdir("remove");
        let path = dir.join(crate::WAL_FILE);
        let w = WalWriter::create(&path, FsyncPolicy::default(), 0).unwrap();
        assert!(path.exists());
        w.remove().unwrap();
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Mirror of the segment truncation sweep: chopping the file at any
    /// length yields a clean prefix of the appended records (or a typed
    /// header error for cuts inside the header) — never a panic, never a
    /// record that was not appended.
    #[test]
    fn truncation_recovers_a_clean_prefix() {
        let dir = tmpdir("trunc");
        let n = 10u64;
        let path = write_wal(&dir, n, FsyncPolicy::Never);
        let full = std::fs::read(&path).unwrap();
        let originals: Vec<_> = (0..n).map(rec).collect();
        let cut_path = dir.join("cut.hswal");
        let step = (full.len() / 211).max(1);
        for cut in (0..full.len()).step_by(step) {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            match replay(&cut_path) {
                Ok(r) => {
                    assert!(cut >= WAL_HEADER_LEN, "cut {cut} inside header must error");
                    assert!(r.rows.len() <= originals.len());
                    assert_eq!(r.rows, originals[..r.rows.len()], "cut {cut}");
                }
                Err(
                    SessionDbError::Corrupt { .. }
                    | SessionDbError::BadMagic { .. }
                    | SessionDbError::BadVersion { .. },
                ) => {
                    assert!(cut < WAL_HEADER_LEN, "cut {cut} past header must replay");
                }
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Mirror of the segment bit-flip sweep: flipping a bit anywhere in
    /// the file yields a clean prefix or a typed error — never a panic,
    /// never a row that differs from what was appended.
    #[test]
    fn bit_flips_recover_a_clean_prefix_or_error() {
        let dir = tmpdir("flip");
        let n = 8u64;
        let path = write_wal(&dir, n, FsyncPolicy::Never);
        let full = std::fs::read(&path).unwrap();
        let originals: Vec<_> = (0..n).map(rec).collect();
        let flip_path = dir.join("flip.hswal");
        let step = (full.len() / 149).max(1);
        for off in (0..full.len()).step_by(step) {
            let mut mutated = full.clone();
            mutated[off] ^= 0x20;
            std::fs::write(&flip_path, &mutated).unwrap();
            match replay(&flip_path) {
                Ok(r) => {
                    assert!(r.rows.len() <= originals.len(), "offset {off}");
                    assert_eq!(r.rows, originals[..r.rows.len()], "offset {off}");
                }
                Err(
                    SessionDbError::Corrupt { .. }
                    | SessionDbError::BadMagic { .. }
                    | SessionDbError::BadVersion { .. },
                ) => {
                    assert!(off < WAL_HEADER_LEN, "typed errors only for header damage");
                }
                Err(e) => panic!("unexpected error at offset {off}: {e}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A frame whose length field is inflated past the end of the file
    /// must read as a torn tail, not an allocation or a panic.
    #[test]
    fn inflated_length_field_is_a_torn_tail() {
        let dir = tmpdir("len");
        let path = write_wal(&dir, 3, FsyncPolicy::Never);
        let mut bytes = std::fs::read(&path).unwrap();
        // Overwrite the first frame's length with a huge value.
        bytes[WAL_HEADER_LEN..WAL_HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.bytes_lost, (bytes.len() - WAL_HEADER_LEN) as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
