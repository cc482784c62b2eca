//! The sharded store: a directory of segments plus a `MANIFEST` tag.
//!
//! Writing rolls a new segment every `rows_per_segment` rows; reading
//! opens every segment's header/footer up front (cheap — two small reads
//! each) and then streams blocks on demand. See the crate docs for the
//! segment layout.

use crate::segment::{sync_dir, SegmentMeta, SegmentReader, SegmentWriter};
use crate::wal::{self, FsyncPolicy, WalWriter};
use crate::{SessionDbError, DEFAULT_ROWS_PER_SEGMENT, MAGIC, MANIFEST_TAG, SEGMENT_EXT, WAL_FILE};
use honeypot::{CommitError, SessionRecord, SessionSink, SinkError};
use hutil::DateTime;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Does `path` look like a sessiondb store (directory with a manifest or
/// segments) or a single segment file (magic bytes)? Used by the CLI to
/// auto-detect input formats without an explicit flag.
pub fn is_sessiondb_path(path: impl AsRef<Path>) -> bool {
    let path = path.as_ref();
    if path.is_dir() {
        if path.join("MANIFEST").is_file() {
            return true;
        }
        return segment_paths(path).map(|v| !v.is_empty()).unwrap_or(false);
    }
    if path.is_file() {
        let mut magic = [0u8; 4];
        if let Ok(mut f) = std::fs::File::open(path) {
            if f.read_exact(&mut magic).is_ok() {
                return magic == MAGIC;
            }
        }
    }
    false
}

fn segment_paths(dir: &Path) -> Result<Vec<PathBuf>, SessionDbError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| SessionDbError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| SessionDbError::io(dir, e))?;
        let p = entry.path();
        if p.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXT) {
            out.push(p);
        }
    }
    // Segment names are zero-padded, so lexicographic order is append
    // order — and therefore session-id order for collector-fed stores.
    out.sort();
    Ok(out)
}

/// Orphaned temporary files left by a crash mid-seal.
fn orphaned_tmp_paths(dir: &Path) -> Result<Vec<PathBuf>, SessionDbError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| SessionDbError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| SessionDbError::io(dir, e))?;
        let p = entry.path();
        let name = entry.file_name();
        if name
            .to_str()
            .is_some_and(|n| n.ends_with(".hsdb.tmp") && n.starts_with("seg-"))
        {
            out.push(p);
        }
    }
    out.sort();
    Ok(out)
}

// --- recovery ------------------------------------------------------------

/// What crash recovery found (and, unless previewing, did) in a store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A write-ahead log was present — the previous writer did not close
    /// cleanly.
    pub wal_found: bool,
    /// The WAL covered a segment that had already sealed (crash landed
    /// between the seal and the log truncation); its frames are
    /// duplicates and were discarded.
    pub wal_stale: bool,
    /// Valid frames replayed from the WAL.
    pub wal_frames: u64,
    /// Bytes after the last valid frame — a torn tail, lost.
    pub wal_bytes_lost: u64,
    /// Sessions re-sealed into [`RecoveryReport::recovered_segment`].
    pub recovered_rows: u64,
    /// Segment the recovered sessions were sealed into.
    pub recovered_segment: Option<PathBuf>,
    /// Orphaned `.hsdb.tmp` files removed.
    pub tmp_removed: usize,
}

impl RecoveryReport {
    /// Whether the store needed any recovery at all.
    pub fn is_clean(&self) -> bool {
        !self.wal_found && self.tmp_removed == 0
    }

    /// Human-readable multi-line summary (empty for a clean store).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.tmp_removed > 0 {
            out.push_str(&format!(
                "removed {} orphaned .hsdb.tmp file(s)\n",
                self.tmp_removed
            ));
        }
        if self.wal_found {
            out.push_str(&format!(
                "wal: {} frame(s) replayable, {} byte(s) lost{}\n",
                self.wal_frames,
                self.wal_bytes_lost,
                if self.wal_stale {
                    " (stale: segment already sealed, frames discarded)"
                } else {
                    ""
                }
            ));
        }
        if let Some(seg) = &self.recovered_segment {
            out.push_str(&format!(
                "recovered {} session(s) into {}\n",
                self.recovered_rows,
                seg.display()
            ));
        }
        out
    }
}

/// Whether `path` is a store directory with crash leftovers (a WAL or an
/// orphaned `.hsdb.tmp`) that [`recover`] would act on.
pub fn needs_recovery(path: impl AsRef<Path>) -> bool {
    let path = path.as_ref();
    if !path.is_dir() {
        return false;
    }
    if path.join(WAL_FILE).is_file() {
        return true;
    }
    orphaned_tmp_paths(path)
        .map(|v| !v.is_empty())
        .unwrap_or(false)
}

/// Recovers a store directory after a crash: removes orphaned `.hsdb.tmp`
/// files, replays the longest valid WAL prefix, re-seals the replayed
/// rows into a real segment, and removes the log. Safe on a clean store
/// (does nothing). Must not run concurrently with a live writer.
pub fn recover(path: impl AsRef<Path>) -> Result<RecoveryReport, SessionDbError> {
    recover_impl(path.as_ref(), true)
}

/// Read-only version of [`recover`]: reports what recovery *would* do
/// without touching the store — safe while a writer is live.
pub fn recovery_preview(path: impl AsRef<Path>) -> Result<RecoveryReport, SessionDbError> {
    recover_impl(path.as_ref(), false)
}

fn recover_impl(dir: &Path, apply: bool) -> Result<RecoveryReport, SessionDbError> {
    let mut report = RecoveryReport::default();
    if !dir.is_dir() {
        return Ok(report); // single-file stores carry no WAL
    }
    for tmp in orphaned_tmp_paths(dir)? {
        report.tmp_removed += 1;
        if apply {
            std::fs::remove_file(&tmp).map_err(|e| SessionDbError::io(&tmp, e))?;
        }
    }
    let wal_path = dir.join(WAL_FILE);
    if !wal_path.is_file() {
        return Ok(report);
    }
    report.wal_found = true;
    let replay = wal::replay(&wal_path)?;
    report.wal_frames = replay.rows.len() as u64;
    report.wal_bytes_lost = replay.bytes_lost;

    let existing = segment_paths(dir)?;
    let covered = dir.join(format!("seg-{:06}.{SEGMENT_EXT}", replay.segment_index));
    if existing.contains(&covered) {
        // The crash landed between sealing the covered segment and
        // truncating the log: every frame is already on disk.
        report.wal_stale = true;
        if apply {
            std::fs::remove_file(&wal_path).map_err(|e| SessionDbError::io(&wal_path, e))?;
            sync_dir(dir)?;
        }
        return Ok(report);
    }
    if replay.rows.is_empty() {
        if apply {
            std::fs::remove_file(&wal_path).map_err(|e| SessionDbError::io(&wal_path, e))?;
            sync_dir(dir)?;
        }
        return Ok(report);
    }
    // Seal after every existing segment so lexicographic scan order is
    // preserved even if the WAL header's index somehow lags.
    let max_existing = existing
        .iter()
        .filter_map(|p| {
            p.file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| s.strip_prefix("seg-"))
                .and_then(|s| s.parse::<u64>().ok())
        })
        .max();
    let index = max_existing.map_or(replay.segment_index, |m| replay.segment_index.max(m + 1));
    let seg_path = dir.join(format!("seg-{index:06}.{SEGMENT_EXT}"));
    report.recovered_rows = replay.rows.len() as u64;
    report.recovered_segment = Some(seg_path.clone());
    if apply {
        let mut w = SegmentWriter::create(&seg_path);
        for r in &replay.rows {
            w.push(r);
        }
        w.finish()?; // durable: fsyncs the tmp, renames, fsyncs the dir
        std::fs::remove_file(&wal_path).map_err(|e| SessionDbError::io(&wal_path, e))?;
        sync_dir(dir)?;
    }
    Ok(report)
}

// --- writer --------------------------------------------------------------

/// Appends sessions to a store directory, sealing a segment every
/// `rows_per_segment` rows.
///
/// Implements [`honeypot::SessionSink`], so it can sit behind a
/// `Collector::with_sink` and receive records through the collector's
/// retry/quarantine machinery. Call [`StoreWriter::finish`] (or let the
/// collector's `into_sink_parts` call `SessionSink::finish`) to seal the
/// final partial segment.
pub struct StoreWriter {
    dir: PathBuf,
    rows_per_segment: usize,
    next_segment: u64,
    current: Option<SegmentWriter>,
    sealed: Vec<SegmentMeta>,
    total_rows: u64,
    wal: Option<WalWriter>,
}

/// How to open a [`StoreWriter`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Rows per sealed segment.
    pub rows_per_segment: usize,
    /// `Some(policy)` enables the write-ahead log: every appended record
    /// hits the log before the in-memory segment buffer, so a crash
    /// loses at most the configured fsync window. `None` (the batch
    /// default) keeps the seed behavior — unsealed rows live only in
    /// memory.
    pub wal: Option<FsyncPolicy>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            rows_per_segment: DEFAULT_ROWS_PER_SEGMENT,
            wal: None,
        }
    }
}

impl StoreWriter {
    /// Creates (or opens for append) a store at `dir` with the default
    /// segment size.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, SessionDbError> {
        Self::with_rows_per_segment(dir, DEFAULT_ROWS_PER_SEGMENT)
    }

    /// Creates a store sealing a segment every `rows_per_segment` rows.
    pub fn with_rows_per_segment(
        dir: impl Into<PathBuf>,
        rows_per_segment: usize,
    ) -> Result<Self, SessionDbError> {
        let (w, _report) = Self::with_options(
            dir,
            StoreOptions {
                rows_per_segment,
                ..StoreOptions::default()
            },
        )?;
        Ok(w)
    }

    /// Creates (or opens for append) a store, running crash recovery
    /// first: orphaned `.hsdb.tmp` files are removed and any leftover
    /// WAL is replayed and re-sealed into a real segment before the
    /// writer resumes. The report says what (if anything) was salvaged.
    pub fn with_options(
        dir: impl Into<PathBuf>,
        opts: StoreOptions,
    ) -> Result<(Self, RecoveryReport), SessionDbError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| SessionDbError::io(&dir, e))?;
        let manifest = dir.join("MANIFEST");
        std::fs::write(&manifest, format!("{MANIFEST_TAG}\n"))
            .map_err(|e| SessionDbError::io(&manifest, e))?;
        let report = recover_impl(&dir, true)?;
        // Resume after any existing segments rather than clobbering them.
        let existing = segment_paths(&dir)?;
        let next_segment = existing
            .iter()
            .filter_map(|p| {
                p.file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(|s| s.strip_prefix("seg-"))
                    .and_then(|s| s.parse::<u64>().ok())
            })
            .max()
            .map_or(0, |n| n + 1);
        let wal = match opts.wal {
            None => None,
            Some(policy) => Some(WalWriter::create(dir.join(WAL_FILE), policy, next_segment)?),
        };
        Ok((
            Self {
                dir,
                rows_per_segment: opts.rows_per_segment.max(1),
                next_segment,
                current: None,
                sealed: Vec::new(),
                total_rows: 0,
                wal,
            },
            report,
        ))
    }

    fn segment_path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("seg-{index:06}.{SEGMENT_EXT}"))
    }

    /// Appends one record, sealing the current segment if it is full.
    /// With a WAL enabled, the record is logged (durably, per the fsync
    /// policy) before it enters the in-memory segment buffer.
    pub fn append(&mut self, rec: &SessionRecord) -> Result<(), SessionDbError> {
        self.append_batch(std::slice::from_ref(rec))
    }

    /// Appends a batch as one group commit: each run of records that
    /// fits the current segment is logged with one WAL write and at most
    /// one fsync, then buffered. A batch that reaches `rows_per_segment`
    /// seals the segment (which resets the WAL) at that boundary before
    /// the rest is logged, so the reset never truncates a frame of a row
    /// the sealed segment does not hold.
    pub fn append_batch(&mut self, recs: &[SessionRecord]) -> Result<(), SessionDbError> {
        let mut rest = recs;
        while !rest.is_empty() {
            if self.current.is_none() {
                let path = self.segment_path(self.next_segment);
                self.next_segment += 1;
                self.current = Some(SegmentWriter::create(path));
            }
            let writer = self.current.as_mut().expect("segment writer installed");
            let room = self.rows_per_segment - writer.rows() as usize;
            let (run, tail) = rest.split_at(room.min(rest.len()));
            if let Some(wal) = &mut self.wal {
                wal.append_batch(run)?;
            }
            for rec in run {
                writer.push(rec);
            }
            self.total_rows += run.len() as u64;
            if writer.rows() as usize >= self.rows_per_segment {
                self.seal()?;
                // The sealed segment now owns these rows (and the seal is
                // durable), so the log restarts for the next segment.
                if let Some(wal) = &mut self.wal {
                    wal.reset(self.next_segment)?;
                }
            }
            rest = tail;
        }
        Ok(())
    }

    /// Seals the current segment, if any. The caller then restarts the
    /// log or, on close, removes it.
    fn seal(&mut self) -> Result<(), SessionDbError> {
        if let Some(writer) = self.current.take() {
            self.sealed.push(writer.finish()?);
        }
        Ok(())
    }

    /// Rows appended so far (including the unsealed tail).
    pub fn rows(&self) -> u64 {
        self.total_rows
    }

    /// Seals the final partial segment and returns metadata for every
    /// segment this writer produced. A clean close removes the WAL —
    /// everything it guarded is sealed.
    pub fn finish(mut self) -> Result<Vec<SegmentMeta>, SessionDbError> {
        self.seal()?;
        if let Some(wal) = self.wal.take() {
            wal.remove()?;
        }
        Ok(std::mem::take(&mut self.sealed))
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl SessionSink for StoreWriter {
    fn append(&mut self, rec: &SessionRecord) -> Result<(), SinkError> {
        StoreWriter::append(self, rec).map_err(|e| Box::new(e) as SinkError)
    }

    fn commit(&mut self, batch: &[SessionRecord]) -> Result<(), CommitError> {
        let before = self.total_rows;
        self.append_batch(batch).map_err(|e| CommitError {
            kept: (self.total_rows - before) as usize,
            error: Box::new(e),
        })
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        self.seal().map_err(|e| Box::new(e) as SinkError)?;
        if let Some(wal) = self.wal.take() {
            wal.remove().map_err(|e| Box::new(e) as SinkError)?;
        }
        Ok(())
    }
}

// --- store / scans -------------------------------------------------------

/// Cheap aggregate facts from headers/footers only (no block reads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSummary {
    /// Number of segment files.
    pub segments: usize,
    /// Total sessions across all segments.
    pub rows: u64,
    /// Earliest session start across the store.
    pub min_start: Option<DateTime>,
    /// Latest session start across the store.
    pub max_start: Option<DateTime>,
}

/// An opened store: validated segment metadata, ready to scan.
#[derive(Debug, Clone)]
pub struct Store {
    segments: Vec<SegmentReader>,
}

impl Store {
    /// Opens a store directory or a single segment file, validating every
    /// segment's header and footer.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SessionDbError> {
        let path = path.as_ref();
        if path.is_file() {
            return Ok(Self {
                segments: vec![SegmentReader::open(path)?],
            });
        }
        if !path.is_dir() {
            return Err(SessionDbError::NotAStore {
                path: path.display().to_string(),
            });
        }
        let paths = segment_paths(path)?;
        if paths.is_empty() && !path.join("MANIFEST").is_file() {
            return Err(SessionDbError::NotAStore {
                path: path.display().to_string(),
            });
        }
        let segments = paths
            .into_iter()
            .map(SegmentReader::open)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { segments })
    }

    /// Per-segment metadata, in scan order.
    pub fn segments(&self) -> impl Iterator<Item = &SegmentMeta> {
        self.segments.iter().map(|r| r.meta())
    }

    /// Header/footer-only summary.
    pub fn summary(&self) -> StoreSummary {
        let mut s = StoreSummary {
            segments: self.segments.len(),
            rows: 0,
            min_start: None,
            max_start: None,
        };
        for m in self.segments() {
            s.rows += m.rows;
            if let Some(lo) = m.min_start {
                s.min_start = Some(s.min_start.map_or(lo, |cur: DateTime| cur.min(lo)));
            }
            if let Some(hi) = m.max_start {
                s.max_start = Some(s.max_start.map_or(hi, |cur: DateTime| cur.max(hi)));
            }
        }
        s
    }

    /// Streams every segment in order. Memory is bounded by one decoded
    /// segment at a time.
    pub fn scan(&self) -> Scan<'_> {
        Scan {
            segments: &self.segments,
            next: 0,
            window: None,
        }
    }

    /// Streams only segments whose zone map intersects the half-open
    /// window `[min, max)` on session *start* time: a session starting
    /// exactly at `min` is included, one starting exactly at `max` is
    /// not, so adjacent windows tile without double-counting. Records
    /// inside a surviving segment are additionally filtered to the
    /// window.
    pub fn scan_window(&self, min: DateTime, max: DateTime) -> Scan<'_> {
        Scan {
            segments: &self.segments,
            next: 0,
            window: Some((min, max)),
        }
    }

    /// Decodes segments on `workers` scoped threads, folding each batch
    /// with `map` and combining per-worker accumulators with `reduce`.
    ///
    /// Segments are handed out via an atomic cursor, so a slow segment
    /// never stalls the others; each worker holds at most one decoded
    /// segment, keeping the whole scan out-of-core. Errors from any
    /// segment abort the scan.
    pub fn par_scan<T, Map, Reduce>(
        &self,
        workers: usize,
        map: Map,
        reduce: Reduce,
    ) -> Result<T, SessionDbError>
    where
        T: Default + Send,
        Map: Fn(&mut T, Vec<SessionRecord>) + Sync,
        Reduce: Fn(T, T) -> T,
    {
        let workers = workers.clamp(1, self.segments.len().max(1));
        let cursor = AtomicUsize::new(0);
        let error: Mutex<Option<SessionDbError>> = Mutex::new(None);
        let accs: Vec<T> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut acc = T::default();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(reader) = self.segments.get(i) else {
                                break;
                            };
                            if error.lock().expect("scan error lock").is_some() {
                                break;
                            }
                            match reader.read_all() {
                                Ok(batch) => map(&mut acc, batch),
                                Err(e) => {
                                    error.lock().expect("scan error lock").get_or_insert(e);
                                    break;
                                }
                            }
                        }
                        acc
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
        .unwrap_or_else(|p| std::panic::resume_unwind(p));
        if let Some(e) = error.into_inner().expect("scan error lock") {
            return Err(e);
        }
        Ok(accs.into_iter().fold(T::default(), reduce))
    }

    /// Decodes segments on `workers` scoped threads, mapping each
    /// segment's batch to a value; the results come back in **segment
    /// index order**, regardless of which worker decoded which segment.
    ///
    /// This is the deterministic backbone for parallel map-reduce
    /// analyses whose merge is associative but not commutative (e.g.
    /// event-list concatenation): folding the returned values left to
    /// right reproduces the serial scan's order exactly. `map` receives
    /// the segment index alongside the batch. Errors from any segment
    /// abort the scan, exactly as in [`Store::par_scan`].
    pub fn par_scan_map<T, Map>(&self, workers: usize, map: Map) -> Result<Vec<T>, SessionDbError>
    where
        T: Send,
        Map: Fn(usize, Vec<SessionRecord>) -> T + Sync,
    {
        let workers = workers.clamp(1, self.segments.len().max(1));
        let cursor = AtomicUsize::new(0);
        let error: Mutex<Option<SessionDbError>> = Mutex::new(None);
        let slots: Vec<Mutex<Option<T>>> =
            (0..self.segments.len()).map(|_| Mutex::new(None)).collect();
        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(reader) = self.segments.get(i) else {
                        break;
                    };
                    if error.lock().expect("scan error lock").is_some() {
                        break;
                    }
                    match reader.read_all() {
                        Ok(batch) => {
                            *slots[i].lock().expect("slot lock") = Some(map(i, batch));
                        }
                        Err(e) => {
                            error.lock().expect("scan error lock").get_or_insert(e);
                            break;
                        }
                    }
                });
            }
        })
        .unwrap_or_else(|p| std::panic::resume_unwind(p));
        if let Some(e) = error.into_inner().expect("scan error lock") {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot lock")
                    .expect("every segment mapped on success")
            })
            .collect())
    }
}

/// Streaming iterator over a store's segments, yielding one decoded
/// batch per surviving segment.
pub struct Scan<'a> {
    segments: &'a [SegmentReader],
    next: usize,
    window: Option<(DateTime, DateTime)>,
}

impl<'a> Scan<'a> {
    /// Flattens the batch stream into single records.
    ///
    /// Errors surface as one `Err` item and end the stream.
    pub fn records(self) -> impl Iterator<Item = Result<SessionRecord, SessionDbError>> + 'a {
        let mut batches = self;
        let mut current: std::vec::IntoIter<SessionRecord> = Vec::new().into_iter();
        let mut failed = false;
        std::iter::from_fn(move || loop {
            if failed {
                return None;
            }
            if let Some(rec) = current.next() {
                return Some(Ok(rec));
            }
            match batches.next() {
                Some(Ok(batch)) => current = batch.into_iter(),
                Some(Err(e)) => {
                    failed = true;
                    return Some(Err(e));
                }
                None => return None,
            }
        })
    }
}

impl Iterator for Scan<'_> {
    type Item = Result<Vec<SessionRecord>, SessionDbError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let reader = self.segments.get(self.next)?;
            self.next += 1;
            if let Some((lo, hi)) = self.window {
                if !reader.meta().overlaps(lo, hi) {
                    continue; // zone-map pruned: blocks never read
                }
            }
            let batch = match reader.read_all() {
                Ok(b) => b,
                Err(e) => {
                    self.next = self.segments.len(); // poison: stop the scan
                    return Some(Err(e));
                }
            };
            if let Some((lo, hi)) = self.window {
                let filtered: Vec<SessionRecord> = batch
                    .into_iter()
                    .filter(|r| r.start >= lo && r.start < hi)
                    .collect();
                if filtered.is_empty() {
                    continue;
                }
                return Some(Ok(filtered));
            }
            return Some(Ok(batch));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use honeypot::{LoginAttempt, Protocol, SessionEndReason};
    use hutil::Date;
    use netsim::Ipv4Addr;

    fn rec(i: u64) -> SessionRecord {
        SessionRecord {
            session_id: i,
            honeypot_id: 0,
            honeypot_ip: Ipv4Addr(1),
            client_ip: Ipv4Addr(2 + i as u32),
            client_port: 40000,
            protocol: Protocol::Ssh,
            start: Date::new(2021, 12, 1)
                .at_midnight()
                .plus_secs(i as i64 * 86_400),
            end: Date::new(2021, 12, 1)
                .at_midnight()
                .plus_secs(i as i64 * 86_400 + 30),
            end_reason: SessionEndReason::ClientClose,
            client_version: None,
            logins: vec![LoginAttempt {
                username: "root".into(),
                password: "hunter2".into(),
                success: true,
            }],
            commands: vec![],
            uris: vec![],
            file_events: vec![],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sessiondb-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn rolls_segments_and_scans_in_order() {
        let dir = tmpdir("roll");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 10).unwrap();
        let recs: Vec<SessionRecord> = (0..35).map(rec).collect();
        for r in &recs {
            StoreWriter::append(&mut w, r).unwrap();
        }
        let metas = w.finish().unwrap();
        assert_eq!(metas.len(), 4); // 10+10+10+5
        assert_eq!(metas.iter().map(|m| m.rows).sum::<u64>(), 35);

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.summary().rows, 35);
        let got: Vec<SessionRecord> = store
            .scan()
            .records()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(got, recs);
    }

    #[test]
    fn empty_store_is_valid_and_detectable() {
        let dir = tmpdir("empty");
        let w = StoreWriter::create(&dir).unwrap();
        assert!(w.finish().unwrap().is_empty());
        assert!(is_sessiondb_path(&dir));
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.summary().rows, 0);
        assert_eq!(store.scan().records().count(), 0);
    }

    #[test]
    fn zone_maps_prune_and_filter() {
        let dir = tmpdir("prune");
        // One session per day for 35 days, 10 per segment.
        let mut w = StoreWriter::with_rows_per_segment(&dir, 10).unwrap();
        for i in 0..35 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        // Half-open window [Dec 13, Dec 19) covers days 12..=17 — only
        // segment 1 (days 10-19) survives pruning.
        let lo = Date::new(2021, 12, 13).at_midnight();
        let hi = Date::new(2021, 12, 19).at_midnight();
        let batches: Vec<_> = store
            .scan_window(lo, hi)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(
            batches.len(),
            1,
            "exactly one segment intersects the window"
        );
        let ids: Vec<u64> = batches[0].iter().map(|r| r.session_id).collect();
        assert_eq!(ids, vec![12, 13, 14, 15, 16, 17]);
    }

    #[test]
    fn scan_window_is_half_open_at_record_level() {
        let dir = tmpdir("half-open");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 10).unwrap();
        for i in 0..10 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        // rec(i) starts on Dec 1 + i days at midnight exactly: a window
        // [day 3, day 6) keeps the session starting at its lower edge
        // and excludes the one starting at its upper edge.
        let lo = Date::new(2021, 12, 4).at_midnight();
        let hi = Date::new(2021, 12, 7).at_midnight();
        let ids: Vec<u64> = store
            .scan_window(lo, hi)
            .records()
            .map(|r| r.unwrap().session_id)
            .collect();
        assert_eq!(ids, vec![3, 4, 5], "start == min in, start == max out");

        // Adjacent windows tile the store without overlap or gaps.
        let day = |d: u8| Date::new(2021, 12, d).at_midnight();
        let first: Vec<u64> = store
            .scan_window(day(1), day(6))
            .records()
            .map(|r| r.unwrap().session_id)
            .collect();
        let second: Vec<u64> = store
            .scan_window(day(6), day(11))
            .records()
            .map(|r| r.unwrap().session_id)
            .collect();
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
        assert_eq!(second, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn scan_window_prunes_segment_starting_at_window_end() {
        let dir = tmpdir("edge-prune");
        // Two segments of 5: segment 1's zone map starts at day 5.
        let mut w = StoreWriter::with_rows_per_segment(&dir, 5).unwrap();
        for i in 0..10 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        let lo = Date::new(2021, 12, 1).at_midnight();
        let hi = Date::new(2021, 12, 6).at_midnight(); // == segment 1 min_start
        let batches: Vec<_> = store
            .scan_window(lo, hi)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(
            batches.len(),
            1,
            "segment whose min_start equals the window end must be pruned"
        );
        assert_eq!(batches[0].len(), 5);
    }

    #[test]
    fn par_scan_matches_serial_scan() {
        let dir = tmpdir("par");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 7).unwrap();
        for i in 0..100 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        let serial: u64 = store.scan().records().map(|r| r.unwrap().session_id).sum();
        let (count, sum) = store
            .par_scan(
                4,
                |acc: &mut (u64, u64), batch| {
                    acc.0 += batch.len() as u64;
                    acc.1 += batch.iter().map(|r| r.session_id).sum::<u64>();
                },
                |a, b| (a.0 + b.0, a.1 + b.1),
            )
            .unwrap();
        assert_eq!(count, 100);
        assert_eq!(sum, serial);
    }

    #[test]
    fn par_scan_map_preserves_segment_order() {
        let dir = tmpdir("par-map");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 7).unwrap();
        for i in 0..100 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        let serial: Vec<u64> = store
            .scan()
            .records()
            .map(|r| r.unwrap().session_id)
            .collect();
        for workers in [1, 3, 8] {
            let per_seg: Vec<Vec<u64>> = store
                .par_scan_map(workers, |_, batch| {
                    batch.iter().map(|r| r.session_id).collect()
                })
                .unwrap();
            assert_eq!(per_seg.len(), 15); // ceil(100 / 7)
            let flat: Vec<u64> = per_seg.into_iter().flatten().collect();
            assert_eq!(flat, serial, "workers={workers}");
        }
        // Segment indices are handed to the map in order too.
        let idx: Vec<usize> = store.par_scan_map(4, |i, _| i).unwrap();
        assert_eq!(idx, (0..15).collect::<Vec<usize>>());
    }

    #[test]
    fn par_scan_map_surfaces_corruption() {
        let dir = tmpdir("par-map-corrupt");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 5).unwrap();
        for i in 0..20 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let victim = dir.join("seg-000002.hsdb");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        let err = store
            .par_scan_map(3, |_, b| b.len())
            .expect_err("corruption must abort the scan");
        assert!(matches!(err, SessionDbError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn par_scan_surfaces_corruption() {
        let dir = tmpdir("par-corrupt");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 5).unwrap();
        for i in 0..20 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        // Flip a byte in the middle of the second segment's blocks.
        let victim = dir.join("seg-000001.hsdb");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        let err = store
            .par_scan(3, |acc: &mut u64, b| *acc += b.len() as u64, |a, b| a + b)
            .expect_err("corruption must abort the scan");
        assert!(matches!(err, SessionDbError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn reopening_appends_after_existing_segments() {
        let dir = tmpdir("reopen");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 4).unwrap();
        for i in 0..8 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let mut w = StoreWriter::with_rows_per_segment(&dir, 4).unwrap();
        for i in 8..12 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        let ids: Vec<u64> = store
            .scan()
            .records()
            .map(|r| r.unwrap().session_id)
            .collect();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn single_segment_file_opens_directly() {
        let dir = tmpdir("single");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 100).unwrap();
        for i in 0..5 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let seg = dir.join("seg-000000.hsdb");
        assert!(is_sessiondb_path(&seg));
        let store = Store::open(&seg).unwrap();
        assert_eq!(store.summary().rows, 5);
    }

    #[test]
    fn wal_recovers_unsealed_rows_after_a_crash() {
        let dir = tmpdir("wal-recover");
        let opts = StoreOptions {
            rows_per_segment: 10,
            wal: Some(FsyncPolicy::EveryN(1)),
        };
        let (mut w, report) = StoreWriter::with_options(&dir, opts).unwrap();
        assert!(report.is_clean());
        for i in 0..25 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        // Crash: drop the writer without finishing. Segments 0 and 1
        // sealed; rows 20..25 exist only in memory and the WAL.
        drop(w);
        assert!(needs_recovery(&dir));

        let preview = recovery_preview(&dir).unwrap();
        assert_eq!(preview.wal_frames, 5);
        assert!(needs_recovery(&dir), "preview must not mutate");

        let report = recover(&dir).unwrap();
        assert!(report.wal_found);
        assert!(!report.wal_stale);
        assert_eq!(report.recovered_rows, 5);
        assert_eq!(report.wal_bytes_lost, 0);
        assert!(!needs_recovery(&dir));

        let store = Store::open(&dir).unwrap();
        let ids: Vec<u64> = store
            .scan()
            .records()
            .map(|r| r.unwrap().session_id)
            .collect();
        assert_eq!(ids, (0..25).collect::<Vec<u64>>());
    }

    #[test]
    fn batches_straddling_seals_recover_every_row_after_a_crash() {
        for every in [1, 3] {
            let dir = tmpdir(&format!("batch-seal-{every}"));
            let opts = StoreOptions {
                rows_per_segment: 10,
                wal: Some(FsyncPolicy::EveryN(every)),
            };
            let (mut w, _) = StoreWriter::with_options(&dir, opts).unwrap();
            let recs: Vec<SessionRecord> = (0..27).map(rec).collect();
            // 4 rows; then 13 that seal segment 0 after 6; then 10 that
            // seal segment 1 after 3 and leave 7 in the log.
            for run in [&recs[..4], &recs[4..17], &recs[17..]] {
                w.append_batch(run).unwrap();
            }
            drop(w); // crash: no finish
            let wal = std::fs::read(dir.join(crate::WAL_FILE)).unwrap();
            assert_eq!(
                wal.last(),
                Some(&0),
                "fsync every {every}: the log is zero-filled past its frames"
            );
            let report = recover(&dir).unwrap();
            assert!(!report.wal_stale, "fsync every {every}");
            assert_eq!(report.recovered_rows, 7, "fsync every {every}");
            assert_eq!(report.wal_bytes_lost, 0, "fsync every {every}");
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.segments().count(), 3);
            let ids: Vec<u64> = store
                .scan()
                .records()
                .map(|r| r.expect("CRC intact").session_id)
                .collect();
            assert_eq!(ids, (0..27).collect::<Vec<u64>>(), "fsync every {every}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn reopening_a_crashed_store_recovers_then_appends_in_order() {
        let dir = tmpdir("wal-reopen");
        let opts = StoreOptions {
            rows_per_segment: 10,
            wal: Some(FsyncPolicy::Never),
        };
        let (mut w, _) = StoreWriter::with_options(&dir, opts).unwrap();
        for i in 0..13 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        drop(w); // crash with 3 rows only in the WAL

        let (mut w, report) = StoreWriter::with_options(&dir, opts).unwrap();
        assert_eq!(report.recovered_rows, 3);
        for i in 13..17 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        assert!(
            !dir.join(crate::WAL_FILE).exists(),
            "clean close removes WAL"
        );

        let store = Store::open(&dir).unwrap();
        let ids: Vec<u64> = store
            .scan()
            .records()
            .map(|r| r.unwrap().session_id)
            .collect();
        assert_eq!(ids, (0..17).collect::<Vec<u64>>());
    }

    #[test]
    fn stale_wal_covering_a_sealed_segment_is_discarded() {
        let dir = tmpdir("wal-stale");
        // Simulate a crash between sealing segment 0 and truncating the
        // log: the sealed segment and the WAL hold the same rows.
        let (mut w, _) = StoreWriter::with_options(
            &dir,
            StoreOptions {
                rows_per_segment: 100,
                wal: Some(FsyncPolicy::Never),
            },
        )
        .unwrap();
        for i in 0..5 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        drop(w);
        let mut seg = SegmentWriter::create(dir.join("seg-000000.hsdb"));
        for i in 0..5 {
            seg.push(&rec(i));
        }
        seg.finish().unwrap();

        let report = recover(&dir).unwrap();
        assert!(report.wal_stale, "{report:?}");
        assert_eq!(report.recovered_rows, 0);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.summary().rows, 5, "no duplicated rows");
    }

    #[test]
    fn orphaned_tmp_files_are_removed() {
        let dir = tmpdir("tmp-orphan");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 5).unwrap();
        for i in 0..5 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        let orphan = dir.join("seg-000009.hsdb.tmp");
        std::fs::write(&orphan, b"half a segment").unwrap();
        assert!(needs_recovery(&dir));
        let report = recover(&dir).unwrap();
        assert_eq!(report.tmp_removed, 1);
        assert!(!orphan.exists());
        assert_eq!(Store::open(&dir).unwrap().summary().rows, 5);
    }

    #[test]
    fn torn_wal_tail_recovers_the_valid_prefix() {
        let dir = tmpdir("wal-torn");
        let (mut w, _) = StoreWriter::with_options(
            &dir,
            StoreOptions {
                rows_per_segment: 100,
                wal: Some(FsyncPolicy::Never),
            },
        )
        .unwrap();
        for i in 0..8 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        drop(w);
        // Tear the last 5 bytes off the log, mid-frame.
        let wal_path = dir.join(crate::WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

        let report = recover(&dir).unwrap();
        assert_eq!(report.recovered_rows, 7, "{report:?}");
        assert!(report.wal_bytes_lost > 0);
        let store = Store::open(&dir).unwrap();
        let ids: Vec<u64> = store
            .scan()
            .records()
            .map(|r| r.unwrap().session_id)
            .collect();
        assert_eq!(ids, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn recovery_is_a_no_op_on_clean_stores() {
        let dir = tmpdir("clean");
        let mut w = StoreWriter::with_rows_per_segment(&dir, 5).unwrap();
        for i in 0..7 {
            StoreWriter::append(&mut w, &rec(i)).unwrap();
        }
        w.finish().unwrap();
        assert!(!needs_recovery(&dir));
        let report = recover(&dir).unwrap();
        assert!(report.is_clean());
        assert!(report.render().is_empty());
        assert_eq!(Store::open(&dir).unwrap().summary().rows, 7);
    }

    #[test]
    fn non_store_paths_are_rejected() {
        let dir = tmpdir("notastore");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "hi").unwrap();
        assert!(!is_sessiondb_path(&dir));
        assert!(matches!(
            Store::open(&dir),
            Err(SessionDbError::NotAStore { .. })
        ));
        let missing = dir.join("nope");
        assert!(matches!(
            Store::open(&missing),
            Err(SessionDbError::NotAStore { .. })
        ));
    }
}
