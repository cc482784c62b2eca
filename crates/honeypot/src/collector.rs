//! The central collector (paper §3.2).
//!
//! Every honeypot forwards a closed session to the collector, which
//! assigns a dense session id and appends it to the honeynet database. The
//! collector is shared across generator threads, hence the lock; analysis
//! runs on the frozen, chronologically sorted store.
//!
//! # Degraded operation
//!
//! A long-running deployment loses records between sensor and database:
//! flushes fail, the forwarding channel backs up, malformed records
//! arrive. [`CollectorConfig`] models all three with seeded fault
//! injection:
//!
//! * a write may fail with probability `flush_failure_rate`; failed
//!   records enter a retry queue and are retried with exponential backoff
//!   (measured in flush passes), up to `max_retries` failures each;
//! * the retry queue is bounded by `queue_capacity`; records failing while
//!   it is full are dropped;
//! * records that fail validation never reach the store — they land in a
//!   quarantine lane with their diagnosis.
//!
//! Every fate is counted in [`IngestStats`], so callers can account for
//! each record handed in: `accepted + dropped + quarantined` equals the
//! number of ingest calls once the collector is drained (`retried` counts
//! retry *attempts*, not records). The default config injects no faults
//! and behaves exactly like the original write-through collector.
//!
//! # Id density invariant
//!
//! Every entry point ([`Collector::ingest`], [`Collector::ingest_batch`],
//! [`Collector::commit_batch`]) assigns ids at *store* time, in store
//! order: the ids of stored records are exactly `0..stats().accepted`,
//! with no gaps, regardless of how many records were dropped or
//! quarantined along the way. Each call is one group commit — one
//! [`SessionSink::commit`] under the lock — so the ids it stores form the
//! contiguous range it returns.

use crate::record::SessionRecord;
use netsim::faults::{backoff_delay, FailureInjector};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Error type sinks report; boxed so any backend's error fits.
pub type SinkError = Box<dyn std::error::Error + Send + Sync>;

/// A spill target for stored sessions.
///
/// In the default configuration the collector keeps every stored record
/// in memory and [`Collector::into_parts`] returns them as a sorted
/// `Vec`. A collector built with [`Collector::with_sink`] instead hands
/// each stored record to the sink the moment it is accepted — bounded
/// memory, suitable for dataset sizes that never fit in RAM. Sink write
/// failures flow through the same retry/backoff/drop machinery as
/// injected flush failures, so a flaky disk degrades the run instead of
/// crashing it.
pub trait SessionSink: Send {
    /// Appends one stored record. The collector has already assigned the
    /// dense `session_id`.
    fn append(&mut self, rec: &SessionRecord) -> Result<(), SinkError>;
    /// Appends `batch` in order as one group commit: once this returns
    /// `Ok`, every record is as durable as the sink promises (a
    /// WAL-backed store pays one fsync for the whole batch). The default
    /// appends record by record.
    fn commit(&mut self, batch: &[SessionRecord]) -> Result<(), CommitError> {
        for (kept, rec) in batch.iter().enumerate() {
            self.append(rec)
                .map_err(|error| CommitError { kept, error })?;
        }
        Ok(())
    }
    /// Flushes and closes the sink (e.g. seals the final segment).
    fn finish(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
}

/// A failed [`SessionSink::commit`]: the sink kept the first `kept`
/// records of the batch and none after them.
#[derive(Debug)]
pub struct CommitError {
    /// Leading records of the batch the sink did keep.
    pub kept: usize,
    /// Why the rest were not kept.
    pub error: SinkError,
}

/// Errors surfaced by the collector's fallible entry points.
#[derive(Debug)]
pub enum CollectorError {
    /// The spill sink failed while flushing or closing.
    Sink {
        /// Backend error message.
        message: String,
    },
    /// A parallel ingest worker panicked.
    WorkerPanicked {
        /// Index of the worker that died.
        worker: usize,
        /// Panic payload, when it was a string.
        message: String,
    },
    /// Exclusive access was required but the collector is still shared.
    StillShared {
        /// Outstanding strong references.
        references: usize,
    },
}

impl std::fmt::Display for CollectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectorError::Sink { message } => write!(f, "session sink failed: {message}"),
            CollectorError::WorkerPanicked { worker, message } => {
                write!(f, "ingest worker {worker} panicked: {message}")
            }
            CollectorError::StillShared { references } => {
                write!(f, "collector still shared ({references} references)")
            }
        }
    }
}

impl std::error::Error for CollectorError {}

/// Fault-injection knobs for the collector. The default injects nothing.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Retry-queue bound; `None` means unbounded.
    pub queue_capacity: Option<usize>,
    /// Probability that one store write fails.
    pub flush_failure_rate: f64,
    /// Failures tolerated per record before it is dropped.
    pub max_retries: u32,
    /// Seed of the failure injector.
    pub seed: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            queue_capacity: None,
            flush_failure_rate: 0.0,
            max_retries: 3,
            seed: 0,
        }
    }
}

/// Counters for every fate an ingested record can meet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records stored (ids `0..accepted`).
    pub accepted: u64,
    /// Retry attempts performed (attempts, not distinct records).
    pub retried: u64,
    /// Records lost: retries exhausted or retry queue full.
    pub dropped: u64,
    /// Records failing validation, diverted to the quarantine lane.
    pub quarantined: u64,
}

/// What happened to one ingested record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Stored immediately under this id.
    Stored(u64),
    /// Write failed; queued for retry (will be stored or dropped later).
    Deferred,
    /// Lost: the retry queue was full.
    Dropped,
    /// Failed validation; kept in the quarantine lane.
    Quarantined,
}

/// Why a record was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationError {
    /// The session ends before it starts.
    EndBeforeStart,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::EndBeforeStart => write!(f, "session ends before it starts"),
        }
    }
}

fn validate(rec: &SessionRecord) -> Result<(), ValidationError> {
    if rec.end < rec.start {
        return Err(ValidationError::EndBeforeStart);
    }
    Ok(())
}

#[derive(Debug)]
struct Queued {
    rec: SessionRecord,
    failures: u32,
    /// First flush pass allowed to retry this record (backoff).
    ready_at: u64,
}

struct Inner {
    stored: Vec<SessionRecord>,
    sink: Option<Box<dyn SessionSink>>,
    last_sink_error: Option<String>,
    retry: VecDeque<Queued>,
    quarantine: Vec<(SessionRecord, ValidationError)>,
    stats: IngestStats,
    injector: FailureInjector,
    pass: u64,
    /// Records of the commit in progress; kept to reuse its allocation.
    staged: Vec<SessionRecord>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("stored", &self.stored.len())
            .field("sink", &self.sink.is_some())
            .field("retry", &self.retry.len())
            .field("quarantine", &self.quarantine.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// What [`Inner::commit`] did.
struct Committed {
    /// Ids stored by the commit.
    ids: std::ops::Range<u64>,
    /// Fate of the last fresh record, if there was one.
    last_fresh: Option<IngestOutcome>,
}

impl Inner {
    /// Requeues a record whose write failed, or drops it when it is out
    /// of retries (or is new and the retry queue is full). `prior` is
    /// how often it had failed before.
    fn fail(
        &mut self,
        rec: SessionRecord,
        prior: u32,
        cap: Option<usize>,
        max_retries: u32,
    ) -> IngestOutcome {
        let failures = prior + 1;
        let queue_full = prior == 0 && cap.is_some_and(|cap| self.retry.len() >= cap);
        if failures > max_retries || queue_full {
            self.stats.dropped += 1;
            return IngestOutcome::Dropped;
        }
        self.stats.retried += 1;
        self.retry.push_back(Queued {
            rec,
            failures,
            ready_at: self.pass + backoff_delay(1, failures, 1 << 16),
        });
        IngestOutcome::Deferred
    }

    /// One group commit: the retries that are due, then the `fresh`
    /// records, validated (failures are quarantined), given the next
    /// dense ids and handed to the sink in one [`SessionSink::commit`].
    /// A write fails when the failure injector fires or the sink does
    /// not keep the record; failed records go to the retry queue.
    /// `on_stored` sees every record stored, in id order, once the
    /// commit has returned.
    fn commit(
        &mut self,
        fresh: impl IntoIterator<Item = SessionRecord>,
        cap: Option<usize>,
        max_retries: u32,
        on_stored: &mut dyn FnMut(&SessionRecord),
    ) -> Committed {
        let mut staged = std::mem::take(&mut self.staged);
        // Failure counts of the staged retries, which come first.
        let mut prior: Vec<u32> = Vec::new();
        if !self.retry.is_empty() {
            self.pass += 1;
            for q in std::mem::take(&mut self.retry) {
                if q.ready_at > self.pass {
                    self.retry.push_back(q);
                } else if self.injector.fires() {
                    self.fail(q.rec, q.failures, cap, max_retries);
                } else {
                    prior.push(q.failures);
                    staged.push(q.rec);
                }
            }
        }
        let mut last_fresh = None;
        for rec in fresh {
            last_fresh = None;
            if let Err(e) = validate(&rec) {
                self.stats.quarantined += 1;
                self.quarantine.push((rec, e));
                last_fresh = Some(IngestOutcome::Quarantined);
            } else if self.injector.fires() {
                last_fresh = Some(self.fail(rec, 0, cap, max_retries));
            } else {
                staged.push(rec);
            }
        }

        let first = self.stats.accepted;
        for (id, rec) in (first..).zip(staged.iter_mut()) {
            rec.session_id = id;
        }
        let kept = match &mut self.sink {
            Some(sink) => match sink.commit(&staged) {
                Ok(()) => staged.len(),
                Err(e) => {
                    self.last_sink_error = Some(e.error.to_string());
                    e.kept.min(staged.len())
                }
            },
            None => staged.len(),
        };
        self.stats.accepted += kept as u64;
        let ids = first..first + kept as u64;
        let staged_fresh = staged.len() > prior.len();
        let mut last_staged = None;
        for (i, rec) in staged.drain(kept..).enumerate() {
            let p = prior.get(kept + i).copied().unwrap_or(0);
            last_staged = Some(self.fail(rec, p, cap, max_retries));
        }
        if staged_fresh && last_fresh.is_none() {
            last_fresh = last_staged.or(Some(IngestOutcome::Stored(ids.end.wrapping_sub(1))));
        }
        if self.sink.is_some() {
            staged.iter().for_each(&mut *on_stored);
            staged.clear();
        } else {
            let from = self.stored.len();
            self.stored.append(&mut staged);
            self.stored[from..].iter().for_each(&mut *on_stored);
        }
        self.staged = staged;
        Committed { ids, last_fresh }
    }
}

/// Thread-safe session sink.
#[derive(Debug)]
pub struct Collector {
    inner: Mutex<Inner>,
    capacity: Option<usize>,
    max_retries: u32,
}

impl Default for Collector {
    fn default() -> Self {
        Self::with_config(CollectorConfig::default())
    }
}

impl Collector {
    /// An empty, fault-free collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collector with the given fault-injection config.
    pub fn with_config(cfg: CollectorConfig) -> Self {
        Self {
            inner: Mutex::new(Inner {
                stored: Vec::new(),
                sink: None,
                last_sink_error: None,
                retry: VecDeque::new(),
                quarantine: Vec::new(),
                stats: IngestStats::default(),
                injector: FailureInjector::new(cfg.flush_failure_rate, cfg.seed),
                pass: 0,
                staged: Vec::new(),
            }),
            capacity: cfg.queue_capacity,
            max_retries: cfg.max_retries,
        }
    }

    /// A collector that spills every stored record into `sink` instead of
    /// keeping it in memory (see [`SessionSink`]). Retry/backoff/drop and
    /// quarantine behave exactly as in the in-memory mode; drain with
    /// [`Collector::into_sink_parts`].
    pub fn with_sink(cfg: CollectorConfig, sink: Box<dyn SessionSink>) -> Self {
        let c = Self::with_config(cfg);
        c.inner.lock().sink = Some(sink);
        c
    }

    /// Ingests one closed session. On the fault-free default config this
    /// always stores immediately and returns
    /// [`IngestOutcome::Stored`] with the assigned dense id.
    pub fn ingest(&self, rec: SessionRecord) -> IngestOutcome {
        let mut inner = self.inner.lock();
        inner
            .commit([rec], self.capacity, self.max_retries, &mut |_| {})
            .last_fresh
            .expect("one fresh record")
    }

    /// Ingests a batch under a single lock acquisition and returns the
    /// contiguous id range this call stored (see the module-level
    /// id-density invariant): the batch's stored members, after any
    /// retries that came due. Deferred, dropped and quarantined members
    /// are excluded from the range and visible via [`Collector::stats`].
    pub fn ingest_batch(
        &self,
        recs: impl IntoIterator<Item = SessionRecord>,
    ) -> std::ops::Range<u64> {
        self.commit_batch(recs, |_| {})
    }

    /// Group commit: ingests `recs` together with any retries that are
    /// due, handing every record stored to the sink in one
    /// [`SessionSink::commit`] (one fsync on a WAL-backed store). Once
    /// the commit has returned, `on_stored` sees each stored record in id
    /// order — what a live consumer may publish as durable. Returns the
    /// ids stored, which may include retried records from earlier calls.
    pub fn commit_batch(
        &self,
        recs: impl IntoIterator<Item = SessionRecord>,
        mut on_stored: impl FnMut(&SessionRecord),
    ) -> std::ops::Range<u64> {
        let mut inner = self.inner.lock();
        inner
            .commit(recs, self.capacity, self.max_retries, &mut on_stored)
            .ids
    }

    /// Whether failed writes are still queued for retry.
    pub fn has_retries(&self) -> bool {
        !self.inner.lock().retry.is_empty()
    }

    /// Number of sessions stored.
    pub fn len(&self) -> usize {
        self.inner.lock().stored.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().stored.is_empty()
    }

    /// Current fate counters. Records still awaiting retry are in no
    /// counter yet; drain with [`Collector::into_parts`] for the final
    /// accounting.
    pub fn stats(&self) -> IngestStats {
        self.inner.lock().stats
    }

    /// The quarantine lane: records that failed validation, with their
    /// diagnoses.
    pub fn quarantine(&self) -> Vec<(SessionRecord, ValidationError)> {
        self.inner.lock().quarantine.clone()
    }

    /// Freezes the collector into a chronologically sorted dataset, as the
    /// in-situ analysis interface presents it.
    pub fn into_dataset(self) -> Vec<SessionRecord> {
        self.into_parts().0
    }

    /// Drains the retry queue (each record is retried until stored or out
    /// of retries) and freezes the collector, returning the sorted
    /// dataset, the final stats, and the quarantine lane.
    pub fn into_parts(
        self,
    ) -> (
        Vec<SessionRecord>,
        IngestStats,
        Vec<(SessionRecord, ValidationError)>,
    ) {
        let mut inner = self.inner.into_inner();
        while !inner.retry.is_empty() {
            inner.commit(
                std::iter::empty(),
                self.capacity,
                self.max_retries,
                &mut |_| {},
            );
        }
        let mut v = inner.stored;
        v.sort_by_key(|r| (r.start, r.session_id));
        (v, inner.stats, inner.quarantine)
    }

    /// Drains the retry queue and closes the spill sink of a collector
    /// built with [`Collector::with_sink`], returning the final stats and
    /// quarantine lane. Records lost to persistent sink failures are in
    /// `stats.dropped`; a failing [`SessionSink::finish`] (e.g. the final
    /// segment cannot be sealed) is a hard error.
    pub fn into_sink_parts(
        self,
    ) -> Result<(IngestStats, Vec<(SessionRecord, ValidationError)>), CollectorError> {
        let mut inner = self.inner.into_inner();
        while !inner.retry.is_empty() {
            inner.commit(
                std::iter::empty(),
                self.capacity,
                self.max_retries,
                &mut |_| {},
            );
        }
        if let Some(mut sink) = inner.sink.take() {
            sink.finish().map_err(|e| CollectorError::Sink {
                message: e.to_string(),
            })?;
        }
        Ok((inner.stats, inner.quarantine))
    }

    /// Reclaims exclusive ownership of a shared collector, e.g. after
    /// parallel ingest. Unlike `Arc::try_unwrap(..).unwrap()`, contention
    /// (a worker still holding a clone) surfaces as
    /// [`CollectorError::StillShared`] instead of a panic.
    pub fn try_from_arc(c: Arc<Collector>) -> Result<Collector, CollectorError> {
        Arc::try_unwrap(c).map_err(|arc| CollectorError::StillShared {
            references: Arc::strong_count(&arc),
        })
    }
}

/// Runs `workers` ingest closures against one collector on scoped
/// threads and hands the collector back once all of them finished.
///
/// Worker panics are caught at join time and propagated as
/// [`CollectorError::WorkerPanicked`] (first failing worker wins) rather
/// than tearing down the whole process — a long generation run survives
/// one misbehaving producer and still reports what happened.
pub fn ingest_parallel<F>(
    collector: Collector,
    workers: usize,
    work: F,
) -> Result<Collector, CollectorError>
where
    F: Fn(usize, &Collector) + Send + Sync,
{
    let first_err = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let collector = &collector;
                let work = &work;
                (w, scope.spawn(move || work(w, collector)))
            })
            .collect();
        let mut first_err = None;
        for (worker, handle) in handles {
            if let Err(payload) = handle.join() {
                let message = panic_message(payload.as_ref());
                if first_err.is_none() {
                    first_err = Some(CollectorError::WorkerPanicked { worker, message });
                }
            }
        }
        first_err
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(collector),
    }
}

/// Best-effort extraction of a panic payload's message. Shared with the
/// serving layer's shard supervision, which turns caught unwinds into
/// the same style of diagnostics as collector worker panics.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Protocol, SessionEndReason};
    use hutil::Date;
    use netsim::Ipv4Addr;

    fn rec(start_hour: u8) -> SessionRecord {
        SessionRecord {
            session_id: 999, // collector must overwrite
            honeypot_id: 0,
            honeypot_ip: Ipv4Addr(1),
            client_ip: Ipv4Addr(2),
            client_port: 1,
            protocol: Protocol::Ssh,
            start: Date::new(2022, 1, 1).at(start_hour, 0, 0),
            end: Date::new(2022, 1, 1).at(start_hour, 0, 30),
            end_reason: SessionEndReason::ClientClose,
            client_version: None,
            logins: vec![],
            commands: vec![],
            uris: vec![],
            file_events: vec![],
        }
    }

    #[test]
    fn ids_are_dense_and_assigned() {
        let c = Collector::new();
        assert_eq!(c.ingest(rec(5)), IngestOutcome::Stored(0));
        assert_eq!(c.ingest(rec(3)), IngestOutcome::Stored(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().accepted, 2);
    }

    #[test]
    fn dataset_is_chronological() {
        let c = Collector::new();
        c.ingest(rec(9));
        c.ingest(rec(1));
        assert_eq!(c.ingest_batch([rec(5), rec(2)]), 2..4);
        let ds = c.into_dataset();
        assert_eq!(ds.len(), 4);
        let hours: Vec<u8> = ds.iter().map(|r| r.start.hour()).collect();
        assert_eq!(hours, vec![1, 2, 5, 9]);
    }

    #[test]
    fn concurrent_ingest_is_safe() {
        let c = ingest_parallel(Collector::new(), 8, |_, c| {
            for i in 0..100 {
                c.ingest(rec((i % 24) as u8));
            }
        })
        .expect("no worker panics");
        let ds = c.into_dataset();
        assert_eq!(ds.len(), 800);
        // Ids are a permutation of 0..800.
        let mut ids: Vec<u64> = ds.iter().map(|r| r.session_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..800).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_panic_is_an_error_not_a_crash() {
        let result = ingest_parallel(Collector::new(), 4, |w, c| {
            c.ingest(rec(1));
            if w == 2 {
                panic!("worker {w} died");
            }
        });
        match result {
            Err(CollectorError::WorkerPanicked { worker, message }) => {
                assert_eq!(worker, 2);
                assert!(message.contains("died"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn contended_arc_is_an_error_not_a_crash() {
        let c = Arc::new(Collector::new());
        let held = Arc::clone(&c);
        match Collector::try_from_arc(c) {
            Err(CollectorError::StillShared { references }) => assert_eq!(references, 2),
            other => panic!("expected StillShared, got {other:?}"),
        }
        drop(held);
    }

    /// A sink that records appends and can be told to fail.
    struct TestSink {
        seen: Arc<Mutex<Vec<u64>>>,
        fail_every: Option<u64>,
        calls: u64,
        finished: Arc<Mutex<bool>>,
    }

    impl SessionSink for TestSink {
        fn append(&mut self, rec: &SessionRecord) -> Result<(), SinkError> {
            self.calls += 1;
            if self
                .fail_every
                .is_some_and(|n| self.calls.is_multiple_of(n))
            {
                return Err("injected sink failure".into());
            }
            self.seen.lock().push(rec.session_id);
            Ok(())
        }

        fn finish(&mut self) -> Result<(), SinkError> {
            *self.finished.lock() = true;
            Ok(())
        }
    }

    #[test]
    fn sink_mode_spills_with_dense_ids_and_finishes() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let finished = Arc::new(Mutex::new(false));
        let c = Collector::with_sink(
            CollectorConfig::default(),
            Box::new(TestSink {
                seen: Arc::clone(&seen),
                fail_every: None,
                calls: 0,
                finished: Arc::clone(&finished),
            }),
        );
        for i in 0..50 {
            c.ingest(rec((i % 24) as u8));
        }
        let (stats, quarantine) = c.into_sink_parts().expect("sink closes");
        assert_eq!(stats.accepted, 50);
        assert!(quarantine.is_empty());
        assert!(*finished.lock(), "finish() must seal the sink");
        assert_eq!(*seen.lock(), (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn sink_failures_retry_like_flush_failures() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let finished = Arc::new(Mutex::new(false));
        let c = Collector::with_sink(
            CollectorConfig {
                max_retries: 8,
                ..CollectorConfig::default()
            },
            Box::new(TestSink {
                seen: Arc::clone(&seen),
                fail_every: Some(5), // every 5th append fails
                calls: 0,
                finished: Arc::clone(&finished),
            }),
        );
        for i in 0..100 {
            c.ingest(rec((i % 24) as u8));
        }
        let (stats, _) = c.into_sink_parts().expect("sink closes");
        assert!(
            stats.retried > 0,
            "sink failures must be retried: {stats:?}"
        );
        assert_eq!(stats.accepted + stats.dropped, 100);
        // Ids of spilled records are dense over the accepted set.
        let mut ids = seen.lock().clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..stats.accepted).collect::<Vec<u64>>());
    }

    /// A sink that counts commits and keeps only a prefix of one batch.
    struct BatchSink {
        commits: Arc<Mutex<Vec<Vec<u64>>>>,
        /// Keep this many records of the next commit, then fail.
        fail_after: Option<usize>,
    }

    impl SessionSink for BatchSink {
        fn append(&mut self, _rec: &SessionRecord) -> Result<(), SinkError> {
            unreachable!("the collector commits in batches")
        }

        fn commit(&mut self, batch: &[SessionRecord]) -> Result<(), CommitError> {
            let kept = self
                .fail_after
                .take()
                .unwrap_or(batch.len())
                .min(batch.len());
            let ids = batch[..kept].iter().map(|r| r.session_id).collect();
            self.commits.lock().push(ids);
            if kept < batch.len() {
                return Err(CommitError {
                    kept,
                    error: "injected commit failure".into(),
                });
            }
            Ok(())
        }
    }

    #[test]
    fn commit_batch_is_one_sink_commit_and_reports_stored_records() {
        let commits = Arc::new(Mutex::new(Vec::new()));
        let c = Collector::with_sink(
            CollectorConfig::default(),
            Box::new(BatchSink {
                commits: Arc::clone(&commits),
                fail_after: None,
            }),
        );
        let mut bad = rec(2);
        bad.end = bad.start.plus_secs(-1);
        let mut seen = Vec::new();
        let ids = c.commit_batch([rec(1), bad, rec(3)], |r| seen.push(r.session_id));
        assert_eq!(ids, 0..2);
        assert_eq!(seen, vec![0, 1], "stored records, in id order");
        assert_eq!(*commits.lock(), vec![vec![0, 1]], "one commit per batch");
        assert_eq!(c.stats().quarantined, 1);
    }

    #[test]
    fn partly_kept_commit_retries_the_rest_with_dense_ids() {
        let commits = Arc::new(Mutex::new(Vec::new()));
        let c = Collector::with_sink(
            CollectorConfig::default(),
            Box::new(BatchSink {
                commits: Arc::clone(&commits),
                fail_after: Some(2),
            }),
        );
        let mut seen = Vec::new();
        let ids = c.commit_batch((0..5).map(|h| rec(h as u8)), |r| seen.push(r.session_id));
        assert_eq!(ids, 0..2, "the kept prefix is stored");
        assert!(c.has_retries());
        let (stats, _) = c.into_sink_parts().expect("sink closes");
        assert_eq!(stats.accepted, 5);
        assert_eq!(stats.retried, 3);
        let stored: Vec<u64> = commits.lock().iter().flatten().copied().collect();
        assert_eq!(stored, (0..5).collect::<Vec<u64>>(), "ids stay dense");
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn invalid_records_are_quarantined() {
        let c = Collector::new();
        let mut bad = rec(5);
        bad.end = bad.start.plus_secs(-10);
        assert_eq!(c.ingest(bad), IngestOutcome::Quarantined);
        assert_eq!(c.ingest(rec(6)), IngestOutcome::Stored(0));
        let (ds, stats, quarantine) = c.into_parts();
        assert_eq!(ds.len(), 1);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(quarantine.len(), 1);
        assert_eq!(quarantine[0].1, ValidationError::EndBeforeStart);
    }

    #[test]
    fn flush_failures_retry_and_eventually_store() {
        let c = Collector::with_config(CollectorConfig {
            flush_failure_rate: 0.4,
            queue_capacity: Some(1024),
            max_retries: 8,
            seed: 17,
        });
        for i in 0..500 {
            c.ingest(rec((i % 24) as u8));
        }
        let (ds, stats, _) = c.into_parts();
        assert_eq!(stats.accepted, ds.len() as u64);
        assert!(stats.retried > 0, "some writes must have failed");
        // Full accounting: every record met exactly one fate.
        assert_eq!(stats.accepted + stats.dropped + stats.quarantined, 500);
        // With 8 retries at 40 % failure, nearly everything lands.
        assert!(ds.len() >= 490, "stored {}", ds.len());
        // Ids dense over stored records.
        let mut ids: Vec<u64> = ds.iter().map(|r| r.session_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..ds.len() as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn bounded_queue_drops_on_overflow() {
        let c = Collector::with_config(CollectorConfig {
            flush_failure_rate: 1.0, // every write fails
            queue_capacity: Some(4),
            max_retries: 1000,
            seed: 1,
        });
        for i in 0..50 {
            c.ingest(rec((i % 24) as u8));
        }
        let stats = c.stats();
        assert!(stats.dropped >= 40, "overflow must drop: {stats:?}");
    }

    #[test]
    fn zero_retries_drops_failed_writes_immediately() {
        let c = Collector::with_config(CollectorConfig {
            flush_failure_rate: 1.0,
            queue_capacity: None,
            max_retries: 0,
            seed: 2,
        });
        assert_eq!(c.ingest(rec(1)), IngestOutcome::Dropped);
        let (ds, stats, _) = c.into_parts();
        assert!(ds.is_empty());
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.retried, 0);
    }

    #[test]
    fn faulted_collector_is_deterministic() {
        let gen = || {
            let c = Collector::with_config(CollectorConfig {
                flush_failure_rate: 0.3,
                queue_capacity: Some(16),
                max_retries: 3,
                seed: 99,
            });
            for i in 0..300 {
                c.ingest(rec((i % 24) as u8));
            }
            c.into_parts()
        };
        let (a, sa, _) = gen();
        let (b, sb, _) = gen();
        assert_eq!(sa, sb);
        assert_eq!(a.len(), b.len());
    }
}
