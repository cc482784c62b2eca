//! The capture path: one bounded queue from the shards to the one
//! thread that makes sessions durable and publishes them.
//!
//! A shard moves each finished [`SessionRecord`] into the
//! [`CaptureQueue`] and goes back to its sockets; it never touches the
//! collector, the store or the disk. The `serve-aggregator` thread takes
//! whatever is queued as one batch and, in order:
//!
//! 1. validates and quarantines, then appends the batch's WAL frames
//!    with one `write` and at most one `fdatasync` (a group commit,
//!    [`Collector::commit_batch`]);
//! 2. feeds the records the commit stored to the live accumulators;
//! 3. counts the batch's clean sessions as `completed`;
//! 4. renders SSE frames, if anyone subscribes.
//!
//! So a session is counted, visible in `/api/stats` and sent on
//! `/events` only once its frame is as durable as `--fsync-every` asks,
//! and the live view and the store are fed from the same records.
//!
//! # Backpressure
//!
//! The queue never blocks a shard and never drops a record. Every
//! admitted connection holds a [`CaptureSlot`] from accept until its
//! record has been committed; accept sheds the connection (counted as
//! `shed_capture_backlog`) when no slot is free. Open connections plus
//! queued records therefore never exceed the queue's capacity, twice
//! `--max-conns`.

use crate::broadcast::{EventBus, SnapshotCell, SnapshotPublisher};
use crate::conn::now_unix;
use crate::stats::{
    recovery_event_json, session_event_json, AggregatorState, ApiSnapshot, SseStats, PUBLISH_TICK,
};
use crate::ServeStats;
use honeypot::{Collector, SessionRecord};
use sessiondb::RecoveryReport;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capture slots for a server admitting `max_connections` at once: one
/// per open connection plus as many again for records awaiting commit.
pub fn capacity_for(max_connections: usize) -> usize {
    max_connections.max(1).saturating_mul(2)
}

/// Records handed over by the shards and not yet taken by the capture
/// thread.
#[derive(Default)]
struct Pending {
    records: Vec<SessionRecord>,
    /// How many of `records` are clean finishes (not contained panics).
    completed: u64,
    /// No more records will come.
    closed: bool,
    /// The capture thread is waiting on the condvar.
    sleeping: bool,
}

/// The bounded shard → capture-thread queue. See the module docs.
pub struct CaptureQueue {
    capacity: usize,
    /// Slots held by open connections and by uncommitted records.
    held: AtomicUsize,
    pending: Mutex<Pending>,
    ready: Condvar,
}

impl CaptureQueue {
    /// A queue with `capacity` slots.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            capacity,
            held: AtomicUsize::new(0),
            pending: Mutex::new(Pending::default()),
            ready: Condvar::new(),
        })
    }

    /// Reserves room for one future record, or `None` when open
    /// connections and uncommitted records already fill the queue.
    pub fn reserve(self: &Arc<Self>) -> Option<CaptureSlot> {
        self.held
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |h| {
                (h < self.capacity).then_some(h + 1)
            })
            .ok()
            .map(|_| CaptureSlot {
                queue: Arc::clone(self),
            })
    }

    /// Slots currently held.
    pub fn held(&self) -> usize {
        self.held.load(Ordering::Acquire)
    }

    fn push(&self, rec: SessionRecord, completed: bool) {
        let mut p = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        p.records.push(rec);
        p.completed += u64::from(completed);
        let wake = p.sleeping;
        p.sleeping = false;
        drop(p);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Says no more records will come; the capture thread drains what
    /// is queued and exits.
    pub fn close(&self) {
        let mut p = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        p.closed = true;
        drop(p);
        self.ready.notify_one();
    }

    /// Swaps everything queued into the empty `batch`, waiting up to
    /// `timeout` for a first record. Returns how many of them are clean
    /// finishes and whether the queue is closed and now empty.
    fn take(&self, batch: &mut Vec<SessionRecord>, timeout: Duration) -> (u64, bool) {
        debug_assert!(batch.is_empty());
        let mut p = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        if p.records.is_empty() && !p.closed && !timeout.is_zero() {
            p.sleeping = true;
            p = self
                .ready
                .wait_timeout(p, timeout)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            p.sleeping = false;
        }
        std::mem::swap(&mut p.records, batch);
        let completed = std::mem::take(&mut p.completed);
        (completed, p.closed && batch.is_empty())
    }

    fn release(&self, n: usize) {
        self.held.fetch_sub(n, Ordering::AcqRel);
    }
}

/// Room for one record in the capture queue, held by a connection from
/// accept until it finishes. Dropping it unused (a connection torn down
/// with its shard) gives the room back.
pub struct CaptureSlot {
    queue: Arc<CaptureQueue>,
}

impl CaptureSlot {
    /// Moves the connection's record into the queue; the slot stays
    /// held until the capture thread has committed it. `completed` is
    /// false for a session recorded from a contained panic.
    pub fn push(self, rec: SessionRecord, completed: bool) {
        let queue = Arc::clone(&self.queue);
        std::mem::forget(self);
        queue.push(rec, completed);
    }
}

impl Drop for CaptureSlot {
    fn drop(&mut self) {
        self.queue.release(1);
    }
}

/// Handle to the running capture thread.
pub struct CaptureHandle {
    /// Where shards hand finished records over.
    pub queue: Arc<CaptureQueue>,
    /// The snapshot cell HTTP workers read.
    pub cell: Arc<SnapshotCell<ApiSnapshot>>,
    /// The SSE fan-out bus.
    pub bus: Arc<EventBus>,
    thread: Option<JoinHandle<Collector>>,
}

impl CaptureHandle {
    /// Closes the queue and waits for the thread to commit everything
    /// queued, publish a final snapshot and hand the collector back.
    pub fn join(mut self) -> std::thread::Result<Collector> {
        self.queue.close();
        self.thread.take().expect("joined once").join()
    }
}

impl Drop for CaptureHandle {
    /// A handle dropped unjoined (a failed start) still stops the thread.
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// What the capture thread runs with, besides the queue.
pub struct CaptureConfig {
    /// Serving counters; the thread bumps `completed`.
    pub stats: Arc<ServeStats>,
    /// Shutdown flag, mirrored into the snapshot as "draining".
    pub shutdown: Arc<AtomicBool>,
    /// Depth of the recent-sessions tail.
    pub recent_cap: usize,
    /// Period of the stderr stats line; `None` disables it.
    pub stats_interval: Option<Duration>,
    /// What crash recovery did when the store opened.
    pub recovery: Option<RecoveryReport>,
    /// Queue capacity, see [`capacity_for`].
    pub capacity: usize,
}

/// Spawns the capture thread (named `serve-aggregator`) around
/// `collector`, which it owns until [`CaptureHandle::join`].
pub fn spawn_capture(collector: Collector, cfg: CaptureConfig) -> CaptureHandle {
    let queue = CaptureQueue::new(cfg.capacity);
    let (cell, publisher) = SnapshotCell::new(Arc::new(ApiSnapshot::empty(now_unix())));
    let bus = Arc::new(EventBus::new());
    let thread = {
        let queue = Arc::clone(&queue);
        let bus = Arc::clone(&bus);
        std::thread::Builder::new()
            .name("serve-aggregator".into())
            .spawn(move || capture_loop(&queue, collector, publisher, &bus, cfg))
            .expect("spawn capture thread")
    };
    CaptureHandle {
        queue,
        cell,
        bus,
        thread: Some(thread),
    }
}

/// Feeds one stored record to the accumulators and, when anyone
/// listens, to `/events`.
fn publish_session(state: &mut AggregatorState, bus: &EventBus, live: bool, rec: &SessionRecord) {
    let summary = state.push_session(rec);
    if live {
        bus.publish(crate::sse::frame(
            "session",
            &session_event_json(&summary).render(),
        ));
    }
}

fn capture_loop(
    queue: &CaptureQueue,
    collector: Collector,
    mut publisher: SnapshotPublisher<ApiSnapshot>,
    bus: &EventBus,
    cfg: CaptureConfig,
) -> Collector {
    // The wall clock is read exactly once, to anchor the epoch; every
    // later "now" is the anchor plus a monotonic delta, so a stepped
    // wall clock can never rewind the rings or inflate uptime.
    let started_wall = now_unix();
    let started_mono = Instant::now();
    let mono_now = move || started_wall + started_mono.elapsed().as_secs() as i64;
    let mut state = AggregatorState::new(started_wall, cfg.recent_cap);
    if let Some(report) = cfg.recovery {
        bus.publish(crate::sse::frame(
            "recovery",
            &recovery_event_json(&report).render(),
        ));
        state.set_recovery(report);
    }
    let mut batch: Vec<SessionRecord> = Vec::new();
    let mut last_publish = Instant::now();
    let mut last_line = Instant::now();
    loop {
        let wait = PUBLISH_TICK.saturating_sub(last_publish.elapsed());
        let (completed, closed) = queue.take(&mut batch, wait);
        let taken = batch.len();
        if taken > 0 || collector.has_retries() {
            let live = bus.subscribers() > 0;
            collector.commit_batch(batch.drain(..), |rec| {
                publish_session(&mut state, bus, live, rec);
            });
            cfg.stats.completed.fetch_add(completed, Ordering::Relaxed);
            queue.release(taken);
        }
        if closed {
            // Retries still queued get their last chances now, so the
            // final snapshot covers everything the store will hold.
            let live = bus.subscribers() > 0;
            while collector.has_retries() {
                collector.commit_batch(std::iter::empty(), |rec| {
                    publish_session(&mut state, bus, live, rec);
                });
            }
        }
        if cfg.shutdown.load(Ordering::Relaxed) {
            state.set_shutting_down();
        }
        if closed || last_publish.elapsed() >= PUBLISH_TICK {
            last_publish = Instant::now();
            let now = mono_now();
            let counters = cfg.stats.snapshot();
            state.absorb_counter_deltas(now, &counters);
            let sse = SseStats {
                subscribers: bus.subscribers() as u64,
                dropped_frames: bus.dropped_frames(),
            };
            publisher.publish(Arc::new(state.snapshot(now, counters, sse)));
        }
        if let Some(interval) = cfg.stats_interval {
            if last_line.elapsed() >= interval {
                last_line = Instant::now();
                eprintln!("[serve] {}", cfg.stats.snapshot().render());
            }
        }
        if closed {
            return collector;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::sample_record;
    use honeypot::{CollectorConfig, CommitError, SessionSink, SinkError};

    fn config(stats: &Arc<ServeStats>, capacity: usize) -> CaptureConfig {
        CaptureConfig {
            stats: Arc::clone(stats),
            shutdown: Arc::new(AtomicBool::new(false)),
            recent_cap: 8,
            stats_interval: None,
            recovery: None,
            capacity,
        }
    }

    /// A sink whose commit blocks until the test releases it.
    struct GatedSink {
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    }

    impl SessionSink for GatedSink {
        fn append(&mut self, _rec: &SessionRecord) -> Result<(), SinkError> {
            unreachable!("capture commits in batches")
        }

        fn commit(&mut self, _batch: &[SessionRecord]) -> Result<(), CommitError> {
            self.entered.send(()).expect("test waits for the commit");
            self.release.recv().expect("test releases the commit");
            Ok(())
        }
    }

    #[test]
    fn nothing_is_counted_or_published_before_the_commit_returns() {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let sink = GatedSink {
            entered: entered_tx,
            release: release_rx,
        };
        let stats = Arc::new(ServeStats::default());
        let collector = Collector::with_sink(CollectorConfig::default(), Box::new(sink));
        let handle = spawn_capture(collector, config(&stats, 8));
        let sub = handle.bus.subscribe();
        handle
            .queue
            .reserve()
            .expect("slot")
            .push(sample_record(1, now_unix()), true);
        entered.recv().expect("the capture thread commits");
        // Blocked in commit for longer than a publish tick.
        std::thread::sleep(PUBLISH_TICK * 2);
        assert_eq!(stats.completed.load(Ordering::Relaxed), 0);
        assert_eq!(handle.cell.load().taxonomy.total_sessions, 0);
        assert_eq!(handle.cell.load().counters.completed, 0);
        assert!(sub.try_next().is_none(), "no SSE frame before the commit");
        assert_eq!(handle.queue.held(), 1, "the record holds its slot");

        release.send(()).expect("capture thread alive");
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.cell.load().taxonomy.total_sessions == 0 {
            assert!(Instant::now() < deadline, "snapshot never advanced");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(stats.completed.load(Ordering::Relaxed), 1);
        assert_eq!(handle.cell.load().counters.completed, 1);
        let frame = sub.try_next().expect("session frame after the commit");
        assert!(frame.starts_with("event: session\n"));
        assert_eq!(handle.queue.held(), 0);
        drop(release);
        handle.join().expect("capture thread exits");
    }

    #[test]
    fn slots_bound_open_connections_plus_queued_records() {
        let q = CaptureQueue::new(2);
        let a = q.reserve().expect("first slot");
        let b = q.reserve().expect("second slot");
        assert!(q.reserve().is_none(), "queue full");
        drop(a); // a connection torn down unrecorded gives its slot back
        assert_eq!(q.held(), 1);
        b.push(sample_record(1, 1_000), true);
        assert_eq!(q.held(), 1, "a queued record keeps its slot");
        let c = q.reserve().expect("slot freed by the drop");
        assert!(q.reserve().is_none());
        let mut batch = Vec::new();
        assert_eq!(q.take(&mut batch, Duration::ZERO), (1, false));
        assert_eq!(batch.len(), 1);
        q.release(batch.len());
        drop(c);
        assert_eq!(q.held(), 0);
    }

    #[test]
    fn capture_thread_commits_publishes_and_hands_the_collector_back() {
        let stats = Arc::new(ServeStats::default());
        let handle = spawn_capture(Collector::new(), config(&stats, 8));
        let sub = handle.bus.subscribe();
        let slot = handle.queue.reserve().expect("slot");
        slot.push(sample_record(7, now_unix()), true);
        let failed = handle.queue.reserve().expect("slot");
        failed.push(sample_record(8, now_unix()), false);
        let cell = Arc::clone(&handle.cell);
        let queue = Arc::clone(&handle.queue);
        let collector = handle.join().unwrap();
        assert_eq!(collector.stats().accepted, 2);
        assert_eq!(queue.held(), 0, "committed records release their slots");
        assert_eq!(
            stats.completed.load(Ordering::Relaxed),
            1,
            "panics are not completions"
        );
        let snap = cell.load();
        assert_eq!(snap.taxonomy.total_sessions, 2);
        // Ids are the store's, assigned at commit.
        assert_eq!(snap.recent[0].session_id, 1);
        let frame = sub.try_next().expect("session frame fanned out");
        assert!(frame.starts_with("event: session\n"));
    }
}
