//! Lock-free publication primitives for the observability plane.
//!
//! The dashboard contract is one-directional: the serving hot path
//! (accept threads, worker shards) must never block on — or even share a
//! lock with — dashboard readers. Two primitives enforce that:
//!
//! * [`SnapshotCell`] — a single-writer, multi-reader cell holding an
//!   `Arc<T>` snapshot. Readers *atomically* acquire the current `Arc`
//!   without taking any lock (a 2-slot RCU: per-slot reader counts plus
//!   an atomic current-slot index); the single writer publishes a new
//!   snapshot by swapping the retired slot and waiting out its last
//!   stragglers. The writer is the aggregator thread, never a serving
//!   thread, so a slow (or stalled) dashboard reader can only delay the
//!   *next* publish — never a connection.
//! * [`EventBus`] — SSE fan-out with bounded per-subscriber queues. The
//!   publisher (again: only the aggregator thread) `try_send`s each
//!   frame; a subscriber that cannot keep up loses frames (counted),
//!   rather than exerting backpressure upstream.
//!
//! Serving threads interact with the plane only by handing finished
//! records to the capture queue (see `capture::CaptureQueue`).

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// One slot of the RCU cell: an owned `Arc` (as a raw pointer) plus the
/// count of readers currently acquiring through this slot.
struct Slot<T> {
    ptr: AtomicPtr<T>,
    readers: AtomicUsize,
}

/// A single-writer, multi-reader snapshot cell. Readers call
/// [`SnapshotCell::load`] (lock-free, no syscalls); the unique writer
/// holds the [`SnapshotPublisher`] and calls
/// [`SnapshotPublisher::publish`].
///
/// # How the 2-slot RCU works
///
/// `current` indexes the live slot. A reader (1) increments the live
/// slot's reader count, (2) re-checks `current` — if it moved, the slot
/// may be getting retired, so back off and retry — then (3) clones the
/// `Arc` out of the slot and decrements the count. The writer publishes
/// into the *retired* slot: it first waits for that slot's reader count
/// to drain (readers there either finished or will fail their re-check
/// without touching the pointer), swaps the new snapshot in, flips
/// `current`, and only then drops the displaced `Arc`. The write side
/// may spin briefly; the read side never does more than retry step
/// (1)–(2), which only loops while a publish is in flight.
pub struct SnapshotCell<T> {
    slots: [Slot<T>; 2],
    current: AtomicUsize,
}

// SAFETY: the cell hands out `Arc<T>` clones across threads; the raw
// pointers are only manufactured from and released back to `Arc`.
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

impl<T> SnapshotCell<T> {
    /// Creates a cell seeded with `initial` and returns it with its
    /// unique writer handle.
    pub fn new(initial: Arc<T>) -> (Arc<Self>, SnapshotPublisher<T>) {
        // Both slots start populated so `load` never sees a null: slot 0
        // is live, slot 1 holds a second reference to the same snapshot.
        let a = Arc::into_raw(Arc::clone(&initial)) as *mut T;
        let b = Arc::into_raw(initial) as *mut T;
        let cell = Arc::new(Self {
            slots: [
                Slot {
                    ptr: AtomicPtr::new(a),
                    readers: AtomicUsize::new(0),
                },
                Slot {
                    ptr: AtomicPtr::new(b),
                    readers: AtomicUsize::new(0),
                },
            ],
            current: AtomicUsize::new(0),
        });
        let publisher = SnapshotPublisher {
            cell: Arc::clone(&cell),
        };
        (cell, publisher)
    }

    /// Acquires the current snapshot. Lock-free: at worst it retries the
    /// two-instruction acquire protocol while a publish is mid-flip.
    pub fn load(&self) -> Arc<T> {
        loop {
            let i = self.current.load(Ordering::SeqCst);
            self.slots[i].readers.fetch_add(1, Ordering::SeqCst);
            if self.current.load(Ordering::SeqCst) == i {
                let p = self.slots[i].ptr.load(Ordering::SeqCst);
                // SAFETY: `current == i` after our reader-count
                // increment means the writer cannot have retired this
                // slot (it drains the count *before* swapping the
                // pointer and flips `current` before the next retire),
                // so `p` is a live Arc raw pointer.
                let arc = unsafe {
                    Arc::increment_strong_count(p);
                    Arc::from_raw(p)
                };
                self.slots[i].readers.fetch_sub(1, Ordering::SeqCst);
                return arc;
            }
            // A publish flipped `current` between our load and
            // increment; this slot may be getting retired. Back off.
            self.slots[i].readers.fetch_sub(1, Ordering::SeqCst);
            std::hint::spin_loop();
        }
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        for slot in &self.slots {
            let p = slot.ptr.load(Ordering::SeqCst);
            if !p.is_null() {
                // SAFETY: each slot holds one owned Arc reference.
                unsafe { drop(Arc::from_raw(p)) };
            }
        }
    }
}

/// The unique write handle of a [`SnapshotCell`]. Owned by the
/// aggregator thread; `publish` takes `&mut self`, so single-writer is
/// enforced by the type system.
pub struct SnapshotPublisher<T> {
    cell: Arc<SnapshotCell<T>>,
}

impl<T> SnapshotPublisher<T> {
    /// Publishes a new snapshot. May spin waiting for the last readers
    /// of the *previous-previous* snapshot to finish their (handful of
    /// instructions) acquire sequence — never for readers holding the
    /// returned `Arc`, which keep it alive independently.
    pub fn publish(&mut self, snapshot: Arc<T>) {
        let cell = &*self.cell;
        let live = cell.current.load(Ordering::SeqCst);
        let retired = 1 - live;
        // Drain stragglers still acquiring through the retired slot.
        // They either complete (count returns to 0) or fail their
        // re-check of `current` (it has pointed at `live` since the
        // previous publish) and never touch the pointer.
        while cell.slots[retired].readers.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        let fresh = Arc::into_raw(snapshot) as *mut T;
        let old = cell.slots[retired].ptr.swap(fresh, Ordering::SeqCst);
        cell.current.store(retired, Ordering::SeqCst);
        // SAFETY: `old` was this slot's owned reference; no reader can
        // have begun an acquire on it since the drain above, and any
        // reader that cloned it earlier holds its own strong count.
        unsafe { drop(Arc::from_raw(old)) };
    }

    /// Read access for the writer itself (same lock-free path).
    pub fn load(&self) -> Arc<T> {
        self.cell.load()
    }
}

/// How deep each SSE subscriber's frame queue is before frames drop.
pub const SUBSCRIBER_QUEUE_DEPTH: usize = 256;

/// One SSE subscriber's receive side.
pub struct Subscription {
    rx: Receiver<Arc<String>>,
}

impl Subscription {
    /// Takes the next queued frame, if any (never blocks).
    pub fn try_next(&self) -> Option<Arc<String>> {
        self.rx.try_recv().ok()
    }
}

/// Fan-out of rendered SSE frames to live subscribers.
///
/// Published frames are reference-counted, rendered once, and
/// `try_send`-delivered: a full subscriber queue drops the frame for
/// that subscriber only (counted in [`EventBus::dropped_frames`]).
/// The subscriber list is behind a mutex, but it is touched only by the
/// aggregator thread and HTTP workers — never by an accept thread or
/// connection shard.
#[derive(Default)]
pub struct EventBus {
    subs: parking_lot::Mutex<Vec<SyncSender<Arc<String>>>>,
    dropped: AtomicU64,
}

impl EventBus {
    /// A bus with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscriber; frames published from now on are queued
    /// for it (up to [`SUBSCRIBER_QUEUE_DEPTH`]).
    pub fn subscribe(&self) -> Subscription {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_QUEUE_DEPTH);
        self.subs.lock().push(tx);
        Subscription { rx }
    }

    /// Publishes one rendered frame to every live subscriber.
    /// Disconnected subscribers are dropped from the list; full queues
    /// lose this frame and bump the drop counter.
    pub fn publish(&self, frame: String) {
        let frame = Arc::new(frame);
        let mut subs = self.subs.lock();
        subs.retain(|tx| match tx.try_send(Arc::clone(&frame)) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
    }

    /// Live subscriber count.
    pub fn subscribers(&self) -> usize {
        self.subs.lock().len()
    }

    /// Frames lost to slow subscribers since startup.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn snapshot_cell_loads_what_was_published() {
        let (cell, mut publisher) = SnapshotCell::new(Arc::new(0u64));
        assert_eq!(*cell.load(), 0);
        for i in 1..=100u64 {
            publisher.publish(Arc::new(i));
            assert_eq!(*cell.load(), i);
            assert_eq!(*publisher.load(), i);
        }
    }

    #[test]
    fn snapshot_cell_held_arcs_survive_later_publishes() {
        let (cell, mut publisher) = SnapshotCell::new(Arc::new(String::from("gen-0")));
        let held = cell.load();
        for i in 1..=10 {
            publisher.publish(Arc::new(format!("gen-{i}")));
        }
        assert_eq!(*held, "gen-0");
        assert_eq!(*cell.load(), "gen-10");
    }

    /// Readers hammer `load` while the writer publishes monotonically
    /// increasing values; every loaded value must be valid (no torn or
    /// freed reads — this test runs under the normal test harness, so a
    /// use-after-free would be UB caught by the allocator or by the
    /// monotonicity check below).
    #[test]
    fn snapshot_cell_concurrent_stress() {
        let (cell, mut publisher) = SnapshotCell::new(Arc::new(vec![0u64; 32]));
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut loads = 0u64;
                    started.fetch_add(1, Ordering::Relaxed);
                    while !stop.load(Ordering::Relaxed) {
                        let snap = cell.load();
                        // Every element equals the generation: a torn or
                        // stale-freed snapshot would break this.
                        let g = snap[0];
                        assert!(snap.iter().all(|&x| x == g), "consistent snapshot");
                        assert!(g >= last, "generations never run backwards");
                        last = g;
                        loads += 1;
                    }
                    loads
                })
            })
            .collect();
        // Publish only once every reader runs, so the loads overlap the
        // publishes even when the readers are slow to be scheduled.
        while started.load(Ordering::Relaxed) < 4 {
            std::thread::yield_now();
        }
        for g in 1..=10_000u64 {
            publisher.publish(Arc::new(vec![g; 32]));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "readers made progress");
        assert_eq!(cell.load()[0], 10_000);
    }

    #[test]
    fn event_bus_delivers_and_drops_only_on_full_queues() {
        let bus = EventBus::new();
        let sub = bus.subscribe();
        assert_eq!(bus.subscribers(), 1);
        bus.publish("frame-1".into());
        bus.publish("frame-2".into());
        assert_eq!(
            sub.try_next().as_deref().map(String::as_str),
            Some("frame-1")
        );
        assert_eq!(
            sub.try_next().as_deref().map(String::as_str),
            Some("frame-2")
        );
        assert!(sub.try_next().is_none());

        // Overflow: the slow subscriber loses frames, the bus survives.
        for i in 0..(SUBSCRIBER_QUEUE_DEPTH + 10) {
            bus.publish(format!("f{i}"));
        }
        assert_eq!(bus.dropped_frames(), 10);
        // Dropping the subscription unregisters on the next publish.
        drop(sub);
        bus.publish("gone".into());
        assert_eq!(bus.subscribers(), 0);
    }
}
