//! Server orchestration: listeners, sharded accept loops, supervised
//! worker pool, the capture thread (store and observability
//! aggregator), the HTTP plane, and graceful drain.
//!
//! # Engines
//!
//! Two shard engines share all of this orchestration (admission,
//! chaos, supervision, drain, capture):
//!
//! * [`Engine::Reactor`] (default) — readiness-driven: each shard owns
//!   a [`crate::reactor::Poller`] (epoll on Linux) plus a timer wheel;
//!   connections are pumped only when their socket is ready or their
//!   deadline fires. New sockets arrive through a lock-free
//!   [`crate::reactor::ShardQueue`] and an eventfd-style waker, so the
//!   accept→shard handoff takes no locks.
//! * [`Engine::Polled`] — the original scan-everything loop, kept as
//!   the measurable baseline and the fallback where no readiness API
//!   exists. Its historical fixed naps are now adaptive
//!   (spin → yield → park).
//!
//! # Crash containment
//!
//! Failures are contained at three radii. A single connection's pump
//! runs under `catch_unwind`: a poisoned session is recorded as a failed
//! session, its gate slot is released by the permit's `Drop`, and
//! `panics_caught` is bumped — the shard keeps serving its other
//! connections. If a shard thread dies anyway (a panic outside the
//! per-connection guard), the supervisor respawns it and re-homes its
//! intake queue, so the server keeps accepting at full width; the
//! panic message is reported through [`ServeReport::shard_panics`].
//! Accept/supervisor/capture threads have no respawn layer — a panic
//! there surfaces as [`ServeError::ThreadPanicked`] from
//! [`ServerHandle::join`].
//!
//! # Capture
//!
//! Shards never write the store. A finished connection's record moves
//! into the bounded [`crate::capture::CaptureQueue`] and the capture
//! thread group-commits it (see [`crate::capture`]). Each admitted
//! connection carries a [`CaptureSlot`] from accept on, so the queue
//! always has room for its record.

use crate::capture::{
    capacity_for, spawn_capture, CaptureConfig, CaptureHandle, CaptureQueue, CaptureSlot,
};
use crate::conn::{now_unix, Conn, LiveHandler, SensorIdentity, SharedStore};
use crate::reactor::{
    conn_interest, Backoff, Event, Interest, Poller, PopResult, ShardQueue, TimerWheel, Waker,
};
use crate::stats::ApiSnapshot;
use crate::{
    Admission, ChaosConfig, Engine, Gate, ServeConfig, ServeError, ServeStats, StatsSnapshot,
};
use honeypot::shell::NullStore;
use honeypot::{panic_message, AuthPolicy, Collector, CollectorError, IngestStats};
use netsim::faults::FailureInjector;
use sessiondb::{RecoveryReport, StoreOptions, StoreWriter};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which protocol a listener serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    Ssh,
    Telnet,
}

/// An admitted connection in flight from an accept thread to its shard.
/// Carries its gate permit and capture slot, so a connection dropped
/// anywhere along the way (queue teardown, shard death) releases both.
struct Admitted {
    stream: TcpStream,
    permit: crate::GatePermit,
    capture: CaptureSlot,
    client_port: u16,
    proto: Proto,
    start_unix: i64,
    seq: u64,
}

/// Maps a peer address into the record schema's IPv4 space. Real v4
/// addresses pass through. IPv6 peers are folded into the reserved
/// 240.0.0.0/8 block by FNV-1a hashing the full 16-byte address, so
/// distinct v6 clients keep distinct per-IP gate slots (and cannot
/// collide with any routable v4 peer — 240/8 is class E, never assigned).
pub fn fold_peer_ip(ip: IpAddr) -> netsim::Ipv4Addr {
    match ip {
        IpAddr::V4(v4) => {
            let o = v4.octets();
            netsim::Ipv4Addr::from_octets(o[0], o[1], o[2], o[3])
        }
        IpAddr::V6(v6) => {
            let mut h: u32 = 0x811c_9dc5;
            for b in v6.octets() {
                h ^= u32::from(b);
                h = h.wrapping_mul(0x0100_0193);
            }
            netsim::Ipv4Addr(0xF000_0000 | (h & 0x00FF_FFFF))
        }
    }
}

/// Intake side of a shard: a lock-free bounded queue plus the waker
/// that pops its reactor out of `epoll_wait`. Shared (via `Arc`) by the
/// accept threads, the shard thread, and the supervisor — so a
/// respawned shard thread picks up exactly where its predecessor left
/// off, queued connections (and their gate permits) included.
struct Intake {
    queue: ShardQueue<Admitted>,
    waker: Waker,
}

/// Everything a shard thread needs, cloneable so the supervisor can
/// hand a fresh copy to a respawned thread.
#[derive(Clone)]
struct ShardCtx {
    remote: SharedStore,
    stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    sensor: SensorIdentity,
    idle_timeout: Duration,
    session_timeout: Duration,
    drain_timeout: Duration,
    chaos: ChaosConfig,
}

impl ShardCtx {
    /// Records a cleanly finished connection: its record moves into the
    /// capture queue, where the slot it held since accept is waiting.
    fn record_finished(&self, conn: Conn<'_>, capture: CaptureSlot) {
        capture.push(conn.finish(self.sensor, &self.stats), true);
    }

    /// Records a connection whose pump panicked: plain fields only (the
    /// machine may be poisoned), same capture path.
    fn record_failed(&self, conn: Conn<'_>, capture: CaptureSlot) {
        self.stats.panics_caught.fetch_add(1, Ordering::Relaxed);
        capture.push(conn.into_failed(self.sensor), false);
    }
}

/// The live serving layer. See the crate docs for the architecture.
pub struct Server;

impl Server {
    /// Binds listeners, spawns the accept/worker/stats threads, and
    /// returns a handle. Downloads resolve against [`NullStore`] (every
    /// fetch 404s), which is what a production honeypot wants.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        Self::start_with_store(cfg, Arc::new(NullStore))
    }

    /// Like [`Server::start`] with an explicit download store (tests use
    /// this to serve known payloads).
    pub fn start_with_store(
        cfg: ServeConfig,
        remote: SharedStore,
    ) -> Result<ServerHandle, ServeError> {
        if cfg.ssh_port.is_none() && cfg.telnet_port.is_none() {
            return Err(ServeError::NoListeners);
        }

        let mut recovery = None;
        let collector = match &cfg.store_dir {
            Some(dir) => {
                let opts = StoreOptions {
                    rows_per_segment: cfg.rows_per_segment,
                    wal: Some(cfg.fsync),
                };
                let (writer, report) =
                    StoreWriter::with_options(dir, opts).map_err(|e| ServeError::Store {
                        message: e.to_string(),
                    })?;
                recovery = Some(report);
                Collector::with_sink(cfg.collector.clone(), Box::new(writer))
            }
            None => Collector::with_config(cfg.collector.clone()),
        };

        let mut listeners = Vec::new();
        for (port, proto) in [(cfg.ssh_port, Proto::Ssh), (cfg.telnet_port, Proto::Telnet)] {
            let Some(port) = port else { continue };
            let addr = SocketAddr::new(cfg.bind, port);
            let listener = TcpListener::bind(addr).map_err(|e| ServeError::Bind {
                addr: addr.to_string(),
                source: e,
            })?;
            listener
                .set_nonblocking(true)
                .map_err(|e| ServeError::Bind {
                    addr: addr.to_string(),
                    source: e,
                })?;
            deepen_backlog(&listener, cfg.max_connections);
            listeners.push((listener, proto));
        }

        // Fall back to the polled engine where no readiness API exists.
        let engine = if crate::reactor::poller_supported() {
            cfg.engine
        } else {
            Engine::Polled
        };

        let stats = Arc::new(ServeStats::default());
        let gate = Arc::new(Gate::new(cfg.max_connections, cfg.per_ip_limit));
        let shutdown = Arc::new(AtomicBool::new(false));
        let seq = Arc::new(AtomicU64::new(0));
        let workers = cfg.workers.max(1);

        // Each intake ring holds a generous multiple of this shard's
        // share of the connection cap, so a burst dealt unevenly never
        // wedges the accept thread on a full queue.
        let ring = (cfg.max_connections.div_ceil(workers) * 2).clamp(256, 65_536);
        let mut intakes: Vec<Arc<Intake>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            intakes.push(Arc::new(Intake {
                queue: ShardQueue::with_capacity(ring),
                waker: Waker::new().map_err(|e| ServeError::Store {
                    message: format!("cannot create shard waker: {e}"),
                })?,
            }));
        }

        // The capture thread owns the collector (and so the store) and
        // publishes the lock-free snapshots the HTTP plane reads. Shards
        // hand it finished records by move; accept reserves their room.
        let capture = spawn_capture(
            collector,
            CaptureConfig {
                stats: Arc::clone(&stats),
                shutdown: Arc::clone(&shutdown),
                recent_cap: cfg.recent_tail,
                stats_interval: cfg.stats_interval,
                recovery: recovery.clone(),
                capacity: capacity_for(cfg.max_connections),
            },
        );

        let mut addrs = ListenAddrs::default();
        let mut accept_threads = Vec::new();
        for (listener, proto) in listeners {
            let local = listener.local_addr().map_err(|e| ServeError::Bind {
                addr: "<bound>".into(),
                source: e,
            })?;
            match proto {
                Proto::Ssh => addrs.ssh = Some(local),
                Proto::Telnet => addrs.telnet = Some(local),
            }
            // Register as a producer *before* the thread exists, so no
            // shard can observe a closed queue during startup.
            for intake in &intakes {
                intake.queue.add_producer();
            }
            let intakes = intakes.clone();
            let stats = Arc::clone(&stats);
            let gate = Arc::clone(&gate);
            let shutdown = Arc::clone(&shutdown);
            let seq = Arc::clone(&seq);
            let queue = Arc::clone(&capture.queue);
            accept_threads.push(
                std::thread::Builder::new()
                    .name(format!("accept-{proto:?}").to_lowercase())
                    .spawn(move || {
                        accept_loop(
                            listener, proto, engine, &intakes, &stats, &gate, &queue, &shutdown,
                            &seq,
                        )
                    })
                    .expect("spawn accept thread"),
            );
        }

        let http = match cfg.http_port {
            Some(port) => {
                let handle = crate::http::start(
                    cfg.bind,
                    port,
                    cfg.http_workers,
                    Arc::clone(&capture.cell),
                    Arc::clone(&capture.bus),
                    Arc::clone(&shutdown),
                )?;
                addrs.http = Some(handle.addr);
                Some(handle)
            }
            None => None,
        };

        let ctx = ShardCtx {
            remote,
            stats: Arc::clone(&stats),
            shutdown: Arc::clone(&shutdown),
            sensor: SensorIdentity {
                honeypot_id: cfg.honeypot_id,
                honeypot_ip: cfg.honeypot_ip,
            },
            idle_timeout: cfg.idle_timeout,
            session_timeout: cfg.session_timeout,
            drain_timeout: cfg.drain_timeout,
            chaos: cfg.chaos,
        };
        let shard_panics: Arc<parking_lot::Mutex<Vec<String>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let supervisor = {
            let panics = Arc::clone(&shard_panics);
            std::thread::Builder::new()
                .name("shard-supervisor".into())
                .spawn(move || supervisor_loop(ctx, engine, intakes, &panics))
                .expect("spawn shard supervisor")
        };

        Ok(ServerHandle {
            addrs,
            stats,
            gate,
            shutdown,
            recovery,
            accept_threads,
            supervisor: Some(supervisor),
            shard_panics,
            capture: Some(capture),
            http,
        })
    }
}

/// Bound listener addresses (with ephemeral ports resolved).
#[derive(Debug, Clone, Copy, Default)]
pub struct ListenAddrs {
    /// SSH listener, if enabled.
    pub ssh: Option<SocketAddr>,
    /// Telnet listener, if enabled.
    pub telnet: Option<SocketAddr>,
    /// Observability HTTP listener, if enabled.
    pub http: Option<SocketAddr>,
}

/// Final accounting returned by [`ServerHandle::join`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Serving counters at the end of the run.
    pub snapshot: StatsSnapshot,
    /// Collector fate counters (accepted/retried/dropped/quarantined).
    pub ingest: IngestStats,
    /// Records that failed validation, with no store to hold them.
    pub quarantined: usize,
    /// Panic messages from shard threads that died and were respawned.
    pub shard_panics: Vec<String>,
}

impl ServeReport {
    /// The shared text rendering: the CLI's shutdown summary. One
    /// renderer for every consumer (no format forks between `serve`
    /// exit paths).
    pub fn render(&self) -> String {
        let mut out = format!(
            "final: {}\ncollector: {} accepted, {} dropped, {} quarantined",
            self.snapshot.render(),
            self.ingest.accepted,
            self.ingest.dropped,
            self.quarantined,
        );
        for p in &self.shard_panics {
            out.push_str("\nshard panic: ");
            out.push_str(p);
        }
        out
    }

    /// The v1 document (envelope kind `"serve_report"`), built from the
    /// same [`StatsSnapshot::api_json`] emitter `/api/stats` uses.
    pub fn api_json(&self) -> hutil::Json {
        use hutil::Json;
        hutil::api_envelope(
            "serve_report",
            Json::obj([
                ("counters", self.snapshot.api_json()),
                (
                    "ingest",
                    Json::obj([
                        ("accepted", Json::u64(self.ingest.accepted)),
                        ("retried", Json::u64(self.ingest.retried)),
                        ("dropped", Json::u64(self.ingest.dropped)),
                        ("quarantined", Json::u64(self.ingest.quarantined)),
                    ]),
                ),
                ("quarantined_rows", Json::u64(self.quarantined as u64)),
                (
                    "shard_panics",
                    Json::arr(self.shard_panics.iter().map(Json::str)),
                ),
            ]),
        )
    }

    /// Deterministic sample document for the `docs/api_v1` goldens.
    pub fn sample() -> Self {
        ServeReport {
            snapshot: StatsSnapshot {
                accepted: 202,
                shed_capacity: 0,
                shed_per_ip: 0,
                shed_capture_backlog: 0,
                active: 0,
                completed: 200,
                timed_out: 1,
                wire_errors: 0,
                bytes_in: 123_456,
                bytes_out: 654_321,
                accept_errors: 0,
                panics_caught: 0,
                shards_respawned: 0,
            },
            ingest: IngestStats {
                accepted: 200,
                retried: 3,
                dropped: 0,
                quarantined: 0,
            },
            quarantined: 0,
            shard_panics: Vec::new(),
        }
    }
}

/// A running server: addresses, live stats, and the shutdown lever.
pub struct ServerHandle {
    addrs: ListenAddrs,
    stats: Arc<ServeStats>,
    gate: Arc<Gate>,
    shutdown: Arc<AtomicBool>,
    recovery: Option<RecoveryReport>,
    accept_threads: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    shard_panics: Arc<parking_lot::Mutex<Vec<String>>>,
    capture: Option<CaptureHandle>,
    http: Option<crate::http::HttpHandle>,
}

impl ServerHandle {
    /// Bound listener addresses.
    pub fn addrs(&self) -> ListenAddrs {
        self.addrs
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Connections currently admitted.
    pub fn active(&self) -> usize {
        self.gate.active()
    }

    /// What crash recovery found (and did) in the spill store when this
    /// server opened it; `None` without a store.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The most recently published observability snapshot (same
    /// lock-free read path the HTTP endpoints use).
    pub fn api_snapshot(&self) -> Option<Arc<ApiSnapshot>> {
        self.capture.as_ref().map(|c| c.cell.load())
    }

    /// Starts graceful shutdown: accept loops stop, shards drain.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been triggered.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Triggers shutdown (idempotent), waits for every thread, seals the
    /// store, and returns the final accounting. A panic in any
    /// accept/supervisor/capture thread surfaces as
    /// [`ServeError::ThreadPanicked`] — after the store is sealed, so a
    /// sick run still keeps its data. (A dead capture thread cannot seal;
    /// the WAL keeps what it committed for recovery on the next open.)
    pub fn join(mut self) -> Result<ServeReport, ServeError> {
        self.trigger_shutdown();
        let mut thread_panic: Option<(String, String)> = None;
        let mut note_panic = |name: &str, result: std::thread::Result<()>| {
            if let Err(payload) = result {
                let message = panic_message(payload.as_ref());
                if thread_panic.is_none() {
                    thread_panic = Some((name.to_string(), message));
                }
            }
        };
        for t in self.accept_threads.drain(..) {
            let name = t.thread().name().unwrap_or("accept").to_string();
            note_panic(&name, t.join());
        }
        if let Some(t) = self.supervisor.take() {
            note_panic("shard-supervisor", t.join());
        }
        // Every shard has pushed its last record once the supervisor
        // returns, so closing the queue lets the capture thread commit
        // the rest, publish a final snapshot covering every stored
        // session, and hand the collector back.
        let collector = match self.capture.take().map(CaptureHandle::join) {
            Some(Ok(collector)) => Some(collector),
            Some(Err(payload)) => {
                note_panic("serve-aggregator", Err(payload));
                None
            }
            None => None,
        };
        if let Some(http) = self.http.take() {
            if let Err((thread, message)) = http.join() {
                if thread_panic.is_none() {
                    thread_panic = Some((thread, message));
                }
            }
        }
        let (ingest, quarantine) = match collector {
            Some(collector) => collector
                .into_sink_parts()
                .map_err(|e| map_collector_error(&e))?,
            None => (IngestStats::default(), Vec::new()),
        };
        if let Some((thread, message)) = thread_panic {
            return Err(ServeError::ThreadPanicked { thread, message });
        }
        Ok(ServeReport {
            snapshot: self.stats.snapshot(),
            ingest,
            quarantined: quarantine.len(),
            shard_panics: self.shard_panics.lock().clone(),
        })
    }
}

fn map_collector_error(e: &CollectorError) -> ServeError {
    match e {
        CollectorError::Sink { message } => ServeError::Store {
            message: message.clone(),
        },
        other => ServeError::Collector {
            message: other.to_string(),
        },
    }
}

/// Removes this accept thread from every intake's producer count on
/// exit (panic included) and wakes the shards so they observe the
/// hangup — the drain protocol's "no more connections are coming".
struct ProducerGuard<'a> {
    intakes: &'a [Arc<Intake>],
}

impl Drop for ProducerGuard<'_> {
    fn drop(&mut self) {
        for intake in self.intakes {
            intake.queue.remove_producer();
            intake.waker.wake();
        }
    }
}

#[cfg(unix)]
fn listener_fd(listener: &TcpListener) -> i32 {
    use std::os::unix::io::AsRawFd;
    listener.as_raw_fd()
}

/// Re-arms the listener with a backlog sized to the connection cap.
/// `TcpListener::bind` hardcodes a backlog of 128; under a paper-scale
/// connect burst the accept queue overflows and every further SYN waits
/// a full kernel retransmit cycle (~1s on loopback), capping accept
/// throughput regardless of how fast the shards drain. Calling
/// `listen(2)` again on a listening socket just updates the backlog
/// (the kernel additionally clamps to `net.core.somaxconn`), so failure
/// here is harmless and ignored.
#[cfg(unix)]
fn deepen_backlog(listener: &TcpListener, max_connections: usize) {
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    let backlog = max_connections.clamp(128, 65_535) as i32;
    unsafe {
        let _ = listen(listener_fd(listener), backlog);
    }
}

#[cfg(not(unix))]
fn deepen_backlog(_listener: &TcpListener, _max_connections: usize) {}

/// Deals an admitted connection into a shard queue, preferring its
/// round-robin home but overflowing to siblings when that ring is full.
/// Dropping the connection (shutdown with every ring full) releases its
/// permit.
fn dispatch(intakes: &[Arc<Intake>], admitted: Admitted, home: usize, shutdown: &AtomicBool) {
    let mut item = admitted;
    let mut target = home;
    let mut attempts = 0usize;
    loop {
        match intakes[target].queue.push(item) {
            Ok(()) => {
                // The waker's armed flag collapses this to one syscall
                // per shard per quiet period, not one per connection.
                intakes[target].waker.wake();
                return;
            }
            Err(back) => {
                item = back;
                target = (target + 1) % intakes.len();
                attempts += 1;
                if attempts.is_multiple_of(intakes.len()) {
                    if shutdown.load(Ordering::Relaxed) {
                        return; // drop: the permit releases the slot
                    }
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Accepts until shutdown, shedding over-limit connections at the door.
/// In reactor mode the thread parks in the poller between bursts; in
/// polled mode (or if a poller cannot be built) it naps adaptively.
#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    proto: Proto,
    engine: Engine,
    intakes: &[Arc<Intake>],
    stats: &Arc<ServeStats>,
    gate: &Arc<Gate>,
    capture: &Arc<CaptureQueue>,
    shutdown: &Arc<AtomicBool>,
    seq: &AtomicU64,
) {
    let _guard = ProducerGuard { intakes };
    #[cfg(unix)]
    let mut poller = if engine == Engine::Reactor {
        Poller::new().ok().and_then(|mut p| {
            p.register(listener_fd(&listener), 0, Interest::READ)
                .ok()
                .map(|()| p)
        })
    } else {
        None
    };
    #[cfg(not(unix))]
    let mut poller: Option<Poller> = {
        let _ = engine;
        None
    };
    let mut events: Vec<Event> = Vec::new();
    let mut nap = Backoff::new(Duration::from_micros(500));
    let mut backoff = Duration::from_millis(1);
    while !shutdown.load(Ordering::Relaxed) {
        let mut accepted_any = false;
        // Drain the backlog before waiting: under an accept storm the
        // backlog (typically 128) fills in milliseconds.
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    accepted_any = true;
                    backoff = Duration::from_millis(1);
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    let client_ip = fold_peer_ip(peer.ip());
                    let permit = match gate.admit(client_ip, stats) {
                        Ok(p) => p,
                        Err(Admission::OverCapacity) => {
                            stats.shed_capacity.fetch_add(1, Ordering::Relaxed);
                            drop(stream); // shed: close before any protocol state exists
                            continue;
                        }
                        Err(_) => {
                            stats.shed_per_ip.fetch_add(1, Ordering::Relaxed);
                            drop(stream);
                            continue;
                        }
                    };
                    let Some(slot) = capture.reserve() else {
                        // The capture thread is behind: its queue has no
                        // room for one more record.
                        stats.shed_capture_backlog.fetch_add(1, Ordering::Relaxed);
                        continue; // dropping permit and stream sheds it
                    };
                    if stream.set_nonblocking(true).is_err() {
                        continue; // dropping permit and slot releases them
                    }
                    let _ = stream.set_nodelay(true);
                    let n = seq.fetch_add(1, Ordering::Relaxed);
                    let admitted = Admitted {
                        stream,
                        permit,
                        capture: slot,
                        client_port: peer.port(),
                        proto,
                        start_unix: now_unix(),
                        seq: n,
                    };
                    dispatch(intakes, admitted, (n as usize) % intakes.len(), shutdown);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    match e.kind() {
                        // Per-connection failures (peer vanished between
                        // SYN and accept): the queue may hold more.
                        std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::ConnectionReset => continue,
                        // Resource exhaustion (EMFILE/ENFILE lands here
                        // as Other/Uncategorized) or anything unexpected:
                        // hot-spinning accept() cannot help — back off
                        // with a capped exponential sleep and let in-
                        // flight connections finish and free fds.
                        _ => {
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(Duration::from_millis(200));
                            break;
                        }
                    }
                }
            }
        }
        if accepted_any {
            nap.reset();
        } else {
            match poller.as_mut() {
                // Park in the kernel until the listener is readable; the
                // 50ms ceiling bounds shutdown-observation latency.
                Some(p) => {
                    if p.wait(Duration::from_millis(50), &mut events).is_err() {
                        poller = None; // degrade to adaptive naps
                    }
                }
                None => nap.wait(),
            }
        }
    }
    // Dropping the listener closes the socket: new connects are refused
    // immediately rather than parked in the backlog during the drain.
}

/// Runs the shard pool, respawning any shard thread that panics. Holds
/// every shard's intake queue behind an `Arc`, so a dead shard's queued
/// connections (gate permits included) survive into its replacement.
/// Returns once every shard has exited cleanly — which only happens
/// during shutdown, after the accept threads deregister as producers.
fn supervisor_loop(
    ctx: ShardCtx,
    engine: Engine,
    intakes: Vec<Arc<Intake>>,
    shard_panics: &parking_lot::Mutex<Vec<String>>,
) {
    let spawn_shard = |index: usize, generation: u64| -> JoinHandle<()> {
        let ctx = ctx.clone();
        let intake = Arc::clone(&intakes[index]);
        std::thread::Builder::new()
            .name(format!("shard-{index}"))
            .spawn(move || match engine {
                Engine::Reactor => shard_loop_reactor(index, generation, &intake, &ctx),
                Engine::Polled => shard_loop_polled(index, generation, &intake, &ctx),
            })
            .expect("spawn shard")
    };
    let mut generation = 0u64;
    let mut handles: Vec<Option<JoinHandle<()>>> = (0..intakes.len())
        .map(|i| Some(spawn_shard(i, 0)))
        .collect();
    let mut wait = Backoff::new(Duration::from_millis(2));
    loop {
        let mut any_alive = false;
        for (index, slot) in handles.iter_mut().enumerate() {
            let finished = slot.as_ref().is_some_and(JoinHandle::is_finished);
            if !finished {
                any_alive |= slot.is_some();
                continue;
            }
            let handle = slot.take().expect("finished handle present");
            if let Err(payload) = handle.join() {
                let message = panic_message(payload.as_ref());
                shard_panics
                    .lock()
                    .push(format!("shard-{index}: {message}"));
                if !ctx.shutdown.load(Ordering::Relaxed) {
                    // Respawn with a bumped generation (the chaos
                    // injectors are reseeded, so a deterministic
                    // injected panic does not immediately re-fire).
                    ctx.stats.shards_respawned.fetch_add(1, Ordering::Relaxed);
                    generation += 1;
                    *slot = Some(spawn_shard(index, generation));
                    any_alive = true;
                    wait.reset();
                }
                // During shutdown the replacement would have nothing to
                // do; the intake (and any queued permits) drop with
                // `intakes` below.
            }
            // A clean exit is final: it means shutdown drained the shard.
        }
        if !any_alive {
            return; // `intakes` drop here, releasing any queued permits
        }
        wait.wait();
    }
}

/// Per-shard chaos injectors, seeded per shard *and* per generation so
/// chaos runs are reproducible but a respawned shard rolls fresh dice.
fn chaos_injectors(
    ctx: &ShardCtx,
    index: usize,
    generation: u64,
) -> (FailureInjector, FailureInjector) {
    let salt = (index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(generation.wrapping_mul(0x517C_C1B7_2722_0A95));
    let conn_chaos = FailureInjector::new(ctx.chaos.conn_panic_rate, ctx.chaos.seed ^ salt);
    let shard_chaos = FailureInjector::new(
        ctx.chaos.shard_panic_rate,
        ctx.chaos.seed ^ salt ^ 0x5D5D_5D5D_5D5D_5D5D,
    );
    (conn_chaos, shard_chaos)
}

fn build_conn<'s>(
    a: Admitted,
    remote_ref: &'s dyn honeypot::shell::RemoteStore,
) -> (Conn<'s>, CaptureSlot) {
    let handler = LiveHandler::new(AuthPolicy::default(), remote_ref);
    let conn = match a.proto {
        Proto::Ssh => Conn::ssh(
            a.stream,
            a.permit,
            a.client_port,
            handler,
            a.start_unix,
            a.seq,
        ),
        Proto::Telnet => Conn::telnet(a.stream, a.permit, a.client_port, handler, a.start_unix),
    };
    (conn, a.capture)
}

/// One polled worker shard: owns its connections, scans them without
/// blocking. The baseline engine. Each connection's pump runs under
/// `catch_unwind`, so one poisoned session cannot take the shard (or
/// its siblings' gate slots) with it.
fn shard_loop_polled(index: usize, generation: u64, intake: &Arc<Intake>, ctx: &ShardCtx) {
    let remote_ref: &dyn honeypot::shell::RemoteStore = &*ctx.remote;
    let (mut conn_chaos, mut shard_chaos) = chaos_injectors(ctx, index, generation);
    // `doomed` marks connections the chaos config sentenced at intake;
    // the panic fires inside the per-connection guard.
    let mut conns: Vec<(Conn<'_>, bool, CaptureSlot)> = Vec::new();
    let mut intake_open = true;
    let mut drain_started: Option<Instant> = None;
    let mut nap = Backoff::new(Duration::from_millis(1));

    loop {
        // Intake: move admitted sockets into the shard. Lock-free, so
        // the supervisor never deadlocks with a live shard and a
        // respawned shard inherits the queue seamlessly.
        let mut took_any = false;
        while intake_open {
            match intake.queue.pop() {
                PopResult::Item(a) => {
                    if shard_chaos.fires() {
                        // Outside the per-connection guard: this kills
                        // the whole shard thread. `a` (and its permit)
                        // and every owned connection release on unwind.
                        panic!("chaos: injected shard panic");
                    }
                    took_any = true;
                    let doomed = conn_chaos.fires();
                    let (conn, capture) = build_conn(a, remote_ref);
                    conns.push((conn, doomed, capture));
                }
                PopResult::Empty => break,
                PopResult::Closed => {
                    intake_open = false;
                    break;
                }
            }
        }

        // Drain policy: once shutdown is triggered, keep pumping in-flight
        // sessions for at most `drain_timeout`, then force-close the rest.
        let draining = ctx.shutdown.load(Ordering::Relaxed);
        if draining && drain_started.is_none() {
            drain_started = Some(Instant::now());
        }
        let force_close = matches!(drain_started, Some(t0) if t0.elapsed() >= ctx.drain_timeout);

        let now = Instant::now();
        let mut finished_any = false;
        let mut i = 0;
        while i < conns.len() {
            let pumped = {
                let (conn, doomed, _) = &mut conns[i];
                if force_close {
                    conn.abort();
                }
                catch_unwind(AssertUnwindSafe(|| {
                    if *doomed {
                        panic!("chaos: injected connection panic");
                    }
                    force_close || conn.pump(now, ctx.idle_timeout, ctx.session_timeout, &ctx.stats)
                }))
            };
            match pumped {
                Ok(false) => i += 1,
                Ok(true) => {
                    finished_any = true;
                    let (conn, _, capture) = conns.swap_remove(i);
                    ctx.record_finished(conn, capture);
                }
                Err(_payload) => {
                    // Contained: record a failed session from plain
                    // fields only (the machine may be poisoned), release
                    // the slot via the permit, keep the shard alive.
                    finished_any = true;
                    let (conn, _, capture) = conns.swap_remove(i);
                    ctx.record_failed(conn, capture);
                }
            }
        }

        if took_any || finished_any {
            nap.reset();
        }
        if conns.is_empty() {
            // Exit once the accept side has hung up (it deregisters as a
            // producer when it observes shutdown, closing the queue) —
            // late-admitted sockets arrive through the intake loop above
            // first, so no gate slot is ever stranded.
            if !intake_open {
                return;
            }
            nap.wait();
        } else {
            // Adaptive yield between scan rounds; the pump loop itself
            // runs until it stops making progress.
            nap.wait();
        }
    }
}

/// A connection slot in a reactor shard. `generation` invalidates
/// stale timer-wheel entries after the slot is reused.
struct ShardSlot<'s> {
    conn: Conn<'s>,
    capture: CaptureSlot,
    doomed: bool,
    generation: u64,
    armed: Interest,
}

/// One reactor worker shard: readiness-driven. Connections are pumped
/// when epoll reports their socket ready or their timer-wheel deadline
/// fires — never scanned. The intake waker pops the shard out of
/// `epoll_wait` when the accept thread queues a socket. Crash
/// containment is identical to the polled engine: per-connection
/// `catch_unwind`, shard-level chaos at intake.
fn shard_loop_reactor(index: usize, generation: u64, intake: &Arc<Intake>, ctx: &ShardCtx) {
    let mut poller = match Poller::new() {
        Ok(p) => p,
        // No readiness API after all (fd exhaustion at spawn): degrade
        // to the polled engine rather than dying.
        Err(_) => return shard_loop_polled(index, generation, intake, ctx),
    };
    if poller
        .register(intake.waker.fd(), Waker::TOKEN, Interest::READ)
        .is_err()
    {
        return shard_loop_polled(index, generation, intake, ctx);
    }
    let remote_ref: &dyn honeypot::shell::RemoteStore = &*ctx.remote;
    let (mut conn_chaos, mut shard_chaos) = chaos_injectors(ctx, index, generation);

    let mut slots: Vec<Option<ShardSlot<'_>>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0usize;
    let mut slot_gen = 0u64;
    let mut wheel = TimerWheel::new(256, Duration::from_millis(100), Instant::now());
    // One shared read buffer for every connection on the shard, plus a
    // pool of reclaimed output buffers — per-connection allocation
    // churn drops to (at most) one pool miss per intake.
    let mut read_buf = vec![0u8; 16 * 1024];
    let mut out_pool: Vec<Vec<u8>> = Vec::new();
    const POOL_CAP: usize = 256;
    const POOL_BUF_MAX: usize = 64 * 1024;

    let mut events: Vec<Event> = Vec::new();
    let mut expired: Vec<(u64, u64)> = Vec::new();
    let mut intake_open = true;
    let mut drain_started: Option<Instant> = None;

    // Pumps slot `i` under the per-connection guard; returns and frees
    // the slot if the connection finished (or its pump panicked).
    // Implemented as a macro-free closure-by-convention: the borrow
    // checker cannot split `slots`/`poller`/`wheel` through a closure,
    // so this is a local fn taking everything it touches.
    #[allow(clippy::too_many_arguments)]
    fn pump_slot(
        i: usize,
        force_close: bool,
        now: Instant,
        slots: &mut Vec<Option<ShardSlot<'_>>>,
        free: &mut Vec<usize>,
        live: &mut usize,
        poller: &mut Poller,
        out_pool: &mut Vec<Vec<u8>>,
        read_buf: &mut [u8],
        ctx: &ShardCtx,
    ) {
        let Some(slot) = slots.get_mut(i).and_then(Option::as_mut) else {
            return; // already finished this tick (e.g. event + timer)
        };
        if force_close {
            slot.conn.abort();
        }
        let doomed = slot.doomed;
        let pumped = catch_unwind(AssertUnwindSafe(|| {
            if doomed {
                panic!("chaos: injected connection panic");
            }
            force_close
                || slot.conn.pump_buf(
                    read_buf,
                    now,
                    ctx.idle_timeout,
                    ctx.session_timeout,
                    &ctx.stats,
                )
        }));
        let finished = !matches!(pumped, Ok(false));
        if finished {
            let mut slot = slots[i].take().expect("slot checked above");
            #[cfg(unix)]
            let _ = poller.deregister(slot.conn.raw_fd());
            let buf = slot.conn.reclaim_out_buffer();
            if out_pool.len() < POOL_CAP && buf.capacity() > 0 && buf.capacity() <= POOL_BUF_MAX {
                out_pool.push(buf);
            }
            match pumped {
                Err(_payload) => ctx.record_failed(slot.conn, slot.capture),
                _ => ctx.record_finished(slot.conn, slot.capture),
            }
            free.push(i);
            *live -= 1;
            // Any timer-wheel entries for this slot die via the slot
            // generation check when they fire.
        } else {
            // Re-arm write interest only when it changed — kernel
            // round-trips on interest are not free.
            let want = conn_interest(slot.conn.wants_write());
            if want != slot.armed {
                #[cfg(unix)]
                let _ = poller.reregister(slot.conn.raw_fd(), i as u64, want);
                slot.armed = want;
            }
        }
    }

    loop {
        // Intake: move admitted sockets into slots, register them with
        // the poller and the timer wheel, and give them their first
        // pump (the SSH banner goes out here; a scanner that connects
        // and hangs up may finish on this very pump).
        let mut force_close =
            matches!(drain_started, Some(t0) if t0.elapsed() >= ctx.drain_timeout);
        while intake_open {
            match intake.queue.pop() {
                PopResult::Item(a) => {
                    if shard_chaos.fires() {
                        // Outside the per-connection guard: kills the
                        // whole shard thread. `a` (and its permit) and
                        // every owned connection release on unwind.
                        panic!("chaos: injected shard panic");
                    }
                    let doomed = conn_chaos.fires();
                    let (mut conn, capture) = build_conn(a, remote_ref);
                    if let Some(buf) = out_pool.pop() {
                        conn.adopt_out_buffer(buf);
                    }
                    let i = free.pop().unwrap_or_else(|| {
                        slots.push(None);
                        slots.len() - 1
                    });
                    slot_gen += 1;
                    slots[i] = Some(ShardSlot {
                        conn,
                        capture,
                        doomed,
                        generation: slot_gen,
                        armed: Interest::READ,
                    });
                    live += 1;
                    // Register before the first pump so no readiness
                    // edge is lost between pump and registration.
                    #[cfg(unix)]
                    {
                        let slot = slots[i].as_ref().expect("just placed");
                        if poller
                            .register(slot.conn.raw_fd(), i as u64, Interest::READ)
                            .is_err()
                        {
                            // Cannot watch this socket: fail the session
                            // rather than strand it unpumped forever.
                            let mut slot = slots[i].take().expect("just placed");
                            slot.conn.abort();
                            ctx.record_finished(slot.conn, slot.capture);
                            free.push(i);
                            live -= 1;
                            continue;
                        }
                    }
                    let now = Instant::now();
                    pump_slot(
                        i,
                        force_close,
                        now,
                        &mut slots,
                        &mut free,
                        &mut live,
                        &mut poller,
                        &mut out_pool,
                        &mut read_buf,
                        ctx,
                    );
                    if let Some(slot) = slots.get(i).and_then(Option::as_ref) {
                        wheel.insert(
                            i as u64,
                            slot.generation,
                            slot.conn.deadline(ctx.idle_timeout, ctx.session_timeout),
                        );
                    }
                }
                PopResult::Empty => break,
                PopResult::Closed => {
                    intake_open = false;
                }
            }
        }

        // Drain policy: identical to the polled engine.
        let draining = ctx.shutdown.load(Ordering::Relaxed);
        if draining && drain_started.is_none() {
            drain_started = Some(Instant::now());
        }
        if !force_close {
            force_close = matches!(drain_started, Some(t0) if t0.elapsed() >= ctx.drain_timeout);
        }
        if force_close && live > 0 {
            // Sweep every in-flight connection closed (recorded as
            // timed out), exactly like the polled engine's final round.
            let now = Instant::now();
            for i in 0..slots.len() {
                pump_slot(
                    i,
                    true,
                    now,
                    &mut slots,
                    &mut free,
                    &mut live,
                    &mut poller,
                    &mut out_pool,
                    &mut read_buf,
                    ctx,
                );
            }
        }

        if live == 0 && !intake_open {
            return; // drained and the accept side hung up
        }

        // Park until something is ready. The ceiling bounds how late we
        // observe shutdown, drain expiry, and timer-wheel deadlines.
        let timeout = if draining {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(50)
        };
        if poller.wait(timeout, &mut events).is_err() {
            events.clear();
        }
        let now = Instant::now();
        let mut woken = false;
        for ev in &events {
            let ev = *ev;
            if ev.token == Waker::TOKEN {
                woken = true;
                continue;
            }
            pump_slot(
                ev.token as usize,
                force_close,
                now,
                &mut slots,
                &mut free,
                &mut live,
                &mut poller,
                &mut out_pool,
                &mut read_buf,
                ctx,
            );
        }
        if woken {
            // Drain *after* pumping so a wake arriving mid-loop is
            // consumed only once the queue is about to be re-polled.
            intake.waker.drain();
        }

        // Timer wheel: fire expired deadlines. Entries carry the slot
        // generation, so a reused slot ignores its predecessor's
        // timers; a deadline pushed forward by activity re-inserts.
        wheel.advance(now, &mut expired);
        for (token, gen) in expired.drain(..) {
            let i = token as usize;
            let Some(slot) = slots.get(i).and_then(Option::as_ref) else {
                continue;
            };
            if slot.generation != gen {
                continue;
            }
            let deadline = slot.conn.deadline(ctx.idle_timeout, ctx.session_timeout);
            if deadline <= now {
                // Really expired: the pump's own deadline check marks
                // it timed out and finishes it.
                pump_slot(
                    i,
                    force_close,
                    now,
                    &mut slots,
                    &mut free,
                    &mut live,
                    &mut poller,
                    &mut out_pool,
                    &mut read_buf,
                    ctx,
                );
                if let Some(slot) = slots.get(i).and_then(Option::as_ref) {
                    // Survived (activity raced the deadline): rearm.
                    wheel.insert(
                        i as u64,
                        slot.generation,
                        slot.conn.deadline(ctx.idle_timeout, ctx.session_timeout),
                    );
                }
            } else {
                wheel.insert(token, gen, deadline);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    #[test]
    fn serve_report_render_and_api_json_agree() {
        let report = ServeReport::sample();
        let text = report.render();
        assert!(text.starts_with("final: accepted=202"));
        assert!(text.contains("collector: 200 accepted, 0 dropped, 0 quarantined"));
        let doc = report.api_json();
        assert_eq!(
            doc.get("kind").and_then(hutil::Json::as_str),
            Some("serve_report")
        );
        let data = doc.get("data").unwrap();
        assert_eq!(
            data.get("counters")
                .and_then(|c| c.get("accepted"))
                .and_then(hutil::Json::as_i64),
            Some(202)
        );
        assert_eq!(
            data.get("ingest")
                .and_then(|c| c.get("accepted"))
                .and_then(hutil::Json::as_i64),
            Some(200)
        );
    }

    #[test]
    fn fold_preserves_v4_addresses() {
        let ip = IpAddr::V4(std::net::Ipv4Addr::new(203, 0, 113, 9));
        assert_eq!(
            fold_peer_ip(ip),
            netsim::Ipv4Addr::from_octets(203, 0, 113, 9)
        );
    }

    #[test]
    fn fold_gives_distinct_v6_peers_distinct_reserved_slots() {
        let a = fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)));
        let b = fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)));
        let loopback = fold_peer_ip(IpAddr::V6(Ipv6Addr::LOCALHOST));
        assert_ne!(a, b, "distinct v6 peers must not share a per-IP slot");
        for ip in [a, b, loopback] {
            assert_eq!(ip.0 >> 24, 240, "v6 folds into reserved 240/8: {}", ip.0);
        }
        // Stable: the same peer always folds to the same slot.
        assert_eq!(
            a,
            fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)))
        );
    }
}
