//! Server orchestration: listeners, the supervised reactor shards, the
//! capture thread (store and observability aggregator), the HTTP plane,
//! and graceful drain.
//!
//! # Shards
//!
//! Each worker shard is one thread around a [`crate::reactor::Poller`]
//! (epoll on Linux) and a timer wheel. Every shard watches the SSH and
//! Telnet listeners in its own poller (`EPOLLEXCLUSIVE` on Linux, so a
//! connect wakes one waiting shard, not all of them), accepts until the
//! backlog is empty, and admits each socket itself: gate, capture slot,
//! shed counters and chaos. A connection lives on the shard that
//! accepted it, so no queue and no cross-thread wakeup sits between
//! `accept` and the first pump. Connections are pumped only when their
//! socket is ready or their deadline fires.
//!
//! # Crash containment
//!
//! Failures are contained at three radii. A single connection's pump
//! runs under `catch_unwind`: a poisoned session is recorded as a failed
//! session, its gate slot is released by the permit's `Drop`, and
//! `panics_caught` is bumped — the shard keeps serving its other
//! connections. If a shard thread dies anyway (a panic outside the
//! per-connection guard), the connections it owned close, and the
//! supervisor respawns it with the listeners it held, so the server
//! keeps accepting at full width; the panic message is reported through
//! [`ServeReport::shard_panics`]. Supervisor/capture threads have no
//! respawn layer — a panic there surfaces as
//! [`ServeError::ThreadPanicked`] from [`ServerHandle::join`].
//!
//! # Drain
//!
//! On shutdown every shard stops watching the listeners and drops its
//! handle to them. The sockets close once the last shard has let go, so
//! new connects are refused while in-flight sessions drain (for at most
//! the drain timeout).
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
use crate::reactor::{conn_interest, raw_fd, Event, Interest, Poller, TimerWheel};
use crate::stats::ApiSnapshot;
use crate::{Admission, ChaosConfig, Gate, ServeConfig, ServeError, ServeStats, StatsSnapshot};
use honeypot::shell::{NullStore, RemoteStore};
use honeypot::{panic_message, AuthPolicy, Collector, CollectorError, IngestStats};
use netsim::faults::FailureInjector;
use sessiondb::{RecoveryReport, StoreOptions, StoreWriter};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which protocol a listener serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    Ssh,
    Telnet,
}

/// A bound, non-blocking listener and the protocol it serves.
struct Listener {
    socket: TcpListener,
    proto: Proto,
}

/// The listeners every shard accepts from. The sockets close when the
/// last handle drops.
type Listeners = Arc<[Listener]>;

/// Listener `i` registers under token `u64::MAX - i`; connection slots
/// count up from 0. A server has at most two listeners (SSH, Telnet).
fn listener_index(token: u64) -> Option<usize> {
    let i = u64::MAX - token;
    (i < 2).then_some(i as usize)
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

/// Everything a shard thread needs, cloneable so the supervisor can
/// hand a fresh copy to a respawned thread.
#[derive(Clone)]
struct ShardCtx {
    remote: SharedStore,
    stats: Arc<ServeStats>,
    gate: Arc<Gate>,
    capture: Arc<CaptureQueue>,
    seq: Arc<AtomicU64>,
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
    /// Binds listeners, spawns the shard/capture/HTTP threads, and
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

        let mut addrs = ListenAddrs::default();
        let mut listeners = Vec::new();
        for (port, proto) in [(cfg.ssh_port, Proto::Ssh), (cfg.telnet_port, Proto::Telnet)] {
            let Some(port) = port else { continue };
            let addr = SocketAddr::new(cfg.bind, port);
            let bind_err = |e| ServeError::Bind {
                addr: addr.to_string(),
                source: e,
            };
            let socket = TcpListener::bind(addr).map_err(bind_err)?;
            socket.set_nonblocking(true).map_err(bind_err)?;
            deepen_backlog(&socket, cfg.max_connections);
            let local = socket.local_addr().map_err(bind_err)?;
            match proto {
                Proto::Ssh => addrs.ssh = Some(local),
                Proto::Telnet => addrs.telnet = Some(local),
            }
            listeners.push(Listener { socket, proto });
        }
        let listeners: Listeners = listeners.into();
        let pollers = (0..cfg.workers.max(1))
            .map(|_| shard_poller(&listeners))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|source| ServeError::Poller { source })?;

        let stats = Arc::new(ServeStats::default());
        let gate = Arc::new(Gate::new(cfg.max_connections, cfg.per_ip_limit));
        let shutdown = Arc::new(AtomicBool::new(false));

        // The capture thread owns the collector (and so the store) and
        // publishes the lock-free snapshots the HTTP plane reads. Shards
        // hand it finished records by move; admission reserves their room.
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
            gate: Arc::clone(&gate),
            capture: Arc::clone(&capture.queue),
            seq: Arc::new(AtomicU64::new(0)),
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
                .spawn(move || supervisor_loop(ctx, pollers, listeners, &panics))
                .expect("spawn shard supervisor")
        };

        Ok(ServerHandle {
            addrs,
            stats,
            gate,
            shutdown,
            recovery,
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

    /// Starts graceful shutdown: shards stop accepting and let go of the
    /// listeners (which close once the last shard has), then drain.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been triggered.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Triggers shutdown (idempotent), waits for every thread, seals the
    /// store, and returns the final accounting. A panic in any
    /// supervisor/capture/HTTP thread surfaces as
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
        let _ = listen(raw_fd(listener), backlog);
    }
}

#[cfg(not(unix))]
fn deepen_backlog(_listener: &TcpListener, _max_connections: usize) {}

/// Registers every listener in `poller`, shared with the other shards.
fn watch_listeners(poller: &mut Poller, listeners: &[Listener]) -> std::io::Result<()> {
    for (i, l) in listeners.iter().enumerate() {
        poller.register_shared(raw_fd(&l.socket), u64::MAX - i as u64)?;
    }
    Ok(())
}

/// A new shard's poller, already watching the listeners.
fn shard_poller(listeners: &[Listener]) -> std::io::Result<Poller> {
    let mut poller = Poller::new()?;
    watch_listeners(&mut poller, listeners)?;
    Ok(poller)
}

/// What a shard thread tells the supervisor as it ends: its index and,
/// if it still held them (it died before shutdown), the listeners its
/// replacement needs.
type ShardExitNotice = (usize, Option<Listeners>);

/// Sends a shard's [`ShardExitNotice`] on every exit path, panic
/// included, so the supervisor can block on the channel instead of
/// polling join handles.
struct ShardExit {
    index: usize,
    listeners: Option<Listeners>,
    tx: mpsc::Sender<ShardExitNotice>,
}

impl Drop for ShardExit {
    fn drop(&mut self) {
        let _ = self.tx.send((self.index, self.listeners.take()));
    }
}

/// Runs the shard pool, respawning any shard thread that panics before
/// shutdown. Blocks until a shard exits; returns once every shard has
/// exited cleanly, which only happens during shutdown.
fn supervisor_loop(
    ctx: ShardCtx,
    pollers: Vec<Poller>,
    listeners: Listeners,
    shard_panics: &parking_lot::Mutex<Vec<String>>,
) {
    let (tx, rx) = mpsc::channel();
    let spawn_shard = |index: usize, generation: u64, poller: Poller, listeners: Listeners| {
        let ctx = ctx.clone();
        let mut exit = ShardExit {
            index,
            listeners: Some(listeners),
            tx: tx.clone(),
        };
        std::thread::Builder::new()
            .name(format!("shard-{index}"))
            .spawn(move || shard_loop(index, generation, poller, &mut exit, &ctx))
            .expect("spawn shard")
    };
    let mut handles: Vec<Option<JoinHandle<()>>> = pollers
        .into_iter()
        .enumerate()
        .map(|(i, poller)| Some(spawn_shard(i, 0, poller, Arc::clone(&listeners))))
        .collect();
    // From here on only shards hold the listeners, so the sockets close
    // as soon as the last one lets go at shutdown.
    drop(listeners);
    let mut alive = handles.len();
    let mut generation = 0u64;
    while alive > 0 {
        let (index, listeners) = rx.recv().expect("the supervisor holds a sender");
        alive -= 1;
        let handle = handles[index].take().expect("one exit notice per shard");
        // A clean exit is final: it means shutdown drained the shard.
        let Err(payload) = handle.join() else {
            continue;
        };
        let message = panic_message(payload.as_ref());
        shard_panics
            .lock()
            .push(format!("shard-{index}: {message}"));
        // During shutdown the replacement would have nothing to do.
        let Some(listeners) = listeners.filter(|_| !ctx.shutdown.load(Ordering::Relaxed)) else {
            continue;
        };
        match shard_poller(&listeners) {
            Ok(poller) => {
                // A bumped generation reseeds the chaos injectors, so a
                // deterministic injected panic does not immediately
                // re-fire.
                ctx.stats.shards_respawned.fetch_add(1, Ordering::Relaxed);
                generation += 1;
                handles[index] = Some(spawn_shard(index, generation, poller, listeners));
                alive += 1;
            }
            Err(e) => shard_panics
                .lock()
                .push(format!("shard-{index}: not respawned: {e}")),
        }
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

/// A connection slot in a shard. `generation` invalidates stale
/// timer-wheel entries after the slot is reused.
struct ShardSlot<'s> {
    conn: Conn<'s>,
    capture: CaptureSlot,
    doomed: bool,
    generation: u64,
    armed: Interest,
}

/// Reclaimed output buffers a shard keeps, and the largest it keeps.
const POOL_CAP: usize = 256;
const POOL_BUF_MAX: usize = 64 * 1024;
/// First and longest pause of accept after a resource error.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(200);

/// One shard's state: its poller, its connections and their timers.
struct Shard<'s> {
    ctx: &'s ShardCtx,
    remote: &'s dyn RemoteStore,
    poller: Poller,
    slots: Vec<Option<ShardSlot<'s>>>,
    free: Vec<usize>,
    live: usize,
    slot_gen: u64,
    wheel: TimerWheel,
    /// One read buffer for every connection on the shard, plus a pool
    /// of reclaimed output buffers: allocation churn drops to at most
    /// one pool miss per accept.
    read_buf: Vec<u8>,
    out_pool: Vec<Vec<u8>>,
    conn_chaos: FailureInjector,
    shard_chaos: FailureInjector,
    /// While set, the listeners are unwatched: accept hit a resource
    /// error such as fd exhaustion.
    accept_paused_until: Option<Instant>,
    accept_backoff: Duration,
}

impl<'s> Shard<'s> {
    fn new(index: usize, generation: u64, poller: Poller, ctx: &'s ShardCtx) -> Self {
        let (conn_chaos, shard_chaos) = chaos_injectors(ctx, index, generation);
        Shard {
            ctx,
            remote: &*ctx.remote,
            poller,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            slot_gen: 0,
            wheel: TimerWheel::new(256, Duration::from_millis(100), Instant::now()),
            read_buf: vec![0u8; 16 * 1024],
            out_pool: Vec::new(),
            conn_chaos,
            shard_chaos,
            accept_paused_until: None,
            accept_backoff: ACCEPT_BACKOFF_MIN,
        }
    }

    /// Accepts from listener `i` until its backlog is empty.
    fn accept(&mut self, listeners: &[Listener], i: usize) {
        if self.accept_paused_until.is_some() {
            return; // a sibling listener's event in the batch that paused
        }
        let listener = &listeners[i];
        loop {
            match listener.socket.accept() {
                Ok((stream, peer)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    self.admit(stream, peer, listener.proto);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.ctx.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    match e.kind() {
                        // Per-connection failures (peer vanished between
                        // SYN and accept): the backlog may hold more.
                        std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::ConnectionReset => continue,
                        // Resource exhaustion (EMFILE/ENFILE land here as
                        // Other/Uncategorized) or anything unexpected:
                        // retrying at once cannot help, and the readable
                        // listener would spin the poller. Stop watching
                        // it for a capped exponential backoff while
                        // in-flight connections finish and free fds.
                        _ => {
                            for l in listeners {
                                let _ = self.poller.deregister(raw_fd(&l.socket));
                            }
                            self.accept_paused_until = Some(Instant::now() + self.accept_backoff);
                            self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Watches the listeners again once an accept pause has run out.
    fn resume_accept(&mut self, listeners: &[Listener], now: Instant) {
        if matches!(self.accept_paused_until, Some(t) if now >= t) {
            self.accept_paused_until = None;
            let _ = watch_listeners(&mut self.poller, listeners);
        }
    }

    /// Admission, then a slot: sheds over-limit sockets before any
    /// protocol state exists, otherwise registers the connection and
    /// gives it its first pump.
    fn admit(&mut self, stream: TcpStream, peer: SocketAddr, proto: Proto) {
        let ctx = self.ctx;
        let stats = &ctx.stats;
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        // Every early return below drops the stream (and whatever was
        // already reserved), which sheds the connection.
        let permit = match ctx.gate.admit(fold_peer_ip(peer.ip()), stats) {
            Ok(p) => p,
            Err(Admission::OverCapacity) => {
                stats.shed_capacity.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => {
                stats.shed_per_ip.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let Some(capture) = ctx.capture.reserve() else {
            // The capture thread is behind: its queue has no room for
            // one more record.
            stats.shed_capture_backlog.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        if self.shard_chaos.fires() {
            // Outside the per-connection guard: kills the whole shard
            // thread. The socket, its permit and slot, and every owned
            // connection release on unwind.
            panic!("chaos: injected shard panic");
        }
        let doomed = self.conn_chaos.fires();
        let handler = LiveHandler::new(AuthPolicy::default(), self.remote);
        let seq = ctx.seq.fetch_add(1, Ordering::Relaxed);
        let mut conn = match proto {
            Proto::Ssh => Conn::ssh(stream, permit, peer.port(), handler, now_unix(), seq),
            Proto::Telnet => Conn::telnet(stream, permit, peer.port(), handler, now_unix()),
        };
        if let Some(buf) = self.out_pool.pop() {
            conn.adopt_out_buffer(buf);
        }
        let i = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        // Register before the first pump so no readiness edge is lost
        // between pump and registration.
        if self
            .poller
            .register(conn.raw_fd(), i as u64, Interest::READ)
            .is_err()
        {
            // Cannot watch this socket: fail the session rather than
            // strand it unpumped forever.
            self.free.push(i);
            conn.abort();
            ctx.record_finished(conn, capture);
            return;
        }
        self.slot_gen += 1;
        self.slots[i] = Some(ShardSlot {
            conn,
            capture,
            doomed,
            generation: self.slot_gen,
            armed: Interest::READ,
        });
        self.live += 1;
        // The SSH banner goes out on this first pump; a scanner that
        // connects and hangs up may finish on it.
        self.pump(i, false, Instant::now());
        self.arm_timer(i);
    }

    /// Pumps slot `i` under the per-connection guard; a connection that
    /// finished (or whose pump panicked) is recorded and its slot freed.
    fn pump(&mut self, i: usize, force_close: bool, now: Instant) {
        let ctx = self.ctx;
        let Some(slot) = self.slots.get_mut(i).and_then(Option::as_mut) else {
            return; // already finished this tick (e.g. event + timer)
        };
        if force_close {
            slot.conn.abort();
        }
        let doomed = slot.doomed;
        let read_buf = &mut self.read_buf;
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
        if matches!(pumped, Ok(false)) {
            // Re-arm write interest only when it changed: each change
            // is a syscall.
            let want = conn_interest(slot.conn.wants_write());
            if want != slot.armed {
                let _ = self.poller.reregister(slot.conn.raw_fd(), i as u64, want);
                slot.armed = want;
            }
            return;
        }
        let mut slot = self.slots[i].take().expect("slot checked above");
        // Closing the socket (below) takes it out of an epoll set by
        // itself, since no other fd shares it; poll(2) must be told.
        #[cfg(not(target_os = "linux"))]
        let _ = self.poller.deregister(slot.conn.raw_fd());
        let buf = slot.conn.reclaim_out_buffer();
        if self.out_pool.len() < POOL_CAP && buf.capacity() > 0 && buf.capacity() <= POOL_BUF_MAX {
            self.out_pool.push(buf);
        }
        match pumped {
            Err(_payload) => ctx.record_failed(slot.conn, slot.capture),
            _ => ctx.record_finished(slot.conn, slot.capture),
        }
        self.free.push(i);
        self.live -= 1;
        // Timer-wheel entries for this slot die on the generation check
        // when they fire.
    }

    /// Schedules slot `i`'s next deadline, if the slot is still live.
    fn arm_timer(&mut self, i: usize) {
        if let Some(slot) = self.slots.get(i).and_then(Option::as_ref) {
            let deadline = slot
                .conn
                .deadline(self.ctx.idle_timeout, self.ctx.session_timeout);
            self.wheel.insert(i as u64, slot.generation, deadline);
        }
    }

    /// Fires expired deadlines. Entries carry the slot generation, so a
    /// reused slot ignores its predecessor's timers; a deadline pushed
    /// forward by activity re-inserts.
    fn fire_timers(&mut self, now: Instant, force_close: bool, expired: &mut Vec<(u64, u64)>) {
        self.wheel.advance(now, expired);
        for (token, gen) in expired.drain(..) {
            let i = token as usize;
            let Some(slot) = self.slots.get(i).and_then(Option::as_ref) else {
                continue;
            };
            if slot.generation != gen {
                continue;
            }
            let deadline = slot
                .conn
                .deadline(self.ctx.idle_timeout, self.ctx.session_timeout);
            if deadline <= now {
                // Really expired: the pump's own deadline check marks it
                // timed out and finishes it. If activity raced the
                // deadline it survives and is re-armed.
                self.pump(i, force_close, now);
                self.arm_timer(i);
            } else {
                self.wheel.insert(token, gen, deadline);
            }
        }
    }
}

/// One reactor worker shard: readiness-driven. It accepts when a
/// listener is readable and pumps a connection when its socket is ready
/// or its timer-wheel deadline fires — never by scanning. Per-connection
/// `catch_unwind` contains connection panics; shard-level chaos fires at
/// admission.
fn shard_loop(index: usize, generation: u64, poller: Poller, exit: &mut ShardExit, ctx: &ShardCtx) {
    let mut shard = Shard::new(index, generation, poller, ctx);
    let mut events: Vec<Event> = Vec::new();
    let mut expired: Vec<(u64, u64)> = Vec::new();
    let mut drain_started: Option<Instant> = None;
    loop {
        if drain_started.is_none() && ctx.shutdown.load(Ordering::Relaxed) {
            drain_started = Some(Instant::now());
            // Stop accepting. The sockets close once every shard has let
            // go, so connects are refused during the drain.
            if let Some(listeners) = exit.listeners.take() {
                for l in listeners.iter() {
                    let _ = shard.poller.deregister(raw_fd(&l.socket));
                }
            }
        }
        // Drain policy: once shutdown is triggered, keep pumping in-flight
        // sessions for at most `drain_timeout`, then sweep the rest
        // closed (recorded as timed out).
        let force_close = drain_started.is_some_and(|t0| t0.elapsed() >= ctx.drain_timeout);
        if force_close && shard.live > 0 {
            let now = Instant::now();
            for i in 0..shard.slots.len() {
                shard.pump(i, true, now);
            }
        }
        if drain_started.is_some() && shard.live == 0 {
            return;
        }

        // Park until something is ready. The ceiling bounds how late we
        // observe shutdown, drain expiry, and timer-wheel deadlines.
        let mut timeout = if drain_started.is_some() {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(50)
        };
        if let Some(until) = shard.accept_paused_until {
            timeout = timeout.min(until.saturating_duration_since(Instant::now()));
        }
        if shard.poller.wait(timeout, &mut events).is_err() {
            events.clear();
        }
        let now = Instant::now();
        // A connect that woke us after shutdown was triggered is left to
        // the listener's close on the next turn.
        let accepting = !ctx.shutdown.load(Ordering::Relaxed);
        for ev in &events {
            match listener_index(ev.token) {
                Some(i) => {
                    if let Some(listeners) = exit.listeners.as_deref().filter(|_| accepting) {
                        shard.accept(listeners, i);
                    }
                }
                None => shard.pump(ev.token as usize, force_close, now),
            }
        }
        if let Some(listeners) = exit.listeners.as_deref() {
            shard.resume_accept(listeners, now);
        }
        shard.fire_timers(now, force_close, &mut expired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::Ipv6Addr;

    fn shard_ctx(gate: Gate, capture: &Arc<CaptureQueue>) -> ShardCtx {
        let defaults = ServeConfig::default();
        ShardCtx {
            remote: Arc::new(NullStore),
            stats: Arc::new(ServeStats::default()),
            gate: Arc::new(gate),
            capture: Arc::clone(capture),
            seq: Arc::new(AtomicU64::new(0)),
            shutdown: Arc::new(AtomicBool::new(false)),
            sensor: SensorIdentity {
                honeypot_id: defaults.honeypot_id,
                honeypot_ip: defaults.honeypot_ip,
            },
            idle_timeout: defaults.idle_timeout,
            session_timeout: defaults.session_timeout,
            drain_timeout: defaults.drain_timeout,
            chaos: ChaosConfig::default(),
        }
    }

    /// Each admission refusal is counted under its own reason by the
    /// shard that accepted the socket, and closes it with nothing held.
    #[test]
    fn a_shard_sheds_at_accept_and_counts_each_reason() {
        type Counter = fn(&StatsSnapshot) -> u64;
        let cases: [(&str, Gate, usize, Counter); 3] = [
            ("capacity", Gate::new(0, 8), 8, |s| s.shed_capacity),
            ("per-ip", Gate::new(8, 0), 8, |s| s.shed_per_ip),
            ("capture backlog", Gate::new(8, 8), 1, |s| {
                s.shed_capture_backlog
            }),
        ];
        for (reason, gate, capacity, shed) in cases {
            let capture = CaptureQueue::new(capacity);
            // A full capture queue: an open connection holds every slot.
            let held: Vec<_> = if capacity == 1 {
                capture.reserve().into_iter().collect()
            } else {
                Vec::new()
            };
            let ctx = shard_ctx(gate, &capture);
            let socket = TcpListener::bind("127.0.0.1:0").unwrap();
            socket.set_nonblocking(true).unwrap();
            let addr = socket.local_addr().unwrap();
            let listeners: Listeners = vec![Listener {
                socket,
                proto: Proto::Ssh,
            }]
            .into();
            let mut shard = Shard::new(0, 0, shard_poller(&listeners).unwrap(), &ctx);
            let mut client = TcpStream::connect(addr).unwrap();
            let mut events = Vec::new();
            shard
                .poller
                .wait(Duration::from_secs(5), &mut events)
                .unwrap();
            assert_eq!(listener_index(events[0].token), Some(0), "{reason}");
            shard.accept(&listeners, 0);

            let snap = ctx.stats.snapshot();
            assert_eq!(snap.accepted, 1, "{reason}");
            assert_eq!(shed(&snap), 1, "{reason}");
            assert_eq!(
                snap.shed_capacity + snap.shed_per_ip + snap.shed_capture_backlog,
                1,
                "{reason}: one reason per shed"
            );
            assert_eq!(shard.live, 0, "{reason}");
            assert_eq!(ctx.gate.active(), 0, "{reason}: no gate slot kept");
            assert_eq!(capture.held(), held.len(), "{reason}: no capture slot kept");
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut buf = [0u8; 64];
            assert!(
                matches!(client.read(&mut buf), Ok(0) | Err(_)),
                "{reason}: a shed socket closes without a banner"
            );
        }
    }

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
