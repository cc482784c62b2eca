//! Traced `capture`: the same seed and client load against
//! a bench-side single-shard loop built from the server's public pieces
//! (`Gate`, `Conn`, `AggregatorState`, `Collector`, `StoreWriter`), with a
//! span around each call. `Conn::pump` runs sshwire and the shell inside
//! it, so their share comes from a sans-IO replay of the same plans
//! through `SshServer` with a timing handler.

use crate::client::{self, Tally, Until};
use crate::layers::{gap_note, Layers};
use crate::out::{ns, quantile, ratio, Gate, Report};
use crate::serve_wl::{self, CLIENTS, WARMUP};
use crate::Params;
use honeypot::shell::NullStore;
use honeypot::{AuthPolicy, Collector, CollectorConfig, SessionRecord, SessionSink, SinkError};
use serve::barrage::SessionPlan;
use serve::conn::{now_unix, Conn, SensorIdentity};
use serve::reactor::{Interest, Poller};
use serve::stats::{AggregatorState, SseStats};
use serve::{fold_peer_ip, Gate as AdmissionGate, LiveHandler, ServeStats};
use sessiondb::{FsyncPolicy, Store, StoreOptions, StoreWriter, WalWriter};
use sshwire::{AuthOutcome, ServerHandler, SshServer};
use std::hint::black_box;
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static NULL_STORE: NullStore = NullStore;

/// Poll timeout of the traced loop.
const POLL: Duration = Duration::from_millis(5);
/// Aggregator tick, as in the live server.
const TICK: Duration = Duration::from_millis(250);
/// Token of the listening socket.
const LISTENER: u64 = u64::MAX - 1;
/// Sessions replayed sans-IO to split `Conn::pump`.
const REPLAY_SESSIONS: usize = 4_000;
/// Records replayed through a bench-side WAL to split the store append.
const WAL_REPLAY: usize = 1_000;

/// Spans recorded by the traced loop while `measuring` is set.
#[derive(Debug, Default)]
struct LoopSpans {
    wall: u64,
    poll: u64,
    accept: u64,
    admit: u64,
    admits: u64,
    pump: u64,
    pumps: u64,
    finish: u64,
    closed: u64,
    push: u64,
    render: u64,
    renders: u64,
    ingest: u64,
}

/// Store-append timings from the sink wrapper.
#[derive(Debug, Default)]
struct SinkTimes {
    appends: Vec<u64>,
    seals: Vec<u64>,
}

/// A `SessionSink` that times `StoreWriter::append` and notes which
/// appends sealed a segment.
struct TimingSink {
    inner: StoreWriter,
    rows_per_segment: u64,
    measuring: Arc<AtomicBool>,
    times: Arc<Mutex<SinkTimes>>,
}

impl SessionSink for TimingSink {
    fn append(&mut self, rec: &SessionRecord) -> Result<(), SinkError> {
        let t = Instant::now();
        let r = self.inner.append(rec);
        let d = ns(t.elapsed());
        if self.measuring.load(Ordering::Relaxed) {
            let mut times = self.times.lock().expect("sink times lock poisoned");
            times.appends.push(d);
            if self.inner.rows().is_multiple_of(self.rows_per_segment) {
                times.seals.push(d);
            }
        }
        r.map_err(|e| Box::new(e) as SinkError)
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        SessionSink::finish(&mut self.inner)
    }
}

/// The traced single-shard loop: accept, admit, pump, finish, aggregate,
/// ingest — the live shard's sequence of public calls.
fn shard_loop(
    listener: &TcpListener,
    collector: &Collector,
    measuring: &AtomicBool,
    stop: &AtomicBool,
) -> std::io::Result<LoopSpans> {
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
    let gate = Arc::new(AdmissionGate::new(1024, 1024));
    let stats = Arc::new(ServeStats::default());
    let defaults = serve::ServeConfig::default();
    let sensor = SensorIdentity {
        honeypot_id: defaults.honeypot_id,
        honeypot_ip: defaults.honeypot_ip,
    };
    let mut agg = AggregatorState::new(now_unix(), defaults.recent_tail);
    let mut conns: Vec<Option<(Conn<'static>, i32)>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = Vec::new();
    let mut ready: Vec<usize> = Vec::new();
    let mut sp = LoopSpans::default();
    let mut seq = 0u64;
    let mut next_tick = Instant::now() + TICK;
    loop {
        let on = measuring.load(Ordering::Relaxed);
        let t0 = Instant::now();
        poller.wait(POLL, &mut events)?;
        let t_polled = Instant::now();

        ready.clear();
        let mut admit = 0;
        let mut accept_ready = false;
        for e in &events {
            if e.token == LISTENER {
                accept_ready = true;
            } else {
                ready.push(e.token as usize);
            }
        }
        // Accept until the backlog is empty.
        while accept_ready {
            let (stream, peer) = match listener.accept() {
                Ok(c) => c,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    accept_ready = false;
                    continue;
                }
            };
            stats.accepted.fetch_add(1, Ordering::Relaxed);
            let ta = Instant::now();
            let permit = gate.admit(fold_peer_ip(peer.ip()), &stats);
            admit += ns(ta.elapsed());
            if on {
                sp.admits += 1;
            }
            let Ok(permit) = permit else { continue };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let handler = LiveHandler::new(AuthPolicy::default(), &NULL_STORE);
            let conn = Conn::ssh(stream, permit, peer.port(), handler, now_unix(), seq);
            seq += 1;
            let slot = free.pop().unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            poller.register(fd, slot as u64, Interest::READ)?;
            conns[slot] = Some((conn, fd));
            ready.push(slot);
        }
        let t_accepted = Instant::now();

        let (mut pump, mut finish, mut push, mut ingest) = (0, 0, 0, 0);
        for &slot in &ready {
            let Some((conn, _)) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            let tp = Instant::now();
            let done = conn.pump(tp, defaults.idle_timeout, defaults.session_timeout, &stats);
            pump += ns(tp.elapsed());
            if on {
                sp.pumps += 1;
            }
            if !done {
                continue;
            }
            let (conn, fd) = conns[slot].take().expect("checked above");
            let _ = poller.deregister(fd);
            free.push(slot);
            let tf = Instant::now();
            let rec = conn.finish(sensor, &stats);
            let tp = Instant::now();
            black_box(agg.push_session(&rec));
            let ti = Instant::now();
            collector.ingest(rec);
            let te = Instant::now();
            finish += ns(tp - tf);
            push += ns(ti - tp);
            ingest += ns(te - ti);
            if on {
                sp.closed += 1;
            }
        }

        let mut render = 0;
        if t_accepted >= next_tick {
            let tr = Instant::now();
            let now = now_unix();
            agg.absorb_counter_deltas(now, &stats.snapshot());
            let snap = agg.snapshot(now, stats.snapshot(), SseStats::default());
            black_box(snap.stats_json().render());
            render = ns(tr.elapsed());
            next_tick += TICK;
            if on {
                sp.renders += 1;
            }
        }

        if on {
            sp.wall += ns(t0.elapsed());
            sp.poll += ns(t_polled - t0);
            sp.accept += ns(t_accepted - t_polled).saturating_sub(admit);
            sp.admit += admit;
            sp.pump += pump;
            sp.finish += finish;
            sp.push += push;
            sp.ingest += ingest;
            sp.render += render;
        }
        if stop.load(Ordering::Relaxed) && conns.iter().all(Option::is_none) {
            return Ok(sp);
        }
    }
}

/// Wraps `LiveHandler` and times its callbacks.
struct TimingHandler {
    inner: LiveHandler<'static>,
    auth_ns: u64,
    auths: u64,
    exec_ns: u64,
    execs: u64,
}

impl ServerHandler for TimingHandler {
    fn auth(&mut self, username: &str, password: Option<&str>) -> AuthOutcome {
        let t = Instant::now();
        let r = self.inner.auth(username, password);
        self.auth_ns += ns(t.elapsed());
        self.auths += 1;
        r
    }

    fn exec(&mut self, command: &str) -> (Vec<u8>, u32) {
        let t = Instant::now();
        let r = self.inner.exec(command);
        self.exec_ns += ns(t.elapsed());
        self.execs += 1;
        r
    }
}

fn timing_server(nonce: u64) -> SshServer<TimingHandler> {
    let mut cookie = [0u8; 16];
    cookie[..8].copy_from_slice(&nonce.to_le_bytes());
    cookie[8..].copy_from_slice(&(!nonce).to_le_bytes());
    let handler = TimingHandler {
        inner: LiveHandler::new(AuthPolicy::default(), &NULL_STORE),
        auth_ns: 0,
        auths: 0,
        exec_ns: 0,
        execs: 0,
    };
    SshServer::new(
        handler,
        sshwire::SERVER_VERSION_DEFAULT,
        cookie,
        nonce.to_le_bytes().to_vec(),
    )
}

/// Sans-IO totals over the replayed plans.
#[derive(Debug, Default)]
struct Replay {
    sessions: u64,
    input_ns: u64,
    bytes_in: u64,
    auth_ns: u64,
    auths: u64,
    exec_ns: u64,
    execs: u64,
}

/// Replays completed plans client ↔ server in memory, timing
/// `SshServer::input` and the handler callbacks inside it.
fn replay_plans(plans: &[SessionPlan], done: &[usize]) -> Replay {
    let mut r = Replay::default();
    for &i in done.iter().take(REPLAY_SESSIONS) {
        r.sessions += 1;
        let Some(mut client) = client::client_for(&plans[i], i as u64) else {
            // A scanner sends nothing; the server only writes its banner.
            continue;
        };
        let mut server = timing_server(i as u64);
        loop {
            let from_server = server.take_output();
            if !from_server.is_empty() && client.input(&from_server).is_err() {
                break;
            }
            let to_server = client.take_output();
            if to_server.is_empty() {
                break;
            }
            let t = Instant::now();
            let res = server.input(&to_server);
            r.input_ns += ns(t.elapsed());
            r.bytes_in += to_server.len() as u64;
            if res.is_err() || server.is_closed() {
                break;
            }
        }
        let h = server.into_handler();
        r.auth_ns += h.auth_ns;
        r.auths += h.auths;
        r.exec_ns += h.exec_ns;
        r.execs += h.execs;
    }
    r
}

/// WAL timings: the captured records appended to a bench-side
/// `WalWriter` with the store's fsync-every-1 policy made explicit, so
/// append and sync are timed apart.
#[derive(Debug, Default)]
struct WalReplay {
    records: u64,
    append_ns: u64,
    sync_ns: u64,
    syncs: u64,
    bytes: u64,
}

fn replay_wal(
    records: &[SessionRecord],
    dir: &Path,
    rows_per_segment: usize,
) -> Result<WalReplay, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("wal replay dir: {e}"))?;
    let path = dir.join(sessiondb::WAL_FILE);
    let mut wal = WalWriter::create(&path, FsyncPolicy::Never, 0).map_err(|e| e.to_string())?;
    let header = sessiondb::wal::WAL_HEADER_LEN as u64;
    let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
    let mut w = WalReplay::default();
    for (i, rec) in records.iter().take(WAL_REPLAY).enumerate() {
        let t = Instant::now();
        wal.append(rec).map_err(|e| e.to_string())?;
        let ts = Instant::now();
        wal.sync().map_err(|e| e.to_string())?;
        w.sync_ns += ns(ts.elapsed());
        w.append_ns += ns(ts - t);
        w.syncs += 1;
        w.records += 1;
        if (i + 1) % rows_per_segment == 0 {
            w.bytes += len(&path).saturating_sub(header);
            wal.reset((i / rows_per_segment + 1) as u64)
                .map_err(|e| e.to_string())?;
        }
    }
    w.bytes += len(&path).saturating_sub(header);
    wal.remove().map_err(|e| e.to_string())?;
    Ok(w)
}

/// Runs `capture` traced.
pub fn run(p: &Params) -> Result<Report, String> {
    let plans = serve_wl::plans(p.seed);
    let store = p.data_dir.join("store");
    let mut r = Report {
        notes: serve_wl::environment(p, &store, true),
        ..Report::default()
    };
    let rows_per_segment = serve::ServeConfig::default().rows_per_segment;
    let measuring = Arc::new(AtomicBool::new(false));
    let times = Arc::new(Mutex::new(SinkTimes::default()));
    let opts = StoreOptions {
        rows_per_segment,
        wal: Some(FsyncPolicy::default()),
    };
    let (writer, _) =
        StoreWriter::with_options(&store, opts).map_err(|e| format!("open store: {e}"))?;
    let sink = TimingSink {
        inner: writer,
        rows_per_segment: rows_per_segment as u64,
        measuring: Arc::clone(&measuring),
        times: Arc::clone(&times),
    };
    let collector = Collector::with_sink(CollectorConfig::default(), Box::new(sink));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener: {e}"))?;
    let stop = AtomicBool::new(false);

    let (spans, warm, phase) = std::thread::scope(|s| {
        let shard = std::thread::Builder::new()
            .name("trace-shard".into())
            .spawn_scoped(s, || shard_loop(&listener, &collector, &measuring, &stop))
            .expect("spawn traced loop");
        let cursor = AtomicUsize::new(0);
        let (warm, ()): (Tally, ()) = client::run_clients(
            addr,
            &plans,
            &cursor,
            CLIENTS,
            Until::Plans(WARMUP),
            Instant::now(),
            || {},
        );
        measuring.store(true, Ordering::Relaxed);
        let phase = serve_wl::timed_phase(p, addr, &plans);
        measuring.store(false, Ordering::Relaxed);
        stop.store(true, Ordering::Relaxed);
        let spans = shard.join().expect("traced loop panicked");
        (spans, warm, phase)
    });
    let spans = spans.map_err(|e| format!("traced loop: {e}"))?;
    let (ingest_stats, _) = collector
        .into_sink_parts()
        .map_err(|e| format!("collector: {e}"))?;

    let t = &phase.tally;
    r.attempted = t.attempted;
    r.failed = t.failed();
    let completed = t.completed.max(1) as f64;

    // sshwire and the shell inside Conn::pump, from the sans-IO replay.
    let rp = replay_plans(&plans, &t.plans_done);
    let replayed = rp.sessions.max(1) as f64;
    let handler_ns = (rp.auth_ns + rp.exec_ns) as f64 / replayed;
    let input_self_ns = (rp.input_ns as f64 / replayed - handler_ns).max(0.0);
    let wire_total = rp.input_ns as f64 / replayed * t.completed as f64;
    let pump_self = (spans.pump as f64 - wire_total).max(0.0);

    let mut l = Layers::default();
    l.set(
        "serve.gate.admit_us",
        ratio(spans.admit as f64 / 1e3, spans.admits as f64),
    );
    l.set("serve.conn.pump_self_us", pump_self / 1e3 / completed);
    l.set("serve.conn.pumps", spans.pumps as f64 / completed);
    l.set(
        "serve.conn.finish_us",
        ratio(spans.finish as f64 / 1e3, spans.closed as f64),
    );
    l.set(
        "serve.stats.push_us",
        ratio(spans.push as f64 / 1e3, spans.closed as f64),
    );
    l.set(
        "serve.stats.render_ms",
        ratio(spans.render as f64 / 1e6, spans.renders as f64),
    );
    l.set("sshwire.input_self_us", input_self_ns / 1e3);
    l.set("sshwire.bytes_in", rp.bytes_in as f64 / replayed);
    l.set(
        "honeypot.shell.exec_us",
        ratio(rp.exec_ns as f64 / 1e3, rp.execs as f64),
    );
    l.set("honeypot.shell.commands", rp.execs as f64 / replayed);
    l.set(
        "honeypot.auth_us",
        ratio(rp.auth_ns as f64 / 1e3, rp.auths as f64),
    );
    l.set("honeypot.auth.attempts", rp.auths as f64 / replayed);

    let times = std::mem::take(&mut *times.lock().expect("sink times lock poisoned"));
    let sink_ns: u64 = times.appends.iter().sum();
    l.set(
        "honeypot.collector.ingest_self_us",
        ratio(
            spans.ingest.saturating_sub(sink_ns) as f64 / 1e3,
            spans.closed as f64,
        ),
    );

    let mut appends = times.appends.clone();
    appends.sort_unstable();
    l.set(
        "sessiondb.store.append_us_p50",
        quantile(&appends, 0.50) as f64 / 1e3,
    );
    l.set(
        "sessiondb.store.append_us_p99",
        quantile(&appends, 0.99) as f64 / 1e3,
    );
    l.set("sessiondb.segment.seals", times.seals.len() as f64);
    l.set(
        "sessiondb.segment.seal_ms",
        ratio(
            times.seals.iter().sum::<u64>() as f64 / 1e6,
            times.seals.len() as f64,
        ),
    );
    let db = Store::open(&store).map_err(|e| format!("reopen store: {e}"))?;
    let mut records = Vec::new();
    let mut crc_errors = 0u64;
    for rec in db.scan().records() {
        match rec {
            Ok(rec) => records.push(rec),
            Err(_) => crc_errors += 1,
        }
    }
    let expected = warm.completed + t.completed;
    r.gates.push(Gate::new(
        "store holds exactly the completed sessions",
        records.len() as u64 == expected && crc_errors == 0 && ingest_stats.quarantined == 0,
        format!(
            "{} rows read, {expected} sessions completed, {crc_errors} CRC errors, {} quarantined",
            records.len(),
            ingest_stats.quarantined
        ),
    ));
    l.set(
        "sessiondb.store.bytes_per_session",
        ratio(serve_wl::store_bytes(&db) as f64, records.len() as f64),
    );
    let w = replay_wal(&records, &p.data_dir.join("wal-replay"), rows_per_segment)?;
    let n = w.records.max(1) as f64;
    l.set("sessiondb.wal.append_us", w.append_ns as f64 / 1e3 / n);
    l.set("sessiondb.wal.sync_us", w.sync_ns as f64 / 1e3 / n);
    l.set("sessiondb.wal.syncs", w.syncs as f64 / n);
    l.set("sessiondb.wal.bytes_per_session", w.bytes as f64 / n);

    // Everything inside the layers' public calls, against the loop's wall.
    let accounted =
        spans.admit + spans.pump + spans.finish + spans.push + spans.render + spans.ingest;
    let wall = spans.wall.max(1) as f64;
    let share = accounted as f64 / wall;
    l.set("trace.unit_wall_ms", spans.wall as f64 / 1e6 / completed);
    l.set("trace.accounted_share", share);
    let other = spans
        .wall
        .saturating_sub(accounted + spans.poll + spans.accept);
    r.notes.push(gap_note(
        share,
        &[
            ("poll wait", spans.poll as f64 / wall),
            (
                "accept (syscalls, Conn::ssh, register)",
                spans.accept as f64 / wall,
            ),
            ("loop bookkeeping", other as f64 / wall),
        ],
    ));
    r.detail("traced_sessions", t.completed as f64, "sessions");
    r.detail("replayed_sessions", rp.sessions as f64, "sessions");
    r.detail(
        "traced_sessions_per_s",
        t.completed as f64 / phase.wall.as_secs_f64(),
        "sessions/s",
    );
    l.emit(&mut r);
    Ok(r)
}
