//! The `capture` workload against the live server, started in-process
//! through `Server::start`, with tracing off.

use crate::client::{self, Tally, Until};
use crate::out::{
    net_of_steal, quantile, ratio, steal_between, wall_details, Gate, Report, Setups, Window,
    WINDOW,
};
use crate::sys;
use crate::Params;
use honeylab_core::{AnalysisBuilder, ReportKind, SessionSource};
use serve::barrage::{build_schedule, BarrageConfig, LoadMode, SessionPlan};
use serve::{ServeConfig, Server, ServerHandle};
use sessiondb::{FsyncPolicy, Store};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Plans in the schedule; clients cycle through it in order.
const PLAN_POOL: usize = 16_384;
/// Sessions run after each server start before the server counts as up.
pub const WARMUP: usize = 300;
/// Server starts before the timed phase; the last one serves it.
const SETUPS_BEFORE: usize = 11;
/// Server starts after the gates, each joined at once.
const SETUPS_AFTER: usize = 10;
/// How long the gate waits for the live snapshot to catch up.
const SNAPSHOT_WAIT: Duration = Duration::from_secs(10);

/// The seeded session mix (`barrage::build_schedule`'s archetypes).
pub fn plans(seed: u64) -> Vec<SessionPlan> {
    build_schedule(&BarrageConfig {
        sessions: PLAN_POOL,
        mode: LoadMode::Closed {
            concurrency: CLIENTS,
            think: Duration::ZERO,
        },
        seed,
        ..BarrageConfig::default()
    })
}

/// The server configuration: `honeylab serve --store` defaults and an
/// ephemeral port.
fn config(store: &Path) -> ServeConfig {
    ServeConfig {
        ssh_port: Some(0),
        store_dir: Some(store.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Lines naming where and how the run happened.
pub fn environment(p: &Params, store: &Path, traced: bool) -> Vec<String> {
    let cfg = config(store);
    let fsync = match cfg.fsync {
        FsyncPolicy::Never => "never".to_string(),
        FsyncPolicy::EveryN(n) => format!("every {n} session(s)"),
    };
    vec![
        p.host_line(),
        format!(
            "env store_dir={} fsync={fsync} rows_per_segment={}",
            store.display(),
            cfg.rows_per_segment
        ),
        format!(
            "env server={} workers={} client_threads={CLIENTS} client_connections={CLIENTS} load=closed-loop",
            if traced {
                "bench-side single-shard loop (traced)"
            } else {
                "Server::start"
            },
            if traced { 1 } else { cfg.workers }
        ),
    ]
}

/// One server start plus warm-up, recorded in `setups`.
fn start_warm(
    p: &Params,
    store: &Path,
    plans: &[SessionPlan],
    setups: &mut Setups,
) -> Result<(ServerHandle, Tally), String> {
    let _ = std::fs::remove_dir_all(store);
    let started = Setups::start(p.cpu);
    let handle = Server::start(config(store)).map_err(|e| format!("server start: {e}"))?;
    let addr = handle.addrs().ssh.ok_or("server has no ssh listener")?;
    let cursor = AtomicUsize::new(0);
    let (warm, ()) = client::run_clients(
        addr,
        plans,
        &cursor,
        CLIENTS,
        Until::Plans(WARMUP),
        Instant::now(),
        || {},
    );
    setups.push(started, p.cpu);
    if warm.failed() > 0 {
        return Err(format!(
            "warm-up: {} of {WARMUP} sessions failed",
            warm.failed()
        ));
    }
    Ok((handle, warm))
}

/// The timed phase: closed-loop clients until the deadline.
pub struct Phase {
    /// Client outcomes; completion times count from the phase start.
    pub tally: Tally,
    /// Wall time until the last client returned.
    pub wall: Duration,
    /// Window boundaries, `seconds + 1` marks, the first at the phase
    /// start.
    pub marks: Vec<Mark>,
    /// Server CPU over the whole phase per thread name, nanoseconds.
    pub cpu_by_thread: BTreeMap<String, u64>,
}

/// One window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Nanoseconds since the phase start.
    pub at_ns: u64,
    /// Server-thread CPU nanoseconds since the phase start.
    pub server_cpu_ns: u64,
    /// Steal and total ticks of the run's CPU, from [`sys::cpu_ticks`].
    pub ticks: (u64, u64),
}

/// Drives the timed phase against `addr`, continuing the plan sequence
/// after the warm-up, and marks each window meanwhile.
pub fn timed_phase(p: &Params, addr: SocketAddr, plans: &[SessionPlan]) -> Phase {
    let seconds = p.seconds;
    let cursor = AtomicUsize::new(WARMUP);
    let t0 = Instant::now();
    let deadline = t0 + WINDOW * seconds as u32;
    let (tally, (marks, cpu_by_thread)) = client::run_clients(
        addr,
        plans,
        &cursor,
        CLIENTS,
        Until::Deadline(deadline),
        t0,
        || {
            let base = sys::server_thread_cpu();
            let mut marks = vec![Mark {
                at_ns: 0,
                server_cpu_ns: 0,
                ticks: sys::cpu_ticks(p.cpu),
            }];
            let mut last = base.clone();
            for w in 1..=seconds as u32 {
                std::thread::sleep((t0 + WINDOW * w).saturating_duration_since(Instant::now()));
                last = sys::server_thread_cpu();
                marks.push(Mark {
                    at_ns: t0.elapsed().as_nanos() as u64,
                    server_cpu_ns: sys::server_cpu_by_name(&base, &last).values().sum(),
                    ticks: sys::cpu_ticks(p.cpu),
                });
            }
            (marks, sys::server_cpu_by_name(&base, &last))
        },
    );
    Phase {
        tally,
        wall: t0.elapsed(),
        marks,
        cpu_by_thread,
    }
}

/// Splits the phase into its windows by completion time.
fn windows(phase: &Phase) -> Vec<Window> {
    let bounds: Vec<u64> = phase.marks.iter().map(|m| m.at_ns).collect();
    let n = bounds.len().saturating_sub(1);
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); n];
    let t = &phase.tally;
    for (&end, &l) in t.ends_ns.iter().zip(&t.latencies_ns) {
        // Index of the first boundary after `end`, minus one.
        let w = bounds.partition_point(|&b| b <= end);
        if (1..=n).contains(&w) {
            lat[w - 1].push(l);
        }
    }
    lat.into_iter()
        .enumerate()
        .map(|(w, mut l)| {
            l.sort_unstable();
            let (m0, m1) = (phase.marks[w], phase.marks[w + 1]);
            let steal = steal_between(m0.ticks, m1.ticks);
            let cpu_us = ratio(
                (m1.server_cpu_ns - m0.server_cpu_ns) as f64 / 1e3,
                l.len() as f64,
            );
            Window {
                done: l.len(),
                sessions_per_s: ratio(l.len() as f64, (m1.at_ns - m0.at_ns) as f64 / 1e9),
                p50_ms: quantile(&l, 0.50) as f64 / 1e6,
                p99_ms: quantile(&l, 0.99) as f64 / 1e6,
                cpu_us_per_session: net_of_steal(cpu_us, steal),
                steal,
            }
        })
        .collect()
}

/// Runs `capture` with tracing off.
pub fn run(p: &Params) -> Result<Report, String> {
    let plans = plans(p.seed);
    let store = p.data_dir.join("store");
    let mut r = Report {
        notes: environment(p, &store, false),
        ..Report::default()
    };

    let mut setups = Setups::default();
    let mut kept = None;
    for i in 0..SETUPS_BEFORE {
        let (handle, warm) = start_warm(p, &store, &plans, &mut setups)?;
        if i + 1 == SETUPS_BEFORE {
            kept = Some((handle, warm));
        } else {
            handle.join().map_err(|e| format!("server join: {e}"))?;
        }
    }
    let (handle, warm) = kept.expect("at least one setup");
    let addr = handle.addrs().ssh.ok_or("server has no ssh listener")?;

    let phase = timed_phase(p, addr, &plans);
    let server_ns = phase.marks.last().map_or(0, |m| m.server_cpu_ns);
    let steal = steal_between(
        phase.marks.first().map_or((0, 0), |m| m.ticks),
        phase.marks.last().map_or((0, 0), |m| m.ticks),
    );

    let t = &phase.tally;
    let completed = t.completed as f64;
    let mut lat = t.latencies_ns.clone();
    lat.sort_unstable();
    let wall = phase.wall.as_secs_f64();
    r.attempted = t.attempted;
    r.failed = t.failed();
    let ws = windows(&phase);
    let cpu_us = ratio(server_ns as f64 / 1e3, completed);
    // Each window is taken net of its own steal, since the host's load
    // can change within a run; windows are summed, not averaged, so the
    // seconds that seal a segment weigh in with all their cost.
    let net_us: f64 = ws
        .iter()
        .map(|w| w.cpu_us_per_session * w.done as f64)
        .sum();
    let done: usize = ws.iter().map(|w| w.done).sum();
    r.metric("cpu_us_per_session", ratio(net_us, done as f64), "us");
    r.detail("cpu_us_per_session_raw", cpu_us, "us");
    r.detail("steal", steal, "ratio");

    r.detail("sessions_per_s", ratio(completed, wall), "sessions/s");
    r.detail("latency_p50_ms", quantile(&lat, 0.50) as f64 / 1e6, "ms");
    r.detail("latency_p99_ms", quantile(&lat, 0.99) as f64 / 1e6, "ms");
    r.detail("latency_samples", completed, "sessions");
    r.detail(
        "latency_samples_beyond_p99",
        (lat.len() / 100) as f64,
        "sessions",
    );
    r.detail(
        "latency_max_ms",
        lat.last().copied().unwrap_or(0) as f64 / 1e6,
        "ms",
    );
    r.detail(
        "failed_frac",
        ratio(t.failed() as f64, t.attempted as f64),
        "ratio",
    );
    wall_details(&mut r, &ws);
    r.detail(
        "server_cpu_util",
        ratio(server_ns as f64 / 1e9, wall),
        "cores",
    );
    for (thread, ns) in &phase.cpu_by_thread {
        r.detail(
            format!("cpu_us_per_session[{thread}]"),
            ratio(*ns as f64 / 1e3, completed),
            "us",
        );
    }
    r.detail(
        "client_cpu_us_per_session",
        ratio(t.cpu_ns as f64 / 1e3, completed),
        "us",
    );

    let bytes = capture_gates(&mut r, handle, &store, warm.completed + t.completed)?;
    r.metric("store_bytes_per_session", bytes, "bytes");
    for _ in 0..SETUPS_AFTER {
        let (handle, _) = start_warm(p, &store, &plans, &mut setups)?;
        handle.join().map_err(|e| format!("server join: {e}"))?;
    }
    setups.report(&mut r);
    Ok(r)
}

/// After drain: the reopened store holds exactly the completed sessions
/// with intact CRCs, nothing was quarantined, and the live snapshot's
/// taxonomy equals a batch analysis of the store. Returns the sealed
/// store's bytes per stored session.
fn capture_gates(
    r: &mut Report,
    handle: ServerHandle,
    store: &Path,
    expected: u64,
) -> Result<f64, String> {
    let waited = Instant::now();
    let live = loop {
        match handle.api_snapshot() {
            Some(s) if s.taxonomy.total_sessions >= expected => break Some(s.taxonomy.clone()),
            _ if waited.elapsed() > SNAPSHOT_WAIT => break None,
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let report = handle.join().map_err(|e| format!("server join: {e}"))?;
    r.gates.push(Gate::new(
        "nothing quarantined or dropped",
        report.ingest.quarantined == 0 && report.quarantined == 0 && report.ingest.dropped == 0,
        format!(
            "{} quarantined, {} dropped",
            report.ingest.quarantined, report.ingest.dropped
        ),
    ));

    let db = Store::open(store).map_err(|e| format!("reopen store: {e}"))?;
    let (rows, crc_errors) = scan_rows(&db);
    r.gates.push(Gate::new(
        "store holds exactly the completed sessions",
        rows == expected && crc_errors == 0,
        format!("{rows} rows read, {expected} sessions completed, {crc_errors} CRC errors"),
    ));
    let batch = AnalysisBuilder::new(SessionSource::Store(&db))
        .report(ReportKind::Taxonomy)
        .run()
        .map_err(|e| format!("analyze store: {e}"))?
        .taxonomy;
    r.gates.push(Gate::new(
        "live taxonomy equals batch analysis of the store",
        live.is_some() && live == batch,
        format!(
            "live {:?} vs batch {:?} total sessions",
            live.as_ref().map(|t| t.total_sessions),
            batch.as_ref().map(|t| t.total_sessions)
        ),
    ));
    Ok(ratio(store_bytes(&db) as f64, rows as f64))
}

/// Rows decoded from every sealed segment and the number of read errors
/// (each block's CRC is checked on read).
pub fn scan_rows(db: &Store) -> (u64, u64) {
    let (mut rows, mut errors) = (0, 0);
    for rec in db.scan().records() {
        match rec {
            Ok(_) => rows += 1,
            Err(_) => errors += 1,
        }
    }
    (rows, errors)
}

/// Bytes of every sealed segment file.
pub fn store_bytes(db: &Store) -> u64 {
    db.segments()
        .filter_map(|m| std::fs::metadata(&m.path).ok())
        .map(|md| md.len())
        .sum()
}
