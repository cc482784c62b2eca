//! Paper-scale serve throughput of the epoll reactor shards, measured
//! end-to-end over real loopback sockets with the `barrage` load
//! harness.
//!
//! Like `classify.rs`, this is a plain timing loop with its own JSON
//! writer (the vendored criterion has no machine-readable output);
//! `scripts/bench_snapshot.sh` checks the result in as
//! `BENCH_serve.json`.
//!
//! Three measurements:
//!
//! * **Saturation under idle load** (closed loop + idle pool): the
//!   paper's honeynet regime — thousands of connections sit idle
//!   (half-open scanners, slow credential stuffers) while a fraction is
//!   active. The reactor pays O(ready) per turn, not O(connections).
//! * **Active-only saturation** (closed loop): every connection busy,
//!   so the run is protocol-CPU-bound.
//! * **Fixed offered load** (open loop): Poisson arrivals at 1k / 10k /
//!   50k sessions/sec — achieved rate, p99 latency, shed rate, and CPU
//!   at each point.
//!
//! ```text
//! cargo bench -p honeylab-bench --bench serve                     # print
//! cargo bench -p honeylab-bench --bench serve -- --json OUT.json  # snapshot
//! cargo bench -p honeylab-bench --bench serve -- --smoke          # CI-sized
//! ```

use serve::barrage::{self, BarrageConfig, BarrageReport, LoadMode};
use serve::{ServeConfig, Server};
use std::fmt::Write as _;
use std::time::Duration;

/// Whole-process CPU seconds (utime + stime) from `/proc/self/stat` —
/// covers server *and* client threads, which is the honest cost of one
/// measured point since both run in this process.
#[cfg(target_os = "linux")]
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14/15 (utime/stime, 1-indexed) follow the parenthesised
    // comm field; split after the closing paren to survive spaces in it.
    let after = stat.rsplit_once(')').map(|(_, a)| a).unwrap_or("");
    let mut it = after.split_whitespace().skip(11); // state is field 3
    let utime: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = it.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    // USER_HZ is 100 on every Linux configuration Rust targets.
    (utime + stime) / 100.0
}

#[cfg(not(target_os = "linux"))]
fn cpu_secs() -> f64 {
    0.0
}

/// One measured point.
struct Point {
    mode: String,
    idle_background: usize,
    report: BarrageReport,
    cpu_secs: f64,
}

/// Opens `n` connections that send a *partial* SSH version banner and
/// then go silent — the half-open scanners and stalled bots that
/// dominate a long-running honeynet's connection table. The server must
/// hold every one (they are inside the idle timeout) while it serves
/// the active load.
fn idle_pool(addr: std::net::SocketAddr, n: usize) -> Vec<std::net::TcpStream> {
    use std::io::Write;
    let mut pool = Vec::with_capacity(n);
    for i in 0..n {
        let mut s = std::net::TcpStream::connect(addr).expect("idle connect");
        s.write_all(b"SSH-2.0-idle").expect("partial banner");
        pool.push(s);
        if i % 512 == 511 {
            // Let the shards drain the backlog.
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    pool
}

/// Brings up an in-process server on an ephemeral loopback port, parks
/// `idle_background` half-open connections on it, fires one barrage,
/// and tears everything down.
fn run_point(
    sessions: usize,
    mode: LoadMode,
    server_workers: usize,
    idle_background: usize,
) -> Point {
    let cfg = ServeConfig {
        workers: server_workers,
        max_connections: 16_384,
        per_ip_limit: 16_384, // every client is 127.0.0.1
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start server");
    let addr = handle.addrs().ssh.expect("ssh addr");
    let idles = idle_pool(addr, idle_background);
    // Wait until every idle connection is admitted and parked.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while (handle.stats().accepted as usize) < idle_background
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let barrage_cfg = BarrageConfig {
        addr,
        sessions,
        mode,
        seed: 42,
        workers: 8,
        session_deadline: Duration::from_secs(30),
        max_in_flight: 1024,
    };
    let cpu0 = cpu_secs();
    let report = barrage::run(&barrage_cfg).expect("barrage run");
    let cpu1 = cpu_secs();
    drop(idles);
    handle.join().expect("server join");
    let mode_label = match mode {
        LoadMode::Closed { concurrency, .. } => format!("closed/c{concurrency}"),
        LoadMode::Open { rate } => format!("open/{rate:.0}sps"),
    };
    Point {
        mode: mode_label,
        idle_background,
        report,
        cpu_secs: cpu1 - cpu0,
    }
}

fn print_point(p: &Point) {
    let r = &p.report;
    println!(
        "{:<14} idle {:>5} offered {:>9.0}/s achieved {:>9.0}/s p50 {:>7.2}ms p99 {:>7.2}ms shed {:>5} err {:>3} cpu {:>6.2}s",
        p.mode, p.idle_background, r.offered_sps, r.achieved_sps, r.p50_ms, r.p99_ms, r.shed, r.errors, p.cpu_secs
    );
}

fn json_point(p: &Point) -> String {
    let r = &p.report;
    format!(
        "{{\"mode\": \"{}\", \"idle_background\": {}, \"planned\": {}, \"completed\": {}, \"shed\": {}, \"errors\": {}, \"timeouts\": {}, \"offered_sps\": {:.1}, \"achieved_sps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \"duration_secs\": {:.3}, \"cpu_secs\": {:.3}}}",
        p.mode,
        p.idle_background,
        r.planned,
        r.completed,
        r.shed,
        r.errors,
        r.timeouts,
        r.offered_sps,
        r.achieved_sps,
        r.p50_ms,
        r.p99_ms,
        r.p999_ms,
        r.duration_secs,
        p.cpu_secs
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let smoke = args.iter().any(|a| a == "--smoke");

    // Server shards scale with the host.
    let server_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8);

    if smoke {
        // CI-sized correctness pass: a small closed-loop barrage (with a
        // token idle pool) completes with zero shed and zero client
        // errors.
        let p = run_point(
            300,
            LoadMode::Closed {
                concurrency: 32,
                think: Duration::ZERO,
            },
            server_workers,
            64,
        );
        print_point(&p);
        let r = &p.report;
        assert_eq!(
            r.completed + r.shed,
            r.planned,
            "every planned session must resolve"
        );
        assert_eq!(r.shed, 0, "smoke load must not shed");
        assert_eq!(r.errors, 0, "no client-side errors");
        assert_eq!(r.timeouts, 0, "no stalled sessions");
        println!("serve bench smoke: OK");
        return;
    }

    // The headline: saturation with 9000 parked half-open connections
    // and a realistically small active fraction — the regime a honeynet
    // actually lives in after a few hours up (the paper's long-term
    // observation: most connections idle, a trickle active).
    // 9000 parked pairs ≈ 18k fds — as close to the container's 20k fd
    // ceiling as the active churn leaves room for.
    let idle_background = 9_000;
    let idle_sessions = 2_000;
    let idle_concurrency = 8;
    // Saturation points are best-of-N: on a shared box a single short
    // run can land in someone else's CPU burst, and contention only
    // ever slows a run down, so the fastest repeat is the closest to
    // the server's true capability (same policy as the cluster bench).
    let saturation_repeats = 5;
    let active_sessions = 6_000;
    let active_concurrency = 512;
    let open_rates = [1_000.0, 10_000.0, 50_000.0];
    // ~2 seconds of schedule per offered-load point, bounded.
    let open_sessions = |rate: f64| ((rate * 2.0) as usize).clamp(1_000, 60_000);

    let best_of = |n: usize, run: &dyn Fn() -> Point| -> Point {
        let mut best: Option<Point> = None;
        for _ in 0..n {
            let p = run();
            if best
                .as_ref()
                .is_none_or(|b| p.report.achieved_sps > b.report.achieved_sps)
            {
                best = Some(p);
            }
        }
        best.expect("at least one repeat")
    };

    let mut points: Vec<Point> = Vec::new();
    let p = best_of(saturation_repeats, &|| {
        run_point(
            idle_sessions,
            LoadMode::Closed {
                concurrency: idle_concurrency,
                think: Duration::ZERO,
            },
            server_workers,
            idle_background,
        )
    });
    print_point(&p);
    let sat_idle = p.report.achieved_sps;
    points.push(p);

    let p = best_of(saturation_repeats, &|| {
        run_point(
            active_sessions,
            LoadMode::Closed {
                concurrency: active_concurrency,
                think: Duration::ZERO,
            },
            server_workers,
            0,
        )
    });
    print_point(&p);
    let sat_active = p.report.achieved_sps;
    points.push(p);

    for rate in open_rates {
        let p = run_point(
            open_sessions(rate),
            LoadMode::Open { rate },
            server_workers,
            0,
        );
        print_point(&p);
        points.push(p);
    }

    println!("saturation under {idle_background} idle conns: {sat_idle:.0}/s");
    println!("active-only saturation: {sat_active:.0}/s");

    if let Some(path) = json_path {
        let mut rows = String::new();
        for (i, p) in points.iter().enumerate() {
            let sep = if i + 1 < points.len() { "," } else { "" };
            let _ = writeln!(rows, "    {}{}", json_point(p), sep);
        }
        let json = format!(
            "{{\n  \"bench\": \"serve\",\n  \"server_workers\": {server_workers},\n  \"idle_background\": {idle_background},\n  \"idle_saturation_concurrency\": {idle_concurrency},\n  \"active_saturation_concurrency\": {active_concurrency},\n  \"saturation_best_of\": {saturation_repeats},\n  \"saturation_sps\": {sat_idle:.1},\n  \"active_saturation_sps\": {sat_active:.1},\n  \"points\": [\n{rows}  ]\n}}\n"
        );
        std::fs::write(&path, json).expect("write json snapshot");
        eprintln!("wrote {path}");
    }
}
