//! Live-socket integration tests: real TCP clients against a running
//! [`serve::Server`], with the resulting store read back through
//! `sessiondb`.

use serve::{fold_peer_ip, ChaosConfig, Gate, ServeConfig, ServeStats, Server};
use sshwire::{ClientScript, SshClient};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use telwire::{TelnetClient, TelnetScript};

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-live-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read_step(stream: &mut TcpStream, buf: &mut [u8]) -> Option<usize> {
    match stream.read(buf) {
        Ok(0) => Some(0),
        Ok(n) => Some(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            None
        }
        Err(e) => panic!("client read failed: {e}"),
    }
}

/// Plays one scripted SSH session over a real socket.
fn drive_ssh(addr: SocketAddr, script: ClientScript) {
    drive_ssh_on(TcpStream::connect(addr).expect("connect"), script);
}

/// Plays one scripted SSH session over an already connected socket.
fn drive_ssh_on(mut stream: TcpStream, script: ClientScript) {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    stream.set_nodelay(true).ok();
    let mut client = SshClient::new(script, b"live-test-nonce".to_vec());
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client.is_closed() {
        assert!(Instant::now() < deadline, "client dialogue stalled");
        let out = client.take_output();
        if !out.is_empty() {
            stream.write_all(&out).expect("client write");
        }
        if let Some(n) = read_step(&mut stream, &mut buf) {
            if n == 0 {
                break;
            }
            client.input(&buf[..n]).expect("client protocol");
        }
    }
    let out = client.take_output();
    if !out.is_empty() {
        let _ = stream.write_all(&out);
    }
}

/// Plays one scripted Telnet session over a real socket.
fn drive_telnet(addr: SocketAddr, script: TelnetScript) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut client = TelnetClient::new(script);
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client.is_done() {
        assert!(Instant::now() < deadline, "telnet dialogue stalled");
        let out = client.take_output();
        if !out.is_empty() {
            stream.write_all(&out).expect("client write");
        }
        if let Some(n) = read_step(&mut stream, &mut buf) {
            if n == 0 {
                break;
            }
            client.input(&buf[..n]).expect("client protocol");
        }
    }
}

#[test]
fn ssh_sessions_round_trip_to_store() {
    let dir = temp_store("ssh-round-trip");
    let cfg = ServeConfig {
        store_dir: Some(dir.clone()),
        workers: 4,
        stats_interval: None,
        rows_per_segment: 4, // several segments from 10 sessions
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    let n = 10;
    std::thread::scope(|scope| {
        for i in 0..n {
            scope.spawn(move || {
                let script = ClientScript::new(
                    "root",
                    &["root", "admin"],
                    &[&format!("echo probe-{i}"), "uname -a"],
                );
                drive_ssh(addr, script);
            });
        }
    });

    // Sessions complete asynchronously after the client hangs up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().completed < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, n, "all sessions recorded");
    assert_eq!(report.snapshot.shed_capacity, 0);
    assert_eq!(report.snapshot.shed_per_ip, 0);
    assert_eq!(report.ingest.accepted, n);
    assert_eq!(report.quarantined, 0);
    assert!(report.snapshot.bytes_in > 500 * n, "real bytes moved");

    // CRC-checked read-back through the columnar store.
    let store = sessiondb::Store::open(&dir).expect("open store");
    let recs: Vec<_> = store
        .scan()
        .records()
        .collect::<Result<_, _>>()
        .expect("intact CRCs");
    assert_eq!(recs.len(), n as usize);
    for rec in &recs {
        assert_eq!(rec.protocol, honeypot::Protocol::Ssh);
        assert!(rec.login_succeeded(), "root/admin is accepted");
        assert_eq!(rec.logins.len(), 2);
        assert_eq!(rec.commands.len(), 2);
        assert!(rec
            .client_version
            .as_deref()
            .unwrap_or("")
            .starts_with("SSH-2.0"));
        assert!(rec.end >= rec.start);
    }
    // Dense ids, one per session.
    let mut ids: Vec<u64> = recs.iter().map(|r| r.session_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..n).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telnet_sessions_are_served_too() {
    let cfg = ServeConfig {
        ssh_port: None,
        telnet_port: Some(0),
        workers: 2,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().telnet.expect("telnet addr");

    let script = TelnetScript {
        logins: vec![
            ("root".into(), "root".into()), // rejected by policy
            ("root".into(), "hunter2".into()),
        ],
        commands: vec!["cd /tmp".into(), "id".into()],
    };
    drive_telnet(addr, script);

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().completed < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, 1);
    assert_eq!(report.ingest.accepted, 1);
}

#[test]
fn per_ip_limit_sheds_at_accept_time() {
    let cfg = ServeConfig {
        per_ip_limit: 1,
        workers: 1,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // First connection is admitted: the server banner proves a shard owns
    // it.
    let mut first = TcpStream::connect(addr).expect("connect");
    first
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 256];
    let n = first.read(&mut buf).expect("banner");
    assert!(n > 0, "admitted connection gets the SSH banner");

    // Second connection from the same IP is shed before any protocol
    // state: the socket closes without a banner.
    let mut second = TcpStream::connect(addr).expect("connect");
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match second.read(&mut buf) {
        Ok(0) => {}
        Ok(_) => panic!("shed connection must not receive a banner"),
        Err(e) => panic!("expected clean close, got {e}"),
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().shed_per_ip < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.stats().shed_per_ip, 1);
    drop(first);
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.shed_per_ip, 1);
    assert_eq!(report.snapshot.shed_capacity, 0);
}

#[test]
fn idle_connections_time_out_and_are_recorded() {
    let cfg = ServeConfig {
        idle_timeout: Duration::from_millis(150),
        workers: 1,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // Connect and go silent — a port scanner, in effect.
    let stream = TcpStream::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().completed < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, 1);
    assert_eq!(
        report.snapshot.timed_out, 1,
        "idle session ends via timeout"
    );
    drop(stream);
}

#[test]
fn graceful_shutdown_drains_in_flight_sessions() {
    let dir = temp_store("drain");
    let cfg = ServeConfig {
        store_dir: Some(dir.clone()),
        workers: 2,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // Start a client, get mid-handshake, then trigger shutdown while it
    // is still in flight: the session must complete, not be cut off.
    let t = std::thread::spawn(move || {
        let script = ClientScript::new("root", &["admin"], &["uname -a"]);
        drive_ssh(addr, script);
    });
    // Wait until the connection is admitted.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().accepted < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.trigger_shutdown();
    t.join().expect("client finished");
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.completed, 1, "in-flight session drained");
    assert_eq!(report.ingest.accepted, 1);

    let store = sessiondb::Store::open(&dir).expect("open store");
    let recs: Vec<_> = store
        .scan()
        .records()
        .collect::<Result<_, _>>()
        .expect("intact CRCs");
    assert_eq!(recs.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connects and reads until the server hangs up, tolerating every
/// error: chaos tests kill connections (or whole shards) mid-dialogue,
/// and the client must not care how its socket died.
fn drive_tolerant(addr: SocketAddr, script: ClientScript) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .ok();
    let mut client = SshClient::new(script, b"chaos-test-nonce".to_vec());
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client.is_closed() && Instant::now() < deadline {
        let out = client.take_output();
        if !out.is_empty() && stream.write_all(&out).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                if client.input(&buf[..n]).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

#[test]
fn distinct_v6_peers_occupy_distinct_gate_slots() {
    use std::net::{IpAddr, Ipv6Addr};
    let gate = std::sync::Arc::new(Gate::new(16, 1));
    let stats = std::sync::Arc::new(ServeStats::default());
    let a = fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)));
    let b = fold_peer_ip(IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)));
    assert_ne!(a, b, "distinct v6 peers fold to distinct slots");
    let pa = gate.admit(a, &stats).expect("first v6 peer admitted");
    let pb = gate
        .admit(b, &stats)
        .expect("second v6 peer has its own per-IP slot");
    assert!(
        gate.admit(a, &stats).is_err(),
        "same v6 peer again hits its per-IP limit"
    );
    assert_eq!(gate.active(), 2);
    drop(pa);
    drop(pb);
    assert_eq!(gate.active(), 0, "permits release their slots on drop");
}

#[test]
fn injected_connection_panics_are_contained() {
    let cfg = ServeConfig {
        workers: 2,
        stats_interval: None,
        chaos: ChaosConfig {
            conn_panic_rate: 1.0, // every connection's pump panics
            shard_panic_rate: 0.0,
            seed: 7,
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    let n = 6u64;
    for i in 0..n {
        let script = ClientScript::new("root", &["admin"], &[&format!("echo doomed-{i}")]);
        drive_tolerant(addr, script);
    }

    // Every pump panicked; every panic was contained inside its shard.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().panics_caught < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.stats().panics_caught, n);
    assert_eq!(
        handle.stats().shards_respawned,
        0,
        "contained panics never kill a shard"
    );

    // The gate leaks nothing: active drains to zero.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.active(), 0, "permits released despite panics");

    let report = handle.join().expect("shard threads survived");
    assert_eq!(report.snapshot.accepted, n);
    assert_eq!(report.snapshot.panics_caught, n);
    assert_eq!(
        report.ingest.accepted, n,
        "each panicked connection is still recorded as a failed session"
    );
    assert_eq!(report.quarantined, 0);
    assert!(report.shard_panics.is_empty());
}

#[test]
fn injected_shard_panics_respawn_and_keep_serving() {
    let cfg = ServeConfig {
        workers: 2,
        stats_interval: None,
        chaos: ChaosConfig {
            conn_panic_rate: 0.0,
            shard_panic_rate: 0.5, // intake roulette: whole shard dies
            seed: 42,
        },
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    let n = 24u64;
    for i in 0..n {
        let script = ClientScript::new("root", &["admin"], &[&format!("echo roulette-{i}")]);
        drive_tolerant(addr, script);
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().shards_respawned == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        handle.stats().shards_respawned >= 1,
        "at 50% intake roulette over {n} connections at least one shard died"
    );
    assert_eq!(
        handle.stats().accepted,
        n,
        "the server kept accepting through every shard death"
    );

    // Respawned shards still serve: two more clients are accepted.
    for i in 0..2 {
        let script = ClientScript::new("root", &["admin"], &[&format!("echo after-{i}")]);
        drive_tolerant(addr, script);
    }
    assert_eq!(handle.stats().accepted, n + 2);

    // Every gate slot comes home, even those queued to a shard that died.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        handle.active(),
        0,
        "no gate slot leaked across shard deaths"
    );

    let report = handle.join().expect("supervised server joins cleanly");
    let respawns = report.snapshot.shards_respawned;
    assert!(respawns >= 1);
    assert!(
        report.shard_panics.len() as u64 >= respawns,
        "every shard death is reported"
    );
    for p in &report.shard_panics {
        assert!(
            p.contains("chaos: injected shard panic"),
            "panic message surfaces verbatim: {p}"
        );
    }
}

/// A connection that goes silent mid-handshake must not stall anyone
/// else on its shard. With one worker shard, the reactor parks the
/// stalled socket on epoll and keeps pumping its siblings; the old
/// polling loop also passed this (it skipped unreadable sockets), but
/// the reactor variant would deadlock outright if readiness handling
/// regressed to blocking per-connection I/O.
#[test]
fn stalled_connection_cannot_block_siblings() {
    let cfg = ServeConfig {
        workers: 1,
        stats_interval: None,
        idle_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // The staller: sends a *partial* version banner (no newline), then
    // nothing. The server must hold it open, waiting for the rest.
    let mut staller = TcpStream::connect(addr).expect("staller connect");
    staller.write_all(b"SSH-2.0-half").expect("partial banner");
    std::thread::sleep(Duration::from_millis(50));

    // Five normal sessions ride the same single shard and must all
    // complete while the staller sits there.
    let n = 5u64;
    std::thread::scope(|scope| {
        for i in 0..n {
            scope.spawn(move || {
                let script = ClientScript::new("root", &["admin"], &[&format!("echo sibling-{i}")]);
                drive_ssh(addr, script);
            });
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().completed < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        handle.stats().completed,
        n,
        "siblings completed while a connection stalled on the only shard"
    );
    // The staller is still admitted (not timed out, not dropped).
    assert_eq!(handle.active(), 1, "staller still holds its slot");
    drop(staller);
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.active(), 0, "staller's slot came home after close");
    handle.join().expect("join");
}

#[test]
fn global_cap_sheds_at_accept_time() {
    let cfg = ServeConfig {
        max_connections: 1,
        workers: 2,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    let mut first = TcpStream::connect(addr).expect("connect");
    first
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 256];
    assert!(first.read(&mut buf).expect("banner") > 0);

    // The cap is global: whichever shard accepts the second connect
    // sees the first one's slot taken, and sheds it unanswered.
    let mut second = TcpStream::connect(addr).expect("connect");
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(
        matches!(second.read(&mut buf), Ok(0) | Err(_)),
        "a shed connection gets no banner"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().shed_capacity < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(first);
    let report = handle.join().expect("join");
    assert_eq!(report.snapshot.accepted, 2);
    assert_eq!(report.snapshot.shed_capacity, 1);
    assert_eq!(report.snapshot.shed_per_ip, 0);
    assert_eq!(report.snapshot.completed, 1);
}

/// Shutdown closes the listeners at once (every shard lets go of them)
/// while a session admitted before it still drains to completion.
#[test]
fn connects_are_refused_while_an_in_flight_session_drains() {
    let cfg = ServeConfig {
        workers: 2,
        stats_interval: None,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg).expect("start");
    let addr = handle.addrs().ssh.expect("ssh addr");

    // Admitted and banner sent; peek leaves the banner for the client.
    let in_flight = TcpStream::connect(addr).expect("connect");
    in_flight
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 64];
    assert!(in_flight.peek(&mut buf).expect("banner") > 0);

    handle.trigger_shutdown();
    let deadline = Instant::now() + Duration::from_secs(5);
    let refused = loop {
        match TcpStream::connect(addr) {
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => break true,
            _ if Instant::now() >= deadline => break false,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    assert!(
        refused,
        "connects must be refused once shutdown is triggered"
    );
    // A shard already inside its accept loop when shutdown was triggered
    // may still take a connect that raced the trigger; the in-flight
    // session is open either way, and is driven to completion below.
    assert!(handle.active() >= 1, "the in-flight session is still open");

    drive_ssh_on(
        in_flight,
        ClientScript::new("root", &["admin"], &["uname -a"]),
    );
    let report = handle.join().expect("join");
    assert!(
        report.snapshot.completed >= 1,
        "the in-flight session drained"
    );
    assert_eq!(report.snapshot.timed_out, 0, "nothing was cut off");
    assert_eq!(
        report.snapshot.completed, report.snapshot.accepted,
        "every admitted connection was recorded"
    );
}
