//! The benchmark's load: closed-loop SSH clients replaying
//! `barrage::build_schedule`'s archetype mix.
//!
//! Clients use blocking sockets, one connection per thread, so the
//! process never holds more than two client connections at a time.

use serve::barrage::SessionPlan;
use sshwire::{ClientScript, SshClient};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A client gives up on a session that has not closed in this long.
const SESSION_DEADLINE: Duration = Duration::from_secs(10);

/// How one session ended, from the client's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The dialogue finished and the server closed the connection.
    Completed,
    /// The server closed before sending a byte (admission shed).
    Shed,
    /// Connect, read or protocol failure mid-dialogue.
    Error,
    /// No close within [`SESSION_DEADLINE`].
    Timeout,
}

fn script(plan: &SessionPlan) -> ClientScript {
    let passwords: Vec<&str> = plan.passwords.iter().map(String::as_str).collect();
    let commands: Vec<&str> = plan.commands.iter().map(String::as_str).collect();
    let mut s = ClientScript::new(&plan.username, &passwords, &commands);
    s.hangup_after_auth = plan.hangup_after_auth;
    s
}

/// A fresh scripted client for `plan` (`None` for a banner-only scanner).
pub fn client_for(plan: &SessionPlan, nonce: u64) -> Option<SshClient> {
    (!plan.banner_only).then(|| SshClient::new(script(plan), nonce.to_le_bytes().to_vec()))
}

/// Runs one session from connect to the server's close and returns how it
/// ended and how long that took.
pub fn run_session(addr: SocketAddr, plan: &SessionPlan, nonce: u64) -> (End, Duration) {
    let t0 = Instant::now();
    let end = session(addr, plan, nonce);
    (end, t0.elapsed())
}

fn session(addr: SocketAddr, plan: &SessionPlan, nonce: u64) -> End {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, SESSION_DEADLINE) else {
        return End::Error;
    };
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(SESSION_DEADLINE)).is_err() {
        return End::Error;
    }
    let mut client = client_for(plan, nonce);
    let mut buf = [0u8; 4096];
    let mut got_any = false;
    loop {
        if let Some(c) = &mut client {
            let out = c.take_output();
            if !out.is_empty() && stream.write_all(&out).is_err() {
                return if got_any { End::Error } else { End::Shed };
            }
        }
        let done = match &client {
            // A scanner is done once the banner arrives.
            None => got_any,
            Some(c) => c.is_closed(),
        };
        if done {
            return await_close(&mut stream, &mut buf);
        }
        match stream.read(&mut buf) {
            Ok(0) => return if got_any { End::Error } else { End::Shed },
            Ok(n) => {
                got_any = true;
                if let Some(c) = &mut client {
                    if c.input(&buf[..n]).is_err() {
                        return End::Error;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return End::Timeout
            }
            Err(_) => return if got_any { End::Error } else { End::Shed },
        }
    }
}

/// Half-closes and reads until the server closes its side: the session
/// is over when the server has finished it.
fn await_close(stream: &mut TcpStream, buf: &mut [u8]) -> End {
    let _ = stream.shutdown(Shutdown::Write);
    loop {
        match stream.read(buf) {
            Ok(0) => return End::Completed,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return End::Timeout
            }
            // A reset after the dialogue finished is still a close.
            Err(_) => return End::Completed,
        }
    }
}

/// What one closed-loop client thread saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Sessions started.
    pub attempted: u64,
    /// Sessions that completed.
    pub completed: u64,
    /// Sessions shed at the door.
    pub shed: u64,
    /// Sessions that failed mid-dialogue.
    pub errors: u64,
    /// Sessions that never closed.
    pub timeouts: u64,
    /// Latency of every completed session, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// When each completed session ended, nanoseconds after the phase's
    /// origin (parallel to `latencies_ns`).
    pub ends_ns: Vec<u64>,
    /// Plan index of every completed session, in completion order.
    pub plans_done: Vec<usize>,
    /// CPU the client threads spent, nanoseconds.
    pub cpu_ns: u64,
}

impl Tally {
    /// Sessions that did not complete.
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.timeouts
    }

    /// Folds another thread's tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.errors += other.errors;
        self.timeouts += other.timeouts;
        self.latencies_ns.extend(other.latencies_ns);
        self.ends_ns.extend(other.ends_ns);
        self.plans_done.extend(other.plans_done);
        self.cpu_ns += other.cpu_ns;
    }
}

/// When a closed-loop client stops starting sessions.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After the shared plan cursor passes this index (warm-up).
    Plans(usize),
    /// After this instant.
    Deadline(Instant),
}

/// Closed-loop client: starts its next session as soon as the previous
/// one ends. Plans are taken in order from a shared cursor, so the
/// sequence of sessions offered is fixed by the seed.
pub fn closed_loop(
    addr: SocketAddr,
    plans: &[SessionPlan],
    cursor: &AtomicUsize,
    until: Until,
    origin: Instant,
) -> Tally {
    let mut t = Tally::default();
    loop {
        if let Until::Deadline(d) = until {
            if Instant::now() >= d {
                break;
            }
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if let Until::Plans(n) = until {
            if i >= n {
                break;
            }
        }
        let plan = &plans[i % plans.len()];
        t.attempted += 1;
        let (end, took) = run_session(addr, plan, i as u64);
        match end {
            End::Completed => {
                t.completed += 1;
                t.latencies_ns.push(took.as_nanos() as u64);
                t.ends_ns.push(origin.elapsed().as_nanos() as u64);
                t.plans_done.push(i % plans.len());
            }
            End::Shed => t.shed += 1,
            End::Error => t.errors += 1,
            End::Timeout => t.timeouts += 1,
        }
    }
    t.cpu_ns = crate::sys::own_thread_cpu_ns();
    t
}

/// Runs `clients` closed-loop client threads (named `bench-client-N`)
/// against `addr`, runs `during` on the calling thread meanwhile, and
/// merges the clients' tallies. Completion times count from `origin`.
pub fn run_clients<R>(
    addr: SocketAddr,
    plans: &[SessionPlan],
    cursor: &AtomicUsize,
    clients: usize,
    until: Until,
    origin: Instant,
    during: impl FnOnce() -> R,
) -> (Tally, R) {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|n| {
                std::thread::Builder::new()
                    .name(format!("bench-client-{n}"))
                    .spawn_scoped(s, move || closed_loop(addr, plans, cursor, until, origin))
                    .expect("spawn client thread")
            })
            .collect();
        let r = during();
        let mut all = Tally::default();
        for h in handles {
            all.absorb(h.join().expect("client thread panicked"));
        }
        (all, r)
    })
}
