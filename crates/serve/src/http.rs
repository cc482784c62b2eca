//! The HTTP/1.1 observability front-end (`--http-port`).
//!
//! One non-blocking accept thread deals admitted sockets round-robin to
//! a small pool of worker shards; each shard owns its connections
//! outright and polls them with non-blocking reads/writes. (The
//! SSH/Telnet shards accept for themselves instead; this plane has not
//! moved onto them yet.) No HTTP library — the parser below speaks
//! exactly the subset this plane serves (`GET`, header block, optional
//! keep-alive/pipelining) and rejects everything else with a bounded
//! buffer, which is the only defensible posture for a socket that sits
//! on the same host as a honeypot.
//!
//! # Endpoints (all `honeylab-api v1` documents)
//!
//! | path                    | kind              |
//! |-------------------------|-------------------|
//! | `GET /api/stats`        | `stats`           |
//! | `GET /api/sessions/recent` | `sessions_recent` |
//! | `GET /api/credentials/top` | `credentials_top` |
//! | `GET /api/health`       | `health`          |
//! | `GET /events`           | SSE stream of `session` / `recovery` events |
//! | `GET /`                 | `index`           |
//!
//! # Isolation contract
//!
//! Handlers render from the [`ApiSnapshot`] most recently published by
//! the aggregator — acquired through the lock-free
//! [`crate::broadcast::SnapshotCell`] — and never touch accumulators,
//! serving threads, or any lock an accept path could contend on. A
//! stalled dashboard client therefore costs the honeypot nothing but
//! one fd and one queue.

use crate::broadcast::{EventBus, SnapshotCell, Subscription};
use crate::stats::ApiSnapshot;
use crate::{sse, ServeError};
use hutil::{api_envelope, Json};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on one request head (request line + headers). Anything
/// larger is answered `431` and the connection closed.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Concurrent HTTP connections; beyond this, accepts are shed at the
/// door exactly like the honeypot listeners shed.
pub const MAX_HTTP_CONNECTIONS: usize = 1024;

/// Idle timeout for request/keep-alive connections (SSE streams are
/// exempt — they idle by design and carry keep-alive comments instead).
const HTTP_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Comment-frame cadence on an idle SSE stream.
const SSE_KEEPALIVE: Duration = Duration::from_secs(15);

// --- request parsing -----------------------------------------------------

/// One parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, as sent.
    pub method: String,
    /// Request target (path + optional query).
    pub target: String,
    /// `true` unless the client asked for `Connection: close` (or spoke
    /// HTTP/1.0 without `keep-alive`).
    pub keep_alive: bool,
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The head exceeded [`MAX_REQUEST_BYTES`] without terminating.
    TooLarge,
    /// The bytes are not an HTTP/1.x request head.
    Malformed,
}

/// Incremental request-head parser with a bounded buffer. Feed chunks
/// with [`RequestParser::push`], then drain complete requests with
/// [`RequestParser::next_request`] — pipelined requests in one chunk
/// come out one at a time, torn requests wait for their remaining
/// bytes.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers a chunk.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Takes the next complete request head, if the buffer holds one.
    pub fn next_request(&mut self) -> Result<Option<Request>, ParseError> {
        let Some(head_len) = find_head_end(&self.buf) else {
            if self.buf.len() > MAX_REQUEST_BYTES {
                return Err(ParseError::TooLarge);
            }
            return Ok(None);
        };
        if head_len > MAX_REQUEST_BYTES {
            return Err(ParseError::TooLarge);
        }
        let head: Vec<u8> = self.buf.drain(..head_len).collect();
        let text = std::str::from_utf8(&head).map_err(|_| ParseError::Malformed)?;
        parse_head(text).map(Some)
    }
}

/// Finds the end of the head (`\r\n\r\n`, tolerating bare `\n\n`),
/// returning its length including the terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

fn parse_head(text: &str) -> Result<Request, ParseError> {
    let mut lines = text.lines();
    let request_line = lines.next().ok_or(ParseError::Malformed)?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(ParseError::Malformed)?;
    let target = parts.next().ok_or(ParseError::Malformed)?;
    let version = parts.next().ok_or(ParseError::Malformed)?;
    if parts.next().is_some() || !target.starts_with('/') {
        return Err(ParseError::Malformed);
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::Malformed),
    };
    let mut keep_alive = http11;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed);
        };
        if name.eq_ignore_ascii_case("connection") {
            let v = value.trim();
            if v.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if v.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
        // A GET head carries no body; Content-Length/TE are ignored
        // (non-GET methods are rejected at routing with 405 and the
        // connection closed, so a smuggled body can never desync).
    }
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        keep_alive,
    })
}

// --- responses -----------------------------------------------------------

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    }
}

/// Serialises one JSON response (pretty-rendered body, explicit length).
pub fn json_response(status: u16, doc: &Json, keep_alive: bool) -> Vec<u8> {
    let body = doc.pretty();
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nAccess-Control-Allow-Origin: *\r\nConnection: {}\r\n\r\n",
        status,
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// The v1 error document (envelope kind `"error"`).
pub fn error_json(status: u16, message: &str) -> Json {
    api_envelope(
        "error",
        Json::obj([
            ("status", Json::u64(u64::from(status))),
            ("message", Json::str(message)),
        ]),
    )
}

/// The `GET /` endpoint listing (envelope kind `"index"`).
pub fn index_json() -> Json {
    api_envelope(
        "index",
        Json::obj([(
            "endpoints",
            Json::arr(
                [
                    "/api/stats",
                    "/api/sessions/recent",
                    "/api/credentials/top",
                    "/api/health",
                    "/events",
                ]
                .into_iter()
                .map(Json::str),
            ),
        )]),
    )
}

/// What routing decided to do with one request.
enum Routed {
    /// Plain JSON response.
    Json { status: u16, doc: Json },
    /// Upgrade this connection to an SSE stream.
    EventStream,
}

/// Routes one request against the current snapshot.
fn route(req: &Request, snap: &ApiSnapshot) -> Routed {
    if !req.method.eq_ignore_ascii_case("GET") {
        return Routed::Json {
            status: 405,
            doc: error_json(405, "only GET is served"),
        };
    }
    let path = req.target.split('?').next().unwrap_or("/");
    let doc = match path {
        "/" => index_json(),
        "/api/stats" => snap.stats_json(),
        "/api/sessions/recent" => snap.recent_json(),
        "/api/credentials/top" => snap.credentials_json(),
        "/api/health" => snap.health_json(),
        "/events" => return Routed::EventStream,
        _ => {
            return Routed::Json {
                status: 404,
                doc: error_json(404, "unknown endpoint"),
            }
        }
    };
    Routed::Json { status: 200, doc }
}

// --- the connection pump -------------------------------------------------

enum Mode {
    /// Parsing requests / writing responses.
    Request,
    /// Streaming SSE frames from a subscription.
    Events(Subscription),
    /// Flush the write buffer, then close.
    Closing,
}

struct HttpConn {
    stream: TcpStream,
    parser: RequestParser,
    out: Vec<u8>,
    out_pos: usize,
    mode: Mode,
    last_activity: Instant,
    last_sse_write: Instant,
}

impl HttpConn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            mode: Mode::Request,
            last_activity: Instant::now(),
            last_sse_write: Instant::now(),
        }
    }

    fn queue(&mut self, bytes: &[u8]) {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(bytes);
    }

    /// Pushes buffered output to the socket. `Ok(true)` if fully
    /// flushed.
    fn flush(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// One poll round. `true` = finished, remove the connection.
    fn pump(&mut self, cell: &SnapshotCell<ApiSnapshot>, bus: &EventBus, draining: bool) -> bool {
        // Write side first: drain whatever is queued.
        let flushed = match self.flush() {
            Ok(f) => f,
            Err(_) => return true,
        };
        match &self.mode {
            Mode::Closing => return flushed,
            Mode::Events(_) if draining => {
                // Shutdown: SSE streams end now (flushed or not — the
                // subscriber will reconnect against the next process).
                return true;
            }
            _ => {}
        }

        // Read side.
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return true, // peer closed
                Ok(n) => {
                    self.last_activity = Instant::now();
                    if matches!(self.mode, Mode::Request) {
                        self.parser.push(&buf[..n]);
                    }
                    // Bytes on an SSE stream are ignored (clients send
                    // nothing after the request).
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }

        // Serve parsed requests.
        while matches!(self.mode, Mode::Request) {
            match self.parser.next_request() {
                Ok(None) => break,
                Ok(Some(req)) => {
                    let snap = cell.load();
                    match route(&req, &snap) {
                        Routed::Json { status, doc } => {
                            let keep = req.keep_alive && status == 200;
                            let resp = json_response(status, &doc, keep);
                            self.queue(&resp);
                            if !keep {
                                self.mode = Mode::Closing;
                            }
                        }
                        Routed::EventStream => {
                            self.queue(
                                b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nAccess-Control-Allow-Origin: *\r\nConnection: close\r\n\r\n",
                            );
                            self.queue(sse::keep_alive().as_bytes());
                            self.mode = Mode::Events(bus.subscribe());
                            self.last_sse_write = Instant::now();
                        }
                    }
                }
                Err(err) => {
                    let (status, msg) = match err {
                        ParseError::TooLarge => (431, "request head too large"),
                        ParseError::Malformed => (400, "malformed request"),
                    };
                    let resp = json_response(status, &error_json(status, msg), false);
                    self.queue(&resp);
                    self.mode = Mode::Closing;
                }
            }
        }

        // Shutdown: answer what was already parsed, then close rather
        // than idling a keep-alive connection through the drain window.
        if draining && matches!(self.mode, Mode::Request) {
            self.mode = Mode::Closing;
        }

        // SSE: move queued frames from the subscription to the socket.
        if let Mode::Events(sub) = &self.mode {
            let mut wrote = false;
            let mut frames = Vec::new();
            while let Some(frame) = sub.try_next() {
                frames.push(frame);
            }
            for frame in frames {
                self.queue(frame.as_bytes());
                wrote = true;
            }
            if !wrote && self.last_sse_write.elapsed() >= SSE_KEEPALIVE {
                self.queue(sse::keep_alive().as_bytes());
                wrote = true;
            }
            if wrote {
                self.last_sse_write = Instant::now();
            }
            if self.flush().is_err() {
                return true;
            }
            return false; // SSE streams have no idle timeout
        }

        let _ = self.flush();
        if matches!(self.mode, Mode::Closing) && self.out_pos == self.out.len() {
            return true;
        }
        self.last_activity.elapsed() >= HTTP_IDLE_TIMEOUT
    }
}

// --- plane orchestration -------------------------------------------------

/// A running HTTP plane: the bound address plus its threads.
pub struct HttpHandle {
    /// Bound listener address (ephemeral port resolved).
    pub addr: SocketAddr,
    accept_thread: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpHandle {
    /// Waits for the accept loop and every worker to exit; returns the
    /// name of the first panicked thread, if any.
    pub fn join(self) -> Result<(), (String, String)> {
        let mut failure = None;
        let mut note = |name: &str, r: std::thread::Result<()>| {
            if let Err(p) = r {
                if failure.is_none() {
                    failure = Some((name.to_string(), honeypot::panic_message(p.as_ref())));
                }
            }
        };
        note("http-accept", self.accept_thread.join());
        for (i, w) in self.workers.into_iter().enumerate() {
            note(&format!("http-worker-{i}"), w.join());
        }
        match failure {
            None => Ok(()),
            Some(f) => Err(f),
        }
    }
}

/// Binds the HTTP listener and spawns its accept + worker threads.
pub fn start(
    bind: IpAddr,
    port: u16,
    workers: usize,
    cell: Arc<SnapshotCell<ApiSnapshot>>,
    bus: Arc<EventBus>,
    shutdown: Arc<AtomicBool>,
) -> Result<HttpHandle, ServeError> {
    let addr = SocketAddr::new(bind, port);
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
    let addr = listener.local_addr().map_err(|e| ServeError::Bind {
        addr: "<bound>".into(),
        source: e,
    })?;

    let workers = workers.max(1);
    let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(workers);
    let mut worker_threads = Vec::with_capacity(workers);
    for i in 0..workers {
        let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
        senders.push(tx);
        let cell = Arc::clone(&cell);
        let bus = Arc::clone(&bus);
        let shutdown = Arc::clone(&shutdown);
        worker_threads.push(
            std::thread::Builder::new()
                .name(format!("http-worker-{i}"))
                .spawn(move || worker_loop(&rx, &cell, &bus, &shutdown))
                .expect("spawn http worker"),
        );
    }

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("http-accept".into())
            .spawn(move || accept_loop(listener, senders, &shutdown))
            .expect("spawn http accept thread")
    };

    Ok(HttpHandle {
        addr,
        accept_thread,
        workers: worker_threads,
    })
}

fn accept_loop(listener: TcpListener, senders: Vec<Sender<TcpStream>>, shutdown: &AtomicBool) {
    let mut n: usize = 0;
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let shard = n % senders.len();
                n = n.wrapping_add(1);
                let _ = senders[shard].send(stream); // teardown: drop = close
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Listener drops here: further connects are refused during drain.
}

fn worker_loop(
    rx: &Receiver<TcpStream>,
    cell: &SnapshotCell<ApiSnapshot>,
    bus: &EventBus,
    shutdown: &AtomicBool,
) {
    let mut conns: Vec<HttpConn> = Vec::new();
    let mut intake_open = true;
    loop {
        while intake_open {
            match rx.try_recv() {
                Ok(stream) => {
                    if conns.len() >= MAX_HTTP_CONNECTIONS {
                        drop(stream); // shed at the door
                        continue;
                    }
                    conns.push(HttpConn::new(stream));
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => intake_open = false,
            }
        }
        let draining = shutdown.load(Ordering::Relaxed);
        let mut i = 0;
        while i < conns.len() {
            if conns[i].pump(cell, bus, draining) {
                conns.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if conns.is_empty() && !intake_open {
            return;
        }
        std::thread::sleep(Duration::from_millis(if conns.is_empty() { 5 } else { 1 }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(parser: &mut RequestParser) -> Vec<Request> {
        let mut out = Vec::new();
        while let Ok(Some(req)) = parser.next_request() {
            out.push(req);
        }
        out
    }

    #[test]
    fn parses_a_plain_get() {
        let mut p = RequestParser::new();
        p.push(b"GET /api/stats HTTP/1.1\r\nHost: localhost\r\n\r\n");
        let reqs = parse_all(&mut p);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].target, "/api/stats");
        assert!(reqs[0].keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let mut p = RequestParser::new();
        p.push(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\nGET / HTTP/1.0\r\n\r\n");
        let reqs = parse_all(&mut p);
        assert_eq!(reqs.len(), 2);
        assert!(!reqs[0].keep_alive);
        assert!(!reqs[1].keep_alive);
    }

    #[test]
    fn torn_requests_reassemble_at_every_split_point() {
        let raw = b"GET /api/health HTTP/1.1\r\nHost: h\r\nAccept: */*\r\n\r\n";
        for split in 1..raw.len() - 1 {
            let mut p = RequestParser::new();
            p.push(&raw[..split]);
            assert_eq!(p.next_request(), Ok(None), "torn at {split}");
            p.push(&raw[split..]);
            let req = p.next_request().unwrap().expect("complete");
            assert_eq!(req.target, "/api/health");
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = RequestParser::new();
        p.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n");
        let targets: Vec<String> = parse_all(&mut p).into_iter().map(|r| r.target).collect();
        assert_eq!(targets, vec!["/a", "/b", "/c"]);
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut p = RequestParser::new();
        p.push(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; MAX_REQUEST_BYTES + 64];
        p.push(&filler);
        assert_eq!(p.next_request(), Err(ParseError::TooLarge));
        // A terminated-but-huge head is equally rejected.
        let mut p = RequestParser::new();
        p.push(b"GET / HTTP/1.1\r\nX-Pad: ");
        p.push(&filler);
        p.push(b"\r\n\r\n");
        assert_eq!(p.next_request(), Err(ParseError::TooLarge));
    }

    #[test]
    fn malformed_heads_are_rejected_not_panicked() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nnocolon\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let mut p = RequestParser::new();
            p.push(bad);
            assert_eq!(p.next_request(), Err(ParseError::Malformed), "{bad:?}");
        }
    }

    /// Deterministic torn-chunk fuzz: a pipelined request stream fed at
    /// every chunk size from 1 byte up always yields the same requests.
    #[test]
    fn chunking_never_changes_the_parse() {
        let stream =
            b"GET /api/stats HTTP/1.1\r\nHost: x\r\n\r\nGET /events HTTP/1.1\r\nAccept: text/event-stream\r\n\r\nGET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let mut reference = RequestParser::new();
        reference.push(stream);
        let expect = parse_all(&mut reference);
        assert_eq!(expect.len(), 3);
        for chunk in 1..=stream.len() {
            let mut p = RequestParser::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                p.push(piece);
                got.extend(parse_all(&mut p));
            }
            assert_eq!(got, expect, "chunk size {chunk}");
        }
    }

    #[test]
    fn routing_serves_every_endpoint_and_404s_the_rest() {
        let snap = ApiSnapshot::sample();
        let get = |target: &str| Request {
            method: "GET".into(),
            target: target.into(),
            keep_alive: true,
        };
        for (target, kind) in [
            ("/", "index"),
            ("/api/stats", "stats"),
            ("/api/sessions/recent", "sessions_recent"),
            ("/api/credentials/top", "credentials_top"),
            ("/api/health", "health"),
            ("/api/stats?pretty=1", "stats"),
        ] {
            match route(&get(target), &snap) {
                Routed::Json { status, doc } => {
                    assert_eq!(status, 200, "{target}");
                    assert_eq!(doc.get("kind").and_then(Json::as_str), Some(kind));
                }
                Routed::EventStream => panic!("{target} should not stream"),
            }
        }
        assert!(matches!(route(&get("/events"), &snap), Routed::EventStream));
        match route(&get("/api/nope"), &snap) {
            Routed::Json { status, .. } => assert_eq!(status, 404),
            _ => panic!("404 expected"),
        }
        let post = Request {
            method: "POST".into(),
            ..get("/api/stats")
        };
        match route(&post, &snap) {
            Routed::Json { status, .. } => assert_eq!(status, 405),
            _ => panic!("405 expected"),
        }
    }

    #[test]
    fn json_response_frames_content_length_exactly() {
        let doc = error_json(404, "unknown endpoint");
        let bytes = json_response(404, &doc, false);
        let text = String::from_utf8(bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 404 Not Found"));
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        assert_eq!(Json::parse(body).unwrap(), doc);
    }
}
