//! Server (honeypot) side of the Telnet dialogue.
//!
//! State machine: negotiate → `login:` → `Password:` → shell loop.
//! Failed logins re-prompt up to a retry budget, as real telnetd does and
//! IoT brute-forcers expect.

use crate::codec::{self, opt, Event, TelnetCodec, DO, DONT, WILL, WONT};
use crate::TelnetError;

/// Policy hooks the honeypot provides.
pub trait TelnetHandler {
    /// Decides one credential pair.
    fn auth(&mut self, username: &str, password: &str) -> bool;
    /// Executes a command line, returning emulated output.
    fn exec(&mut self, command: &str) -> String;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitLogin,
    AwaitPassword,
    Shell,
    Closed,
}

/// Maximum credential attempts before the server drops the connection
/// (matching the common `login: incorrect` triple-try behaviour).
const MAX_AUTH_TRIES: usize = 3;

/// Longest input line (login, password or command) accepted. Loader
/// bots send long `echo -ne '\x..'` lines, but nothing near this.
pub const MAX_LINE: usize = 8192;

/// The Telnet server endpoint.
pub struct TelnetServer<H: TelnetHandler> {
    handler: H,
    codec: TelnetCodec,
    outbuf: Vec<u8>,
    phase: Phase,
    line: Vec<u8>,
    pending_user: Option<String>,
    auth_tries: usize,
    auth_log: Vec<(String, String, bool)>,
    exec_log: Vec<String>,
    hostname: String,
}

impl<H: TelnetHandler> TelnetServer<H> {
    /// Creates the server; the banner and negotiation go out immediately.
    pub fn new(handler: H, hostname: &str) -> Self {
        let mut s = Self {
            handler,
            codec: TelnetCodec::new(),
            outbuf: Vec::new(),
            phase: Phase::AwaitLogin,
            line: Vec::new(),
            pending_user: None,
            auth_tries: 0,
            auth_log: Vec::new(),
            exec_log: Vec::new(),
            hostname: hostname.to_string(),
        };
        // Classic telnetd opening: WILL ECHO, WILL SGA, DO NAWS.
        s.outbuf
            .extend_from_slice(&codec::negotiate(WILL, opt::ECHO));
        s.outbuf
            .extend_from_slice(&codec::negotiate(WILL, opt::SGA));
        s.outbuf.extend_from_slice(&codec::negotiate(DO, opt::NAWS));
        s.send_str(&format!("\r\n{} login: ", s.hostname.clone()));
        s
    }

    /// Auth attempts so far.
    pub fn auth_log(&self) -> &[(String, String, bool)] {
        &self.auth_log
    }

    /// Commands executed so far.
    pub fn exec_log(&self) -> &[String] {
        &self.exec_log
    }

    /// Whether the server dropped the connection.
    pub fn is_closed(&self) -> bool {
        self.phase == Phase::Closed
    }

    /// Drains bytes queued for the client.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.outbuf)
    }

    /// Consumes the server, returning the handler.
    pub fn into_handler(self) -> H {
        self.handler
    }

    fn send_str(&mut self, s: &str) {
        self.outbuf
            .extend_from_slice(&codec::escape_data(s.as_bytes()));
    }

    /// Feeds client bytes. A malformed stream, an over-long
    /// subnegotiation or a line longer than [`MAX_LINE`] closes the
    /// session with an error; input after the close is discarded.
    pub fn input(&mut self, data: &[u8]) -> Result<(), TelnetError> {
        if self.phase == Phase::Closed {
            return Ok(());
        }
        self.codec.input(data);
        let events = self
            .codec
            .drain()
            .inspect_err(|_| self.phase = Phase::Closed)?;
        for ev in events {
            match ev {
                Event::Negotiate { verb, option } => self.negotiate(verb, option),
                Event::Data(bytes) => self.data(&bytes)?,
                Event::Subnegotiation { .. } | Event::Command(_) => {}
            }
        }
        Ok(())
    }

    fn negotiate(&mut self, verb: u8, option: u8) {
        // Accept nothing beyond what we offered; refuse everything else.
        match (verb, option) {
            (DO, opt::ECHO | opt::SGA) | (WONT, _) | (DONT, _) => {}
            (DO, other) => self
                .outbuf
                .extend_from_slice(&codec::negotiate(WONT, other)),
            (WILL, opt::NAWS) => {}
            (WILL, other) => self
                .outbuf
                .extend_from_slice(&codec::negotiate(DONT, other)),
            _ => {}
        }
    }

    fn data(&mut self, bytes: &[u8]) -> Result<(), TelnetError> {
        for &b in bytes {
            match b {
                b'\r' => {}
                b'\n' => {
                    let line = String::from_utf8_lossy(&self.line).into_owned();
                    self.line.clear();
                    self.on_line(line.trim_end());
                }
                _ if self.line.len() >= MAX_LINE => {
                    self.phase = Phase::Closed;
                    return Err(TelnetError::Protocol(format!(
                        "input line exceeds {MAX_LINE} bytes"
                    )));
                }
                _ => self.line.push(b),
            }
        }
        Ok(())
    }

    fn on_line(&mut self, line: &str) {
        match self.phase {
            Phase::AwaitLogin => {
                self.pending_user = Some(line.to_string());
                self.send_str("Password: ");
                self.phase = Phase::AwaitPassword;
            }
            Phase::AwaitPassword => {
                let user = self.pending_user.take().unwrap_or_default();
                let ok = self.handler.auth(&user, line);
                self.auth_log.push((user, line.to_string(), ok));
                if ok {
                    let host = self.hostname.clone();
                    self.send_str(&format!(
                        "\r\nBusyBox v1.22.1 built-in shell (ash)\r\n\r\n{host}:~# "
                    ));
                    self.phase = Phase::Shell;
                } else {
                    self.auth_tries += 1;
                    if self.auth_tries >= MAX_AUTH_TRIES {
                        self.send_str("\r\nLogin incorrect\r\n");
                        self.phase = Phase::Closed;
                    } else {
                        let host = self.hostname.clone();
                        self.send_str(&format!("\r\nLogin incorrect\r\n{host} login: "));
                        self.phase = Phase::AwaitLogin;
                    }
                }
            }
            Phase::Shell => {
                if line.is_empty() {
                    let host = self.hostname.clone();
                    self.send_str(&format!("{host}:~# "));
                    return;
                }
                if line == "exit" || line == "logout" {
                    self.phase = Phase::Closed;
                    return;
                }
                self.exec_log.push(line.to_string());
                let out = self.handler.exec(line);
                let host = self.hostname.clone();
                self.send_str(&out);
                self.send_str(&format!("{host}:~# "));
            }
            Phase::Closed => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct P;
    impl TelnetHandler for P {
        fn auth(&mut self, u: &str, p: &str) -> bool {
            u == "root" && p == "admin"
        }
        fn exec(&mut self, c: &str) -> String {
            format!("<{c}>\r\n")
        }
    }

    fn srv() -> TelnetServer<P> {
        TelnetServer::new(P, "svr04")
    }

    #[test]
    fn banner_negotiates_and_prompts() {
        let mut s = srv();
        let out = s.take_output();
        assert!(out
            .windows(3)
            .any(|w| w == codec::negotiate(WILL, opt::ECHO)));
        assert!(String::from_utf8_lossy(&out).contains("login: "));
    }

    #[test]
    fn login_flow_and_shell() {
        let mut s = srv();
        s.take_output();
        s.input(b"root\r\n").unwrap();
        assert!(String::from_utf8_lossy(&s.take_output()).contains("Password: "));
        s.input(b"admin\r\n").unwrap();
        let shell = String::from_utf8_lossy(&s.take_output()).into_owned();
        assert!(shell.contains("BusyBox"), "{shell}");
        s.input(b"uname -a\r\n").unwrap();
        assert!(String::from_utf8_lossy(&s.take_output()).contains("<uname -a>"));
        assert_eq!(s.exec_log(), ["uname -a"]);
        s.input(b"exit\r\n").unwrap();
        assert!(s.is_closed());
    }

    #[test]
    fn three_failures_drop_the_connection() {
        let mut s = srv();
        for _ in 0..3 {
            s.input(b"root\r\nwrong\r\n").unwrap();
        }
        assert!(s.is_closed());
        assert_eq!(s.auth_log().len(), 3);
        assert!(s.auth_log().iter().all(|(_, _, ok)| !ok));
    }

    #[test]
    fn refuses_unoffered_options() {
        let mut s = srv();
        s.take_output();
        s.input(&[codec::IAC, DO, 99]).unwrap();
        let out = s.take_output();
        assert!(out.windows(3).any(|w| w == codec::negotiate(WONT, 99)));
    }

    #[test]
    fn newline_free_flood_is_bounded_and_closes() {
        const CHUNK: usize = 4096;
        let mut s = srv();
        let chunk = [b'x'; CHUNK];
        let mut errors = 0;
        for _ in 0..(1 << 20) / CHUNK {
            if s.input(&chunk).is_err() {
                errors += 1;
            }
            assert!(s.line.len() <= MAX_LINE, "line grew to {}", s.line.len());
        }
        assert_eq!(errors, 1, "the first over-long line fails the session");
        assert!(s.is_closed());
    }

    #[test]
    fn subnegotiation_flood_is_bounded_and_closes() {
        const CHUNK: usize = 4096;
        let mut s = srv();
        s.input(&[codec::IAC, codec::SB, opt::TTYPE]).unwrap();
        let chunk = [b'x'; CHUNK];
        let mut errors = 0;
        for _ in 0..(1 << 20) / CHUNK {
            if s.input(&chunk).is_err() {
                errors += 1;
            }
        }
        assert_eq!(errors, 1, "the payload past the cap fails the session");
        assert!(s.is_closed());
        assert!(s.line.is_empty(), "no subnegotiation byte became data");
    }

    #[test]
    fn a_long_command_line_below_the_cap_still_runs() {
        let mut s = srv();
        s.input(b"root\r\nadmin\r\n").unwrap();
        let cmd = format!("echo {}", "a".repeat(MAX_LINE - 5));
        s.input(cmd.as_bytes()).unwrap();
        s.input(b"\r\n").unwrap();
        assert_eq!(s.exec_log(), [cmd.as_str()]);
        assert!(!s.is_closed());
    }

    #[test]
    fn iac_inside_credentials_is_handled() {
        let mut s = srv();
        s.take_output();
        // A password containing an escaped 0xFF byte.
        let mut input = b"root\r\n".to_vec();
        input.extend_from_slice(&[b'p', codec::IAC, codec::IAC, b'w', b'\r', b'\n']);
        s.input(&input).unwrap();
        assert_eq!(s.auth_log().len(), 1);
        assert_eq!(s.auth_log()[0].0, "root");
        assert!(s.auth_log()[0].1.contains('w'));
    }
}
