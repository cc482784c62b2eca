//! IAC framing (RFC 854): separating Telnet commands from data bytes.

use crate::TelnetError;

/// Interpret As Command.
pub const IAC: u8 = 255;
/// Option negotiation verbs.
pub const WILL: u8 = 251;
/// See [`WILL`].
pub const WONT: u8 = 252;
/// See [`WILL`].
pub const DO: u8 = 253;
/// See [`WILL`].
pub const DONT: u8 = 254;
/// Subnegotiation begin/end.
pub const SB: u8 = 250;
/// See [`SB`].
pub const SE: u8 = 240;

/// Option codes the honeynet dialogue uses.
pub mod opt {
    /// RFC 857 — server echoes input.
    pub const ECHO: u8 = 1;
    /// RFC 858 — suppress go-ahead (character mode).
    pub const SGA: u8 = 3;
    /// RFC 1091 — terminal type.
    pub const TTYPE: u8 = 24;
    /// RFC 1073 — window size.
    pub const NAWS: u8 = 31;
}

/// A parsed unit of the Telnet stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Plain data bytes (IAC-unescaped).
    Data(Vec<u8>),
    /// `IAC WILL/WONT/DO/DONT <option>`.
    Negotiate {
        /// The verb (one of WILL/WONT/DO/DONT).
        verb: u8,
        /// The option code.
        option: u8,
    },
    /// `IAC SB <option> … IAC SE`.
    Subnegotiation {
        /// The option code.
        option: u8,
        /// Raw payload between SB and SE.
        payload: Vec<u8>,
    },
    /// Any other two-byte IAC command (NOP, AYT, …).
    Command(u8),
}

/// Longest subnegotiation payload accepted. The options this dialogue
/// meets carry a few bytes (NAWS: 4, TTYPE: a terminal name); a longer
/// one is an attack on the buffer, not a terminal.
pub const MAX_SUBNEGOTIATION: usize = 512;

/// Where [`TelnetCodec`] stopped in the byte stream: a command split
/// across reads resumes here, so no byte is scanned twice.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum State {
    #[default]
    Data,
    /// After `IAC`.
    Iac,
    /// After `IAC <verb>`.
    Verb(u8),
    /// After `IAC SB`.
    SbOption,
    /// Inside `IAC SB <option> …`.
    Sb(u8),
    /// After an `IAC` inside a subnegotiation.
    SbIac(u8),
}

/// Incremental IAC parser. Feed bytes, drain events.
#[derive(Debug, Default)]
pub struct TelnetCodec {
    buf: Vec<u8>,
    state: State,
    /// Payload of the subnegotiation in progress, at most
    /// [`MAX_SUBNEGOTIATION`] bytes.
    sb: Vec<u8>,
}

impl TelnetCodec {
    /// New, empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the wire.
    pub fn input(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Extracts as many complete events as possible. Data bytes are
    /// coalesced into one `Data` event per call segment. A partial
    /// command waits in the parser state for the next call; a
    /// subnegotiation longer than [`MAX_SUBNEGOTIATION`] is an error.
    pub fn drain(&mut self) -> Result<Vec<Event>, TelnetError> {
        let mut events = Vec::new();
        let mut data = Vec::new();
        let mut buf = std::mem::take(&mut self.buf);
        for &b in &buf {
            self.state = match (self.state, b) {
                (State::Data, IAC) => State::Iac,
                (State::Data, b) => {
                    data.push(b);
                    State::Data
                }
                (State::Iac, IAC) => {
                    // Escaped 255 data byte.
                    data.push(IAC);
                    State::Data
                }
                (State::Iac, WILL | WONT | DO | DONT) => State::Verb(b),
                (State::Iac, SB) => State::SbOption,
                (State::Iac, cmd) => {
                    flush_data(&mut events, &mut data);
                    events.push(Event::Command(cmd));
                    State::Data
                }
                (State::Verb(verb), option) => {
                    flush_data(&mut events, &mut data);
                    events.push(Event::Negotiate { verb, option });
                    State::Data
                }
                (State::SbOption, option) => State::Sb(option),
                (State::Sb(option), IAC) => State::SbIac(option),
                (State::Sb(option), b) | (State::SbIac(option), b @ IAC) => {
                    if self.sb.len() >= MAX_SUBNEGOTIATION {
                        return Err(TelnetError::Protocol(format!(
                            "subnegotiation exceeds {MAX_SUBNEGOTIATION} bytes"
                        )));
                    }
                    self.sb.push(b);
                    State::Sb(option)
                }
                (State::SbIac(option), SE) => {
                    flush_data(&mut events, &mut data);
                    events.push(Event::Subnegotiation {
                        option,
                        payload: std::mem::take(&mut self.sb),
                    });
                    State::Data
                }
                (State::SbIac(_), _) => {
                    return Err(TelnetError::Protocol(
                        "bad byte inside subnegotiation".into(),
                    ))
                }
            };
        }
        flush_data(&mut events, &mut data);
        buf.clear();
        self.buf = buf;
        Ok(events)
    }
}

fn flush_data(events: &mut Vec<Event>, data: &mut Vec<u8>) {
    if !data.is_empty() {
        events.push(Event::Data(std::mem::take(data)));
    }
}

/// Encodes data bytes for the wire, escaping 255.
pub fn escape_data(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for &b in data {
        out.push(b);
        if b == IAC {
            out.push(IAC);
        }
    }
    out
}

/// Encodes `IAC <verb> <option>`.
pub fn negotiate(verb: u8, option: u8) -> [u8; 3] {
    [IAC, verb, option]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_data_passes_through() {
        let mut c = TelnetCodec::new();
        c.input(b"root\r\n");
        assert_eq!(c.drain().unwrap(), vec![Event::Data(b"root\r\n".to_vec())]);
    }

    #[test]
    fn negotiation_parsing() {
        let mut c = TelnetCodec::new();
        c.input(&[IAC, WILL, opt::ECHO, b'h', b'i', IAC, DO, opt::SGA]);
        assert_eq!(
            c.drain().unwrap(),
            vec![
                Event::Negotiate {
                    verb: WILL,
                    option: opt::ECHO
                },
                Event::Data(b"hi".to_vec()),
                Event::Negotiate {
                    verb: DO,
                    option: opt::SGA
                },
            ]
        );
    }

    #[test]
    fn escaped_255_is_data() {
        let mut c = TelnetCodec::new();
        c.input(&[b'a', IAC, IAC, b'b']);
        assert_eq!(c.drain().unwrap(), vec![Event::Data(vec![b'a', 255, b'b'])]);
    }

    #[test]
    fn partial_iac_waits_for_more() {
        let mut c = TelnetCodec::new();
        c.input(&[b'x', IAC]);
        assert_eq!(c.drain().unwrap(), vec![Event::Data(b"x".to_vec())]);
        c.input(&[WILL]);
        assert_eq!(c.drain().unwrap(), vec![]);
        c.input(&[opt::ECHO]);
        assert_eq!(
            c.drain().unwrap(),
            vec![Event::Negotiate {
                verb: WILL,
                option: opt::ECHO
            }]
        );
    }

    #[test]
    fn subnegotiation_roundtrip() {
        let mut c = TelnetCodec::new();
        c.input(&[IAC, SB, opt::TTYPE, 0, b'x', b't', IAC, SE, b'!']);
        assert_eq!(
            c.drain().unwrap(),
            vec![
                Event::Subnegotiation {
                    option: opt::TTYPE,
                    payload: vec![0, b'x', b't']
                },
                Event::Data(b"!".to_vec()),
            ]
        );
    }

    #[test]
    fn unterminated_subnegotiation_is_buffered() {
        let mut c = TelnetCodec::new();
        c.input(&[IAC, SB, opt::NAWS, 0, 80]);
        assert_eq!(c.drain().unwrap(), vec![]);
        c.input(&[0, 24, IAC, SE]);
        assert_eq!(
            c.drain().unwrap(),
            vec![Event::Subnegotiation {
                option: opt::NAWS,
                payload: vec![0, 80, 0, 24]
            }]
        );
    }

    #[test]
    fn subnegotiation_split_byte_by_byte_resumes() {
        let mut c = TelnetCodec::new();
        let mut events = Vec::new();
        for &b in &[IAC, SB, opt::TTYPE, 0, b'v', IAC, IAC, b't', IAC, SE] {
            c.input(&[b]);
            events.extend(c.drain().unwrap());
        }
        assert_eq!(
            events,
            vec![Event::Subnegotiation {
                option: opt::TTYPE,
                payload: vec![0, b'v', IAC, b't']
            }]
        );
    }

    #[test]
    fn unterminated_subnegotiation_flood_is_bounded_and_fails() {
        const CHUNK: usize = 4096;
        let mut c = TelnetCodec::new();
        c.input(&[IAC, SB, opt::TTYPE]);
        assert_eq!(c.drain().unwrap(), vec![]);
        let chunk = [b'x'; CHUNK];
        let mut errors = 0;
        for _ in 0..(1 << 20) / CHUNK {
            c.input(&chunk);
            if c.drain().is_err() {
                errors += 1;
                break;
            }
            assert!(c.buf.is_empty(), "drain consumes every byte it is fed");
            assert!(c.sb.len() <= MAX_SUBNEGOTIATION);
        }
        assert_eq!(errors, 1, "the payload past the cap fails the stream");
        assert!(c.sb.len() <= MAX_SUBNEGOTIATION);
    }

    #[test]
    fn bare_command() {
        let mut c = TelnetCodec::new();
        c.input(&[IAC, 241]); // NOP
        assert_eq!(c.drain().unwrap(), vec![Event::Command(241)]);
    }

    #[test]
    fn escape_data_roundtrips() {
        let data = vec![1u8, 255, 2, 255, 255, 3];
        let mut c = TelnetCodec::new();
        c.input(&escape_data(&data));
        assert_eq!(c.drain().unwrap(), vec![Event::Data(data)]);
    }
}
