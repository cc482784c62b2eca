//! Readiness-driven reactor primitives: a dependency-free poller
//! (epoll on Linux, poll(2) on other unixes) and a coarse timer wheel.
//!
//! Like [`crate::signal`], the OS surface is a tiny hand-declared FFI
//! shim — no libc crate, no mio. Everything here is allocation-light on
//! the hot path: `epoll_wait` returns only ready fds, and timers
//! amortize to O(1) per tick via hashed wheel slots.

use std::time::{Duration, Instant};

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or hung up / errored).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read+write interest — armed while output is queued.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`]. Error/hangup conditions
/// are folded into `readable`: the next pump discovers the EOF or the
/// socket error itself, which is the same path a clean close takes.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable, hung up, or errored.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

// ---------------------------------------------------------------------------
// Linux: epoll via raw FFI (mirroring the `serve::signal` shim).
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;

    const EPOLL_CLOEXEC: i32 = 0o200_0000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLEXCLUSIVE: u32 = 1 << 28;

    /// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel
    /// ABI really is unaligned there), naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// An epoll instance. Registration is O(1) in the kernel; `wait`
    /// returns only ready fds, so an idle shard costs nothing per
    /// connection.
    pub struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask(interest), token)
        }

        /// Registers a listening socket that several pollers watch, for
        /// read interest only. `EPOLLEXCLUSIVE` makes a connect wake one
        /// waiting poller rather than every one of them.
        pub fn register_shared(&mut self, fd: i32, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLEXCLUSIVE, token)
        }

        pub fn reregister(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask(interest), token)
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&mut self, timeout: super::Duration, out: &mut Vec<Event>) -> io::Result<()> {
            out.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n =
                unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                });
            }
            if n as usize == self.buf.len() {
                // Saturated the event buffer: grow so a burst does not
                // take multiple wait calls to observe.
                let len = self.buf.len() * 2;
                self.buf.resize(len, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Other unixes: poll(2). O(n) per wait, but still readiness-driven —
// no per-connection naps, and the same Poller surface.
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Pollfd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut Pollfd, nfds: u32, timeout: i32) -> i32;
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.readable {
            m |= POLLIN;
        }
        if interest.writable {
            m |= POLLOUT;
        }
        m
    }

    pub struct Poller {
        fds: Vec<Pollfd>,
        tokens: Vec<u64>,
        index: HashMap<i32, usize>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
                index: HashMap::new(),
            })
        }

        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            if self.index.contains_key(&fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd registered",
                ));
            }
            self.index.insert(fd, self.fds.len());
            self.fds.push(Pollfd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        /// poll(2) has no exclusive wakeup: every poller watching the
        /// listener wakes, and the losers' accepts return `WouldBlock`.
        pub fn register_shared(&mut self, fd: i32, token: u64) -> io::Result<()> {
            self.register(fd, token, Interest::READ)
        }

        pub fn reregister(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let &i = self
                .index
                .get(&fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[i].events = mask(interest);
            self.tokens[i] = token;
            Ok(())
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            let i = self
                .index
                .remove(&fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            if i < self.fds.len() {
                self.index.insert(self.fds[i].fd, i);
            }
            Ok(())
        }

        pub fn wait(&mut self, timeout: super::Duration, out: &mut Vec<Event>) -> io::Result<()> {
            out.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u32, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
                let bits = pfd.revents;
                if bits == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: bits & POLLOUT != 0,
                });
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Non-unix: no readiness API without a dependency. Constructing a
// Poller reports Unsupported, so the server refuses to start and
// barrage reports the platform as unsupported.
// ---------------------------------------------------------------------------

#[cfg(not(unix))]
mod sys {
    use super::{Event, Interest};
    use std::io;

    pub struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no readiness API on this platform",
            ))
        }

        pub fn register(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }

        pub fn register_shared(&mut self, _fd: i32, _token: u64) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }

        pub fn reregister(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }

        pub fn deregister(&mut self, _fd: i32) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }

        pub fn wait(&mut self, _timeout: super::Duration, _out: &mut Vec<Event>) -> io::Result<()> {
            unreachable!("Poller::new never succeeds off unix")
        }
    }
}

pub use sys::Poller;

/// Whether this build has a real readiness backend.
pub fn poller_supported() -> bool {
    cfg!(unix)
}

/// The fd a socket registers under.
#[cfg(unix)]
pub(crate) fn raw_fd(socket: &impl std::os::unix::io::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

/// Off unix no [`Poller`] can be built, so no fd is ever registered.
#[cfg(not(unix))]
pub(crate) fn raw_fd<T>(_socket: &T) -> i32 {
    -1
}

// ---------------------------------------------------------------------------
// Timer wheel: hashed wheel with coarse ticks. Entries carry their real
// deadline, so a slot hit only *checks* expiry — wrapped entries are
// re-inserted. Stale entries die via per-token generations.
// ---------------------------------------------------------------------------

/// Coarse hashed timer wheel. `fire` returns `(token, generation)`
/// pairs whose deadline has passed; the caller validates the generation
/// against its live table, so cancelling is free (just bump the
/// generation when the connection finishes).
pub struct TimerWheel {
    slots: Vec<Vec<WheelEntry>>,
    tick: Duration,
    /// Absolute tick index of the cursor slot.
    cursor: u64,
    origin: Instant,
    scratch: Vec<WheelEntry>,
}

#[derive(Clone, Copy)]
struct WheelEntry {
    token: u64,
    generation: u64,
    deadline: Instant,
}

impl TimerWheel {
    /// A wheel of `slots` buckets of `tick` width. With 256 × 250ms the
    /// horizon is 64s; longer deadlines just re-insert on wrap.
    pub fn new(slots: usize, tick: Duration, now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..slots.max(2)).map(|_| Vec::new()).collect(),
            tick,
            cursor: 0,
            origin: now,
            scratch: Vec::new(),
        }
    }

    fn slot_for(&self, deadline: Instant) -> usize {
        let ticks_from_origin = deadline
            .saturating_duration_since(self.origin)
            .as_nanos()
            .checked_div(self.tick.as_nanos())
            .unwrap_or(0) as u64;
        // Never the cursor slot itself: at least one tick out, at most
        // a full revolution ahead (wrapped entries re-insert on check).
        let ahead = ticks_from_origin
            .saturating_sub(self.cursor)
            .clamp(1, self.slots.len() as u64 - 1);
        ((self.cursor + ahead) % self.slots.len() as u64) as usize
    }

    /// Schedules `(token, generation)` to fire at `deadline`.
    pub fn insert(&mut self, token: u64, generation: u64, deadline: Instant) {
        let slot = self.slot_for(deadline);
        self.slots[slot].push(WheelEntry {
            token,
            generation,
            deadline,
        });
    }

    /// Advances the wheel to `now`, appending expired `(token,
    /// generation)` pairs to `expired`.
    pub fn advance(&mut self, now: Instant, expired: &mut Vec<(u64, u64)>) {
        let target = now
            .saturating_duration_since(self.origin)
            .as_nanos()
            .checked_div(self.tick.as_nanos())
            .unwrap_or(0) as u64;
        while self.cursor < target {
            self.cursor += 1;
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            self.scratch.clear();
            self.scratch.append(&mut self.slots[slot]);
            for entry in std::mem::take(&mut self.scratch) {
                if entry.deadline <= now {
                    expired.push((entry.token, entry.generation));
                } else {
                    // Wrapped: this revolution was too early. Re-hash.
                    let slot = self.slot_for(entry.deadline);
                    self.slots[slot].push(entry);
                }
            }
        }
    }
}

/// Interest for a connection: always readable, writable only while
/// output is queued (level-triggered, so writable interest on an idle
/// socket would busy-spin the poller).
pub fn conn_interest(wants_write: bool) -> Interest {
    if wants_write {
        Interest::READ_WRITE
    } else {
        Interest::READ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_wheel_fires_at_deadline_not_before() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(16, Duration::from_millis(10), t0);
        wheel.insert(1, 0, t0 + Duration::from_millis(25));
        wheel.insert(2, 0, t0 + Duration::from_millis(500)); // wraps (>160ms horizon)
        let mut expired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(10), &mut expired);
        assert!(expired.is_empty(), "nothing due at 10ms");
        wheel.advance(t0 + Duration::from_millis(40), &mut expired);
        assert_eq!(expired, vec![(1, 0)]);
        expired.clear();
        wheel.advance(t0 + Duration::from_millis(520), &mut expired);
        assert_eq!(expired, vec![(2, 0)], "wrapped entry fires after re-hash");
    }

    #[cfg(unix)]
    #[test]
    fn poller_reports_socket_readiness_and_interest_changes() {
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let fd = server.as_raw_fd();

        let mut poller = Poller::new().unwrap();
        poller.register(fd, 7, Interest::READ).unwrap();
        let mut events = Vec::new();

        // Quiet socket: no events.
        poller.wait(Duration::from_millis(20), &mut events).unwrap();
        assert!(events.is_empty());

        // Peer writes: readable fires.
        client.write_all(b"hello").unwrap();
        client.flush().unwrap();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Arm write interest: an unblocked socket is instantly writable.
        poller.reregister(fd, 7, Interest::READ_WRITE).unwrap();
        poller.wait(Duration::from_secs(5), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(fd).unwrap();
        poller.wait(Duration::from_millis(20), &mut events).unwrap();
        assert!(events.is_empty(), "deregistered fd must not report");
    }

    #[cfg(unix)]
    #[test]
    fn shared_listener_reports_to_each_poller_until_accepted() {
        use std::os::unix::io::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let fd = listener.as_raw_fd();
        let mut a = Poller::new().unwrap();
        let mut b = Poller::new().unwrap();
        a.register_shared(fd, u64::MAX).unwrap();
        b.register_shared(fd, u64::MAX).unwrap();
        let mut events = Vec::new();
        a.wait(Duration::from_millis(20), &mut events).unwrap();
        assert!(events.is_empty(), "no connect yet");

        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // Level-triggered: a poller that looks while the connect is
        // pending sees it, whichever poller the kernel woke.
        a.wait(Duration::from_secs(5), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        b.wait(Duration::from_secs(5), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));

        listener.accept().expect("pending connect");
        for p in [&mut a, &mut b] {
            p.wait(Duration::from_millis(20), &mut events).unwrap();
            assert!(events.is_empty(), "an accepted connect must not re-fire");
        }
    }
}
