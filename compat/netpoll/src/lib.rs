//! Minimal readiness-notification shim over `poll(2)` plus a self-pipe wake
//! fd and POSIX signal helpers, declared directly against the C library — no
//! `libc`/`mio`/`signal-hook` crates, in keeping with the workspace's
//! hermetic `compat/` policy (see README.md).
//!
//! The poll half exists for exactly one consumer: the reactor thread of a
//! `wbam-runtime` `TcpNode`. The reactor multiplexes its listener, every peer
//! socket and a [`WakePipe`] through [`poll`], so inbound bytes wake it the
//! instant the kernel marks a socket readable, the node's next timer deadline
//! rides on the `poll` timeout, and another thread (a `submit`, a finished
//! dial) wakes it explicitly with one byte down the pipe.
//!
//! The signal half ([`send_signal`], [`Signal`], [`termination_flag`]) exists
//! for the deployed fault-injection harness in `wbam-harness`: its `explore`
//! driver pauses and resumes live `wbamd` processes with SIGSTOP/SIGCONT, and
//! `wbamd` itself installs a SIGTERM flag so an orchestrator's terminate
//! request drains the delivery log instead of killing the process mid-write.
//! Both consumers keep their `#![forbid(unsafe_code)]` because the raw
//! `kill(2)`/`signal(2)` calls live here.
//!
//! Everything here is `cfg(unix)`: `poll(2)`, `pipe(2)` and `fcntl(2)` are
//! POSIX, and the handful of constants baked in below are identical across
//! the Unixes this workspace builds on (Linux values, with the Darwin/BSD
//! `O_NONBLOCK` difference handled explicitly). On non-Unix targets the
//! crate compiles to nothing, and `wbam-runtime` refuses to build.
//!
//! The API is safe: all `unsafe` is contained in this crate, behind
//! bounds-checked wrappers, so consumers keep their `#![forbid(unsafe_code)]`.
//!
//! # Example
//!
//! ```
//! # #[cfg(unix)] {
//! use std::time::Duration;
//! use netpoll::{poll, PollFd, WakePipe, POLLIN};
//!
//! let wake = WakePipe::new().unwrap();
//! // Nothing pending: poll times out.
//! let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
//! assert_eq!(poll(&mut fds, Some(Duration::from_millis(1))).unwrap(), 0);
//! // A wake from (any) thread makes the pipe readable instantly.
//! wake.wake();
//! let n = poll(&mut fds, None).unwrap();
//! assert_eq!(n, 1);
//! assert!(fds[0].readable());
//! wake.drain();
//! # }
//! ```

#![warn(missing_docs)]

#[cfg(unix)]
mod unix {
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// Readable data available (request and result flag).
    pub const POLLIN: i16 = 0x001;
    /// Writing is possible without blocking (request and result flag).
    pub const POLLOUT: i16 = 0x004;
    /// Error condition (result only; always reported, never requested).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (result only).
    pub const POLLHUP: i16 = 0x010;
    /// The fd is not open (result only — a bookkeeping bug in the caller).
    pub const POLLNVAL: i16 = 0x020;

    // `nfds_t` is `unsigned long` on Linux and `unsigned int` on the BSDs
    // and Darwin.
    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;

    const F_SETFD: i32 = 2;
    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    const FD_CLOEXEC: i32 = 1;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: i32 = 0x800;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: i32 = 0x4;

    // Wrapped in a module so the raw declarations don't collide with the
    // safe wrappers of the same names.
    mod c {
        extern "C" {
            pub fn poll(fds: *mut super::PollFd, nfds: super::NfdsT, timeout: i32) -> i32;
            pub fn pipe(fds: *mut i32) -> i32;
            pub fn fcntl(fd: i32, cmd: i32, ...) -> i32;
            pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
            pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
            pub fn close(fd: i32) -> i32;
            pub fn kill(pid: i32, sig: i32) -> i32;
            pub fn signal(signum: i32, handler: usize) -> usize;
        }
    }

    /// One entry of a [`poll`](crate::poll) set; layout-compatible with the C
    /// library's `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        /// An entry watching `fd` for `events` (a bitwise-or of [`POLLIN`]
        /// and [`POLLOUT`]; error conditions are always reported and need
        /// not be requested — `events = 0` watches for errors alone).
        pub fn new(fd: RawFd, events: i16) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        /// The watched fd.
        pub fn fd(&self) -> RawFd {
            self.fd
        }

        /// Readable — or in an error/hangup state a read would surface.
        pub fn readable(&self) -> bool {
            self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
        }

        /// Writable — or in an error/hangup state a write would surface.
        pub fn writable(&self) -> bool {
            self.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0
        }

        /// In an error, hangup or invalid-fd state.
        pub fn has_error(&self) -> bool {
            self.revents & (POLLERR | POLLHUP | POLLNVAL) != 0
        }
    }

    /// Converts a timeout to `poll(2)` milliseconds: `None` blocks
    /// indefinitely, and every other wait rounds *up* to the next whole
    /// millisecond. A caller sleeping until a deadline therefore never wakes
    /// before it (a floored 1.9 ms would wake at 1 ms, find nothing due and
    /// poll again) and a non-zero wait is never a busy-spinning zero; the
    /// price is waking up to 1 ms late.
    pub(crate) fn timeout_ms(timeout: Option<Duration>) -> i32 {
        match timeout {
            None => -1,
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        }
    }

    /// Blocks until at least one entry is ready or the timeout expires.
    /// Returns the number of entries with non-zero `revents` (0 on timeout).
    /// A signal interrupting the wait reports as a timeout (`Ok(0)`) — the
    /// caller's loop re-evaluates and re-polls.
    ///
    /// # Errors
    ///
    /// Any `poll(2)` failure other than `EINTR`, as [`io::Error`].
    pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `repr(C)`-compatible entries and `len()` is its true length.
        let rc = unsafe { c::poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms(timeout)) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            Ok(0)
        } else {
            Err(err)
        }
    }

    /// A self-pipe: any thread calls [`wake`](Self::wake) to make the read
    /// end readable, unparking a thread blocked in [`poll`]. Both ends are
    /// nonblocking — a wake while the pipe is full is a no-op, which is
    /// exactly right: the reader is already guaranteed to wake and drain.
    #[derive(Debug)]
    pub struct WakePipe {
        read_fd: RawFd,
        write_fd: RawFd,
    }

    // SAFETY: the fields are plain fds; `wake`/`drain` issue independent
    // syscalls that the kernel serialises (single-byte pipe writes are
    // atomic), and the fds are only closed in `Drop`, which takes `&mut`.
    unsafe impl Send for WakePipe {}
    unsafe impl Sync for WakePipe {}

    impl WakePipe {
        /// Creates the pipe, with both ends nonblocking and close-on-exec.
        ///
        /// # Errors
        ///
        /// `pipe(2)`/`fcntl(2)` failures, as [`io::Error`].
        pub fn new() -> io::Result<WakePipe> {
            let mut fds = [0i32; 2];
            // SAFETY: `fds` is a valid 2-element array, as pipe(2) requires.
            if unsafe { c::pipe(fds.as_mut_ptr()) } != 0 {
                return Err(io::Error::last_os_error());
            }
            let pipe = WakePipe {
                read_fd: fds[0],
                write_fd: fds[1],
            };
            for fd in fds {
                // SAFETY: `fd` is a freshly created, owned pipe fd; F_GETFL
                // takes no third argument, F_SETFL/F_SETFD take an int.
                let rc = unsafe {
                    let flags = c::fcntl(fd, F_GETFL);
                    if flags < 0 || c::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
                        -1
                    } else {
                        c::fcntl(fd, F_SETFD, FD_CLOEXEC)
                    }
                };
                if rc < 0 {
                    return Err(io::Error::last_os_error()); // Drop closes both ends
                }
            }
            Ok(pipe)
        }

        /// The fd to include (with [`POLLIN`]) in a poll set.
        pub fn read_fd(&self) -> RawFd {
            self.read_fd
        }

        /// Makes the read end readable. Never blocks: a full pipe means the
        /// reader already has a pending wake, so the dropped byte is free.
        pub fn wake(&self) {
            // SAFETY: `write_fd` is owned and open for the lifetime of
            // `&self`; the 1-byte buffer is valid.
            unsafe {
                let _ = c::write(self.write_fd, [1u8].as_ptr(), 1);
            }
        }

        /// Empties the read end, consuming every pending wake. Call it when
        /// [`poll`] reports the read end readable, before looking at the work
        /// the wakes announced. A short read means the pipe is empty, so the
        /// usual handful of pending bytes costs one `read`, not a second one
        /// that only returns `EAGAIN`.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                // SAFETY: `read_fd` is owned and open; the buffer is valid
                // for its full length.
                let n = unsafe { c::read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
                if n < buf.len() as isize {
                    return; // drained, empty (EAGAIN), EOF or a transient error
                }
            }
        }
    }

    impl Drop for WakePipe {
        fn drop(&mut self) {
            // SAFETY: both fds are owned by `self` and closed exactly once.
            unsafe {
                let _ = c::close(self.read_fd);
                let _ = c::close(self.write_fd);
            }
        }
    }

    /// The signals the fault-injection harness sends to live processes.
    ///
    /// Numbers are the POSIX/Linux values; `Stop`/`Cont` differ between
    /// Linux and the BSDs/Darwin, handled per-target below.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Signal {
        /// Graceful termination request (`SIGTERM`) — catchable; `wbamd`
        /// drains its delivery log on it.
        Term,
        /// Immediate kill (`SIGKILL`) — uncatchable crash injection.
        Kill,
        /// Suspend the process (`SIGSTOP`) — uncatchable pause injection.
        Stop,
        /// Resume a stopped process (`SIGCONT`).
        Cont,
    }

    impl Signal {
        fn number(self) -> i32 {
            match self {
                Signal::Term => 15,
                Signal::Kill => 9,
                #[cfg(target_os = "linux")]
                Signal::Stop => 19,
                #[cfg(not(target_os = "linux"))]
                Signal::Stop => 17,
                #[cfg(target_os = "linux")]
                Signal::Cont => 18,
                #[cfg(not(target_os = "linux"))]
                Signal::Cont => 19,
            }
        }
    }

    /// Sends `sig` to the process with id `pid` via `kill(2)`.
    ///
    /// Takes the `u32` process id that `std::process::Child::id` returns and
    /// rejects ids that do not name a single positive process (0 and
    /// anything that would go negative as a C `pid_t` address process
    /// *groups*, which the harness must never signal by accident).
    ///
    /// # Errors
    ///
    /// `kill(2)` failures — most usefully `ESRCH` ([`io::ErrorKind::NotFound`]
    /// on Linux maps to "No such process") when the target already exited —
    /// or [`io::ErrorKind::InvalidInput`] for a group-addressing pid.
    pub fn send_signal(pid: u32, sig: Signal) -> io::Result<()> {
        let pid = i32::try_from(pid)
            .ok()
            .filter(|p| *p > 0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "pid must be positive"))?;
        // SAFETY: plain syscall on validated scalar arguments.
        if unsafe { c::kill(pid, sig.number()) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Set to `true` by the handler [`termination_flag`] installs.
    static TERM_FLAG: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    /// The `SIGTERM` handler: only an atomic store, which is async-signal-safe.
    extern "C" fn term_handler(_signum: i32) {
        TERM_FLAG.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Installs a `SIGTERM` handler that records the signal in an atomic
    /// flag, and returns the flag. Idempotent — repeat calls reinstall the
    /// same handler and return the same flag. The caller polls the flag from
    /// its main loop and shuts down cleanly; nothing else happens at signal
    /// time.
    ///
    /// # Errors
    ///
    /// `signal(2)` failure (`SIG_ERR`), as [`io::Error`].
    pub fn termination_flag() -> io::Result<&'static std::sync::atomic::AtomicBool> {
        const SIG_ERR: usize = usize::MAX;
        // SAFETY: installing a handler that performs only an atomic store;
        // `signal(2)` itself has no memory-safety preconditions.
        let handler = term_handler as extern "C" fn(i32) as *const () as usize;
        let prev = unsafe { c::signal(Signal::Term.number(), handler) };
        if prev == SIG_ERR {
            Err(io::Error::last_os_error())
        } else {
            Ok(&TERM_FLAG)
        }
    }
}

#[cfg(unix)]
pub use unix::{
    poll, send_signal, termination_flag, PollFd, Signal, WakePipe, POLLERR, POLLHUP, POLLIN,
    POLLNVAL, POLLOUT,
};

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::time::{Duration, Instant};

    /// A wait rounds up to whole milliseconds: never shorter than asked (so
    /// a sleeper does not wake before its deadline), zero only for zero.
    #[test]
    fn timeouts_round_up_to_the_next_millisecond() {
        let ms = |d| unix::timeout_ms(Some(d));
        assert_eq!(unix::timeout_ms(None), -1);
        assert_eq!(ms(Duration::ZERO), 0);
        assert_eq!(ms(Duration::from_nanos(1)), 1);
        assert_eq!(ms(Duration::from_micros(999)), 1);
        assert_eq!(ms(Duration::from_millis(1)), 1);
        assert_eq!(ms(Duration::from_micros(1_900)), 2);
        assert_eq!(ms(Duration::MAX), i32::MAX);
    }

    #[test]
    fn poll_times_out_when_nothing_is_ready() {
        let wake = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
        let begin = Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].readable());
        assert!(begin.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn wake_makes_the_pipe_readable_and_drain_clears_it() {
        let wake = WakePipe::new().unwrap();
        wake.wake();
        wake.wake(); // coalesced: any number of wakes is one readable state
        let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(fds[0].readable());
        wake.drain();
        let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(1))).unwrap(), 0);
    }

    #[test]
    fn wake_from_another_thread_unparks_a_blocked_poll() {
        let wake = std::sync::Arc::new(WakePipe::new().unwrap());
        let waker = std::sync::Arc::clone(&wake);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
        let begin = Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(10))).unwrap(), 1);
        // Unparked by the wake, not the 10 s timeout.
        assert!(begin.elapsed() < Duration::from_secs(5));
        t.join().unwrap();
    }

    #[test]
    fn a_full_pipe_never_blocks_the_waker() {
        let wake = WakePipe::new().unwrap();
        // Far beyond any pipe's capacity; every call must return promptly.
        for _ in 0..200_000 {
            wake.wake();
        }
        wake.drain();
        let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(1))).unwrap(), 0);
    }

    #[test]
    fn socket_readiness_reports_through_poll() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        use std::os::unix::io::AsRawFd;

        // Nothing to read yet.
        let mut fds = [PollFd::new(served.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(1))).unwrap(), 0);

        // Bytes in flight flip POLLIN...
        client.write_all(b"ping").unwrap();
        let mut fds = [PollFd::new(served.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(fds[0].readable());
        let mut buf = [0u8; 4];
        served.read_exact(&mut buf).unwrap();

        // ...and an idle socket is immediately writable.
        let mut fds = [PollFd::new(served.as_raw_fd(), POLLOUT)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(fds[0].writable());

        // A hung-up peer reports even with no requested events.
        drop(client);
        let mut fds = [PollFd::new(served.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(fds[0].readable());
    }

    #[test]
    fn send_signal_rejects_group_addressing_pids() {
        assert_eq!(
            send_signal(0, Signal::Kill).unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
        assert_eq!(
            send_signal(u32::MAX, Signal::Kill).unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn stop_cont_kill_drive_a_real_child_process() {
        // `sleep 30` as a guinea pig: STOP must not terminate it, CONT must
        // leave it running, KILL must end it with the SIGKILL status.
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .unwrap();
        let pid = child.id();
        send_signal(pid, Signal::Stop).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(child.try_wait().unwrap().is_none(), "STOP must not reap");
        send_signal(pid, Signal::Cont).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            child.try_wait().unwrap().is_none(),
            "CONT resumes, not exits"
        );
        send_signal(pid, Signal::Kill).unwrap();
        let status = child.wait().unwrap();
        assert!(!status.success());
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(status.signal(), Some(9));
    }

    #[test]
    fn termination_flag_is_set_by_a_real_sigterm() {
        let flag = termination_flag().unwrap();
        assert!(!flag.load(std::sync::atomic::Ordering::Relaxed));
        send_signal(std::process::id(), Signal::Term).unwrap();
        let begin = Instant::now();
        while !flag.load(std::sync::atomic::Ordering::Relaxed) {
            assert!(begin.elapsed() < Duration::from_secs(5), "flag never set");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
