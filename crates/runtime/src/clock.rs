//! The single time source every runtime layer consumes.
//!
//! The node event loop, the TCP reactor and the in-process cluster all take
//! their notion of "now", their timer deadlines and their envelope waits
//! through the [`Clock`] trait instead of calling `Instant::now()` or
//! `recv_timeout` directly (the reactor's one wait is `poll(2)`, whose
//! timeout it computes from this clock's deadlines). Two implementations
//! exist:
//!
//! * [`WallClock`] — production: zero-cost `#[inline]` wrappers over
//!   [`Instant`] and [`Receiver::recv_timeout`], so the deployed hot path
//!   pays nothing for the indirection.
//! * [`VirtualClock`] — deterministic tests: a shared virtual counter that
//!   only moves when a scheduler advances it, which makes every deadline
//!   computation a pure function of scheduler decisions. This is what the
//!   [`DeterministicRuntime`](crate::DeterministicRuntime) drives to make
//!   the exact deployed node-loop code replayable from a seed.
//!
//! Time is expressed as a [`Duration`] since the runtime started (not an
//! absolute [`Instant`]): a relative origin is what the sans-IO
//! [`Node`](wbam_types::Node) API already speaks, and it gives the virtual
//! clock a trivial representation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError};

/// Why a [`Clock::recv_deadline`] wait ended without an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The deadline passed before anything arrived.
    Timeout,
    /// Nothing can ever arrive: every sender is gone (wall clock), or the
    /// mailbox is empty, no deadline was given and no other thread runs
    /// (virtual clock — see [`VirtualClock`]).
    Disconnected,
}

/// A source of relative time plus deadline-bounded channel waits.
///
/// `recv_deadline` is generic, so the trait is not object-safe; every
/// consumer in this crate is generic over `C: Clock`, which also lets the
/// wall-clock implementation inline to exactly the `Instant`/`recv_timeout`
/// code the runtime used before the abstraction existed.
pub trait Clock: Clone + Send + 'static {
    /// Time elapsed since the runtime started.
    fn now(&self) -> Duration;

    /// Waits for the next value on `rx`, bounded by an optional absolute
    /// `deadline` (in this clock's time). With `None`, waits until a value
    /// arrives or arrival becomes impossible.
    ///
    /// # Errors
    ///
    /// [`WaitError::Timeout`] once `deadline` is reached,
    /// [`WaitError::Disconnected`] when no value can ever arrive.
    fn recv_deadline<T>(
        &self,
        rx: &Receiver<T>,
        deadline: Option<Duration>,
    ) -> Result<T, WaitError>;
}

/// Production clock: thin wrappers over [`Instant::elapsed`] and
/// [`Receiver::recv_timeout`]. Copy-cheap; every thread of a runtime holds
/// its own copy sharing the same start instant.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    started: Instant,
}

impl WallClock {
    /// A clock starting now.
    pub fn new() -> Self {
        WallClock {
            started: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    #[inline]
    fn now(&self) -> Duration {
        self.started.elapsed()
    }

    #[inline]
    fn recv_deadline<T>(
        &self,
        rx: &Receiver<T>,
        deadline: Option<Duration>,
    ) -> Result<T, WaitError> {
        match deadline {
            Some(deadline) => {
                let wait = deadline.saturating_sub(self.now());
                rx.recv_timeout(wait).map_err(|e| match e {
                    RecvTimeoutError::Timeout => WaitError::Timeout,
                    RecvTimeoutError::Disconnected => WaitError::Disconnected,
                })
            }
            None => rx.recv().map_err(|_| WaitError::Disconnected),
        }
    }
}

/// Deterministic virtual clock: a shared nanosecond counter that only moves
/// when [`advance_to`](Self::advance_to) is called. Clones share the counter,
/// so a scheduler and the node loops it drives always agree on the time.
///
/// Its `recv_deadline` never blocks: an empty mailbox with a deadline
/// *advances the clock to the deadline* and reports [`WaitError::Timeout`]
/// (the caller's due timers then fire); an empty mailbox without a deadline
/// reports [`WaitError::Disconnected`], because in a single-threaded virtual
/// world nothing else runs to fill the mailbox — which cleanly terminates a
/// node loop that has nothing left to do.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Moves the clock forward to `to`. Never moves backward: an earlier
    /// value is ignored, keeping time monotonic no matter how a scheduler
    /// interleaves its advance decisions.
    pub fn advance_to(&self, to: Duration) {
        let to = to.as_nanos() as u64;
        self.nanos.fetch_max(to, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    #[inline]
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    fn recv_deadline<T>(
        &self,
        rx: &Receiver<T>,
        deadline: Option<Duration>,
    ) -> Result<T, WaitError> {
        match rx.try_recv() {
            Ok(v) => Ok(v),
            Err(_) => match deadline {
                Some(deadline) => {
                    self.advance_to(deadline);
                    Err(WaitError::Timeout)
                }
                None => Err(WaitError::Disconnected),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    #[test]
    fn wall_clock_waits_out_deadlines_and_delivers_values() {
        let clock = WallClock::new();
        let (tx, rx) = unbounded::<u32>();
        tx.send(7).unwrap();
        assert_eq!(clock.recv_deadline(&rx, None), Ok(7));
        let deadline = clock.now() + Duration::from_millis(20);
        assert_eq!(
            clock.recv_deadline(&rx, Some(deadline)),
            Err(WaitError::Timeout)
        );
        assert!(clock.now() >= deadline);
        drop(tx);
        assert_eq!(clock.recv_deadline(&rx, None), Err(WaitError::Disconnected));
    }

    #[test]
    fn virtual_clock_advances_instead_of_blocking() {
        let clock = VirtualClock::new();
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(clock.now(), Duration::ZERO);
        tx.send(1).unwrap();
        // A queued value is returned without moving time.
        assert_eq!(
            clock.recv_deadline(&rx, Some(Duration::from_secs(5))),
            Ok(1)
        );
        assert_eq!(clock.now(), Duration::ZERO);
        // An empty mailbox with a deadline jumps the clock to the deadline.
        assert_eq!(
            clock.recv_deadline(&rx, Some(Duration::from_secs(5))),
            Err(WaitError::Timeout)
        );
        assert_eq!(clock.now(), Duration::from_secs(5));
        // Time never moves backward.
        clock.advance_to(Duration::from_secs(1));
        assert_eq!(clock.now(), Duration::from_secs(5));
        // No deadline + empty mailbox = nothing can ever arrive.
        assert_eq!(clock.recv_deadline(&rx, None), Err(WaitError::Disconnected));
    }

    #[test]
    fn virtual_clock_clones_share_the_counter() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance_to(Duration::from_millis(250));
        assert_eq!(b.now(), Duration::from_millis(250));
    }
}
