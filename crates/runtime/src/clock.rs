//! The single time source every runtime layer consumes.
//!
//! The node event loop, the TCP reactor and the in-process cluster all take
//! their notion of "now" and their timer deadlines through the [`Clock`]
//! trait instead of calling `Instant::now()` directly. The drivers that
//! block turn the loop's next deadline into their own wait's timeout: the
//! reactor's `poll(2)`, an in-process node thread's `recv_timeout`. Two
//! implementations exist:
//!
//! * [`WallClock`] — production: a zero-cost `#[inline]` wrapper over
//!   [`Instant`], so the deployed hot path pays nothing for the indirection.
//! * [`VirtualClock`] — deterministic tests: a shared virtual counter that
//!   only moves when a scheduler advances it, which makes every deadline
//!   computation a pure function of scheduler decisions. This is what the
//!   [`DeterministicRuntime`](crate::DeterministicRuntime) drives to make
//!   the exact deployed node-loop code replayable from a seed; nothing
//!   waits under it, because the scheduler itself jumps time to the next
//!   deadline.
//!
//! Time is expressed as a [`Duration`] since the runtime started (not an
//! absolute [`Instant`]): a relative origin is what the sans-IO
//! [`Node`](wbam_types::Node) API already speaks, and it gives the virtual
//! clock a trivial representation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of relative time.
///
/// Every consumer in this crate is generic over `C: Clock`, so the
/// wall-clock implementation inlines to exactly the `Instant` read the
/// runtime made before the abstraction existed.
pub trait Clock: Clone + Send + 'static {
    /// Time elapsed since the runtime started.
    fn now(&self) -> Duration;
}

/// Production clock: a thin wrapper over [`Instant::elapsed`]. Copy-cheap;
/// every thread of a runtime holds its own copy sharing the same start
/// instant.
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
}

/// Deterministic virtual clock: a shared nanosecond counter that only moves
/// when [`advance_to`](Self::advance_to) is called. Clones share the counter,
/// so a scheduler and the node loops it drives always agree on the time.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_clones_share_the_counter() {
        let a = VirtualClock::new();
        let b = a.clone();
        assert_eq!(b.now(), Duration::ZERO);
        a.advance_to(Duration::from_millis(250));
        assert_eq!(b.now(), Duration::from_millis(250));
        // Time never moves backward.
        b.advance_to(Duration::from_millis(100));
        assert_eq!(a.now(), Duration::from_millis(250));
    }
}
