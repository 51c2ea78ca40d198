//! The sans-IO protocol node interface shared by the simulator and the runtime.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::action::Action;
use crate::event::Event;
use crate::ids::ProcessId;

/// Identifier of a timer armed by a node, scoped to that node.
///
/// Protocols choose their own timer-id conventions (for example "retry timer
/// for message *k*" or "heartbeat"); runtimes treat the identifier as opaque.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimerId(pub u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A hash map keyed by [`TimerId`], for a node's or a runtime's timer
/// bookkeeping that is read by key and never iterated.
///
/// A node picks its own timer ids (small integers, often consecutive), so
/// SipHash's resistance to chosen keys buys nothing here: the key is hashed
/// with one folded multiply ([`TimerIdHasher`]). Since nothing iterates the
/// map, its hasher cannot change what a node or a runtime does.
pub type TimerMap<V> = HashMap<TimerId, V, BuildHasherDefault<TimerIdHasher>>;

/// The hasher of a [`TimerMap`]: one multiply by a 64-bit odd constant,
/// folding the high half of the 128-bit product onto the low half.
#[derive(Debug, Default)]
pub struct TimerIdHasher(u64);

impl Hasher for TimerIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

/// A deterministic protocol state machine ("sans-IO" node).
///
/// A node consumes [`Event`]s and appends [`Action`]s to an outbox the
/// runtime owns ([`on_event_into`](Self::on_event_into)); it never performs
/// IO itself. This makes every protocol in the workspace runnable both under the
/// deterministic discrete-event simulator (`wbam-simnet`) and under the real
/// multi-threaded runtime (`wbam-runtime`), and makes protocol logic directly
/// property-testable.
///
/// Implementations must be deterministic: the output may depend only on the
/// sequence of events received so far (and the node's static configuration).
pub trait Node {
    /// The protocol's wire message type.
    type Msg;

    /// The identifier of the process this node plays.
    fn id(&self) -> ProcessId;

    /// Handles one input event, appending the actions to execute to `out`.
    ///
    /// This is the only method a runtime calls. Every engine keeps its
    /// outbox and reuses it round after round, so a handler that pushes
    /// into `out` costs no allocation of its own; a runtime may run several
    /// events into the same `out` before it executes any of the actions, so
    /// a handler must only ever append to it.
    ///
    /// `now` is the time elapsed since the node was started, as measured by the
    /// runtime; deterministic protocols use it only for arming timers and for
    /// instrumentation, never to branch on wall-clock values.
    ///
    /// Implement exactly one of `on_event_into` and [`on_event`](Self::on_event):
    /// each is provided in terms of the other, so a node that implements
    /// neither recurses forever. Protocols implement this one; the default
    /// extends `out` with what `on_event` returns, for a node that finds
    /// returning a vector more natural.
    fn on_event_into(
        &mut self,
        now: Duration,
        event: Event<Self::Msg>,
        out: &mut Vec<Action<Self::Msg>>,
    ) {
        out.extend(self.on_event(now, event));
    }

    /// Handles one input event, returning the actions to execute in a fresh
    /// vector: an adapter over [`on_event_into`](Self::on_event_into) for
    /// tests and tools that want a node's answer to one event on its own.
    /// Implement exactly one of the two (see `on_event_into`).
    fn on_event(&mut self, now: Duration, event: Event<Self::Msg>) -> Vec<Action<Self::Msg>> {
        let mut out = Vec::new();
        self.on_event_into(now, event, &mut out);
        out
    }

    /// Optional downcast hook: concrete node types may return `Some(self)` so
    /// that runtimes and test harnesses can inspect protocol state behind a
    /// `dyn Node` (the schedule explorer uses this to include per-replica
    /// state in failure reports). The default opts out.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// The fold a runtime with a wire applies to the messages one round
    /// sent to peer `to`, in sending order, before it frames them; it runs
    /// after the round, with the node's state as the round left it. The
    /// fold may only replace a message by a smaller form the receiver
    /// handles exactly as the original, because the node knows `to` holds
    /// what the smaller form leaves out (the white-box replica's `DELIVER`
    /// by reference). It never merges, drops or reorders messages: how
    /// messages share a frame is the transport's rule, not the node's.
    ///
    /// The default sends every message as it is; runtimes without a wire
    /// never call it.
    fn fold_sends(&self, to: ProcessId, msgs: &mut [Self::Msg]) {
        let _ = (to, msgs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy echo node used to exercise the trait plumbing.
    struct Echo {
        id: ProcessId,
        peer: ProcessId,
    }

    impl Node for Echo {
        type Msg = u64;

        fn id(&self) -> ProcessId {
            self.id
        }

        fn on_event(&mut self, _now: Duration, event: Event<u64>) -> Vec<Action<u64>> {
            match event {
                Event::Message { msg, .. } => vec![Action::send(self.peer, msg + 1)],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn trait_objects_work() {
        let mut node: Box<dyn Node<Msg = u64>> = Box::new(Echo {
            id: ProcessId(0),
            peer: ProcessId(1),
        });
        assert_eq!(node.id(), ProcessId(0));
        let out = node.on_event(Duration::ZERO, Event::message(ProcessId(1), 41));
        assert_eq!(out, vec![Action::send(ProcessId(1), 42)]);
        assert!(node.on_event(Duration::ZERO, Event::Init).is_empty());
    }

    #[test]
    fn timer_id_display() {
        assert_eq!(TimerId(3).to_string(), "t3");
    }
}
