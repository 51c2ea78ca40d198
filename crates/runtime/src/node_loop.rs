//! The node event loop, with no IO of its own.
//!
//! One sans-IO [`Node`](wbam_types::Node) runs in one event loop: the loop
//! fires due timers from the node's own timer heap, runs the node over the
//! envelopes (peer messages or control events) its driver hands it, and
//! executes the actions the node returns — deliveries into its
//! [`DeliverySink`], which the driver flushes once per step, and sends into
//! an outbox, which the driver takes after each step and routes. The loop
//! owns no mailbox and no transport. [`NodeLoop`] is that loop as an
//! explicit state machine with a stepping API, and it has three drivers,
//! each owning the mailbox and the routing of its nodes: the in-process
//! cluster gives every loop a thread that blocks on a channel; a
//! [`TcpNode`](crate::TcpNode)'s reactor thread steps it between `poll(2)`
//! calls, feeding it the frames it just decoded and framing its sends for
//! the peers; and the [`DeterministicRuntime`](crate::DeterministicRuntime)
//! steps it one scheduler decision at a time under a
//! [`VirtualClock`](crate::VirtualClock), over plain in-memory mailboxes.
//! A protocol therefore behaves identically under every deployment, and
//! every deployed-code interleaving is replayable.
//!
//! All time flows through the [`Clock`] abstraction: the loop never reads
//! `Instant::now()`, which is what makes the virtual-clock execution a pure
//! function of scheduler decisions.
//!
//! **Round time.** A batch of envelopes is one round, and the loop reads its
//! clock at most twice for it: once before the round's events, which gives
//! the `now` every event of the round sees, and once after the last of them
//! (on the first delivery or timer arm), which stamps every
//! [`RuntimeDelivery`] and is the base of every timer deadline the round
//! set. A delivery is therefore never stamped before the node produced it.
//! The node appends every event's actions to one outbox the loop keeps and
//! reuses, and the loop executes them in order once the round's events ran.

use std::collections::BinaryHeap;
use std::time::Duration;

use wbam_types::{Action, AppMessage, Event, Node, ProcessId, TimerId, TimerMap, WbamError};

use crate::clock::Clock;
use crate::{BoxedNode, DeliverySink, RuntimeDelivery};

/// A unit of input for a node loop: either a protocol message from a peer
/// or a control event injected by the embedding application. Drivers keep
/// their nodes' mailboxes of these.
pub(crate) enum Envelope<M> {
    /// A protocol message from another process.
    FromPeer {
        /// The sending process.
        from: ProcessId,
        /// The message.
        msg: M,
    },
    /// Submit an application message for multicast ([`Event::Multicast`]).
    Submit(AppMessage),
    /// Tell the node to start leader recovery ([`Event::BecomeLeader`]).
    BecomeLeader,
    /// Tell the node it restarted after a crash ([`Event::Restart`]): volatile
    /// context is gone, timers must be re-armed, the protocol rejoined.
    Restart,
    /// Stop the node loop: [`NodeLoop::process_batch`] ends the round here
    /// and [`NodeLoop::is_stopped`] turns true.
    Shutdown,
}

/// Upper bound on envelopes coalesced into one pass of the node loop: large
/// enough to amortize the per-pass costs (one delivery flush, one socket
/// flush) across a busy burst, small enough that due timers (checked between
/// passes) never wait long.
pub(crate) const MAX_ENVELOPE_BATCH: usize = 256;

/// A queued timer deadline. Ordered by the full `(deadline, id, generation)`
/// key so that equal-deadline timers pop in a deterministic order — `Ord`
/// used to compare only the deadline, which let `BinaryHeap` break ties by
/// internal layout and made replay runs diverge.
#[derive(PartialEq, Eq)]
struct PendingTimer {
    deadline: Duration,
    id: TimerId,
    generation: u64,
}

impl PendingTimer {
    fn key(&self) -> (Duration, TimerId, u64) {
        (self.deadline, self.id, self.generation)
    }
}

impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key()) // min-heap
    }
}

/// Liveness bookkeeping for one [`TimerId`]: the current generation (bumped
/// by every re-arm and cancel, so stale heap entries are recognized) and how
/// many heap entries still reference this id. The entry is removed as soon as
/// the last heap entry retires, so the map is bounded by the number of
/// *pending* timers — it no longer grows by one entry per timer id a
/// long-lived node ever used.
struct TimerGen {
    gen: u64,
    queued: u32,
}

/// The event loop of one node, factored as an explicit state machine its
/// driver steps: [`init`](Self::init), [`process_batch`](Self::process_batch),
/// [`fire_due_timers`](Self::fire_due_timers) and
/// [`apply_restart`](Self::apply_restart) run the node, and after each of
/// them the driver takes what it sent from [`drain_sends`](Self::drain_sends)
/// and waits (or schedules) up to [`next_deadline`](Self::next_deadline).
pub(crate) struct NodeLoop<M, C> {
    node: BoxedNode<M>,
    my_id: ProcessId,
    sink: Box<dyn DeliverySink>,
    /// Deliveries handed to `sink` since the loop was created.
    delivered: u64,
    clock: C,
    timers: BinaryHeap<PendingTimer>,
    generations: TimerMap<TimerGen>,
    stopped: bool,
    /// The node's outbox, empty between rounds and reused by every round.
    out: Vec<Action<M>>,
    /// What the node sent since its driver last drained it, in action order.
    sends: Vec<(ProcessId, M)>,
}

impl<M, C: Clock> NodeLoop<M, C> {
    pub(crate) fn new(node: BoxedNode<M>, sink: Box<dyn DeliverySink>, clock: C) -> Self {
        let my_id = node.id();
        NodeLoop {
            node,
            my_id,
            sink,
            delivered: 0,
            clock,
            timers: BinaryHeap::new(),
            generations: TimerMap::default(),
            stopped: false,
            out: Vec::new(),
            sends: Vec::new(),
        }
    }

    /// Delivers [`Event::Init`] to the node. Must be called exactly once,
    /// before any other stepping.
    pub(crate) fn init(&mut self) {
        self.handle_one(Event::Init);
    }

    /// Runs the node over one event outside the mailbox (`Init`, a direct
    /// `Restart`) as a round of its own.
    fn handle_one(&mut self, event: Event<M>) {
        let now = self.clock.now();
        let mut out = std::mem::take(&mut self.out);
        self.node.on_event_into(now, event, &mut out);
        self.execute(out.drain(..));
        self.out = out;
    }

    /// Executes one round's node actions: sends go to the send outbox and
    /// deliveries to the sink, each in order. The clock is read once, at the
    /// first delivery or timer arm, and that reading stamps every delivery
    /// and is the base of every deadline. Nothing is flushed here; see
    /// [`flush_deliveries`](Self::flush_deliveries).
    fn execute(&mut self, actions: impl IntoIterator<Item = Action<M>>) {
        let mut at = None;
        for action in actions {
            match action {
                Action::Send { to, msg } => self.sends.push((to, msg)),
                Action::Deliver(delivery) => {
                    self.delivered += 1;
                    let elapsed = *at.get_or_insert_with(|| self.clock.now());
                    self.sink.deliver(RuntimeDelivery {
                        process: self.my_id,
                        delivery,
                        elapsed,
                    });
                }
                Action::SetTimer { id, delay } => {
                    let entry = self
                        .generations
                        .entry(id)
                        .or_insert(TimerGen { gen: 0, queued: 0 });
                    entry.gen += 1;
                    entry.queued += 1;
                    let generation = entry.gen;
                    let base = *at.get_or_insert_with(|| self.clock.now());
                    self.timers.push(PendingTimer {
                        deadline: base + delay,
                        id,
                        generation,
                    });
                }
                Action::CancelTimer(id) => {
                    // Only bump an id that still has heap entries: with no
                    // entry queued there is nothing to invalidate, and
                    // inserting one here is what used to leak map entries.
                    if let Some(entry) = self.generations.get_mut(&id) {
                        entry.gen += 1;
                    }
                }
            }
        }
    }

    /// Flushes the sink: every delivery made since the last flush becomes
    /// visible to its consumer. Drivers call this at the end of each step —
    /// the reactor before it services its sockets, so a delivery is in the
    /// sink before any frame of the same round leaves the process.
    pub(crate) fn flush_deliveries(&mut self) -> Result<(), WbamError> {
        self.sink.flush()
    }

    /// Deliveries handed to the sink since the loop was created (flushed or
    /// not).
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Removes a popped heap entry's claim on its id's bookkeeping; returns
    /// whether the entry is live (matches the current generation) and should
    /// fire. Dropping the map entry once no heap entries reference the id is
    /// what keeps `generations` bounded.
    fn retire_timer_entry(&mut self, t: &PendingTimer) -> bool {
        match self.generations.get_mut(&t.id) {
            Some(entry) => {
                entry.queued = entry.queued.saturating_sub(1);
                let live = entry.gen == t.generation;
                if entry.queued == 0 {
                    self.generations.remove(&t.id);
                }
                live
            }
            None => false,
        }
    }

    /// Fires every timer due at the clock's current time, executing the
    /// actions each firing produces (which may arm further timers) before
    /// the next timer pops, so a firing can still cancel a later one.
    pub(crate) fn fire_due_timers(&mut self) {
        let now = self.clock.now();
        let mut out = std::mem::take(&mut self.out);
        while let Some(t) = self.timers.peek() {
            if t.deadline > now {
                break;
            }
            let t = self.timers.pop().expect("peeked");
            if !self.retire_timer_entry(&t) {
                continue; // cancelled or re-armed
            }
            let event = Event::Timer { id: t.id, now };
            self.node.on_event_into(now, event, &mut out);
            self.execute(out.drain(..));
        }
        self.out = out;
    }

    /// The deadline of the earliest *live* pending timer, pruning stale heap
    /// entries (cancelled or re-armed) off the top so an idle node never
    /// wakes for a timer that would not fire.
    pub(crate) fn next_deadline(&mut self) -> Option<Duration> {
        loop {
            let (deadline, id, generation) = match self.timers.peek() {
                Some(t) => (t.deadline, t.id, t.generation),
                None => return None,
            };
            if self.generations.get(&id).map(|e| e.gen) == Some(generation) {
                return Some(deadline);
            }
            let t = self.timers.pop().expect("peeked");
            self.retire_timer_entry(&t);
        }
    }

    /// Runs the node over a batch of envelopes as one round and executes
    /// everything it answered once the round's events ran, so a busy
    /// stretch pays the per-round costs (the clock reads, the delivery
    /// flush, the reactor's socket flush) once. Every event of the round sees
    /// the same `now`, read at the first envelope (an empty batch reads no
    /// clock); see the module docs for the round-time rule. Callers
    /// bound the batch by [`MAX_ENVELOPE_BATCH`] so timers never starve.
    pub(crate) fn process_batch(&mut self, batch: impl IntoIterator<Item = Envelope<M>>) {
        let mut now = None;
        let mut out = std::mem::take(&mut self.out);
        for envelope in batch {
            let now = *now.get_or_insert_with(|| self.clock.now());
            let event = match envelope {
                Envelope::Shutdown => {
                    self.stopped = true;
                    break;
                }
                Envelope::FromPeer { from, msg } => Event::Message { from, msg },
                Envelope::Submit(msg) => Event::Multicast(msg),
                Envelope::BecomeLeader => Event::BecomeLeader,
                Envelope::Restart => Event::Restart,
            };
            self.node.on_event_into(now, event, &mut out);
        }
        self.execute(out.drain(..));
        self.out = out;
    }

    /// Read access to the wrapped node, for state inspection through
    /// [`wbam_types::Node::as_any`].
    pub(crate) fn node(&self) -> &dyn Node<Msg = M> {
        &*self.node
    }

    /// What the node sent since the last drain, in action order: the driver
    /// routes it after every step.
    pub(crate) fn drain_sends(&mut self) -> std::vec::Drain<'_, (ProcessId, M)> {
        self.sends.drain(..)
    }

    /// Whether an [`Envelope::Shutdown`] has been processed.
    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Models a crash: all pending timers are dropped (the driver discards
    /// the mailbox, which dies with the process). The node's own state is
    /// left to [`apply_restart`](Self::apply_restart), which mirrors what
    /// [`Event::Restart`] means everywhere else in the workspace.
    pub(crate) fn crash(&mut self) {
        self.timers.clear();
        self.generations.clear();
    }

    /// Delivers [`Event::Restart`] directly (without going through the
    /// mailbox): volatile context is gone, timers re-arm, the node rejoins.
    pub(crate) fn apply_restart(&mut self) {
        self.handle_one(Event::Restart);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::{DeliveryLog, LogSink};
    use std::sync::Arc;

    /// Records the order its timers fire in; re-arms nothing.
    struct TimerProbe {
        id: ProcessId,
        arm: Vec<(TimerId, Duration)>,
        fired: Arc<std::sync::Mutex<Vec<TimerId>>>,
    }

    impl wbam_types::Node for TimerProbe {
        type Msg = ();

        fn id(&self) -> ProcessId {
            self.id
        }

        fn on_event(&mut self, _now: Duration, event: Event<()>) -> Vec<Action<()>> {
            match event {
                Event::Init => self
                    .arm
                    .iter()
                    .map(|&(id, delay)| Action::SetTimer { id, delay })
                    .collect(),
                Event::Timer { id, .. } => {
                    self.fired.lock().unwrap().push(id);
                    Vec::new()
                }
                _ => Vec::new(),
            }
        }
    }

    struct ProbeLoop {
        nl: NodeLoop<(), VirtualClock>,
        fired: Arc<std::sync::Mutex<Vec<TimerId>>>,
        clock: VirtualClock,
    }

    impl ProbeLoop {
        fn fired(&self) -> Vec<TimerId> {
            self.fired.lock().unwrap().clone()
        }
    }

    fn probe_loop(arm: Vec<(TimerId, Duration)>) -> ProbeLoop {
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let node = TimerProbe {
            id: ProcessId(0),
            arm,
            fired: Arc::clone(&fired),
        };
        let clock = VirtualClock::new();
        let nl = NodeLoop::new(
            Box::new(node),
            Box::new(LogSink::new(Arc::new(DeliveryLog::new()))),
            clock.clone(),
        );
        ProbeLoop { nl, fired, clock }
    }

    /// Satellite fix pin: equal-deadline timers pop in `(deadline, id,
    /// generation)` order, not in `BinaryHeap`'s arbitrary tie order — replay
    /// depends on this being deterministic.
    #[test]
    fn equal_deadline_timers_fire_in_id_order() {
        let delay = Duration::from_millis(10);
        // Armed deliberately out of id order, all with the same deadline.
        let mut p = probe_loop(vec![
            (TimerId(7), delay),
            (TimerId(1), delay),
            (TimerId(4), delay),
            (TimerId(2), delay),
        ]);
        p.nl.init();
        p.clock.advance_to(delay);
        p.nl.fire_due_timers();
        assert_eq!(
            p.fired(),
            vec![TimerId(1), TimerId(2), TimerId(4), TimerId(7)]
        );
    }

    /// Satellite fix pin: the generations map drops an id's entry once its
    /// last heap entry retires (fired, cancelled or re-armed-and-fired), so a
    /// long-lived node's map is bounded by its *pending* timers.
    #[test]
    fn generations_map_stays_bounded() {
        let mut p = probe_loop(Vec::new());
        p.nl.init();
        // Arm 100 distinct ids over time and let each fire.
        for i in 0..100u64 {
            p.nl.execute(vec![Action::SetTimer {
                id: TimerId(i),
                delay: Duration::from_millis(1),
            }]);
            p.clock.advance_to(p.clock.now() + Duration::from_millis(1));
            p.nl.fire_due_timers();
        }
        assert_eq!(p.fired().len(), 100);
        assert!(
            p.nl.generations.is_empty(),
            "all fired timers must release their map entries, {} remain",
            p.nl.generations.len()
        );
        assert!(p.nl.timers.is_empty());

        // Cancel and re-arm churn on one id must not leak either, and a
        // re-arm after the entry was dropped must not resurrect a stale
        // heap entry (the generation restarts, old entries retire as dead).
        p.nl.execute(vec![Action::SetTimer {
            id: TimerId(0),
            delay: Duration::from_millis(5),
        }]);
        p.nl.execute(vec![Action::CancelTimer(TimerId(0))]);
        p.nl.execute(vec![Action::SetTimer {
            id: TimerId(0),
            delay: Duration::from_millis(1),
        }]);
        p.clock
            .advance_to(p.clock.now() + Duration::from_millis(10));
        p.nl.fire_due_timers();
        assert_eq!(p.fired().len(), 101, "exactly one extra firing");
        assert!(p.nl.generations.is_empty());
        assert!(p.nl.timers.is_empty());

        // Cancelling an id with nothing queued is a no-op, not an insert.
        p.nl.execute(vec![Action::CancelTimer(TimerId(42))]);
        assert!(p.nl.generations.is_empty());
    }

    /// A cancelled timer never fires even when a later timer on the same id
    /// is re-armed with a fresh generation after the map entry was dropped.
    #[test]
    fn stale_entries_after_entry_drop_do_not_fire() {
        let mut p = probe_loop(Vec::new());
        p.nl.init();
        // e1: gen 1, far deadline. e2: gen 2, near deadline.
        p.nl.execute(vec![Action::SetTimer {
            id: TimerId(9),
            delay: Duration::from_millis(100),
        }]);
        p.nl.execute(vec![Action::SetTimer {
            id: TimerId(9),
            delay: Duration::from_millis(1),
        }]);
        p.clock.advance_to(Duration::from_millis(1));
        p.nl.fire_due_timers();
        assert_eq!(p.fired(), vec![TimerId(9)]);
        // e2 fired at gen 2; e1 (gen 1) still queued keeps the entry alive.
        assert_eq!(p.nl.generations.len(), 1);
        // Re-arm: gen becomes 3; the stale e1 must not match it.
        p.nl.execute(vec![Action::SetTimer {
            id: TimerId(9),
            delay: Duration::from_millis(1),
        }]);
        p.clock.advance_to(Duration::from_millis(200));
        p.nl.fire_due_timers();
        assert_eq!(
            p.fired(),
            vec![TimerId(9), TimerId(9)],
            "the cancelled-by-re-arm entry must not produce a third firing"
        );
        assert!(p.nl.generations.is_empty());
    }

    /// A clock whose every read returns one microsecond more than the last
    /// and counts itself.
    #[derive(Clone, Default)]
    struct CountingClock {
        reads: Arc<std::sync::atomic::AtomicU64>,
    }

    impl CountingClock {
        fn reads(&self) -> u64 {
            self.reads.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl Clock for CountingClock {
        fn now(&self) -> Duration {
            let read = self.reads.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            Duration::from_micros(read)
        }
    }

    /// Answers every peer message with a delivery and a timer arm, and
    /// notes how many clock reads had been made when it ran.
    struct RoundProbe {
        clock: CountingClock,
        seen: Arc<std::sync::Mutex<Vec<(Duration, u64)>>>,
    }

    impl wbam_types::Node for RoundProbe {
        type Msg = u64;

        fn id(&self) -> ProcessId {
            ProcessId(0)
        }

        fn on_event_into(&mut self, now: Duration, event: Event<u64>, out: &mut Vec<Action<u64>>) {
            if let Event::Message { msg, .. } = event {
                self.seen.lock().unwrap().push((now, self.clock.reads()));
                out.push(Action::Deliver(
                    wbam_types::DeliveredMessage::without_timestamp(AppMessage::new(
                        wbam_types::MsgId::new(ProcessId(1), msg),
                        wbam_types::Destination::single(wbam_types::GroupId(0)),
                        wbam_types::Payload::empty(),
                    )),
                ));
                out.push(Action::SetTimer {
                    id: TimerId(msg),
                    delay: Duration::from_millis(1),
                });
            }
        }
    }

    /// The round-time rule: a round of k envelopes reads the clock twice,
    /// once for the `now` all its events see and once after the last of
    /// them, and that second reading stamps every delivery and is the base
    /// of every deadline. Reading per envelope, per delivery and per timer
    /// arm took k + 2k reads here.
    #[test]
    fn a_round_reads_the_clock_twice_and_stamps_after_its_events() {
        const K: u64 = 5;
        let clock = CountingClock::default();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let node = RoundProbe {
            clock: clock.clone(),
            seen: Arc::clone(&seen),
        };
        let log = Arc::new(DeliveryLog::new());
        let mut nl = NodeLoop::new(
            Box::new(node),
            Box::new(LogSink::new(Arc::clone(&log))),
            clock.clone(),
        );
        let before = clock.reads();
        nl.process_batch((0..K).map(|msg| Envelope::FromPeer {
            from: ProcessId(1),
            msg,
        }));
        assert_eq!(clock.reads() - before, 2, "one read before, one after");
        let seen = seen.lock().unwrap().clone();
        assert_eq!(seen.len(), K as usize);
        let round_now = Duration::from_micros(before + 1);
        assert!(seen.iter().all(|&(now, _)| now == round_now));
        // The reading after the round's last event.
        let last_event_reads = seen.last().expect("k events").1;
        let after = Duration::from_micros(last_event_reads + 1);
        nl.flush_deliveries().unwrap();
        let stamps: Vec<Duration> = log.snapshot().iter().map(|d| d.elapsed).collect();
        assert_eq!(stamps.len(), K as usize);
        assert!(
            stamps.iter().all(|&at| at >= after),
            "{stamps:?} vs {after:?}"
        );
        assert_eq!(nl.timers.len(), K as usize);
        assert!(nl
            .timers
            .iter()
            .all(|t| t.deadline >= after + Duration::from_millis(1)));
    }

    /// `next_deadline` skips stale heads so an idle node does not wake for a
    /// timer that would not fire.
    #[test]
    fn next_deadline_prunes_stale_heads() {
        let mut p = probe_loop(Vec::new());
        p.nl.init();
        p.nl.execute(vec![Action::SetTimer {
            id: TimerId(1),
            delay: Duration::from_millis(5),
        }]);
        p.nl.execute(vec![Action::SetTimer {
            id: TimerId(2),
            delay: Duration::from_millis(50),
        }]);
        p.nl.execute(vec![Action::CancelTimer(TimerId(1))]);
        assert_eq!(p.nl.next_deadline(), Some(Duration::from_millis(50)));
        p.nl.execute(vec![Action::CancelTimer(TimerId(2))]);
        assert_eq!(p.nl.next_deadline(), None);
        assert!(p.nl.generations.is_empty(), "pruning releases map entries");
    }
}
