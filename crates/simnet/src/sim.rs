//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a set of sans-IO [`Node`]s (replicas and clients of a
//! single protocol, all sharing one wire message type `M`), a pending-event
//! queue ordered by simulated time, and the network/CPU model:
//!
//! * **Reliable FIFO channels** — a message sent from `p` to `q` is delivered
//!   after a delay drawn from the [`LatencyModel`]; delivery times on the same
//!   channel are clamped to be non-decreasing so the FIFO assumption of the
//!   paper's system model (§II) holds even with jittery delays.
//! * **Crashes** — a crashed process receives no further events and messages
//!   addressed to it are discarded at delivery time (crash-stop model). A
//!   scheduled *restart* resurrects the process with its in-memory state (the
//!   model of synchronously persisted durable state): it receives
//!   [`Event::Restart`] and every timer armed before the crash is fenced off
//!   so it can never fire after the restart. A message still in flight when
//!   the process restarts is delivered normally, like any delayed packet.
//! * **Nemesis faults** — an optional [`NemesisPlan`] injects seeded,
//!   deterministic message drops, duplication, network partitions (with
//!   scheduled heal), crash/restart schedules and timer jitter; every
//!   channel stays FIFO. All randomness comes from the simulation's own
//!   seeded RNG, so a `(seed, plan)` pair replays byte for byte.
//! * **CPU model** — each process takes a configurable service time to handle
//!   one protocol message; messages queue at a busy process. This is what
//!   produces throughput saturation in the Figure 7/8 experiments.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wbam_types::{
    Action, AppMessage, Event, GroupId, MsgId, NemesisPlan, Node, ProcessId, SiteId, TimerId,
};

use crate::latency::LatencyModel;
use crate::metrics::{DeliveryRecord, MetricsView};

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the simulation's random number generator; runs with the same
    /// seed and inputs are bit-for-bit identical.
    pub seed: u64,
    /// One-way message delay model.
    pub latency: LatencyModel,
    /// CPU time consumed by a replica to handle one protocol message.
    pub service_time: Duration,
    /// Record every sent protocol message in a trace (needed by the invariant
    /// checkers; costs memory on long runs).
    pub record_trace: bool,
    /// Fault schedule executed by the simulation: crashes/restarts are
    /// scheduled as events when the simulation is built;
    /// probabilistic link faults, partitions and timer jitter are applied to
    /// every send / timer while the plan's chaos window is open. Defaults to
    /// [`NemesisPlan::quiet`] (no faults).
    pub nemesis: NemesisPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::default(),
            service_time: Duration::ZERO,
            record_trace: false,
            nemesis: NemesisPlan::quiet(),
        }
    }
}

/// One protocol message captured in the simulation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry<M> {
    /// Time at which the message was sent.
    pub time: Duration,
    /// Sender.
    pub from: ProcessId,
    /// Recipient.
    pub to: ProcessId,
    /// The message.
    pub msg: M,
}

/// Aggregate network statistics for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Total protocol messages sent.
    pub messages_sent: u64,
    /// Total protocol messages delivered to a live process.
    pub messages_received: u64,
    /// Total protocol messages dropped because the recipient had crashed.
    pub messages_dropped: u64,
    /// Total application-message deliveries.
    pub app_deliveries: u64,
    /// Messages the nemesis dropped (random loss or an active partition).
    pub nemesis_dropped: u64,
    /// Messages the nemesis duplicated.
    pub nemesis_duplicated: u64,
}

/// What a single [`Simulation::step`] processed.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// A protocol message was handled by a node.
    MessageHandled {
        /// The handling process.
        process: ProcessId,
        /// Number of application messages the node delivered while handling it.
        deliveries: usize,
    },
    /// A timer fired at a node.
    TimerFired {
        /// The process whose timer fired.
        process: ProcessId,
        /// The timer.
        timer: TimerId,
    },
    /// An externally scheduled multicast request was handed to a node.
    MulticastInjected {
        /// The process that received the request.
        process: ProcessId,
        /// The application message identifier.
        msg_id: MsgId,
    },
    /// A node was told to start leader recovery.
    LeaderChangeInjected {
        /// The process that was told to become leader.
        process: ProcessId,
    },
    /// A process crashed.
    Crashed {
        /// The crashed process.
        process: ProcessId,
    },
    /// A crashed process restarted and received [`Event::Restart`].
    Restarted {
        /// The restarted process.
        process: ProcessId,
    },
    /// The event was dropped (its target had crashed, or a stale timer).
    Dropped,
}

#[derive(Debug)]
enum Payload<M> {
    Receive { from: ProcessId, msg: M },
    Timer { id: TimerId, generation: u64 },
    Multicast(AppMessage),
    BecomeLeader,
    Crash,
    Restart,
}

struct QueuedEvent<M> {
    time: Duration,
    seq: u64,
    target: ProcessId,
    payload: Payload<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct NodeSlot<M> {
    node: Box<dyn Node<Msg = M>>,
    busy_until: Duration,
    is_client: bool,
    group: Option<GroupId>,
    site: SiteId,
}

/// A deterministic discrete-event simulation of a set of protocol nodes.
pub struct Simulation<M> {
    config: SimConfig,
    nodes: BTreeMap<ProcessId, NodeSlot<M>>,
    queue: BinaryHeap<QueuedEvent<M>>,
    now: Duration,
    seq: u64,
    rng: StdRng,
    fifo_last: HashMap<(ProcessId, ProcessId), Duration>,
    timer_generations: HashMap<(ProcessId, TimerId), u64>,
    crashed: BTreeSet<ProcessId>,
    deliveries: Vec<DeliveryRecord>,
    multicast_times: BTreeMap<MsgId, Duration>,
    destinations: BTreeMap<MsgId, Vec<GroupId>>,
    stats: NetStats,
    trace: Vec<TraceEntry<M>>,
    sends_by_process: BTreeMap<ProcessId, u64>,
    /// The outbox every dispatch hands its node, empty between dispatches:
    /// the simulation runs one event of one node at a time, so one buffer
    /// serves every node.
    outbox: Vec<Action<M>>,
}

impl<M: Clone + 'static> Simulation<M> {
    /// Creates an empty simulation with the given configuration.
    ///
    /// The crash/restart schedule of the configuration's
    /// [`NemesisPlan`] are queued immediately; its link faults, partitions and
    /// timer jitter apply continuously as the simulation runs.
    pub fn new(config: SimConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let mut sim = Simulation {
            config,
            nodes: BTreeMap::new(),
            queue: BinaryHeap::new(),
            now: Duration::ZERO,
            seq: 0,
            rng,
            fifo_last: HashMap::new(),
            timer_generations: HashMap::new(),
            crashed: BTreeSet::new(),
            deliveries: Vec::new(),
            multicast_times: BTreeMap::new(),
            destinations: BTreeMap::new(),
            stats: NetStats::default(),
            trace: Vec::new(),
            sends_by_process: BTreeMap::new(),
            outbox: Vec::new(),
        };
        for crash in sim.config.nemesis.crashes.clone() {
            sim.push(crash.at, crash.process, Payload::Crash);
            if let Some(restart_at) = crash.restart_at {
                sim.push(restart_at, crash.process, Payload::Restart);
            }
        }
        sim
    }

    /// Adds a replica node belonging to `group` at `site`.
    pub fn add_replica(
        &mut self,
        node: Box<dyn Node<Msg = M>>,
        group: GroupId,
        site: SiteId,
    ) -> ProcessId {
        self.add_slot(node, false, Some(group), site)
    }

    /// Adds a client node (not a member of any group) at site 0.
    pub fn add_client(&mut self, node: Box<dyn Node<Msg = M>>) -> ProcessId {
        self.add_slot(node, true, None, SiteId(0))
    }

    /// Adds a client node at a specific site.
    pub fn add_client_at(&mut self, node: Box<dyn Node<Msg = M>>, site: SiteId) -> ProcessId {
        self.add_slot(node, true, None, site)
    }

    /// Adds a node with default placement (no group, site 0). Mostly useful in
    /// unit tests and doctests.
    pub fn add_node(&mut self, node: Box<dyn Node<Msg = M>>) -> ProcessId {
        self.add_slot(node, false, None, SiteId(0))
    }

    fn add_slot(
        &mut self,
        node: Box<dyn Node<Msg = M>>,
        is_client: bool,
        group: Option<GroupId>,
        site: SiteId,
    ) -> ProcessId {
        let id = node.id();
        assert!(
            !self.nodes.contains_key(&id),
            "node {id} registered twice in the simulation"
        );
        self.nodes.insert(
            id,
            NodeSlot {
                node,
                busy_until: Duration::ZERO,
                is_client,
                group,
                site,
            },
        );
        // Deliver the Init event at time zero.
        self.push(
            Duration::ZERO,
            id,
            Payload::Timer {
                id: TimerId(u64::MAX),
                generation: u64::MAX,
            },
        );
        id
    }

    fn push(&mut self, time: Duration, target: ProcessId, payload: Payload<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QueuedEvent {
            time,
            seq,
            target,
            payload,
        });
    }

    /// Current simulated time.
    pub fn now(&self) -> Duration {
        self.now
    }

    /// Aggregate network statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of protocol messages sent by each process.
    pub fn sends_by_process(&self) -> &BTreeMap<ProcessId, u64> {
        &self.sends_by_process
    }

    /// The recorded protocol-message trace (empty unless
    /// [`SimConfig::record_trace`] was set).
    pub fn trace(&self) -> &[TraceEntry<M>] {
        &self.trace
    }

    /// All deliveries recorded so far.
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        &self.deliveries
    }

    /// Builds a [`MetricsView`] over the run so far.
    pub fn metrics(&self) -> MetricsView {
        MetricsView::new(
            self.deliveries.clone(),
            self.multicast_times.clone(),
            self.destinations.clone(),
        )
    }

    /// Schedules an application multicast: at time `at`, process `from` (a
    /// client or replica node) receives [`Event::Multicast`] for `msg`.
    pub fn schedule_multicast(&mut self, at: Duration, from: ProcessId, msg: AppMessage) {
        self.multicast_times.entry(msg.id).or_insert(at);
        self.destinations
            .entry(msg.id)
            .or_insert_with(|| msg.dest.groups().to_vec());
        self.push(at, from, Payload::Multicast(msg));
    }

    /// Schedules a crash of `process` at time `at`.
    pub fn schedule_crash(&mut self, at: Duration, process: ProcessId) {
        self.push(at, process, Payload::Crash);
    }

    /// Schedules a restart of `process` at time `at`: if the process is
    /// crashed at that moment it comes back up with its in-memory state,
    /// receives [`Event::Restart`], and every timer armed before the crash is
    /// invalidated. A restart of a live process is a no-op.
    pub fn schedule_restart(&mut self, at: Duration, process: ProcessId) {
        self.push(at, process, Payload::Restart);
    }

    /// Schedules a [`Event::BecomeLeader`] notification, modelling the group's
    /// leader-election oracle electing `process` at time `at`.
    pub fn schedule_become_leader(&mut self, at: Duration, process: ProcessId) {
        self.push(at, process, Payload::BecomeLeader);
    }

    /// Injects a raw protocol message from `from` to `to` at time `at`,
    /// bypassing the latency model. Useful in unit tests.
    pub fn send_external(&mut self, at: Duration, from: ProcessId, to: ProcessId, msg: M) {
        self.stats.messages_sent += 1;
        self.push(at, to, Payload::Receive { from, msg });
    }

    /// Whether the given process has crashed.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.crashed.contains(&p)
    }

    /// Read access to a node, for state inspection through
    /// [`Node::as_any`].
    pub fn node(&self, p: ProcessId) -> Option<&dyn Node<Msg = M>> {
        self.nodes.get(&p).map(|slot| &*slot.node)
    }

    /// Processes the next pending event, if any, and returns what happened.
    pub fn step(&mut self) -> Option<StepOutcome> {
        let ev = self.queue.pop()?;
        self.now = self.now.max(ev.time);
        let target = ev.target;

        if self.crashed.contains(&target) {
            if matches!(ev.payload, Payload::Restart) {
                self.crashed.remove(&target);
                // Fence off every timer armed before the crash: bump its
                // generation so the queued firing is recognised as stale. A
                // real process loses its in-memory timer wheel with the crash;
                // without the fence a pre-crash timer would fire into the
                // restarted process (the node re-arms what it needs from its
                // Restart handler).
                for ((process, _), generation) in self.timer_generations.iter_mut() {
                    if *process == target {
                        *generation += 1;
                    }
                }
                if let Some(slot) = self.nodes.get_mut(&target) {
                    // The CPU queue died with the process.
                    slot.busy_until = ev.time;
                }
                self.dispatch(target, ev.time, Event::Restart);
                return Some(StepOutcome::Restarted { process: target });
            }
            if matches!(ev.payload, Payload::Receive { .. }) {
                self.stats.messages_dropped += 1;
            }
            return Some(StepOutcome::Dropped);
        }

        match ev.payload {
            Payload::Crash => {
                self.crashed.insert(target);
                Some(StepOutcome::Crashed { process: target })
            }
            // A restart of a process that never crashed (or already
            // restarted) is a no-op.
            Payload::Restart => Some(StepOutcome::Dropped),
            Payload::Timer { id, generation } => {
                // The sentinel (u64::MAX, u64::MAX) timer is the Init event.
                if id == TimerId(u64::MAX) && generation == u64::MAX {
                    let deliveries = self.dispatch(target, ev.time, Event::Init);
                    return Some(StepOutcome::MessageHandled {
                        process: target,
                        deliveries,
                    });
                }
                let current = self
                    .timer_generations
                    .get(&(target, id))
                    .copied()
                    .unwrap_or(0);
                if generation != current {
                    return Some(StepOutcome::Dropped);
                }
                self.dispatch(target, ev.time, Event::Timer { id, now: ev.time });
                Some(StepOutcome::TimerFired {
                    process: target,
                    timer: id,
                })
            }
            Payload::Receive { from, msg } => {
                self.stats.messages_received += 1;
                let deliveries = self.dispatch(target, ev.time, Event::Message { from, msg });
                Some(StepOutcome::MessageHandled {
                    process: target,
                    deliveries,
                })
            }
            Payload::Multicast(msg) => {
                let msg_id = msg.id;
                self.dispatch(target, ev.time, Event::Multicast(msg));
                Some(StepOutcome::MulticastInjected {
                    process: target,
                    msg_id,
                })
            }
            Payload::BecomeLeader => {
                self.dispatch(target, ev.time, Event::BecomeLeader);
                Some(StepOutcome::LeaderChangeInjected { process: target })
            }
        }
    }

    /// Runs until the event queue is empty or simulated time exceeds `horizon`.
    ///
    /// Returns the number of events processed.
    pub fn run_until_quiescent(&mut self, horizon: Duration) -> usize {
        let mut processed = 0;
        while let Some(ev) = self.queue.peek() {
            if ev.time > horizon {
                break;
            }
            self.step();
            processed += 1;
        }
        processed
    }

    /// Dispatches an event to a node, applying the CPU model, and executes the
    /// returned actions. Returns the number of application deliveries.
    fn dispatch(&mut self, target: ProcessId, arrival: Duration, event: Event<M>) -> usize {
        let mut actions = std::mem::take(&mut self.outbox);
        let (effective, group, site) = {
            let Some(slot) = self.nodes.get_mut(&target) else {
                self.outbox = actions;
                return 0;
            };
            // Clients are charged no service time.
            let service = if slot.is_client {
                Duration::ZERO
            } else {
                self.config.service_time
            };
            // The node starts handling the event when it is free, and its
            // effects take place after the service time.
            let start = arrival.max(slot.busy_until);
            let effective = start + service;
            slot.busy_until = effective;
            slot.node.on_event_into(effective, event, &mut actions);
            (effective, slot.group, slot.site)
        };

        let mut deliveries = 0;
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    self.execute_send(target, site, to, msg, effective);
                }
                Action::Deliver(d) => {
                    deliveries += 1;
                    self.stats.app_deliveries += 1;
                    self.deliveries.push(DeliveryRecord {
                        time: effective,
                        process: target,
                        group,
                        msg_id: d.msg.id,
                        global_ts: d.global_ts,
                    });
                }
                Action::SetTimer { id, delay } => {
                    let gen = self
                        .timer_generations
                        .entry((target, id))
                        .and_modify(|g| *g += 1)
                        .or_insert(1);
                    let generation = *gen;
                    // Nemesis timer jitter: while the chaos window is open,
                    // timers may fire up to `timer_jitter` late.
                    let jitter = self.config.nemesis.timer_jitter;
                    let delay = if !jitter.is_zero() && self.config.nemesis.chaos_active(effective)
                    {
                        let extra_ns = self.rng.gen_range(0..=jitter.as_nanos() as u64);
                        delay + Duration::from_nanos(extra_ns)
                    } else {
                        delay
                    };
                    self.push(effective + delay, target, Payload::Timer { id, generation });
                }
                Action::CancelTimer(id) => {
                    self.timer_generations
                        .entry((target, id))
                        .and_modify(|g| *g += 1)
                        .or_insert(1);
                }
            }
        }
        self.outbox = actions;
        deliveries
    }

    fn execute_send(
        &mut self,
        from: ProcessId,
        from_site: SiteId,
        to: ProcessId,
        msg: M,
        sent_at: Duration,
    ) {
        self.stats.messages_sent += 1;
        *self.sends_by_process.entry(from).or_insert(0) += 1;
        if self.config.record_trace {
            self.trace.push(TraceEntry {
                time: sent_at,
                from,
                to,
                msg: msg.clone(),
            });
        }
        let to_site = self
            .nodes
            .get(&to)
            .map(|slot| slot.site)
            .unwrap_or(SiteId(0));
        // Nemesis faults apply only to real network traffic between distinct
        // processes; a process's channel to itself is process-internal. The
        // send is recorded in the trace and the stats above even when the
        // nemesis eats it: a lost ACCEPT is still a proposal the invariant
        // checkers must account for.
        let network = from != to;
        if network && self.config.nemesis.partition_blocks(sent_at, from, to) {
            self.stats.nemesis_dropped += 1;
            return;
        }
        let chaos =
            network && self.config.nemesis.link.any() && self.config.nemesis.chaos_active(sent_at);
        if chaos && self.roll(self.config.nemesis.link.drop_per_mille) {
            self.stats.nemesis_dropped += 1;
            return;
        }
        // A process sending to itself does not traverse the network: protocols
        // routinely include themselves in broadcasts "for uniformity" (e.g.
        // Figure 4 line 9) and must not be charged a network delay for it.
        let delay = if from == to {
            Duration::ZERO
        } else {
            self.config
                .latency
                .sample(&mut self.rng, from_site, to_site)
        };
        let mut arrival = sent_at + delay;
        // Enforce FIFO per channel: arrival times never decrease.
        let last = self.fifo_last.entry((from, to)).or_insert(Duration::ZERO);
        if arrival < *last {
            arrival = *last;
        }
        *last = arrival;
        // Duplication: deliver a second copy with an independently sampled
        // delay. The duplicate respects the FIFO clamp (it arrives at or
        // after the original), modelling a retransmit-style stutter rather
        // than reordering.
        if chaos && self.roll(self.config.nemesis.link.duplicate_per_mille) {
            let mut dup_delay = self
                .config
                .latency
                .sample(&mut self.rng, from_site, to_site);
            if dup_delay < delay {
                dup_delay = delay;
            }
            let dup_arrival = (sent_at + dup_delay).max(arrival);
            let last = self.fifo_last.entry((from, to)).or_insert(Duration::ZERO);
            *last = (*last).max(dup_arrival);
            self.stats.nemesis_duplicated += 1;
            self.push(
                dup_arrival,
                to,
                Payload::Receive {
                    from,
                    msg: msg.clone(),
                },
            );
        }
        self.push(arrival, to, Payload::Receive { from, msg });
    }

    /// Draws a permille probability from the simulation RNG. Zero never
    /// consumes randomness, so a quiet plan leaves the RNG stream identical
    /// to a run without nemesis support.
    fn roll(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.rng.gen_range(0..1000u32) < u32::from(per_mille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wbam_types::{Destination, Payload as AppPayload};

    /// Test node: replies to every received `u32` with `msg + 1` sent back to
    /// the sender, and records everything it receives.
    struct Pong {
        id: ProcessId,
        received: Vec<(ProcessId, u32, Duration)>,
        reply: bool,
    }

    impl Pong {
        fn new(id: u32, reply: bool) -> Self {
            Pong {
                id: ProcessId(id),
                received: Vec::new(),
                reply,
            }
        }
    }

    impl Node for Pong {
        type Msg = u32;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_event(&mut self, now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
            match event {
                Event::Message { from, msg } => {
                    self.received.push((from, msg, now));
                    if self.reply && msg < 100 {
                        vec![Action::send(from, msg + 1)]
                    } else {
                        Vec::new()
                    }
                }
                _ => Vec::new(),
            }
        }
    }

    fn two_node_sim(latency: LatencyModel) -> Simulation<u32> {
        let mut sim = Simulation::new(SimConfig {
            latency,
            ..SimConfig::default()
        });
        sim.add_node(Box::new(Pong::new(0, false)));
        sim.add_node(Box::new(Pong::new(1, false)));
        sim
    }

    #[test]
    fn constant_latency_delivers_after_delta() {
        let mut sim = two_node_sim(LatencyModel::constant(Duration::from_millis(5)));
        sim.send_external(Duration::ZERO, ProcessId(1), ProcessId(0), 7);
        // The externally injected message arrives at t = 0 (bypasses latency);
        // have node 0 reply so we can observe one real network hop.
        let events = sim.run_until_quiescent(Duration::from_secs(1));
        assert!(events > 0);
        assert_eq!(sim.stats().messages_received, 1);
    }

    #[test]
    fn ping_pong_round_trips_respect_latency() {
        let mut sim = Simulation::new(SimConfig {
            latency: LatencyModel::constant(Duration::from_millis(10)),
            ..SimConfig::default()
        });
        sim.add_node(Box::new(Pong::new(0, true)));
        sim.add_node(Box::new(Pong::new(1, true)));
        // Node 1 sends 0 to node 0 at t=0 (external, no delay), then they
        // bounce 0,1,2,...,100 back and forth with 10 ms per hop.
        sim.send_external(Duration::ZERO, ProcessId(1), ProcessId(0), 0);
        sim.run_until_quiescent(Duration::from_secs(10));
        // 0..=100 inclusive = 101 messages received in total.
        assert_eq!(sim.stats().messages_received, 101);
        // The last hop arrives at 100 * 10 ms = 1 s.
        assert_eq!(sim.now(), Duration::from_millis(1000));
    }

    #[test]
    fn fifo_order_is_preserved_under_jitter() {
        struct Burst {
            id: ProcessId,
        }
        impl Node for Burst {
            type Msg = u32;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_event(&mut self, _now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
                match event {
                    Event::Init => (0..50).map(|i| Action::send(ProcessId(1), i)).collect(),
                    _ => Vec::new(),
                }
            }
        }
        let mut sim = Simulation::new(SimConfig {
            latency: LatencyModel::uniform(Duration::from_millis(1), Duration::from_millis(50)),
            seed: 42,
            ..SimConfig::default()
        });
        sim.add_node(Box::new(Burst { id: ProcessId(0) }));
        let receiver = Pong::new(1, false);
        sim.add_node(Box::new(receiver));
        sim.run_until_quiescent(Duration::from_secs(10));
        assert_eq!(sim.stats().messages_received, 50);
        // We cannot reach into the boxed node, so check FIFO via the trace of
        // receive order: messages_received count plus the fact that the sim is
        // deterministic is covered elsewhere; here we re-run with a recording
        // node to check order.
        struct Recorder {
            id: ProcessId,
            seen: Vec<u32>,
            expect_sorted: bool,
        }
        impl Node for Recorder {
            type Msg = u32;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_event(&mut self, _now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
                if let Event::Message { msg, .. } = event {
                    self.seen.push(msg);
                    if self.expect_sorted {
                        let mut sorted = self.seen.clone();
                        sorted.sort_unstable();
                        assert_eq!(self.seen, sorted, "FIFO violated");
                    }
                }
                Vec::new()
            }
        }
        let mut sim = Simulation::new(SimConfig {
            latency: LatencyModel::uniform(Duration::from_millis(1), Duration::from_millis(50)),
            seed: 42,
            ..SimConfig::default()
        });
        sim.add_node(Box::new(Burst { id: ProcessId(0) }));
        sim.add_node(Box::new(Recorder {
            id: ProcessId(1),
            seen: Vec::new(),
            expect_sorted: true,
        }));
        sim.run_until_quiescent(Duration::from_secs(10));
        assert_eq!(sim.stats().messages_received, 50);
    }

    #[test]
    fn crashed_nodes_drop_messages() {
        let mut sim = two_node_sim(LatencyModel::constant(Duration::from_millis(1)));
        sim.schedule_crash(Duration::from_millis(5), ProcessId(0));
        sim.send_external(Duration::from_millis(10), ProcessId(1), ProcessId(0), 3);
        sim.run_until_quiescent(Duration::from_secs(1));
        assert!(sim.is_crashed(ProcessId(0)));
        assert_eq!(sim.stats().messages_received, 0);
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn service_time_queues_messages() {
        // Two messages arrive at t=0; with a 10 ms service time the second is
        // handled at t=20 ms.
        struct Last {
            id: ProcessId,
            last_time: Duration,
        }
        impl Node for Last {
            type Msg = u32;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_event(&mut self, now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
                if event.is_message() {
                    self.last_time = now;
                }
                Vec::new()
            }
        }
        let mut sim = Simulation::new(SimConfig {
            latency: LatencyModel::constant(Duration::ZERO),
            service_time: Duration::from_millis(10),
            ..SimConfig::default()
        });
        sim.add_node(Box::new(Last {
            id: ProcessId(0),
            last_time: Duration::ZERO,
        }));
        sim.send_external(Duration::ZERO, ProcessId(1), ProcessId(0), 1);
        sim.send_external(Duration::ZERO, ProcessId(1), ProcessId(0), 2);
        sim.run_until_quiescent(Duration::from_secs(1));
        // Both handled; the node's busy time advanced to 20 ms.
        assert_eq!(sim.stats().messages_received, 2);
        assert_eq!(sim.now(), Duration::ZERO); // events were both queued at t=0
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerNode {
            id: ProcessId,
            fired: Vec<TimerId>,
        }
        impl Node for TimerNode {
            type Msg = u32;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_event(&mut self, _now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
                match event {
                    Event::Init => vec![
                        Action::SetTimer {
                            id: TimerId(1),
                            delay: Duration::from_millis(10),
                        },
                        Action::SetTimer {
                            id: TimerId(2),
                            delay: Duration::from_millis(20),
                        },
                        Action::CancelTimer(TimerId(2)),
                    ],
                    Event::Timer { id, .. } => {
                        self.fired.push(id);
                        Vec::new()
                    }
                    _ => Vec::new(),
                }
            }
        }
        let mut sim: Simulation<u32> = Simulation::new(SimConfig::default());
        sim.add_node(Box::new(TimerNode {
            id: ProcessId(0),
            fired: Vec::new(),
        }));
        let mut timer_fired = 0;
        let mut dropped = 0;
        while let Some(outcome) = sim.step() {
            match outcome {
                StepOutcome::TimerFired { timer, .. } => {
                    timer_fired += 1;
                    assert_eq!(timer, TimerId(1));
                }
                StepOutcome::Dropped => dropped += 1,
                _ => {}
            }
        }
        assert_eq!(timer_fired, 1, "only the uncancelled timer fires");
        assert_eq!(dropped, 1, "the cancelled timer is dropped");
    }

    #[test]
    fn rearmed_timer_supersedes_previous() {
        struct Rearm {
            id: ProcessId,
            count: u32,
        }
        impl Node for Rearm {
            type Msg = u32;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_event(&mut self, _now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
                match event {
                    Event::Init => vec![
                        Action::SetTimer {
                            id: TimerId(1),
                            delay: Duration::from_millis(10),
                        },
                        // Re-arm immediately; only the second instance should fire.
                        Action::SetTimer {
                            id: TimerId(1),
                            delay: Duration::from_millis(30),
                        },
                    ],
                    Event::Timer { .. } => {
                        self.count += 1;
                        Vec::new()
                    }
                    _ => Vec::new(),
                }
            }
        }
        let mut sim: Simulation<u32> = Simulation::new(SimConfig::default());
        sim.add_node(Box::new(Rearm {
            id: ProcessId(0),
            count: 0,
        }));
        let mut fired = 0;
        while let Some(outcome) = sim.step() {
            if matches!(outcome, StepOutcome::TimerFired { .. }) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let run = |seed: u64| -> (NetStats, Duration) {
            let mut sim = Simulation::new(SimConfig {
                latency: LatencyModel::uniform(Duration::from_millis(1), Duration::from_millis(20)),
                seed,
                ..SimConfig::default()
            });
            sim.add_node(Box::new(Pong::new(0, true)));
            sim.add_node(Box::new(Pong::new(1, true)));
            sim.send_external(Duration::ZERO, ProcessId(1), ProcessId(0), 0);
            sim.run_until_quiescent(Duration::from_secs(60));
            (sim.stats(), sim.now())
        };
        let (s1, t1) = run(7);
        let (s2, t2) = run(7);
        let (s3, t3) = run(8);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
        // A different seed gives a different (but valid) schedule.
        assert_eq!(s1.messages_received, s3.messages_received);
        assert_ne!(t1, t3);
    }

    #[test]
    fn multicast_times_and_destinations_are_recorded() {
        let mut sim: Simulation<u32> = Simulation::new(SimConfig::default());
        sim.add_node(Box::new(Pong::new(0, false)));
        let msg = AppMessage::new(
            MsgId::new(ProcessId(0), 1),
            Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
            AppPayload::from("x"),
        );
        sim.schedule_multicast(Duration::from_millis(3), ProcessId(0), msg);
        sim.run_until_quiescent(Duration::from_secs(1));
        let metrics = sim.metrics();
        assert_eq!(
            metrics.multicast_time(MsgId::new(ProcessId(0), 1)),
            Some(Duration::from_millis(3))
        );
        assert!(!metrics.is_partially_delivered(MsgId::new(ProcessId(0), 1)));
    }

    #[test]
    fn trace_recording_captures_sends() {
        let mut sim = Simulation::new(SimConfig {
            record_trace: true,
            latency: LatencyModel::constant(Duration::from_millis(1)),
            ..SimConfig::default()
        });
        sim.add_node(Box::new(Pong::new(0, true)));
        sim.add_node(Box::new(Pong::new(1, true)));
        sim.send_external(Duration::ZERO, ProcessId(1), ProcessId(0), 98);
        sim.run_until_quiescent(Duration::from_secs(1));
        // 98 -> reply 99 -> reply 100 (no further replies, msg >= 100).
        assert_eq!(sim.trace().len(), 2);
        assert_eq!(sim.trace()[0].from, ProcessId(0));
        assert_eq!(sim.trace()[0].to, ProcessId(1));
        assert!(sim.sends_by_process()[&ProcessId(0)] >= 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_node_registration_panics() {
        let mut sim: Simulation<u32> = Simulation::new(SimConfig::default());
        sim.add_node(Box::new(Pong::new(0, false)));
        sim.add_node(Box::new(Pong::new(0, false)));
    }

    #[test]
    fn restart_resurrects_a_crashed_process() {
        struct Counter {
            id: ProcessId,
            received: u32,
            restarts: u32,
        }
        impl Node for Counter {
            type Msg = u32;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_event(&mut self, _now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
                match event {
                    Event::Message { .. } => {
                        self.received += 1;
                        Vec::new()
                    }
                    Event::Restart => {
                        self.restarts += 1;
                        // Announce the rejoin so the test can observe that the
                        // restarted node's actions are executed.
                        vec![Action::send(ProcessId(1), 99)]
                    }
                    _ => Vec::new(),
                }
            }
        }
        let mut sim = Simulation::new(SimConfig {
            latency: LatencyModel::constant(Duration::from_millis(1)),
            ..SimConfig::default()
        });
        sim.add_node(Box::new(Counter {
            id: ProcessId(0),
            received: 0,
            restarts: 0,
        }));
        sim.add_node(Box::new(Pong::new(1, false)));
        sim.schedule_crash(Duration::from_millis(5), ProcessId(0));
        sim.schedule_restart(Duration::from_millis(20), ProcessId(0));
        // Lost while down...
        sim.send_external(Duration::from_millis(10), ProcessId(1), ProcessId(0), 1);
        // ...received after the restart.
        sim.send_external(Duration::from_millis(30), ProcessId(1), ProcessId(0), 2);
        let mut restarted = 0;
        while let Some(outcome) = sim.step() {
            if matches!(outcome, StepOutcome::Restarted { .. }) {
                restarted += 1;
            }
        }
        assert_eq!(restarted, 1);
        assert!(!sim.is_crashed(ProcessId(0)));
        assert_eq!(sim.stats().messages_dropped, 1);
        // The message sent after the restart and the restart announcement
        // both went through.
        assert_eq!(sim.stats().messages_received, 2);
    }

    #[test]
    fn restart_of_a_live_process_is_a_no_op() {
        let mut sim = two_node_sim(LatencyModel::constant(Duration::from_millis(1)));
        sim.schedule_restart(Duration::from_millis(5), ProcessId(0));
        let mut restarted = 0;
        while let Some(outcome) = sim.step() {
            if matches!(outcome, StepOutcome::Restarted { .. }) {
                restarted += 1;
            }
        }
        assert_eq!(restarted, 0);
    }

    #[test]
    fn timers_armed_before_a_crash_never_fire_after_restart() {
        // The node arms a timer at Init that would fire at t = 50 ms. It
        // crashes at 10 ms and restarts at 20 ms: the pre-crash timer is
        // stale and must not fire; a timer re-armed from the Restart handler
        // must fire.
        struct TimerNode {
            id: ProcessId,
            fired: u32,
            fired_after_restart: u32,
            restarted: bool,
        }
        impl Node for TimerNode {
            type Msg = u32;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_event(&mut self, _now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
                match event {
                    Event::Init => vec![Action::SetTimer {
                        id: TimerId(1),
                        delay: Duration::from_millis(50),
                    }],
                    Event::Restart => {
                        self.restarted = true;
                        vec![Action::SetTimer {
                            id: TimerId(2),
                            delay: Duration::from_millis(5),
                        }]
                    }
                    Event::Timer { id, .. } => {
                        self.fired += 1;
                        if self.restarted {
                            self.fired_after_restart += 1;
                            assert_eq!(id, TimerId(2), "stale pre-crash timer fired after restart");
                        }
                        Vec::new()
                    }
                    _ => Vec::new(),
                }
            }
        }
        let mut sim: Simulation<u32> = Simulation::new(SimConfig::default());
        sim.add_node(Box::new(TimerNode {
            id: ProcessId(0),
            fired: 0,
            fired_after_restart: 0,
            restarted: false,
        }));
        sim.schedule_crash(Duration::from_millis(10), ProcessId(0));
        sim.schedule_restart(Duration::from_millis(20), ProcessId(0));
        let mut fired = 0;
        while let Some(outcome) = sim.step() {
            if matches!(outcome, StepOutcome::TimerFired { .. }) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "only the re-armed post-restart timer fires");
    }

    #[test]
    fn nemesis_drop_loses_messages_deterministically() {
        let run = |seed: u64| {
            let mut config = SimConfig {
                latency: LatencyModel::constant(Duration::from_millis(1)),
                seed,
                ..SimConfig::default()
            };
            config.nemesis.link.drop_per_mille = 500;
            let mut sim = Simulation::new(config);
            sim.add_node(Box::new(Pong::new(0, false)));
            sim.add_node(Box::new(Burst50 { id: ProcessId(1) }));
            sim.run_until_quiescent(Duration::from_secs(1));
            (sim.stats().nemesis_dropped, sim.stats().messages_received)
        };
        let (dropped_a, received_a) = run(11);
        let (dropped_b, received_b) = run(11);
        assert_eq!(dropped_a, dropped_b, "same seed, same losses");
        assert_eq!(received_a, received_b);
        assert!(dropped_a > 0, "50% loss over 50 messages drops some");
        assert!(received_a > 0, "and lets some through");
        assert_eq!(dropped_a + received_a, 50);
    }

    /// Sends 0..50 to process 0 at Init (used by the nemesis tests).
    struct Burst50 {
        id: ProcessId,
    }
    impl Node for Burst50 {
        type Msg = u32;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_event(&mut self, _now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
            match event {
                Event::Init => (0..50).map(|i| Action::send(ProcessId(0), i)).collect(),
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn nemesis_duplicate_delivers_extra_copies_in_fifo_order() {
        let mut config = SimConfig {
            latency: LatencyModel::uniform(Duration::from_millis(1), Duration::from_millis(20)),
            seed: 5,
            ..SimConfig::default()
        };
        config.nemesis.link.duplicate_per_mille = 400;
        let mut sim = Simulation::new(config);
        // Reuse the FIFO recorder: duplicates must not break the
        // non-decreasing arrival order of the channel.
        struct Recorder {
            id: ProcessId,
            seen: Vec<u32>,
        }
        impl Node for Recorder {
            type Msg = u32;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_event(&mut self, _now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
                if let Event::Message { msg, .. } = event {
                    self.seen.push(msg);
                    let mut sorted = self.seen.clone();
                    sorted.sort_unstable();
                    assert_eq!(self.seen, sorted, "duplicates broke FIFO order");
                }
                Vec::new()
            }
        }
        sim.add_node(Box::new(Recorder {
            id: ProcessId(0),
            seen: Vec::new(),
        }));
        sim.add_node(Box::new(Burst50 { id: ProcessId(1) }));
        sim.run_until_quiescent(Duration::from_secs(5));
        let stats = sim.stats();
        assert!(stats.nemesis_duplicated > 0);
        assert_eq!(
            stats.messages_received,
            50 + stats.nemesis_duplicated,
            "every duplicate is an extra received copy"
        );
    }

    #[test]
    fn nemesis_partition_blocks_and_heals() {
        use wbam_types::PartitionSpec;
        let mut config = SimConfig {
            latency: LatencyModel::constant(Duration::from_millis(1)),
            ..SimConfig::default()
        };
        config.nemesis.partitions.push(PartitionSpec {
            start: Duration::from_millis(10),
            heal: Duration::from_millis(20),
            side_a: vec![ProcessId(1)],
            side_b: vec![ProcessId(0)],
            symmetric: false,
        });
        let mut sim = Simulation::new(config);
        sim.add_node(Box::new(Pong::new(0, false)));
        // A node that sends one message to p0 every 4 ms, driven by a timer.
        struct Ticker {
            id: ProcessId,
            sent: u32,
        }
        impl Node for Ticker {
            type Msg = u32;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_event(&mut self, _now: Duration, event: Event<u32>) -> Vec<Action<u32>> {
                match event {
                    Event::Init | Event::Timer { .. } => {
                        if self.sent >= 8 {
                            return Vec::new();
                        }
                        self.sent += 1;
                        vec![
                            Action::send(ProcessId(0), self.sent),
                            Action::SetTimer {
                                id: TimerId(1),
                                delay: Duration::from_millis(4),
                            },
                        ]
                    }
                    _ => Vec::new(),
                }
            }
        }
        sim.add_node(Box::new(Ticker {
            id: ProcessId(1),
            sent: 0,
        }));
        sim.run_until_quiescent(Duration::from_secs(1));
        // Sends at t = 0, 4, 8 pass; 12, 16 are inside the partition window;
        // 20, 24, 28 pass after the heal.
        assert_eq!(sim.stats().nemesis_dropped, 2);
        assert_eq!(sim.stats().messages_received, 6);
    }

    #[test]
    fn quiet_nemesis_leaves_the_rng_stream_untouched() {
        // A run with a default (quiet) nemesis must replay byte-for-byte like
        // any other seeded run: same stats, same final time.
        let run = || {
            let mut sim = Simulation::new(SimConfig {
                latency: LatencyModel::uniform(Duration::from_millis(1), Duration::from_millis(20)),
                seed: 7,
                ..SimConfig::default()
            });
            sim.add_node(Box::new(Pong::new(0, true)));
            sim.add_node(Box::new(Pong::new(1, true)));
            sim.send_external(Duration::ZERO, ProcessId(1), ProcessId(0), 0);
            sim.run_until_quiescent(Duration::from_secs(60));
            (sim.stats(), sim.now())
        };
        assert_eq!(run(), run());
    }
}
