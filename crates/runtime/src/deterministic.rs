//! The deterministic runtime: the deployed node loop, scheduled by a seed.
//!
//! [`DeterministicRuntime`] runs N real node event loops (the exact
//! `node_loop` code `wbamd` and [`InProcessCluster`](crate::InProcessCluster)
//! ship — burst coalescing, timer generations, delivery-sink flushes and
//! all), single-threaded under a [`VirtualClock`] and over plain in-memory
//! mailboxes the runtime owns: a seed-derived scheduler chooses which
//! mailbox delivers next, how large the delivery burst is, when virtual
//! time advances (and so when timers fire), and where crash/restart lands.
//! Every choice is drawn from a splitmix64 stream seeded by the caller, so
//! an interleaving is a pure function of the seed plus the scripted
//! workload — byte-for-byte replayable, the way `wbam-simnet` schedules
//! already are, but through the deployed code path.
//!
//! The schedule explorer in `wbam-harness` wraps this in `rt1` seed tokens
//! (generate → check → minimize → replay); this module only provides the
//! mechanism: scripted external events, the scheduler loop, a decision
//! [`TraceEvent`] log with a digest for twin-run comparison, and a record of
//! every message the runtime routed (for the Figure 6 white-box checks).
//!
//! **Routing.** After each step of node `i` — its init, its due timers, a
//! delivery burst, its restart — the runtime takes what the node sent and
//! routes it at once, in send order: a send to a known process is recorded
//! and queued in that process's mailbox, and a send to an unknown id is
//! dropped unrecorded. No step reads mail it produced, so routing after the
//! step orders every mailbox exactly as routing at each send would. Mail to
//! a crashed process is recorded and queued like any other, and discarded
//! when the process restarts (fair-lossy links; the protocols' retry timers
//! recover).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use wbam_types::{AppMessage, ProcessId};

use crate::clock::{Clock, VirtualClock};
use crate::node_loop::{Envelope, NodeLoop, MAX_ENVELOPE_BATCH};
use crate::{BoxedNode, DeliveryLog, LogSink, RuntimeDelivery};

/// Probability (percent) that a busy scheduler step advances virtual time to
/// the next timer/script deadline instead of delivering more mail — this is
/// what interleaves timer firings (retries, heartbeats, elections) *into*
/// message bursts rather than only after queues drain.
const ADVANCE_BIAS_PCT: u64 = 12;

/// One-in-N scheduler steps deliver a full [`MAX_ENVELOPE_BATCH`] burst so
/// the coalescing path is exercised, not just single-envelope steps.
const BIG_BURST_ONE_IN: u64 = 10;

/// Safety cap on scheduler steps per [`DeterministicRuntime::run`] call, far
/// above what any horizon-bounded run needs.
const MAX_STEPS: usize = 2_000_000;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A message the deterministic runtime routed, recorded for white-box
/// trace checks (the harness converts these to
/// `wbam_core::invariants::SentMessage`).
#[derive(Debug, Clone)]
pub struct SentRecord<M> {
    /// The sending process.
    pub from: ProcessId,
    /// The destination process.
    pub to: ProcessId,
    /// The protocol message.
    pub msg: M,
}

/// An external event scripted to happen at a virtual time: the workload and
/// fault plan of a deterministic run. Events at equal times apply in the
/// order they were scheduled.
#[derive(Debug, Clone)]
enum ScriptEvent {
    /// Submit an application message for multicast at a (client) node.
    Submit {
        /// Virtual time of the submission.
        at: Duration,
        /// The submitting node.
        client: ProcessId,
        /// The message to multicast.
        msg: AppMessage,
    },
    /// Tell a node to start leader recovery.
    BecomeLeader {
        /// Virtual time of the event.
        at: Duration,
        /// The target node.
        node: ProcessId,
    },
    /// Crash a node: its mailbox and pending timers are discarded and it is
    /// not scheduled until a matching [`ScriptEvent::Restart`].
    Crash {
        /// Virtual time of the crash.
        at: Duration,
        /// The crashed node.
        node: ProcessId,
    },
    /// Restart a node: messages that arrived while it was down are lost
    /// (fair-lossy links), volatile state is rebuilt via `Event::Restart`.
    Restart {
        /// Virtual time of the restart.
        at: Duration,
        /// The restarting node.
        node: ProcessId,
    },
}

impl ScriptEvent {
    fn at(&self) -> Duration {
        match self {
            ScriptEvent::Submit { at, .. }
            | ScriptEvent::BecomeLeader { at, .. }
            | ScriptEvent::Crash { at, .. }
            | ScriptEvent::Restart { at, .. } => *at,
        }
    }
}

/// A scheduler decision, logged so two runs can be compared decision-by-
/// decision (twin-run determinism) and digested into a replay fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node consumed `consumed` envelopes from its mailbox.
    Deliver {
        /// The scheduled node.
        node: ProcessId,
        /// Envelopes consumed in this step.
        consumed: usize,
        /// Virtual time of the step.
        at: Duration,
    },
    /// Virtual time advanced to `to` (idle jump or biased early advance).
    AdvanceTo(
        /// The new virtual time.
        Duration,
    ),
    /// A scripted submission was enqueued at a node.
    Submit {
        /// The submitting node.
        node: ProcessId,
        /// Virtual time of the submission.
        at: Duration,
    },
    /// A scripted leader-recovery nudge was enqueued.
    BecomeLeader {
        /// The target node.
        node: ProcessId,
        /// Virtual time of the event.
        at: Duration,
    },
    /// A node crashed, discarding its mailbox and timers.
    Crash {
        /// The crashed node.
        node: ProcessId,
        /// Virtual time of the crash.
        at: Duration,
    },
    /// A node restarted and rejoined.
    Restart {
        /// The restarted node.
        node: ProcessId,
        /// Virtual time of the restart.
        at: Duration,
    },
}

/// N real node event loops driven single-threaded by a seeded scheduler over
/// a [`VirtualClock`]. See the module docs for the model; the `schedule_*`
/// methods script the external events.
pub struct DeterministicRuntime<M: Clone + Send + 'static> {
    loops: Vec<NodeLoop<M, VirtualClock>>,
    ids: Vec<ProcessId>,
    index: BTreeMap<ProcessId, usize>,
    /// Each node's mailbox, in node order.
    mail: Vec<VecDeque<Envelope<M>>>,
    up: Vec<bool>,
    clock: VirtualClock,
    deliveries: Arc<DeliveryLog>,
    sent: Vec<SentRecord<M>>,
    script: Vec<ScriptEvent>,
    /// How many of `script`'s events have been applied: they stay in front,
    /// in the order they were applied, across `run` calls.
    next_script: usize,
    trace: Vec<TraceEvent>,
    rng: u64,
    initialized: bool,
}

impl<M: Clone + Send + 'static> DeterministicRuntime<M> {
    /// Builds a runtime over `nodes` with the scheduler seeded by `seed`.
    /// Node order is significant: it is the tie-break order for timer firing
    /// and the index space of scheduler choices, so callers must construct
    /// the node vector deterministically.
    pub fn new(nodes: Vec<BoxedNode<M>>, seed: u64) -> Self {
        let clock = VirtualClock::new();
        let deliveries = Arc::new(DeliveryLog::new());
        let ids: Vec<ProcessId> = nodes.iter().map(|node| node.id()).collect();
        let index = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let loops: Vec<_> = nodes
            .into_iter()
            .map(|node| {
                let sink = Box::new(LogSink::new(Arc::clone(&deliveries)));
                NodeLoop::new(node, sink, clock.clone())
            })
            .collect();
        DeterministicRuntime {
            mail: loops.iter().map(|_| VecDeque::new()).collect(),
            up: vec![true; loops.len()],
            loops,
            ids,
            index,
            clock,
            deliveries,
            sent: Vec::new(),
            script: Vec::new(),
            next_script: 0,
            trace: Vec::new(),
            rng: seed,
            initialized: false,
        }
    }

    /// Read access to a node, for state inspection through
    /// [`wbam_types::Node::as_any`] — the deterministic-runtime counterpart
    /// of the simulator's `Simulation::node`, for tests and debugging
    /// drivers that examine protocol state after a run.
    pub fn node(&self, p: ProcessId) -> Option<&dyn wbam_types::Node<Msg = M>> {
        let index = *self.index.get(&p)?;
        Some(self.loops[index].node())
    }

    /// Schedules a multicast submission at virtual time `at`.
    pub fn schedule_submit(&mut self, at: Duration, client: ProcessId, msg: AppMessage) {
        self.script.push(ScriptEvent::Submit { at, client, msg });
    }

    /// Schedules a leader-recovery nudge at virtual time `at`.
    pub fn schedule_become_leader(&mut self, at: Duration, node: ProcessId) {
        self.script.push(ScriptEvent::BecomeLeader { at, node });
    }

    /// Schedules a crash at `at` with the matching restart `down_for` later.
    pub fn schedule_crash(&mut self, at: Duration, node: ProcessId, down_for: Duration) {
        self.script.push(ScriptEvent::Crash { at, node });
        self.script.push(ScriptEvent::Restart {
            at: at + down_for,
            node,
        });
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// The earliest future wake-up: the next scripted event or the next live
    /// timer deadline on an up node.
    fn next_wake(&mut self) -> Option<Duration> {
        let mut next = self.script.get(self.next_script).map(|e| e.at());
        for i in 0..self.loops.len() {
            if !self.up[i] {
                continue;
            }
            if let Some(d) = self.loops[i].next_deadline() {
                next = Some(next.map_or(d, |n| n.min(d)));
            }
        }
        next
    }

    fn apply_script_event(&mut self, event: ScriptEvent) {
        match event {
            ScriptEvent::Submit { at, client, msg } => {
                if let Some(&i) = self.index.get(&client) {
                    self.mail[i].push_back(Envelope::Submit(msg));
                    self.trace.push(TraceEvent::Submit { node: client, at });
                }
            }
            ScriptEvent::BecomeLeader { at, node } => {
                if let Some(&i) = self.index.get(&node) {
                    self.mail[i].push_back(Envelope::BecomeLeader);
                    self.trace.push(TraceEvent::BecomeLeader { node, at });
                }
            }
            ScriptEvent::Crash { at, node } => {
                if let Some(&i) = self.index.get(&node) {
                    if self.up[i] {
                        self.up[i] = false;
                        self.mail[i].clear();
                        self.loops[i].crash();
                        self.trace.push(TraceEvent::Crash { node, at });
                    }
                }
            }
            ScriptEvent::Restart { at, node } => {
                if let Some(&i) = self.index.get(&node) {
                    if !self.up[i] {
                        // Mail that arrived while the process was down is
                        // lost with the process (fair-lossy links; the
                        // protocols' retry timers recover).
                        self.mail[i].clear();
                        self.up[i] = true;
                        self.loops[i].apply_restart();
                        self.finish_step(i);
                        self.trace.push(TraceEvent::Restart { node, at });
                    } else {
                        // A restart without a preceding crash mirrors
                        // `InProcessCluster::restart`: it arrives as mail.
                        self.mail[i].push_back(Envelope::Restart);
                        self.trace.push(TraceEvent::Restart { node, at });
                    }
                }
            }
        }
    }

    /// Runs the scheduler until virtual time reaches `horizon` or the system
    /// quiesces (no pending mail, no scripted events, no live timers).
    /// Callable repeatedly with growing horizons; `Event::Init` is delivered
    /// to every node (in node order) on the first call. A scripted event a
    /// call did not apply is applied by the next one, even when the first
    /// call's last step overshot its horizon past the event's time; one
    /// scheduled between calls at a time already passed is applied at once.
    pub fn run(&mut self, horizon: Duration) {
        if !self.initialized {
            self.initialized = true;
            for i in 0..self.loops.len() {
                self.loops[i].init();
                self.finish_step(i);
            }
        }
        // Stable sort of what is still to apply: equal-time events keep
        // their scheduled order.
        self.script[self.next_script..].sort_by_key(ScriptEvent::at);

        for _step in 0..MAX_STEPS {
            let now = self.clock.now();
            if now >= horizon {
                break;
            }
            // 1. Scripted external events due now.
            while self
                .script
                .get(self.next_script)
                .is_some_and(|event| event.at() <= now)
            {
                let event = self.script[self.next_script].clone();
                self.next_script += 1;
                self.apply_script_event(event);
            }
            // 2. Due timers fire on every up node, in node order.
            for i in 0..self.loops.len() {
                if self.up[i] {
                    self.loops[i].fire_due_timers();
                    self.finish_step(i);
                }
            }
            // 3. Which nodes have mail?
            let enabled: Vec<usize> = (0..self.loops.len())
                .filter(|&i| self.up[i] && !self.mail[i].is_empty())
                .collect();
            if enabled.is_empty() {
                // Idle: jump straight to the next wake-up, or quiesce.
                match self.next_wake() {
                    Some(t) if t < horizon => {
                        let t = t.max(now + Duration::from_nanos(1));
                        self.clock.advance_to(t);
                        self.trace.push(TraceEvent::AdvanceTo(t));
                    }
                    _ => break,
                }
                continue;
            }
            // 4. Occasionally advance time *into* a busy period, so timer
            // firings race with queued mail instead of always waiting for
            // queues to drain.
            if self.next_u64() % 100 < ADVANCE_BIAS_PCT {
                if let Some(t) = self.next_wake() {
                    if t > now && t < horizon {
                        self.clock.advance_to(t);
                        self.trace.push(TraceEvent::AdvanceTo(t));
                        continue;
                    }
                }
            }
            // 5. Deliver: pick a node and a burst size.
            let pick = enabled[(self.next_u64() % enabled.len() as u64) as usize];
            let limit = if self.next_u64() % BIG_BURST_ONE_IN == 0 {
                MAX_ENVELOPE_BATCH
            } else {
                1 + (self.next_u64() % 8) as usize
            };
            let consumed = limit.min(MAX_ENVELOPE_BATCH).min(self.mail[pick].len());
            self.loops[pick].process_batch(self.mail[pick].drain(..consumed));
            self.finish_step(pick);
            self.trace.push(TraceEvent::Deliver {
                node: self.ids[pick],
                consumed,
                at: now,
            });
            // 6. Virtual time creeps forward a seeded microsecond-scale step
            // per delivery, so busy periods still make progress toward
            // timers and the horizon.
            let micro = 1 + self.next_u64() % 100;
            self.clock.advance_to(now + Duration::from_micros(micro));
        }
    }

    /// Routes what node `i` sent in the step it just took (see the module
    /// docs) and publishes what it delivered, before any other node steps,
    /// so the shared log holds every delivery in the order the scheduler
    /// made it. The in-memory log's flush cannot fail.
    fn finish_step(&mut self, i: usize) {
        let from = self.ids[i];
        for (to, msg) in self.loops[i].drain_sends() {
            if let Some(&j) = self.index.get(&to) {
                self.sent.push(SentRecord {
                    from,
                    to,
                    msg: msg.clone(),
                });
                self.mail[j].push_back(Envelope::FromPeer { from, msg });
            }
        }
        let _ = self.loops[i].flush_deliveries();
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// A snapshot of every delivery so far, in global delivery-log order.
    pub fn deliveries(&self) -> Vec<RuntimeDelivery> {
        self.deliveries.snapshot()
    }

    /// Every message routed so far, in send order.
    pub fn sent_messages(&self) -> Vec<SentRecord<M>> {
        self.sent.clone()
    }

    /// The scheduler's decision log.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// FNV-1a digest of the decision log: two runs scheduled identically
    /// have equal digests (compare full traces for the strong check).
    pub fn trace_digest(&self) -> u64 {
        let mut d = Digest::new();
        for ev in &self.trace {
            match ev {
                TraceEvent::Deliver { node, consumed, at } => {
                    d.write_u64(1);
                    d.write_u64(u64::from(node.0));
                    d.write_u64(*consumed as u64);
                    d.write_u64(at.as_nanos() as u64);
                }
                TraceEvent::AdvanceTo(to) => {
                    d.write_u64(2);
                    d.write_u64(to.as_nanos() as u64);
                }
                TraceEvent::Submit { node, at } => {
                    d.write_u64(3);
                    d.write_u64(u64::from(node.0));
                    d.write_u64(at.as_nanos() as u64);
                }
                TraceEvent::BecomeLeader { node, at } => {
                    d.write_u64(4);
                    d.write_u64(u64::from(node.0));
                    d.write_u64(at.as_nanos() as u64);
                }
                TraceEvent::Crash { node, at } => {
                    d.write_u64(5);
                    d.write_u64(u64::from(node.0));
                    d.write_u64(at.as_nanos() as u64);
                }
                TraceEvent::Restart { node, at } => {
                    d.write_u64(6);
                    d.write_u64(u64::from(node.0));
                    d.write_u64(at.as_nanos() as u64);
                }
            }
        }
        d.finish()
    }
}

/// FNV-1a, the same construction the harness explorers use for seed-token
/// digests.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
    use wbam_types::{ClusterConfig, Destination, GroupId, MsgId, Payload};

    fn whitebox_nodes(cluster: &ClusterConfig) -> Vec<BoxedNode<WhiteBoxMsg>> {
        let mut nodes: Vec<BoxedNode<WhiteBoxMsg>> = Vec::new();
        for gc in cluster.groups() {
            for member in gc.members() {
                let cfg =
                    ReplicaConfig::new(*member, gc.id(), cluster.clone()).without_auto_election();
                nodes.push(Box::new(WhiteBoxReplica::new(cfg)));
            }
        }
        for client in cluster.clients() {
            nodes.push(Box::new(MulticastClient::new(ClientConfig::new(
                *client,
                cluster.clone(),
            ))));
        }
        nodes
    }

    fn scripted_runtime(seed: u64) -> DeterministicRuntime<WhiteBoxMsg> {
        let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
        let client = cluster.clients()[0];
        let mut rt = DeterministicRuntime::new(whitebox_nodes(&cluster), seed);
        for seq in 0..5u64 {
            let msg = AppMessage::new(
                MsgId::new(client, seq),
                Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
                Payload::from(format!("op-{seq}").as_str()),
            );
            rt.schedule_submit(Duration::from_millis(10 * (seq + 1)), client, msg);
        }
        rt
    }

    /// The deployed node-loop code path, scheduled virtually, still delivers
    /// atomic multicasts in agreement across all replicas.
    #[test]
    fn deterministic_runtime_delivers_multicasts() {
        let mut rt = scripted_runtime(42);
        rt.run(Duration::from_secs(30));
        let deliveries = rt.deliveries();
        // 5 messages × 6 replicas + 5 client completions.
        assert!(
            deliveries.len() >= 35,
            "expected at least 35 deliveries, got {}",
            deliveries.len()
        );
        let order_of = |p: ProcessId| -> Vec<MsgId> {
            deliveries
                .iter()
                .filter(|d| d.process == p)
                .map(|d| d.delivery.msg.id)
                .collect()
        };
        let reference = order_of(ProcessId(0));
        assert_eq!(reference.len(), 5);
        for p in 1..6u32 {
            assert_eq!(order_of(ProcessId(p)), reference, "replica p{p} differs");
        }
        assert!(!rt.sent_messages().is_empty());
    }

    /// Twin-run determinism at the runtime layer: the same seed and script
    /// reproduce the same decisions, deliveries and message trace, element
    /// for element.
    #[test]
    fn same_seed_reproduces_the_run_exactly() {
        let mut a = scripted_runtime(7);
        let mut b = scripted_runtime(7);
        a.run(Duration::from_secs(30));
        b.run(Duration::from_secs(30));
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.trace_digest(), b.trace_digest());
        let da = a.deliveries();
        let db = b.deliveries();
        assert_eq!(da.len(), db.len());
        for (x, y) in da.iter().zip(&db) {
            assert_eq!(x.process, y.process);
            assert_eq!(x.delivery.msg.id, y.delivery.msg.id);
            assert_eq!(x.delivery.global_ts, y.delivery.global_ts);
            assert_eq!(x.elapsed, y.elapsed);
        }
        let sa = a.sent_messages();
        let sb = b.sent_messages();
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!((x.from, x.to), (y.from, y.to));
        }
    }

    /// A crashed-and-restarted minority replica does not block agreement,
    /// and the crash/restart decisions appear in the trace.
    #[test]
    fn crash_and_restart_are_scheduled_deterministically() {
        let mut rt = scripted_runtime(99);
        rt.schedule_crash(
            Duration::from_millis(15),
            ProcessId(1),
            Duration::from_millis(400),
        );
        rt.run(Duration::from_secs(30));
        assert!(rt
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::Crash { node, .. } if *node == ProcessId(1))));
        assert!(rt
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::Restart { node, .. } if *node == ProcessId(1))));
        // The two healthy replicas of group 0 and all of group 1 agree.
        let deliveries = rt.deliveries();
        let order_of = |p: ProcessId| -> Vec<MsgId> {
            deliveries
                .iter()
                .filter(|d| d.process == p)
                .map(|d| d.delivery.msg.id)
                .collect()
        };
        let reference = order_of(ProcessId(0));
        assert_eq!(reference.len(), 5, "healthy replica delivers everything");
        assert_eq!(order_of(ProcessId(2)), reference);
    }

    /// The routing rule for a down node: what is sent to it while it is down
    /// is recorded and queued like any other mail, and its restart discards
    /// it, so after the restart it handles only mail sent since. The run
    /// quiesces, which leaves no mail pending at the end: every envelope
    /// consumed after the restart is then one sent after it.
    #[test]
    fn mail_to_a_down_node_is_recorded_and_lost_at_restart() {
        let down = ProcessId(1);
        let mut rt = scripted_runtime(3);
        // Down from before the first submission (10 ms) until well after
        // the last (50 ms) has been delivered by the other replicas.
        rt.schedule_crash(Duration::from_millis(5), down, Duration::from_millis(500));
        let sent_to_down = |rt: &DeterministicRuntime<WhiteBoxMsg>| {
            rt.sent_messages().iter().filter(|r| r.to == down).count()
        };
        // Horizons a millisecond short of the crash and of the restart: a
        // run overshoots its horizon by under 100 µs, so neither event is
        // passed, and the cluster is idle in both gaps.
        rt.run(Duration::from_millis(4));
        let before_crash = sent_to_down(&rt);
        rt.run(Duration::from_millis(504));
        let before_restart = sent_to_down(&rt);
        assert!(
            before_restart > before_crash,
            "sends to the down replica are recorded ({before_crash} → {before_restart})"
        );
        rt.run(Duration::from_secs(30));
        assert!(rt.now() < Duration::from_secs(30), "the run quiesces");
        let handled_after_restart: usize = rt
            .trace()
            .iter()
            .skip_while(|e| !matches!(e, TraceEvent::Restart { node, .. } if *node == down))
            .map(|e| match e {
                TraceEvent::Deliver { node, consumed, .. } if *node == down => *consumed,
                _ => 0,
            })
            .sum();
        assert_eq!(
            handled_after_restart,
            sent_to_down(&rt) - before_restart,
            "the restarted replica handles exactly the mail sent after its restart"
        );
        // The live replicas of both groups deliver all five, in one order.
        let deliveries = rt.deliveries();
        let order_of = |p: ProcessId| -> Vec<MsgId> {
            deliveries
                .iter()
                .filter(|d| d.process == p)
                .map(|d| d.delivery.msg.id)
                .collect()
        };
        let reference = order_of(ProcessId(0));
        assert_eq!(reference.len(), 5);
        for p in [2, 3, 4, 5] {
            assert_eq!(order_of(ProcessId(p)), reference, "replica p{p} differs");
        }
    }

    /// A scripted event left behind by one `run` call is applied by the
    /// next, even though the first call's last step took the clock past the
    /// event's time. A submission at 4 ms keeps the cluster busy across the
    /// crash at 5 ms, so the run to 4.97 ms ends with a micro-advance beyond
    /// 5 ms (5.037 ms at seed 1); the run to 5 s must still apply the crash.
    #[test]
    fn a_later_run_applies_what_an_earlier_run_overshot() {
        let (down, client) = (ProcessId(1), ProcessId(6));
        let mut rt = scripted_runtime(1);
        let early = AppMessage::new(
            MsgId::new(client, 99),
            Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
            Payload::from("early"),
        );
        rt.schedule_submit(Duration::from_millis(4), client, early);
        rt.schedule_crash(Duration::from_millis(5), down, Duration::from_secs(60));
        let crashes = |rt: &DeterministicRuntime<WhiteBoxMsg>| {
            rt.trace()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Crash { node, .. } if *node == down))
                .count()
        };
        rt.run(Duration::from_micros(4_970));
        assert!(
            rt.now() > Duration::from_millis(5),
            "the first run stops past the crash's time ({:?})",
            rt.now()
        );
        assert_eq!(crashes(&rt), 0, "the crash is not due within the first run");
        let delivered_by_down = |rt: &DeterministicRuntime<WhiteBoxMsg>| {
            rt.deliveries().iter().filter(|d| d.process == down).count()
        };
        let before = delivered_by_down(&rt);
        rt.run(Duration::from_secs(5));
        assert_eq!(crashes(&rt), 1, "the second run applies the crash");
        assert_eq!(
            delivered_by_down(&rt),
            before,
            "the crashed replica delivers nothing more"
        );
    }
}
