//! Layer replays: what each layer costs per multicast, measured from the
//! outside.
//!
//! A message trace is recorded by running a workload's generator through
//! `DeterministicRuntime` (every retry timer set far beyond the horizon, so
//! the trace holds exactly the failure-free protocol messages). The trace is
//! then replayed node by node: each node is fed, in order, the frames the
//! trace addressed to it; every frame is first decoded from its wire bytes
//! (`wire`), handed to `Node::on_event` (`core`), and every message the node
//! sends in response is encoded (`wire`). Each of those calls is timed
//! individually and recorded as a span whose parent is the multicast it
//! belongs to. Because protocol nodes are deterministic state machines, the
//! replayed node must send exactly what the trace says it sent — that is
//! checked, and it also tells which received frame caused which sent frame,
//! which gives every frame its causal depth (the paper's message delays).

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use wbam_baselines::common::{BaselineClient, BaselineMsg, BaselineReplica, Mode};
use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
use wbam_runtime::{BoxedNode, DeterministicRuntime, SentRecord, TraceEvent};
use wbam_types::wire::{decode_frame_slice, encode_frame_with, WireCodec};
use wbam_types::{Action, AppMessage, ClusterConfig, Event, MsgId, Node, ProcessId, TimerId};

use crate::stats::median;

/// Far beyond any replay horizon: a retry timer set to this never fires.
const NEVER: Duration = Duration::from_secs(3600);

/// Virtual time between scripted submissions when recording a trace.
pub const SUBMIT_SPACING: Duration = Duration::from_micros(200);

/// What travels in a TCP frame. `wbam_runtime`'s own `WireFrame` is private;
/// this mirrors its shape variant for variant, so the encoded bytes — and
/// the cost of producing them — are the ones the deployed transport sees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame<M> {
    /// Connection handshake.
    Hello {
        /// The dialling process.
        from: ProcessId,
    },
    /// A protocol message.
    Protocol(M),
}

/// How a replay looks at a protocol message: a metric-friendly kind and the
/// multicast it belongs to.
pub type Classify<M> = fn(&M) -> (&'static str, Option<MsgId>);

/// Classifier for the white-box protocol.
pub fn classify_whitebox(msg: &WhiteBoxMsg) -> (&'static str, Option<MsgId>) {
    let kind = match msg {
        WhiteBoxMsg::Multicast { .. } => "multicast",
        WhiteBoxMsg::Accept { .. } => "accept",
        WhiteBoxMsg::AcceptAck { .. } => "accept_ack",
        WhiteBoxMsg::Deliver { .. } => "deliver",
        WhiteBoxMsg::ClientReply { .. } => "client_reply",
        _ => "other",
    };
    (kind, msg.subject())
}

/// Classifier for the baselines: only totals are reported for them.
pub fn classify_baseline(_msg: &BaselineMsg) -> (&'static str, Option<MsgId>) {
    ("baseline", None)
}

/// White-box replicas (no failure detector, no batching) and one client,
/// with every retry timer out of reach.
pub fn whitebox_nodes(cluster: &ClusterConfig) -> Vec<BoxedNode<WhiteBoxMsg>> {
    let mut nodes: Vec<BoxedNode<WhiteBoxMsg>> = Vec::new();
    for gc in cluster.groups() {
        for member in gc.members() {
            let cfg = ReplicaConfig::new(*member, gc.id(), cluster.clone())
                .without_auto_election()
                .with_retry_timeout(NEVER);
            nodes.push(Box::new(WhiteBoxReplica::new(cfg)));
        }
    }
    for client in cluster.clients() {
        nodes.push(Box::new(MulticastClient::new(
            ClientConfig::new(*client, cluster.clone()).with_retry_timeout(NEVER),
        )));
    }
    nodes
}

/// Baseline (FastCast / FT-Skeen) replicas and one client.
pub fn baseline_nodes(cluster: &ClusterConfig, mode: Mode) -> Vec<BoxedNode<BaselineMsg>> {
    let mut nodes: Vec<BoxedNode<BaselineMsg>> = Vec::new();
    for gc in cluster.groups() {
        for member in gc.members() {
            nodes.push(Box::new(BaselineReplica::new(
                *member,
                gc.id(),
                cluster.clone(),
                mode,
            )));
        }
    }
    for client in cluster.clients() {
        nodes.push(Box::new(BaselineClient::new(
            *client,
            cluster.clone(),
            NEVER,
        )));
    }
    nodes
}

/// A recorded message trace.
pub struct Recorded<M> {
    /// Every message the transport carried, in global send order
    /// (self-addressed ones included; they never touch the wire).
    pub frames: Vec<SentRecord<M>>,
    /// The submitted multicasts, in submission order.
    pub submits: Vec<AppMessage>,
    /// The submitting client.
    pub client: ProcessId,
    /// Wall time `DeterministicRuntime::run` took.
    pub det_wall: Duration,
    /// Envelopes the runtime's node loops consumed.
    pub det_envelopes: u64,
}

/// Runs `submits` through a `DeterministicRuntime` over `nodes` and returns
/// the trace. Fails if the client did not see every multicast acknowledged.
pub fn record<M: Clone + Send + 'static>(
    nodes: Vec<BoxedNode<M>>,
    client: ProcessId,
    submits: Vec<AppMessage>,
    spacing: Duration,
    seed: u64,
) -> Result<Recorded<M>, String> {
    let mut rt = DeterministicRuntime::new(nodes, seed);
    for (k, msg) in submits.iter().enumerate() {
        rt.schedule_submit(spacing * k as u32, client, msg.clone());
    }
    let horizon = spacing * submits.len() as u32 + Duration::from_secs(60);
    let begin = Instant::now();
    rt.run(horizon);
    let det_wall = begin.elapsed();
    let completed = rt
        .deliveries()
        .iter()
        .filter(|d| d.process == client)
        .count();
    if completed != submits.len() {
        return Err(format!(
            "deterministic run acknowledged {completed} of {} multicasts",
            submits.len()
        ));
    }
    let det_envelopes = rt
        .trace()
        .iter()
        .map(|e| match e {
            TraceEvent::Deliver { consumed, .. } => *consumed as u64,
            _ => 0,
        })
        .sum();
    Ok(Recorded {
        frames: rt.sent_messages(),
        submits,
        client,
        det_wall,
        det_envelopes,
    })
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the multicast (in submission order) this call worked for;
    /// it names the parent span.
    pub multicast: Option<usize>,
    /// The node the call ran at.
    pub node: ProcessId,
    /// `wire.decode`, `core.on_event` or `wire.encode`.
    pub layer: &'static str,
    /// Message kind.
    pub kind: &'static str,
    /// Start, nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, nanoseconds since the replay began.
    pub end_ns: u64,
}

/// A node's role in the replayed cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// Initial leader of its group.
    Leader,
    /// Any other group member.
    Follower,
    /// The multicasting client.
    Client,
}

#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    count: u64,
    ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }
    fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.ns as f64 / self.count as f64)
    }
}

/// Everything one replay pass measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    on_event: BTreeMap<&'static str, Tally>,
    encode: BTreeMap<&'static str, Tally>,
    decode: BTreeMap<&'static str, Tally>,
    /// `on_event` nanoseconds by (role, multicast is cross-group).
    role_ns: BTreeMap<(Role, bool), u64>,
    /// `Node::on_event` calls (the `Init` of every node excluded).
    pub events: u64,
    /// Actions those calls returned.
    pub actions: u64,
    /// Frames that crossed the wire (sender ≠ receiver), by cross-group.
    pub wire_frames: [u64; 2],
    /// Their encoded bytes, length prefix included, by cross-group.
    pub wire_bytes: [u64; 2],
    /// Multicasts in the trace, by cross-group.
    pub multicasts: [u64; 2],
    /// Causal depth at which each group leader delivered each multicast:
    /// `(multicast index, depth)`, the client's `MULTICAST` being depth 1.
    pub leader_delivery_depth: Vec<(usize, u32)>,
    /// The individual calls, for the first `span_limit` multicasts.
    pub spans: Vec<Span>,
}

impl Replay {
    fn mean_of(map: &BTreeMap<&'static str, Tally>, kind: Option<&str>) -> Option<f64> {
        match kind {
            Some(kind) => map.get(kind)?.mean(),
            None => {
                let total = map.values().fold(Tally::default(), |acc, t| Tally {
                    count: acc.count + t.count,
                    ns: acc.ns + t.ns,
                });
                total.mean()
            }
        }
    }

    /// Mean `on_event` nanoseconds for events of `kind`.
    pub fn on_event_ns(&self, kind: &str) -> Option<f64> {
        Self::mean_of(&self.on_event, Some(kind))
    }

    /// Mean encode nanoseconds per frame (`None`: all kinds).
    pub fn encode_ns(&self, kind: Option<&str>) -> Option<f64> {
        Self::mean_of(&self.encode, kind)
    }

    /// Mean decode nanoseconds per frame (`None`: all kinds).
    pub fn decode_ns(&self, kind: Option<&str>) -> Option<f64> {
        Self::mean_of(&self.decode, kind)
    }

    /// Total `on_event` nanoseconds of all nodes of `role`, per multicast of
    /// the given class.
    pub fn role_ns_per_multicast(&self, role: Role, cross_group: bool) -> Option<f64> {
        let n = self.multicasts[cross_group as usize];
        (n > 0).then(|| *self.role_ns.get(&(role, cross_group)).unwrap_or(&0) as f64 / n as f64)
    }

    /// Total `on_event` nanoseconds of all nodes, per multicast (both
    /// classes together).
    pub fn core_ns_per_multicast(&self) -> f64 {
        self.role_ns.values().sum::<u64>() as f64 / self.total_multicasts() as f64
    }

    /// Total encode plus decode nanoseconds, per multicast.
    pub fn wire_ns_per_multicast(&self) -> f64 {
        let ns: u64 = self
            .encode
            .values()
            .chain(self.decode.values())
            .map(|t| t.ns)
            .sum();
        ns as f64 / self.total_multicasts() as f64
    }

    /// Multicasts in the trace.
    pub fn total_multicasts(&self) -> u64 {
        self.multicasts[0] + self.multicasts[1]
    }

    /// Wire frames per multicast of the given class.
    pub fn frames_per_multicast(&self, cross_group: bool) -> Option<f64> {
        let n = self.multicasts[cross_group as usize];
        (n > 0).then(|| self.wire_frames[cross_group as usize] as f64 / n as f64)
    }

    /// Wire bytes per multicast of the given class.
    pub fn bytes_per_multicast(&self, cross_group: bool) -> Option<f64> {
        let n = self.multicasts[cross_group as usize];
        (n > 0).then(|| self.wire_bytes[cross_group as usize] as f64 / n as f64)
    }

    /// Mean encoded frame size.
    pub fn bytes_per_frame(&self) -> f64 {
        (self.wire_bytes[0] + self.wire_bytes[1]) as f64
            / (self.wire_frames[0] + self.wire_frames[1]).max(1) as f64
    }

    /// Largest causal depth at which a leader delivered a multicast of the
    /// given class.
    pub fn max_leader_delivery_depth(
        &self,
        submits: &[AppMessage],
        cross_group: bool,
    ) -> Option<u32> {
        self.leader_delivery_depth
            .iter()
            .filter(|(m, _)| (submits[*m].dest.len() > 1) == cross_group)
            .map(|(_, d)| *d)
            .max()
    }
}

/// What a replayed node did, in order: the raw material for causal depths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogEntry {
    /// Received the frame with this trace index.
    Received(usize),
    /// Sent the frame with this trace index.
    Sent(usize),
    /// A group leader delivered this multicast.
    LeaderDelivered(usize),
}

/// The state of replaying one node.
struct NodeRun<'a, M> {
    trace: &'a Recorded<M>,
    classify: Classify<M>,
    codec: WireCodec,
    /// Wire bytes of every frame of the trace (`None`: self-addressed).
    bytes: &'a [Option<Bytes>],
    index_of: &'a HashMap<MsgId, usize>,
    span_limit: usize,
    origin: Instant,
    node: BoxedNode<M>,
    role: Role,
    /// Trace indices of the frames this node sent, in order.
    outputs: Vec<usize>,
    next_output: usize,
    next_submit: usize,
    now: Duration,
    out: &'a mut Replay,
    log: Vec<LogEntry>,
}

impl<M> NodeRun<'_, M>
where
    M: Clone + Send + Serialize + DeserializeOwned + 'static,
{
    fn is_cross(&self, multicast: Option<usize>) -> bool {
        multicast.is_some_and(|m| self.trace.submits[m].dest.len() > 1)
    }

    fn span(
        &mut self,
        multicast: Option<usize>,
        layer: &'static str,
        kind: &'static str,
        begin: Instant,
        end: Instant,
    ) -> u64 {
        let since = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        if multicast.is_some_and(|m| m < self.span_limit) {
            self.out.spans.push(Span {
                multicast,
                node: self.node.id(),
                layer,
                kind,
                start_ns: since(begin),
                end_ns: since(end),
            });
        }
        end.duration_since(begin).as_nanos() as u64
    }

    /// Hands `event` to the node, times it, and accounts for its actions:
    /// every send is matched against the trace and encoded.
    fn step(
        &mut self,
        event: Event<M>,
        kind: &'static str,
        multicast: Option<usize>,
    ) -> Result<(), String> {
        let p = self.node.id();
        self.now += Duration::from_micros(1);
        let begin = Instant::now();
        let actions = self.node.on_event(self.now, event);
        let end = Instant::now();
        let ns = self.span(multicast, "core.on_event", kind, begin, end);
        self.out.on_event.entry(kind).or_default().add(ns);
        *self
            .out
            .role_ns
            .entry((self.role, self.is_cross(multicast)))
            .or_default() += ns;
        self.out.events += 1;
        self.out.actions += actions.len() as u64;
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let Some(&slot) = self.outputs.get(self.next_output) else {
                        return Err(format!("replayed {p} sends more than the trace recorded"));
                    };
                    self.next_output += 1;
                    let (sent_kind, _) = (self.classify)(&msg);
                    let recorded = &self.trace.frames[slot];
                    if recorded.to != to || (self.classify)(&recorded.msg).0 != sent_kind {
                        return Err(format!(
                            "replayed {p} diverged from the trace at its send #{}",
                            self.next_output
                        ));
                    }
                    self.log.push(LogEntry::Sent(slot));
                    if to == p {
                        continue; // self-addressed: never encoded
                    }
                    let begin = Instant::now();
                    let encoded = encode_frame_with(self.codec, &Frame::Protocol(msg))
                        .map_err(|e| e.to_string())?;
                    let end = Instant::now();
                    if Some(encoded.len()) != self.bytes[slot].as_ref().map(|b| b.len()) {
                        return Err(format!("replayed {p} encoded a different frame #{slot}"));
                    }
                    let ns = self.span(multicast, "wire.encode", sent_kind, begin, end);
                    self.out.encode.entry(sent_kind).or_default().add(ns);
                }
                Action::Deliver(d) if self.role == Role::Leader => {
                    if let Some(&m) = self.index_of.get(&d.msg.id) {
                        self.log.push(LogEntry::LeaderDelivered(m));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Feeds the client every not-yet-submitted multicast below `limit`.
    fn submit_up_to(&mut self, limit: usize) -> Result<(), String> {
        while self.next_submit < limit {
            let m = self.next_submit;
            self.next_submit += 1;
            let event = Event::Multicast(self.trace.submits[m].clone());
            self.step(event, "submit", Some(m))?;
        }
        Ok(())
    }

    /// Decodes received frame `i` from its wire bytes and steps the node
    /// with it.
    fn receive(&mut self, i: usize) -> Result<(), String> {
        let trace = self.trace;
        let frame = &trace.frames[i];
        let (kind, subject) = (self.classify)(&frame.msg);
        let multicast = subject.and_then(|id| self.index_of.get(&id).copied());
        if self.node.id() == trace.client {
            // The client submits a multicast before it is told the outcome.
            if let Some(m) = multicast {
                self.submit_up_to(m + 1)?;
            }
        }
        let msg = match &self.bytes[i] {
            None => frame.msg.clone(),
            Some(encoded) => {
                let begin = Instant::now();
                let decoded = decode_frame_slice::<Frame<M>>(self.codec, encoded)
                    .map_err(|e| e.to_string())?;
                let end = Instant::now();
                let ns = self.span(multicast, "wire.decode", kind, begin, end);
                self.out.decode.entry(kind).or_default().add(ns);
                match decoded {
                    Some((Frame::Protocol(msg), _)) => msg,
                    _ => return Err(format!("frame #{i} did not decode to a protocol message")),
                }
            }
        };
        self.log.push(LogEntry::Received(i));
        self.step(Event::message(frame.from, msg), kind, multicast)
    }
}

/// Replays `trace` through fresh `nodes` with `codec` on the wire; see the
/// module docs. Spans are kept for the first `span_limit` multicasts.
pub fn replay<M>(
    trace: &Recorded<M>,
    nodes: Vec<BoxedNode<M>>,
    cluster: &ClusterConfig,
    classify: Classify<M>,
    codec: WireCodec,
    span_limit: usize,
) -> Result<Replay, String>
where
    M: Clone + Send + Serialize + DeserializeOwned + 'static,
{
    let mut out = Replay::default();
    let index_of: HashMap<MsgId, usize> = trace
        .submits
        .iter()
        .enumerate()
        .map(|(i, m)| (m.id, i))
        .collect();
    for m in &trace.submits {
        out.multicasts[(m.dest.len() > 1) as usize] += 1;
    }
    let role_of = |p: ProcessId| -> Role {
        match cluster.group_of(p) {
            None => Role::Client,
            Some(g) if cluster.group(g).map(|gc| gc.initial_leader()) == Some(p) => Role::Leader,
            Some(_) => Role::Follower,
        }
    };

    // The bytes every wire frame travelled as (encoded here, untimed), and
    // the per-class wire totals.
    let mut bytes: Vec<Option<Bytes>> = Vec::with_capacity(trace.frames.len());
    for frame in &trace.frames {
        if frame.from == frame.to {
            bytes.push(None);
            continue;
        }
        let encoded = encode_frame_with(codec, &Frame::Protocol(frame.msg.clone()))
            .map_err(|e| e.to_string())?;
        let class = classify(&frame.msg)
            .1
            .and_then(|id| index_of.get(&id))
            .is_some_and(|&m| trace.submits[m].dest.len() > 1) as usize;
        out.wire_frames[class] += 1;
        out.wire_bytes[class] += encoded.len() as u64;
        bytes.push(Some(encoded));
    }

    let mut logs: Vec<(ProcessId, Vec<LogEntry>)> = Vec::new();
    let origin = Instant::now();
    for node in nodes {
        let p = node.id();
        let frames_where = |pick: fn(&SentRecord<M>) -> ProcessId| -> Vec<usize> {
            (0..trace.frames.len())
                .filter(|&i| pick(&trace.frames[i]) == p)
                .collect()
        };
        let inputs = frames_where(|f| f.to);
        let mut run = NodeRun {
            trace,
            classify,
            codec,
            bytes: &bytes,
            index_of: &index_of,
            span_limit,
            origin,
            node,
            role: role_of(p),
            outputs: frames_where(|f| f.from),
            next_output: 0,
            next_submit: 0,
            now: Duration::ZERO,
            out: &mut out,
            log: Vec::new(),
        };
        run.node.on_event(Duration::ZERO, Event::Init);
        for i in inputs {
            run.receive(i)?;
        }
        if p == trace.client {
            run.submit_up_to(trace.submits.len())?;
        }
        if run.next_output != run.outputs.len() {
            return Err(format!(
                "replayed {p} sent {} messages, the trace recorded {}",
                run.next_output,
                run.outputs.len()
            ));
        }
        logs.push((p, run.log));
    }

    let multicast_of = |i: usize| -> Option<usize> {
        classify(&trace.frames[i].msg)
            .1
            .and_then(|id| index_of.get(&id).copied())
    };
    out.leader_delivery_depth = causal_depths(&logs, trace.frames.len(), multicast_of, |i| {
        trace.frames[i].from != trace.frames[i].to
    });
    Ok(out)
}

/// Message delays, per multicast: the depth of a frame is one more than the
/// deepest frame *of the same multicast* its sender had received before
/// sending it (a Lamport clock per node and multicast), except that a frame a
/// node addresses to itself never touches the network and adds nothing. The
/// client's `MULTICAST` is therefore depth 1, and a leader's delivery is as
/// deep as the deepest frame of that multicast it had received by then.
/// Returns `(multicast, depth)` for every leader delivery.
///
/// Frames are indexed in global send order, and a node can only have received
/// frames sent before the one it is sending, so one pass in index order sees
/// every depth it needs already computed.
fn causal_depths(
    logs: &[(ProcessId, Vec<LogEntry>)],
    frames: usize,
    multicast_of: impl Fn(usize) -> Option<usize>,
    on_wire: impl Fn(usize) -> bool,
) -> Vec<(usize, u32)> {
    struct Walk<'a> {
        log: &'a [LogEntry],
        cursor: usize,
        clock: HashMap<usize, u32>,
    }
    let mut depth = vec![0u32; frames];
    let mut deliveries = Vec::new();
    let mut walks: Vec<Walk> = logs
        .iter()
        .map(|(_, log)| Walk {
            log,
            cursor: 0,
            clock: HashMap::new(),
        })
        .collect();
    let sender_walk: HashMap<usize, usize> = logs
        .iter()
        .enumerate()
        .flat_map(|(w, (_, log))| {
            log.iter().filter_map(move |e| match e {
                LogEntry::Sent(slot) => Some((*slot, w)),
                _ => None,
            })
        })
        .collect();
    // Advances one node's walk to just past `until` (or to the end).
    let mut advance = |walk: &mut Walk, until: Option<usize>, depth: &mut [u32]| {
        while let Some(entry) = walk.log.get(walk.cursor) {
            walk.cursor += 1;
            match *entry {
                LogEntry::Received(i) => {
                    if let Some(m) = multicast_of(i) {
                        let clock = walk.clock.entry(m).or_default();
                        *clock = (*clock).max(depth[i]);
                    }
                }
                LogEntry::Sent(slot) => {
                    let base = multicast_of(slot)
                        .and_then(|m| walk.clock.get(&m).copied())
                        .unwrap_or(0);
                    depth[slot] = base + on_wire(slot) as u32;
                    if Some(slot) == until {
                        return;
                    }
                }
                LogEntry::LeaderDelivered(m) => {
                    deliveries.push((m, walk.clock.get(&m).copied().unwrap_or(0)));
                }
            }
        }
    };
    for slot in 0..frames {
        if let Some(&w) = sender_walk.get(&slot) {
            advance(&mut walks[w], Some(slot), &mut depth);
        }
    }
    for walk in &mut walks {
        advance(walk, None, &mut depth);
    }
    deliveries
}

/// Mean nanoseconds per `Event::Timer` on a white-box group leader with the
/// failure detector on: the heartbeat timer is fired `rounds` times, each
/// firing re-arming the next.
pub fn timer_probe(cluster: &ClusterConfig, rounds: usize) -> Option<f64> {
    let gc = cluster.groups().first()?;
    let cfg = ReplicaConfig::new(gc.initial_leader(), gc.id(), cluster.clone())
        .with_election_timeouts(Duration::from_millis(100), Duration::from_secs(2));
    let mut leader = WhiteBoxReplica::new(cfg);
    let armed = |actions: &[Action<WhiteBoxMsg>]| -> Option<(TimerId, Duration)> {
        actions.iter().find_map(|a| match a {
            Action::SetTimer { id, delay } => Some((*id, *delay)),
            _ => None,
        })
    };
    let mut now = Duration::ZERO;
    let mut next = armed(&leader.on_event(now, Event::Init))?;
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        now += next.1;
        let begin = Instant::now();
        let actions = leader.on_event(now, Event::Timer { id: next.0, now });
        samples.push(begin.elapsed().as_nanos() as f64);
        next = armed(&actions)?;
    }
    crate::stats::mean(&samples)
}

/// Named timings of a replay: the median over passes of each pass's mean.
pub type Timings = BTreeMap<String, f64>;

/// Runs `pass` `passes` times and returns, per name, the median of the
/// passes' values — a pass disturbed by a neighbour does not decide a
/// layer's cost.
pub fn median_of_passes(
    passes: usize,
    mut pass: impl FnMut(usize) -> Result<Vec<(String, f64)>, String>,
) -> Result<Timings, String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..passes {
        for (name, value) in pass(i)? {
            values.entry(name).or_default().push(value);
        }
    }
    Ok(values
        .into_iter()
        .map(|(name, v)| (name, median(&v).expect("at least one value")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, Generator};

    /// One message at a time: each multicast is done before the next starts.
    const PROBE_SPACING: Duration = Duration::from_millis(10);

    fn trace_of(
        workload: &str,
        n: usize,
        spacing: Duration,
    ) -> (ClusterConfig, Recorded<WhiteBoxMsg>) {
        let w = by_name(workload).unwrap();
        let cluster = ClusterConfig::builder()
            .groups(w.groups, 3)
            .clients(1)
            .build();
        let client = cluster.clients()[0];
        let mut gen = Generator::new(&w, client, 5, 0);
        let submits = (0..n).map(|_| gen.next_message()).collect();
        let trace = record(whitebox_nodes(&cluster), client, submits, spacing, 5).unwrap();
        (cluster, trace)
    }

    #[test]
    fn single_group_replay_is_faithful_and_three_hops_deep() {
        let (cluster, trace) = trace_of("pipelined_1g", 50, PROBE_SPACING);
        let r = replay(
            &trace,
            whitebox_nodes(&cluster),
            &cluster,
            classify_whitebox,
            WireCodec::Binary,
            10,
        )
        .unwrap();
        assert_eq!(r.multicasts, [50, 0]);
        // MULTICAST, 2 ACCEPT, 2 ACCEPT_ACK, 2 DELIVER and a CLIENT_REPLY
        // from each of the 3 replicas cross the wire; the leader's messages
        // to itself do not.
        assert_eq!(r.frames_per_multicast(false), Some(10.0));
        assert_eq!(r.encode.get("client_reply").map(|t| t.count), Some(150));
        assert_eq!(r.frames_per_multicast(true), None);
        assert_eq!(r.max_leader_delivery_depth(&trace.submits, false), Some(3));
        assert_eq!(r.leader_delivery_depth.len(), 50);
        assert!(r.on_event_ns("accept_ack").unwrap() > 0.0);
        assert!(r.encode_ns(None).unwrap() > 0.0);
        assert!(r.decode_ns(Some("deliver")).unwrap() > 0.0);
        assert!(!r.spans.is_empty());
        assert!(r
            .spans
            .iter()
            .all(|s| s.multicast.unwrap() < 10 && s.end_ns >= s.start_ns));
        // Counts are exact: a second replay agrees bit for bit.
        let again = replay(
            &trace,
            whitebox_nodes(&cluster),
            &cluster,
            classify_whitebox,
            WireCodec::Json,
            0,
        )
        .unwrap();
        assert_eq!((r.events, r.actions), (again.events, again.actions));
        assert_eq!(r.wire_frames, again.wire_frames);
        assert!(
            again.wire_bytes[0] > r.wire_bytes[0],
            "JSON frames are larger"
        );
    }

    #[test]
    fn cross_group_replay_attributes_both_classes() {
        let (cluster, trace) = trace_of("conflict_2g", 80, SUBMIT_SPACING);
        let r = replay(
            &trace,
            whitebox_nodes(&cluster),
            &cluster,
            classify_whitebox,
            WireCodec::Binary,
            0,
        )
        .unwrap();
        assert_eq!(r.total_multicasts(), 80);
        assert!(r.multicasts[0] > 0 && r.multicasts[1] > 0);
        assert!(r.frames_per_multicast(true).unwrap() > r.frames_per_multicast(false).unwrap());
        assert!(r.role_ns_per_multicast(Role::Leader, true).unwrap() > 0.0);
        assert!(r.max_leader_delivery_depth(&trace.submits, true).unwrap() >= 3);
    }

    #[test]
    fn baselines_replay_faithfully_too() {
        let w = by_name("conflict_2g").unwrap();
        let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
        let client = cluster.clients()[0];
        for mode in [Mode::FastCast, Mode::FtSkeen] {
            let mut gen = Generator::new(&w, client, 9, 0);
            let submits: Vec<AppMessage> = (0..40).map(|_| gen.next_message()).collect();
            let trace = record(
                baseline_nodes(&cluster, mode),
                client,
                submits,
                SUBMIT_SPACING,
                9,
            )
            .unwrap();
            let r = replay(
                &trace,
                baseline_nodes(&cluster, mode),
                &cluster,
                classify_baseline,
                WireCodec::Binary,
                0,
            )
            .unwrap();
            assert!(r.core_ns_per_multicast() > 0.0);
            assert!(r.wire_frames[0] > 0);
        }
    }

    #[test]
    fn heartbeat_timer_probe_fires() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        assert!(timer_probe(&cluster, 100).unwrap() > 0.0);
    }

    #[test]
    fn passes_combine_by_median() {
        let combined = median_of_passes(3, |i| {
            Ok(vec![
                ("a".to_string(), [1.0, 100.0, 3.0][i]),
                ("b".to_string(), 7.0),
            ])
        })
        .unwrap();
        assert_eq!(combined["a"], 3.0);
        assert_eq!(combined["b"], 7.0);
    }
}
