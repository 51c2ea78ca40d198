//! Cross-protocol integration tests of the atomic multicast correctness
//! properties from §II of the paper: Validity, Integrity, Ordering and
//! Termination, plus genuineness, checked on simulated runs of every
//! protocol in the workspace.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use wbam::core::invariants::{check_delivery_order, check_total_order};
use wbam::core::{
    ClientConfig, DeliverMsg, MulticastClient, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica,
};
use wbam::harness::{ClusterSpec, Protocol, ProtocolSim};
use wbam::simnet::{LatencyModel, MetricsView, SimConfig, Simulation};
use wbam::types::{
    Action, AppMessage, ClusterConfig, Destination, Event, GroupId, MsgId, Node, Payload,
    ProcessId, TimerId, Timestamp,
};

/// Per-process delivery sequences, tagged with global timestamps.
type DeliverySequences = BTreeMap<ProcessId, Vec<(MsgId, Timestamp)>>;

/// One multicast of a workload: (submission time, client index, destinations).
type Submission = (Duration, usize, Vec<GroupId>);

/// How a random workload draws each multicast's destination set.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Destinations {
    /// 1–3 groups of the whole cluster, submitted over 20 ms.
    Any,
    /// 2–3 of groups 0..3, submitted over 10 ms, so the multicasts conflict
    /// with each other; groups 3 and up are in no destination set, which
    /// makes them a genuineness control.
    Conflicting,
}

const LATENCY_MIN: Duration = Duration::from_micros(500);
const LATENCY_MAX: Duration = Duration::from_millis(3);

/// Draws `messages` random multicasts from two clients.
fn draw_workload(
    num_groups: usize,
    messages: usize,
    seed: u64,
    shape: Destinations,
) -> Vec<Submission> {
    let mut rng = StdRng::seed_from_u64(seed);
    let group_ids: Vec<GroupId> = (0..num_groups as u32).map(GroupId).collect();
    let (pool, counts, window_us) = match shape {
        Destinations::Any => (num_groups, 1..=num_groups.min(3), 20_000),
        Destinations::Conflicting => (3, 2..=3, 10_000),
    };
    (0..messages)
        .map(|_| {
            let count = rng.gen_range(counts.clone());
            let mut dest = group_ids[..pool].to_vec();
            dest.shuffle(&mut rng);
            dest.truncate(count);
            let at = Duration::from_micros(rng.gen_range(0..window_us));
            (at, rng.gen_range(0..2), dest)
        })
        .collect()
}

/// The replicas' delivery sequences of a run.
fn sequences_of(metrics: &MetricsView) -> DeliverySequences {
    let mut sequences: DeliverySequences = BTreeMap::new();
    for rec in metrics.deliveries() {
        if rec.group.is_none() {
            continue; // client-side completion records
        }
        sequences
            .entry(rec.process)
            .or_default()
            .push((rec.msg_id, rec.global_ts.unwrap_or(Timestamp::BOTTOM)));
    }
    sequences
}

/// Runs a random workload on a protocol and returns (per-process delivery
/// sequences with timestamps, per-message destinations, delivered set).
fn run_random_workload(
    protocol: Protocol,
    num_groups: usize,
    messages: usize,
    seed: u64,
    shape: Destinations,
) -> (
    DeliverySequences,
    BTreeMap<MsgId, Vec<GroupId>>,
    ProtocolSim,
) {
    let spec = ClusterSpec {
        num_groups,
        group_size: if protocol == Protocol::Skeen { 1 } else { 3 },
        num_clients: 2,
        num_sites: 1,
        latency: LatencyModel::uniform(LATENCY_MIN, LATENCY_MAX),
        service_time: Duration::ZERO,
        seed,
        nemesis: wbam_types::NemesisPlan::quiet(),
        record_trace: false,
        auto_election: false,
        compaction_interval: 0,
        compaction_lag: 0,
    };
    let mut sim = ProtocolSim::build(protocol, &spec);
    let mut destinations = BTreeMap::new();
    for (at, client, dest) in draw_workload(num_groups, messages, seed, shape) {
        let id = sim.submit(at, client, &dest, 20);
        destinations.insert(id, dest);
    }
    sim.run_until_quiescent(Duration::from_secs(120));
    (sequences_of(&sim.metrics()), destinations, sim)
}

/// The timer that closes a [`Rounds`] round early.
const ROUND_TIMER: TimerId = TimerId(u64::MAX);
/// How long a [`Rounds`] round stays open after its first send.
const ROUND_TIMEOUT: Duration = Duration::from_micros(500);

/// A white-box replica whose sends leave in rounds, each peer's share of a
/// round passed through the replica's own [`Node::fold_sends`] with its
/// state at the end of the round, as a runtime with a wire sends them. A
/// round closes once `round` events have sent into it, or [`ROUND_TIMEOUT`]
/// after its first send; `round == 1` folds what each event sends one peer.
struct Rounds {
    inner: WhiteBoxReplica,
    round: usize,
    events: usize,
    outbox: BTreeMap<ProcessId, Vec<WhiteBoxMsg>>,
    /// `DELIVER` entries sent by reference to another process, over every
    /// replica of the run.
    references: Rc<Cell<usize>>,
}

impl Rounds {
    fn flush(&mut self, out: &mut Vec<Action<WhiteBoxMsg>>) {
        self.events = 0;
        for (to, mut msgs) in std::mem::take(&mut self.outbox) {
            self.inner.fold_sends(to, &mut msgs);
            if to != self.inner.id() {
                let refs = msgs.iter().filter(|m| is_reference(m)).count();
                self.references.set(self.references.get() + refs);
            }
            out.extend(msgs.into_iter().map(|msg| Action::send(to, msg)));
        }
    }
}

/// Whether `msg` is a `DELIVER` by reference.
fn is_reference(msg: &WhiteBoxMsg) -> bool {
    matches!(
        msg,
        WhiteBoxMsg::Deliver {
            msg: DeliverMsg::Ref(_),
            ..
        }
    )
}

impl Node for Rounds {
    type Msg = WhiteBoxMsg;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_event(&mut self, now: Duration, event: Event<WhiteBoxMsg>) -> Vec<Action<WhiteBoxMsg>> {
        let mut out = Vec::new();
        if let Event::Timer {
            id: ROUND_TIMER, ..
        } = event
        {
            self.flush(&mut out);
            return out;
        }
        let opened = self.outbox.is_empty();
        for action in self.inner.on_event(now, event) {
            match action {
                Action::Send { to, msg } => self.outbox.entry(to).or_default().push(msg),
                other => out.push(other),
            }
        }
        if self.outbox.is_empty() {
            return out;
        }
        self.events += 1;
        if self.events == self.round {
            if !opened {
                out.push(Action::CancelTimer(ROUND_TIMER));
            }
            self.flush(&mut out);
        } else if opened {
            out.push(Action::SetTimer {
                id: ROUND_TIMER,
                delay: ROUND_TIMEOUT,
            });
        }
        out
    }
}

/// Runs a random white-box workload on a 4-group cluster whose replicas
/// send in folded rounds of up to `round` events (see [`Rounds`]). Returns
/// the delivery sequences, the destinations, the run's metrics and cluster,
/// and how many `DELIVER`s crossed to another process by reference.
fn run_rounds_workload(
    round: usize,
    messages: usize,
    seed: u64,
    shape: Destinations,
) -> (
    DeliverySequences,
    BTreeMap<MsgId, Vec<GroupId>>,
    MetricsView,
    ClusterConfig,
    usize,
) {
    let cluster = ClusterConfig::builder().groups(4, 3).clients(2).build();
    let mut sim = Simulation::new(SimConfig {
        seed,
        latency: LatencyModel::uniform(LATENCY_MIN, LATENCY_MAX),
        ..SimConfig::default()
    });
    let references = Rc::new(Cell::new(0));
    for gc in cluster.groups() {
        for member in gc.members() {
            let cfg = ReplicaConfig::new(*member, gc.id(), cluster.clone()).without_auto_election();
            let node = Rounds {
                inner: WhiteBoxReplica::new(cfg),
                round,
                events: 0,
                outbox: BTreeMap::new(),
                references: Rc::clone(&references),
            };
            sim.add_replica(Box::new(node), gc.id(), cluster.site_of(*member));
        }
    }
    for client in cluster.clients() {
        let cfg =
            ClientConfig::new(*client, cluster.clone()).with_retry_timeout(Duration::from_secs(2));
        sim.add_client_at(
            Box::new(MulticastClient::new(cfg)),
            cluster.site_of(*client),
        );
    }
    let mut next_seq = [0u64; 2];
    let mut destinations = BTreeMap::new();
    for (at, client, dest) in draw_workload(4, messages, seed, shape) {
        let id = MsgId::new(cluster.clients()[client], next_seq[client]);
        next_seq[client] += 1;
        let to = Destination::new(dest.iter().copied()).expect("non-empty destination");
        sim.schedule_multicast(
            at,
            id.sender,
            AppMessage::new(id, to, Payload::from(vec![0u8; 20])),
        );
        destinations.insert(id, dest);
    }
    sim.run_until_quiescent(Duration::from_secs(120));
    let metrics = sim.metrics();
    (
        sequences_of(&metrics),
        destinations,
        metrics,
        cluster,
        references.get(),
    )
}

fn assert_core_properties(
    sequences: &DeliverySequences,
    destinations: &BTreeMap<MsgId, Vec<GroupId>>,
    metrics: &MetricsView,
    cluster: &ClusterConfig,
    expect_all_delivered: bool,
) {
    // Validity: only multicast messages are delivered, and only at their
    // destination groups.
    for (process, seq) in sequences {
        let group = cluster.group_of(*process).expect("replica process");
        for (msg, _) in seq {
            let dest = destinations
                .get(msg)
                .expect("delivered message was multicast");
            assert!(
                dest.contains(&group),
                "{process} in {group} delivered {msg} not addressed to it"
            );
        }
    }

    // Integrity + per-process timestamp order.
    check_delivery_order(sequences).expect("integrity / order violated");

    // Ordering: one total order (by global timestamp), agreed across processes.
    check_total_order(sequences).expect("ordering violated");

    // Pairwise prefix consistency on common messages: for any two processes,
    // the messages they both delivered appear in the same relative order.
    let procs: Vec<&ProcessId> = sequences.keys().collect();
    for (i, p) in procs.iter().enumerate() {
        for q in procs.iter().skip(i + 1) {
            let seq_p: Vec<MsgId> = sequences[p].iter().map(|(m, _)| *m).collect();
            let seq_q: Vec<MsgId> = sequences[q].iter().map(|(m, _)| *m).collect();
            let common_p: Vec<MsgId> = seq_p
                .iter()
                .copied()
                .filter(|m| seq_q.contains(m))
                .collect();
            let common_q: Vec<MsgId> = seq_q
                .iter()
                .copied()
                .filter(|m| seq_p.contains(m))
                .collect();
            assert_eq!(
                common_p, common_q,
                "processes {p} and {q} deliver their common messages in different orders"
            );
        }
    }

    // Termination (failure-free runs): every multicast message is delivered in
    // every destination group.
    if expect_all_delivered {
        for msg in destinations.keys() {
            assert!(
                metrics.is_partially_delivered(*msg),
                "message {msg} was never (partially) delivered"
            );
        }
    }
}

#[test]
fn whitebox_satisfies_atomic_multicast_properties() {
    for seed in [1, 2, 3] {
        let (sequences, destinations, sim) =
            run_random_workload(Protocol::WhiteBox, 4, 30, seed, Destinations::Any);
        assert_core_properties(
            &sequences,
            &destinations,
            &sim.metrics(),
            sim.cluster(),
            true,
        );
    }
}

#[test]
fn ftskeen_satisfies_atomic_multicast_properties() {
    let (sequences, destinations, sim) =
        run_random_workload(Protocol::FtSkeen, 3, 20, 11, Destinations::Any);
    assert_core_properties(
        &sequences,
        &destinations,
        &sim.metrics(),
        sim.cluster(),
        true,
    );
}

#[test]
fn fastcast_satisfies_atomic_multicast_properties() {
    let (sequences, destinations, sim) =
        run_random_workload(Protocol::FastCast, 3, 20, 12, Destinations::Any);
    assert_core_properties(
        &sequences,
        &destinations,
        &sim.metrics(),
        sim.cluster(),
        true,
    );
}

#[test]
fn plain_skeen_satisfies_atomic_multicast_properties() {
    let (sequences, destinations, sim) =
        run_random_workload(Protocol::Skeen, 4, 30, 13, Destinations::Any);
    assert_core_properties(
        &sequences,
        &destinations,
        &sim.metrics(),
        sim.cluster(),
        true,
    );
}

#[test]
fn genuineness_disjoint_destinations_do_not_touch_other_groups() {
    // Messages addressed only to groups {0,1}; replicas of groups {2,3} must
    // neither deliver anything nor send any protocol messages beyond their
    // initial (empty) activity.
    let spec = ClusterSpec::constant_delta(4, 3, Duration::from_millis(1));
    let mut sim = ProtocolSim::build(Protocol::WhiteBox, &spec);
    for i in 0..10u64 {
        sim.submit(Duration::from_millis(i), 0, &[GroupId(0), GroupId(1)], 20);
    }
    sim.run_until_quiescent(Duration::from_secs(10));
    let metrics = sim.metrics();
    let cluster = sim.cluster().clone();
    for gc in cluster.groups() {
        for member in gc.members() {
            let delivered = metrics.delivery_order_at(*member).len();
            if gc.id() == GroupId(2) || gc.id() == GroupId(3) {
                assert_eq!(delivered, 0, "{member} of uninvolved {} delivered", gc.id());
            } else {
                assert_eq!(delivered, 10, "{member} of {} missed messages", gc.id());
            }
        }
    }
}

#[test]
fn conflicting_and_disjoint_mix_keeps_projection_property() {
    // Half the messages go to {g0,g1}, half to {g2}; g2's order must simply be
    // the projection, unaffected by the conflicting traffic elsewhere.
    let spec = ClusterSpec::constant_delta(3, 3, Duration::from_millis(1));
    let mut sim = ProtocolSim::build(Protocol::WhiteBox, &spec);
    let mut to_g2 = Vec::new();
    for i in 0..10u64 {
        sim.submit(
            Duration::from_micros(i * 300),
            0,
            &[GroupId(0), GroupId(1)],
            20,
        );
        let id = sim.submit(Duration::from_micros(i * 300 + 100), 0, &[GroupId(2)], 20);
        to_g2.push(id);
    }
    sim.run_until_quiescent(Duration::from_secs(10));
    let metrics = sim.metrics();
    // g2's replicas deliver exactly the g2 messages, in submission order is not
    // required — but all replicas of g2 agree and deliver all of them.
    let reference = metrics.delivery_order_at(ProcessId(6));
    assert_eq!(reference.len(), 10);
    assert_eq!(metrics.delivery_order_at(ProcessId(7)), reference);
    assert_eq!(metrics.delivery_order_at(ProcessId(8)), reference);
    for id in to_g2 {
        assert!(reference.contains(&id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Folded sends must preserve the four atomic-multicast properties plus
    /// genuineness for every round size, including rounds of one event,
    /// under conflicting destination sets. The workload leaves group 3 out
    /// of every destination set, so any delivery at its members is a
    /// genuineness violation introduced by folding.
    #[test]
    fn whitebox_batched_properties_hold_for_random_batch_sizes(
        seed in 0u64..500,
        round in prop_oneof![Just(1usize), Just(4usize), Just(32usize)],
        messages in 8usize..32,
    ) {
        let (sequences, destinations, metrics, cluster, references) =
            run_rounds_workload(round, messages, seed, Destinations::Conflicting);
        assert_core_properties(&sequences, &destinations, &metrics, &cluster, true);
        for member in cluster.group(GroupId(3)).unwrap().members() {
            prop_assert!(
                metrics.delivery_order_at(*member).is_empty(),
                "folding leaked a message to uninvolved group 3 (member {member})"
            );
        }
        // Rounds of several events are not vacuous: followers that acked
        // got their DELIVERs by reference.
        prop_assert!(
            round == 1 || references > 0,
            "no DELIVER crossed by reference in rounds of {round}"
        );
    }

    /// Property test: for random topologies, workloads and jittery delays the
    /// white-box protocol preserves the ordering / integrity / validity
    /// properties and delivers everything in failure-free runs.
    #[test]
    fn whitebox_properties_hold_for_random_workloads(
        seed in 0u64..1000,
        num_groups in 2usize..5,
        messages in 5usize..25,
    ) {
        let (sequences, destinations, sim) =
            run_random_workload(Protocol::WhiteBox, num_groups, messages, seed, Destinations::Any);
        assert_core_properties(&sequences, &destinations, &sim.metrics(), sim.cluster(), true);
    }

    /// The baselines must agree with the same properties (differential check
    /// of the shared specification).
    #[test]
    fn baseline_properties_hold_for_random_workloads(
        seed in 0u64..500,
        fastcast in proptest::bool::ANY,
    ) {
        let protocol = if fastcast { Protocol::FastCast } else { Protocol::FtSkeen };
        let (sequences, destinations, sim) =
            run_random_workload(protocol, 3, 12, seed, Destinations::Any);
        assert_core_properties(&sequences, &destinations, &sim.metrics(), sim.cluster(), true);
    }
}
