//! Folding a round's sends with [`WhiteBoxMsg::coalesce`] is invisible to
//! the receiver. Twin replicas are fed the same rounds of peer traffic, one
//! message by message and one folded per round, and must deliver the same
//! messages, end in the same record states and send the same messages once
//! every batch is flattened into its entries.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;
use wbam_core::{BallotVector, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
use wbam_types::{
    Action, AppMessage, Ballot, ClusterConfig, Destination, Event, GroupId, MsgId, Node, Payload,
    Phase, ProcessId, Timestamp,
};

/// Messages in play; message `k` goes to `{g0, g1}` when bit `k` of the
/// case's cross mask is set, else to `{g0}`.
const MESSAGES: u64 = 10;
/// How many of them `g0`'s leader has proposed in the leader cases.
const PROPOSED: u64 = 4;
const CLIENT: ProcessId = ProcessId(6);
const G0: GroupId = GroupId(0);
const G1: GroupId = GroupId(1);

fn replica(id: u32, group: GroupId) -> WhiteBoxReplica {
    let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
    WhiteBoxReplica::new(ReplicaConfig::new(ProcessId(id), group, cluster).without_auto_election())
}

/// The ballot every member of `group` starts in, or a later one nobody has
/// joined.
fn ballot(group: GroupId, stale: bool) -> Ballot {
    match (group, stale) {
        (_, true) => Ballot::new(2, ProcessId(1)),
        (G0, false) => Ballot::new(1, ProcessId(0)),
        (_, false) => Ballot::new(1, ProcessId(3)),
    }
}

fn is_cross(cross: u32, k: u64) -> bool {
    cross & (1 << k) != 0
}

fn app(cross: u32, k: u64) -> AppMessage {
    let dest = if is_cross(cross, k) {
        vec![G0, G1]
    } else {
        vec![G0]
    };
    AppMessage::new(
        MsgId::new(CLIENT, k),
        Destination::new(dest).unwrap(),
        Payload::from(format!("m{k}").as_str()),
    )
}

/// The local timestamp `group`'s leader proposes for message `k`: `g0`'s
/// leader is fed the multicasts in order, so its clock gives `k + 1`.
fn lts(group: GroupId, k: u64) -> Timestamp {
    Timestamp::new(k + 1 + u64::from(group.0), group)
}

fn gts(cross: u32, k: u64) -> Timestamp {
    if is_cross(cross, k) {
        lts(G1, k)
    } else {
        lts(G0, k)
    }
}

fn accept(cross: u32, k: u64, group: GroupId, stale: bool) -> WhiteBoxMsg {
    WhiteBoxMsg::Accept {
        msg: app(cross, k),
        group,
        ballot: ballot(group, stale),
        local_ts: lts(group, k),
    }
}

fn ack(cross: u32, k: u64, group: GroupId, stale: bool) -> WhiteBoxMsg {
    let mut ballots = BallotVector::from([(G0, ballot(G0, stale))]);
    if is_cross(cross, k) {
        ballots.insert(G1, ballot(G1, false));
    }
    WhiteBoxMsg::AcceptAck {
        msg_id: MsgId::new(CLIENT, k),
        group,
        ballots,
    }
}

fn deliver(cross: u32, k: u64, stale: bool) -> WhiteBoxMsg {
    WhiteBoxMsg::Deliver {
        msg: app(cross, k).into(),
        ballot: ballot(G0, stale),
        local_ts: lts(G0, k),
        global_ts: gts(cross, k),
    }
}

/// One generated message: `(kind, message index, stale ballot)`.
type Item = (u8, u64, bool);

/// One round of one sender's traffic: `(sender choice, items)`.
type Round = (u8, Vec<Item>);

fn item() -> impl Strategy<Value = Item> {
    // One message in four carries a ballot the receiver has not joined.
    (0u8..4, 0..MESSAGES, 0u8..4).prop_map(|(kind, k, s)| (kind, k, s == 0))
}

fn rounds() -> impl Strategy<Value = Vec<Round>> {
    prop::collection::vec((0u8..5, prop::collection::vec(item(), 1..12)), 1..16)
}

/// What `g0`'s follower `p1` hears: `g0`'s leader sends `ACCEPT`s,
/// `DELIVER`s and heartbeats; `g1`'s leader sends `ACCEPT`s for the
/// cross-group messages.
fn follower_round(cross: u32, (sender, items): &Round) -> (ProcessId, Vec<WhiteBoxMsg>) {
    if *sender == 0 {
        let msgs = items
            .iter()
            .filter(|(_, k, _)| is_cross(cross, *k))
            .map(|&(_, k, stale)| accept(cross, k, G1, stale))
            .collect();
        return (ProcessId(3), msgs);
    }
    let msgs = items
        .iter()
        .map(|&(kind, k, stale)| match kind {
            0 | 1 => accept(cross, k, G0, stale),
            2 => deliver(cross, k, stale),
            _ => WhiteBoxMsg::Heartbeat {
                ballot: ballot(G0, stale),
            },
        })
        .collect();
    (ProcessId(0), msgs)
}

/// What `g0`'s leader `p0` hears once it has proposed some messages: its
/// own `ACCEPT`s, `ACCEPT_ACK`s and `DELIVER`s; `ACCEPT_ACK`s and forwarded
/// `MULTICAST`s from its followers; `ACCEPT_ACK`s from `g1`'s members for
/// the cross-group messages.
fn leader_round(cross: u32, (sender, items): &Round) -> (ProcessId, Vec<WhiteBoxMsg>) {
    let from = ProcessId(u32::from(*sender) + u32::from(*sender >= 3));
    let msgs = items
        .iter()
        // Mostly proposed messages, and one the leader never heard of.
        .map(|&(kind, k, stale)| (kind, k % (PROPOSED + 1), stale))
        .filter_map(|(kind, k, stale)| match (from.0, kind) {
            (0, 0) => Some(accept(cross, k, G0, stale)),
            (0, 1) => Some(deliver(cross, k, stale)),
            (1 | 2, 3) => Some(WhiteBoxMsg::Multicast { msg: app(cross, k) }),
            (4 | 5, _) if !is_cross(cross, k) => None,
            (4 | 5, _) => Some(ack(cross, k, G1, stale)),
            _ => Some(ack(cross, k, G0, stale)),
        })
        .collect();
    (from, msgs)
}

/// A batch as the per-message sequence it stands for.
fn flatten(msg: WhiteBoxMsg) -> Vec<WhiteBoxMsg> {
    match msg {
        WhiteBoxMsg::AcceptBatch {
            group,
            ballot,
            entries,
        } => entries
            .into_iter()
            .map(|e| WhiteBoxMsg::Accept {
                msg: e.msg,
                group,
                ballot,
                local_ts: e.local_ts,
            })
            .collect(),
        WhiteBoxMsg::AcceptAckBatch { group, entries } => entries
            .into_iter()
            .map(|(msg_id, ballots)| WhiteBoxMsg::AcceptAck {
                msg_id,
                group,
                ballots,
            })
            .collect(),
        WhiteBoxMsg::DeliverBatch { ballot, entries } => entries
            .into_iter()
            .map(|e| WhiteBoxMsg::Deliver {
                msg: e.msg,
                ballot,
                local_ts: e.local_ts,
                global_ts: e.global_ts,
            })
            .collect(),
        other => vec![other],
    }
}

/// What a replica did with its rounds, in the terms the fold must preserve.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    deliveries: Vec<(MsgId, Option<Timestamp>)>,
    /// Everything sent, flattened, per destination in sending order.
    sent: BTreeMap<ProcessId, Vec<WhiteBoxMsg>>,
    states: Vec<(MsgId, Phase, bool)>,
}

fn feed(replica: &mut WhiteBoxReplica, from: ProcessId, msg: WhiteBoxMsg, out: &mut Outcome) {
    for action in replica.on_event(Duration::ZERO, Event::message(from, msg)) {
        match action {
            Action::Send { to, msg } => out.sent.entry(to).or_default().extend(flatten(msg)),
            Action::Deliver(d) => out.deliveries.push((d.msg.id, d.global_ts)),
            _ => {}
        }
    }
}

/// Runs `rounds` through a twin pair built by `make` and returns both
/// outcomes (as sent, folded) and how many messages the fold saved.
fn twins(
    make: impl Fn() -> WhiteBoxReplica,
    rounds: &[(ProcessId, Vec<WhiteBoxMsg>)],
) -> (Outcome, Outcome, usize) {
    let (mut plain, mut folded) = (make(), make());
    let (mut a, mut b) = (Outcome::default(), Outcome::default());
    let mut saved = 0;
    for (from, msgs) in rounds {
        let mut round = msgs.clone();
        WhiteBoxMsg::coalesce(&mut round);
        saved += msgs.len() - round.len();
        for msg in msgs.iter().cloned() {
            feed(&mut plain, *from, msg, &mut a);
        }
        for msg in round {
            feed(&mut folded, *from, msg, &mut b);
        }
    }
    a.states = plain.record_states();
    b.states = folded.record_states();
    (a, b, saved)
}

/// `g0`'s leader after it proposed the first [`PROPOSED`] messages, heard
/// `g1`'s proposals for the cross-group ones and handled everything it sent
/// itself (its own `ACCEPT`s and `ACCEPT_ACK`s). Traffic about the other
/// messages exercises the paths for records a replica does not hold.
fn proposing_leader(cross: u32) -> WhiteBoxReplica {
    let mut leader = replica(0, G0);
    let mut inbox: Vec<(ProcessId, WhiteBoxMsg)> = (0..PROPOSED)
        .map(|k| (CLIENT, WhiteBoxMsg::Multicast { msg: app(cross, k) }))
        .chain(
            (0..PROPOSED)
                .filter(|&k| is_cross(cross, k))
                .map(|k| (ProcessId(3), accept(cross, k, G1, false))),
        )
        .collect();
    while !inbox.is_empty() {
        let mut out = Outcome::default();
        for (from, msg) in inbox.drain(..) {
            feed(&mut leader, from, msg, &mut out);
        }
        let own = out.sent.remove(&ProcessId(0)).unwrap_or_default();
        inbox.extend(own.into_iter().map(|msg| (ProcessId(0), msg)));
    }
    leader
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn folding_a_follower_s_rounds_changes_nothing(cross in 0u32..1024, rounds in rounds()) {
        let rounds: Vec<_> = rounds.iter().map(|r| follower_round(cross, r)).collect();
        let (plain, folded, _) = twins(|| replica(1, G0), &rounds);
        prop_assert_eq!(plain, folded);
    }

    #[test]
    fn folding_a_leader_s_rounds_changes_nothing(cross in 0u32..1024, rounds in rounds()) {
        let rounds: Vec<_> = rounds.iter().map(|r| leader_round(cross, r)).collect();
        let (plain, folded, _) = twins(|| proposing_leader(cross), &rounds);
        prop_assert_eq!(plain, folded);
    }
}

/// The generated rounds are not vacuous: a leader that hears whole rounds
/// of acknowledgements commits and delivers, and the fold shrinks them.
#[test]
fn whole_rounds_fold_and_still_deliver() {
    let cross = 0b1010;
    let acks = |from: u32, group: GroupId| {
        let msgs = (0..PROPOSED)
            .filter(|&k| group == G0 || is_cross(cross, k))
            .map(|k| ack(cross, k, group, false))
            .collect();
        (ProcessId(from), msgs)
    };
    let rounds = vec![acks(1, G0), acks(4, G1), acks(5, G1)];
    let (plain, folded, saved) = twins(|| proposing_leader(cross), &rounds);
    assert_eq!(plain, folded);
    assert_eq!(saved, 5);
    // Every message committed and its DELIVER went out to each member, in
    // global-timestamp order.
    let delivers: Vec<Timestamp> = plain.sent[&ProcessId(1)]
        .iter()
        .filter_map(|m| match m {
            WhiteBoxMsg::Deliver { global_ts, .. } => Some(*global_ts),
            _ => None,
        })
        .collect();
    assert_eq!(delivers.len(), PROPOSED as usize);
    assert!(delivers.windows(2).all(|w| w[0] < w[1]));
}
