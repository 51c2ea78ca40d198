//! Allocation gate for the leader's ordering path: what `on_event` asks of
//! the allocator to order one single-group multicast — `MULTICAST`, the
//! leader's own `ACCEPT`, the three `ACCEPT_ACK`s, its own `DELIVER`.
//!
//! The per-message record is flat (short vectors for the accepts and the
//! acks) and the handlers build no throw-away maps. A record that keeps its
//! accepts and acks in nested B-trees, a `proposal_set` map per timestamp
//! computation, a `quorum_sizes` clone per `ACCEPT_ACK` and a ballot-vector
//! clone per acknowledged leader cost eight more allocator calls per
//! multicast and fail this.
//!
//! The second gate drives the same six events the way every runtime does,
//! through `on_event_into` with one outbox reused across calls, where the
//! action vectors, recipient lists and `Destination` clones the collecting
//! adapter pays are gone. What is left is the record's box and the retry
//! timer's entry: the ballot vectors, the accepts and the ack tallies live
//! in place.
//!
//! The third gate is a follower's share, one `ACCEPT` and one `DELIVER`
//! by reference: the record's box and nothing else.

mod common;

use std::time::Duration;

use common::{measure, CountingAlloc};
use wbam_core::{DeliverMsg, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
use wbam_types::{
    Action, AppMessage, Ballot, ClusterConfig, Destination, Event, GroupId, MsgId, Node, Payload,
    ProcessId, Timestamp,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const LEADER: ProcessId = ProcessId(0);
const FOLLOWER: ProcessId = ProcessId(1);
const CLIENT: ProcessId = ProcessId(3);
const LEADER_BALLOT: Ballot = Ballot::Proper {
    round: 1,
    leader: LEADER,
};
const MULTICASTS: usize = 64;

/// Allocator calls of the six `on_event`s, summed over [`MULTICASTS`]
/// multicasts (a sum, so the B-tree node the record map allocates every few
/// inserts is averaged in the same way on both sides). Measured with this
/// file at the parent of the flat record (0b84430): 2 314, i.e. 36 per
/// multicast; the flat record makes 1 546, i.e. 24.
const PARENT_CALLS: usize = 2314;
const MAX_CALLS: usize = PARENT_CALLS - 8 * MULTICASTS;

/// The outbox gate's budget, the count measured when ballot vectors, accepts
/// and ack tallies moved in place: 132 calls, 2.06 per multicast (the
/// record's box, the retry timer's entry, and a map growing now and then).
/// It was 12 per multicast when the outbox method arrived and measured 452
/// (7.1) before: a `BTreeMap` per ballot vector built or received, two
/// vectors per ack candidate and a reserve for the accepts.
const OUTBOX_MAX_CALLS: usize = 132;

/// The follower gate's budget, its measured count: 68 calls, 1.06 per
/// multicast, the record's box. With map ballot vectors and a reserved
/// accepts vector the same events made 260 (4.06 per multicast).
const FOLLOWER_MAX_CALLS: usize = 68;

/// The message among `actions` addressed to the leader itself and accepted
/// by `pick`.
fn to_self(actions: &[Action<WhiteBoxMsg>], pick: impl Fn(&WhiteBoxMsg) -> bool) -> WhiteBoxMsg {
    actions
        .iter()
        .find_map(|a| match a {
            Action::Send { to, msg } if *to == LEADER && pick(msg) => Some(msg.clone()),
            _ => None,
        })
        .expect("the leader addresses itself")
}

/// Orders one multicast at the leader and returns the allocator calls its
/// six `on_event`s made and the bytes they asked for. Events are built
/// outside the measurement.
fn order_one(leader: &mut WhiteBoxReplica, seq: u64) -> (usize, usize) {
    let (mut calls, mut bytes) = (0, 0);
    let handle = |from: ProcessId, msg: WhiteBoxMsg| {
        let event = Event::message(from, msg);
        let (actions, made) = measure(|| leader.on_event(Duration::ZERO, event));
        calls += made.calls;
        bytes += made.bytes;
        actions
    };
    drive_one(seq, handle);
    (calls, bytes)
}

/// Orders one multicast at the leader as a runtime does: each of the six
/// events goes through `on_event_into` into `outbox`, which keeps its
/// capacity from call to call. Returns the allocator calls the six calls
/// made and the bytes they asked for; the actions are copied out of the
/// outbox outside the measurement.
fn order_one_into(
    leader: &mut WhiteBoxReplica,
    outbox: &mut Vec<Action<WhiteBoxMsg>>,
    seq: u64,
) -> (usize, usize) {
    let (mut calls, mut bytes) = (0, 0);
    let handle = |from: ProcessId, msg: WhiteBoxMsg| {
        let event = Event::message(from, msg);
        outbox.clear();
        let ((), made) = measure(|| leader.on_event_into(Duration::ZERO, event, outbox));
        calls += made.calls;
        bytes += made.bytes;
        outbox.clone()
    };
    drive_one(seq, handle);
    (calls, bytes)
}

/// The six ordering events of one multicast, each handed to `handle`, which
/// returns what the leader answered.
fn drive_one(seq: u64, mut handle: impl FnMut(ProcessId, WhiteBoxMsg) -> Vec<Action<WhiteBoxMsg>>) {
    let msg = AppMessage::new(
        MsgId::new(CLIENT, seq),
        Destination::single(GroupId(0)),
        Payload::from(vec![0u8; 20]),
    );
    let proposed = handle(CLIENT, WhiteBoxMsg::Multicast { msg });
    let accept = to_self(&proposed, |m| matches!(m, WhiteBoxMsg::Accept { .. }));
    let acked = handle(LEADER, accept);
    let ack = to_self(&acked, |m| matches!(m, WhiteBoxMsg::AcceptAck { .. }));
    handle(LEADER, ack.clone());
    let committed = handle(ProcessId(1), ack.clone());
    let deliver = to_self(&committed, |m| matches!(m, WhiteBoxMsg::Deliver { .. }));
    handle(ProcessId(2), ack);
    let delivered = handle(LEADER, deliver);
    assert!(
        delivered.iter().any(Action::is_delivery),
        "seq {seq} delivered"
    );
}

fn leader() -> WhiteBoxReplica {
    let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
    WhiteBoxReplica::new(ReplicaConfig::new(LEADER, GroupId(0), cluster).without_auto_election())
}

#[test]
fn ordering_one_multicast_at_the_leader_stays_within_its_allocation_budget() {
    let mut leader = leader();
    // A few multicasts first: the replica's own maps get their first nodes.
    for seq in 0..8 {
        order_one(&mut leader, seq);
    }
    let (calls, bytes) = (8..8 + MULTICASTS as u64)
        .map(|seq| order_one(&mut leader, seq))
        .fold((0, 0), |sum, one| (sum.0 + one.0, sum.1 + one.1));
    assert_eq!(leader.progress().delivered_count(), 8 + MULTICASTS as u64);
    assert!(
        calls <= MAX_CALLS,
        "ordering {MULTICASTS} single-group multicasts at the leader made {calls} allocator \
         calls for {bytes} bytes ({:.1} calls per multicast); the budget is {MAX_CALLS} calls, \
         8 per multicast under the {PARENT_CALLS} of nested-map records",
        calls as f64 / MULTICASTS as f64,
    );
}

#[test]
fn ordering_one_multicast_through_the_outbox_stays_within_its_allocation_budget() {
    let mut leader = leader();
    let mut outbox = Vec::new();
    // As above, and the outbox grows to its working capacity.
    for seq in 0..8 {
        order_one_into(&mut leader, &mut outbox, seq);
    }
    let (calls, bytes) = (8..8 + MULTICASTS as u64)
        .map(|seq| order_one_into(&mut leader, &mut outbox, seq))
        .fold((0, 0), |sum, one| (sum.0 + one.0, sum.1 + one.1));
    assert_eq!(leader.progress().delivered_count(), 8 + MULTICASTS as u64);
    assert!(
        calls <= OUTBOX_MAX_CALLS,
        "ordering {MULTICASTS} single-group multicasts through one reused outbox made {calls} \
         allocator calls for {bytes} bytes ({:.2} calls per multicast); the budget is \
         {OUTBOX_MAX_CALLS} calls",
        calls as f64 / MULTICASTS as f64,
    );
}

/// A follower's share of one single-group multicast, as a runtime drives
/// it: the leader's `ACCEPT` and then its `DELIVER` by reference, each
/// through `on_event_into` into one reused outbox. Returns the allocator
/// calls the two calls made and the bytes they asked for.
fn follow_one(
    follower: &mut WhiteBoxReplica,
    outbox: &mut Vec<Action<WhiteBoxMsg>>,
    seq: u64,
) -> (usize, usize) {
    let msg = AppMessage::new(
        MsgId::new(CLIENT, seq),
        Destination::single(GroupId(0)),
        Payload::from(vec![0u8; 20]),
    );
    let accept = WhiteBoxMsg::Accept {
        msg,
        group: GroupId(0),
        ballot: LEADER_BALLOT,
        local_ts: Timestamp::new(seq + 1, GroupId(0)),
    };
    let deliver = WhiteBoxMsg::Deliver {
        msg: DeliverMsg::Ref(MsgId::new(CLIENT, seq)),
        ballot: LEADER_BALLOT,
        local_ts: Timestamp::new(seq + 1, GroupId(0)),
        global_ts: Timestamp::new(seq + 1, GroupId(0)),
    };
    let (mut calls, mut bytes) = (0, 0);
    for msg in [accept, deliver] {
        let event = Event::message(LEADER, msg);
        outbox.clear();
        let ((), made) = measure(|| follower.on_event_into(Duration::ZERO, event, outbox));
        calls += made.calls;
        bytes += made.bytes;
    }
    assert!(
        outbox.iter().any(Action::is_delivery),
        "seq {seq} delivered at the follower"
    );
    (calls, bytes)
}

#[test]
fn following_one_multicast_stays_within_its_allocation_budget() {
    let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
    let mut follower = WhiteBoxReplica::new(
        ReplicaConfig::new(FOLLOWER, GroupId(0), cluster).without_auto_election(),
    );
    let mut outbox = Vec::new();
    for seq in 0..8 {
        follow_one(&mut follower, &mut outbox, seq);
    }
    let (calls, bytes) = (8..8 + MULTICASTS as u64)
        .map(|seq| follow_one(&mut follower, &mut outbox, seq))
        .fold((0, 0), |sum, one| (sum.0 + one.0, sum.1 + one.1));
    assert_eq!(follower.progress().delivered_count(), 8 + MULTICASTS as u64);
    assert!(
        calls <= FOLLOWER_MAX_CALLS,
        "following {MULTICASTS} single-group multicasts made {calls} allocator calls for \
         {bytes} bytes ({:.2} calls per multicast); the budget is {FOLLOWER_MAX_CALLS} calls",
        calls as f64 / MULTICASTS as f64,
    );
}

/// An `ACCEPT` fan-out clones the message once per recipient: a clone must
/// share the destination set and the payload, not copy them.
#[test]
fn cloning_an_application_message_does_not_allocate() {
    let msg = AppMessage::new(
        MsgId::new(CLIENT, 0),
        Destination::new([GroupId(0), GroupId(1)]).expect("two groups"),
        Payload::from(vec![0u8; 20]),
    );
    let (copy, made) = measure(|| msg.clone());
    assert_eq!(copy, msg);
    assert_eq!(
        made.calls, 0,
        "AppMessage::clone made {} allocator calls",
        made.calls
    );
}
