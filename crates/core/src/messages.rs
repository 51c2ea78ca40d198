//! Wire messages of the white-box atomic multicast protocol (Figure 4).
//!
//! Message names follow the paper: `MULTICAST`, `ACCEPT`, `ACCEPT_ACK`,
//! `DELIVER` for normal operation and `NEWLEADER`, `NEWLEADER_ACK`,
//! `NEW_STATE`, `NEWSTATE_ACK` for leader recovery. Two extra message kinds do
//! not appear in the pseudocode but are needed by a practical implementation:
//! `Heartbeat` (the leader-monitoring oracle the paper delegates to a failure
//! detector) and `ClientReply` (the reply the first delivering replica sends
//! to the multicasting client, which the paper's evaluation methodology
//! assumes when measuring client-perceived latency).

use std::collections::BTreeMap;
use std::fmt;

use serde::de::{DeError, Source};
use serde::ser::Sink;
use serde::{Deserialize, Serialize};
use wbam_types::{AppMessage, Ballot, Checkpoint, GroupId, MsgId, Phase, Timestamp};

use crate::inline::InlineVec;

/// A per-message vector of the ballots in which each destination group's
/// leader issued its local timestamp proposal (`Bal` in Figure 4).
///
/// `ACCEPT_ACK` messages are tagged with this vector; a leader only counts
/// acknowledgements whose vectors match, which guarantees that they refer to
/// the same set of local timestamp proposals (Invariant 1).
///
/// One entry per destination group, sorted by group and unique per group,
/// held in place for up to two groups: building, decoding, comparing and
/// dropping the vector of a one- or two-group message allocates nothing.
/// The serde form is the sequence of `[group, ballot]` pairs in group order,
/// the form a `BTreeMap<GroupId, Ballot>` has. Decoding refuses pairs whose
/// groups are not strictly increasing, which no encoder writes, so it reads
/// a vector in one pass.
///
/// ```
/// use wbam_core::BallotVector;
/// use wbam_types::{Ballot, GroupId, ProcessId};
///
/// let b = Ballot::new(1, ProcessId(3));
/// let v = BallotVector::from([(GroupId(1), b), (GroupId(0), Ballot::BOTTOM)]);
/// assert_eq!(v.get(GroupId(1)), Some(b));
/// assert_eq!(v.get(GroupId(2)), None);
/// assert_eq!(v.iter().map(|(g, _)| g.0).collect::<Vec<_>>(), [0, 1]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BallotVector(InlineVec<(GroupId, Ballot), 2>);

impl BallotVector {
    /// An empty vector.
    pub fn new() -> Self {
        BallotVector::default()
    }

    /// The ballot recorded for `group`.
    pub fn get(&self, group: GroupId) -> Option<Ballot> {
        self.0
            .binary_search_by_key(&group, |e| e.0)
            .ok()
            .map(|at| self.0[at].1)
    }

    /// Records `ballot` for `group`, replacing the group's earlier ballot.
    pub fn insert(&mut self, group: GroupId, ballot: Ballot) {
        match self.0.binary_search_by_key(&group, |e| e.0) {
            Ok(at) => self.0[at].1 = ballot,
            Err(at) => self.0.insert(at, (group, ballot)),
        }
    }

    /// Number of groups in the vector.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector names no group.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries in group order.
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, Ballot)> + '_ {
        self.0.iter().copied()
    }
}

impl FromIterator<(GroupId, Ballot)> for BallotVector {
    fn from_iter<I: IntoIterator<Item = (GroupId, Ballot)>>(entries: I) -> Self {
        let mut vector = BallotVector::new();
        for (group, ballot) in entries {
            vector.insert(group, ballot);
        }
        vector
    }
}

impl<const N: usize> From<[(GroupId, Ballot); N]> for BallotVector {
    fn from(entries: [(GroupId, Ballot); N]) -> Self {
        entries.into_iter().collect()
    }
}

impl fmt::Debug for BallotVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Serialize for BallotVector {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.begin_seq(self.len());
        for (group, ballot) in self.iter() {
            sink.begin_seq(2);
            group.serialize(sink);
            ballot.serialize(sink);
            sink.end_seq();
        }
        sink.end_seq();
    }
}

impl Deserialize for BallotVector {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        let mut vector = BallotVector::new();
        for _ in 0..src.begin_seq()? {
            let (group, ballot) = <(GroupId, Ballot)>::deserialize(src)?;
            if let Some(&(previous, _)) = vector.0.last().filter(|e| e.0 >= group) {
                return Err(DeError::new(format!(
                    "ballot vector groups must be sorted and distinct: {group} after {previous}"
                )));
            }
            vector.0.push((group, ballot));
        }
        src.end_seq();
        Ok(vector)
    }
}

/// Snapshot of one message's state, exchanged during leader recovery inside
/// [`StateSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordSnapshot {
    /// The application message itself (recovery must be able to re-deliver it).
    pub msg: AppMessage,
    /// The phase of the message at the snapshotting process.
    pub phase: Phase,
    /// The local timestamp, if one was assigned.
    pub local_ts: Timestamp,
    /// The global timestamp, if known.
    pub global_ts: Timestamp,
}

/// Snapshot of a process's per-message protocol state (the `Phase`, `LocalTS`
/// and `GlobalTS` arrays of Figure 3), exchanged in `NEWLEADER_ACK` and
/// `NEW_STATE` messages.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StateSnapshot {
    /// Per-message state; messages still in the `START` phase are omitted.
    pub records: BTreeMap<MsgId, RecordSnapshot>,
}

impl StateSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        StateSnapshot::default()
    }

    /// Number of messages captured in the snapshot.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot contains no messages.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The message a `DELIVER` names: the whole application message, or only
/// its identifier for a receiver that holds the message already.
///
/// A leader sends [`DeliverMsg::Ref`] only to a member of its group whose
/// `ACCEPT_ACK` for the message it counted in the `DELIVER`'s ballot: that
/// member stored the message's record before acking, and only installing a
/// later ballot replaces its records, after which it refuses the `DELIVER`
/// anyway (DESIGN.md, "`DELIVER` by reference"). Everyone else gets
/// [`DeliverMsg::Full`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeliverMsg {
    /// The whole message, for a receiver that may not hold it.
    Full(AppMessage),
    /// The message's identifier, resolved from the receiver's records.
    Ref(MsgId),
}

impl DeliverMsg {
    /// The identifier of the named message.
    pub fn id(&self) -> MsgId {
        match self {
            DeliverMsg::Full(msg) => msg.id,
            DeliverMsg::Ref(id) => *id,
        }
    }
}

impl From<AppMessage> for DeliverMsg {
    fn from(msg: AppMessage) -> Self {
        DeliverMsg::Full(msg)
    }
}

/// Wire messages of the white-box protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WhiteBoxMsg {
    /// `MULTICAST(m)`: a client (or a retrying leader) asks the leaders of the
    /// destination groups to order `m` (Figure 4, lines 1–2 and 32–34).
    Multicast {
        /// The application message.
        msg: AppMessage,
    },
    /// `ACCEPT(m, g, b, lts)`: the leader of group `g` proposes local
    /// timestamp `lts` for `m` in ballot `b`, addressed to every process of
    /// every destination group (Figure 4, line 9). Analogous to Paxos "2a".
    Accept {
        /// The application message (carried so that every destination replica
        /// learns the payload).
        msg: AppMessage,
        /// The proposing group.
        group: GroupId,
        /// The ballot of the proposing leader.
        ballot: Ballot,
        /// The proposed local timestamp of `m` at `group`.
        local_ts: Timestamp,
    },
    /// `ACCEPT_ACK(m, g, Bal)`: a process of group `g` acknowledges having
    /// stored the local timestamps of `m` proposed in the ballot vector `Bal`
    /// (Figure 4, line 16). Analogous to Paxos "2b".
    AcceptAck {
        /// The acknowledged message.
        msg_id: MsgId,
        /// The acknowledging process's group.
        group: GroupId,
        /// The ballots in which each destination group's proposal was made.
        ballots: BallotVector,
    },
    /// `DELIVER(m, b, lts, gts)`: the leader of a group instructs its
    /// followers to deliver `m` with global timestamp `gts` (Figure 4,
    /// line 23).
    Deliver {
        /// The delivered message, whole or by reference ([`DeliverMsg`]).
        msg: DeliverMsg,
        /// The leader's ballot.
        ballot: Ballot,
        /// The message's local timestamp at this group.
        local_ts: Timestamp,
        /// The message's global timestamp.
        global_ts: Timestamp,
    },
    /// `NEWLEADER(b)`: a prospective leader asks its group members to join
    /// ballot `b` (Figure 4, line 36). Analogous to Paxos "1a".
    NewLeader {
        /// The proposed ballot.
        ballot: Ballot,
    },
    /// `NEWLEADER_ACK(b, cballot, checkpoint, suffix)`: a group member votes
    /// for the new leader and reports its protocol state (Figure 4, line 41)
    /// as *checkpoint + suffix*: the checkpoint carries the member's clock,
    /// delivery progress, watermarks and delivered-message filter, and the
    /// snapshot carries only the records that survived compaction. Analogous
    /// to Paxos "1b".
    NewLeaderAck {
        /// The ballot being joined.
        ballot: Ballot,
        /// The last ballot whose leader this process synchronised with.
        cballot: Ballot,
        /// The member's ordering-layer checkpoint (clock, watermarks,
        /// `max_delivered_gts`, delivered filter). Boxed, like `NEW_STATE`'s:
        /// leader recovery is rare, and the box keeps every message of the
        /// ordering path, which moves by value through the outbox and the
        /// send lists, at the size of the largest ordering message.
        checkpoint: Box<Checkpoint>,
        /// The member's resident per-message state (the suffix above its
        /// watermark; the whole history when compaction is disabled).
        snapshot: StateSnapshot,
    },
    /// `NEW_STATE(b, checkpoint, suffix)`: the new leader installs its
    /// recovered state at a follower (Figure 4, line 56). With compaction
    /// this *is* the catch-up state transfer: a follower whose delivery
    /// progress lies below the checkpoint's watermark installs the checkpoint
    /// (jumping its progress to the watermark — the history below it is
    /// pruned everywhere) and re-delivers only the suffix, instead of
    /// replaying per-message history.
    NewState {
        /// The new ballot.
        ballot: Ballot,
        /// The recovered ordering-layer checkpoint (clock, watermarks,
        /// delivered filter, delivery progress of the new leader).
        checkpoint: Box<Checkpoint>,
        /// The recovered per-message state above the watermark.
        snapshot: StateSnapshot,
    },
    /// `NEWSTATE_ACK(b)`: a follower confirms it installed the new state
    /// (Figure 4, line 62).
    NewStateAck {
        /// The acknowledged ballot.
        ballot: Ballot,
    },
    /// Leader heartbeat, used by followers to monitor leader liveness. The
    /// paper delegates this to an external leader-election service (§IV,
    /// "Leader recovery"); we implement a simple timeout-based one.
    Heartbeat {
        /// The sender's current ballot.
        ballot: Ballot,
    },
    /// `STABLE_REPORT(g, gts)`: a group member reports its delivery progress
    /// (`max_delivered_gts`) to its leader, every
    /// [`compaction_interval`](crate::ReplicaConfig::compaction_interval)
    /// deliveries. The leader folds the reports into the group's delivery
    /// watermark: the minimum progress over all members. Not part of the
    /// paper's Figure 4 — log compaction is this implementation's extension
    /// (production atomic multicast requires log trimming plus
    /// checkpoint-based recovery).
    StableReport {
        /// The reporting member's group.
        group: GroupId,
        /// The member's highest delivered global timestamp; every message
        /// addressed to the group with a timestamp at or below it has been
        /// delivered by this member (delivery is in timestamp order).
        delivered_gts: Timestamp,
    },
    /// `STABLE_ADVANCE(W)`: a leader disseminates its current watermark
    /// knowledge — for its own group (computed from `STABLE_REPORT`s) and for
    /// remote groups (learnt from their leaders' advances). Sent to the
    /// group's members (who prune records covered by the watermarks of every
    /// destination group) and to remote leaders (cross-group dissemination,
    /// needed before multi-group records may be pruned).
    StableAdvance {
        /// Per-group delivery watermarks (pointwise-monotone: receivers merge
        /// by maximum).
        watermarks: BTreeMap<GroupId, Timestamp>,
    },
    /// `STABLE_PRUNED(m, W)`: the answer a replica gives a *peer replica*
    /// that re-sent `MULTICAST(m)` for a record this replica has pruned. The
    /// prune rule guarantees `m` was delivered (with its final, quorum-fixed
    /// global timestamp) at every member of this group and is covered by the
    /// watermark of every destination group — so the retrying leader's
    /// pending copy can never commit differently and can never be needed
    /// again. On receipt the retrier drops its pending record as installed
    /// history (excused below the watermark, like any state transfer) and
    /// unblocks its delivery convoy; without this notice the retrier would
    /// retry into pruned history forever while its convoy stalls behind the
    /// eternally pending record.
    StablePruned {
        /// The pruned message.
        msg_id: MsgId,
        /// The replying replica's watermark knowledge (covers `m`).
        watermarks: BTreeMap<GroupId, Timestamp>,
    },
    /// Reply sent by a delivering replica to the original sender of the
    /// message, carrying the global timestamp it was delivered with. Used by
    /// closed-loop clients to measure client-perceived latency, matching the
    /// paper's evaluation methodology (§II, first-delivery latency).
    ClientReply {
        /// The delivered message.
        msg_id: MsgId,
        /// The group of the replying replica.
        group: GroupId,
        /// The global timestamp the message was delivered with.
        global_ts: Timestamp,
    },
}

impl WhiteBoxMsg {
    /// A short human-readable tag for logging and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            WhiteBoxMsg::Multicast { .. } => "MULTICAST",
            WhiteBoxMsg::Accept { .. } => "ACCEPT",
            WhiteBoxMsg::AcceptAck { .. } => "ACCEPT_ACK",
            WhiteBoxMsg::Deliver { .. } => "DELIVER",
            WhiteBoxMsg::NewLeader { .. } => "NEWLEADER",
            WhiteBoxMsg::NewLeaderAck { .. } => "NEWLEADER_ACK",
            WhiteBoxMsg::NewState { .. } => "NEW_STATE",
            WhiteBoxMsg::NewStateAck { .. } => "NEWSTATE_ACK",
            WhiteBoxMsg::Heartbeat { .. } => "HEARTBEAT",
            WhiteBoxMsg::StableReport { .. } => "STABLE_REPORT",
            WhiteBoxMsg::StableAdvance { .. } => "STABLE_ADVANCE",
            WhiteBoxMsg::StablePruned { .. } => "STABLE_PRUNED",
            WhiteBoxMsg::ClientReply { .. } => "CLIENT_REPLY",
        }
    }

    /// The application message identifier this protocol message is about, when
    /// it concerns a single application message.
    pub fn subject(&self) -> Option<MsgId> {
        match self {
            WhiteBoxMsg::Multicast { msg } | WhiteBoxMsg::Accept { msg, .. } => Some(msg.id),
            WhiteBoxMsg::Deliver { msg, .. } => Some(msg.id()),
            WhiteBoxMsg::AcceptAck { msg_id, .. }
            | WhiteBoxMsg::ClientReply { msg_id, .. }
            | WhiteBoxMsg::StablePruned { msg_id, .. } => Some(*msg_id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::{Destination, Payload, ProcessId};

    fn msg() -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId(9), 1),
            Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
            Payload::from("x"),
        )
    }

    #[test]
    fn kinds_and_subjects() {
        let m = msg();
        assert_eq!(
            WhiteBoxMsg::Multicast { msg: m.clone() }.kind(),
            "MULTICAST"
        );
        assert_eq!(
            WhiteBoxMsg::Multicast { msg: m.clone() }.subject(),
            Some(m.id)
        );
        let acc = WhiteBoxMsg::Accept {
            msg: m.clone(),
            group: GroupId(0),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
        };
        assert_eq!(acc.kind(), "ACCEPT");
        assert_eq!(acc.subject(), Some(m.id));
        assert_eq!(
            WhiteBoxMsg::Heartbeat {
                ballot: Ballot::BOTTOM
            }
            .subject(),
            None
        );
        assert_eq!(
            WhiteBoxMsg::NewLeader {
                ballot: Ballot::new(2, ProcessId(1))
            }
            .kind(),
            "NEWLEADER"
        );
    }

    #[test]
    fn snapshot_basics() {
        let mut s = StateSnapshot::new();
        assert!(s.is_empty());
        s.records.insert(
            msg().id,
            RecordSnapshot {
                msg: msg(),
                phase: Phase::Accepted,
                local_ts: Timestamp::new(1, GroupId(0)),
                global_ts: Timestamp::BOTTOM,
            },
        );
        assert_eq!(s.len(), 1);
    }

    /// A ballot vector encodes exactly as the `BTreeMap` it replaced, with
    /// both codecs, and decodes back; pairs out of group order or with a
    /// repeated group, which no encoder writes, are refused.
    #[test]
    fn ballot_vectors_keep_the_map_form_and_refuse_disorder() {
        use wbam_types::wire::{decode_frame_slice, encode_frame_with, WireCodec};
        let decode = |frame: &[u8]| {
            decode_frame_slice::<BallotVector>(WireCodec::Binary, frame)
                .map(|decoded| decoded.expect("a whole frame").0)
        };
        let (b1, b2) = (Ballot::new(1, ProcessId(0)), Ballot::new(2, ProcessId(3)));
        let map = BTreeMap::from([(GroupId(1), b2), (GroupId(0), b1)]);
        let vector = BallotVector::from([(GroupId(1), b2), (GroupId(0), b1)]);
        let frame = encode_frame_with(WireCodec::Binary, &map).unwrap();
        let json = serde_json::to_string(&map).unwrap();
        assert_eq!(
            encode_frame_with(WireCodec::Binary, &vector).unwrap(),
            frame
        );
        assert_eq!(serde_json::to_string(&vector).unwrap(), json);
        assert_eq!(decode(&frame).unwrap(), vector);
        for pairs in [
            vec![(GroupId(1), b2), (GroupId(0), b1)],
            vec![(GroupId(0), b1); 2],
        ] {
            let frame = encode_frame_with(WireCodec::Binary, &pairs).unwrap();
            assert!(decode(&frame).is_err(), "{pairs:?}");
            let json = serde_json::to_string(&pairs).unwrap();
            assert!(
                serde_json::from_str::<BallotVector>(&json).is_err(),
                "{pairs:?}"
            );
        }
    }

    #[test]
    fn messages_round_trip_through_serde() {
        for form in [msg().into(), DeliverMsg::Ref(msg().id)] {
            let m = WhiteBoxMsg::Deliver {
                msg: form,
                ballot: Ballot::new(1, ProcessId(0)),
                local_ts: Timestamp::new(1, GroupId(0)),
                global_ts: Timestamp::new(2, GroupId(1)),
            };
            let json = serde_json::to_string(&m).unwrap();
            let back: WhiteBoxMsg = serde_json::from_str(&json).unwrap();
            assert_eq!(m, back);
        }
    }
}
