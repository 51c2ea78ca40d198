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

use serde::{Deserialize, Serialize};
use wbam_types::{AppMessage, Ballot, Checkpoint, GroupId, MsgId, Phase, Timestamp};

/// A per-message vector of the ballots in which each destination group's
/// leader issued its local timestamp proposal (`Bal` in Figure 4).
///
/// `ACCEPT_ACK` messages are tagged with this vector; a leader only counts
/// acknowledgements whose vectors match, which guarantees that they refer to
/// the same set of local timestamp proposals (Invariant 1).
pub type BallotVector = BTreeMap<GroupId, Ballot>;

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
        /// `max_delivered_gts`, delivered filter).
        checkpoint: Checkpoint,
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
        checkpoint: Checkpoint,
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
