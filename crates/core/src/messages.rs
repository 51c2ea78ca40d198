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

/// One message's entry inside an [`WhiteBoxMsg::AcceptBatch`]: the proposal a
/// leader would otherwise have sent as a standalone `ACCEPT`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceptEntry {
    /// The application message.
    pub msg: AppMessage,
    /// The proposed local timestamp of the message at the batching group.
    pub local_ts: Timestamp,
}

/// One message's entry inside an [`WhiteBoxMsg::DeliverBatch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliverEntry {
    /// The application message.
    pub msg: AppMessage,
    /// The message's local timestamp at the delivering group.
    pub local_ts: Timestamp,
    /// The message's global timestamp.
    pub global_ts: Timestamp,
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
    /// Batched `ACCEPT`: the leader of `group` proposes the local timestamps
    /// of *several* messages in one wire message (one ballot, one network
    /// round for the whole batch). Semantically equivalent to sending one
    /// [`WhiteBoxMsg::Accept`] per entry, but it amortises the per-message
    /// network and CPU cost of the ordering round. Batching is this
    /// implementation's extension; Figure 4 of the paper is per-message.
    AcceptBatch {
        /// The proposing group.
        group: GroupId,
        /// The ballot of the proposing leader (shared by every entry).
        ballot: Ballot,
        /// The batched proposals. Each recipient only ever receives entries
        /// for messages addressed to its own group (genuineness).
        entries: Vec<AcceptEntry>,
    },
    /// Batched `ACCEPT_ACK`: a process of group `group` acknowledges the
    /// stored local timestamps of several messages at once. Equivalent to one
    /// [`WhiteBoxMsg::AcceptAck`] per entry.
    AcceptAckBatch {
        /// The acknowledging process's group.
        group: GroupId,
        /// `(message, ballot vector)` pairs, one per acknowledged message.
        entries: Vec<(MsgId, BallotVector)>,
    },
    /// `DELIVER(m, b, lts, gts)`: the leader of a group instructs its
    /// followers to deliver `m` with global timestamp `gts` (Figure 4,
    /// line 23).
    Deliver {
        /// The application message.
        msg: AppMessage,
        /// The leader's ballot.
        ballot: Ballot,
        /// The message's local timestamp at this group.
        local_ts: Timestamp,
        /// The message's global timestamp.
        global_ts: Timestamp,
    },
    /// Batched `DELIVER`: the leader instructs its followers to deliver
    /// several committed messages in one wire message. Entries are ordered by
    /// increasing global timestamp; handling them in order is equivalent to
    /// handling one [`WhiteBoxMsg::Deliver`] per entry.
    DeliverBatch {
        /// The leader's ballot.
        ballot: Ballot,
        /// The batched deliveries, in increasing global-timestamp order.
        entries: Vec<DeliverEntry>,
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
            WhiteBoxMsg::AcceptBatch { .. } => "ACCEPT_BATCH",
            WhiteBoxMsg::AcceptAckBatch { .. } => "ACCEPT_ACK_BATCH",
            WhiteBoxMsg::Deliver { .. } => "DELIVER",
            WhiteBoxMsg::DeliverBatch { .. } => "DELIVER_BATCH",
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
    /// it concerns a single application message. Batch messages concern many
    /// messages and return `None` (see [`WhiteBoxMsg::subjects`]).
    pub fn subject(&self) -> Option<MsgId> {
        match self {
            WhiteBoxMsg::Multicast { msg } | WhiteBoxMsg::Accept { msg, .. } => Some(msg.id),
            WhiteBoxMsg::Deliver { msg, .. } => Some(msg.id),
            WhiteBoxMsg::AcceptAck { msg_id, .. }
            | WhiteBoxMsg::ClientReply { msg_id, .. }
            | WhiteBoxMsg::StablePruned { msg_id, .. } => Some(*msg_id),
            _ => None,
        }
    }

    /// All application message identifiers this protocol message is about:
    /// the single subject for per-message variants, every entry for batches.
    pub fn subjects(&self) -> Vec<MsgId> {
        match self {
            WhiteBoxMsg::AcceptBatch { entries, .. } => entries.iter().map(|e| e.msg.id).collect(),
            WhiteBoxMsg::AcceptAckBatch { entries, .. } => {
                entries.iter().map(|(id, _)| *id).collect()
            }
            WhiteBoxMsg::DeliverBatch { entries, .. } => entries.iter().map(|e| e.msg.id).collect(),
            other => other.subject().into_iter().collect(),
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
        let m = WhiteBoxMsg::Deliver {
            msg: msg(),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
            global_ts: Timestamp::new(2, GroupId(1)),
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: WhiteBoxMsg = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
