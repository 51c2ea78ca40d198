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
use wbam_types::wire::MAX_FRAME_LEN;
use wbam_types::{AppMessage, Ballot, Checkpoint, GroupId, MsgId, Phase, Timestamp};

/// The most entries [`WhiteBoxMsg::coalesce`] puts in one batch.
const FOLD_MAX_ENTRIES: usize = 256;

/// The most payload bytes [`WhiteBoxMsg::coalesce`] puts in one batch. The
/// JSON codec writes a byte as at most four characters, so a batch's
/// payloads take at most half of [`MAX_FRAME_LEN`] under either codec; the
/// other half holds the ids, timestamps and ballot vectors of at most
/// [`FOLD_MAX_ENTRIES`] entries, which is 32 KiB an entry.
const FOLD_MAX_PAYLOAD: usize = MAX_FRAME_LEN / 8;

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

    /// The payload bytes this form carries: none for a reference.
    fn payload_len(&self) -> usize {
        match self {
            DeliverMsg::Full(msg) => msg.payload.len(),
            DeliverMsg::Ref(_) => 0,
        }
    }
}

impl From<AppMessage> for DeliverMsg {
    fn from(msg: AppMessage) -> Self {
        DeliverMsg::Full(msg)
    }
}

/// One message's entry inside an [`WhiteBoxMsg::DeliverBatch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliverEntry {
    /// The delivered message, whole or by reference.
    pub msg: DeliverMsg,
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
    /// The batch variants come from [`WhiteBoxMsg::coalesce`], which folds
    /// the per-message runs of one reactor round on the deployed wire; a
    /// replica's only batched send is the `ACCEPT_ACK_BATCH` answering a
    /// received `ACCEPT_BATCH`.
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
        /// The delivered message, whole or by reference ([`DeliverMsg`]).
        msg: DeliverMsg,
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
            WhiteBoxMsg::Deliver { msg, .. } => Some(msg.id()),
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
            WhiteBoxMsg::DeliverBatch { entries, .. } => {
                entries.iter().map(|e| e.msg.id()).collect()
            }
            other => other.subject().into_iter().collect(),
        }
    }

    /// Folds consecutive runs of per-message traffic into the batch variants
    /// that already exist, in place:
    ///
    /// * `Accept`s with the same `(group, ballot)` become an `AcceptBatch`;
    /// * `AcceptAck`s with the same `group` become an `AcceptAckBatch`;
    /// * `Deliver`s with the same `ballot` become a `DeliverBatch`.
    ///
    /// Nothing is reordered, no batch crosses a kind, group or ballot
    /// boundary, and a run of one stays the plain variant, so a sequence with
    /// nothing to fold comes back untouched. Full and by-reference
    /// `Deliver`s fold into the same batch. A batch holds at most 256
    /// entries and an eighth of [`MAX_FRAME_LEN`] in payload bytes (a single
    /// larger message stays alone; a reference adds none), so the fold never
    /// turns encodable messages into a frame over [`MAX_FRAME_LEN`] under
    /// either codec.
    ///
    /// Every receiver handles a batch as its entries in order, which is what
    /// makes handling the folded sequence equivalent to handling `msgs`. The
    /// TCP runtime applies this to what one reactor round sends to one peer.
    pub fn coalesce(msgs: &mut Vec<WhiteBoxMsg>) {
        let folds = |w: &[WhiteBoxMsg]| w[0].fold_key().is_some_and(|k| w[1].fold_key() == Some(k));
        if !msgs.windows(2).any(folds) {
            return;
        }
        let mut folded = Vec::with_capacity(msgs.len());
        let mut run: Vec<WhiteBoxMsg> = Vec::new();
        let (mut run_key, mut run_payload) = (None, 0);
        for msg in msgs.drain(..) {
            let key = msg.fold_key();
            let payload = msg.fold_payload();
            let joins = key.is_some()
                && key == run_key
                && run.len() < FOLD_MAX_ENTRIES
                && run_payload + payload <= FOLD_MAX_PAYLOAD;
            if !joins {
                close_run(&mut run, &mut folded);
                (run_key, run_payload) = (key, 0);
            }
            if key.is_some() {
                run_payload += payload;
                run.push(msg);
            } else {
                folded.push(msg);
            }
        }
        close_run(&mut run, &mut folded);
        *msgs = folded;
    }

    /// What a message must share with its neighbours to fold with them;
    /// `None` for kinds that never fold.
    fn fold_key(&self) -> Option<FoldKey> {
        match self {
            WhiteBoxMsg::Accept { group, ballot, .. } => Some(FoldKey::Accept(*group, *ballot)),
            WhiteBoxMsg::AcceptAck { group, .. } => Some(FoldKey::AcceptAck(*group)),
            WhiteBoxMsg::Deliver { ballot, .. } => Some(FoldKey::Deliver(*ballot)),
            _ => None,
        }
    }

    /// The payload bytes a message adds to a batch.
    fn fold_payload(&self) -> usize {
        match self {
            WhiteBoxMsg::Accept { msg, .. } => msg.payload.len(),
            WhiteBoxMsg::Deliver { msg, .. } => msg.payload_len(),
            _ => 0,
        }
    }
}

/// See [`WhiteBoxMsg::fold_key`].
#[derive(Clone, Copy, PartialEq)]
enum FoldKey {
    Accept(GroupId, Ballot),
    AcceptAck(GroupId),
    Deliver(Ballot),
}

/// Emits a finished run: a lone message as itself, a longer run as one batch
/// of its entries in order.
fn close_run(run: &mut Vec<WhiteBoxMsg>, out: &mut Vec<WhiteBoxMsg>) {
    if run.len() < 2 {
        out.append(run);
        return;
    }
    let n = run.len();
    let mut batch = match &run[0] {
        WhiteBoxMsg::Accept { group, ballot, .. } => WhiteBoxMsg::AcceptBatch {
            group: *group,
            ballot: *ballot,
            entries: Vec::with_capacity(n),
        },
        WhiteBoxMsg::AcceptAck { group, .. } => WhiteBoxMsg::AcceptAckBatch {
            group: *group,
            entries: Vec::with_capacity(n),
        },
        WhiteBoxMsg::Deliver { ballot, .. } => WhiteBoxMsg::DeliverBatch {
            ballot: *ballot,
            entries: Vec::with_capacity(n),
        },
        _ => unreachable!("only foldable messages open a run"),
    };
    for msg in run.drain(..) {
        match (&mut batch, msg) {
            (
                WhiteBoxMsg::AcceptBatch { entries, .. },
                WhiteBoxMsg::Accept { msg, local_ts, .. },
            ) => {
                entries.push(AcceptEntry { msg, local_ts });
            }
            (
                WhiteBoxMsg::AcceptAckBatch { entries, .. },
                WhiteBoxMsg::AcceptAck {
                    msg_id, ballots, ..
                },
            ) => entries.push((msg_id, ballots)),
            (
                WhiteBoxMsg::DeliverBatch { entries, .. },
                WhiteBoxMsg::Deliver {
                    msg,
                    local_ts,
                    global_ts,
                    ..
                },
            ) => entries.push(DeliverEntry {
                msg,
                local_ts,
                global_ts,
            }),
            _ => unreachable!("a run holds one kind"),
        }
    }
    out.push(batch);
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

    fn app(seq: u64, payload: usize) -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId(9), seq),
            Destination::new(vec![GroupId(0), GroupId(1), GroupId(2)]).unwrap(),
            Payload::zeros(payload),
        )
    }

    fn ballot(round: u64) -> Ballot {
        Ballot::new(round, ProcessId(0))
    }

    fn accept(seq: u64, group: u32, round: u64) -> WhiteBoxMsg {
        WhiteBoxMsg::Accept {
            msg: app(seq, 20),
            group: GroupId(group),
            ballot: ballot(round),
            local_ts: Timestamp::new(seq, GroupId(group)),
        }
    }

    fn ack(seq: u64, group: u32) -> WhiteBoxMsg {
        WhiteBoxMsg::AcceptAck {
            msg_id: MsgId::new(ProcessId(9), seq),
            group: GroupId(group),
            ballots: BTreeMap::from([(GroupId(group), ballot(1))]),
        }
    }

    fn deliver(seq: u64, round: u64, payload: usize) -> WhiteBoxMsg {
        WhiteBoxMsg::Deliver {
            msg: app(seq, payload).into(),
            ballot: ballot(round),
            local_ts: Timestamp::new(seq, GroupId(0)),
            global_ts: Timestamp::new(seq, GroupId(1)),
        }
    }

    fn folded(mut msgs: Vec<WhiteBoxMsg>) -> Vec<WhiteBoxMsg> {
        WhiteBoxMsg::coalesce(&mut msgs);
        msgs
    }

    /// `(kind, subjects)` of each message, the shape a fold may change.
    fn shape(msgs: &[WhiteBoxMsg]) -> Vec<(&'static str, Vec<u64>)> {
        msgs.iter()
            .map(|m| (m.kind(), m.subjects().iter().map(|id| id.seq).collect()))
            .collect()
    }

    #[test]
    fn coalesce_leaves_single_messages_and_window_one_traffic_alone() {
        for single in [accept(1, 0, 1), ack(1, 0), deliver(1, 1, 20)] {
            assert_eq!(folded(vec![single.clone()]), vec![single]);
        }
        // What a window-1 leader sends one follower: one message of each
        // kind per multicast, so no two neighbours share a fold key.
        let window_one: Vec<WhiteBoxMsg> = (0..4)
            .flat_map(|seq| {
                [
                    accept(seq, 0, 1),
                    WhiteBoxMsg::Heartbeat { ballot: ballot(1) },
                    deliver(seq, 1, 20),
                ]
            })
            .collect();
        assert_eq!(folded(window_one.clone()), window_one);
        assert_eq!(folded(Vec::new()), Vec::new());
    }

    #[test]
    fn coalesce_never_crosses_a_kind_group_or_ballot_boundary() {
        let msgs = vec![
            accept(1, 0, 1),
            accept(2, 0, 1),
            accept(3, 1, 1), // another group
            accept(4, 0, 2), // another ballot
            accept(5, 0, 2),
            ack(6, 0),
            ack(7, 0),
            ack(8, 1), // another group
            deliver(9, 1, 20),
            deliver(10, 1, 20),
            WhiteBoxMsg::Heartbeat { ballot: ballot(1) },
            deliver(11, 1, 20), // the heartbeat ends the run
            deliver(12, 2, 20), // another ballot
            deliver(13, 2, 20),
        ];
        let out = folded(msgs);
        assert_eq!(
            shape(&out),
            vec![
                ("ACCEPT_BATCH", vec![1, 2]),
                ("ACCEPT", vec![3]),
                ("ACCEPT_BATCH", vec![4, 5]),
                ("ACCEPT_ACK_BATCH", vec![6, 7]),
                ("ACCEPT_ACK", vec![8]),
                ("DELIVER_BATCH", vec![9, 10]),
                ("HEARTBEAT", vec![]),
                ("DELIVER", vec![11]),
                ("DELIVER_BATCH", vec![12, 13]),
            ]
        );
        // A batch keeps its run's shared fields.
        assert!(matches!(
            &out[2],
            WhiteBoxMsg::AcceptBatch { group: GroupId(0), ballot: b, .. } if *b == ballot(2)
        ));
        assert!(matches!(&out[8], WhiteBoxMsg::DeliverBatch { ballot: b, .. } if *b == ballot(2)));
        // Batches already in the input are left as they are.
        let batch = out[0].clone();
        assert_eq!(
            shape(&folded(vec![batch, accept(3, 0, 1)])),
            vec![("ACCEPT_BATCH", vec![1, 2]), ("ACCEPT", vec![3])]
        );
    }

    #[test]
    fn coalesce_caps_batches_by_entries_and_payload() {
        let many: Vec<WhiteBoxMsg> = (0..FOLD_MAX_ENTRIES as u64 + 1)
            .map(|seq| ack(seq, 0))
            .collect();
        let out = folded(many);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].subjects().len(), FOLD_MAX_ENTRIES);
        assert_eq!(out[1].kind(), "ACCEPT_ACK");

        // Three payloads that fit the cap two at a time.
        let half = FOLD_MAX_PAYLOAD / 2;
        let out = folded((0..3).map(|seq| deliver(seq, 1, half)).collect());
        assert_eq!(
            shape(&out),
            vec![("DELIVER_BATCH", vec![0, 1]), ("DELIVER", vec![2])]
        );
    }

    /// Full and by-reference `DELIVER`s of one ballot fold into one batch,
    /// in order, and only the full entries count towards the payload cap.
    #[test]
    fn coalesce_folds_both_deliver_forms_and_caps_only_full_ones() {
        let by_ref = |seq: u64| match deliver(seq, 1, 0) {
            WhiteBoxMsg::Deliver {
                ballot,
                local_ts,
                global_ts,
                ..
            } => WhiteBoxMsg::Deliver {
                msg: DeliverMsg::Ref(MsgId::new(ProcessId(9), seq)),
                ballot,
                local_ts,
                global_ts,
            },
            _ => unreachable!(),
        };
        let half = FOLD_MAX_PAYLOAD / 2;
        let msgs = vec![
            deliver(0, 1, half),
            by_ref(1),
            deliver(2, 1, half),
            by_ref(3),
            deliver(4, 1, half),
        ];
        let out = folded(msgs);
        assert_eq!(
            shape(&out),
            vec![("DELIVER_BATCH", vec![0, 1, 2, 3]), ("DELIVER", vec![4])]
        );
        let WhiteBoxMsg::DeliverBatch { entries, .. } = &out[0] else {
            unreachable!()
        };
        let refs: Vec<bool> = entries
            .iter()
            .map(|e| matches!(e.msg, DeliverMsg::Ref(_)))
            .collect();
        assert_eq!(refs, [false, true, false, true]);
    }

    /// Four `DELIVER`s, each nearly a whole frame: the fold leaves every one
    /// alone, so each still encodes.
    #[test]
    fn near_cap_delivers_never_fold_into_an_unencodable_frame() {
        use wbam_types::wire::{encode_frame_with, WireCodec};
        let near_cap = MAX_FRAME_LEN - 1024;
        let msgs: Vec<WhiteBoxMsg> = (0..4).map(|seq| deliver(seq, 1, near_cap)).collect();
        assert!(msgs
            .iter()
            .all(|m| encode_frame_with(WireCodec::Binary, m).is_ok()));
        let out = folded(msgs.clone());
        assert_eq!(out, msgs);
    }

    /// The largest batch the fold builds — every entry, every payload byte
    /// it allows — still fits a frame under both codecs.
    #[test]
    fn a_batch_at_both_caps_encodes_under_both_codecs() {
        use wbam_types::wire::{encode_frame_with, WireCodec};
        let each = FOLD_MAX_PAYLOAD / FOLD_MAX_ENTRIES;
        let msgs: Vec<WhiteBoxMsg> = (0..FOLD_MAX_ENTRIES as u64)
            .map(|seq| WhiteBoxMsg::Deliver {
                msg: DeliverMsg::Full(AppMessage::new(
                    MsgId::new(ProcessId(u32::MAX), u64::MAX - seq),
                    Destination::new(vec![GroupId(0), GroupId(1), GroupId(2)]).unwrap(),
                    Payload::from(vec![255u8; each]),
                )),
                ballot: ballot(1),
                local_ts: Timestamp::new(u64::MAX, GroupId(u32::MAX)),
                global_ts: Timestamp::new(u64::MAX, GroupId(u32::MAX)),
            })
            .collect();
        let out = folded(msgs);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].subjects().len(), FOLD_MAX_ENTRIES);
        for codec in [WireCodec::Binary, WireCodec::Json] {
            let frame = encode_frame_with(codec, &out[0]).expect("batch at both caps encodes");
            assert!(frame.len() <= MAX_FRAME_LEN + 4);
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
