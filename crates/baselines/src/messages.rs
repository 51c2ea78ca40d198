//! Wire messages and replicated commands of the baseline protocols.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wbam_consensus::{PaxosMsg, Slot};
use wbam_types::{AppMessage, Checkpoint, GroupId, MsgId, Timestamp};

/// Commands replicated within a group by the baselines' consensus layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Persist the local timestamp this group assigns to a message
    /// (the consensus-wrapped version of Figure 1 lines 9–10).
    AssignLocal {
        /// The application message.
        msg: AppMessage,
        /// The local timestamp assigned by this group's leader.
        local_ts: Timestamp,
    },
    /// Persist the message's global timestamp and the clock advance
    /// (the consensus-wrapped version of Figure 1 lines 14–15).
    CommitGlobal {
        /// The message.
        msg_id: MsgId,
        /// The global timestamp.
        global_ts: Timestamp,
    },
}

/// Wire messages of the baseline protocols.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BaselineMsg {
    /// A client submits a message to a group leader.
    Multicast {
        /// The application message.
        msg: AppMessage,
    },
    /// Leader-to-leader exchange of a local timestamp proposal
    /// (the `PROPOSE` message of Skeen's protocol).
    Propose {
        /// The application message (carried so the remote group learns it even
        /// if the client's `MULTICAST` to it was lost).
        msg: AppMessage,
        /// The proposing group.
        group: GroupId,
        /// The proposed local timestamp.
        local_ts: Timestamp,
    },
    /// FastCast only: group `group` confirms that consensus on its local
    /// timestamp for `msg_id` has completed.
    Confirm {
        /// The message.
        msg_id: MsgId,
        /// The confirming group.
        group: GroupId,
    },
    /// The group leader instructs its followers to deliver a committed
    /// message (delivery is leader-driven so that every member of a group
    /// delivers in exactly the order the leader decided).
    Deliver {
        /// The message to deliver.
        msg_id: MsgId,
        /// Its global timestamp.
        global_ts: Timestamp,
    },
    /// An intra-group consensus message.
    Paxos(PaxosMsg<Command>),
    /// Compaction: a member reports its delivery progress to the group
    /// leader, who folds it into the group's delivery watermark (the
    /// baselines' counterpart of the white-box `STABLE_REPORT`, so the three
    /// protocols stay comparable under long runs).
    StableReport {
        /// The reporting member's group.
        group: GroupId,
        /// The member's highest delivered global timestamp.
        delivered_gts: Timestamp,
    },
    /// Compaction: a leader disseminates its watermark knowledge to its group
    /// members and to remote leaders. Receivers merge pointwise by maximum
    /// and prune records (and the consensus-log prefix) covered by every
    /// destination group's watermark.
    StableAdvance {
        /// Per-group delivery watermarks.
        watermarks: BTreeMap<GroupId, Timestamp>,
    },
    /// Compaction: a restarted (or lagging) replica asks its leader for a
    /// catch-up.
    CatchupRequest {
        /// The requesting replica's group.
        group: GroupId,
        /// The requester's delivery progress.
        delivered_gts: Timestamp,
        /// The requester's next undecided consensus slot.
        next_slot: Slot,
    },
    /// Compaction: the leader's catch-up reply — a checkpoint plus the
    /// resident consensus-log suffix, instead of per-message replay. A
    /// requester below the checkpoint's watermark installs the checkpoint
    /// (jumping its delivery progress) and replays only the suffix.
    StateTransfer {
        /// The leader's ordering-layer checkpoint.
        checkpoint: Checkpoint,
        /// The leader's log-compaction frontier (slots below it are gone;
        /// their effects are covered by the checkpoint).
        frontier: Slot,
        /// The resident chosen log suffix at or above the frontier.
        log: Vec<(Slot, Command)>,
    },
    /// Reply to the message's original sender after delivery.
    ClientReply {
        /// The delivered message.
        msg_id: MsgId,
        /// The replying replica's group.
        group: GroupId,
        /// The global timestamp the message was delivered with.
        global_ts: Timestamp,
    },
}
