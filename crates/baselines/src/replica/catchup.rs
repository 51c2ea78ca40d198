//! A restarted follower's catch-up: its request, and the leader's
//! `STATE_TRANSFER` of checkpoint plus consensus-log suffix.

use std::time::Duration;

use wbam_consensus::Slot;
use wbam_types::{Action, Checkpoint, GroupId, MsgId, ProcessId, TimerId, Timestamp};

use super::BaselineReplica;
use crate::messages::{BaselineMsg, Command};
use crate::Outbox;

/// Timer pumping a restarted follower's catch-up request until the leader's
/// `STATE_TRANSFER` arrives (either message may be lost; the slots the
/// follower slept through can be below the leader's compacted log frontier,
/// so normal Paxos traffic alone can never fill the gap).
pub(super) const CATCHUP_TIMER: TimerId = TimerId(2);

/// How long a restarted follower waits for a `STATE_TRANSFER` before
/// re-sending its catch-up request.
const CATCHUP_RETRY: Duration = Duration::from_millis(500);

impl BaselineReplica {
    /// A restarted replica keeps its durable state (records, Paxos log,
    /// clock) but lost its volatile context. If it led its group's
    /// consensus, it re-establishes the leadership through a fresh campaign
    /// so in-flight slots are re-learned from a quorum.
    pub(super) fn handle_restart(&mut self, out: &mut Outbox) {
        self.catchup_pending = false;
        if self.paxos.is_leader() {
            let step = self.paxos.campaign();
            self.convert_paxos(step, out);
        } else if self.progress.enabled() {
            // A restarted follower asks its leader for a catch-up: with
            // compaction on, the decisions (and DELIVER instructions) it
            // slept through may be trimmed from the leader's log, so it
            // recovers from checkpoint + suffix rather than per-message
            // replay. The request is pumped by a retry timer until the
            // transfer lands — either leg can be lost, and a gap below the
            // compacted frontier is unrecoverable through normal Paxos
            // traffic.
            self.catchup_pending = true;
            self.send_catchup_request(out);
        }
    }

    /// Sends (or, on [`CATCHUP_TIMER`], re-sends) this follower's
    /// outstanding catch-up request to the group leader and re-arms the
    /// retry timer.
    pub(super) fn send_catchup_request(&mut self, out: &mut Outbox) {
        let leader = self.leader_of(self.group).filter(|l| *l != self.id);
        let (true, Some(leader)) = (self.catchup_pending, leader) else {
            return;
        };
        let request = BaselineMsg::CatchupRequest {
            group: self.group,
            delivered_gts: self.progress.max_delivered_gts(),
            next_slot: self.paxos.decided_len(),
        };
        let retry = Action::SetTimer {
            id: CATCHUP_TIMER,
            delay: CATCHUP_RETRY,
        };
        out.push(Action::send(leader, request));
        out.push(retry);
    }

    /// Leader handler for a catch-up request: reply with checkpoint + the
    /// resident log suffix at or above the requester's progress.
    pub(super) fn handle_catchup_request(
        &mut self,
        from: ProcessId,
        group: GroupId,
        next_slot: Slot,
        out: &mut Outbox,
    ) {
        if !self.paxos.is_leader() || group != self.group || from == self.id {
            return;
        }
        let frontier = self.paxos.compacted_below();
        let log: Vec<(Slot, Command)> = self
            .paxos
            .chosen_suffix()
            .into_iter()
            .filter(|(slot, _)| *slot >= next_slot.max(frontier))
            .collect();
        out.push(Action::send(
            from,
            BaselineMsg::StateTransfer {
                checkpoint: self.checkpoint(),
                frontier,
                log,
            },
        ));
    }

    /// Installs a catch-up reply: the checkpoint (watermarks, filter, a
    /// delivery-progress jump over pruned history), then the log suffix
    /// through the consensus learner; then self-delivers every committed
    /// record up to the leader's delivery progress — the `DELIVER`
    /// instructions lost while down, reconstructed from the checkpoint
    /// (delivery order is global-timestamp order, so this is exactly the
    /// order the leader instructed).
    pub(super) fn handle_state_transfer(
        &mut self,
        checkpoint: Checkpoint,
        frontier: Slot,
        log: Vec<(Slot, Command)>,
        out: &mut Outbox,
    ) {
        if self.catchup_pending {
            self.catchup_pending = false;
            out.push(Action::CancelTimer(CATCHUP_TIMER));
        }
        self.progress.install(&checkpoint);
        // The commands below the frontier never apply here: take their clock.
        self.delivery.observe(checkpoint.clock);
        let step = self.paxos.install_snapshot(frontier, log);
        self.convert_paxos(step, out);
        // Re-deliver what the leader already delivered: the delivery
        // candidates at or below the leader's progress, in timestamp order
        // (deliver_one filters anything at or below our own progress).
        let deliverable: Vec<(Timestamp, MsgId)> = self
            .delivery
            .committed()
            .take_while(|&(gts, _)| gts <= checkpoint.max_delivered_gts)
            .collect();
        for (gts, id) in deliverable {
            self.deliver_one(id, gts, out);
        }
        self.prune();
    }
}
