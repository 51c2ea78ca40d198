//! The baselines' normal case: `MULTICAST`, `PROPOSE` and `CONFIRM`, the
//! two consensus commands, and leader-driven delivery.

use wbam_consensus::PaxosOutput;
use wbam_types::{
    Action, AppMessage, DeliveredMessage, DeliveryProgress, GroupId, MsgId, Phase, Timestamp,
};

use super::{BaselineRecord, BaselineReplica, Mode};
use crate::messages::{BaselineMsg, Command};
use crate::Outbox;

impl BaselineReplica {
    /// Sends the consensus layer's messages and applies its decisions.
    pub(super) fn convert_paxos(&mut self, step: PaxosOutput<Command>, out: &mut Outbox) {
        for (to, msg) in step.outgoing {
            out.push(Action::send(to, BaselineMsg::Paxos(msg)));
        }
        for (slot, cmd) in step.decided {
            // Remember which message each decided slot concerns, so pruning a
            // record can advance the consensus-log compaction frontier once
            // every slot below it belongs to pruned history.
            if self.progress.enabled() {
                let subject = match &cmd {
                    Command::AssignLocal { msg, .. } => msg.id,
                    Command::CommitGlobal { msg_id, .. } => *msg_id,
                };
                self.slot_msgs.insert(slot, subject);
            }
            self.apply(cmd, out);
        }
    }

    /// Leader entry point: a client (or remote leader) submitted `m`.
    /// `retryable` distinguishes a real `MULTICAST` (client submission or
    /// retry — worth answering with recovery re-sends) from the internal call
    /// made while handling a remote leader's `PROPOSE`. Re-sending our own
    /// proposal in the latter case would let two leaders' duplicate handlers
    /// re-trigger each other forever (a PROPOSE ping-pong storm).
    pub(super) fn handle_multicast(&mut self, msg: AppMessage, retryable: bool, out: &mut Outbox) {
        if !msg.is_addressed_to(self.group) {
            return;
        }
        if !self.paxos.is_leader() {
            // Forward to the group's leader.
            if let Some(leader) = self.leader_of(self.group).filter(|l| *l != self.id) {
                out.push(Action::send(leader, BaselineMsg::Multicast { msg }));
            }
            return;
        }
        if !self.records.contains_key(&msg.id) && self.progress.has_delivered(msg.id) {
            // Duplicate of a message delivered everywhere and pruned:
            // re-proposing would deliver it twice. Answer retries from the
            // bounded delivered filter (the actual timestamp went with the
            // record; clients treat the ⊥ reply like any completion).
            if retryable {
                out.extend(self.reply_to_sender(msg.id, Timestamp::BOTTOM));
            }
            return;
        }
        let stashed_confirms = self.pending_confirms.remove(&msg.id);
        let record = self.record_entry(&msg);
        if let Some(confirms) = stashed_confirms {
            record.confirms.extend(confirms);
        }
        if record.assign_proposed {
            if !retryable {
                return;
            }
            // Message recovery on a duplicate MULTICAST (a client or remote
            // leader retry): a delivered record re-sends the client reply
            // (the original may have been lost, or the client restarted); an
            // in-flight record whose local timestamp is already decided
            // re-sends this group's proposal to the other destination
            // leaders, so one lost PROPOSE does not stall the message
            // forever. Both are idempotent at the receiver.
            let delivered = record.delivered;
            let global_ts = record.global_ts;
            let local_ts = record.local_ts;
            let stored = record.msg.clone();
            if delivered {
                out.extend(self.reply_to_sender(stored.id, global_ts));
            } else if local_ts != Timestamp::BOTTOM {
                self.send_proposals(&stored, local_ts, out);
            }
            return;
        }
        let local_ts = self.delivery.propose(self.group);
        self.update(msg.id, |r| {
            r.assign_proposed = true;
            r.tentative_lts = local_ts;
        });
        // Persist the assignment through consensus.
        let step = self.paxos.propose(Command::AssignLocal {
            msg: msg.clone(),
            local_ts,
        });
        self.convert_paxos(step, out);
        if self.mode == Mode::FastCast {
            // Speculation: forward the (not yet durable) proposal right away.
            self.send_proposals(&msg, local_ts, out);
            self.note_proposal(&msg, self.group, local_ts, out);
        }
    }

    /// Sends this group's local-timestamp proposal to the other destination
    /// groups' leaders.
    fn send_proposals(&self, msg: &AppMessage, local_ts: Timestamp, out: &mut Outbox) {
        let others = msg.dest.iter().filter(|g| *g != self.group);
        let propose = BaselineMsg::Propose {
            msg: msg.clone(),
            group: self.group,
            local_ts,
        };
        Action::send_to_all(out, others.filter_map(|g| self.leader_of(g)), propose);
    }

    /// Records a proposal (own or remote) at the leader and, once proposals
    /// from every destination group are known, starts the second consensus.
    pub(super) fn note_proposal(
        &mut self,
        msg: &AppMessage,
        group: GroupId,
        local_ts: Timestamp,
        out: &mut Outbox,
    ) {
        if !self.paxos.is_leader() {
            return;
        }
        if !self.records.contains_key(&msg.id) && self.progress.has_delivered(msg.id) {
            // A stale proposal for pruned, globally delivered history: do not
            // resurrect a record nothing will ever deliver or prune again.
            return;
        }
        let mode = self.mode;
        let record = self.record_entry(msg);
        record.proposals.insert(group, local_ts);
        let complete = msg.dest.iter().all(|g| record.proposals.contains_key(&g));
        if !complete || record.commit_proposed {
            return;
        }
        // Fault-tolerant Skeen additionally waits for its own assignment to be
        // durable (the first consensus) before computing the global timestamp;
        // FastCast computes it speculatively.
        if mode == Mode::FtSkeen && record.phase == Phase::Start {
            return;
        }
        record.commit_proposed = true;
        let gts = Timestamp::global_of(record.proposals.values().copied());
        let msg_id = msg.id;
        let step = self.paxos.propose(Command::CommitGlobal {
            msg_id,
            global_ts: gts,
        });
        self.convert_paxos(step, out);
    }

    /// Applies a decided command to the group's replicated state.
    fn apply(&mut self, cmd: Command, out: &mut Outbox) {
        match cmd {
            Command::AssignLocal { msg, local_ts } => {
                let group = self.group;
                self.record_entry(&msg);
                self.update(msg.id, |r| {
                    if r.phase == Phase::Start {
                        r.phase = Phase::Proposed;
                        r.local_ts = local_ts;
                    }
                });
                self.delivery.observe(local_ts.time());
                if self.paxos.is_leader() {
                    match self.mode {
                        Mode::FtSkeen => {
                            // Only now is the proposal durable; exchange it.
                            self.send_proposals(&msg, local_ts, out);
                            self.note_proposal(&msg, group, local_ts, out);
                        }
                        Mode::FastCast => {
                            // The proposal went out speculatively; confirm that
                            // consensus on it has now completed.
                            for g in msg.dest.iter() {
                                if g == group {
                                    self.note_confirm(msg.id, group, out);
                                } else if let Some(leader) = self.leader_of(g) {
                                    out.push(Action::send(
                                        leader,
                                        BaselineMsg::Confirm {
                                            msg_id: msg.id,
                                            group,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            Command::CommitGlobal { msg_id, global_ts } => {
                self.update(msg_id, |r| {
                    r.commit_decided = true;
                    r.global_ts = global_ts;
                    if r.phase < Phase::Committed {
                        r.phase = Phase::Committed;
                    }
                });
                // The clock advances past the global timestamp only here, i.e.
                // only after the second consensus — the source of the 2×
                // failure-free latency degradation of the baselines (§VI).
                self.delivery.observe(global_ts.time());
                self.try_deliver(out);
            }
        }
    }

    /// Records a FastCast confirmation at the leader.
    pub(super) fn note_confirm(&mut self, msg_id: MsgId, group: GroupId, out: &mut Outbox) {
        match self.records.get_mut(&msg_id) {
            Some(record) => {
                record.confirms.insert(group);
            }
            None if !self.progress.has_delivered(msg_id) => {
                // The confirmation outran the message itself; remember it.
                self.pending_confirms
                    .entry(msg_id)
                    .or_default()
                    .insert(group);
            }
            // A confirmation for pruned history needs no bookkeeping.
            None => {}
        }
        self.try_deliver(out);
    }

    /// Skeen's delivery rule over the leader's state: deliver committed
    /// messages in global-timestamp order once no pending message can be
    /// ordered before them. FastCast leaders additionally wait for
    /// confirmations from every destination group. Delivery is leader-driven:
    /// the leader delivers locally and instructs its followers with
    /// [`BaselineMsg::Deliver`], which guarantees that every member of the
    /// group delivers in exactly the leader's order.
    fn try_deliver(&mut self, out: &mut Outbox) {
        if !self.paxos.is_leader() {
            return;
        }
        // FastCast: the leader must also have confirmations from every
        // destination group before acting on the speculative order. An
        // unconfirmed message also blocks everything ordered after it —
        // otherwise a higher-timestamped message could overtake it and the
        // group would deliver out of timestamp order.
        let (mode, records) = (self.mode, &self.records);
        let confirmed = |id: MsgId| {
            mode == Mode::FtSkeen || {
                let r = &records[&id];
                r.msg.dest.iter().all(|g| r.confirms.contains(&g))
            }
        };
        let deliverable: Vec<(Timestamp, MsgId)> =
            self.delivery.pop_deliverable(confirmed).collect();
        for (gts, id) in deliverable {
            self.deliver_one(id, gts, out);
            // The entry left the queue; one the duplicate filter kept from
            // delivering is still a candidate, and goes back.
            self.update(id, |_| ());
            // Tell the followers.
            let followers = self.group_members.iter().copied().filter(|p| *p != self.id);
            let deliver = BaselineMsg::Deliver {
                msg_id: id,
                global_ts: gts,
            };
            Action::send_to_all(out, followers, deliver);
        }
    }

    /// Delivers one message locally (leader on its own decision, follower on
    /// a `Deliver` instruction); delivery progress filters duplicates.
    pub(super) fn deliver_one(&mut self, id: MsgId, gts: Timestamp, out: &mut Outbox) {
        if !self.records.get(&id).is_some_and(|r| !r.delivered) {
            return;
        }
        let Some(round_due) = self.progress.note_delivery(gts, id) else {
            return;
        };
        let deliver = |r: &mut BaselineRecord| {
            r.delivered = true;
            r.phase = Phase::Committed;
            r.global_ts = gts;
            r.msg.clone()
        };
        let msg = self.update(id, deliver).expect("checked resident above");
        out.push(Action::Deliver(DeliveredMessage::with_timestamp(msg, gts)));
        out.extend(self.reply_to_sender(id, gts));
        if round_due {
            self.stable(DeliveryProgress::stable_round, out);
        }
    }

    /// The delivery reply to `id`'s sender, unless the sender is a member of
    /// this group (a re-proposing peer, not a client).
    fn reply_to_sender(&self, id: MsgId, global_ts: Timestamp) -> Option<Action<BaselineMsg>> {
        (!self.group_members.contains(&id.sender)).then(|| {
            Action::send(
                id.sender,
                BaselineMsg::ClientReply {
                    msg_id: id,
                    group: self.group,
                    global_ts,
                },
            )
        })
    }
}
