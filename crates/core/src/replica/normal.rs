//! Normal operation (Figure 4, lines 1–34): `MULTICAST`, `ACCEPT`,
//! `ACCEPT_ACK` and `DELIVER` over the delivery queue, and the per-message
//! retries of message recovery.

use wbam_types::{
    Action, AppMessage, Ballot, DeliveredMessage, DeliveryProgress, GroupId, MsgId, Phase,
    ProcessId, TimerId, Timestamp,
};

use super::{Status, WhiteBoxReplica};
use crate::messages::{BallotVector, DeliverMsg, WhiteBoxMsg};
use crate::record::MessageRecord;
use crate::Outbox;

/// Base for per-message retry timers; retry timer `n` is `RETRY_BASE + n`.
const RETRY_TIMER_BASE: u64 = 1_000;

impl WhiteBoxReplica {
    /// Figure 4, lines 3–9: the leader handles `MULTICAST(m)`. `from` is the
    /// sending process when the request arrived over the wire (`None` for
    /// locally injected submissions and internal re-proposals); it matters
    /// only for pruned records, whose duplicate handling differs between
    /// clients (a completion reply) and retrying peer replicas (a
    /// `STABLE_PRUNED` notice).
    pub(super) fn handle_multicast(
        &mut self,
        from: Option<ProcessId>,
        msg: AppMessage,
        out: &mut Outbox,
    ) {
        if !msg.is_addressed_to(self.own_group()) {
            // Not for us; a client mis-addressed the message. Ignore.
            return;
        }
        match self.status {
            Status::Recovering => {
                // Figure 4 line 4 precondition: only the leader handles it. The
                // sender will retry; dropping is safe.
                return;
            }
            Status::Follower => {
                // Help clients with a stale leader guess: forward to our leader.
                let leader = self.cur_leader.get(&self.own_group()).copied();
                if let Some(leader) = leader.filter(|l| *l != self.config.id) {
                    out.push(Action::send(leader, WhiteBoxMsg::Multicast { msg }));
                }
                return;
            }
            Status::Leader => {}
        }
        let group = self.own_group();
        if !self.records.contains_key(&msg.id) && self.progress.has_delivered(msg.id) {
            // A duplicate MULTICAST for a message whose record was delivered
            // everywhere and pruned. Re-proposing it would order (and
            // deliver) it a second time — the delivered filter is what keeps
            // pruning from breaking Integrity. The actual global timestamp
            // was pruned with the record; the reply carries ⊥, which clients
            // treat like any completion.
            out.extend(self.reply_to_sender(msg.id, Timestamp::BOTTOM));
            // A retry from a *peer replica* (a destination leader pumping
            // §IV message recovery for a record still pending over there)
            // needs more than a client reply: tell it the record is pruned,
            // globally delivered history, so it stops retrying and drops its
            // pending copy (which otherwise wedges its delivery convoy).
            if let Some(peer) = from {
                if peer != msg.id.sender {
                    out.push(Action::send(
                        peer,
                        WhiteBoxMsg::StablePruned {
                            msg_id: msg.id,
                            watermarks: self.progress.watermarks().clone(),
                        },
                    ));
                }
            }
            return;
        }
        let cballot = self.cballot;
        let record = self
            .records
            .get_or_insert_with(msg.id, || MessageRecord::new(msg.clone()));
        if record.phase == Phase::Start {
            // Lines 5–8: assign a fresh local timestamp.
            record.local_ts = self.delivery.propose(group);
            record.phase = Phase::Proposed;
            self.delivery.pend(record.local_ts, msg.id);
        } else if record.phase == Phase::Committed && record.delivered {
            // A duplicate MULTICAST for a record already delivered here tells
            // us the sender may have lost our group's reply (or restarted and
            // re-sent its in-flight messages): re-send the reply. Then fall
            // through to the re-ACCEPT below — another destination leader may
            // still be waiting for our proposal to complete its accept set
            // (§IV, message recovery).
            let global_ts = record.global_ts;
            out.extend(self.reply_to_sender(msg.id, global_ts));
        }
        // Line 9: send ACCEPT to every process of every destination group.
        // (On a duplicate MULTICAST this re-sends the stored proposal.)
        let record = &self.records[&msg.id];
        let accept = WhiteBoxMsg::Accept {
            msg: record.msg.clone(),
            group,
            ballot: cballot,
            local_ts: record.local_ts,
        };
        Action::send_to_all(out, self.destination_processes(&msg), accept);
        out.extend(self.arm_retry_timer(msg.id));
    }

    /// The delivery reply to `id`'s sender, unless the sender is a member of
    /// this group (a re-proposing peer, not a client).
    fn reply_to_sender(&self, id: MsgId, global_ts: Timestamp) -> Option<Action<WhiteBoxMsg>> {
        (!self.group_members.contains(&id.sender)).then(|| {
            Action::send(
                id.sender,
                WhiteBoxMsg::ClientReply {
                    msg_id: id,
                    group: self.own_group(),
                    global_ts,
                },
            )
        })
    }

    /// Figure 4, lines 10–16: a destination process handles `ACCEPT`.
    pub(super) fn handle_accept(
        &mut self,
        msg: AppMessage,
        group: GroupId,
        ballot: Ballot,
        local_ts: Timestamp,
        out: &mut Outbox,
    ) {
        if !msg.is_addressed_to(self.own_group()) {
            return;
        }
        if !self.records.contains_key(&msg.id) && self.progress.has_delivered(msg.id) {
            // A stale ACCEPT for a message delivered everywhere and pruned:
            // recording it would resurrect a record that can never be
            // re-delivered (and would never be pruned again). Drop it.
            return;
        }
        // Remember who currently leads the proposing group (useful for retries).
        if let Some(leader) = ballot.leader() {
            if group != self.own_group() {
                self.cur_leader.insert(group, leader);
            }
        }
        let own_group = self.own_group();
        let cballot = self.cballot;
        let msg_id = msg.id;
        let (own_accept, implied_gts) = {
            let record = self
                .records
                .get_or_insert_with(msg_id, || MessageRecord::new(msg));
            record.record_accept(group, ballot, local_ts);
            (record.accept_of(own_group), record.implied_global_ts())
        };

        // Line 11 precondition: the proposals of all destination groups are
        // in, we must not be recovering, and the proposal of our own group
        // must have been made in the ballot we are synchronised with.
        // Proposals from remote groups are deliberately *not* checked
        // against any ballot (§IV, "Discussion of normal operation").
        let (Some(implied_gts), Some((own_ballot, own_lts))) = (implied_gts, own_accept) else {
            return;
        };
        if self.status == Status::Recovering || own_ballot != cballot {
            return;
        }
        // Lines 12–14 (state update is guarded; the acknowledgement is not).
        let record = self.records.get_mut(&msg_id).expect("record just created");
        if matches!(record.phase, Phase::Start | Phase::Proposed) {
            self.delivery.unpend(record.local_ts, msg_id);
            record.phase = Phase::Accepted;
            record.local_ts = own_lts;
            self.delivery.pend(own_lts, msg_id);
            if self.config.speculative_clock_update {
                // The speculative clock update: advance the clock past the
                // *future* global timestamp before it is known to be durable.
                self.delivery.observe(implied_gts.time());
            }
        }
        // Lines 15–16: acknowledge to the leader of every destination group.
        let record = &self.records[&msg_id];
        let ack = WhiteBoxMsg::AcceptAck {
            msg_id,
            group: own_group,
            ballots: record.ballot_vector(),
        };
        Action::send_to_all(out, record.accept_leaders(), ack);
    }

    /// Figure 4, lines 17–23: the leader handles `ACCEPT_ACK`s and commits.
    pub(super) fn handle_accept_ack(
        &mut self,
        from: ProcessId,
        msg_id: MsgId,
        group: GroupId,
        ballots: BallotVector,
        out: &mut Outbox,
    ) {
        // Line 18 precondition.
        if self.status != Status::Leader {
            return;
        }
        if ballots.get(self.own_group()) != Some(self.cballot) {
            return;
        }
        let own_group = self.own_group();
        let own_index = self.member_index(self.config.id);
        let acker = self.acker_index(group, from);
        let member = acker.filter(|_| group == own_group);
        let Some(record) = self.records.get_mut(&msg_id) else {
            // We have not proposed this message yet; the ack will be re-sent
            // when the proposal eventually reaches the sender again.
            return;
        };
        // An own-group member that acked under our ballot stored the record
        // first: it holds `m`, so its DELIVER may go by reference. Noted
        // before the commit check, so an ack after the commit counts too.
        if let Some(index) = member {
            record.add_holder(index);
        }
        if record.phase == Phase::Committed {
            return;
        }
        // An ack from a process outside the group it names counts for
        // nothing: only members make a quorum.
        let Some(index) = acker else {
            return;
        };
        record.record_ack(ballots, group, index);
        // Line 17: a quorum in every destination group, acknowledging exactly
        // the ballots of the ACCEPTs we hold (`quorum_acked` checks the match
        // per candidate vector, so stale pre-leader-change ack quorums cannot
        // shadow the live one).
        let must_include = own_index.map(|index| (own_group, index));
        if record
            .quorum_acked(&self.quorum_sizes, must_include)
            .is_none()
        {
            return;
        }
        // Lines 19–20: commit.
        let gts = record
            .implied_global_ts()
            .expect("accepts complete for committed message");
        record.commit(gts);
        self.delivery.unpend(record.local_ts, msg_id);
        self.delivery.commit(gts, msg_id);
        out.extend(self.cancel_retry_timer(msg_id));
        // Line 21: deliver every committed message that is no longer blocked.
        self.try_deliver(out);
    }

    /// Figure 4, line 21 (and line 66 after recovery): deliver committed
    /// messages in global-timestamp order once no pending message can receive
    /// a smaller global timestamp.
    pub(super) fn try_deliver(&mut self, out: &mut Outbox) {
        if self.status != Status::Leader {
            return;
        }
        // Committed messages with a global timestamp at or above the smallest
        // local timestamp of a PROPOSED or ACCEPTED message must wait: the
        // pending message might end up ordered before them.
        // Line 23: send DELIVER to the whole group, ourselves included, so
        // that the actual delivery to the application happens uniformly in
        // the DELIVER handler. A member known to hold the record gets it by
        // reference. One candidate at a time: the holder check reads `self`
        // while the queue's iterator would borrow it.
        loop {
            let Some((gts, id)) = self.delivery.pop_deliverable(|_| true).next() else {
                break;
            };
            let record = self.records.get_mut(&id).expect("candidate exists");
            record.delivered = true;
            let record = &self.records[&id];
            for &to in &self.group_members {
                let msg = if self.holds_record(to, id, self.cballot) {
                    DeliverMsg::Ref(id)
                } else {
                    DeliverMsg::Full(record.msg.clone())
                };
                let deliver = WhiteBoxMsg::Deliver {
                    msg,
                    ballot: self.cballot,
                    local_ts: record.local_ts,
                    global_ts: gts,
                };
                out.push(Action::send(to, deliver));
            }
        }
    }

    /// The holder rule: whether `to` is known to hold `id`'s record for a
    /// `DELIVER` in `ballot` — the ballot is ours, the record is resident,
    /// and we counted `to`'s `ACCEPT_ACK` for it in this ballot. `to` stored
    /// the record before acking, and only installing a later ballot replaces
    /// its records, after which it refuses a `DELIVER` of this one.
    fn holds_record(&self, to: ProcessId, id: MsgId, ballot: Ballot) -> bool {
        ballot == self.cballot
            && self.member_index(to).is_some_and(|index| {
                self.records
                    .get(&id)
                    .is_some_and(|record| record.held_by(index))
            })
    }

    /// `member`'s position in the group's configuration order, if it is a
    /// member.
    fn member_index(&self, member: ProcessId) -> Option<usize> {
        self.group_members.iter().position(|&p| p == member)
    }

    /// `acker`'s position in `group`'s configuration order, if it is a
    /// member of `group`.
    fn acker_index(&self, group: GroupId, acker: ProcessId) -> Option<usize> {
        if group == self.own_group() {
            return self.member_index(acker);
        }
        let members = self.config.cluster.group(group)?.members();
        members.iter().position(|&p| p == acker)
    }

    /// The send fold's half of the holder rule: a full `DELIVER` this round
    /// queued for `to` goes by reference if `to` became a holder after it
    /// was queued (its ack arrived later in the round).
    pub(super) fn refer_delivers(&self, to: ProcessId, msgs: &mut [WhiteBoxMsg]) {
        for sent in msgs {
            if let WhiteBoxMsg::Deliver {
                msg: msg @ DeliverMsg::Full(_),
                ballot,
                ..
            } = sent
            {
                if self.holds_record(to, msg.id(), *ballot) {
                    *msg = DeliverMsg::Ref(msg.id());
                }
            }
        }
    }

    /// Figure 4, lines 24–31: every group member handles `DELIVER`.
    pub(super) fn handle_deliver(
        &mut self,
        msg: DeliverMsg,
        ballot: Ballot,
        local_ts: Timestamp,
        global_ts: Timestamp,
        out: &mut Outbox,
    ) {
        // Line 25 precondition: duplicate DELIVERs (possible after leader
        // changes) are filtered via max_delivered_gts.
        if self.status == Status::Recovering {
            return;
        }
        if self.cballot != ballot {
            return;
        }
        let msg = match msg {
            DeliverMsg::Full(msg) => msg,
            DeliverMsg::Ref(id) => match self.records.get(&id) {
                Some(record) => record.msg.clone(),
                // A reference this replica cannot resolve changes nothing,
                // exactly like a lost frame. The holder rule rules it out
                // unless the replica lost its records without a new ballot:
                // an amnesiac `wbamd` restart (DESIGN.md).
                None => return,
            },
        };
        let Some(round_due) = self.progress.note_delivery(global_ts, msg.id) else {
            // A DELIVER at or below our delivery progress: we either already
            // delivered m, or a checkpoint jumped us over it. Do not deliver
            // again — but *install* the decision on a resident record (the
            // ballot check above makes it the current leader's). This is what
            // resolves a record left pending here when its original DELIVER
            // was lost: without the install it would sit pending forever,
            // and one eternally pending record blocks the delivery convoy
            // (at a leader) and caps the stable watermark. It also restores
            // the `delivered` flag — and with it prune eligibility — after a
            // leader change re-broadcast resets it.
            if self.records.contains_key(&msg.id) {
                self.install_delivered(&msg, local_ts, global_ts);
                self.progress.note_reinstalled(global_ts, msg.id);
                out.extend(self.cancel_retry_timer(msg.id));
            }
            return;
        };
        let msg_id = msg.id;
        self.install_delivered(&msg, local_ts, global_ts);
        // Line 31: deliver to the application.
        out.push(Action::Deliver(DeliveredMessage::with_timestamp(
            msg, global_ts,
        )));
        if round_due {
            self.stable(DeliveryProgress::stable_round, out);
        }
        out.extend(self.reply_to_sender(msg_id, global_ts));
    }

    /// Figure 4, lines 26–30: installs the leader's decision on `msg`'s
    /// record — its timestamps, committed and delivered.
    fn install_delivered(&mut self, msg: &AppMessage, local_ts: Timestamp, global_ts: Timestamp) {
        let record = self
            .records
            .get_or_insert_with(msg.id, || MessageRecord::new(msg.clone()));
        self.delivery.unpend(record.local_ts, msg.id);
        self.delivery.forget(record.global_ts, msg.id);
        self.delivery.forget(global_ts, msg.id);
        record.local_ts = local_ts;
        record.commit(global_ts);
        record.delivered = true;
        self.delivery.observe(global_ts.time());
    }

    // ------------------------------------------------------------------
    // Retry (message recovery)
    // ------------------------------------------------------------------

    pub(super) fn arm_retry_timer(&mut self, msg_id: MsgId) -> Option<Action<WhiteBoxMsg>> {
        if self.config.retry_timeout.is_zero() || self.retry_timer_of.contains_key(&msg_id) {
            return None;
        }
        let timer = TimerId(RETRY_TIMER_BASE + self.next_retry_timer);
        self.next_retry_timer += 1;
        self.retry_timer_msgs.insert(timer, msg_id);
        self.retry_timer_of.insert(msg_id, timer);
        Some(Action::SetTimer {
            id: timer,
            delay: self.config.retry_timeout,
        })
    }

    pub(super) fn cancel_retry_timer(&mut self, msg_id: MsgId) -> Option<Action<WhiteBoxMsg>> {
        let timer = self.retry_timer_of.remove(&msg_id)?;
        self.retry_timer_msgs.remove(&timer);
        Some(Action::CancelTimer(timer))
    }

    /// Figure 4, lines 32–34: re-send `MULTICAST(m)` to the destination
    /// leaders when a proposed/accepted message is stuck.
    pub(super) fn handle_retry_timer(&mut self, timer: TimerId, out: &mut Outbox) {
        let Some(msg_id) = self.retry_timer_msgs.get(&timer).copied() else {
            return;
        };
        // A vanished record went in a leader recovery's wholesale
        // replacement (a dropped proposed-only message). Unmap the timer
        // then too: a stale mapping would block `arm_retry_timer` forever
        // when the message is re-proposed, leaving it pending with no retry
        // pump — and one eternally pending record blocks delivery of every
        // later committed one (found by the schedule explorer; see
        // `tests/regressions/`).
        let Some(record) = self.records.get(&msg_id).filter(|r| r.is_pending()) else {
            self.retry_timer_msgs.remove(&timer);
            self.retry_timer_of.remove(&msg_id);
            return;
        };
        let multicast = WhiteBoxMsg::Multicast {
            msg: record.msg.clone(),
        };
        Action::send_to_all(out, self.destination_leaders(&record.msg), multicast);
        out.push(Action::SetTimer {
            id: timer,
            delay: self.config.retry_timeout,
        });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::time::Duration;

    use wbam_types::{ClusterConfig, Destination, Event, Node, Payload};

    use super::*;
    use crate::config::ReplicaConfig;

    const CLIENT: ProcessId = ProcessId(6);
    const B1: Ballot = Ballot::Proper {
        round: 1,
        leader: ProcessId(0),
    };

    /// Group `g`'s three replicas (of a 2 × 3 cluster), in process-id order:
    /// group 0's are indexed by process id.
    fn group(g: u32) -> Vec<WhiteBoxReplica> {
        let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
        (3 * g..3 * g + 3)
            .map(|id| {
                let cfg = ReplicaConfig::new(ProcessId(id), GroupId(g), cluster.clone())
                    .without_auto_election();
                WhiteBoxReplica::new(cfg)
            })
            .collect()
    }

    fn app(seq: u64) -> AppMessage {
        AppMessage::new(
            MsgId::new(CLIENT, seq),
            Destination::single(GroupId(0)),
            Payload::from("payload"),
        )
    }

    type Sent = (ProcessId, ProcessId, WhiteBoxMsg);

    fn sends(from: ProcessId, actions: Vec<Action<WhiteBoxMsg>>) -> impl Iterator<Item = Sent> {
        actions.into_iter().filter_map(move |a| match a {
            Action::Send { to, msg } => Some((from, to, msg)),
            _ => None,
        })
    }

    /// Hands `queue` and everything it causes to the replicas of `g` that
    /// are `up`, first in first out, until nothing is left. Returns every
    /// send, those to down replicas and to processes outside the group
    /// (dropped) included.
    fn settle(g: &mut [WhiteBoxReplica], up: &[usize], queue: Vec<Sent>) -> Vec<Sent> {
        let mut queue = VecDeque::from(queue);
        let mut log = Vec::new();
        while let Some((from, to, msg)) = queue.pop_front() {
            log.push((from, to, msg.clone()));
            let index = to.0 as usize;
            if up.contains(&index) {
                let out = g[index].on_event(Duration::ZERO, Event::message(from, msg));
                queue.extend(sends(to, out));
            }
        }
        log
    }

    /// `msg` from `from` to replica `to` of `g`, and its sends.
    fn handle(g: &mut [WhiteBoxReplica], from: ProcessId, to: u32, msg: WhiteBoxMsg) -> Vec<Sent> {
        let out = g[to as usize].on_event(Duration::ZERO, Event::message(from, msg));
        sends(ProcessId(to), out).collect()
    }

    /// `msg` from `from` to `to`, a replica of `g`, and its sends.
    fn handle_at(
        g: &mut [WhiteBoxReplica],
        from: ProcessId,
        to: ProcessId,
        msg: WhiteBoxMsg,
    ) -> Vec<Sent> {
        let replica = g.iter_mut().find(|r| r.id() == to).expect("a member");
        let out = replica.on_event(Duration::ZERO, Event::message(from, msg));
        sends(to, out).collect()
    }

    /// The form of every `DELIVER` of `id` in `log`, by recipient, in order:
    /// `true` for by reference.
    fn deliver_forms(log: &[Sent], id: MsgId, ballot: Ballot) -> Vec<(u32, bool)> {
        log.iter()
            .filter_map(|(_, to, msg)| match msg {
                WhiteBoxMsg::Deliver { msg, ballot: b, .. } if msg.id() == id && *b == ballot => {
                    Some((to.0, matches!(msg, DeliverMsg::Ref(_))))
                }
                _ => None,
            })
            .collect()
    }

    fn deliver(msg: DeliverMsg, ballot: Ballot, time: u64) -> WhiteBoxMsg {
        WhiteBoxMsg::Deliver {
            msg,
            ballot,
            local_ts: Timestamp::new(time, GroupId(0)),
            global_ts: Timestamp::new(time, GroupId(0)),
        }
    }

    /// The leader sends `DELIVER` by reference to itself and to every
    /// member whose ack it counted before the commit, in full to the
    /// others; the fold then upgrades the `DELIVER` to a member whose ack
    /// arrived later in the round, and nothing else.
    #[test]
    fn deliver_goes_by_reference_to_exactly_the_counted_ackers() {
        let mut g = group(0);
        let m = app(0);
        let accepts = handle(&mut g, CLIENT, 0, WhiteBoxMsg::Multicast { msg: m.clone() });
        // Every member stores the proposal and acks; the acks wait.
        let acks: Vec<Sent> = accepts
            .into_iter()
            .flat_map(|(from, to, msg)| handle(&mut g, from, to.0, msg))
            .collect();
        assert_eq!(acks.len(), 3);
        assert!(acks
            .iter()
            .all(|(_, to, msg)| to.0 == 0 && matches!(msg, WhiteBoxMsg::AcceptAck { .. })));
        let ack_from = |p: u32| acks[p as usize].2.clone();
        assert!(handle(&mut g, ProcessId(0), 0, ack_from(0)).is_empty());
        let log = handle(&mut g, ProcessId(1), 0, ack_from(1));
        assert_eq!(
            deliver_forms(&log, m.id, B1),
            [(0, true), (1, true), (2, false)]
        );
        // p2's ack lands after the commit: no new DELIVER, but p2 holds m.
        assert!(handle(&mut g, ProcessId(2), 0, ack_from(2)).is_empty());
        let leader = &g[0];
        let full = deliver(m.clone().into(), B1, 1);
        let unknown = deliver(app(9).into(), B1, 2);
        let stale = deliver(m.clone().into(), Ballot::new(0, ProcessId(2)), 1);
        let heartbeat = WhiteBoxMsg::Heartbeat { ballot: B1 };
        let round = vec![
            full.clone(),
            heartbeat.clone(),
            stale.clone(),
            heartbeat.clone(),
            unknown.clone(),
        ];
        let mut to_p2 = round.clone();
        leader.fold_sends(ProcessId(2), &mut to_p2);
        assert_eq!(
            to_p2,
            [
                deliver(DeliverMsg::Ref(m.id), B1, 1),
                heartbeat.clone(),
                stale.clone(),
                heartbeat,
                unknown,
            ]
        );
        // Not a member of the group: never a holder.
        let mut to_p3 = vec![full.clone()];
        leader.fold_sends(ProcessId(3), &mut to_p3);
        assert_eq!(to_p3, [full]);
        // The referenced message resolves at the follower.
        let delivered = g[2].on_event(
            Duration::ZERO,
            Event::message(ProcessId(0), to_p2.remove(0)),
        );
        assert!(delivered
            .iter()
            .any(|a| matches!(a, Action::Deliver(d) if d.msg == m)));
    }

    /// A follower given a reference it cannot resolve delivers nothing and
    /// keeps its progress, as if the frame had been lost; the full
    /// `DELIVER` of the same message still delivers it.
    #[test]
    fn an_unresolvable_reference_is_a_lost_frame() {
        let mut follower = group(0).remove(1);
        let m = app(0);
        let out = follower.on_event(
            Duration::ZERO,
            Event::message(ProcessId(0), deliver(DeliverMsg::Ref(m.id), B1, 1)),
        );
        assert!(out.is_empty());
        assert_eq!(follower.progress().max_delivered_gts(), Timestamp::BOTTOM);
        assert_eq!(follower.progress().delivered_count(), 0);
        assert_eq!(follower.phase_of(m.id), None);
        let out = follower.on_event(
            Duration::ZERO,
            Event::message(ProcessId(0), deliver(m.clone().into(), B1, 1)),
        );
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::Deliver(d) if d.msg == m)));
        assert_eq!(
            follower.progress().max_delivered_gts(),
            Timestamp::new(1, GroupId(0))
        );
        assert_eq!(follower.progress().delivered_count(), 1);
    }

    /// Holders are counted per ballot. p1 takes over from p0 with p0's
    /// vote: p0's install drops the holders it had counted, the new
    /// leader's line-66 `DELIVER`s go in full, and an ack carrying the old
    /// ballot makes no holder while one in the new ballot does.
    #[test]
    fn holders_start_empty_in_a_new_ballot_and_old_acks_make_none() {
        let mut g = group(0);
        let (m1, m2) = (app(1), app(2));
        let first = handle(
            &mut g,
            CLIENT,
            0,
            WhiteBoxMsg::Multicast { msg: m1.clone() },
        );
        settle(&mut g, &[0, 1, 2], first);
        assert_eq!(g[2].progress().delivered_count(), 1);
        assert!((0..3).all(|i| g[0].records[&m1.id].held_by(i)));

        // m2's ACCEPT reaches p1 and p2 only, and their acks are lost.
        let first = handle(
            &mut g,
            CLIENT,
            0,
            WhiteBoxMsg::Multicast { msg: m2.clone() },
        );
        let log = settle(&mut g, &[1, 2], first);
        let old_ack = log
            .into_iter()
            .find(|(from, _, msg)| from.0 == 2 && matches!(msg, WhiteBoxMsg::AcceptAck { .. }))
            .expect("p2 acked m2 in ballot 1")
            .2;

        // p1 takes over with p0's vote while p2 is down.
        let first = g[1].on_event(Duration::ZERO, Event::BecomeLeader);
        let log = settle(&mut g, &[0, 1], sends(ProcessId(1), first).collect());
        let b2 = g[1].current_ballot();
        assert!(g[1].is_leader() && b2 > B1);
        assert_eq!(g[0].current_ballot(), b2);
        assert!((0..3).all(|i| !g[0].records[&m1.id].held_by(i)));
        // Line 66 re-delivers m1 with no holder counted in ballot 2; m2,
        // re-proposed in ballot 2, goes by reference to the two ackers.
        assert_eq!(
            deliver_forms(&log, m1.id, b2),
            [(0, false), (1, false), (2, false)]
        );
        assert_eq!(
            deliver_forms(&log, m2.id, b2),
            [(0, true), (1, true), (2, false)]
        );

        // p2's ballot-1 ack arrives late at the new leader: no holder.
        handle(&mut g, ProcessId(2), 1, old_ack);
        let full = deliver(m2.clone().into(), b2, 3);
        let mut to_p2 = vec![full.clone()];
        g[1].fold_sends(ProcessId(2), &mut to_p2);
        assert_eq!(to_p2, [full]);
        assert!(!g[1].holds_record(ProcessId(2), m2.id, b2));
        // p2 comes back and catches up on what it missed: its ballot-2 ack
        // does make it a holder.
        let missed: Vec<Sent> = log.into_iter().filter(|(_, to, _)| to.0 == 2).collect();
        settle(&mut g, &[1, 2], missed);
        assert_eq!(g[2].current_ballot(), b2);
        assert!(g[1].holds_record(ProcessId(2), m2.id, b2));
    }

    /// A leader's release moves its clock past the global timestamp before
    /// its own `DELIVER` comes back. Driven at group 1, with group 0's
    /// messages written by hand:
    /// 1. g0's new leader re-proposes the cross-group `m` at (13, g0), above
    ///    the (4, g0) that g1 had accepted, so no member's clock moves;
    /// 2. g1's leader p3 commits and releases `m` at (13, g0), with its own
    ///    `DELIVER` still queued;
    /// 3. a `MULTICAST` of `n` reaches p3, which proposes it;
    /// 4. `n` commits and its `DELIVER`s queue behind `m`'s;
    /// 5. the client's retry of `n` gets a reply.
    ///
    /// With a clock that moved only at p3's own `DELIVER`, `n` got (5, g1),
    /// every member refused its `DELIVER` as one at or below progress, and
    /// the client got its reply all the same.
    #[test]
    fn a_proposal_after_a_release_is_above_the_released_global_timestamp() {
        let (g0, g1) = (GroupId(0), GroupId(1));
        let (p3, members) = (ProcessId(3), [3, 4, 5].map(ProcessId));
        let mut g = group(1);
        let dest = Destination::new([g0, g1]).expect("two groups");
        let m = AppMessage::new(MsgId::new(CLIENT, 0), dest, Payload::from("m"));
        let n = AppMessage::new(
            MsgId::new(CLIENT, 1),
            Destination::single(g1),
            Payload::from("n"),
        );
        let (old, new) = (Ballot::new(1, ProcessId(0)), Ballot::new(2, ProcessId(2)));
        let g0_accept = |ballot, time| WhiteBoxMsg::Accept {
            msg: m.clone(),
            group: g0,
            ballot,
            local_ts: Timestamp::new(time, g0),
        };
        // g1 proposes m at (1, g1) and g0 at (4, g0): every member accepts.
        let proposal = handle_at(
            &mut g,
            CLIENT,
            p3,
            WhiteBoxMsg::Multicast { msg: m.clone() },
        );
        for (from, to, msg) in proposal
            .into_iter()
            .filter(|(_, to, _)| members.contains(to))
        {
            handle_at(&mut g, from, to, msg);
            handle_at(&mut g, ProcessId(0), to, g0_accept(old, 4));
        }
        assert_eq!(g[0].clock(), 4);
        // Step 1: the re-proposal.
        let acks: Vec<Sent> = members
            .iter()
            .flat_map(|&p| handle_at(&mut g, ProcessId(2), p, g0_accept(new, 13)))
            .filter(|(_, to, _)| *to == p3)
            .collect();
        assert_eq!(
            g[0].clock(),
            4,
            "an accepted record's re-proposal moves no clock"
        );
        // Step 2: g1's acks and a quorum of g0's commit m at p3.
        let ballots: BallotVector = [(g0, new), (g1, Ballot::new(1, p3))].into();
        let g0_acks = [1, 2].map(|p| {
            let ack = WhiteBoxMsg::AcceptAck {
                msg_id: m.id,
                group: g0,
                ballots: ballots.clone(),
            };
            (ProcessId(p), p3, ack)
        });
        let released: Vec<Sent> = acks
            .into_iter()
            .chain(g0_acks)
            .flat_map(|(from, to, msg)| handle_at(&mut g, from, to, msg))
            .collect();
        let gts = Timestamp::new(13, g0);
        assert_eq!(deliver_forms(&released, m.id, Ballot::new(1, p3)).len(), 3);
        // Step 3: n's proposal, above what p3 released.
        let proposal = handle_at(
            &mut g,
            CLIENT,
            p3,
            WhiteBoxMsg::Multicast { msg: n.clone() },
        );
        let lts = g[0].records[&n.id].local_ts;
        assert!(lts > gts, "n proposed at {lts} after releasing {gts}");
        // Step 4: m's DELIVERs first, then n's commit and DELIVERs.
        let mut queue: VecDeque<Sent> = released.into_iter().chain(proposal).collect();
        while let Some((from, to, msg)) = queue.pop_front() {
            if members.contains(&to) {
                queue.extend(handle_at(&mut g, from, to, msg));
            }
        }
        for replica in &g {
            let progress = replica.progress();
            assert_eq!(
                (progress.delivered_count(), progress.max_delivered_gts()),
                (2, lts)
            );
            assert_eq!(progress.lost_deliveries(), 0);
        }
        // Step 5: the client's retry is answered.
        let retry = handle_at(
            &mut g,
            CLIENT,
            p3,
            WhiteBoxMsg::Multicast { msg: n.clone() },
        );
        assert!(retry.iter().any(|(_, to, msg)| *to == CLIENT
            && matches!(msg, WhiteBoxMsg::ClientReply { msg_id, .. } if *msg_id == n.id)));
    }
}
