//! The white-box atomic multicast replica (Figure 4 of the paper).
//!
//! A [`WhiteBoxReplica`] plays one process `pi ∈ g0` of the protocol. It is a
//! sans-IO [`Node`]: protocol messages and timer events go in, sends /
//! deliveries / timer requests come out. The handlers map one-to-one onto the
//! `when received ...` blocks of Figure 4 and are annotated with the
//! corresponding line numbers.
//!
//! # Roles
//!
//! Every replica is the *leader* of its group, a *follower*, or *recovering*
//! (during a leader change). Only the leader assigns local timestamps and
//! decides when to deliver; followers durably store its decisions so that a
//! new leader can take over after a crash (passive replication, as in
//! Viewstamped Replication and Zab).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use wbam_types::{
    Action, AppMessage, Ballot, Checkpoint, Compaction, ConfigError, DeliveredFilter,
    DeliveredMessage, DeliveryQueue, Event, GroupId, MsgId, Node, Phase, ProcessId, RecordMap,
    TimerId, Timestamp,
};

use crate::config::ReplicaConfig;
use crate::messages::{AcceptEntry, BallotVector, DeliverEntry, StateSnapshot, WhiteBoxMsg};
use crate::record::MessageRecord;

/// Timer used by a leader to send heartbeats to its followers.
const HEARTBEAT_TIMER: TimerId = TimerId(1);
/// Timer used by a follower to monitor its leader's liveness.
const ELECTION_TIMER: TimerId = TimerId(2);
/// Base for per-message retry timers; retry timer `n` is `RETRY_BASE + n`.
const RETRY_TIMER_BASE: u64 = 1_000;

/// The role a replica currently plays in its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// This replica computes timestamps and decides deliveries for its group.
    Leader,
    /// This replica follows its group's leader.
    Follower,
    /// This replica is establishing a new ballot (Figure 4, lines 35–65).
    Recovering,
}

/// Bookkeeping of an in-progress leader recovery at the prospective leader.
#[derive(Debug, Clone)]
struct RecoveryState {
    /// The ballot being established.
    ballot: Ballot,
    /// `NEWLEADER_ACK`s received so far, keyed by sender.
    acks: BTreeMap<ProcessId, NewLeaderAckData>,
    /// Whether the new state has been computed and `NEW_STATE` sent.
    installed: bool,
    /// Processes (including ourselves) that acknowledged the new state.
    state_acks: BTreeSet<ProcessId>,
}

#[derive(Debug, Clone)]
struct NewLeaderAckData {
    cballot: Ballot,
    checkpoint: Checkpoint,
    snapshot: StateSnapshot,
}

/// A replica of the white-box atomic multicast protocol.
///
/// See the [crate-level documentation](crate) for an overview and
/// `examples/quickstart.rs` for an end-to-end run.
pub struct WhiteBoxReplica {
    config: ReplicaConfig,
    status: Status,
    /// The logical clock used to generate local timestamps (Figure 3).
    clock: u64,
    /// The ballot this replica last synchronised with (`cballot`).
    cballot: Ballot,
    /// The highest ballot this replica has joined (`ballot`); `cballot ≤ ballot`.
    ballot: Ballot,
    /// Current best guess of the leader of every group (`Cur_leader`).
    cur_leader: BTreeMap<GroupId, ProcessId>,
    /// Highest global timestamp of a delivered message (`max_delivered_gts`).
    max_delivered_gts: Timestamp,
    /// Per-message protocol state.
    records: RecordMap<MessageRecord>,
    /// Members of this replica's group, in configuration order.
    group_members: Vec<ProcessId>,
    /// Quorum size of every group.
    quorum_sizes: BTreeMap<GroupId, usize>,
    /// In-progress recovery, if this replica is establishing a ballot.
    recovery: Option<RecoveryState>,
    /// Retry timers: timer id → message, and message → timer id.
    retry_timer_msgs: BTreeMap<TimerId, MsgId>,
    retry_timer_of: RecordMap<TimerId>,
    next_retry_timer: u64,
    /// Last time we heard from our group's leader (heartbeat or any message).
    last_leader_activity: Duration,
    /// Number of application messages this replica has delivered.
    delivered_count: u64,
    /// Delivery-condition index (Figure 4 line 21): the local timestamps of
    /// records whose phase is `PROPOSED` or `ACCEPTED`, and the global
    /// timestamps of committed-but-undelivered records.
    delivery: DeliveryQueue,
    /// The `STABLE` exchange: watermarks, member progress and the prune scan.
    compaction: Compaction,
    /// Compaction: bounded filter of every delivered message identifier,
    /// answering duplicate `MULTICAST`s (and fencing stale `ACCEPT`s) for
    /// records that have been pruned from the record map.
    dedup: DeliveredFilter,
    /// Number of records examined by the most recent restart re-arm scan
    /// (regression guard: restart work must be proportional to the pending
    /// suffix, not the whole record history).
    last_restart_scan: usize,
    /// Pending records dropped on a `STABLE_PRUNED` notice: globally
    /// delivered history this replica will never apply locally. Tracked per
    /// message (not as a blanket watermark excusal) so the test oracles can
    /// excuse exactly these gaps and nothing else.
    pruned_dropped: BTreeSet<MsgId>,
}

impl WhiteBoxReplica {
    /// Creates a replica from its configuration.
    ///
    /// The first member of every group is the initial leader, and every member
    /// starts synchronised with ballot `(1, initial leader)`.
    ///
    /// # Panics
    ///
    /// Panics if the configured group does not exist in the cluster or does
    /// not contain the replica's own identifier. Use [`Self::try_new`] to
    /// handle misconfigurations as values instead.
    pub fn new(config: ReplicaConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a replica from its configuration, reporting misconfigurations
    /// as a typed [`ConfigError`] instead of aborting — randomized
    /// configuration exploration depends on this surfacing as a finding
    /// rather than a process abort.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownGroup`] if the configured group does not
    /// exist in the cluster and [`ConfigError::NotAMember`] if it does not
    /// contain the replica's own identifier.
    pub fn try_new(config: ReplicaConfig) -> Result<Self, ConfigError> {
        let group = config
            .cluster
            .group(config.group)
            .ok_or(ConfigError::UnknownGroup {
                group: config.group,
            })?;
        if !group.contains(config.id) {
            return Err(ConfigError::NotAMember {
                process: config.id,
                group: config.group,
            });
        }
        let initial_leader = group.initial_leader();
        let initial_ballot = Ballot::new(1, initial_leader);
        let status = if config.id == initial_leader {
            Status::Leader
        } else {
            Status::Follower
        };
        let cur_leader = config.cluster.initial_leaders();
        let quorum_sizes = config
            .cluster
            .groups()
            .iter()
            .map(|g| (g.id(), g.quorum_size()))
            .collect();
        let group_members = group.members().to_vec();
        Ok(WhiteBoxReplica {
            status,
            clock: 0,
            cballot: initial_ballot,
            ballot: initial_ballot,
            cur_leader,
            max_delivered_gts: Timestamp::BOTTOM,
            records: RecordMap::new(),
            group_members,
            quorum_sizes,
            recovery: None,
            retry_timer_msgs: BTreeMap::new(),
            retry_timer_of: RecordMap::new(),
            next_retry_timer: 0,
            last_leader_activity: Duration::ZERO,
            delivered_count: 0,
            delivery: DeliveryQueue::new(),
            compaction: Compaction::new(config.compaction_interval, config.compaction_lag),
            dedup: DeliveredFilter::new(),
            last_restart_scan: 0,
            pruned_dropped: BTreeSet::new(),
            config,
        })
    }

    /// Rebuilds the delivery-condition and compaction indexes from scratch.
    /// Called whenever the record map is replaced wholesale (leader
    /// recovery); with compaction enabled the replaced map holds only the
    /// suffix above the watermark, so this costs O(suffix), not O(history).
    fn rebuild_delivery_index(&mut self) {
        self.delivery = DeliveryQueue::new();
        for r in self.records.values() {
            if r.is_pending() {
                self.delivery.pend(r.local_ts, r.id());
            } else if r.phase == Phase::Committed && !r.delivered {
                self.delivery.commit(r.global_ts, r.id());
            }
        }
        let delivered = self.records.values().filter(|r| r.delivered);
        self.compaction
            .reindex(delivered.map(|r| (r.global_ts, r.id())));
    }

    /// The replica's current role.
    pub fn status(&self) -> Status {
        self.status
    }

    /// The ballot the replica is currently synchronised with.
    pub fn current_ballot(&self) -> Ballot {
        self.cballot
    }

    /// The replica's logical clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of application messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// The phase of a message at this replica, if it has heard of it.
    pub fn phase_of(&self, m: MsgId) -> Option<Phase> {
        self.records.get(&m).map(|r| r.phase)
    }

    /// Every known record's `(phase, delivered)` state, for inspection by
    /// test harnesses and the schedule explorer's failure reports.
    pub fn record_states(&self) -> Vec<(MsgId, Phase, bool)> {
        self.records
            .values()
            .map(|r| (r.id(), r.phase, r.delivered))
            .collect()
    }

    /// Debug rendering of a message's full record at this replica.
    pub fn debug_record(&self, m: MsgId) -> Option<String> {
        self.records.get(&m).map(|r| format!("{r:?}"))
    }

    /// The global timestamp of a message at this replica, if committed.
    pub fn global_ts_of(&self, m: MsgId) -> Option<Timestamp> {
        self.records
            .get(&m)
            .filter(|r| r.phase.is_committed())
            .map(|r| r.global_ts)
    }

    /// The highest global timestamp this replica has delivered.
    pub fn max_delivered_gts(&self) -> Timestamp {
        self.max_delivered_gts
    }

    /// Number of message records currently resident — the quantity bounded by
    /// compaction (in-flight records plus the lag/interval window).
    pub fn live_records(&self) -> usize {
        self.records.len()
    }

    /// Window slots the record store has allocated (see
    /// [`RecordMap::slot_capacity`]).
    pub fn record_slots(&self) -> usize {
        self.records.slot_capacity()
    }

    /// The replica's compaction state: watermarks, pruned and state-transfer
    /// counters.
    pub fn compaction(&self) -> &Compaction {
        &self.compaction
    }

    /// Number of records examined by the most recent restart re-arm scan
    /// (the pending suffix, not the full history).
    pub fn last_restart_scan(&self) -> usize {
        self.last_restart_scan
    }

    /// Pending records this replica dropped on a `STABLE_PRUNED` notice —
    /// globally delivered history it will never apply locally. Test oracles
    /// excuse exactly these per-message gaps.
    pub fn pruned_dropped(&self) -> &BTreeSet<MsgId> {
        &self.pruned_dropped
    }

    /// The replica's current ordering-layer checkpoint: ballot, clock,
    /// watermarks, delivery progress and the delivered-message filter.
    /// `app_state` is left empty — the ordering layer does not interpret
    /// application state; embedders (e.g. a key-value store) fill it in.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            group: self.config.group,
            ballot: self.cballot,
            clock: self.clock,
            watermarks: self.compaction.watermarks().clone(),
            max_delivered_gts: self.max_delivered_gts,
            delivered_count: self.delivered_count,
            dedup: self.dedup.clone(),
            app_state: Vec::new(),
        }
    }

    fn own_group(&self) -> GroupId {
        self.config.group
    }

    fn own_quorum(&self) -> usize {
        self.quorum_sizes[&self.own_group()]
    }

    /// Whether this replica currently acts as its group's leader.
    pub fn is_leader(&self) -> bool {
        self.status == Status::Leader
    }

    /// Processes of every destination group of `m`.
    fn destination_processes(&self, msg: &AppMessage) -> Vec<ProcessId> {
        let mut out = Vec::new();
        for g in msg.dest.iter() {
            if let Some(gc) = self.config.cluster.group(g) {
                out.extend_from_slice(gc.members());
            }
        }
        out
    }

    /// Current leaders of the destination groups of `m`.
    fn destination_leaders(&self, msg: &AppMessage) -> Vec<ProcessId> {
        msg.dest
            .iter()
            .filter_map(|g| self.cur_leader.get(&g).copied())
            .collect()
    }

    // ------------------------------------------------------------------
    // Normal operation
    // ------------------------------------------------------------------

    /// Figure 4, lines 3–9: the leader handles `MULTICAST(m)`. `from` is the
    /// sending process when the request arrived over the wire (`None` for
    /// locally injected submissions and internal re-proposals); it matters
    /// only for pruned records, whose duplicate handling differs between
    /// clients (a completion reply) and retrying peer replicas (a
    /// `STABLE_PRUNED` notice).
    fn handle_multicast(
        &mut self,
        from: Option<ProcessId>,
        msg: AppMessage,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = Vec::new();
        if !msg.is_addressed_to(self.own_group()) {
            // Not for us; a client mis-addressed the message. Ignore.
            return actions;
        }
        match self.status {
            Status::Recovering => {
                // Figure 4 line 4 precondition: only the leader handles it. The
                // sender will retry; dropping is safe.
                return actions;
            }
            Status::Follower => {
                // Help clients with a stale leader guess: forward to our leader.
                let leader = self.cur_leader.get(&self.own_group()).copied();
                if let Some(leader) = leader {
                    if leader != self.config.id {
                        actions.push(Action::send(leader, WhiteBoxMsg::Multicast { msg }));
                    }
                }
                return actions;
            }
            Status::Leader => {}
        }
        let group = self.own_group();
        if !self.records.contains_key(&msg.id) && self.dedup.contains(msg.id) {
            // A duplicate MULTICAST for a message whose record was delivered
            // everywhere and pruned. Re-proposing it would order (and
            // deliver) it a second time — the delivered filter is what keeps
            // pruning from breaking Integrity. The actual global timestamp
            // was pruned with the record; the reply carries ⊥, which clients
            // treat like any completion.
            if self.config.notify_sender && !self.group_members.contains(&msg.id.sender) {
                actions.push(Action::send(
                    msg.id.sender,
                    WhiteBoxMsg::ClientReply {
                        msg_id: msg.id,
                        group,
                        global_ts: Timestamp::BOTTOM,
                    },
                ));
            }
            // A retry from a *peer replica* (a destination leader pumping
            // §IV message recovery for a record still pending over there)
            // needs more than a client reply: tell it the record is pruned,
            // globally delivered history, so it stops retrying and drops its
            // pending copy (which otherwise wedges its delivery convoy).
            if let Some(peer) = from {
                if peer != msg.id.sender {
                    actions.push(Action::send(
                        peer,
                        WhiteBoxMsg::StablePruned {
                            msg_id: msg.id,
                            watermarks: self.compaction.watermarks().clone(),
                        },
                    ));
                }
            }
            return actions;
        }
        let cballot = self.cballot;
        let clock = &mut self.clock;
        let record = self
            .records
            .get_or_insert_with(msg.id, || MessageRecord::new(msg.clone()));
        let fresh = record.phase == Phase::Start;
        if fresh {
            // Lines 5–8: assign a fresh local timestamp.
            *clock += 1;
            record.local_ts = Timestamp::new(*clock, group);
            record.phase = Phase::Proposed;
            self.delivery.pend(record.local_ts, msg.id);
        }
        if !fresh && self.records[&msg.id].phase == Phase::Committed {
            // A duplicate MULTICAST for a record that already committed here
            // tells us the sender may have lost our group's reply (or
            // restarted and re-sent its in-flight messages): re-send the
            // reply once delivered. Then fall through to the re-ACCEPT below
            // — another destination leader may still be waiting for our
            // proposal to complete its accept set (§IV, message recovery).
            let record = &self.records[&msg.id];
            if record.delivered
                && self.config.notify_sender
                && !self.group_members.contains(&msg.id.sender)
            {
                actions.push(Action::send(
                    msg.id.sender,
                    WhiteBoxMsg::ClientReply {
                        msg_id: msg.id,
                        group,
                        global_ts: record.global_ts,
                    },
                ));
            }
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
        let recipients = self.destination_processes(&msg);
        actions.extend(Action::send_to_all(recipients, accept));
        actions.extend(self.arm_retry_timer(msg.id));
        actions
    }

    /// Figure 4, lines 10–16: a destination process handles `ACCEPT`.
    fn handle_accept(
        &mut self,
        msg: AppMessage,
        group: GroupId,
        ballot: Ballot,
        local_ts: Timestamp,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let own_group = self.own_group();
        match self.process_accept(msg, group, ballot, local_ts) {
            None => Vec::new(),
            Some((msg_id, ballots, leaders)) => Action::send_to_all(
                leaders,
                WhiteBoxMsg::AcceptAck {
                    msg_id,
                    group: own_group,
                    ballots,
                },
            ),
        }
    }

    /// A batched `ACCEPT`: record every entry, then coalesce the resulting
    /// acknowledgements into one `ACCEPT_ACK_BATCH` per destination leader —
    /// this is what amortises the ack leg of the ordering round.
    fn handle_accept_batch(
        &mut self,
        group: GroupId,
        ballot: Ballot,
        entries: Vec<AcceptEntry>,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let own_group = self.own_group();
        let mut per_leader: BTreeMap<ProcessId, Vec<(MsgId, BallotVector)>> = BTreeMap::new();
        for entry in entries {
            if let Some((msg_id, ballots, leaders)) =
                self.process_accept(entry.msg, group, ballot, entry.local_ts)
            {
                for to in leaders {
                    per_leader
                        .entry(to)
                        .or_default()
                        .push((msg_id, ballots.clone()));
                }
            }
        }
        per_leader
            .into_iter()
            .map(|(to, entries)| {
                Action::send(
                    to,
                    WhiteBoxMsg::AcceptAckBatch {
                        group: own_group,
                        entries,
                    },
                )
            })
            .collect()
    }

    /// Core of the `ACCEPT` handler. Records the proposal and, when the
    /// message becomes ready to acknowledge, returns the ack's content and
    /// the destination leaders it must go to.
    fn process_accept(
        &mut self,
        msg: AppMessage,
        group: GroupId,
        ballot: Ballot,
        local_ts: Timestamp,
    ) -> Option<(MsgId, BallotVector, Vec<ProcessId>)> {
        if !msg.is_addressed_to(self.own_group()) {
            return None;
        }
        if !self.records.contains_key(&msg.id) && self.dedup.contains(msg.id) {
            // A stale ACCEPT for a message delivered everywhere and pruned:
            // recording it would resurrect a record that can never be
            // re-delivered (and would never be pruned again). Drop it.
            return None;
        }
        // Remember who currently leads the proposing group (useful for retries).
        if let Some(leader) = ballot.leader() {
            if group != self.own_group() {
                self.cur_leader.insert(group, leader);
            }
        }
        let own_group = self.own_group();
        let cballot = self.cballot;
        let speculative = self.config.speculative_clock_update;
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
        let implied_gts = implied_gts?;
        if self.status == Status::Recovering {
            return None;
        }
        let (own_ballot, own_lts) = own_accept?;
        if own_ballot != cballot {
            return None;
        }
        // Lines 12–14 (state update is guarded; the acknowledgement is not).
        let record = self.records.get_mut(&msg_id).expect("record just created");
        if matches!(record.phase, Phase::Start | Phase::Proposed) {
            self.delivery.unpend(record.local_ts, msg_id);
            record.phase = Phase::Accepted;
            record.local_ts = own_lts;
            self.delivery.pend(own_lts, msg_id);
            if speculative {
                // The speculative clock update: advance the clock past the
                // *future* global timestamp before it is known to be durable.
                self.clock = self.clock.max(implied_gts.time());
            }
        }
        // Lines 15–16: acknowledge to the leader of every destination group.
        let record = &self.records[&msg_id];
        Some((msg_id, record.ballot_vector(), record.accept_leaders()))
    }

    /// Figure 4, lines 17–23: the leader handles `ACCEPT_ACK`s and commits.
    fn handle_accept_ack(
        &mut self,
        from: ProcessId,
        msg_id: MsgId,
        group: GroupId,
        ballots: BallotVector,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = Vec::new();
        if self.process_accept_ack(from, msg_id, group, ballots) {
            actions.extend(self.cancel_retry_timer(msg_id));
            // Line 21: deliver every committed message that is no longer
            // blocked.
            actions.extend(self.try_deliver());
        }
        actions
    }

    /// A batched `ACCEPT_ACK`: record every entry and run the delivery rule
    /// *once* for the whole batch, so a single incoming message can commit —
    /// and deliver — many messages (pipelined delivery).
    fn handle_accept_ack_batch(
        &mut self,
        from: ProcessId,
        group: GroupId,
        entries: Vec<(MsgId, BallotVector)>,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = Vec::new();
        let mut committed_any = false;
        for (msg_id, ballots) in entries {
            if self.process_accept_ack(from, msg_id, group, ballots) {
                committed_any = true;
                actions.extend(self.cancel_retry_timer(msg_id));
            }
        }
        if committed_any {
            actions.extend(self.try_deliver());
        }
        actions
    }

    /// Core of the `ACCEPT_ACK` handler (Figure 4, lines 17–20). Returns
    /// whether the message newly committed.
    fn process_accept_ack(
        &mut self,
        from: ProcessId,
        msg_id: MsgId,
        group: GroupId,
        ballots: BallotVector,
    ) -> bool {
        // Line 18 precondition.
        if self.status != Status::Leader {
            return false;
        }
        if ballots.get(&self.own_group()) != Some(&self.cballot) {
            return false;
        }
        let own_group = self.own_group();
        let own_id = self.config.id;
        let Some(record) = self.records.get_mut(&msg_id) else {
            // We have not proposed this message yet; the ack will be re-sent
            // when the proposal eventually reaches the sender again.
            return false;
        };
        if record.phase == Phase::Committed {
            return false;
        }
        record.record_ack(ballots, group, from);
        // Line 17: a quorum in every destination group, acknowledging exactly
        // the ballots of the ACCEPTs we hold (`quorum_acked` checks the match
        // per candidate vector, so stale pre-leader-change ack quorums cannot
        // shadow the live one).
        if record
            .quorum_acked(&self.quorum_sizes, Some((own_group, own_id)))
            .is_none()
        {
            return false;
        }
        // Lines 19–20: commit.
        let gts = record
            .implied_global_ts()
            .expect("accepts complete for committed message");
        record.commit(gts);
        self.delivery.unpend(record.local_ts, msg_id);
        self.delivery.commit(gts, msg_id);
        true
    }

    /// Figure 4, line 21 (and line 66 after recovery): deliver committed
    /// messages in global-timestamp order once no pending message can receive
    /// a smaller global timestamp.
    fn try_deliver(&mut self) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = Vec::new();
        if self.status != Status::Leader {
            return actions;
        }
        // Committed messages with a global timestamp at or above the smallest
        // local timestamp of a PROPOSED or ACCEPTED message must wait: the
        // pending message might end up ordered before them.
        // Line 23: send DELIVER to the whole group, ourselves included, so
        // that the actual delivery to the application happens uniformly in
        // the DELIVER handler.
        for (gts, id) in self.delivery.pop_deliverable(|_| true) {
            let record = self.records.get_mut(&id).expect("candidate exists");
            record.delivered = true;
            let deliver = WhiteBoxMsg::Deliver {
                msg: record.msg.clone(),
                ballot: self.cballot,
                local_ts: record.local_ts,
                global_ts: gts,
            };
            actions.extend(Action::send_to_all(
                self.group_members.iter().copied(),
                deliver,
            ));
        }
        actions
    }

    /// Figure 4, lines 24–31: every group member handles `DELIVER`.
    fn handle_deliver(
        &mut self,
        msg: AppMessage,
        ballot: Ballot,
        local_ts: Timestamp,
        global_ts: Timestamp,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = Vec::new();
        // Line 25 precondition: duplicate DELIVERs (possible after leader
        // changes) are filtered via max_delivered_gts.
        if self.status == Status::Recovering {
            return actions;
        }
        if self.cballot != ballot {
            return actions;
        }
        if self.max_delivered_gts >= global_ts {
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
                self.compaction.index_delivered(global_ts, msg.id);
                actions.extend(self.cancel_retry_timer(msg.id));
            }
            return actions;
        }
        let msg_id = msg.id;
        let sender = msg.id.sender;
        self.install_delivered(&msg, local_ts, global_ts);
        self.max_delivered_gts = global_ts;
        self.delivered_count += 1;
        // Line 31: deliver to the application.
        actions.push(Action::Deliver(DeliveredMessage::with_timestamp(
            msg, global_ts,
        )));
        if self.compaction.note_delivery(global_ts, msg_id) {
            actions.extend(self.stable_round());
        }
        if self.config.notify_sender && !self.group_members.contains(&sender) {
            actions.push(Action::send(
                sender,
                WhiteBoxMsg::ClientReply {
                    msg_id,
                    group: self.own_group(),
                    global_ts,
                },
            ));
        }
        actions
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
        self.clock = self.clock.max(global_ts.time());
        self.dedup.insert(msg.id);
    }

    /// A batched `DELIVER`: handle the entries in order (they are sorted by
    /// increasing global timestamp, so the `max_delivered_gts` duplicate
    /// filter of the per-message handler keeps working entry by entry).
    fn handle_deliver_batch(
        &mut self,
        ballot: Ballot,
        entries: Vec<DeliverEntry>,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = Vec::new();
        for entry in entries {
            actions.extend(self.handle_deliver(entry.msg, ballot, entry.local_ts, entry.global_ts));
        }
        actions
    }

    // ------------------------------------------------------------------
    // Retry (message recovery)
    // ------------------------------------------------------------------

    fn arm_retry_timer(&mut self, msg_id: MsgId) -> Vec<Action<WhiteBoxMsg>> {
        if self.config.retry_timeout.is_zero() || self.retry_timer_of.contains_key(&msg_id) {
            return Vec::new();
        }
        let timer = TimerId(RETRY_TIMER_BASE + self.next_retry_timer);
        self.next_retry_timer += 1;
        self.retry_timer_msgs.insert(timer, msg_id);
        self.retry_timer_of.insert(msg_id, timer);
        vec![Action::SetTimer {
            id: timer,
            delay: self.config.retry_timeout,
        }]
    }

    fn cancel_retry_timer(&mut self, msg_id: MsgId) -> Vec<Action<WhiteBoxMsg>> {
        if let Some(timer) = self.retry_timer_of.remove(&msg_id) {
            self.retry_timer_msgs.remove(&timer);
            vec![Action::CancelTimer(timer)]
        } else {
            Vec::new()
        }
    }

    /// Figure 4, lines 32–34: re-send `MULTICAST(m)` to the destination
    /// leaders when a proposed/accepted message is stuck.
    fn handle_retry_timer(&mut self, timer: TimerId) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = Vec::new();
        let Some(msg_id) = self.retry_timer_msgs.get(&timer).copied() else {
            return actions;
        };
        let Some(record) = self.records.get(&msg_id) else {
            // The record vanished wholesale — a leader recovery replaced the
            // record map and dropped this proposed-only message. Unmap the
            // timer: leaving the stale mapping behind would block
            // `arm_retry_timer` forever when the message is re-proposed,
            // leaving it pending with no retry pump — and one eternally
            // pending record blocks delivery of every later committed one
            // (found by the schedule explorer; see `tests/regressions/`).
            self.retry_timer_msgs.remove(&timer);
            self.retry_timer_of.remove(&msg_id);
            return actions;
        };
        if !record.is_pending() {
            self.retry_timer_msgs.remove(&timer);
            self.retry_timer_of.remove(&msg_id);
            return actions;
        }
        let multicast = WhiteBoxMsg::Multicast {
            msg: record.msg.clone(),
        };
        for leader in self.destination_leaders(&record.msg) {
            actions.push(Action::send(leader, multicast.clone()));
        }
        actions.push(Action::SetTimer {
            id: timer,
            delay: self.config.retry_timeout,
        });
        actions
    }

    // ------------------------------------------------------------------
    // Compaction: the STABLE exchange, watermarks and pruning
    // ------------------------------------------------------------------

    /// Every `compaction_interval` local deliveries: a follower reports its
    /// progress to the leader; the leader folds its own progress in and
    /// recomputes the group watermark. A recovering replica reports nothing;
    /// the next interval after the recovery completes will.
    fn stable_round(&mut self) -> Vec<Action<WhiteBoxMsg>> {
        match self.status {
            Status::Leader => self.recompute_watermark(),
            Status::Follower => match self.cur_leader.get(&self.own_group()) {
                Some(&leader) if leader != self.config.id => vec![Action::send(
                    leader,
                    WhiteBoxMsg::StableReport {
                        group: self.own_group(),
                        delivered_gts: self.max_delivered_gts,
                    },
                )],
                _ => Vec::new(),
            },
            Status::Recovering => Vec::new(),
        }
    }

    /// Leader handler for `STABLE_REPORT`: fold in the member's progress and
    /// recompute the group watermark.
    fn handle_stable_report(
        &mut self,
        from: ProcessId,
        group: GroupId,
        delivered_gts: Timestamp,
    ) -> Vec<Action<WhiteBoxMsg>> {
        if self.status != Status::Leader
            || group != self.own_group()
            || !self.group_members.contains(&from)
        {
            return Vec::new();
        }
        self.compaction.record_progress(from, delivered_gts);
        self.recompute_watermark()
    }

    /// Recomputes the own-group watermark (see [`Compaction::recompute`]);
    /// on an advance, prunes and disseminates the updated watermark map.
    fn recompute_watermark(&mut self) -> Vec<Action<WhiteBoxMsg>> {
        self.compaction
            .record_progress(self.config.id, self.max_delivered_gts);
        let quorum = self.own_quorum();
        if !self
            .compaction
            .recompute(self.own_group(), &self.group_members, quorum)
        {
            return Vec::new();
        }
        self.prune_records();
        self.broadcast_watermarks()
    }

    /// Sends the current watermark map to the group's followers (who prune
    /// with it) and to the other groups' leaders (cross-group dissemination;
    /// multi-group records need every destination group's watermark).
    fn broadcast_watermarks(&self) -> Vec<Action<WhiteBoxMsg>> {
        let advance = WhiteBoxMsg::StableAdvance {
            watermarks: self.compaction.watermarks().clone(),
        };
        let own_group = self.own_group();
        let remote_leaders = self.cur_leader.iter().filter(|(g, _)| **g != own_group);
        let to = self
            .group_members
            .iter()
            .chain(remote_leaders.map(|(_, l)| l));
        Action::send_to_all(to.copied().filter(|p| *p != self.config.id), advance)
    }

    /// Merges a received watermark map and prunes. A leader that learnt
    /// something new re-broadcasts, so cross-group knowledge reaches its
    /// followers.
    fn handle_stable_advance(
        &mut self,
        watermarks: BTreeMap<GroupId, Timestamp>,
    ) -> Vec<Action<WhiteBoxMsg>> {
        if !self.compaction.merge(&watermarks) {
            return Vec::new();
        }
        self.prune_records();
        if self.status == Status::Leader {
            self.broadcast_watermarks()
        } else {
            Vec::new()
        }
    }

    /// A peer answered our retry with "that record is pruned, globally
    /// delivered history" (see [`WhiteBoxMsg::StablePruned`]). Merge its
    /// watermark knowledge and resolve our pending copy: the record's global
    /// timestamp was fixed by the quorum that delivered it and is covered by
    /// every destination group's watermark, so our copy can never commit to
    /// anything new — drop it as installed (excused) history and let the
    /// delivery convoy move again.
    fn handle_stable_pruned(
        &mut self,
        msg_id: MsgId,
        watermarks: BTreeMap<GroupId, Timestamp>,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = self.handle_stable_advance(watermarks);
        if !self
            .records
            .get(&msg_id)
            .is_some_and(MessageRecord::is_pending)
        {
            return actions;
        }
        let record = self.records.remove(&msg_id).expect("pending record");
        self.delivery.unpend(record.local_ts, msg_id);
        self.delivery.forget(record.global_ts, msg_id);
        self.dedup.insert(msg_id);
        self.pruned_dropped.insert(msg_id);
        actions.extend(self.cancel_retry_timer(msg_id));
        actions.extend(self.try_deliver());
        actions
    }

    /// Prunes delivered records covered by every destination group's
    /// watermark.
    fn prune_records(&mut self) {
        self.compaction.prune(&mut self.records, |r| &r.msg.dest);
    }

    // ------------------------------------------------------------------
    // Leader recovery
    // ------------------------------------------------------------------

    /// Figure 4, lines 35–36: start establishing a new ballot led by us.
    fn start_recovery(&mut self) -> Vec<Action<WhiteBoxMsg>> {
        if self.status == Status::Leader {
            return Vec::new();
        }
        let new_ballot = self.ballot.next_for(self.config.id);
        self.recovery = Some(RecoveryState {
            ballot: new_ballot,
            acks: BTreeMap::new(),
            installed: false,
            state_acks: BTreeSet::new(),
        });
        Action::send_to_all(
            self.group_members.iter().copied(),
            WhiteBoxMsg::NewLeader { ballot: new_ballot },
        )
    }

    /// Figure 4, lines 37–41: vote for a prospective leader.
    fn handle_new_leader(
        &mut self,
        now: Duration,
        from: ProcessId,
        ballot: Ballot,
    ) -> Vec<Action<WhiteBoxMsg>> {
        if ballot <= self.ballot {
            return Vec::new();
        }
        self.status = Status::Recovering;
        self.ballot = ballot;
        // The campaign counts as leader activity; give the prospective leader
        // one patience window to finish before we consider campaigning.
        self.last_leader_activity = now;
        if let Some(leader) = ballot.leader() {
            self.cur_leader.insert(self.own_group(), leader);
        }
        let mut actions = Vec::new();
        // A replica that was the leader until this moment has no election
        // timer running (leaders keep a heartbeat timer instead, and it dies
        // with the demotion). Without (re)arming one here, a deposed leader
        // whose NEW_STATE gets lost is unrescuable — it sits in `Recovering`
        // with no timer at all while the group's usable quorum shrinks by
        // one (found by the schedule explorer; see `tests/regressions/`).
        if self.config.auto_election_enabled() {
            actions.push(Action::SetTimer {
                id: ELECTION_TIMER,
                delay: self.config.election_timeout,
            });
        }
        let snapshot = self.snapshot();
        actions.push(Action::send(
            from,
            WhiteBoxMsg::NewLeaderAck {
                ballot,
                cballot: self.cballot,
                checkpoint: self.checkpoint(),
                snapshot,
            },
        ));
        actions
    }

    fn snapshot(&self) -> StateSnapshot {
        let records = self
            .records
            .values()
            .filter(|r| r.phase != Phase::Start)
            .map(|r| (r.id(), r.snapshot()))
            .collect();
        StateSnapshot { records }
    }

    /// Figure 4, lines 42–56: the prospective leader gathers votes and computes
    /// its initial state.
    fn handle_new_leader_ack(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        cballot: Ballot,
        checkpoint: Checkpoint,
        snapshot: StateSnapshot,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = Vec::new();
        if self.status != Status::Recovering || self.ballot != ballot {
            return actions;
        }
        let own_quorum = self.own_quorum();
        let Some(recovery) = self.recovery.as_mut() else {
            return actions;
        };
        if recovery.ballot != ballot || recovery.installed {
            return actions;
        }
        recovery.acks.insert(
            from,
            NewLeaderAckData {
                cballot,
                checkpoint,
                snapshot,
            },
        );
        if recovery.acks.len() < own_quorum {
            return actions;
        }

        // Lines 44–55: compute the initial state of the new ballot.
        let max_cballot = recovery
            .acks
            .values()
            .map(|a| a.cballot)
            .max()
            .unwrap_or(Ballot::BOTTOM);
        let mut new_records: RecordMap<MessageRecord> = RecordMap::new();
        for data in recovery.acks.values() {
            for (id, snap) in &data.snapshot.records {
                match snap.phase {
                    // Line 47: committed anywhere → committed, with its timestamps.
                    Phase::Committed => {
                        let mut rec = MessageRecord::from_snapshot(snap.clone());
                        rec.delivered = false;
                        new_records.insert(*id, rec);
                    }
                    // Line 51: accepted at a process of the maximal cballot →
                    // accepted, with its local timestamp (unless some other
                    // process reported it committed).
                    Phase::Accepted if data.cballot == max_cballot => {
                        match new_records.get_mut(id) {
                            Some(existing) => {
                                if existing.phase != Phase::Committed {
                                    existing.phase = Phase::Accepted;
                                    existing.local_ts = snap.local_ts;
                                }
                            }
                            None => {
                                let mut rec = MessageRecord::from_snapshot(snap.clone());
                                rec.phase = Phase::Accepted;
                                rec.global_ts = Timestamp::BOTTOM;
                                rec.delivered = false;
                                new_records.insert(*id, rec);
                            }
                        }
                    }
                    // Proposed-only messages did not reach a quorum in any
                    // ballot and are dropped; the multicaster (or a remote
                    // leader) will re-send MULTICAST for them.
                    _ => {}
                }
            }
        }
        // Line 54: recover the clock.
        let new_clock = recovery
            .acks
            .values()
            .map(|a| a.checkpoint.clock)
            .max()
            .unwrap_or(0)
            .max(self.clock);
        // Compaction state is recovered alongside: watermarks advance to the
        // pointwise maximum over the quorum (each reported watermark was
        // sound when computed, and watermarks only advance), the delivered
        // filters union (anything any member knows delivered is delivered),
        // and our own delivery progress jumps to the maximal watermark — the
        // history below it is pruned at a quorum, so it can never be
        // re-delivered to us; it is installed, not missing.
        let mut merged_dedup = self.dedup.clone();
        for data in recovery.acks.values() {
            merged_dedup.merge(&data.checkpoint.dedup);
            self.compaction.merge(&data.checkpoint.watermarks);
        }
        let merged_own_watermark = self.compaction.watermark(self.config.group);
        // Reconcile the merged records with the merged compaction state:
        //
        // * A record the delivered filter knows but no snapshot reports
        //   committed was delivered everywhere and then pruned at every
        //   member that had it committed — which can only happen under the
        //   watermark, so the watermark jump below covers it. Re-proposing it
        //   would deliver it twice; drop it.
        // * A committed record at or below the merged watermark needs no
        //   line-66 re-broadcast: a quorum delivered it (that is what the
        //   watermark asserts) and any straggler is jumped over it by the
        //   checkpoint in `NEW_STATE`. Marking it delivered keeps it pruning-
        //   eligible instead of re-broadcasting history after every leader
        //   change.
        // * Everything above the watermark keeps the paper's behaviour:
        //   `delivered = false`, re-delivered by line 66, duplicates filtered
        //   at the receivers through `max_delivered_gts`.
        new_records.retain(|id, rec| {
            if rec.phase == Phase::Committed {
                rec.delivered = rec.global_ts <= merged_own_watermark;
                true
            } else {
                !merged_dedup.contains(*id)
            }
        });
        let new_ballot = recovery.ballot;
        recovery.installed = true;
        recovery.state_acks.insert(self.config.id);

        self.records = new_records;
        self.dedup = merged_dedup;
        self.compaction
            .jump(self.config.group, &mut self.max_delivered_gts);
        self.rebuild_delivery_index();
        self.prune_records();
        self.clock = new_clock;
        // Line 55: cballot ← b.
        self.cballot = new_ballot;
        // A fresh leadership starts member progress tracking from scratch;
        // members re-report within one compaction interval.
        self.compaction.reset_progress();

        // Line 56: install the state at the followers — as checkpoint +
        // suffix, which doubles as catch-up state transfer for any member
        // whose progress lies below the recovered watermark.
        let snapshot = self.snapshot();
        let checkpoint = self.checkpoint();
        for member in self.group_members.clone() {
            if member == self.config.id {
                continue;
            }
            actions.push(Action::send(
                member,
                WhiteBoxMsg::NewState {
                    ballot: new_ballot,
                    checkpoint: checkpoint.clone(),
                    snapshot: snapshot.clone(),
                },
            ));
        }
        // A singleton group needs no follower acknowledgements.
        actions.extend(self.maybe_finish_recovery());
        actions
    }

    /// Figure 4, lines 57–62: a follower installs the new leader's state.
    ///
    /// Beyond the paper's precondition (`Recovering` in exactly this ballot),
    /// a `NEW_STATE` for a *strictly higher* ballot is accepted from any
    /// status: it collapses joining the ballot and installing its state into
    /// one step, which is how a replica that missed the whole `NEW_LEADER`
    /// exchange (it was partitioned away, or is itself a stale leader) is
    /// reconciled. This is safe for the same reason the two-step path is —
    /// the sender computed the state from a quorum of the higher ballot,
    /// whose snapshots cover everything any lower ballot could have
    /// committed.
    fn handle_new_state(
        &mut self,
        now: Duration,
        from: ProcessId,
        ballot: Ballot,
        checkpoint: Checkpoint,
        snapshot: StateSnapshot,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let fresh_join = ballot > self.ballot;
        if !fresh_join && (self.status != Status::Recovering || self.ballot != ballot) {
            return Vec::new();
        }
        self.status = Status::Follower;
        self.ballot = ballot;
        self.cballot = ballot;
        self.last_leader_activity = now;
        self.clock = checkpoint.clock;
        // Install the leader's checkpoint: merge its watermark knowledge and
        // delivered filter, and — the state-transfer case — if our own
        // delivery progress lies below the recovered watermark, jump it
        // forward: the history between is pruned (delivered at a quorum and
        // discarded), arrives as installed checkpoint state rather than
        // per-message replay, and is excused (not missing) to the oracles.
        self.compaction.merge(&checkpoint.watermarks);
        self.dedup.merge(&checkpoint.dedup);
        self.compaction
            .jump(self.config.group, &mut self.max_delivered_gts);
        self.records = snapshot
            .records
            .into_iter()
            .map(|(id, snap)| {
                let mut rec = MessageRecord::from_snapshot(snap);
                rec.delivered =
                    rec.phase == Phase::Committed && rec.global_ts <= self.max_delivered_gts;
                (id, rec)
            })
            .collect();
        self.rebuild_delivery_index();
        self.prune_records();
        if let Some(leader) = ballot.leader() {
            self.cur_leader.insert(self.own_group(), leader);
        }
        self.recovery = None;
        let mut actions = Vec::new();
        // Same reasoning as in `handle_new_leader`: this may be the moment a
        // (possibly stale) leader is demoted to follower, and followers must
        // always have a live election timer.
        if self.config.auto_election_enabled() {
            actions.push(Action::SetTimer {
                id: ELECTION_TIMER,
                delay: self.config.election_timeout,
            });
        }
        actions.push(Action::send(from, WhiteBoxMsg::NewStateAck { ballot }));
        actions
    }

    /// Figure 4, lines 63–68: the new leader finishes recovery once a quorum is
    /// in sync with its state.
    fn handle_new_state_ack(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
    ) -> Vec<Action<WhiteBoxMsg>> {
        if self.status != Status::Recovering || self.ballot != ballot {
            return Vec::new();
        }
        let Some(recovery) = self.recovery.as_mut() else {
            return Vec::new();
        };
        if !recovery.installed || recovery.ballot != ballot {
            return Vec::new();
        }
        recovery.state_acks.insert(from);
        self.maybe_finish_recovery()
    }

    fn maybe_finish_recovery(&mut self) -> Vec<Action<WhiteBoxMsg>> {
        let own_quorum = self.own_quorum();
        let ready = self
            .recovery
            .as_ref()
            .map(|r| r.installed && r.state_acks.len() >= own_quorum)
            .unwrap_or(false);
        if !ready {
            return Vec::new();
        }
        self.recovery = None;
        self.status = Status::Leader;
        let mut actions = Vec::new();
        // Line 66: re-deliver every committed message that is not blocked by an
        // accepted one. Followers discard duplicates via max_delivered_gts.
        actions.extend(self.try_deliver());
        // Resume processing of accepted-but-uncommitted messages by re-sending
        // MULTICAST to all destination leaders (§IV, "Message recovery").
        // The pending set is read off the incrementally maintained
        // delivery-condition index, not a scan of the record map, so this
        // costs O(pending suffix) even with a long resident history.
        let pending: Vec<MsgId> = self.delivery.pending().collect();
        for id in pending {
            let record = &self.records[&id];
            let multicast = WhiteBoxMsg::Multicast {
                msg: record.msg.clone(),
            };
            for leader in self.destination_leaders(&record.msg) {
                actions.push(Action::send(leader, multicast.clone()));
            }
            // Make sure we also propose it ourselves (we are a destination
            // leader too) and keep retrying until it commits.
            actions.extend(self.handle_multicast(None, self.records[&id].msg.clone()));
        }
        // Announce leadership and restart heartbeats.
        if self.config.auto_election_enabled() {
            actions.push(Action::SetTimer {
                id: HEARTBEAT_TIMER,
                delay: self.config.heartbeat_interval,
            });
            for member in &self.group_members {
                if *member != self.config.id {
                    actions.push(Action::send(
                        *member,
                        WhiteBoxMsg::Heartbeat {
                            ballot: self.cballot,
                        },
                    ));
                }
            }
        }
        actions
    }

    // ------------------------------------------------------------------
    // Leader election oracle (heartbeats + timeouts)
    // ------------------------------------------------------------------

    fn election_rank(&self) -> u32 {
        self.group_members
            .iter()
            .position(|p| *p == self.config.id)
            .unwrap_or(0) as u32
    }

    fn handle_heartbeat(&mut self, now: Duration, ballot: Ballot) -> Vec<Action<WhiteBoxMsg>> {
        // Liveness is judged against the highest ballot we have *joined*
        // (`self.ballot`), not the one we last synchronised with (`cballot`).
        // After joining ballot b' a replica waits for b's NEW_STATE; if the
        // previous leader (ballot b < b') is still around, its heartbeats
        // must not keep resetting the election timer — with the b' handshake
        // messages lost, the whole group would otherwise sit in `Recovering`
        // forever while the stale leader's heartbeats pacify everyone (a
        // deadlock found by the schedule explorer; see `tests/regressions/`).
        if self.status == Status::Recovering {
            // Heartbeats while we are `Recovering` mean a leader is active
            // although we never finished synchronising — either we are
            // campaigning a ballot the others never joined, or we joined the
            // heartbeat's ballot and its NEW_STATE got lost. Either way the
            // heartbeat must *not* pacify our election timer: letting it
            // expire re-campaigns with a higher ballot, which re-synchronises
            // us through the normal handshake. (A `Recovering` replica cannot
            // acknowledge proposals, so staying wedged here would silently
            // shrink the group's usable quorum.)
        } else if ballot == self.ballot {
            self.last_leader_activity = now;
            if let Some(leader) = ballot.leader() {
                self.cur_leader.insert(self.own_group(), leader);
            }
        } else if ballot > self.ballot {
            // A heartbeat for a ballot we never even *joined*: we missed the
            // whole NEW_LEADER/NEW_STATE exchange (partitioned away while the
            // ballot was established). Our cballot is stale, so we cannot
            // acknowledge anything this leader proposes — being pacified here
            // would park us as a permanently useless group member, silently
            // shrinking the usable quorum (with `f` other members gone, the
            // whole group wedges; found by the schedule explorer, see
            // `tests/regressions/`). Remember the leader for forwarding, but
            // let our election timer expire: the re-campaign resynchronises
            // us through the normal handshake.
            if let Some(leader) = ballot.leader() {
                self.cur_leader.insert(self.own_group(), leader);
            }
        } else if self.status == Status::Leader && ballot < self.cballot {
            // A heartbeat from a *lower* ballot means another member still
            // believes it leads an older ballot — possible after a partition
            // in which both sides completed recoveries with disjoint-looking
            // quorums that only overlapped in a since-crashed process. We
            // hold the authoritative state of the higher ballot; re-send it
            // so the stale leader rejoins (see `handle_new_state`'s
            // higher-ballot acceptance). Without this repair the two leaders
            // ignore each other forever and the group is wedged (found by
            // the schedule explorer; see `tests/regressions/`).
            if let Some(leader) = ballot.leader() {
                if leader != self.config.id {
                    return vec![Action::send(
                        leader,
                        WhiteBoxMsg::NewState {
                            ballot: self.cballot,
                            checkpoint: self.checkpoint(),
                            snapshot: self.snapshot(),
                        },
                    )];
                }
            }
        }
        Vec::new()
    }

    fn handle_heartbeat_timer(&mut self) -> Vec<Action<WhiteBoxMsg>> {
        if !self.config.auto_election_enabled() || self.status != Status::Leader {
            return Vec::new();
        }
        let mut actions = Vec::new();
        for member in &self.group_members {
            if *member != self.config.id {
                actions.push(Action::send(
                    *member,
                    WhiteBoxMsg::Heartbeat {
                        ballot: self.cballot,
                    },
                ));
            }
        }
        actions.push(Action::SetTimer {
            id: HEARTBEAT_TIMER,
            delay: self.config.heartbeat_interval,
        });
        actions
    }

    fn handle_election_timer(&mut self, now: Duration) -> Vec<Action<WhiteBoxMsg>> {
        if !self.config.auto_election_enabled() {
            return Vec::new();
        }
        let mut actions = Vec::new();
        // A follower whose leader went quiet — or a replica whose own
        // recovery stalled because NEW_LEADER / NEW_STATE traffic was lost —
        // starts (re-)establishing a ballot. Without the `Recovering` case a
        // group in which every member joined a stalled ballot would deadlock:
        // election timers keep firing but nobody would ever campaign again.
        if self.status != Status::Leader {
            let patience = self.config.election_timeout * (1 + self.election_rank());
            if now.saturating_sub(self.last_leader_activity) > patience {
                self.last_leader_activity = now;
                actions.extend(self.start_recovery());
            }
        }
        actions.push(Action::SetTimer {
            id: ELECTION_TIMER,
            delay: self.config.election_timeout,
        });
        actions
    }

    /// The process crashed and came back up with its durable state (records,
    /// ballots, clock, `max_delivered_gts`) intact; everything volatile —
    /// armed timers, in-progress recovery bookkeeping — died
    /// with it. The paper's model is crash-stop, so rejoin is our extension:
    /// the replica re-establishes a *fresh ballot* through the normal
    /// `NEW_LEADER` handshake, whatever its pre-crash role. The handshake is
    /// what re-synchronises it with a quorum: the `NEW_LEADER_ACK` snapshots
    /// teach it everything it slept through, and finishing recovery
    /// re-delivers committed messages it missed (Figure 4 line 66).
    /// Passively rejoining as a follower would *not* suffice — a follower
    /// whose `cballot` went stale while it was down can never acknowledge the
    /// current leader's proposals, and if the group's remaining quorum
    /// includes the restarted process, the group would be wedged forever
    /// (found by the schedule explorer; see `tests/regressions/`).
    fn handle_restart(&mut self, now: Duration) -> Vec<Action<WhiteBoxMsg>> {
        self.recovery = None;
        self.retry_timer_msgs.clear();
        self.retry_timer_of = RecordMap::new();
        self.last_leader_activity = now;
        self.status = Status::Follower;
        let mut actions = self.start_recovery();
        // Re-arm a retry timer for every pending record so stuck messages are
        // re-proposed (the pre-crash timers are gone). The pending set comes
        // from the delivery-condition index — restart work is proportional
        // to the in-flight suffix, not the delivered history (a replica
        // restarted after 50k deliveries re-arms only what is still open).
        let pending: Vec<MsgId> = self.delivery.pending().collect();
        self.last_restart_scan = pending.len();
        for id in pending {
            actions.extend(self.arm_retry_timer(id));
        }
        if self.config.auto_election_enabled() {
            actions.push(Action::SetTimer {
                id: ELECTION_TIMER,
                delay: self.config.election_timeout,
            });
        }
        actions
    }

    fn handle_init(&mut self, now: Duration) -> Vec<Action<WhiteBoxMsg>> {
        self.last_leader_activity = now;
        if !self.config.auto_election_enabled() {
            return Vec::new();
        }
        let mut actions = Vec::new();
        if self.status == Status::Leader {
            actions.push(Action::SetTimer {
                id: HEARTBEAT_TIMER,
                delay: self.config.heartbeat_interval,
            });
        } else {
            actions.push(Action::SetTimer {
                id: ELECTION_TIMER,
                delay: self.config.election_timeout,
            });
        }
        actions
    }
}

impl Node for WhiteBoxReplica {
    type Msg = WhiteBoxMsg;

    fn id(&self) -> ProcessId {
        self.config.id
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// Runs of `ACCEPT`, `ACCEPT_ACK` and `DELIVER` to one peer travel as
    /// one batch: every handler treats a batch as its entries in order.
    fn send_fold(&self) -> Option<fn(&mut Vec<WhiteBoxMsg>)> {
        Some(WhiteBoxMsg::coalesce)
    }

    fn on_event(&mut self, now: Duration, event: Event<WhiteBoxMsg>) -> Vec<Action<WhiteBoxMsg>> {
        match event {
            Event::Init => self.handle_init(now),
            Event::Multicast(msg) => self.handle_multicast(None, msg),
            Event::BecomeLeader => self.start_recovery(),
            Event::Restart => self.handle_restart(now),
            Event::Timer { id, now } => match id {
                HEARTBEAT_TIMER => self.handle_heartbeat_timer(),
                ELECTION_TIMER => self.handle_election_timer(now),
                other => self.handle_retry_timer(other),
            },
            Event::Message { from, msg } => {
                // Only heartbeats feed the leader-monitoring oracle (see
                // `handle_heartbeat` for the ballot gate). Counting arbitrary
                // traffic from `cur_leader` as a sign of life is unsound: two
                // replicas stuck in `Recovering` keep exchanging per-message
                // retry MULTICASTs, each pacifying the other's election timer
                // while neither can make progress — a deadlock found by the
                // schedule explorer.
                let _ = from;
                match msg {
                    WhiteBoxMsg::Multicast { msg } => self.handle_multicast(Some(from), msg),
                    WhiteBoxMsg::Accept {
                        msg,
                        group,
                        ballot,
                        local_ts,
                    } => self.handle_accept(msg, group, ballot, local_ts),
                    WhiteBoxMsg::AcceptBatch {
                        group,
                        ballot,
                        entries,
                    } => self.handle_accept_batch(group, ballot, entries),
                    WhiteBoxMsg::AcceptAck {
                        msg_id,
                        group,
                        ballots,
                    } => self.handle_accept_ack(from, msg_id, group, ballots),
                    WhiteBoxMsg::AcceptAckBatch { group, entries } => {
                        self.handle_accept_ack_batch(from, group, entries)
                    }
                    WhiteBoxMsg::DeliverBatch { ballot, entries } => {
                        self.handle_deliver_batch(ballot, entries)
                    }
                    WhiteBoxMsg::Deliver {
                        msg,
                        ballot,
                        local_ts,
                        global_ts,
                    } => self.handle_deliver(msg, ballot, local_ts, global_ts),
                    WhiteBoxMsg::NewLeader { ballot } => self.handle_new_leader(now, from, ballot),
                    WhiteBoxMsg::NewLeaderAck {
                        ballot,
                        cballot,
                        checkpoint,
                        snapshot,
                    } => self.handle_new_leader_ack(from, ballot, cballot, checkpoint, snapshot),
                    WhiteBoxMsg::NewState {
                        ballot,
                        checkpoint,
                        snapshot,
                    } => self.handle_new_state(now, from, ballot, checkpoint, snapshot),
                    WhiteBoxMsg::NewStateAck { ballot } => self.handle_new_state_ack(from, ballot),
                    WhiteBoxMsg::Heartbeat { ballot } => self.handle_heartbeat(now, ballot),
                    WhiteBoxMsg::StableReport {
                        group,
                        delivered_gts,
                    } => self.handle_stable_report(from, group, delivered_gts),
                    WhiteBoxMsg::StableAdvance { watermarks } => {
                        self.handle_stable_advance(watermarks)
                    }
                    WhiteBoxMsg::StablePruned { msg_id, watermarks } => {
                        self.handle_stable_pruned(msg_id, watermarks)
                    }
                    WhiteBoxMsg::ClientReply { .. } => Vec::new(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::{ClusterConfig, Destination, Payload};

    fn cluster() -> ClusterConfig {
        ClusterConfig::builder().groups(2, 3).clients(1).build()
    }

    fn replica(id: u32, group: u32) -> WhiteBoxReplica {
        let cfg = ReplicaConfig::new(ProcessId(id), GroupId(group), cluster())
            .without_auto_election()
            .without_sender_notification();
        WhiteBoxReplica::new(cfg)
    }

    fn app_msg(seq: u64, groups: &[u32]) -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId(6), seq),
            Destination::new(groups.iter().map(|g| GroupId(*g))).unwrap(),
            Payload::from("payload"),
        )
    }

    fn drive(
        replica: &mut WhiteBoxReplica,
        from: ProcessId,
        msg: WhiteBoxMsg,
    ) -> Vec<Action<WhiteBoxMsg>> {
        replica.on_event(Duration::ZERO, Event::message(from, msg))
    }

    #[test]
    fn initial_roles_follow_configuration() {
        assert_eq!(replica(0, 0).status(), Status::Leader);
        assert_eq!(replica(1, 0).status(), Status::Follower);
        assert_eq!(replica(3, 1).status(), Status::Leader);
        assert_eq!(replica(4, 1).status(), Status::Follower);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn replica_must_belong_to_its_group() {
        let _ = replica(0, 1);
    }

    #[test]
    fn leader_proposes_on_multicast() {
        let mut leader = replica(0, 0);
        let m = app_msg(0, &[0, 1]);
        let actions = drive(
            &mut leader,
            ProcessId(6),
            WhiteBoxMsg::Multicast { msg: m.clone() },
        );
        // ACCEPT goes to all six destination replicas.
        let accepts: Vec<_> = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: WhiteBoxMsg::Accept { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(accepts.len(), 6);
        assert_eq!(leader.phase_of(m.id), Some(Phase::Proposed));
        assert_eq!(leader.clock(), 1);
    }

    #[test]
    fn duplicate_multicast_does_not_advance_clock() {
        let mut leader = replica(0, 0);
        let m = app_msg(0, &[0]);
        drive(
            &mut leader,
            ProcessId(6),
            WhiteBoxMsg::Multicast { msg: m.clone() },
        );
        assert_eq!(leader.clock(), 1);
        let actions = drive(
            &mut leader,
            ProcessId(6),
            WhiteBoxMsg::Multicast { msg: m.clone() },
        );
        assert_eq!(
            leader.clock(),
            1,
            "Invariant 1: one local timestamp per ballot"
        );
        // The proposal is re-sent with the stored timestamp.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: WhiteBoxMsg::Accept { local_ts, .. },
                ..
            } if *local_ts == Timestamp::new(1, GroupId(0))
        )));
    }

    #[test]
    fn follower_forwards_multicast_to_leader() {
        let mut follower = replica(1, 0);
        let m = app_msg(0, &[0]);
        let actions = drive(
            &mut follower,
            ProcessId(6),
            WhiteBoxMsg::Multicast { msg: m },
        );
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            Action::Send { to, msg: WhiteBoxMsg::Multicast { .. } } if *to == ProcessId(0)
        ));
    }

    #[test]
    fn follower_accepts_and_acks_to_all_leaders() {
        let mut follower = replica(1, 0);
        let m = app_msg(0, &[0, 1]);
        // ACCEPT from our own group's leader (ballot (1, p0)).
        let a0 = WhiteBoxMsg::Accept {
            msg: m.clone(),
            group: GroupId(0),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
        };
        let actions = drive(&mut follower, ProcessId(0), a0);
        assert!(
            actions.is_empty(),
            "must wait for the other group's proposal"
        );
        // ACCEPT from the other group's leader.
        let a1 = WhiteBoxMsg::Accept {
            msg: m.clone(),
            group: GroupId(1),
            ballot: Ballot::new(1, ProcessId(3)),
            local_ts: Timestamp::new(4, GroupId(1)),
        };
        let actions = drive(&mut follower, ProcessId(3), a1);
        let acks: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: WhiteBoxMsg::AcceptAck { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![ProcessId(0), ProcessId(3)]);
        assert_eq!(follower.phase_of(m.id), Some(Phase::Accepted));
        // Speculative clock update: the clock jumps to the implied global
        // timestamp (4), even though nothing is committed yet.
        assert_eq!(follower.clock(), 4);
    }

    #[test]
    fn ablation_disables_speculative_clock_update() {
        let cfg = ReplicaConfig::new(ProcessId(1), GroupId(0), cluster())
            .without_auto_election()
            .without_speculative_clock_update();
        let mut follower = WhiteBoxReplica::new(cfg);
        let m = app_msg(0, &[0, 1]);
        drive(
            &mut follower,
            ProcessId(0),
            WhiteBoxMsg::Accept {
                msg: m.clone(),
                group: GroupId(0),
                ballot: Ballot::new(1, ProcessId(0)),
                local_ts: Timestamp::new(1, GroupId(0)),
            },
        );
        drive(
            &mut follower,
            ProcessId(3),
            WhiteBoxMsg::Accept {
                msg: m.clone(),
                group: GroupId(1),
                ballot: Ballot::new(1, ProcessId(3)),
                local_ts: Timestamp::new(4, GroupId(1)),
            },
        );
        assert_eq!(follower.clock(), 0, "no speculative update in the ablation");
        assert_eq!(follower.phase_of(m.id), Some(Phase::Accepted));
    }

    #[test]
    fn accept_from_stale_own_ballot_is_not_acknowledged() {
        let mut follower = replica(1, 0);
        // Move the follower to ballot (2, p2): it joins the ballot and then
        // installs the new leader's (empty) state.
        drive(
            &mut follower,
            ProcessId(2),
            WhiteBoxMsg::NewLeader {
                ballot: Ballot::new(2, ProcessId(2)),
            },
        );
        drive(
            &mut follower,
            ProcessId(2),
            WhiteBoxMsg::NewState {
                ballot: Ballot::new(2, ProcessId(2)),
                checkpoint: Checkpoint::default(),
                snapshot: StateSnapshot::new(),
            },
        );
        assert_eq!(follower.status(), Status::Follower);
        assert_eq!(follower.current_ballot(), Ballot::new(2, ProcessId(2)));
        let m = app_msg(0, &[0]);
        let stale = WhiteBoxMsg::Accept {
            msg: m.clone(),
            group: GroupId(0),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
        };
        let actions = drive(&mut follower, ProcessId(0), stale);
        assert!(
            !actions.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: WhiteBoxMsg::AcceptAck { .. },
                    ..
                }
            )),
            "stale-ballot proposals must not be acknowledged"
        );
    }

    /// Runs the full collision-free flow for a single-group message at the
    /// leader and checks that it commits and delivers.
    #[test]
    fn single_group_message_commits_after_quorum_acks() {
        let mut leader = replica(0, 0);
        let m = app_msg(0, &[0]);
        // Leader proposes.
        let actions = drive(
            &mut leader,
            ProcessId(6),
            WhiteBoxMsg::Multicast { msg: m.clone() },
        );
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(
                    a,
                    Action::Send {
                        msg: WhiteBoxMsg::Accept { .. },
                        ..
                    }
                ))
                .count(),
            3
        );
        // Leader receives its own ACCEPT and acknowledges.
        let accept = WhiteBoxMsg::Accept {
            msg: m.clone(),
            group: GroupId(0),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
        };
        let actions = drive(&mut leader, ProcessId(0), accept);
        let self_ack = actions
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    to,
                    msg: msg @ WhiteBoxMsg::AcceptAck { .. },
                } if *to == ProcessId(0) => Some(msg.clone()),
                _ => None,
            })
            .expect("leader acks its own proposal");
        // Deliver the leader's own ack plus one follower ack → quorum of 2.
        drive(&mut leader, ProcessId(0), self_ack.clone());
        assert_eq!(leader.phase_of(m.id), Some(Phase::Accepted));
        let follower_ack = match self_ack {
            WhiteBoxMsg::AcceptAck {
                msg_id, ballots, ..
            } => WhiteBoxMsg::AcceptAck {
                msg_id,
                group: GroupId(0),
                ballots,
            },
            _ => unreachable!(),
        };
        let actions = drive(&mut leader, ProcessId(1), follower_ack);
        // The message commits and DELIVER goes to the whole group.
        assert_eq!(leader.phase_of(m.id), Some(Phase::Committed));
        let delivers = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: WhiteBoxMsg::Deliver { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(delivers, 3);
        // Handling its own DELIVER makes the leader deliver to the application.
        let deliver_to_self = actions
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    to,
                    msg: msg @ WhiteBoxMsg::Deliver { .. },
                } if *to == ProcessId(0) => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let actions = drive(&mut leader, ProcessId(0), deliver_to_self);
        assert!(actions.iter().any(Action::is_delivery));
        assert_eq!(leader.delivered_count(), 1);
        assert_eq!(leader.max_delivered_gts(), Timestamp::new(1, GroupId(0)));
    }

    #[test]
    fn deliver_is_idempotent_via_max_delivered_gts() {
        let mut follower = replica(1, 0);
        let m = app_msg(0, &[0]);
        let deliver = WhiteBoxMsg::Deliver {
            msg: m.clone(),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
            global_ts: Timestamp::new(1, GroupId(0)),
        };
        let first = drive(&mut follower, ProcessId(0), deliver.clone());
        assert_eq!(first.iter().filter(|a| a.is_delivery()).count(), 1);
        let second = drive(&mut follower, ProcessId(0), deliver);
        assert_eq!(second.iter().filter(|a| a.is_delivery()).count(), 0);
        assert_eq!(follower.delivered_count(), 1);
    }

    #[test]
    fn deliver_from_wrong_ballot_is_ignored() {
        let mut follower = replica(1, 0);
        let m = app_msg(0, &[0]);
        let deliver = WhiteBoxMsg::Deliver {
            msg: m,
            ballot: Ballot::new(9, ProcessId(2)),
            local_ts: Timestamp::new(1, GroupId(0)),
            global_ts: Timestamp::new(1, GroupId(0)),
        };
        let actions = drive(&mut follower, ProcessId(2), deliver);
        assert!(actions.is_empty());
        assert_eq!(follower.delivered_count(), 0);
    }

    #[test]
    fn committed_message_blocked_by_lower_pending_local_timestamp() {
        let mut leader = replica(0, 0);
        // Propose m1 (gets local/pending ts (1, g0)).
        let m1 = app_msg(0, &[0, 1]);
        drive(
            &mut leader,
            ProcessId(6),
            WhiteBoxMsg::Multicast { msg: m1.clone() },
        );
        // Propose m2 (local ts (2, g0)).
        let m2 = app_msg(1, &[0]);
        drive(
            &mut leader,
            ProcessId(6),
            WhiteBoxMsg::Multicast { msg: m2.clone() },
        );
        // Commit m2 via accepts + quorum acks.
        let accept2 = WhiteBoxMsg::Accept {
            msg: m2.clone(),
            group: GroupId(0),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(2, GroupId(0)),
        };
        let actions = drive(&mut leader, ProcessId(0), accept2);
        let ack = actions
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: msg @ WhiteBoxMsg::AcceptAck { .. },
                    to,
                } if *to == ProcessId(0) => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        drive(&mut leader, ProcessId(0), ack.clone());
        let ack_from_follower = match ack {
            WhiteBoxMsg::AcceptAck {
                msg_id, ballots, ..
            } => WhiteBoxMsg::AcceptAck {
                msg_id,
                group: GroupId(0),
                ballots,
            },
            _ => unreachable!(),
        };
        let actions = drive(&mut leader, ProcessId(1), ack_from_follower);
        // m2 is committed but must NOT be delivered: m1 is still pending with
        // local timestamp (1, g0) < gts(m2) = (2, g0) — the convoy condition of
        // Figure 4 line 21.
        assert_eq!(leader.phase_of(m2.id), Some(Phase::Committed));
        assert!(
            !actions.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: WhiteBoxMsg::Deliver { .. },
                    ..
                }
            )),
            "delivery must be blocked by the pending lower-timestamped message"
        );
    }

    /// Regression guard for the restart path: re-arming retry timers after a
    /// restart must scan the *pending suffix* (read off the incrementally
    /// maintained delivery-condition index), not the full record history — a
    /// replica restarted after 50k deliveries does work proportional to its
    /// handful of in-flight records.
    #[test]
    fn restart_scan_is_proportional_to_suffix_not_history() {
        let mut follower = replica(1, 0);
        // 50k delivered records, all resident (compaction off).
        for i in 0..50_000u64 {
            let m = app_msg(i, &[0]);
            let deliver = WhiteBoxMsg::Deliver {
                msg: m,
                ballot: Ballot::new(1, ProcessId(0)),
                local_ts: Timestamp::new(i + 1, GroupId(0)),
                global_ts: Timestamp::new(i + 1, GroupId(0)),
            };
            drive(&mut follower, ProcessId(0), deliver);
        }
        assert_eq!(follower.delivered_count(), 50_000);
        assert_eq!(follower.live_records(), 50_000);
        // A handful of in-flight records (accepted, uncommitted).
        for i in 50_000..50_005u64 {
            let m = app_msg(i, &[0]);
            let accept = WhiteBoxMsg::Accept {
                msg: m,
                group: GroupId(0),
                ballot: Ballot::new(1, ProcessId(0)),
                local_ts: Timestamp::new(i + 1, GroupId(0)),
            };
            drive(&mut follower, ProcessId(0), accept);
        }
        let actions = follower.on_event(Duration::ZERO, Event::Restart);
        assert_eq!(
            follower.last_restart_scan(),
            5,
            "restart re-arm scan must cover only the pending suffix"
        );
        let retry_timers = actions
            .iter()
            .filter(|a| matches!(a, Action::SetTimer { id, .. } if id.0 >= 1_000))
            .count();
        assert_eq!(retry_timers, 5, "one retry timer per pending record");
    }

    #[test]
    fn become_leader_sends_new_leader_to_group() {
        let mut follower = replica(1, 0);
        let actions = follower.on_event(Duration::ZERO, Event::BecomeLeader);
        let targets: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: WhiteBoxMsg::NewLeader { ballot },
                } => Some((*to, *ballot)),
                _ => None,
            })
            .collect();
        assert_eq!(targets.len(), 3);
        for (_, b) in &targets {
            assert!(b.is_led_by(ProcessId(1)));
            assert!(*b > Ballot::new(1, ProcessId(0)));
        }
    }

    #[test]
    fn new_leader_with_lower_ballot_is_rejected() {
        let mut follower = replica(1, 0);
        let actions = drive(
            &mut follower,
            ProcessId(2),
            WhiteBoxMsg::NewLeader {
                ballot: Ballot::new(1, ProcessId(0)),
            },
        );
        assert!(actions.is_empty());
        assert_eq!(follower.status(), Status::Follower);
    }

    #[test]
    fn full_recovery_round_promotes_new_leader() {
        // p1 takes over group 0 (members p0, p1, p2) after p0 "crashes".
        let mut p1 = replica(1, 0);
        let mut p2 = replica(2, 0);

        // p1 starts recovery.
        let actions = p1.on_event(Duration::ZERO, Event::BecomeLeader);
        let new_leader_msg = actions
            .iter()
            .find_map(|a| match a {
                Action::Send { to, msg } if *to == ProcessId(2) => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        // p1 handles its own NEWLEADER.
        let self_msg = actions
            .iter()
            .find_map(|a| match a {
                Action::Send { to, msg } if *to == ProcessId(1) => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let ack_from_self = drive(&mut p1, ProcessId(1), self_msg);
        let self_ack = ack_from_self
            .iter()
            .find_map(|a| match a {
                Action::Send { msg, .. } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(p1.status(), Status::Recovering);

        // p2 votes for p1.
        let p2_actions = drive(&mut p2, ProcessId(1), new_leader_msg);
        assert_eq!(p2.status(), Status::Recovering);
        let p2_ack = p2_actions
            .iter()
            .find_map(|a| match a {
                Action::Send { msg, .. } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();

        // p1 gathers the two votes (a quorum) and installs the new state.
        drive(&mut p1, ProcessId(1), self_ack);
        let install_actions = drive(&mut p1, ProcessId(2), p2_ack);
        let new_state_to_p2 = install_actions
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    to,
                    msg: msg @ WhiteBoxMsg::NewState { .. },
                } if *to == ProcessId(2) => Some(msg.clone()),
                _ => None,
            })
            .expect("NEW_STATE must be sent to followers");

        // p2 installs and acknowledges; p1 becomes leader.
        let p2_actions = drive(&mut p2, ProcessId(1), new_state_to_p2);
        assert_eq!(p2.status(), Status::Follower);
        assert_eq!(p2.current_ballot(), p1.current_ballot());
        let state_ack = p2_actions
            .iter()
            .find_map(|a| match a {
                Action::Send { msg, .. } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        drive(&mut p1, ProcessId(2), state_ack);
        assert_eq!(p1.status(), Status::Leader);
        assert!(p1.current_ballot().is_led_by(ProcessId(1)));
    }

    #[test]
    fn recovery_preserves_committed_messages() {
        // A follower that has delivered (hence committed) a message reports it
        // during recovery, and the new leader re-delivers it.
        let mut p1 = replica(1, 0);
        let mut p2 = replica(2, 0);
        let m = app_msg(0, &[0]);
        let deliver = WhiteBoxMsg::Deliver {
            msg: m.clone(),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
            global_ts: Timestamp::new(1, GroupId(0)),
        };
        drive(&mut p2, ProcessId(0), deliver);
        assert_eq!(p2.delivered_count(), 1);

        // p1 recovers with votes from itself and p2.
        let actions = p1.on_event(Duration::ZERO, Event::BecomeLeader);
        let to_p1 = actions
            .iter()
            .find_map(|a| match a {
                Action::Send { to, msg } if *to == ProcessId(1) => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let to_p2 = actions
            .iter()
            .find_map(|a| match a {
                Action::Send { to, msg } if *to == ProcessId(2) => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let self_ack = drive(&mut p1, ProcessId(1), to_p1)
            .iter()
            .find_map(|a| match a {
                Action::Send { msg, .. } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let p2_ack = drive(&mut p2, ProcessId(1), to_p2)
            .iter()
            .find_map(|a| match a {
                Action::Send { msg, .. } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        drive(&mut p1, ProcessId(1), self_ack);
        let install = drive(&mut p1, ProcessId(2), p2_ack);
        // The committed message is known to the new leader.
        assert_eq!(p1.phase_of(m.id), Some(Phase::Committed));
        assert_eq!(p1.global_ts_of(m.id), Some(Timestamp::new(1, GroupId(0))));
        let new_state = install
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    to,
                    msg: msg @ WhiteBoxMsg::NewState { .. },
                } if *to == ProcessId(2) => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let ack = drive(&mut p2, ProcessId(1), new_state)
            .iter()
            .find_map(|a| match a {
                Action::Send { msg, .. } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let finish = drive(&mut p1, ProcessId(2), ack);
        assert_eq!(p1.status(), Status::Leader);
        // The new leader re-sends DELIVER for the committed message.
        assert!(finish.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: WhiteBoxMsg::Deliver { .. },
                ..
            }
        )));
    }

    #[test]
    fn client_reply_sent_when_enabled() {
        let cfg = ReplicaConfig::new(ProcessId(1), GroupId(0), cluster()).without_auto_election();
        let mut follower = WhiteBoxReplica::new(cfg);
        let m = app_msg(0, &[0]);
        let deliver = WhiteBoxMsg::Deliver {
            msg: m,
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
            global_ts: Timestamp::new(1, GroupId(0)),
        };
        let actions = drive(&mut follower, ProcessId(0), deliver);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to, msg: WhiteBoxMsg::ClientReply { .. } } if *to == ProcessId(6)
        )));
    }

    #[test]
    fn heartbeat_timer_reschedules_for_leader() {
        let cfg = ReplicaConfig::new(ProcessId(0), GroupId(0), cluster());
        let mut leader = WhiteBoxReplica::new(cfg);
        let init = leader.on_event(Duration::ZERO, Event::Init);
        assert!(init
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == HEARTBEAT_TIMER)));
        let actions = leader.on_event(
            Duration::from_millis(50),
            Event::Timer {
                id: HEARTBEAT_TIMER,
                now: Duration::from_millis(50),
            },
        );
        let heartbeats = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: WhiteBoxMsg::Heartbeat { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(heartbeats, 2);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == HEARTBEAT_TIMER)));
    }

    #[test]
    fn follower_starts_election_after_silence() {
        let cfg = ReplicaConfig::new(ProcessId(1), GroupId(0), cluster())
            .with_election_timeouts(Duration::from_millis(10), Duration::from_millis(20));
        let mut follower = WhiteBoxReplica::new(cfg);
        follower.on_event(Duration::ZERO, Event::Init);
        // Before the timeout expires nothing happens.
        let quiet = follower.on_event(
            Duration::from_millis(30),
            Event::Timer {
                id: ELECTION_TIMER,
                now: Duration::from_millis(30),
            },
        );
        assert!(!quiet.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: WhiteBoxMsg::NewLeader { .. },
                ..
            }
        )));
        // Rank 1 waits 2 * 20 ms; by 100 ms it starts an election.
        let actions = follower.on_event(
            Duration::from_millis(100),
            Event::Timer {
                id: ELECTION_TIMER,
                now: Duration::from_millis(100),
            },
        );
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: WhiteBoxMsg::NewLeader { .. },
                ..
            }
        )));
    }

    #[test]
    fn heartbeat_refreshes_leader_liveness() {
        let cfg = ReplicaConfig::new(ProcessId(1), GroupId(0), cluster())
            .with_election_timeouts(Duration::from_millis(10), Duration::from_millis(20));
        let mut follower = WhiteBoxReplica::new(cfg);
        follower.on_event(Duration::ZERO, Event::Init);
        follower.on_event(
            Duration::from_millis(95),
            Event::message(
                ProcessId(0),
                WhiteBoxMsg::Heartbeat {
                    ballot: Ballot::new(1, ProcessId(0)),
                },
            ),
        );
        let actions = follower.on_event(
            Duration::from_millis(100),
            Event::Timer {
                id: ELECTION_TIMER,
                now: Duration::from_millis(100),
            },
        );
        assert!(!actions.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: WhiteBoxMsg::NewLeader { .. },
                ..
            }
        )));
    }

    #[test]
    fn retry_timer_resends_multicast_for_pending_message() {
        let cfg = ReplicaConfig::new(ProcessId(0), GroupId(0), cluster())
            .without_auto_election()
            .with_retry_timeout(Duration::from_millis(50));
        let mut leader = WhiteBoxReplica::new(cfg);
        let m = app_msg(0, &[0, 1]);
        let actions = leader.on_event(
            Duration::ZERO,
            Event::message(ProcessId(6), WhiteBoxMsg::Multicast { msg: m.clone() }),
        );
        let timer = actions
            .iter()
            .find_map(|a| match a {
                Action::SetTimer { id, .. } => Some(*id),
                _ => None,
            })
            .expect("retry timer armed");
        let retry = leader.on_event(
            Duration::from_millis(60),
            Event::Timer {
                id: timer,
                now: Duration::from_millis(60),
            },
        );
        // MULTICAST re-sent to both destination leaders (p0 and p3).
        let targets: Vec<_> = retry
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: WhiteBoxMsg::Multicast { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![ProcessId(0), ProcessId(3)]);
        assert!(retry
            .iter()
            .any(|a| matches!(a, Action::SetTimer { id, .. } if *id == timer)));
    }

    /// A replica stuck in `Recovering` (it joined a ballot whose `NEW_STATE`
    /// was lost) must not be pacified by the active leader's heartbeats: its
    /// election timer has to fire eventually and re-campaign with a higher
    /// ballot, or the group's usable quorum silently shrinks.
    #[test]
    fn heartbeats_do_not_pacify_a_recovering_replica() {
        let cfg = ReplicaConfig::new(ProcessId(1), GroupId(0), cluster())
            .with_election_timeouts(Duration::from_millis(50), Duration::from_millis(100));
        let mut follower = WhiteBoxReplica::new(cfg);
        follower.on_event(Duration::ZERO, Event::Init);
        // Join ballot (2, p2); its NEW_STATE never arrives.
        let joined = Ballot::new(2, ProcessId(2));
        drive(
            &mut follower,
            ProcessId(2),
            WhiteBoxMsg::NewLeader { ballot: joined },
        );
        assert_eq!(follower.status(), Status::Recovering);
        // p2 finished recovery with the other members and heartbeats away.
        for i in 1..=10u64 {
            follower.on_event(
                Duration::from_millis(i * 50),
                Event::message(ProcessId(2), WhiteBoxMsg::Heartbeat { ballot: joined }),
            );
        }
        // Patience for rank 1 is 2 × 100 ms; at 600 ms the timer must start a
        // fresh campaign despite the steady heartbeats.
        let actions = follower.on_event(
            Duration::from_millis(600),
            Event::Timer {
                id: ELECTION_TIMER,
                now: Duration::from_millis(600),
            },
        );
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: WhiteBoxMsg::NewLeader { ballot },
                    ..
                } if *ballot > joined
            )),
            "stuck Recovering replica must re-campaign"
        );
    }
}
