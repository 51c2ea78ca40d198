//! Shared machinery of the two baseline protocols.
//!
//! Both fault-tolerant Skeen and FastCast have the same overall structure —
//! each group is a multi-Paxos replicated state machine whose commands are
//! "assign local timestamp" and "record global timestamp", and group leaders
//! exchange timestamp proposals — and differ only in *when* things happen:
//! FastCast forwards proposals and starts the second consensus speculatively
//! and compensates with an extra confirmation exchange. [`BaselineReplica`]
//! implements both behaviours, selected by [`Mode`]; the `ftskeen` and
//! `fastcast` modules wrap it in protocol-specific types.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use wbam_consensus::{PaxosConfig, PaxosMsg, PaxosOutput, PaxosReplica, Slot};
use wbam_types::{
    Action, AppMessage, Ballot, Checkpoint, ClusterConfig, Compaction, ConfigError,
    DeliveredFilter, DeliveredMessage, DeliveryQueue, Event, GroupId, MsgId, Node, Phase,
    ProcessId, RecordMap, TimerId, Timestamp,
};

/// Timer pumping a restarted follower's catch-up request until the leader's
/// `STATE_TRANSFER` arrives (either message may be lost; the slots the
/// follower slept through can be below the leader's compacted log frontier,
/// so normal Paxos traffic alone can never fill the gap).
const CATCHUP_TIMER: TimerId = TimerId(2);

/// How long a restarted follower waits for a `STATE_TRANSFER` before
/// re-sending its catch-up request.
const CATCHUP_RETRY: Duration = Duration::from_millis(500);

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

/// Which baseline behaviour a [`BaselineReplica`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Fault-tolerant Skeen: proposals are exchanged only after the first
    /// consensus completes; no confirmation round (6δ collision-free).
    FtSkeen,
    /// FastCast: proposals are forwarded and the second consensus started
    /// speculatively; leaders additionally exchange confirmations once the
    /// first consensus completes (4δ collision-free).
    FastCast,
}

/// Per-message state at a baseline replica.
#[derive(Debug, Clone)]
struct BaselineRecord {
    msg: AppMessage,
    phase: Phase,
    local_ts: Timestamp,
    global_ts: Timestamp,
    delivered: bool,
    /// Local-timestamp proposals received from destination groups (leader only).
    proposals: BTreeMap<GroupId, Timestamp>,
    /// Groups whose first consensus is confirmed (FastCast leader only).
    confirms: BTreeSet<GroupId>,
    /// Whether this leader has already proposed `AssignLocal` for the message.
    assign_proposed: bool,
    /// The tentative local timestamp chosen by the leader when it proposed
    /// `AssignLocal` (before the command is decided). Needed so the leader
    /// treats the message as pending for the delivery rule straight away.
    tentative_lts: Timestamp,
    /// Whether this leader has already proposed `CommitGlobal` for the message.
    commit_proposed: bool,
    /// Whether `CommitGlobal` has been decided locally.
    commit_decided: bool,
}

impl BaselineRecord {
    fn new(msg: AppMessage) -> Self {
        BaselineRecord {
            msg,
            phase: Phase::Start,
            local_ts: Timestamp::BOTTOM,
            global_ts: Timestamp::BOTTOM,
            delivered: false,
            proposals: BTreeMap::new(),
            confirms: BTreeSet::new(),
            assign_proposed: false,
            tentative_lts: Timestamp::BOTTOM,
            commit_proposed: false,
            commit_decided: false,
        }
    }

    /// The record's entries in the delivery queue: the local timestamp it is
    /// pending at, and the global timestamp it is a delivery candidate at.
    /// A message is pending — and so blocks the delivery of committed
    /// messages with higher global timestamps — from the moment the leader
    /// assigns it a tentative local timestamp, not only once consensus on
    /// that assignment completes.
    fn queue_keys(&self) -> QueueKeys {
        let pending = match self.phase {
            Phase::Proposed => Some(self.local_ts),
            Phase::Start if self.assign_proposed => Some(self.tentative_lts),
            _ => None,
        };
        let candidate = (self.phase == Phase::Committed && self.commit_decided && !self.delivered)
            .then_some(self.global_ts);
        (pending, candidate)
    }
}

/// A record's `(pending, candidate)` entries in the delivery queue.
type QueueKeys = (Option<Timestamp>, Option<Timestamp>);

/// A replica of one of the baseline protocols (see [`Mode`]).
pub struct BaselineReplica {
    id: ProcessId,
    group: GroupId,
    cluster: ClusterConfig,
    mode: Mode,
    paxos: PaxosReplica<Command>,
    group_members: Vec<ProcessId>,
    /// Clock used by the leader to assign fresh local timestamps. Crucially,
    /// it is advanced past a message's *global* timestamp only when the second
    /// consensus (`CommitGlobal`) completes — this is what gives both
    /// baselines their ~2× failure-free latency degradation (paper §VI).
    clock: u64,
    records: RecordMap<BaselineRecord>,
    delivered_count: u64,
    /// Highest global timestamp delivered at this replica (duplicate filter
    /// for leader-driven delivery).
    max_delivered_gts: Timestamp,
    /// FastCast confirmations that arrived before this leader had heard of the
    /// message itself (possible with jittery links); merged into the record as
    /// soon as it is created.
    pending_confirms: BTreeMap<MsgId, BTreeSet<GroupId>>,
    /// Skeen's delivery rule over the records (see [`BaselineRecord::queue_keys`]).
    delivery: DeliveryQueue,
    /// The `STABLE` exchange: watermarks, member progress and the prune scan.
    compaction: Compaction,
    /// Compaction: bounded filter of delivered message identifiers.
    dedup: DeliveredFilter,
    /// Compaction: decided consensus slots and the message each concerns —
    /// the map that lets record pruning advance the consensus-log frontier.
    slot_msgs: BTreeMap<Slot, MsgId>,
    /// Whether a catch-up request is outstanding (retried on
    /// [`CATCHUP_TIMER`] until a `STATE_TRANSFER` lands).
    catchup_pending: bool,
}

impl BaselineReplica {
    /// Creates a baseline replica.
    ///
    /// # Panics
    ///
    /// Panics if the group does not exist in the cluster or does not contain
    /// the replica. Use [`Self::try_new`] to handle misconfigurations as
    /// values instead.
    pub fn new(id: ProcessId, group: GroupId, cluster: ClusterConfig, mode: Mode) -> Self {
        Self::try_new(id, group, cluster, mode).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a baseline replica, reporting misconfigurations as a typed
    /// [`ConfigError`] instead of aborting.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownGroup`] if the group does not exist in
    /// the cluster and [`ConfigError::NotAMember`] if it does not contain the
    /// replica.
    pub fn try_new(
        id: ProcessId,
        group: GroupId,
        cluster: ClusterConfig,
        mode: Mode,
    ) -> Result<Self, ConfigError> {
        let gc = cluster
            .group(group)
            .ok_or(ConfigError::UnknownGroup { group })?;
        if !gc.contains(id) {
            return Err(ConfigError::NotAMember { process: id, group });
        }
        let members = gc.members().to_vec();
        Ok(BaselineReplica {
            id,
            group,
            mode,
            paxos: PaxosReplica::new(PaxosConfig::new(id, members.clone())),
            group_members: members,
            clock: 0,
            records: RecordMap::new(),
            delivered_count: 0,
            max_delivered_gts: Timestamp::BOTTOM,
            pending_confirms: BTreeMap::new(),
            delivery: DeliveryQueue::new(),
            compaction: Compaction::new(0, 0),
            dedup: DeliveredFilter::new(),
            slot_msgs: BTreeMap::new(),
            catchup_pending: false,
            cluster,
        })
    }

    /// Enables record + consensus-log compaction, mirroring
    /// `ReplicaConfig::with_compaction` of the white-box protocol so the
    /// baselines stay comparable on long runs. A zero `interval` disables it.
    pub fn with_compaction(mut self, interval: u64, lag: usize) -> Self {
        self.compaction = Compaction::new(interval, lag);
        self
    }

    /// Number of message records currently resident.
    pub fn live_records(&self) -> usize {
        self.records.len()
    }

    /// Window slots the record store has allocated (see
    /// [`RecordMap::slot_capacity`]).
    pub fn record_slots(&self) -> usize {
        self.records.slot_capacity()
    }

    /// Number of consensus-log entries currently resident.
    pub fn log_len(&self) -> usize {
        self.paxos.log_len()
    }

    /// The replica's compaction state: watermarks, pruned and catch-up
    /// counters.
    pub fn compaction(&self) -> &Compaction {
        &self.compaction
    }

    /// The replica's ordering-layer checkpoint (the baselines have no
    /// per-message ballots; the checkpoint ballot slot carries bottom).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            group: self.group,
            ballot: Ballot::BOTTOM,
            clock: self.clock,
            watermarks: self.compaction.watermarks().clone(),
            max_delivered_gts: self.max_delivered_gts,
            delivered_count: self.delivered_count,
            dedup: self.dedup.clone(),
            app_state: Vec::new(),
        }
    }

    /// Whether this replica is its group's (consensus) leader.
    pub fn is_leader(&self) -> bool {
        self.paxos.is_leader()
    }

    /// The baseline behaviour this replica implements.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Number of application messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// The phase of a message at this replica, if known.
    pub fn phase_of(&self, m: MsgId) -> Option<Phase> {
        self.records.get(&m).map(|r| r.phase)
    }

    /// The replica's timestamp-assignment clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The highest global timestamp this replica has delivered.
    pub fn max_delivered_gts(&self) -> Timestamp {
        self.max_delivered_gts
    }

    fn leader_of(&self, g: GroupId) -> Option<ProcessId> {
        self.cluster.group(g).map(|gc| gc.initial_leader())
    }

    fn record_entry(&mut self, msg: &AppMessage) -> &mut BaselineRecord {
        self.records
            .get_or_insert_with(msg.id, || BaselineRecord::new(msg.clone()))
    }

    /// Moves `id`'s delivery-queue entries from the keys its record had
    /// before a change to the keys it has now. Every change to a record's
    /// phase, timestamps or delivered flag goes through here.
    fn refile(&mut self, id: MsgId, (was_pending, was_candidate): QueueKeys) {
        let (pending, candidate) = self
            .records
            .get(&id)
            .map_or((None, None), BaselineRecord::queue_keys);
        if let Some(lts) = was_pending {
            self.delivery.unpend(lts, id);
        }
        if let Some(gts) = was_candidate {
            self.delivery.forget(gts, id);
        }
        if let Some(lts) = pending {
            self.delivery.pend(lts, id);
        }
        if let Some(gts) = candidate {
            self.delivery.commit(gts, id);
        }
    }

    fn convert_paxos(&mut self, out: PaxosOutput<Command>) -> Vec<Action<BaselineMsg>> {
        let mut actions = Vec::new();
        for (to, msg) in out.outgoing {
            actions.push(Action::send(to, BaselineMsg::Paxos(msg)));
        }
        for (slot, cmd) in out.decided {
            // Remember which message each decided slot concerns, so pruning a
            // record can advance the consensus-log compaction frontier once
            // every slot below it belongs to pruned history.
            if self.compaction.enabled() {
                let subject = match &cmd {
                    Command::AssignLocal { msg, .. } => msg.id,
                    Command::CommitGlobal { msg_id, .. } => *msg_id,
                };
                self.slot_msgs.insert(slot, subject);
            }
            actions.extend(self.apply(cmd));
        }
        actions
    }

    /// Leader entry point: a client (or remote leader) submitted `m`.
    fn handle_multicast(&mut self, msg: AppMessage) -> Vec<Action<BaselineMsg>> {
        self.handle_multicast_inner(msg, true)
    }

    /// `retryable` distinguishes a real `MULTICAST` (client submission or
    /// retry — worth answering with recovery re-sends) from the internal call
    /// made while handling a remote leader's `PROPOSE`. Re-sending our own
    /// proposal in the latter case would let two leaders' duplicate handlers
    /// re-trigger each other forever (a PROPOSE ping-pong storm).
    fn handle_multicast_inner(
        &mut self,
        msg: AppMessage,
        retryable: bool,
    ) -> Vec<Action<BaselineMsg>> {
        let mut actions = Vec::new();
        if !msg.is_addressed_to(self.group) {
            return actions;
        }
        if !self.paxos.is_leader() {
            // Forward to the group's leader.
            if let Some(leader) = self.leader_of(self.group) {
                if leader != self.id {
                    actions.push(Action::send(leader, BaselineMsg::Multicast { msg }));
                }
            }
            return actions;
        }
        let group = self.group;
        if !self.records.contains_key(&msg.id) && self.dedup.contains(msg.id) {
            // Duplicate of a message delivered everywhere and pruned:
            // re-proposing would deliver it twice. Answer retries from the
            // bounded delivered filter (the actual timestamp went with the
            // record; clients treat the ⊥ reply like any completion).
            if retryable {
                actions.extend(self.reply_to_sender(msg.id, Timestamp::BOTTOM));
            }
            return actions;
        }
        let stashed_confirms = self.pending_confirms.remove(&msg.id);
        let clock = &mut self.clock;
        let record = self
            .records
            .get_or_insert_with(msg.id, || BaselineRecord::new(msg.clone()));
        if let Some(confirms) = stashed_confirms {
            record.confirms.extend(confirms);
        }
        if record.assign_proposed {
            if !retryable {
                return actions;
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
                actions.extend(self.reply_to_sender(stored.id, global_ts));
            } else if local_ts != Timestamp::BOTTOM {
                actions.extend(self.send_proposals(&stored, local_ts));
            }
            return actions;
        }
        let before = record.queue_keys();
        record.assign_proposed = true;
        *clock += 1;
        let local_ts = Timestamp::new(*clock, group);
        record.tentative_lts = local_ts;
        self.refile(msg.id, before);
        // Persist the assignment through consensus.
        let out = self.paxos.propose(Command::AssignLocal {
            msg: msg.clone(),
            local_ts,
        });
        actions.extend(self.convert_paxos(out));
        if self.mode == Mode::FastCast {
            // Speculation: forward the (not yet durable) proposal right away.
            actions.extend(self.send_proposals(&msg, local_ts));
            actions.extend(self.note_proposal(&msg, self.group, local_ts));
        }
        actions
    }

    /// Sends this group's local-timestamp proposal to the other destination
    /// groups' leaders.
    fn send_proposals(&self, msg: &AppMessage, local_ts: Timestamp) -> Vec<Action<BaselineMsg>> {
        let mut actions = Vec::new();
        for g in msg.dest.iter() {
            if g == self.group {
                continue;
            }
            if let Some(leader) = self.leader_of(g) {
                actions.push(Action::send(
                    leader,
                    BaselineMsg::Propose {
                        msg: msg.clone(),
                        group: self.group,
                        local_ts,
                    },
                ));
            }
        }
        actions
    }

    /// Records a proposal (own or remote) at the leader and, once proposals
    /// from every destination group are known, starts the second consensus.
    fn note_proposal(
        &mut self,
        msg: &AppMessage,
        group: GroupId,
        local_ts: Timestamp,
    ) -> Vec<Action<BaselineMsg>> {
        let mut actions = Vec::new();
        if !self.paxos.is_leader() {
            return actions;
        }
        if !self.records.contains_key(&msg.id) && self.dedup.contains(msg.id) {
            // A stale proposal for pruned, globally delivered history: do not
            // resurrect a record nothing will ever deliver or prune again.
            return actions;
        }
        let mode = self.mode;
        let record = self.record_entry(msg);
        record.proposals.insert(group, local_ts);
        let complete = msg.dest.iter().all(|g| record.proposals.contains_key(&g));
        if !complete || record.commit_proposed {
            return actions;
        }
        // Fault-tolerant Skeen additionally waits for its own assignment to be
        // durable (the first consensus) before computing the global timestamp;
        // FastCast computes it speculatively.
        if mode == Mode::FtSkeen && record.phase == Phase::Start {
            return actions;
        }
        record.commit_proposed = true;
        let gts = Timestamp::global_of(record.proposals.values().copied());
        let msg_id = msg.id;
        let out = self.paxos.propose(Command::CommitGlobal {
            msg_id,
            global_ts: gts,
        });
        actions.extend(self.convert_paxos(out));
        actions
    }

    /// Applies a decided command to the group's replicated state.
    fn apply(&mut self, cmd: Command) -> Vec<Action<BaselineMsg>> {
        let mut actions = Vec::new();
        match cmd {
            Command::AssignLocal { msg, local_ts } => {
                let is_leader = self.paxos.is_leader();
                let group = self.group;
                let record = self.record_entry(&msg);
                let before = record.queue_keys();
                if record.phase == Phase::Start {
                    record.phase = Phase::Proposed;
                    record.local_ts = local_ts;
                }
                self.refile(msg.id, before);
                self.clock = self.clock.max(local_ts.time());
                if is_leader {
                    match self.mode {
                        Mode::FtSkeen => {
                            // Only now is the proposal durable; exchange it.
                            actions.extend(self.send_proposals(&msg, local_ts));
                            actions.extend(self.note_proposal(&msg, group, local_ts));
                        }
                        Mode::FastCast => {
                            // The proposal went out speculatively; confirm that
                            // consensus on it has now completed.
                            for g in msg.dest.iter() {
                                if g == group {
                                    actions.extend(self.note_confirm(msg.id, group));
                                } else if let Some(leader) = self.leader_of(g) {
                                    actions.push(Action::send(
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
                if let Some(record) = self.records.get_mut(&msg_id) {
                    let before = record.queue_keys();
                    record.commit_decided = true;
                    record.global_ts = global_ts;
                    if record.phase < Phase::Committed {
                        record.phase = Phase::Committed;
                    }
                    self.refile(msg_id, before);
                }
                // The clock advances past the global timestamp only here, i.e.
                // only after the second consensus — the source of the 2×
                // failure-free latency degradation of the baselines.
                self.clock = self.clock.max(global_ts.time());
                actions.extend(self.try_deliver());
            }
        }
        actions
    }

    /// Records a FastCast confirmation at the leader.
    fn note_confirm(&mut self, msg_id: MsgId, group: GroupId) -> Vec<Action<BaselineMsg>> {
        match self.records.get_mut(&msg_id) {
            Some(record) => {
                record.confirms.insert(group);
            }
            None if !self.dedup.contains(msg_id) => {
                // The confirmation outran the message itself; remember it.
                self.pending_confirms
                    .entry(msg_id)
                    .or_default()
                    .insert(group);
            }
            // A confirmation for pruned history needs no bookkeeping.
            None => {}
        }
        self.try_deliver()
    }

    /// Skeen's delivery rule over the leader's state: deliver committed
    /// messages in global-timestamp order once no pending message can be
    /// ordered before them. FastCast leaders additionally wait for
    /// confirmations from every destination group. Delivery is leader-driven:
    /// the leader delivers locally and instructs its followers with
    /// [`BaselineMsg::Deliver`], which guarantees that every member of the
    /// group delivers in exactly the leader's order.
    fn try_deliver(&mut self) -> Vec<Action<BaselineMsg>> {
        let mut actions = Vec::new();
        if !self.paxos.is_leader() {
            return actions;
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
            actions.extend(self.deliver_one(id, gts));
            // The entry left the queue; one the duplicate filter kept from
            // delivering is still a candidate.
            self.refile(id, (None, None));
            // Tell the followers.
            for member in self.group_members.clone() {
                if member != self.id {
                    actions.push(Action::send(
                        member,
                        BaselineMsg::Deliver {
                            msg_id: id,
                            global_ts: gts,
                        },
                    ));
                }
            }
        }
        actions
    }

    // ------------------------------------------------------------------
    // Compaction: the STABLE exchange, pruning and catch-up
    // ------------------------------------------------------------------

    /// Every `compaction_interval` local deliveries: followers report their
    /// progress and the leader recomputes the group watermark.
    fn stable_round(&mut self) -> Vec<Action<BaselineMsg>> {
        if self.paxos.is_leader() {
            return self.recompute_watermark();
        }
        match self.leader_of(self.group) {
            Some(leader) if leader != self.id => vec![Action::send(
                leader,
                BaselineMsg::StableReport {
                    group: self.group,
                    delivered_gts: self.max_delivered_gts,
                },
            )],
            _ => Vec::new(),
        }
    }

    /// Leader handler for `STABLE_REPORT`.
    fn handle_stable_report(
        &mut self,
        from: ProcessId,
        group: GroupId,
        delivered_gts: Timestamp,
    ) -> Vec<Action<BaselineMsg>> {
        if !self.paxos.is_leader() || group != self.group || !self.group_members.contains(&from) {
            return Vec::new();
        }
        self.compaction.record_progress(from, delivered_gts);
        self.recompute_watermark()
    }

    /// Recomputes the own-group watermark (see [`Compaction::recompute`]);
    /// on an advance, prunes and disseminates the updated watermark map.
    fn recompute_watermark(&mut self) -> Vec<Action<BaselineMsg>> {
        self.compaction
            .record_progress(self.id, self.max_delivered_gts);
        let quorum = self.group_members.len() / 2 + 1;
        if !self
            .compaction
            .recompute(self.group, &self.group_members, quorum)
        {
            return Vec::new();
        }
        self.prune();
        self.broadcast_watermarks()
    }

    /// Sends the watermark map to the group's followers and remote leaders.
    fn broadcast_watermarks(&self) -> Vec<Action<BaselineMsg>> {
        let advance = BaselineMsg::StableAdvance {
            watermarks: self.compaction.watermarks().clone(),
        };
        let groups = self.cluster.groups().iter();
        let remote_leaders = groups
            .filter(|gc| gc.id() != self.group)
            .map(|gc| gc.initial_leader());
        let to = self.group_members.iter().copied().chain(remote_leaders);
        Action::send_to_all(to.filter(|p| *p != self.id), advance)
    }

    /// Merges a received watermark map and prunes; leaders re-broadcast new
    /// knowledge so it reaches their followers.
    fn handle_stable_advance(
        &mut self,
        watermarks: BTreeMap<GroupId, Timestamp>,
    ) -> Vec<Action<BaselineMsg>> {
        if !self.compaction.merge(&watermarks) {
            return Vec::new();
        }
        self.prune();
        if self.paxos.is_leader() {
            self.broadcast_watermarks()
        } else {
            Vec::new()
        }
    }

    /// Prunes delivered records covered by every destination group's
    /// watermark (see [`Compaction::prune`]) and advances the consensus-log
    /// frontier over slots whose messages are pruned.
    fn prune(&mut self) {
        if !self.compaction.enabled() {
            return;
        }
        self.compaction.prune(&mut self.records, |r| &r.msg.dest);
        // The log prefix whose every slot concerns pruned history can go.
        let mut frontier = self.paxos.compacted_below();
        while let Some((&slot, &mid)) = self.slot_msgs.iter().next() {
            if self.records.contains_key(&mid) || !self.dedup.contains(mid) {
                break;
            }
            self.slot_msgs.remove(&slot);
            frontier = slot + 1;
        }
        self.paxos.compact_below(frontier);
    }

    /// Sends (or re-sends) this follower's catch-up request to the group
    /// leader and re-arms the retry timer.
    fn send_catchup_request(&mut self) -> Vec<Action<BaselineMsg>> {
        let mut actions = Vec::new();
        if let Some(leader) = self.leader_of(self.group) {
            if leader != self.id {
                actions.push(Action::send(
                    leader,
                    BaselineMsg::CatchupRequest {
                        group: self.group,
                        delivered_gts: self.max_delivered_gts,
                        next_slot: self.paxos.decided_len(),
                    },
                ));
                actions.push(Action::SetTimer {
                    id: CATCHUP_TIMER,
                    delay: CATCHUP_RETRY,
                });
            }
        }
        actions
    }

    /// Leader handler for a catch-up request: reply with checkpoint + the
    /// resident log suffix at or above the requester's progress.
    fn handle_catchup_request(
        &mut self,
        from: ProcessId,
        group: GroupId,
        next_slot: Slot,
    ) -> Vec<Action<BaselineMsg>> {
        if !self.paxos.is_leader() || group != self.group || from == self.id {
            return Vec::new();
        }
        let frontier = self.paxos.compacted_below();
        let log: Vec<(Slot, Command)> = self
            .paxos
            .chosen_suffix()
            .into_iter()
            .filter(|(slot, _)| *slot >= next_slot.max(frontier))
            .collect();
        vec![Action::send(
            from,
            BaselineMsg::StateTransfer {
                checkpoint: self.checkpoint(),
                frontier,
                log,
            },
        )]
    }

    /// Installs a catch-up reply: merge the checkpoint (watermarks, filter,
    /// a delivery-progress jump over pruned history) and replay the log
    /// suffix through the consensus learner; then self-deliver every
    /// committed record up to the leader's delivery progress — the `DELIVER`
    /// instructions lost while down, reconstructed from the checkpoint
    /// (delivery order is global-timestamp order, so this is exactly the
    /// order the leader instructed).
    fn handle_state_transfer(
        &mut self,
        checkpoint: Checkpoint,
        frontier: Slot,
        log: Vec<(Slot, Command)>,
    ) -> Vec<Action<BaselineMsg>> {
        let mut actions = Vec::new();
        if self.catchup_pending {
            self.catchup_pending = false;
            actions.push(Action::CancelTimer(CATCHUP_TIMER));
        }
        self.dedup.merge(&checkpoint.dedup);
        self.compaction.merge(&checkpoint.watermarks);
        self.compaction
            .jump(self.group, &mut self.max_delivered_gts);
        let out = self.paxos.install_snapshot(frontier, log);
        actions.extend(self.convert_paxos(out));
        // Re-deliver what the leader already delivered: the delivery
        // candidates at or below the leader's progress, in timestamp order
        // (deliver_one filters anything at or below our own progress).
        let deliverable: Vec<(Timestamp, MsgId)> = self
            .delivery
            .committed()
            .take_while(|&(gts, _)| gts <= checkpoint.max_delivered_gts)
            .collect();
        for (gts, id) in deliverable {
            actions.extend(self.deliver_one(id, gts));
        }
        self.prune();
        actions
    }

    /// Delivers one message locally (leader on its own decision, follower on a
    /// `Deliver` instruction), filtering duplicates via `max_delivered_gts`.
    fn deliver_one(&mut self, id: MsgId, gts: Timestamp) -> Vec<Action<BaselineMsg>> {
        let mut actions = Vec::new();
        if gts <= self.max_delivered_gts {
            return actions;
        }
        let Some(record) = self.records.get_mut(&id) else {
            return actions;
        };
        if record.delivered {
            return actions;
        }
        let before = record.queue_keys();
        record.delivered = true;
        record.phase = Phase::Committed;
        record.global_ts = gts;
        let msg = record.msg.clone();
        self.refile(id, before);
        self.max_delivered_gts = gts;
        self.delivered_count += 1;
        self.dedup.insert(id);
        actions.push(Action::Deliver(DeliveredMessage::with_timestamp(msg, gts)));
        actions.extend(self.reply_to_sender(id, gts));
        if self.compaction.note_delivery(gts, id) {
            actions.extend(self.stable_round());
        }
        actions
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

impl Node for BaselineReplica {
    type Msg = BaselineMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_event(&mut self, _now: Duration, event: Event<BaselineMsg>) -> Vec<Action<BaselineMsg>> {
        match event {
            Event::Multicast(msg) => self.handle_multicast(msg),
            Event::BecomeLeader => {
                let out = self.paxos.campaign();
                self.convert_paxos(out)
            }
            // A restarted replica keeps its durable state (records, Paxos
            // log, clock) but lost its volatile context. If it led its
            // group's consensus, it re-establishes the leadership through a
            // fresh campaign so in-flight slots are re-learned from a quorum.
            Event::Restart => {
                self.catchup_pending = false;
                let mut actions = Vec::new();
                if self.paxos.is_leader() {
                    let out = self.paxos.campaign();
                    actions.extend(self.convert_paxos(out));
                } else if self.compaction.enabled() {
                    // A restarted follower asks its leader for a catch-up:
                    // with compaction on, the decisions (and DELIVER
                    // instructions) it slept through may be trimmed from the
                    // leader's log, so it recovers from checkpoint + suffix
                    // rather than per-message replay. The request is pumped
                    // by a retry timer until the transfer lands — either leg
                    // can be lost, and a gap below the compacted frontier is
                    // unrecoverable through normal Paxos traffic.
                    self.catchup_pending = true;
                    actions.extend(self.send_catchup_request());
                }
                actions
            }
            Event::Timer {
                id: CATCHUP_TIMER, ..
            } => {
                if self.catchup_pending {
                    self.send_catchup_request()
                } else {
                    Vec::new()
                }
            }
            Event::Message { from, msg } => match msg {
                BaselineMsg::Multicast { msg } => self.handle_multicast(msg),
                BaselineMsg::Propose {
                    msg,
                    group,
                    local_ts,
                } => {
                    // Make sure we are ordering the message ourselves too (the
                    // client's MULTICAST to us may still be in flight or lost).
                    let mut actions = self.handle_multicast_inner(msg.clone(), false);
                    actions.extend(self.note_proposal(&msg, group, local_ts));
                    actions
                }
                BaselineMsg::Confirm { msg_id, group } => self.note_confirm(msg_id, group),
                BaselineMsg::Deliver { msg_id, global_ts } => self.deliver_one(msg_id, global_ts),
                BaselineMsg::Paxos(m) => {
                    let out = self.paxos.handle(from, m);
                    self.convert_paxos(out)
                }
                BaselineMsg::StableReport {
                    group,
                    delivered_gts,
                } => self.handle_stable_report(from, group, delivered_gts),
                BaselineMsg::StableAdvance { watermarks } => self.handle_stable_advance(watermarks),
                BaselineMsg::CatchupRequest {
                    group, next_slot, ..
                } => self.handle_catchup_request(from, group, next_slot),
                BaselineMsg::StateTransfer {
                    checkpoint,
                    frontier,
                    log,
                } => self.handle_state_transfer(checkpoint, frontier, log),
                BaselineMsg::ClientReply { .. } => Vec::new(),
            },
            _ => Vec::new(),
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// A client for the baseline protocols: submits messages to the destination
/// groups' leaders, collects the first delivery reply per message and retries
/// on a timeout.
pub struct BaselineClient {
    id: ProcessId,
    cluster: ClusterConfig,
    retry_timeout: Duration,
    pending: RecordMap<AppMessage>,
}

impl BaselineClient {
    /// Creates a client with the given retry timeout.
    pub fn new(id: ProcessId, cluster: ClusterConfig, retry_timeout: Duration) -> Self {
        BaselineClient {
            id,
            cluster,
            retry_timeout,
            pending: RecordMap::new(),
        }
    }

    /// Number of in-flight multicasts.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    fn send_to_leaders(&self, msg: &AppMessage) -> Vec<Action<BaselineMsg>> {
        msg.dest
            .iter()
            .filter_map(|g| self.cluster.group(g).map(|gc| gc.initial_leader()))
            .map(|leader| Action::send(leader, BaselineMsg::Multicast { msg: msg.clone() }))
            .collect()
    }
}

impl Node for BaselineClient {
    type Msg = BaselineMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_event(&mut self, _now: Duration, event: Event<BaselineMsg>) -> Vec<Action<BaselineMsg>> {
        match event {
            Event::Multicast(msg) => {
                let mut actions = self.send_to_leaders(&msg);
                actions.push(Action::SetTimer {
                    id: wbam_types::TimerId(msg.id.seq),
                    delay: self.retry_timeout,
                });
                self.pending.insert(msg.id, msg);
                actions
            }
            Event::Timer { id, .. } => {
                // The inverse of the timer id: this client's own sequence
                // number.
                let msg = self.pending.get(&MsgId::new(self.id, id.0)).cloned();
                match msg {
                    Some(m) => {
                        let mut actions = self.send_to_leaders(&m);
                        actions.push(Action::SetTimer {
                            id,
                            delay: self.retry_timeout,
                        });
                        actions
                    }
                    None => Vec::new(),
                }
            }
            Event::Message {
                msg:
                    BaselineMsg::ClientReply {
                        msg_id, global_ts, ..
                    },
                ..
            } => {
                if let Some(msg) = self.pending.remove(&msg_id) {
                    return vec![
                        Action::CancelTimer(wbam_types::TimerId(msg_id.seq)),
                        Action::Deliver(DeliveredMessage::with_timestamp(msg, global_ts)),
                    ];
                }
                Vec::new()
            }
            // A restarted client lost its retry timers (and any replies that
            // arrived while it was down): re-send every in-flight multicast
            // and re-arm its timer. Replicas answer duplicates of delivered
            // messages with a fresh reply.
            Event::Restart => {
                let mut actions = Vec::new();
                let pending: Vec<AppMessage> = self.pending.values().cloned().collect();
                for msg in pending {
                    let id = msg.id;
                    actions.extend(self.send_to_leaders(&msg));
                    actions.push(Action::SetTimer {
                        id: wbam_types::TimerId(id.seq),
                        delay: self.retry_timeout,
                    });
                }
                actions
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::{Destination, Payload};

    fn cluster() -> ClusterConfig {
        ClusterConfig::builder().groups(2, 3).clients(1).build()
    }

    fn msg(seq: u64, dest: &[u32]) -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId(6), seq),
            Destination::new(dest.iter().map(|g| GroupId(*g))).unwrap(),
            Payload::from("x"),
        )
    }

    #[test]
    fn leader_proposes_assignment_through_consensus() {
        let mut leader = BaselineReplica::new(ProcessId(0), GroupId(0), cluster(), Mode::FtSkeen);
        let actions = leader.on_event(
            Duration::ZERO,
            Event::message(
                ProcessId(6),
                BaselineMsg::Multicast {
                    msg: msg(0, &[0, 1]),
                },
            ),
        );
        // Three Paxos ACCEPTs, no cross-group traffic yet (FT-Skeen waits for
        // consensus to complete before exchanging proposals).
        let paxos_msgs = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: BaselineMsg::Paxos(_),
                        ..
                    }
                )
            })
            .count();
        let proposes = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: BaselineMsg::Propose { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(paxos_msgs, 3);
        assert_eq!(proposes, 0);
    }

    #[test]
    fn fastcast_sends_proposals_speculatively() {
        let mut leader = BaselineReplica::new(ProcessId(0), GroupId(0), cluster(), Mode::FastCast);
        let actions = leader.on_event(
            Duration::ZERO,
            Event::message(
                ProcessId(6),
                BaselineMsg::Multicast {
                    msg: msg(0, &[0, 1]),
                },
            ),
        );
        let proposes = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: BaselineMsg::Propose { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(
            proposes, 1,
            "the proposal to g1's leader goes out immediately"
        );
    }

    #[test]
    fn follower_forwards_multicast_to_leader() {
        let mut follower = BaselineReplica::new(ProcessId(1), GroupId(0), cluster(), Mode::FtSkeen);
        let actions = follower.on_event(
            Duration::ZERO,
            Event::message(ProcessId(6), BaselineMsg::Multicast { msg: msg(0, &[0]) }),
        );
        assert!(matches!(
            &actions[0],
            Action::Send { to, msg: BaselineMsg::Multicast { .. } } if *to == ProcessId(0)
        ));
    }

    #[test]
    fn duplicate_multicast_is_proposed_once() {
        let mut leader = BaselineReplica::new(ProcessId(0), GroupId(0), cluster(), Mode::FtSkeen);
        let m = msg(0, &[0]);
        leader.on_event(
            Duration::ZERO,
            Event::message(ProcessId(6), BaselineMsg::Multicast { msg: m.clone() }),
        );
        let second = leader.on_event(
            Duration::ZERO,
            Event::message(ProcessId(6), BaselineMsg::Multicast { msg: m }),
        );
        assert!(second.is_empty());
        assert_eq!(leader.clock(), 1);
    }

    #[test]
    fn client_sends_to_destination_leaders_and_records_reply() {
        let mut c = BaselineClient::new(ProcessId(6), cluster(), Duration::from_millis(200));
        let m = msg(0, &[0, 1]);
        let actions = c.on_event(Duration::ZERO, Event::Multicast(m.clone()));
        let targets: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![ProcessId(0), ProcessId(3)]);
        let reply = BaselineMsg::ClientReply {
            msg_id: m.id,
            group: GroupId(1),
            global_ts: Timestamp::new(2, GroupId(1)),
        };
        let actions = c.on_event(
            Duration::from_millis(9),
            Event::message(ProcessId(3), reply),
        );
        let delivered: Vec<_> = actions.iter().filter_map(Action::as_delivery).collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].msg, m);
        assert_eq!(delivered[0].global_ts, Some(Timestamp::new(2, GroupId(1))));
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn client_retry_resends_to_leaders() {
        let mut c = BaselineClient::new(ProcessId(6), cluster(), Duration::from_millis(50));
        let m = msg(3, &[1]);
        c.on_event(Duration::ZERO, Event::Multicast(m));
        let actions = c.on_event(
            Duration::from_millis(50),
            Event::Timer {
                id: wbam_types::TimerId(3),
                now: Duration::from_millis(50),
            },
        );
        let resends = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: BaselineMsg::Multicast { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(resends, 1);
    }
}
