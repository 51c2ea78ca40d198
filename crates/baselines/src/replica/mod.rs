//! The replica both baseline protocols share.
//!
//! Both fault-tolerant Skeen and FastCast have the same overall structure —
//! each group is a multi-Paxos replicated state machine whose commands are
//! "assign local timestamp" and "record global timestamp", and group leaders
//! exchange timestamp proposals — and differ only in *when* things happen:
//! FastCast forwards proposals and starts the second consensus speculatively
//! and compensates with an extra confirmation exchange. [`BaselineReplica`]
//! implements both behaviours, selected by [`Mode`]; the `ftskeen` and
//! `fastcast` modules wrap it in protocol-specific types.
//!
//! # Layout
//!
//! Cut like the white-box replica (DESIGN.md, "The replica's seams") into
//! `normal`, `catchup` and `stable`; this file holds the state and the
//! dispatcher.

mod catchup;
mod normal;
mod stable;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use wbam_consensus::{PaxosConfig, PaxosReplica, Slot};
use wbam_types::{
    AppMessage, Ballot, Checkpoint, ClusterConfig, ConfigError, DeliveryProgress, DeliveryQueue,
    Event, GroupId, MsgId, Node, Phase, ProcessId, RecordMap, Timestamp,
};

use crate::messages::{BaselineMsg, Command};
use crate::Outbox;
use catchup::CATCHUP_TIMER;

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

    /// The record's `(pending, candidate)` entries in the delivery queue: the
    /// local timestamp it is pending at, and the global timestamp it is a
    /// delivery candidate at. A message is pending — and so blocks the
    /// delivery of committed messages with higher global timestamps — from
    /// the moment the leader assigns it a tentative local timestamp, not
    /// only once consensus on that assignment completes.
    fn queue_keys(&self) -> (Option<Timestamp>, Option<Timestamp>) {
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

/// A replica of one of the baseline protocols (see [`Mode`]).
pub struct BaselineReplica {
    id: ProcessId,
    group: GroupId,
    /// Every group's initial leader: the baselines address a group through
    /// it (its consensus leader may move; the address does not).
    leaders: BTreeMap<GroupId, ProcessId>,
    mode: Mode,
    paxos: PaxosReplica<Command>,
    group_members: Vec<ProcessId>,
    records: RecordMap<BaselineRecord>,
    /// FastCast confirmations that arrived before this leader had heard of the
    /// message itself (possible with jittery links); merged into the record as
    /// soon as it is created.
    pending_confirms: BTreeMap<MsgId, BTreeSet<GroupId>>,
    /// The clock the leader assigns local timestamps from, and Skeen's
    /// delivery rule over the records (see [`BaselineRecord::queue_keys`]).
    delivery: DeliveryQueue,
    /// Delivery progress (the duplicate filter for leader-driven delivery),
    /// the delivered filter and the `STABLE` exchange.
    progress: DeliveryProgress,
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
            records: RecordMap::new(),
            pending_confirms: BTreeMap::new(),
            delivery: DeliveryQueue::new(),
            progress: DeliveryProgress::new(id, gc),
            slot_msgs: BTreeMap::new(),
            catchup_pending: false,
            leaders: cluster.initial_leaders(),
        })
    }

    /// Enables record + consensus-log compaction, mirroring
    /// `ReplicaConfig::with_compaction` of the white-box protocol so the
    /// baselines stay comparable on long runs. A zero `interval` disables it.
    pub fn with_compaction(mut self, interval: u64, lag: usize) -> Self {
        self.progress = self.progress.with_compaction(interval, lag);
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

    /// The replica's delivery progress and compaction state: watermarks,
    /// pruned and catch-up counters.
    pub fn progress(&self) -> &DeliveryProgress {
        &self.progress
    }

    /// The replica's ordering-layer checkpoint (the baselines have no
    /// per-message ballots; the checkpoint ballot slot carries bottom).
    pub fn checkpoint(&self) -> Checkpoint {
        self.progress.checkpoint(Ballot::BOTTOM, self.clock())
    }

    /// Whether this replica is its group's (consensus) leader.
    pub fn is_leader(&self) -> bool {
        self.paxos.is_leader()
    }

    /// The baseline behaviour this replica implements.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The phase of a message at this replica, if known.
    pub fn phase_of(&self, m: MsgId) -> Option<Phase> {
        self.records.get(&m).map(|r| r.phase)
    }

    /// The replica's timestamp-assignment clock.
    pub fn clock(&self) -> u64 {
        self.delivery.clock()
    }

    fn leader_of(&self, g: GroupId) -> Option<ProcessId> {
        self.leaders.get(&g).copied()
    }

    fn record_entry(&mut self, msg: &AppMessage) -> &mut BaselineRecord {
        self.records
            .get_or_insert_with(msg.id, || BaselineRecord::new(msg.clone()))
    }

    /// Applies `change` to `id`'s record, if resident, and moves the
    /// record's delivery-queue entries from the keys it had to the keys it
    /// has now. Every change to a record's phase, timestamps or delivered
    /// flag goes through here.
    fn update<T>(&mut self, id: MsgId, change: impl FnOnce(&mut BaselineRecord) -> T) -> Option<T> {
        let record = self.records.get_mut(&id)?;
        let (was_pending, was_candidate) = record.queue_keys();
        let out = change(record);
        let (pending, candidate) = record.queue_keys();
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
        Some(out)
    }
}

impl Node for BaselineReplica {
    type Msg = BaselineMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_event_into(&mut self, _now: Duration, event: Event<BaselineMsg>, out: &mut Outbox) {
        match event {
            Event::Multicast(msg) => self.handle_multicast(msg, true, out),
            Event::BecomeLeader => {
                let step = self.paxos.campaign();
                self.convert_paxos(step, out);
            }
            Event::Restart => self.handle_restart(out),
            Event::Timer {
                id: CATCHUP_TIMER, ..
            } => self.send_catchup_request(out),
            Event::Message { from, msg } => match msg {
                BaselineMsg::Multicast { msg } => self.handle_multicast(msg, true, out),
                BaselineMsg::Propose {
                    msg,
                    group,
                    local_ts,
                } => {
                    // Make sure we are ordering the message ourselves too (the
                    // client's MULTICAST to us may still be in flight or lost).
                    self.handle_multicast(msg.clone(), false, out);
                    self.note_proposal(&msg, group, local_ts, out);
                }
                BaselineMsg::Confirm { msg_id, group } => self.note_confirm(msg_id, group, out),
                BaselineMsg::Deliver { msg_id, global_ts } => {
                    self.deliver_one(msg_id, global_ts, out)
                }
                BaselineMsg::Paxos(m) => {
                    let step = self.paxos.handle(from, m);
                    self.convert_paxos(step, out);
                }
                BaselineMsg::StableReport {
                    group,
                    delivered_gts,
                } => self.stable(
                    |p, role| p.stable_report(role, from, group, delivered_gts),
                    out,
                ),
                BaselineMsg::StableAdvance { watermarks } => {
                    self.stable(|p, role| p.stable_advance(role, &watermarks), out)
                }
                BaselineMsg::CatchupRequest {
                    group, next_slot, ..
                } => self.handle_catchup_request(from, group, next_slot, out),
                BaselineMsg::StateTransfer {
                    checkpoint,
                    frontier,
                    log,
                } => self.handle_state_transfer(checkpoint, frontier, log, out),
                BaselineMsg::ClientReply { .. } => {}
            },
            _ => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}
