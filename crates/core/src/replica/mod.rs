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
//!
//! # Layout
//!
//! The module is cut along Figure 4's seams (DESIGN.md, "The replica's
//! seams"): `normal` (lines 1–34), `recovery` (lines 35–68, the only code
//! that installs state wholesale), `election` (heartbeats, timers, restart
//! and the role transitions) and `stable` (the `STABLE` exchange). This file
//! holds the state and the dispatcher, which gates nothing: every handler
//! keeps its status checks where Figure 4 puts them.

mod election;
mod normal;
mod recovery;
mod stable;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use wbam_types::{
    AppMessage, Ballot, Checkpoint, ConfigError, DeliveryProgress, DeliveryQueue, Event, GroupId,
    MsgId, Node, Phase, ProcessId, RecordMap, TimerId, TimerMap, Timestamp,
};

use crate::config::ReplicaConfig;
use crate::messages::WhiteBoxMsg;
use crate::record::MessageRecord;
use crate::Outbox;
use recovery::Recovery;

/// Timer used by a leader to send heartbeats to its followers.
const HEARTBEAT_TIMER: TimerId = TimerId(1);
/// Timer used by a follower to monitor its leader's liveness.
const ELECTION_TIMER: TimerId = TimerId(2);

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

/// A replica of the white-box atomic multicast protocol.
///
/// See the [crate-level documentation](crate) for an overview and
/// `examples/quickstart.rs` for an end-to-end run.
pub struct WhiteBoxReplica {
    config: ReplicaConfig,
    status: Status,
    /// The ballot this replica last synchronised with (`cballot`).
    cballot: Ballot,
    /// The highest ballot this replica has joined (`ballot`); `cballot ≤ ballot`.
    ballot: Ballot,
    /// Current best guess of the leader of every group (`Cur_leader`).
    cur_leader: BTreeMap<GroupId, ProcessId>,
    /// Per-message protocol state.
    records: RecordMap<MessageRecord>,
    /// Members of this replica's group, in configuration order.
    group_members: Vec<ProcessId>,
    /// Quorum size of every group.
    quorum_sizes: BTreeMap<GroupId, usize>,
    /// In-progress recovery, if this replica is establishing a ballot.
    recovery: Option<Recovery>,
    /// Retry timers: timer id → message, and message → timer id.
    retry_timer_msgs: TimerMap<MsgId>,
    retry_timer_of: RecordMap<TimerId>,
    next_retry_timer: u64,
    /// Last time we heard from our group's leader (heartbeat or any message).
    last_leader_activity: Duration,
    /// The logical clock and the delivery-condition index (Figure 4 line
    /// 21): the local timestamps of records whose phase is `PROPOSED` or
    /// `ACCEPTED`, and the global timestamps of committed-but-undelivered
    /// records.
    delivery: DeliveryQueue,
    /// `max_delivered_gts`, the delivered filter that answers duplicates of
    /// pruned records, and the `STABLE` exchange.
    progress: DeliveryProgress,
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
            cballot: initial_ballot,
            ballot: initial_ballot,
            cur_leader,
            records: RecordMap::new(),
            group_members,
            quorum_sizes,
            recovery: None,
            retry_timer_msgs: TimerMap::default(),
            retry_timer_of: RecordMap::new(),
            next_retry_timer: 0,
            last_leader_activity: Duration::ZERO,
            delivery: DeliveryQueue::new(),
            progress: DeliveryProgress::new(config.id, group)
                .with_compaction(config.compaction_interval, config.compaction_lag),
            last_restart_scan: 0,
            pruned_dropped: BTreeSet::new(),
            config,
        })
    }

    /// The replica's current role.
    pub fn status(&self) -> Status {
        self.status
    }

    /// The ballot the replica is currently synchronised with.
    pub fn current_ballot(&self) -> Ballot {
        self.cballot
    }

    /// The replica's logical clock (Figure 3), kept by the delivery queue.
    pub fn clock(&self) -> u64 {
        self.delivery.clock()
    }

    /// The phase of a message at this replica, if it has heard of it.
    pub fn phase_of(&self, m: MsgId) -> Option<Phase> {
        self.records.get(&m).map(|r| r.phase)
    }

    /// The global timestamp of a message at this replica, if committed.
    pub fn global_ts_of(&self, m: MsgId) -> Option<Timestamp> {
        self.records
            .get(&m)
            .filter(|r| r.phase.is_committed())
            .map(|r| r.global_ts)
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

    /// The replica's delivery progress and compaction state: watermarks,
    /// pruned and state-transfer counters.
    pub fn progress(&self) -> &DeliveryProgress {
        &self.progress
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

    /// The replica's current ordering-layer checkpoint (see
    /// [`DeliveryProgress::checkpoint`]).
    pub fn checkpoint(&self) -> Checkpoint {
        self.progress.checkpoint(self.cballot, self.clock())
    }

    /// Whether this replica currently acts as its group's leader.
    pub fn is_leader(&self) -> bool {
        self.status == Status::Leader
    }

    fn own_group(&self) -> GroupId {
        self.config.group
    }

    fn own_quorum(&self) -> usize {
        self.quorum_sizes[&self.own_group()]
    }

    /// Processes of every destination group of `m`.
    fn destination_processes<'a>(
        &'a self,
        msg: &'a AppMessage,
    ) -> impl Iterator<Item = ProcessId> + 'a {
        let groups = msg.dest.iter().filter_map(|g| self.config.cluster.group(g));
        groups.flat_map(|gc| gc.members().iter().copied())
    }

    /// Current leaders of the destination groups of `m`.
    fn destination_leaders<'a>(
        &'a self,
        msg: &'a AppMessage,
    ) -> impl Iterator<Item = ProcessId> + 'a {
        msg.dest
            .iter()
            .filter_map(|g| self.cur_leader.get(&g).copied())
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

    /// A full `DELIVER` to a peer that became a holder of its record later
    /// in the round goes by reference (the holder rule, as in
    /// `try_deliver`).
    fn fold_sends(&self, to: ProcessId, msgs: &mut [WhiteBoxMsg]) {
        self.refer_delivers(to, msgs);
    }

    fn on_event_into(&mut self, now: Duration, event: Event<WhiteBoxMsg>, out: &mut Outbox) {
        match event {
            Event::Init => self.handle_init(now, out),
            Event::Multicast(msg) => self.handle_multicast(None, msg, out),
            Event::BecomeLeader => self.start_recovery(out),
            Event::Restart => self.handle_restart(now, out),
            Event::Timer { id, now } => match id {
                HEARTBEAT_TIMER => self.handle_heartbeat_timer(out),
                ELECTION_TIMER => self.handle_election_timer(now, out),
                other => self.handle_retry_timer(other, out),
            },
            // Only heartbeats feed the leader-monitoring oracle (see
            // `handle_heartbeat` for the ballot gate). Counting arbitrary
            // traffic from `cur_leader` as a sign of life is unsound: two
            // replicas stuck in `Recovering` keep exchanging per-message retry
            // MULTICASTs, each pacifying the other's election timer while
            // neither can make progress — a deadlock found by the schedule
            // explorer.
            Event::Message { from, msg } => match msg {
                WhiteBoxMsg::Multicast { msg } => self.handle_multicast(Some(from), msg, out),
                WhiteBoxMsg::Accept {
                    msg,
                    group,
                    ballot,
                    local_ts,
                } => self.handle_accept(msg, group, ballot, local_ts, out),
                WhiteBoxMsg::AcceptAck {
                    msg_id,
                    group,
                    ballots,
                } => self.handle_accept_ack(from, msg_id, group, ballots, out),
                WhiteBoxMsg::Deliver {
                    msg,
                    ballot,
                    local_ts,
                    global_ts,
                } => self.handle_deliver(msg, ballot, local_ts, global_ts, out),
                WhiteBoxMsg::NewLeader { ballot } => self.handle_new_leader(now, from, ballot, out),
                WhiteBoxMsg::NewLeaderAck {
                    ballot,
                    cballot,
                    checkpoint,
                    snapshot,
                } => self.handle_new_leader_ack(from, ballot, cballot, *checkpoint, snapshot, out),
                WhiteBoxMsg::NewState {
                    ballot,
                    checkpoint,
                    snapshot,
                } => self.handle_new_state(now, from, ballot, *checkpoint, snapshot, out),
                WhiteBoxMsg::NewStateAck { ballot } => self.handle_new_state_ack(from, ballot, out),
                WhiteBoxMsg::Heartbeat { ballot } => self.handle_heartbeat(now, ballot, out),
                WhiteBoxMsg::StableReport {
                    group,
                    delivered_gts,
                } => self.stable(
                    |p, role| p.stable_report(role, from, group, delivered_gts),
                    out,
                ),
                WhiteBoxMsg::StableAdvance { watermarks } => {
                    self.stable(|p, role| p.stable_advance(role, &watermarks), out)
                }
                WhiteBoxMsg::StablePruned { msg_id, watermarks } => {
                    self.handle_stable_pruned(msg_id, watermarks, out)
                }
                WhiteBoxMsg::ClientReply { .. } => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::messages::{BallotVector, StateSnapshot};
    use wbam_types::{Action, ClusterConfig, Destination, Payload};

    fn cluster() -> ClusterConfig {
        ClusterConfig::builder().groups(2, 3).clients(1).build()
    }

    fn replica(id: u32, group: u32) -> WhiteBoxReplica {
        let cfg =
            ReplicaConfig::new(ProcessId(id), GroupId(group), cluster()).without_auto_election();
        WhiteBoxReplica::new(cfg)
    }

    fn app_msg(seq: u64, groups: &[u32]) -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId(6), seq),
            Destination::new(groups.iter().map(|g| GroupId(*g))).unwrap(),
            Payload::from("payload"),
        )
    }

    /// Handles `msg` from `from` and returns the protocol traffic: the
    /// delivery replies to the client are dropped.
    fn drive(
        replica: &mut WhiteBoxReplica,
        from: ProcessId,
        msg: WhiteBoxMsg,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = replica.on_event(Duration::ZERO, Event::message(from, msg));
        actions.retain(|a| {
            !matches!(a, Action::Send { to, msg: WhiteBoxMsg::ClientReply { .. } } if *to == ProcessId(6))
        });
        actions
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
                checkpoint: Box::default(),
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
        assert_eq!(leader.progress().delivered_count(), 1);
        assert_eq!(
            leader.progress().max_delivered_gts(),
            Timestamp::new(1, GroupId(0))
        );
    }

    #[test]
    fn deliver_is_idempotent_via_max_delivered_gts() {
        let mut follower = replica(1, 0);
        let m = app_msg(0, &[0]);
        let deliver = WhiteBoxMsg::Deliver {
            msg: m.clone().into(),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
            global_ts: Timestamp::new(1, GroupId(0)),
        };
        let first = drive(&mut follower, ProcessId(0), deliver.clone());
        assert_eq!(first.iter().filter(|a| a.is_delivery()).count(), 1);
        let second = drive(&mut follower, ProcessId(0), deliver);
        assert_eq!(second.iter().filter(|a| a.is_delivery()).count(), 0);
        assert_eq!(follower.progress().delivered_count(), 1);
    }

    #[test]
    fn deliver_from_wrong_ballot_is_ignored() {
        let mut follower = replica(1, 0);
        let m = app_msg(0, &[0]);
        let deliver = WhiteBoxMsg::Deliver {
            msg: m.into(),
            ballot: Ballot::new(9, ProcessId(2)),
            local_ts: Timestamp::new(1, GroupId(0)),
            global_ts: Timestamp::new(1, GroupId(0)),
        };
        let actions = drive(&mut follower, ProcessId(2), deliver);
        assert!(actions.is_empty());
        assert_eq!(follower.progress().delivered_count(), 0);
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
                msg: m.into(),
                ballot: Ballot::new(1, ProcessId(0)),
                local_ts: Timestamp::new(i + 1, GroupId(0)),
                global_ts: Timestamp::new(i + 1, GroupId(0)),
            };
            drive(&mut follower, ProcessId(0), deliver);
        }
        assert_eq!(follower.progress().delivered_count(), 50_000);
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
            msg: m.clone().into(),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
            global_ts: Timestamp::new(1, GroupId(0)),
        };
        drive(&mut p2, ProcessId(0), deliver);
        assert_eq!(p2.progress().delivered_count(), 1);

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
            msg: m.into(),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(1, GroupId(0)),
            global_ts: Timestamp::new(1, GroupId(0)),
        };
        let actions = follower.on_event(Duration::ZERO, Event::message(ProcessId(0), deliver));
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

    /// A normal-case message to a follower of group 0 that joined ballot
    /// `(2, p2)`: `kind` picks the variant, `seq` the message (0–3 were
    /// delivered before the join), `time` its timestamps and `round` its
    /// ballot.
    fn normal_case(kind: u8, seq: u64, time: u64, round: u8) -> (ProcessId, WhiteBoxMsg) {
        let ballot = [
            Ballot::new(1, ProcessId(0)),
            Ballot::new(2, ProcessId(2)),
            Ballot::new(3, ProcessId(0)),
        ][usize::from(round)];
        let m = app_msg(seq, if seq % 2 == 0 { &[0] } else { &[0, 1] });
        let at = Timestamp::new(time, GroupId(0));
        let ballots = BallotVector::from([(GroupId(0), ballot)]);
        let watermarks = BTreeMap::from([(GroupId(0), at)]);
        let from = ballot.leader().expect("ballot has a leader");
        let msg = match kind {
            0 => WhiteBoxMsg::Multicast { msg: m },
            1 => WhiteBoxMsg::Accept {
                msg: m,
                group: GroupId(0),
                ballot,
                local_ts: at,
            },
            2 => {
                return (
                    ProcessId(3),
                    WhiteBoxMsg::Accept {
                        msg: m,
                        group: GroupId(1),
                        ballot: Ballot::new(1, ProcessId(3)),
                        local_ts: Timestamp::new(time, GroupId(1)),
                    },
                )
            }
            3 => WhiteBoxMsg::AcceptAck {
                msg_id: m.id,
                group: GroupId(0),
                ballots,
            },
            4 => WhiteBoxMsg::Deliver {
                msg: m.into(),
                ballot,
                local_ts: at,
                global_ts: at,
            },
            5 => WhiteBoxMsg::StableReport {
                group: GroupId(0),
                delivered_gts: at,
            },
            6 => WhiteBoxMsg::StableAdvance { watermarks },
            _ => WhiteBoxMsg::StablePruned {
                msg_id: m.id,
                watermarks,
            },
        };
        (from, msg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// While a replica is `Recovering`, no normal-case message —
        /// `MULTICAST`, `ACCEPT`, `ACCEPT_ACK`, `DELIVER` or `STABLE_*`,
        /// from any ballot — moves its delivery progress or delivers
        /// anything: only the install that ends recovery may.
        #[test]
        fn recovering_replica_delivers_nothing(
            ops in prop::collection::vec((0u8..8, 0u64..12, (1u64..16, 0u8..3)), 1..60),
        ) {
            let cfg = ReplicaConfig::new(ProcessId(1), GroupId(0), cluster())
                .without_auto_election()
                .with_compaction(2, 1);
            let mut replica = WhiteBoxReplica::new(cfg);
            for seq in 0..4 {
                let (_, deliver) = normal_case(4, seq, seq + 1, 0);
                drive(&mut replica, ProcessId(0), deliver);
            }
            let joined = Ballot::new(2, ProcessId(2));
            drive(&mut replica, ProcessId(2), WhiteBoxMsg::NewLeader { ballot: joined });
            prop_assert_eq!(replica.status(), Status::Recovering);
            let progress = (replica.progress().max_delivered_gts(), replica.progress().delivered_count());
            prop_assert_eq!(progress, (Timestamp::new(4, GroupId(0)), 4));
            for (kind, seq, (time, round)) in ops {
                let (from, msg) = normal_case(kind, seq, time, round);
                let actions = replica.on_event(Duration::ZERO, Event::message(from, msg));
                prop_assert!(!actions.iter().any(Action::is_delivery));
                prop_assert_eq!(replica.status(), Status::Recovering);
                prop_assert_eq!(
                    (replica.progress().max_delivered_gts(), replica.progress().delivered_count()),
                    progress
                );
            }
        }
    }
}
