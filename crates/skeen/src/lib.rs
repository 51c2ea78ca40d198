//! Skeen's atomic multicast protocol for singleton, reliable groups
//! (Figure 1 of the paper).
//!
//! Skeen's protocol is the folklore basis of most genuine atomic multicast
//! protocols, including the white-box protocol of this workspace. It assumes
//! that every group consists of a single process that never fails. Messages
//! are ordered by logical timestamps computed as in Lamport clocks: each
//! destination proposes a local timestamp, the global timestamp of a message
//! is the maximum of the proposals, and messages are delivered in global
//! timestamp order.
//!
//! The crate exists for three reasons:
//!
//! * it documents the baseline the paper builds on (and the 2δ collision-free
//!   latency that fault tolerance has to preserve as much as possible);
//! * it exhibits the *convoy effect* of Figure 2 — a committed message can be
//!   blocked for up to an extra 2δ by a concurrently arriving conflicting
//!   message — which the `fig2_convoy` benchmark reproduces;
//! * its delivery order is used as a reference in differential tests.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use wbam_skeen::{SkeenMsg, SkeenProcess};
//! use wbam_types::{
//!     Action, AppMessage, Destination, Event, GroupId, MsgId, Node, Payload, ProcessId,
//! };
//!
//! // Two singleton groups: g0 = p0, g1 = p1.
//! let groups = vec![(GroupId(0), ProcessId(0)), (GroupId(1), ProcessId(1))];
//! let mut p0 = SkeenProcess::new(ProcessId(0), GroupId(0), groups.clone());
//! let msg = AppMessage::new(
//!     MsgId::new(ProcessId(9), 0),
//!     Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
//!     Payload::from("hi"),
//! );
//! // p0 receives the MULTICAST and proposes a local timestamp to both groups.
//! let actions = p0.on_event(
//!     Duration::ZERO,
//!     Event::message(ProcessId(9), SkeenMsg::Multicast { msg }),
//! );
//! assert_eq!(actions.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use wbam_types::{
    Action, AppMessage, DeliveredMessage, DeliveryQueue, Event, GroupId, MsgId, Node, Phase,
    ProcessId, RecordMap, Timestamp,
};

/// Where a handler appends its actions: the runtime's outbox for the round.
type Outbox = Vec<Action<SkeenMsg>>;

/// Wire messages of Skeen's protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SkeenMsg {
    /// `MULTICAST(m)`: submit `m` to its destination processes (Figure 1, line 6).
    Multicast {
        /// The application message.
        msg: AppMessage,
    },
    /// `PROPOSE(m, g, lts)`: group `g` proposes local timestamp `lts` for `m`
    /// (Figure 1, line 12).
    Propose {
        /// The application message.
        msg: AppMessage,
        /// The proposing group.
        group: GroupId,
        /// The proposed local timestamp.
        local_ts: Timestamp,
    },
    /// Reply to the original sender once the message is delivered, used by
    /// closed-loop clients (not part of Figure 1).
    ClientReply {
        /// The delivered message.
        msg_id: MsgId,
        /// The group of the replying process.
        group: GroupId,
        /// The global timestamp the message was delivered with.
        global_ts: Timestamp,
    },
}

/// Per-message state at a Skeen process.
#[derive(Debug, Clone)]
struct SkeenRecord {
    msg: AppMessage,
    phase: Phase,
    local_ts: Timestamp,
    global_ts: Timestamp,
    proposals: BTreeMap<GroupId, Timestamp>,
}

impl SkeenRecord {
    fn new(msg: AppMessage) -> Self {
        SkeenRecord {
            msg,
            phase: Phase::Start,
            local_ts: Timestamp::BOTTOM,
            global_ts: Timestamp::BOTTOM,
            proposals: BTreeMap::new(),
        }
    }
}

/// One process of Skeen's protocol, playing a whole (singleton) group.
///
/// The process is a sans-IO [`Node`]; drive it with a simulator or runtime.
pub struct SkeenProcess {
    id: ProcessId,
    group: GroupId,
    /// The single member of every group, in the system configuration.
    group_processes: BTreeMap<GroupId, ProcessId>,
    records: RecordMap<SkeenRecord>,
    /// The logical clock and the delivery-condition index: `PROPOSED` local
    /// timestamps and committed, undelivered global timestamps.
    delivery: DeliveryQueue,
    delivered_count: u64,
}

impl SkeenProcess {
    /// Creates a Skeen process playing group `group` under identity `id`.
    ///
    /// `groups` lists every singleton group in the system with its process.
    pub fn new<I>(id: ProcessId, group: GroupId, groups: I) -> Self
    where
        I: IntoIterator<Item = (GroupId, ProcessId)>,
    {
        SkeenProcess {
            id,
            group,
            group_processes: groups.into_iter().collect(),
            records: RecordMap::new(),
            delivery: DeliveryQueue::new(),
            delivered_count: 0,
        }
    }

    /// The process's logical clock.
    pub fn clock(&self) -> u64 {
        self.delivery.clock()
    }

    /// Number of application messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// The phase of a message at this process, if known.
    pub fn phase_of(&self, m: MsgId) -> Option<Phase> {
        self.records.get(&m).map(|r| r.phase)
    }

    /// The global timestamp assigned to a message, once committed.
    pub fn global_ts_of(&self, m: MsgId) -> Option<Timestamp> {
        self.records
            .get(&m)
            .filter(|r| r.phase.is_committed())
            .map(|r| r.global_ts)
    }

    /// Figure 1, lines 8–12: assign a local timestamp and send `PROPOSE` to
    /// all destinations.
    fn handle_multicast(&mut self, msg: AppMessage, out: &mut Outbox) {
        if !msg.dest.contains(self.group) {
            return;
        }
        let group = self.group;
        let record = self
            .records
            .get_or_insert_with(msg.id, || SkeenRecord::new(msg.clone()));
        if record.phase == Phase::Start {
            record.local_ts = self.delivery.propose(group);
            record.phase = Phase::Proposed;
            self.delivery.pend(record.local_ts, msg.id);
        }
        let propose = SkeenMsg::Propose {
            msg: record.msg.clone(),
            group,
            local_ts: record.local_ts,
        };
        let processes = msg.dest.iter().filter_map(|g| self.group_processes.get(&g));
        Action::send_to_all(out, processes.copied(), propose);
    }

    /// Figure 1, lines 13–19: once proposals from all destination groups are
    /// known, commit the message and deliver everything that is unblocked.
    fn handle_propose(
        &mut self,
        msg: AppMessage,
        group: GroupId,
        local_ts: Timestamp,
        out: &mut Outbox,
    ) {
        if !msg.dest.contains(self.group) {
            return;
        }
        let record = self
            .records
            .get_or_insert_with(msg.id, || SkeenRecord::new(msg.clone()));
        record.proposals.insert(group, local_ts);
        let complete = msg.dest.iter().all(|g| record.proposals.contains_key(&g));
        if !complete || record.phase == Phase::Committed {
            return;
        }
        // Lines 14–16.
        let gts = Timestamp::global_of(record.proposals.values().copied());
        if record.phase == Phase::Proposed {
            self.delivery.unpend(record.local_ts, msg.id);
        }
        record.global_ts = gts;
        record.phase = Phase::Committed;
        self.delivery.commit(gts, msg.id);
        self.delivery.observe(gts.time());
        // Line 17: deliver committed messages not blocked by pending proposals.
        self.try_deliver(out);
    }

    fn try_deliver(&mut self, out: &mut Outbox) {
        for (gts, id) in self.delivery.pop_deliverable(|_| true) {
            let record = &self.records[&id];
            self.delivered_count += 1;
            out.push(Action::Deliver(DeliveredMessage::with_timestamp(
                record.msg.clone(),
                gts,
            )));
            let sender = record.msg.id.sender;
            if !self.group_processes.values().any(|p| *p == sender) {
                out.push(Action::send(
                    sender,
                    SkeenMsg::ClientReply {
                        msg_id: id,
                        group: self.group,
                        global_ts: gts,
                    },
                ));
            }
        }
    }
}

impl Node for SkeenProcess {
    type Msg = SkeenMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_event_into(&mut self, _now: Duration, event: Event<SkeenMsg>, out: &mut Outbox) {
        match event {
            Event::Multicast(msg) => self.handle_multicast(msg, out),
            Event::Message { msg, .. } => match msg {
                SkeenMsg::Multicast { msg } => self.handle_multicast(msg, out),
                SkeenMsg::Propose {
                    msg,
                    group,
                    local_ts,
                } => self.handle_propose(msg, group, local_ts, out),
                SkeenMsg::ClientReply { .. } => {}
            },
            _ => {}
        }
    }
}

/// A client for Skeen's protocol: sends `MULTICAST` to the (single) process of
/// every destination group and records replies. Skeen's setting assumes
/// reliable processes and channels, so the client does not retry.
pub struct SkeenClient {
    id: ProcessId,
    group_processes: BTreeMap<GroupId, ProcessId>,
    pending: RecordMap<AppMessage>,
}

impl SkeenClient {
    /// Creates a client.
    pub fn new<I>(id: ProcessId, groups: I) -> Self
    where
        I: IntoIterator<Item = (GroupId, ProcessId)>,
    {
        SkeenClient {
            id,
            group_processes: groups.into_iter().collect(),
            pending: RecordMap::new(),
        }
    }

    /// Number of multicasts still awaiting their first reply.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

impl Node for SkeenClient {
    type Msg = SkeenMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_event_into(&mut self, _now: Duration, event: Event<SkeenMsg>, out: &mut Outbox) {
        match event {
            Event::Multicast(msg) => {
                let processes = msg.dest.iter().filter_map(|g| self.group_processes.get(&g));
                let multicast = SkeenMsg::Multicast { msg: msg.clone() };
                Action::send_to_all(out, processes.copied(), multicast);
                self.pending.insert(msg.id, msg);
            }
            Event::Message {
                msg:
                    SkeenMsg::ClientReply {
                        msg_id, global_ts, ..
                    },
                ..
            } => {
                if let Some(msg) = self.pending.remove(&msg_id) {
                    // Surface completion to the application driving the client.
                    out.push(Action::Deliver(DeliveredMessage::with_timestamp(
                        msg, global_ts,
                    )));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_types::{Destination, Payload};

    fn groups() -> Vec<(GroupId, ProcessId)> {
        vec![
            (GroupId(0), ProcessId(0)),
            (GroupId(1), ProcessId(1)),
            (GroupId(2), ProcessId(2)),
        ]
    }

    fn msg(seq: u64, dest: &[u32]) -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId(9), seq),
            Destination::new(dest.iter().map(|g| GroupId(*g))).unwrap(),
            Payload::from("x"),
        )
    }

    fn p(id: u32) -> SkeenProcess {
        SkeenProcess::new(ProcessId(id), GroupId(id), groups())
    }

    /// Handles `m` from `from` and returns the protocol traffic: the
    /// delivery replies to the client (process 9) are dropped.
    fn deliver_msg(proc_: &mut SkeenProcess, from: u32, m: SkeenMsg) -> Vec<Action<SkeenMsg>> {
        let mut actions = proc_.on_event(Duration::ZERO, Event::message(ProcessId(from), m));
        actions.retain(|a| {
            !matches!(a, Action::Send { to, msg: SkeenMsg::ClientReply { .. } } if *to == ProcessId(9))
        });
        actions
    }

    #[test]
    fn multicast_assigns_increasing_local_timestamps() {
        let mut p0 = p(0);
        deliver_msg(
            &mut p0,
            9,
            SkeenMsg::Multicast {
                msg: msg(0, &[0, 1]),
            },
        );
        deliver_msg(&mut p0, 9, SkeenMsg::Multicast { msg: msg(1, &[0]) });
        assert_eq!(p0.clock(), 2);
        assert_eq!(
            p0.phase_of(MsgId::new(ProcessId(9), 0)),
            Some(Phase::Proposed)
        );
        assert_eq!(
            p0.phase_of(MsgId::new(ProcessId(9), 1)),
            Some(Phase::Proposed)
        );
    }

    #[test]
    fn duplicate_multicast_keeps_same_timestamp() {
        let mut p0 = p(0);
        let m = msg(0, &[0, 1]);
        let first = deliver_msg(&mut p0, 9, SkeenMsg::Multicast { msg: m.clone() });
        let second = deliver_msg(&mut p0, 9, SkeenMsg::Multicast { msg: m });
        assert_eq!(p0.clock(), 1);
        let ts_of = |actions: &[Action<SkeenMsg>]| {
            actions.iter().find_map(|a| match a {
                Action::Send {
                    msg: SkeenMsg::Propose { local_ts, .. },
                    ..
                } => Some(*local_ts),
                _ => None,
            })
        };
        assert_eq!(ts_of(&first), ts_of(&second));
    }

    #[test]
    fn single_destination_message_commits_on_own_proposal() {
        let mut p0 = p(0);
        let m = msg(0, &[0]);
        let actions = deliver_msg(&mut p0, 9, SkeenMsg::Multicast { msg: m.clone() });
        // The propose goes to itself only.
        assert_eq!(actions.len(), 1);
        let propose = actions
            .into_iter()
            .find_map(|a| match a {
                Action::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .unwrap();
        let actions = deliver_msg(&mut p0, 0, propose);
        assert!(actions.iter().any(Action::is_delivery));
        assert_eq!(p0.delivered_count(), 1);
        assert_eq!(p0.global_ts_of(m.id), Some(Timestamp::new(1, GroupId(0))));
    }

    #[test]
    fn global_timestamp_is_max_of_proposals() {
        let mut p0 = p(0);
        let m = msg(0, &[0, 1]);
        deliver_msg(&mut p0, 9, SkeenMsg::Multicast { msg: m.clone() });
        deliver_msg(
            &mut p0,
            0,
            SkeenMsg::Propose {
                msg: m.clone(),
                group: GroupId(0),
                local_ts: Timestamp::new(1, GroupId(0)),
            },
        );
        let actions = deliver_msg(
            &mut p0,
            1,
            SkeenMsg::Propose {
                msg: m.clone(),
                group: GroupId(1),
                local_ts: Timestamp::new(7, GroupId(1)),
            },
        );
        assert!(actions.iter().any(Action::is_delivery));
        assert_eq!(p0.global_ts_of(m.id), Some(Timestamp::new(7, GroupId(1))));
        // Line 15: the clock advances to the global timestamp.
        assert_eq!(p0.clock(), 7);
    }

    #[test]
    fn committed_message_blocked_by_pending_lower_timestamp() {
        let mut p0 = p(0);
        let blocked = msg(0, &[0, 1]);
        let blocker = msg(1, &[0, 1]);
        // The blocker keeps a *lower* local timestamp than the global
        // timestamp of the blocked message (the convoy effect of Figure 2).
        deliver_msg(
            &mut p0,
            9,
            SkeenMsg::Multicast {
                msg: blocker.clone(),
            },
        );
        deliver_msg(
            &mut p0,
            9,
            SkeenMsg::Multicast {
                msg: blocked.clone(),
            },
        );
        deliver_msg(
            &mut p0,
            0,
            SkeenMsg::Propose {
                msg: blocked.clone(),
                group: GroupId(0),
                local_ts: Timestamp::new(2, GroupId(0)),
            },
        );
        let actions = deliver_msg(
            &mut p0,
            1,
            SkeenMsg::Propose {
                msg: blocked.clone(),
                group: GroupId(1),
                local_ts: Timestamp::new(9, GroupId(1)),
            },
        );
        // Committed but not delivered: `blocker` is still pending with lts (1, g0).
        assert_eq!(p0.phase_of(blocked.id), Some(Phase::Committed));
        assert!(!actions.iter().any(Action::is_delivery));
        // Now complete the blocker; both deliver, in timestamp order.
        deliver_msg(
            &mut p0,
            0,
            SkeenMsg::Propose {
                msg: blocker.clone(),
                group: GroupId(0),
                local_ts: Timestamp::new(1, GroupId(0)),
            },
        );
        let actions = deliver_msg(
            &mut p0,
            1,
            SkeenMsg::Propose {
                msg: blocker.clone(),
                group: GroupId(1),
                local_ts: Timestamp::new(1, GroupId(1)),
            },
        );
        let delivered: Vec<MsgId> = actions
            .iter()
            .filter_map(|a| a.as_delivery().map(|d| d.msg.id))
            .collect();
        assert_eq!(delivered, vec![blocker.id, blocked.id]);
    }

    #[test]
    fn messages_not_addressed_to_us_are_ignored() {
        let mut p2 = p(2);
        let actions = deliver_msg(
            &mut p2,
            9,
            SkeenMsg::Multicast {
                msg: msg(0, &[0, 1]),
            },
        );
        assert!(actions.is_empty());
        assert_eq!(p2.clock(), 0);
    }

    #[test]
    fn client_surfaces_the_reply_as_a_delivery() {
        let mut c = SkeenClient::new(ProcessId(9), groups());
        let m = msg(0, &[0, 1]);
        let actions = c.on_event(Duration::from_millis(10), Event::Multicast(m.clone()));
        assert_eq!(actions.len(), 2);
        assert_eq!(c.pending_count(), 1);
        let reply = SkeenMsg::ClientReply {
            msg_id: m.id,
            group: GroupId(0),
            global_ts: Timestamp::new(3, GroupId(1)),
        };
        let actions = c.on_event(
            Duration::from_millis(35),
            Event::message(ProcessId(0), reply),
        );
        let delivered: Vec<_> = actions.iter().filter_map(Action::as_delivery).collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].msg, m);
        assert_eq!(delivered[0].global_ts, Some(Timestamp::new(3, GroupId(1))));
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn duplicate_client_replies_are_ignored() {
        let mut c = SkeenClient::new(ProcessId(9), groups());
        let m = msg(0, &[0]);
        c.on_event(Duration::ZERO, Event::Multicast(m.clone()));
        let reply = SkeenMsg::ClientReply {
            msg_id: m.id,
            group: GroupId(0),
            global_ts: Timestamp::new(1, GroupId(0)),
        };
        let first = c.on_event(
            Duration::from_millis(1),
            Event::message(ProcessId(0), reply.clone()),
        );
        assert_eq!(first.iter().filter(|a| a.is_delivery()).count(), 1);
        let actions = c.on_event(
            Duration::from_millis(2),
            Event::message(ProcessId(1), reply),
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn client_reply_notification_enabled_by_default() {
        let mut p0 = SkeenProcess::new(ProcessId(0), GroupId(0), groups());
        let m = msg(0, &[0]);
        deliver_msg(&mut p0, 9, SkeenMsg::Multicast { msg: m.clone() });
        let propose = SkeenMsg::Propose {
            msg: m,
            group: GroupId(0),
            local_ts: Timestamp::new(1, GroupId(0)),
        };
        let actions = p0.on_event(Duration::ZERO, Event::message(ProcessId(0), propose));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to, msg: SkeenMsg::ClientReply { .. } } if *to == ProcessId(9)
        )));
    }
}
