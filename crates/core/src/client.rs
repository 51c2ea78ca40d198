//! A multicasting client for the white-box protocol.
//!
//! Clients are ordinary processes that submit application messages for
//! multicast (Figure 4, lines 1–2) and, in a practical deployment, wait for a
//! reply from the first replica that delivers the message. The client here
//! implements the paper's message-recovery rule for multicaster failures from
//! the other side: if no reply arrives within a timeout it re-sends the
//! `MULTICAST` message, falling back to contacting *every* member of each
//! destination group so that it also discovers new leaders (§IV, "Normal
//! operation": "the multicasting process can always send the message to all
//! the processes in a given group to find out who its leader is").

use std::collections::BTreeMap;
use std::time::Duration;

use wbam_types::{
    Action, AppMessage, DeliveredMessage, Event, GroupId, MsgId, Node, ProcessId, RecordMap,
    TimerId, Timestamp,
};

use crate::config::ClientConfig;
use crate::messages::WhiteBoxMsg;
use crate::Outbox;

/// State of one in-flight multicast at the client.
#[derive(Debug, Clone)]
struct PendingMulticast {
    msg: AppMessage,
    attempts: u32,
}

/// A client process that multicasts application messages and tracks replies.
pub struct MulticastClient {
    config: ClientConfig,
    cur_leader: BTreeMap<GroupId, ProcessId>,
    next_seq: u64,
    pending: RecordMap<PendingMulticast>,
}

impl MulticastClient {
    /// Creates a client from its configuration.
    pub fn new(config: ClientConfig) -> Self {
        let cur_leader = config.cluster.initial_leaders();
        MulticastClient {
            config,
            cur_leader,
            next_seq: 0,
            pending: RecordMap::new(),
        }
    }

    /// The next message identifier this client will use.
    pub fn next_msg_id(&self) -> MsgId {
        MsgId::new(self.config.id, self.next_seq)
    }

    /// Number of multicasts still awaiting a reply.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    fn timer_for(msg_id: MsgId) -> TimerId {
        TimerId(msg_id.seq)
    }

    fn send_to_leaders(&self, msg: &AppMessage, out: &mut Outbox) {
        let leaders = msg.dest.iter().filter_map(|g| self.cur_leader.get(&g));
        let multicast = WhiteBoxMsg::Multicast { msg: msg.clone() };
        Action::send_to_all(out, leaders.copied(), multicast);
    }

    fn send_to_all_members(&self, msg: &AppMessage, out: &mut Outbox) {
        let groups = msg.dest.iter().filter_map(|g| self.config.cluster.group(g));
        let members = groups.flat_map(|gc| gc.members().iter().copied());
        Action::send_to_all(out, members, WhiteBoxMsg::Multicast { msg: msg.clone() });
    }

    fn handle_submit(&mut self, msg: AppMessage, out: &mut Outbox) {
        // Keep the per-client sequence counter ahead of any externally chosen id.
        self.next_seq = self.next_seq.max(msg.id.seq + 1);
        self.send_to_leaders(&msg, out);
        out.push(Action::SetTimer {
            id: Self::timer_for(msg.id),
            delay: self.config.retry_timeout,
        });
        self.pending
            .insert(msg.id, PendingMulticast { msg, attempts: 0 });
    }

    fn handle_reply(&mut self, msg_id: MsgId, global_ts: Timestamp, out: &mut Outbox) {
        let Some(pending) = self.pending.remove(&msg_id) else {
            return;
        };
        out.push(Action::CancelTimer(Self::timer_for(msg_id)));
        // Surface the completion to the application driving this client.
        out.push(Action::Deliver(DeliveredMessage::with_timestamp(
            pending.msg,
            global_ts,
        )));
    }

    fn handle_retry(&mut self, timer: TimerId, out: &mut Outbox) {
        // The inverse of `timer_for`: this client's own sequence number.
        let msg_id = MsgId::new(self.config.id, timer.0);
        let Some(pending) = self.pending.get_mut(&msg_id) else {
            return;
        };
        pending.attempts += 1;
        let (attempts, msg) = (pending.attempts, pending.msg.clone());
        if attempts == 1 {
            // First retry: the leaders may simply not have received it.
            self.send_to_leaders(&msg, out);
        } else {
            // Later retries: contact every member to survive leader changes.
            self.send_to_all_members(&msg, out);
        }
        out.push(Action::SetTimer {
            id: timer,
            delay: self.config.retry_timeout,
        });
    }
}

impl Node for MulticastClient {
    type Msg = WhiteBoxMsg;

    fn id(&self) -> ProcessId {
        self.config.id
    }

    fn on_event_into(&mut self, _now: Duration, event: Event<WhiteBoxMsg>, out: &mut Outbox) {
        match event {
            Event::Multicast(msg) => self.handle_submit(msg, out),
            Event::Timer { id, .. } => self.handle_retry(id, out),
            Event::Message {
                msg:
                    WhiteBoxMsg::ClientReply {
                        msg_id, global_ts, ..
                    },
                ..
            } => self.handle_reply(msg_id, global_ts, out),
            // Clients ignore protocol traffic that is not addressed to them
            // semantically (e.g. a stray ACCEPT caused by misconfiguration).
            Event::Message { .. } => {}
            // A restarted client lost its armed retry timers; re-arm one per
            // in-flight multicast (and re-send straight away — the original
            // sends may have died with the crash).
            Event::Restart => {
                for pending in self.pending.values() {
                    self.send_to_leaders(&pending.msg, out);
                    out.push(Action::SetTimer {
                        id: Self::timer_for(pending.msg.id),
                        delay: self.config.retry_timeout,
                    });
                }
            }
            Event::Init | Event::BecomeLeader => {}
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

    fn client() -> MulticastClient {
        MulticastClient::new(
            ClientConfig::new(ProcessId(6), cluster())
                .with_retry_timeout(Duration::from_millis(100)),
        )
    }

    fn msg(seq: u64, groups: &[u32]) -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId(6), seq),
            Destination::new(groups.iter().map(|g| GroupId(*g))).unwrap(),
            Payload::from("x"),
        )
    }

    #[test]
    fn submit_sends_to_destination_leaders() {
        let mut c = client();
        let actions = c.on_event(Duration::ZERO, Event::Multicast(msg(0, &[0, 1])));
        let targets: Vec<_> = actions
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
        assert_eq!(c.pending_count(), 1);
        assert_eq!(c.next_msg_id(), MsgId::new(ProcessId(6), 1));
    }

    #[test]
    fn reply_completes_the_multicast_as_one_delivery() {
        let mut c = client();
        c.on_event(Duration::from_millis(5), Event::Multicast(msg(0, &[0])));
        let actions = c.on_event(
            Duration::from_millis(17),
            Event::message(
                ProcessId(0),
                WhiteBoxMsg::ClientReply {
                    msg_id: MsgId::new(ProcessId(6), 0),
                    group: GroupId(0),
                    global_ts: Timestamp::new(1, GroupId(0)),
                },
            ),
        );
        let delivered: Vec<_> = actions.iter().filter_map(Action::as_delivery).collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].msg, msg(0, &[0]));
        assert_eq!(delivered[0].global_ts, Some(Timestamp::new(1, GroupId(0))));
        assert!(actions.contains(&Action::CancelTimer(TimerId(0))));
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn duplicate_replies_are_ignored() {
        let mut c = client();
        c.on_event(Duration::ZERO, Event::Multicast(msg(0, &[0])));
        let reply = WhiteBoxMsg::ClientReply {
            msg_id: MsgId::new(ProcessId(6), 0),
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
    fn first_retry_targets_leaders_then_falls_back_to_all_members() {
        let mut c = client();
        c.on_event(Duration::ZERO, Event::Multicast(msg(0, &[1])));
        let timer = TimerId(0);
        let retry1 = c.on_event(
            Duration::from_millis(100),
            Event::Timer {
                id: timer,
                now: Duration::from_millis(100),
            },
        );
        let targets1: Vec<_> = retry1
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets1, vec![ProcessId(3)]);
        let retry2 = c.on_event(
            Duration::from_millis(200),
            Event::Timer {
                id: timer,
                now: Duration::from_millis(200),
            },
        );
        let targets2: Vec<_> = retry2
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(targets2, vec![ProcessId(3), ProcessId(4), ProcessId(5)]);
    }

    #[test]
    fn retry_timer_for_completed_message_is_a_no_op() {
        let mut c = client();
        c.on_event(Duration::ZERO, Event::Multicast(msg(0, &[0])));
        c.on_event(
            Duration::from_millis(1),
            Event::message(
                ProcessId(0),
                WhiteBoxMsg::ClientReply {
                    msg_id: MsgId::new(ProcessId(6), 0),
                    group: GroupId(0),
                    global_ts: Timestamp::new(1, GroupId(0)),
                },
            ),
        );
        let actions = c.on_event(
            Duration::from_millis(100),
            Event::Timer {
                id: TimerId(0),
                now: Duration::from_millis(100),
            },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn unrelated_protocol_messages_are_ignored() {
        let mut c = client();
        let actions = c.on_event(
            Duration::ZERO,
            Event::message(
                ProcessId(0),
                WhiteBoxMsg::Heartbeat {
                    ballot: wbam_types::Ballot::BOTTOM,
                },
            ),
        );
        assert!(actions.is_empty());
    }
}
