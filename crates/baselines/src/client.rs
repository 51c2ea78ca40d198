//! The baselines' client: it submits each message to the destination
//! groups' leaders, takes the first delivery reply and retries on a timeout.

use std::time::Duration;

use wbam_types::{
    Action, AppMessage, ClusterConfig, DeliveredMessage, Event, MsgId, Node, ProcessId, RecordMap,
    TimerId,
};

use crate::messages::BaselineMsg;

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
                    id: TimerId(msg.id.seq),
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
                        Action::CancelTimer(TimerId(msg_id.seq)),
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
                        id: TimerId(id.seq),
                        delay: self.retry_timeout,
                    });
                }
                actions
            }
            _ => Vec::new(),
        }
    }
}
