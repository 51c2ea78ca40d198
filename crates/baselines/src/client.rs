//! The baselines' client: it submits each message to the destination
//! groups' leaders, takes the first delivery reply and retries on a timeout.

use std::time::Duration;

use wbam_types::{
    Action, AppMessage, ClusterConfig, DeliveredMessage, Event, MsgId, Node, ProcessId, RecordMap,
    TimerId,
};

use crate::messages::BaselineMsg;
use crate::Outbox;

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

    fn send_to_leaders(&self, msg: &AppMessage, out: &mut Outbox) {
        let leaders = msg.dest.iter().filter_map(|g| self.cluster.group(g));
        let multicast = BaselineMsg::Multicast { msg: msg.clone() };
        Action::send_to_all(out, leaders.map(|gc| gc.initial_leader()), multicast);
    }

    /// Sends `msg` to its leaders and arms its retry timer.
    fn submit(&self, msg: &AppMessage, out: &mut Outbox) {
        self.send_to_leaders(msg, out);
        out.push(Action::SetTimer {
            id: TimerId(msg.id.seq),
            delay: self.retry_timeout,
        });
    }
}

impl Node for BaselineClient {
    type Msg = BaselineMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_event_into(&mut self, _now: Duration, event: Event<BaselineMsg>, out: &mut Outbox) {
        match event {
            Event::Multicast(msg) => {
                self.submit(&msg, out);
                self.pending.insert(msg.id, msg);
            }
            Event::Timer { id, .. } => {
                // The inverse of the timer id: this client's own sequence
                // number.
                if let Some(msg) = self.pending.get(&MsgId::new(self.id, id.0)) {
                    self.submit(msg, out);
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
                    out.push(Action::CancelTimer(TimerId(msg_id.seq)));
                    out.push(Action::Deliver(DeliveredMessage::with_timestamp(
                        msg, global_ts,
                    )));
                }
            }
            // A restarted client lost its retry timers (and any replies that
            // arrived while it was down): re-send every in-flight multicast
            // and re-arm its timer. Replicas answer duplicates of delivered
            // messages with a fresh reply.
            Event::Restart => {
                for msg in self.pending.values() {
                    self.submit(msg, out);
                }
            }
            _ => {}
        }
    }
}
