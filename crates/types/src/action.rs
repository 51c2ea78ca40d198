//! Actions emitted by sans-IO protocol state machines.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::ids::ProcessId;
use crate::message::AppMessage;
use crate::node::TimerId;
use crate::timestamp::Timestamp;

/// A record of an application message delivered to the local application.
///
/// `deliver(m)` in the paper. The global timestamp is included when the
/// protocol knows it (all protocols in this workspace except the client-side
/// stubs do), which lets tests check the ordering property directly against
/// timestamps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveredMessage {
    /// The delivered application message.
    pub msg: AppMessage,
    /// The message's global timestamp, if exposed by the protocol.
    pub global_ts: Option<Timestamp>,
}

impl DeliveredMessage {
    /// Creates a delivery record with a known global timestamp.
    pub fn with_timestamp(msg: AppMessage, global_ts: Timestamp) -> Self {
        DeliveredMessage {
            msg,
            global_ts: Some(global_ts),
        }
    }

    /// Creates a delivery record without timestamp information.
    pub fn without_timestamp(msg: AppMessage) -> Self {
        DeliveredMessage {
            msg,
            global_ts: None,
        }
    }
}

/// An output action of a protocol node, parameterised by the protocol's wire
/// message type `M`.
///
/// The runtime executing the node is responsible for carrying actions out:
/// sending messages over reliable FIFO channels, arming timers and handing
/// deliveries to the application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action<M> {
    /// Send `msg` to process `to` over the reliable FIFO channel to it.
    Send {
        /// Destination process.
        to: ProcessId,
        /// Protocol message to send.
        msg: M,
    },
    /// Deliver an application message to the local application.
    Deliver(DeliveredMessage),
    /// Arm (or re-arm) a timer: the runtime must produce a
    /// [`Event::Timer`](crate::Event::Timer) with the same id after `delay`.
    SetTimer {
        /// Timer identifier, scoped to this node.
        id: TimerId,
        /// Delay until the timer fires.
        delay: Duration,
    },
    /// Cancel a previously armed timer if it has not fired yet.
    CancelTimer(TimerId),
}

impl<M> Action<M> {
    /// Convenient constructor for send actions.
    pub fn send(to: ProcessId, msg: M) -> Self {
        Action::Send { to, msg }
    }

    /// Appends to `out` a send of the same message to every process in
    /// `recipients`: a clone for each but the last, which takes `msg`
    /// itself. Used for the "send to dest(m)" broadcasts of the protocols.
    pub fn send_to_all<I>(out: &mut Vec<Self>, recipients: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
        M: Clone,
    {
        let mut recipients = recipients.into_iter();
        let Some(mut to) = recipients.next() else {
            return;
        };
        for next in recipients {
            out.push(Action::send(to, msg.clone()));
            to = next;
        }
        out.push(Action::send(to, msg));
    }

    /// Whether this action is a delivery.
    pub fn is_delivery(&self) -> bool {
        matches!(self, Action::Deliver(_))
    }

    /// Returns the delivery record if this action is a delivery.
    pub fn as_delivery(&self) -> Option<&DeliveredMessage> {
        match self {
            Action::Deliver(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GroupId, MsgId};
    use crate::message::{Destination, Payload};

    fn sample_msg() -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId(1), 0),
            Destination::single(GroupId(0)),
            Payload::from("x"),
        )
    }

    #[test]
    fn send_to_all_clones_message() {
        let mut actions = vec![Action::CancelTimer(TimerId(1))];
        Action::send_to_all(
            &mut actions,
            vec![ProcessId(0), ProcessId(1), ProcessId(2)],
            7,
        );
        assert_eq!(actions.len(), 4);
        assert_eq!(actions[0], Action::CancelTimer(TimerId(1)), "appends");
        for (i, a) in actions[1..].iter().enumerate() {
            match a {
                Action::Send { to, msg } => {
                    assert_eq!(*to, ProcessId(i as u32));
                    assert_eq!(*msg, 7);
                }
                _ => panic!("expected send"),
            }
        }
        let mut none: Vec<Action<u32>> = Vec::new();
        Action::send_to_all(&mut none, Vec::new(), 7);
        assert!(none.is_empty());
    }

    #[test]
    fn delivery_accessors() {
        let d = DeliveredMessage::with_timestamp(sample_msg(), Timestamp::new(3, GroupId(0)));
        let a: Action<u32> = Action::Deliver(d.clone());
        assert!(a.is_delivery());
        assert_eq!(a.as_delivery(), Some(&d));
        let s: Action<u32> = Action::send(ProcessId(0), 1);
        assert!(!s.is_delivery());
        assert_eq!(s.as_delivery(), None);
    }

    #[test]
    fn delivered_message_without_timestamp() {
        let d = DeliveredMessage::without_timestamp(sample_msg());
        assert_eq!(d.global_ts, None);
    }

    #[test]
    fn timer_actions_round_trip_through_serde() {
        let a: Action<String> = Action::SetTimer {
            id: TimerId(4),
            delay: Duration::from_millis(10),
        };
        let json = serde_json::to_string(&a).unwrap();
        let back: Action<String> = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
