//! Baseline genuine atomic multicast protocols used in the paper's evaluation
//! (§VI, "Competitor protocols"):
//!
//! * [`Mode::FtSkeen`] — the classical **fault-tolerant Skeen** protocol
//!   [Fritzke et al., 2001]: each group is replicated with black-box consensus
//!   (our `wbam-consensus` multi-Paxos). Every Skeen step at a group — the
//!   assignment of a local timestamp, and the recording of the global
//!   timestamp with the accompanying clock advance — is first agreed by the
//!   group through a consensus instance. Collision-free latency **6δ**,
//!   failure-free latency ~**12δ**.
//! * [`Mode::FastCast`] — **FastCast** [Coelho et al., DSN 2017]: the same
//!   structure, but the leader *speculatively* forwards its local timestamp to
//!   the other destination groups before consensus on it finishes, and
//!   speculatively starts the second consensus; leaders exchange confirmations
//!   once the first consensus completes. Collision-free latency **4δ**,
//!   failure-free latency ~**8δ**.
//!
//! Both baselines share the wire message type [`BaselineMsg`] and the
//! replicated command type [`Command`], and are sans-IO [`Node`](wbam_types::Node)s runnable on
//! the simulator or the threaded runtime, so the three protocols (these two
//! plus the white-box protocol in `wbam-core`) can be compared on an identical
//! substrate — this is what the Figure 7 / Figure 8 benchmarks do.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
mod fastcast;
mod ftskeen;
pub mod messages;
pub mod replica;

pub use client::BaselineClient;
pub use messages::{BaselineMsg, Command};
pub use replica::{BaselineReplica, Mode};

/// Where a handler appends its actions: the runtime's outbox for the round.
type Outbox = Vec<wbam_types::Action<BaselineMsg>>;

/// The replica, its client and its messages under the path they had while
/// one file held them all; the benchmark imports them from here.
pub mod common {
    pub use crate::{BaselineClient, BaselineMsg, BaselineReplica, Command, Mode};

    // These tests drive the replica and the client through this path.
    #[cfg(test)]
    mod tests {
        use std::time::Duration;

        use super::*;
        use wbam_types::{
            Action, AppMessage, ClusterConfig, Destination, Event, GroupId, MsgId, Node, Payload,
            ProcessId, TimerId, Timestamp,
        };

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
            let mut leader =
                BaselineReplica::new(ProcessId(0), GroupId(0), cluster(), Mode::FtSkeen);
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
            let mut leader =
                BaselineReplica::new(ProcessId(0), GroupId(0), cluster(), Mode::FastCast);
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
            let mut follower =
                BaselineReplica::new(ProcessId(1), GroupId(0), cluster(), Mode::FtSkeen);
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
            let mut leader =
                BaselineReplica::new(ProcessId(0), GroupId(0), cluster(), Mode::FtSkeen);
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

        /// A follower that catches up across a compacted log never applies
        /// the pruned commands, so it takes the leader's clock from the
        /// checkpoint: elected later, it proposes above everything its group
        /// delivered.
        #[test]
        fn a_caught_up_follower_s_clock_is_at_least_the_checkpoint_s() {
            let replica = |p| {
                BaselineReplica::new(ProcessId(p), GroupId(0), cluster(), Mode::FtSkeen)
                    .with_compaction(4, 0)
            };
            let mut leader = replica(0);
            for seq in 0..3 {
                let multicast = BaselineMsg::Multicast {
                    msg: msg(seq, &[0]),
                };
                leader.on_event(Duration::ZERO, Event::message(ProcessId(6), multicast));
            }
            let request = BaselineMsg::CatchupRequest {
                group: GroupId(0),
                delivered_gts: Timestamp::BOTTOM,
                next_slot: 0,
            };
            let transfer = leader
                .on_event(Duration::ZERO, Event::message(ProcessId(1), request))
                .into_iter()
                .find_map(|a| match a {
                    Action::Send { msg, .. } => Some(msg),
                    _ => None,
                })
                .expect("a state transfer");
            let mut follower = replica(1);
            follower.on_event(Duration::ZERO, Event::message(ProcessId(0), transfer));
            assert_eq!(leader.checkpoint().clock, 3);
            assert!(follower.clock() >= 3, "clock {}", follower.clock());
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
                    id: TimerId(3),
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
}
