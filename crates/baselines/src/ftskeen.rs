//! Fault-tolerant Skeen over black-box consensus (Fritzke et al., 2001).
//!
//! Each group is a multi-Paxos replicated state machine. Ordering a message
//! addressed to `k` groups costs, per destination group and in the absence of
//! collisions: one message delay for the client's `MULTICAST`, one consensus
//! round trip (2δ) to persist the local timestamp, one message delay for the
//! leaders' `PROPOSE` exchange, and a second consensus round trip (2δ) to
//! persist the global timestamp — **6δ** in total. Because the group's clock
//! only advances past a message's global timestamp after the second consensus,
//! the failure-free latency degrades to roughly **12δ** under concurrency
//! (paper §VI).

use wbam_types::{ClusterConfig, GroupId, ProcessId};

use crate::replica::{BaselineReplica, Mode};

/// A replica of the fault-tolerant Skeen protocol.
///
/// This is a thin wrapper that fixes [`Mode::FtSkeen`] on the shared
/// [`BaselineReplica`]; see that type for the full API.
pub type FtSkeenReplica = BaselineReplica;

/// Creates a fault-tolerant Skeen replica.
pub fn ft_skeen_replica(id: ProcessId, group: GroupId, cluster: ClusterConfig) -> FtSkeenReplica {
    BaselineReplica::new(id, group, cluster, Mode::FtSkeen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wbam_simnet::{LatencyModel, SimConfig, Simulation};
    use wbam_types::{AppMessage, Destination, GroupId, MsgId, Payload, SiteId};

    use crate::{BaselineClient, BaselineMsg};

    fn build_sim(delta_ms: u64) -> (Simulation<BaselineMsg>, ClusterConfig) {
        let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
        let mut sim = Simulation::new(SimConfig {
            latency: LatencyModel::constant(Duration::from_millis(delta_ms)),
            ..SimConfig::default()
        });
        for gc in cluster.groups() {
            for member in gc.members() {
                sim.add_replica(
                    Box::new(ft_skeen_replica(*member, gc.id(), cluster.clone())),
                    gc.id(),
                    SiteId(0),
                );
            }
        }
        for client in cluster.clients() {
            sim.add_client(Box::new(BaselineClient::new(
                *client,
                cluster.clone(),
                Duration::from_secs(10),
            )));
        }
        (sim, cluster)
    }

    fn msg(cluster: &ClusterConfig, seq: u64, dest: &[u32]) -> AppMessage {
        AppMessage::new(
            MsgId::new(cluster.clients()[0], seq),
            Destination::new(dest.iter().map(|g| GroupId(*g))).unwrap(),
            Payload::zeros(20),
        )
    }

    #[test]
    fn end_to_end_delivery_in_both_groups() {
        let (mut sim, cluster) = build_sim(1);
        let client = cluster.clients()[0];
        let m = msg(&cluster, 0, &[0, 1]);
        sim.schedule_multicast(Duration::ZERO, client, m.clone());
        sim.run_until_quiescent(Duration::from_secs(10));
        let metrics = sim.metrics();
        assert!(metrics.is_partially_delivered(m.id));
        // Every replica of both groups eventually delivers.
        for gc in cluster.groups() {
            for member in gc.members() {
                assert_eq!(metrics.delivery_order_at(*member), vec![m.id]);
            }
        }
    }

    #[test]
    fn collision_free_latency_is_six_delta_at_leaders() {
        let delta = Duration::from_millis(10);
        let (mut sim, cluster) = build_sim(10);
        let client = cluster.clients()[0];
        let m = msg(&cluster, 0, &[0, 1]);
        sim.schedule_multicast(Duration::ZERO, client, m.clone());
        sim.run_until_quiescent(Duration::from_secs(10));
        let metrics = sim.metrics();
        let latency = metrics.latency(m.id).expect("delivered");
        // 6δ, with a little slack for the follower-side DELIVER propagation
        // not being on the critical path (first delivery in each group).
        assert_eq!(latency, delta * 6, "collision-free latency must be 6δ");
    }

    #[test]
    fn disjoint_messages_are_ordered_independently() {
        let (mut sim, cluster) = build_sim(1);
        let client = cluster.clients()[0];
        let m0 = msg(&cluster, 0, &[0]);
        let m1 = msg(&cluster, 1, &[1]);
        sim.schedule_multicast(Duration::ZERO, client, m0.clone());
        sim.schedule_multicast(Duration::ZERO, client, m1.clone());
        sim.run_until_quiescent(Duration::from_secs(10));
        let metrics = sim.metrics();
        assert!(metrics.is_partially_delivered(m0.id));
        assert!(metrics.is_partially_delivered(m1.id));
        // Group 0's replicas never see m1 and vice versa (genuineness).
        assert_eq!(metrics.delivery_order_at(ProcessId(0)), vec![m0.id]);
        assert_eq!(metrics.delivery_order_at(ProcessId(3)), vec![m1.id]);
    }

    #[test]
    fn conflicting_messages_are_delivered_in_the_same_order_everywhere() {
        let (mut sim, cluster) = build_sim(1);
        let client = cluster.clients()[0];
        let mut msgs = Vec::new();
        for seq in 0..8 {
            let m = msg(&cluster, seq, &[0, 1]);
            sim.schedule_multicast(Duration::from_micros(seq * 100), client, m.clone());
            msgs.push(m);
        }
        sim.run_until_quiescent(Duration::from_secs(30));
        let metrics = sim.metrics();
        let reference = metrics.delivery_order_at(ProcessId(0));
        assert_eq!(reference.len(), 8);
        for p in [1, 2, 3, 4, 5] {
            assert_eq!(
                metrics.delivery_order_at(ProcessId(p)),
                reference,
                "replica p{p} disagrees on the delivery order"
            );
        }
    }
}
