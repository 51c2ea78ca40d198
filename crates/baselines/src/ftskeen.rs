//! End-to-end checks of fault-tolerant Skeen's δ counts and ordering on the
//! simulator ([`Mode::FtSkeen`](crate::Mode::FtSkeen) documents the counts).

#[cfg(test)]
mod tests {
    use std::time::Duration;
    use wbam_simnet::{LatencyModel, SimConfig, Simulation};
    use wbam_types::{
        AppMessage, ClusterConfig, Destination, GroupId, MsgId, Payload, ProcessId, SiteId,
    };

    use crate::{BaselineClient, BaselineMsg, BaselineReplica, Mode};

    fn build_sim(delta_ms: u64) -> (Simulation<BaselineMsg>, ClusterConfig) {
        let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
        let mut sim = Simulation::new(SimConfig {
            latency: LatencyModel::constant(Duration::from_millis(delta_ms)),
            ..SimConfig::default()
        });
        for gc in cluster.groups() {
            for member in gc.members() {
                sim.add_replica(
                    Box::new(BaselineReplica::new(
                        *member,
                        gc.id(),
                        cluster.clone(),
                        Mode::FtSkeen,
                    )),
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
