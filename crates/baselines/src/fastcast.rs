//! End-to-end checks of FastCast's δ counts and ordering on the simulator
//! ([`Mode::FastCast`](crate::Mode::FastCast) documents the counts).

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
                        Mode::FastCast,
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
    }

    #[test]
    fn collision_free_latency_is_four_delta_at_leaders() {
        let delta = Duration::from_millis(10);
        let (mut sim, cluster) = build_sim(10);
        let client = cluster.clients()[0];
        let m = msg(&cluster, 0, &[0, 1]);
        sim.schedule_multicast(Duration::ZERO, client, m.clone());
        sim.run_until_quiescent(Duration::from_secs(10));
        let metrics = sim.metrics();
        let latency = metrics.latency(m.id).expect("delivered");
        assert_eq!(latency, delta * 4, "collision-free latency must be 4δ");
    }

    #[test]
    fn fastcast_is_two_delta_faster_than_ft_skeen() {
        // Differential check against the FT-Skeen module on an identical run.
        let delta = Duration::from_millis(10);
        let run = |fast: bool| -> Duration {
            let cluster = ClusterConfig::builder().groups(3, 3).clients(1).build();
            let mut sim = Simulation::new(SimConfig {
                latency: LatencyModel::constant(delta),
                ..SimConfig::default()
            });
            for gc in cluster.groups() {
                for member in gc.members() {
                    let node: Box<dyn wbam_types::Node<Msg = BaselineMsg>> = if fast {
                        Box::new(BaselineReplica::new(
                            *member,
                            gc.id(),
                            cluster.clone(),
                            Mode::FastCast,
                        ))
                    } else {
                        Box::new(BaselineReplica::new(
                            *member,
                            gc.id(),
                            cluster.clone(),
                            Mode::FtSkeen,
                        ))
                    };
                    sim.add_replica(node, gc.id(), SiteId(0));
                }
            }
            let client = cluster.clients()[0];
            sim.add_client(Box::new(BaselineClient::new(
                client,
                cluster.clone(),
                Duration::from_secs(10),
            )));
            let m = AppMessage::new(
                MsgId::new(client, 0),
                Destination::new(vec![GroupId(0), GroupId(1), GroupId(2)]).unwrap(),
                Payload::zeros(20),
            );
            sim.schedule_multicast(Duration::ZERO, client, m.clone());
            sim.run_until_quiescent(Duration::from_secs(10));
            sim.metrics().latency(m.id).expect("delivered")
        };
        let fastcast = run(true);
        let ftskeen = run(false);
        assert_eq!(ftskeen.saturating_sub(fastcast), delta * 2);
    }

    #[test]
    fn conflicting_messages_agree_on_order_across_groups() {
        let (mut sim, cluster) = build_sim(1);
        let client = cluster.clients()[0];
        for seq in 0..6 {
            let m = msg(&cluster, seq, &[0, 1]);
            sim.schedule_multicast(Duration::from_micros(seq * 50), client, m);
        }
        sim.run_until_quiescent(Duration::from_secs(30));
        let metrics = sim.metrics();
        let reference = metrics.delivery_order_at(ProcessId(0));
        assert_eq!(reference.len(), 6);
        for p in [1, 2, 3, 4, 5] {
            assert_eq!(metrics.delivery_order_at(ProcessId(p)), reference);
        }
    }
}
