//! Fault-injection integration tests for the white-box protocol: leader
//! crashes and recoveries under load, checked against the paper's invariants
//! (Figure 6) using protocol-message traces recorded by the simulator.

use std::collections::BTreeMap;
use std::time::Duration;

use wbam::core::invariants::{
    check_deliver_agreement, check_deliver_local_ts_per_group, check_delivery_order,
    check_unique_proposals, SentMessage,
};
use wbam::core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
use wbam::simnet::{LatencyModel, SimConfig, Simulation};
use wbam::types::{
    AppMessage, ClusterConfig, Destination, GroupId, MsgId, Payload, ProcessId, Timestamp,
};

/// Builds a white-box cluster with trace recording enabled.
fn build_traced_sim(cluster: &ClusterConfig, auto_election: bool) -> Simulation<WhiteBoxMsg> {
    let mut sim = Simulation::new(SimConfig {
        latency: LatencyModel::constant(Duration::from_millis(2)),
        record_trace: true,
        seed: 9,
        ..SimConfig::default()
    });
    for gc in cluster.groups() {
        for member in gc.members() {
            let mut cfg = ReplicaConfig::new(*member, gc.id(), cluster.clone())
                .with_retry_timeout(Duration::from_millis(50));
            if auto_election {
                cfg = cfg
                    .with_election_timeouts(Duration::from_millis(20), Duration::from_millis(60));
            } else {
                cfg = cfg.without_auto_election();
            }
            sim.add_replica(
                Box::new(WhiteBoxReplica::new(cfg)),
                gc.id(),
                cluster.site_of(*member),
            );
        }
    }
    for client in cluster.clients() {
        sim.add_client(Box::new(MulticastClient::new(
            ClientConfig::new(*client, cluster.clone())
                .with_retry_timeout(Duration::from_millis(200)),
        )));
    }
    sim
}

fn msg(cluster: &ClusterConfig, seq: u64, dest: &[u32]) -> AppMessage {
    AppMessage::new(
        MsgId::new(cluster.clients()[0], seq),
        Destination::new(dest.iter().map(|g| GroupId(*g))).unwrap(),
        Payload::zeros(20),
    )
}

fn check_all_invariants(sim: &Simulation<WhiteBoxMsg>, cluster: &ClusterConfig) {
    let trace: Vec<SentMessage> = sim
        .trace()
        .iter()
        .map(|t| SentMessage {
            from: t.from,
            to: t.to,
            msg: t.msg.clone(),
        })
        .collect();
    check_unique_proposals(&trace).expect("Invariant 1 violated");
    check_deliver_agreement(&trace).expect("Invariant 3b/4 violated");
    check_deliver_local_ts_per_group(&trace, |p| cluster.group_of(p))
        .expect("Invariant 3a violated");

    // Integrity and per-process global-timestamp order on actual deliveries.
    let mut sequences: BTreeMap<ProcessId, Vec<(MsgId, Timestamp)>> = BTreeMap::new();
    for rec in sim.deliveries() {
        if rec.group.is_none() {
            continue;
        }
        sequences
            .entry(rec.process)
            .or_default()
            .push((rec.msg_id, rec.global_ts.unwrap_or(Timestamp::BOTTOM)));
    }
    check_delivery_order(&sequences).expect("delivery order violated");
}

#[test]
fn failure_free_run_preserves_all_figure6_invariants() {
    let cluster = ClusterConfig::builder().groups(3, 3).clients(1).build();
    let mut sim = build_traced_sim(&cluster, false);
    let client = cluster.clients()[0];
    for seq in 0..30u64 {
        let dest: Vec<u32> = match seq % 3 {
            0 => vec![0, 1],
            1 => vec![1, 2],
            _ => vec![0, 1, 2],
        };
        sim.schedule_multicast(
            Duration::from_micros(seq * 700),
            client,
            msg(&cluster, seq, &dest),
        );
    }
    sim.run_until_quiescent(Duration::from_secs(60));
    check_all_invariants(&sim, &cluster);
    // Termination: everything delivered everywhere it should be.
    let metrics = sim.metrics();
    for seq in 0..30u64 {
        assert!(metrics.is_partially_delivered(MsgId::new(cluster.clients()[0], seq)));
    }
}

#[test]
fn leader_crash_with_explicit_takeover_recovers_pending_messages() {
    let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
    let mut sim = build_traced_sim(&cluster, false);
    let client = cluster.clients()[0];
    // Submit messages right up to (and across) the crash point.
    for seq in 0..20u64 {
        sim.schedule_multicast(
            Duration::from_millis(seq),
            client,
            msg(&cluster, seq, &[0, 1]),
        );
    }
    // Crash group 0's leader mid-stream; its follower p1 takes over shortly
    // after (standing in for the leader-election oracle).
    sim.schedule_crash(Duration::from_millis(7), ProcessId(0));
    sim.schedule_become_leader(Duration::from_millis(30), ProcessId(1));
    sim.run_until_quiescent(Duration::from_secs(120));

    check_all_invariants(&sim, &cluster);
    let metrics = sim.metrics();
    // Termination for correct processes: every message is eventually delivered
    // by the surviving replicas of both destination groups.
    let mut delivered = 0;
    for seq in 0..20u64 {
        let id = MsgId::new(client, seq);
        let g0 = metrics.first_delivery_in_group(id, GroupId(0)).is_some();
        let g1 = metrics.first_delivery_in_group(id, GroupId(1)).is_some();
        if g0 && g1 {
            delivered += 1;
        }
    }
    assert_eq!(delivered, 20, "all messages must survive the leader crash");
    // The surviving members of group 0 agree on their order.
    let p1 = metrics.delivery_order_at(ProcessId(1));
    let p2 = metrics.delivery_order_at(ProcessId(2));
    let common = p1.len().min(p2.len());
    assert_eq!(&p1[..common], &p2[..common]);
}

#[test]
fn automatic_leader_election_recovers_without_external_trigger() {
    let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
    let mut sim = build_traced_sim(&cluster, true);
    let client = cluster.clients()[0];
    for seq in 0..5u64 {
        sim.schedule_multicast(
            Duration::from_millis(seq * 2),
            client,
            msg(&cluster, seq, &[0, 1]),
        );
    }
    // Crash g0's leader; the built-in heartbeat/timeout election should elect
    // a follower without any external BecomeLeader injection.
    sim.schedule_crash(Duration::from_millis(20), ProcessId(0));
    // Messages submitted after the crash.
    for seq in 5..10u64 {
        sim.schedule_multicast(
            Duration::from_millis(400 + seq * 2),
            client,
            msg(&cluster, seq, &[0, 1]),
        );
    }
    sim.run_until_quiescent(Duration::from_secs(120));
    check_all_invariants(&sim, &cluster);
    let metrics = sim.metrics();
    for seq in 5..10u64 {
        let id = MsgId::new(client, seq);
        assert!(
            metrics.is_partially_delivered(id),
            "post-crash message {id} must be delivered after automatic election"
        );
    }
}

#[test]
fn follower_crash_does_not_disturb_the_protocol() {
    let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
    let mut sim = build_traced_sim(&cluster, false);
    let client = cluster.clients()[0];
    // Crash one follower in each group up front; quorums of 2 remain.
    sim.schedule_crash(Duration::from_millis(1), ProcessId(2));
    sim.schedule_crash(Duration::from_millis(1), ProcessId(5));
    for seq in 0..15u64 {
        sim.schedule_multicast(
            Duration::from_millis(2 + seq),
            client,
            msg(&cluster, seq, &[0, 1]),
        );
    }
    sim.run_until_quiescent(Duration::from_secs(60));
    check_all_invariants(&sim, &cluster);
    let metrics = sim.metrics();
    for seq in 0..15u64 {
        assert!(metrics.is_partially_delivered(MsgId::new(client, seq)));
    }
}

#[test]
fn client_crash_after_partial_send_is_recovered_by_retry() {
    // The client sends MULTICAST to only one of the two destination groups and
    // then "crashes" (we simulate the partial send by injecting the multicast
    // directly at one leader). The leader's retry mechanism (Figure 4 line 32)
    // must complete the multicast.
    let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
    let mut sim = Simulation::new(SimConfig {
        latency: LatencyModel::constant(Duration::from_millis(2)),
        record_trace: true,
        ..SimConfig::default()
    });
    for gc in cluster.groups() {
        for member in gc.members() {
            let cfg = ReplicaConfig::new(*member, gc.id(), cluster.clone())
                .without_auto_election()
                .with_retry_timeout(Duration::from_millis(40));
            sim.add_replica(
                Box::new(WhiteBoxReplica::new(cfg)),
                gc.id(),
                cluster.site_of(*member),
            );
        }
    }
    let m = msg(&cluster, 0, &[0, 1]);
    // Only group 0's leader hears about the message.
    sim.send_external(
        Duration::ZERO,
        cluster.clients()[0],
        ProcessId(0),
        WhiteBoxMsg::Multicast { msg: m.clone() },
    );
    sim.run_until_quiescent(Duration::from_secs(30));
    let metrics = sim.metrics();
    assert!(
        metrics.first_delivery_in_group(m.id, GroupId(0)).is_some()
            && metrics.first_delivery_in_group(m.id, GroupId(1)).is_some(),
        "retry must complete the partially-sent multicast"
    );
    check_all_invariants(&sim, &cluster);
}
