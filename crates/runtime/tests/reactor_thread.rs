//! Structural gate for "one reactor thread per process": a spawned `TcpNode`
//! adds exactly one OS thread, and `shutdown` takes it away again. This file
//! holds a single test so that nothing else in the process starts or stops
//! threads while `/proc/self/task` is being counted.

#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::time::Duration;

use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
use wbam_runtime::TcpNode;
use wbam_types::{AppMessage, ClusterConfig, Destination, GroupId, MsgId, Payload};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn a_tcp_node_is_exactly_one_thread() {
    let cluster = ClusterConfig::builder().groups(1, 1).clients(1).build();
    let addrs: BTreeMap<_, _> = cluster
        .all_processes()
        .into_iter()
        .map(|p| {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
            (p, l.local_addr().expect("local addr"))
        })
        .collect();
    let replica_id = cluster.groups()[0].members()[0];
    let client_id = cluster.clients()[0];

    let baseline = threads();
    let replica: TcpNode<WhiteBoxMsg> = TcpNode::spawn(
        Box::new(WhiteBoxReplica::new(
            ReplicaConfig::new(replica_id, GroupId(0), cluster.clone()).without_auto_election(),
        )),
        &addrs,
        false,
    )
    .expect("spawn replica");
    assert_eq!(threads(), baseline + 1, "a TcpNode is one thread");
    let client = TcpNode::spawn(
        Box::new(MulticastClient::new(ClientConfig::new(
            client_id,
            cluster.clone(),
        ))),
        &addrs,
        false,
    )
    .expect("spawn client");
    assert_eq!(threads(), baseline + 2, "a second TcpNode is one more");

    // Traffic starts no long-lived helper: the dial threads that opened the
    // two connections are gone by the time a multicast has completed.
    client
        .submit(AppMessage::new(
            MsgId::new(client_id, 0),
            Destination::single(GroupId(0)),
            Payload::from("x"),
        ))
        .unwrap();
    assert!(client.wait_for_total(1, Duration::from_secs(30)).unwrap());
    assert_eq!(threads(), baseline + 2, "traffic left a thread behind");

    client.shutdown();
    assert_eq!(threads(), baseline + 1);
    replica.shutdown();
    assert_eq!(threads(), baseline, "shutdown joins the reactor");
}
