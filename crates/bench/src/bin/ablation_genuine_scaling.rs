//! Ablation A2: genuineness and scalability (paper §I motivation).
//!
//! Messages addressed to disjoint destination groups are ordered completely
//! independently, so aggregate throughput grows with the number of groups when
//! the workload is partitionable. This binary measures throughput with all
//! clients multicasting to disjoint group pairs as the number of groups grows.

use std::time::Duration;

use wbam_bench::header;
use wbam_harness::{ClusterSpec, Protocol, ProtocolSim};
use wbam_simnet::LatencyModel;
use wbam_types::GroupId;

fn run(num_groups: usize) -> f64 {
    let spec = ClusterSpec {
        num_groups,
        group_size: 3,
        num_clients: num_groups, // one client per group pair keeps load per group constant
        num_sites: 1,
        latency: LatencyModel::constant(Duration::from_micros(100)),
        service_time: Duration::from_micros(10),
        seed: 5,
        nemesis: wbam_types::NemesisPlan::quiet(),
        record_trace: false,
        auto_election: false,
        compaction_interval: 0,
        compaction_lag: 0,
    };
    let mut sim = ProtocolSim::build(Protocol::WhiteBox, &spec);
    let horizon = Duration::from_millis(200);
    // Each client multicasts to its own disjoint pair of groups, closed loop.
    let pair_of = |client: usize| -> Vec<GroupId> {
        let first = (2 * client) % num_groups;
        let second = (2 * client + 1) % num_groups;
        if first == second {
            vec![GroupId(first as u32)]
        } else {
            vec![GroupId(first as u32), GroupId(second as u32)]
        }
    };
    for client in 0..num_groups {
        sim.submit(Duration::ZERO, client, &pair_of(client), 20);
    }
    loop {
        if !sim.step() || sim.now() > horizon {
            break;
        }
        let now = sim.now();
        for (client, _) in sim.drain_client_completions() {
            let idx = sim
                .cluster()
                .clients()
                .iter()
                .position(|c| *c == client)
                .unwrap();
            sim.submit(now, idx, &pair_of(idx), 20);
        }
    }
    sim.run_until_quiescent(horizon + Duration::from_secs(5));
    sim.metrics()
        .throughput_in_window(Duration::from_millis(20), horizon)
        .messages_per_second
}

fn main() {
    header("Ablation A2 — genuine multicast scales with disjoint destination sets");
    println!("{:<10} {:>22}", "groups", "throughput (msg/s)");
    let mut base = None;
    for groups in [2usize, 4, 6, 8, 10] {
        let tput = run(groups);
        if base.is_none() {
            base = Some(tput);
        }
        println!(
            "{:<10} {:>22.0}   ({:.1}x of 2 groups)",
            groups,
            tput,
            tput / base.unwrap()
        );
    }
    println!();
    println!("Because only destination groups participate in ordering a message, disjoint");
    println!("traffic scales near-linearly with the number of groups (genuineness, §I).");
}
