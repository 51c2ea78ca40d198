//! Closed-loop client workloads.
//!
//! The paper's evaluation (§VI) uses closed-loop clients: every client has at
//! most one multicast outstanding and submits the next one as soon as the
//! previous one is acknowledged by the first delivering replica. Varying the
//! number of clients then traces out the latency/throughput curves of
//! Figures 7 and 8.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use wbam_simnet::{LatencyStats, ThroughputStats};
use wbam_types::GroupId;

use crate::cluster::ProtocolSim;

/// Description of a closed-loop workload.
#[derive(Debug, Clone)]
pub struct ClosedLoopWorkload {
    /// Number of destination groups of every multicast.
    pub dest_groups: usize,
    /// Payload size in bytes (the paper uses 20-byte messages).
    pub payload_len: usize,
    /// Length of the measured run (simulated time), excluding warm-up.
    pub duration: Duration,
    /// Warm-up period excluded from the statistics.
    pub warmup: Duration,
    /// Seed for the destination-set selection.
    pub seed: u64,
}

impl Default for ClosedLoopWorkload {
    fn default() -> Self {
        ClosedLoopWorkload {
            dest_groups: 2,
            payload_len: 20,
            duration: Duration::from_secs(2),
            warmup: Duration::from_millis(200),
            seed: 1,
        }
    }
}

/// Aggregated results of a workload run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Latency statistics over messages submitted in the measurement window.
    pub latency: LatencyStats,
    /// Throughput over the measurement window.
    pub throughput: ThroughputStats,
    /// Total protocol messages sent during the whole run.
    pub protocol_messages: u64,
    /// Number of multicasts submitted during the whole run.
    pub submitted: usize,
}

/// Runs a closed-loop workload over a built cluster and returns the metrics.
///
/// Every client keeps exactly one multicast outstanding. Destination groups
/// are chosen uniformly at random (per message) among all groups, matching the
/// paper's methodology of multicasting to a fixed *number* of groups.
pub fn run_closed_loop(sim: &mut ProtocolSim, workload: &ClosedLoopWorkload) -> WorkloadResult {
    let mut rng = StdRng::seed_from_u64(workload.seed);
    let group_ids = sim.cluster().group_ids();
    let num_clients = sim.cluster().clients().len();
    let dest_count = workload.dest_groups.min(group_ids.len()).max(1);
    let horizon = workload.warmup + workload.duration;
    let mut submitted = 0usize;

    let pick_dest = |rng: &mut StdRng| -> Vec<GroupId> {
        let mut ids = group_ids.clone();
        ids.shuffle(rng);
        ids.truncate(dest_count);
        ids
    };

    // Kick off one multicast per client at time zero.
    for client_index in 0..num_clients {
        let dest = pick_dest(&mut rng);
        sim.submit(Duration::ZERO, client_index, &dest, workload.payload_len);
        submitted += 1;
    }

    // Drive the simulation; whenever a client completes, submit its next
    // multicast immediately (zero think time).
    loop {
        if !sim.step() {
            break;
        }
        let now = sim.now();
        if now > horizon {
            break;
        }
        for (client, _msg) in sim.drain_client_completions() {
            if now > horizon {
                break;
            }
            let client_index = sim
                .cluster()
                .clients()
                .iter()
                .position(|c| *c == client)
                .expect("completion from a known client");
            let dest = pick_dest(&mut rng);
            sim.submit(now, client_index, &dest, workload.payload_len);
            submitted += 1;
        }
    }
    // Let in-flight messages finish so latency samples are complete.
    sim.run_until_quiescent(horizon + Duration::from_secs(60));

    let metrics = sim.metrics();
    let latency = metrics.latency_stats_in_window(workload.warmup, horizon);
    let throughput = metrics.throughput_in_window(workload.warmup, horizon);
    WorkloadResult {
        latency,
        throughput,
        protocol_messages: sim.stats().messages_sent,
        submitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterSpec, Protocol, ProtocolSim};
    use wbam_simnet::LatencyModel;

    fn small_spec(clients: usize) -> ClusterSpec {
        ClusterSpec {
            num_groups: 3,
            group_size: 3,
            num_clients: clients,
            num_sites: 1,
            latency: LatencyModel::constant(Duration::from_millis(1)),
            service_time: Duration::from_micros(5),
            seed: 3,
            nemesis: wbam_types::NemesisPlan::quiet(),
            record_trace: false,
            auto_election: false,
            compaction_interval: 0,
            compaction_lag: 0,
        }
    }

    #[test]
    fn closed_loop_keeps_clients_busy() {
        let mut sim = ProtocolSim::build(Protocol::WhiteBox, &small_spec(4));
        let workload = ClosedLoopWorkload {
            dest_groups: 2,
            duration: Duration::from_millis(300),
            warmup: Duration::from_millis(50),
            ..ClosedLoopWorkload::default()
        };
        let result = run_closed_loop(&mut sim, &workload);
        // With a ~4 ms delivery latency and 350 ms of run time, each of the 4
        // clients completes dozens of multicasts.
        assert!(result.submitted > 40, "submitted only {}", result.submitted);
        assert!(result.latency.count > 10);
        assert!(result.throughput.messages_per_second > 100.0);
        assert!(result.protocol_messages > 0);
    }

    #[test]
    fn more_clients_means_more_throughput_until_saturation() {
        let workload = ClosedLoopWorkload {
            dest_groups: 2,
            duration: Duration::from_millis(300),
            warmup: Duration::from_millis(50),
            ..ClosedLoopWorkload::default()
        };
        let mut sim1 = ProtocolSim::build(Protocol::WhiteBox, &small_spec(1));
        let mut sim8 = ProtocolSim::build(Protocol::WhiteBox, &small_spec(8));
        let r1 = run_closed_loop(&mut sim1, &workload);
        let r8 = run_closed_loop(&mut sim8, &workload);
        assert!(
            r8.throughput.messages_per_second > r1.throughput.messages_per_second * 2.0,
            "throughput should scale with clients before saturation ({} vs {})",
            r1.throughput.messages_per_second,
            r8.throughput.messages_per_second
        );
    }

    #[test]
    fn workload_runs_for_all_protocols() {
        let workload = ClosedLoopWorkload {
            dest_groups: 2,
            duration: Duration::from_millis(200),
            warmup: Duration::from_millis(40),
            ..ClosedLoopWorkload::default()
        };
        for protocol in Protocol::evaluated() {
            let mut sim = ProtocolSim::build(protocol, &small_spec(2));
            let result = run_closed_loop(&mut sim, &workload);
            assert!(
                result.latency.count > 0,
                "{} produced no latency samples",
                protocol.label()
            );
        }
    }
}
