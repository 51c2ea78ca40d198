//! Parameter sweeps over client counts and destination-group counts.
//!
//! A sweep runs the closed-loop workload of [`crate::workload`] for every
//! combination of protocol, client count and destination-group count in a
//! [`SweepSpec`], producing one [`SweepPoint`] per combination — exactly the
//! data series plotted in Figures 7 (LAN) and 8 (WAN) of the paper.
//!
//! Sweeps print tables; they write no rows. The committed `BENCH_net.json`
//! and `BENCH_throughput.json` are frozen history: nothing appends to them
//! any more, and the deployed numbers come from `benchmark/`.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::cluster::{ClusterSpec, Protocol, ProtocolSim};
use crate::workload::{run_closed_loop, ClosedLoopWorkload, WorkloadResult};

/// Description of a sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Base cluster (latency model, group count, service time); the client
    /// count is overridden per point.
    pub base: ClusterSpec,
    /// Protocols to compare.
    pub protocols: Vec<Protocol>,
    /// Client counts to evaluate.
    pub client_counts: Vec<usize>,
    /// Destination-group counts to evaluate.
    pub dest_group_counts: Vec<usize>,
    /// Workload template (duration, warm-up, payload size).
    pub workload: ClosedLoopWorkload,
}

impl SweepSpec {
    /// The Figure 7 sweep (LAN), scaled down by default to keep simulation
    /// times reasonable; the benchmark binaries pass larger client counts.
    pub fn lan(client_counts: Vec<usize>, dest_group_counts: Vec<usize>) -> Self {
        SweepSpec {
            base: ClusterSpec::lan(0),
            protocols: Protocol::evaluated().to_vec(),
            client_counts,
            dest_group_counts,
            workload: ClosedLoopWorkload {
                duration: Duration::from_millis(500),
                warmup: Duration::from_millis(100),
                ..ClosedLoopWorkload::default()
            },
        }
    }

    /// The Figure 8 sweep (WAN).
    pub fn wan(client_counts: Vec<usize>, dest_group_counts: Vec<usize>) -> Self {
        SweepSpec {
            base: ClusterSpec::wan(0),
            protocols: Protocol::evaluated().to_vec(),
            client_counts,
            dest_group_counts,
            workload: ClosedLoopWorkload {
                duration: Duration::from_secs(4),
                warmup: Duration::from_secs(1),
                ..ClosedLoopWorkload::default()
            },
        }
    }
}

/// One measured point of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Protocol label (as used in the paper's plots).
    pub protocol: String,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Number of destination groups per multicast.
    pub dest_groups: usize,
    /// Workload results.
    pub result: WorkloadResult,
}

impl SweepPoint {
    /// Mean latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.result.latency.mean.as_secs_f64() * 1e3
    }

    /// Throughput in messages per second.
    pub fn throughput(&self) -> f64 {
        self.result.throughput.messages_per_second
    }
}

/// The complete result of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct SweepResult {
    /// All measured points.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The distinct protocol labels present in the result.
    pub fn known_labels(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.points.iter().map(|p| p.protocol.as_str()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Points for a given protocol and destination-group count, ordered by
    /// client count — one plotted curve of Figure 7/8.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` matches no point at all, or if `dest_groups` was
    /// never swept: either means the calling benchmark queries a curve that
    /// was never measured (a typo or a dropped sweep dimension), and silently
    /// returning an empty series would let it print empty tables.
    pub fn series(&self, protocol: &str, dest_groups: usize) -> Vec<&SweepPoint> {
        assert!(
            self.points.iter().any(|p| p.protocol == protocol),
            "unknown protocol label {protocol:?}: this sweep only measured {:?}",
            self.known_labels()
        );
        assert!(
            self.points.iter().any(|p| p.dest_groups == dest_groups),
            "destination-group count {dest_groups} was never swept: this sweep only measured {:?}",
            {
                let mut v: Vec<usize> = self.points.iter().map(|p| p.dest_groups).collect();
                v.sort_unstable();
                v.dedup();
                v
            }
        );
        let mut v: Vec<&SweepPoint> = self
            .points
            .iter()
            .filter(|p| p.protocol == protocol && p.dest_groups == dest_groups)
            .collect();
        v.sort_by_key(|p| p.clients);
        v
    }

    /// Renders the result as an aligned text table (one row per point).
    pub fn to_table(&self) -> String {
        let mut out = String::from("protocol   groups  clients    latency_ms   throughput_msg_s\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:<10} {:<7} {:<10} {:<12.3} {:<12.1}\n",
                p.protocol,
                p.dest_groups,
                p.clients,
                p.latency_ms(),
                p.throughput()
            ));
        }
        out
    }
}

/// Runs a sweep, one simulation per (protocol, clients, destination groups).
pub fn sweep(spec: &SweepSpec) -> SweepResult {
    let mut result = SweepResult::default();
    for protocol in &spec.protocols {
        for &clients in &spec.client_counts {
            for &dest_groups in &spec.dest_group_counts {
                let mut cluster_spec = spec.base.clone();
                cluster_spec.num_clients = clients;
                let mut sim = ProtocolSim::build(*protocol, &cluster_spec);
                let workload = ClosedLoopWorkload {
                    dest_groups,
                    ..spec.workload.clone()
                };
                let run = run_closed_loop(&mut sim, &workload);
                result.points.push(SweepPoint {
                    protocol: protocol.label().to_string(),
                    clients,
                    dest_groups,
                    result: run,
                });
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_simnet::LatencyModel;

    #[test]
    fn small_lan_sweep_orders_protocols_correctly() {
        // A deliberately tiny sweep so the test stays fast: 3 groups, few
        // clients, short run. The qualitative result of Figure 7 — WbCast has
        // lower latency than FastCast and FT-Skeen — must already show.
        let mut spec = SweepSpec::lan(vec![4], vec![2]);
        spec.base.num_groups = 3;
        spec.base.latency = LatencyModel::constant(Duration::from_millis(1));
        spec.workload.duration = Duration::from_millis(300);
        spec.workload.warmup = Duration::from_millis(50);
        let result = sweep(&spec);
        assert_eq!(result.points.len(), 3);
        let latency_of = |label: &str| {
            result
                .series(label, 2)
                .first()
                .map(|p| p.latency_ms())
                .unwrap()
        };
        let wb = latency_of("WbCast");
        let fc = latency_of("FastCast");
        let fts = latency_of("Skeen");
        assert!(
            wb < fc,
            "WbCast ({wb:.2} ms) must beat FastCast ({fc:.2} ms)"
        );
        assert!(
            fc < fts,
            "FastCast ({fc:.2} ms) must beat FT-Skeen ({fts:.2} ms)"
        );
        let table = result.to_table();
        assert!(table.contains("WbCast"));
        assert!(table.lines().count() >= 4);
    }

    fn tiny_result() -> SweepResult {
        let mut spec = SweepSpec::lan(vec![2], vec![1]);
        spec.base.num_groups = 2;
        spec.base.latency = LatencyModel::constant(Duration::from_millis(1));
        spec.protocols = vec![crate::cluster::Protocol::WhiteBox];
        spec.workload.duration = Duration::from_millis(100);
        spec.workload.warmup = Duration::from_millis(20);
        sweep(&spec)
    }

    #[test]
    #[should_panic(expected = "unknown protocol label")]
    fn series_rejects_unknown_protocol_labels() {
        // Guards against bench binaries printing empty tables because of a
        // typo'd or never-swept label.
        let result = tiny_result();
        let _ = result.series("WbCsat", 1);
    }

    #[test]
    #[should_panic(expected = "never swept")]
    fn series_rejects_unswept_destination_group_counts() {
        let result = tiny_result();
        let _ = result.series("WbCast", 3);
    }
}
