//! Parameter sweeps over client counts and destination-group counts.
//!
//! A sweep runs the closed-loop workload of [`crate::workload`] for every
//! combination of protocol, client count and destination-group count in a
//! [`SweepSpec`], producing one [`SweepPoint`] per combination — exactly the
//! data series plotted in Figures 7 (LAN) and 8 (WAN) of the paper.

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

/// One machine-readable benchmark result, serialised as a single JSON object
/// per line of `BENCH_net.json` (and of the frozen `BENCH_throughput.json`)
/// so that successive runs (and CI jobs) can append without parsing the file.
/// Rows written before timer batching was retired also carry the batch size,
/// which parsing skips. The trailing `Option` fields make a row say which
/// commit, host and window produced it; rows written before they existed
/// parse them as `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Name of the emitting benchmark binary.
    pub bench: String,
    /// Environment label (`lan`, `wan`, ...).
    pub environment: String,
    /// Wire codec the cluster ran with: `"binary"` (older `BENCH_net.json`
    /// rows also say `"json"`, from before it stopped being deployable).
    /// `None` for simulated benches, which exchange in-memory values and
    /// never hit a serialiser. Old records without the field parse as `None`.
    pub wire: Option<String>,
    /// Protocol label.
    pub protocol: String,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Destination groups per multicast.
    pub dest_groups: usize,
    /// Delivered messages per second of simulated time.
    pub throughput_msg_s: f64,
    /// Median delivery latency in milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile delivery latency in milliseconds.
    pub latency_p99_ms: f64,
    /// Mean delivery latency in milliseconds.
    pub latency_mean_ms: f64,
    /// Short git revision of the measured tree, if it was known.
    pub git_rev: Option<String>,
    /// CPUs the measuring process could use.
    pub host_cores: Option<usize>,
    /// Multicasts the closed-loop client kept in flight.
    pub window: Option<u64>,
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

    #[test]
    fn bench_records_round_trip_and_legacy_rows_parse() {
        let record = BenchRecord {
            bench: "throughput_batching".to_string(),
            environment: "lan".to_string(),
            wire: None,
            protocol: "WbCast".to_string(),
            clients: 16,
            dest_groups: 2,
            throughput_msg_s: 37360.0,
            latency_p50_ms: 0.474593,
            latency_p99_ms: 1.1332,
            latency_mean_ms: 0.514366,
            git_rev: None,
            host_cores: None,
            window: None,
        };
        let json = serde_json::to_string(&record).unwrap();
        let back: BenchRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);

        // A row of the frozen BENCH_throughput.json: written before the
        // `wire` field existed and before timer batching was retired, so it
        // lacks `wire` and still carries the batch size.
        let legacy = r#"{"bench":"throughput_batching","environment":"lan","protocol":"WbCast","max_batch":1,"clients":16,"dest_groups":2,"throughput_msg_s":37360.0,"latency_p50_ms":0.474593,"latency_p99_ms":1.1332,"latency_mean_ms":0.514366}"#;
        let old: BenchRecord = serde_json::from_str(legacy).unwrap();
        assert_eq!(old, record);

        // A self-describing row keeps its provenance.
        let described = BenchRecord {
            git_rev: Some("a5557af".to_string()),
            host_cores: Some(2),
            window: Some(16),
            ..record
        };
        let json = serde_json::to_string(&described).unwrap();
        assert_eq!(
            serde_json::from_str::<BenchRecord>(&json).unwrap(),
            described
        );
    }

    /// Every committed row of `BENCH_net.json` parses. The rows predate the
    /// provenance fields, which read `None`, and the older ones carry the
    /// retired `max_batch`, which is skipped.
    #[test]
    fn every_committed_net_row_parses() {
        let rows = include_str!("../../../BENCH_net.json");
        let mut parsed = 0;
        for line in rows.lines().filter(|l| !l.trim().is_empty()) {
            let row: BenchRecord = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("row does not parse ({e}): {line}"));
            assert_eq!(
                (row.git_rev, row.host_cores, row.window),
                (None, None, None),
                "{line}"
            );
            parsed += 1;
        }
        assert!(parsed > 100, "only {parsed} rows");
        assert!(rows.contains("\"max_batch\""));
    }
}
