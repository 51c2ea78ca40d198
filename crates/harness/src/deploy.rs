//! Deployment topology specs and log formats for real (TCP) clusters.
//!
//! The simulator builds clusters from a [`ClusterSpec`](crate::ClusterSpec);
//! a *deployed* cluster — one OS process per replica or client, connected by
//! the framed TCP transport of `wbam-runtime` — is described by a
//! [`DeploySpec`] instead: the same protocol/topology knobs plus one listen
//! address per process. The spec is plain JSON so it can be generated by
//! scripts, checked into CI and passed to every `wbamd` process of a cluster:
//!
//! ```json
//! {
//!   "protocol": "WbCast",
//!   "num_groups": 2,
//!   "group_size": 3,
//!   "num_clients": 1,
//!   "addrs": ["127.0.0.1:7000", "127.0.0.1:7001", "127.0.0.1:7002",
//!             "127.0.0.1:7003", "127.0.0.1:7004", "127.0.0.1:7005",
//!             "127.0.0.1:7006"],
//!   "compaction_interval": 0,
//!   "compaction_lag": 0,
//!   "heartbeat_ms": 50,
//!   "election_timeout_ms": 500,
//!   "retry_timeout_ms": 500
//! }
//! ```
//!
//! `addrs[i]` is the listen address of `ProcessId(i)`; process ids follow the
//! `ClusterConfig` builder convention (replicas `0..num_groups*group_size` in
//! group order, then clients). Every replica of a cluster must be started
//! with the *same* spec file (`wbamd --spec cluster.json --id <i>`). Its
//! client ids are not `wbamd` processes: the orchestrator hosts each client
//! itself, as a `TcpNode` running [`DeploySpec::whitebox_client`] (the
//! benchmark's load generator, the deployed explorer, the deployed tests).
//!
//! [`DeliveryLine`] is the JSONL record a replica writes to its delivery
//! log, shared here so orchestrators can parse it back.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use wbam_core::MulticastClient;
use wbam_runtime::BoxedNode;
use wbam_types::wire::{from_json, to_json, WireCodec};
use wbam_types::{ClusterConfig, GroupId, ProcessId, Timestamp, WbamError};

use crate::cluster::Protocol;
use crate::family::{Family, NodeSpec, WbCast};

/// The role a process id plays in a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployRole {
    /// A group member (replica) of the given group.
    Replica(GroupId),
    /// A multicasting client.
    Client,
}

/// Topology and environment of a deployed (real-TCP) cluster; see the module
/// docs for the JSON shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploySpec {
    /// Protocol label, as printed by [`Protocol::label`]: `"WbCast"`,
    /// `"FastCast"` or `"Skeen"` (FT-Skeen). Plain `"Skeen1"` is not
    /// deployable — it exists for the paper's singleton-group comparison.
    pub protocol: String,
    /// Number of multicast groups.
    pub num_groups: usize,
    /// Replicas per group (`2f + 1`).
    pub group_size: usize,
    /// Number of client processes.
    pub num_clients: usize,
    /// Listen address of every process, indexed by `ProcessId`.
    pub addrs: Vec<String>,
    /// Record compaction interval in deliveries (0 disables compaction).
    pub compaction_interval: u64,
    /// Delivered records retained below the watermark.
    pub compaction_lag: usize,
    /// Replica heartbeat interval in milliseconds (0 disables the built-in
    /// leader election — not recommended for real deployments, which have no
    /// external oracle to call `become_leader`).
    pub heartbeat_ms: u64,
    /// Follower election timeout in milliseconds.
    pub election_timeout_ms: u64,
    /// Client (and replica) retry timeout in milliseconds.
    pub retry_timeout_ms: u64,
    /// Wire codec of the cluster's TCP connections. The deployed stack
    /// speaks only the binary codec (`WIRE.md`), so this may be absent or
    /// `"binary"`; [`Self::validate`] refuses `"json"` and any other name.
    pub wire: Option<String>,
    /// Optional per-link dial routing: `routes[i][j]` is the address process
    /// `i` dials to reach process `j`, letting an orchestrator interpose a
    /// man-in-the-middle (the harness's [`NemesisProxy`](crate::NemesisProxy))
    /// on every link while each process still *listens* on `addrs[i]`. Absent
    /// (the default, and the legacy JSON shape), every process dials
    /// `addrs[j]` directly. Diagonal entries (`routes[i][i]`) are ignored —
    /// a process never dials itself.
    pub routes: Option<Vec<Vec<String>>>,
}

impl DeploySpec {
    /// A loopback cluster for local experiments: every process listens on
    /// `127.0.0.1`, on consecutive ports starting at `base_port`, with
    /// real-time-appropriate failure-detector defaults (50 ms heartbeats,
    /// 500 ms election timeout, 500 ms retries).
    pub fn loopback(
        protocol: Protocol,
        num_groups: usize,
        group_size: usize,
        num_clients: usize,
        base_port: u16,
    ) -> Self {
        let num_processes = num_groups * group_size + num_clients;
        DeploySpec {
            protocol: protocol.label().to_string(),
            num_groups,
            group_size,
            num_clients,
            addrs: (0..num_processes)
                .map(|i| format!("127.0.0.1:{}", base_port + i as u16))
                .collect(),
            compaction_interval: 0,
            compaction_lag: 0,
            heartbeat_ms: 50,
            election_timeout_ms: 500,
            retry_timeout_ms: 500,
            wire: None,
            routes: None,
        }
    }

    /// Like [`Self::loopback`], but reserves a currently free loopback port
    /// for every process instead of using a fixed range — what test and bench
    /// orchestrators want, since a fixed base port collides under parallel
    /// runs.
    ///
    /// Ports are taken from *below* the kernel's ephemeral range (32768+ by
    /// default on Linux, read from `ip_local_port_range` when available).
    /// Reserving via `bind(0)` hands out ephemeral ports, and the net-chaos
    /// sweep showed why that is not survivable: after the reservation
    /// listener is released, an *outgoing* connection of the same deployment
    /// can be assigned the reserved port as its ephemeral source port and
    /// squat it for the connection's lifetime — no startup bind-retry window
    /// outwaits that. Sub-ephemeral ports can never be kernel-assigned as
    /// source ports, so the only remaining race is against other reservers,
    /// which the scan (and `wbamd`'s bind retry) absorbs.
    ///
    /// The ports are released again before this returns; the window until the
    /// `wbamd` processes re-bind them is the usual (accepted) reservation
    /// race.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::Io`] when binding a reservation listener fails.
    pub fn loopback_free_ports(
        protocol: Protocol,
        num_groups: usize,
        group_size: usize,
        num_clients: usize,
    ) -> Result<Self, WbamError> {
        use std::sync::atomic::{AtomicU32, Ordering};

        /// Lowest port of the reservation band; the band runs up to the
        /// ephemeral floor.
        const RESERVE_BASE: u16 = 20_000;

        fn ephemeral_floor() -> u16 {
            #[cfg(target_os = "linux")]
            if let Ok(s) = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range") {
                if let Some(lo) = s
                    .split_whitespace()
                    .next()
                    .and_then(|t| t.parse::<u16>().ok())
                {
                    if lo > RESERVE_BASE {
                        return lo;
                    }
                }
            }
            32_768
        }

        let mut spec = Self::loopback(protocol, num_groups, group_size, num_clients, 0);
        let span = u32::from(ephemeral_floor() - RESERVE_BASE);
        // Scatter concurrent reservers (parallel test binaries) across the
        // band; the cursor keeps successive reservations within a process
        // from re-contending for the same ports.
        static CURSOR: AtomicU32 = AtomicU32::new(0);
        let scatter = std::process::id().wrapping_mul(2_654_435_761) % span;
        // Hold all listeners simultaneously so the reserved ports are
        // pairwise distinct.
        let mut listeners = Vec::with_capacity(spec.addrs.len());
        let mut addrs = Vec::with_capacity(spec.addrs.len());
        'reserve: for _ in 0..spec.addrs.len() {
            for _ in 0..span {
                let off = CURSOR.fetch_add(1, Ordering::Relaxed);
                let port = RESERVE_BASE + ((off.wrapping_add(scatter)) % span) as u16;
                if let Ok(l) = std::net::TcpListener::bind(("127.0.0.1", port)) {
                    listeners.push(l);
                    addrs.push(format!("127.0.0.1:{port}"));
                    continue 'reserve;
                }
            }
            // The whole band is busy (unusual environment): fall back to an
            // ephemeral reservation rather than failing outright.
            let l = std::net::TcpListener::bind("127.0.0.1:0")?;
            addrs.push(format!("127.0.0.1:{}", l.local_addr()?.port()));
            listeners.push(l);
        }
        spec.addrs = addrs;
        drop(listeners);
        Ok(spec)
    }

    /// The protocol this cluster runs.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::Codec`] for labels that do not name a deployable
    /// protocol.
    pub fn protocol(&self) -> Result<Protocol, WbamError> {
        let deployable = Protocol::evaluated();
        let found = deployable.into_iter().find(|p| p.label() == self.protocol);
        found.ok_or_else(|| {
            let labels = deployable.map(Protocol::label).join(", ");
            let label = &self.protocol;
            WbamError::Codec(format!(
                "unknown deployable protocol label {label:?} (expected one of {labels})"
            ))
        })
    }

    /// Checks internal consistency (address count, group sizes, protocol).
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency as a [`WbamError`].
    pub fn validate(&self) -> Result<(), WbamError> {
        self.protocol()?;
        if let Some(name) = &self.wire {
            match WireCodec::from_name(name) {
                Some(WireCodec::Binary) => {}
                Some(codec) => {
                    return Err(WbamError::Codec(format!(
                        "spec field \"wire\": {name:?} is no longer accepted: the {codec} \
                         codec is not deployable, every connection speaks binary"
                    )))
                }
                None => {
                    return Err(WbamError::Codec(format!(
                        "unknown wire codec {name:?} (expected \"binary\")"
                    )))
                }
            }
        }
        let expected = self.num_groups * self.group_size + self.num_clients;
        if self.addrs.len() != expected {
            return Err(WbamError::Codec(format!(
                "spec lists {} addresses for {expected} processes",
                self.addrs.len()
            )));
        }
        for (i, addr) in self.addrs.iter().enumerate() {
            if addr.parse::<SocketAddr>().is_err() {
                return Err(WbamError::Codec(format!(
                    "address {addr:?} of process p{i} is not a socket address"
                )));
            }
        }
        if let Some(routes) = &self.routes {
            if routes.len() != expected {
                return Err(WbamError::Codec(format!(
                    "spec routes {} rows for {expected} processes",
                    routes.len()
                )));
            }
            for (i, row) in routes.iter().enumerate() {
                if row.len() != expected {
                    return Err(WbamError::Codec(format!(
                        "route row of process p{i} has {} entries for {expected} processes",
                        row.len()
                    )));
                }
                for (j, addr) in row.iter().enumerate() {
                    // The diagonal is never dialled, so any placeholder is
                    // fine there.
                    if i != j && addr.parse::<SocketAddr>().is_err() {
                        return Err(WbamError::Codec(format!(
                            "route {addr:?} from p{i} to p{j} is not a socket address"
                        )));
                    }
                }
            }
        }
        // Delegates group-shape validation (2f+1, non-empty) to the builder.
        self.cluster_config().validate().map_err(WbamError::from)
    }

    /// The static cluster configuration this spec deploys.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig::builder()
            .groups(self.num_groups, self.group_size)
            .clients(self.num_clients)
            .build()
    }

    /// The role of a process id under this spec.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::UnknownProcess`] for ids beyond the address list.
    pub fn role_of(&self, id: ProcessId) -> Result<DeployRole, WbamError> {
        if (id.0 as usize) >= self.addrs.len() {
            return Err(WbamError::UnknownProcess(id));
        }
        let cfg = self.cluster_config();
        if let Some(group) = cfg.group_of(id) {
            Ok(DeployRole::Replica(group))
        } else if cfg.is_client(id) {
            Ok(DeployRole::Client)
        } else {
            Err(WbamError::UnknownProcess(id))
        }
    }

    /// The listen address of every process, as the TCP runtime consumes it.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::Codec`] when an address fails to parse.
    pub fn addr_map(&self) -> Result<BTreeMap<ProcessId, SocketAddr>, WbamError> {
        self.addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                addr.parse::<SocketAddr>()
                    .map(|a| (ProcessId(i as u32), a))
                    .map_err(|e| WbamError::Codec(format!("address {addr:?}: {e}")))
            })
            .collect()
    }

    /// The address map process `id` hands to the TCP runtime: its *own*
    /// entry is its listen address (`addrs[id]`, where it binds), and every
    /// peer entry is the address it dials to reach that peer —
    /// `routes[id][peer]` when the spec routes links through a proxy,
    /// `addrs[peer]` otherwise. With no `routes` this is exactly
    /// [`Self::addr_map`].
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::UnknownProcess`] for ids beyond the address list
    /// and [`WbamError::Codec`] when an address fails to parse.
    pub fn dial_map(&self, id: ProcessId) -> Result<BTreeMap<ProcessId, SocketAddr>, WbamError> {
        let mut map = self.addr_map()?;
        if !map.contains_key(&id) {
            return Err(WbamError::UnknownProcess(id));
        }
        if let Some(routes) = &self.routes {
            let row = routes
                .get(id.0 as usize)
                .ok_or(WbamError::UnknownProcess(id))?;
            for (j, addr) in row.iter().enumerate() {
                let peer = ProcessId(j as u32);
                if peer == id {
                    continue; // own entry stays the listen address
                }
                let parsed = addr.parse::<SocketAddr>().map_err(|e| {
                    WbamError::Codec(format!("route {addr:?} from p{} to p{j}: {e}", id.0))
                })?;
                map.insert(peer, parsed);
            }
        }
        Ok(map)
    }

    /// What a deployment passes to every family's constructors: WbCast's
    /// elections at `heartbeat_ms` / `election_timeout_ms` (none at a zero
    /// heartbeat), and `retry_timeout_ms` for replica and client retries.
    fn node_spec(&self) -> NodeSpec {
        let ms = Duration::from_millis;
        NodeSpec {
            cluster: self.cluster_config(),
            elections: (self.heartbeat_ms > 0)
                .then(|| (ms(self.heartbeat_ms), ms(self.election_timeout_ms))),
            replica_retry: Some(ms(self.retry_timeout_ms)),
            client_retry: ms(self.retry_timeout_ms),
            compaction_interval: self.compaction_interval,
            compaction_lag: self.compaction_lag,
        }
    }

    /// Builds the node process `id` plays in `family`.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::UnknownProcess`] for ids beyond the address list
    /// and configuration errors from the replica constructor.
    pub fn node<F: Family>(
        &self,
        family: &F,
        id: ProcessId,
    ) -> Result<BoxedNode<F::Msg>, WbamError> {
        self.role_of(id)?;
        Ok(family.node(&self.node_spec(), id)?)
    }

    /// Builds the white-box client for process `id`.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::UnknownProcess`] for non-client ids.
    pub fn whitebox_client(&self, id: ProcessId) -> Result<MulticastClient, WbamError> {
        if self.role_of(id)? != DeployRole::Client {
            return Err(WbamError::UnknownProcess(id));
        }
        Ok(WbCast::client(&self.node_spec(), id))
    }

    /// Serialises the spec to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::Codec`] if serialisation fails.
    pub fn to_json(&self) -> Result<String, WbamError> {
        to_json(self)
    }

    /// Parses a spec from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::Codec`] on parse or validation failure, and for a
    /// spec that still carries a retired timer-batching field.
    pub fn from_json(json: &str) -> Result<Self, WbamError> {
        // Unknown fields are skipped silently, so an old batching spec would
        // otherwise start unbatched without a word.
        let retired: RetiredFields = from_json(json)?;
        for (field, value) in [
            ("max_batch", retired.max_batch),
            ("batch_delay_ms", retired.batch_delay_ms),
        ] {
            if value.is_some() {
                return Err(WbamError::Codec(format!(
                    "spec field {field:?} is no longer accepted: timer batching was \
                     retired (the transport frames each round's messages per peer)"
                )));
            }
        }
        let spec: DeploySpec = from_json(json)?;
        spec.validate()?;
        Ok(spec)
    }
}

/// The timer-batching fields of older specs, read only to refuse them.
#[derive(Deserialize)]
struct RetiredFields {
    max_batch: Option<u64>,
    batch_delay_ms: Option<u64>,
}

/// A spawned cluster process that is killed and reaped when the guard drops,
/// so a panicking orchestrator (test or bench) cannot leak `wbamd` processes.
#[derive(Debug)]
pub struct ChildGuard(pub std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One delivery observed by a `wbamd` process, written as one JSON line to
/// its `--deliveries` log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryLine {
    /// The delivering process.
    pub process: u32,
    /// Sender of the delivered message.
    pub sender: u32,
    /// Sender-local sequence number of the delivered message.
    pub seq: u64,
    /// Logical time of the global timestamp (0 when the protocol did not
    /// expose one).
    pub gts_time: u64,
    /// Group component of the global timestamp (`u32::MAX` when absent).
    pub gts_group: u32,
    /// Milliseconds since the process started.
    pub elapsed_ms: f64,
}

impl DeliveryLine {
    /// Builds a line from a runtime delivery observation.
    pub fn new(
        process: ProcessId,
        msg_id: wbam_types::MsgId,
        global_ts: Option<Timestamp>,
        elapsed: Duration,
    ) -> Self {
        DeliveryLine {
            process: process.0,
            sender: msg_id.sender.0,
            seq: msg_id.seq,
            gts_time: global_ts.map(|t| t.time()).unwrap_or(0),
            gts_group: global_ts
                .and_then(|t| t.group())
                .map(|g| g.0)
                .unwrap_or(u32::MAX),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
        }
    }

    /// The delivered message identifier.
    pub fn msg_id(&self) -> wbam_types::MsgId {
        wbam_types::MsgId::new(ProcessId(self.sender), self.seq)
    }

    /// Appends the line to `out` as the JSON object [`to_json`] prints for
    /// it, byte for byte, without the intermediate value tree: a replica
    /// writes one line per delivery. `elapsed_ms` must be finite, as it is
    /// when the line comes from [`DeliveryLine::new`]; JSON has no other
    /// floats.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        use std::io::Write as _;
        // `{:?}` is how the JSON printer writes an `f64`: shortest form that
        // round-trips, always with a fractional part or an exponent.
        write!(
            out,
            r#"{{"process":{},"sender":{},"seq":{},"gts_time":{},"gts_group":{},"elapsed_ms":{:?}}}"#,
            self.process, self.sender, self.seq, self.gts_time, self.gts_group, self.elapsed_ms
        )
        .expect("writing to a Vec cannot fail");
    }
}

/// Latency summary statistics over one measured run, in milliseconds. The
/// benchmark's percentile code (`benchmark/src/stats.rs`) is tested against
/// [`LatencyStats::from_sample`], which is kept here as that reference rule
/// and has no other caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
}

impl LatencyStats {
    /// Computes p50/p99/mean over a sample of latencies (any order; the slice
    /// is sorted in place). Percentiles use the nearest-rank-by-rounding rule
    /// `index = round((n - 1) * p)` — for even-sized samples the median is
    /// the *upper* of the two middle elements, not their midpoint, so every
    /// reported percentile is a latency that actually occurred.
    ///
    /// Returns `None` for an empty sample: a run that completed nothing has
    /// no latency distribution, and silently reporting zeros would read as
    /// an impossibly fast cluster.
    pub fn from_sample(latencies: &mut [Duration]) -> Option<Self> {
        if latencies.is_empty() {
            return None;
        }
        latencies.sort_unstable();
        let pct = |p: f64| -> f64 {
            let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            latencies[idx].as_secs_f64() * 1e3
        };
        let mean_ms =
            latencies.iter().map(|l| l.as_secs_f64()).sum::<f64>() / latencies.len() as f64 * 1e3;
        Some(LatencyStats {
            p50_ms: pct(0.5),
            p99_ms: pct(0.99),
            mean_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_spec_round_trips_and_validates() {
        for protocol in Protocol::evaluated() {
            let spec = DeploySpec::loopback(protocol, 2, 3, 1, 7000);
            assert_eq!(spec.addrs.len(), 7);
            spec.validate().unwrap();
            assert_eq!(spec.protocol().unwrap(), protocol);
            let json = spec.to_json().unwrap();
            let back = DeploySpec::from_json(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn roles_follow_builder_conventions() {
        let spec = DeploySpec::loopback(Protocol::WhiteBox, 2, 3, 2, 7100);
        assert_eq!(
            spec.role_of(ProcessId(0)).unwrap(),
            DeployRole::Replica(GroupId(0))
        );
        assert_eq!(
            spec.role_of(ProcessId(5)).unwrap(),
            DeployRole::Replica(GroupId(1))
        );
        assert_eq!(spec.role_of(ProcessId(6)).unwrap(), DeployRole::Client);
        assert_eq!(spec.role_of(ProcessId(7)).unwrap(), DeployRole::Client);
        assert!(spec.role_of(ProcessId(8)).is_err());
        // The roles must agree with the ClusterConfig the spec builds.
        let cfg = spec.cluster_config();
        assert_eq!(cfg.group_of(ProcessId(5)), Some(GroupId(1)));
        assert!(cfg.is_client(ProcessId(6)));
    }

    #[test]
    fn node_constructors_enforce_roles() {
        let spec = DeploySpec::loopback(Protocol::WhiteBox, 1, 3, 1, 7200);
        assert!(spec.node(&WbCast, ProcessId(0)).is_ok());
        assert!(spec.node(&WbCast, ProcessId(3)).is_ok());
        assert!(spec.node(&WbCast, ProcessId(4)).is_err());
        assert!(spec.whitebox_client(ProcessId(3)).is_ok());
        assert!(spec.whitebox_client(ProcessId(0)).is_err());
        let ft = DeploySpec::loopback(Protocol::FtSkeen, 1, 3, 1, 7300);
        let baselines = crate::family::Baselines(wbam_baselines::Mode::FtSkeen);
        assert!(ft.node(&baselines, ProcessId(0)).is_ok());
        assert!(ft.node(&baselines, ProcessId(3)).is_ok());
        assert!(ft.node(&baselines, ProcessId(4)).is_err());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = DeploySpec::loopback(Protocol::WhiteBox, 2, 3, 1, 7400);
        spec.addrs.pop();
        assert!(spec.validate().is_err());
        let mut spec = DeploySpec::loopback(Protocol::WhiteBox, 2, 3, 1, 7500);
        spec.addrs[2] = "not-an-address".to_string();
        assert!(spec.validate().is_err());
        let mut spec = DeploySpec::loopback(Protocol::WhiteBox, 2, 3, 1, 7600);
        spec.protocol = Protocol::Skeen.label().to_string();
        let err = spec.protocol().unwrap_err().to_string();
        assert!(err.contains("\"Skeen1\""), "{err}");
    }

    #[test]
    fn wire_codec_defaults_to_binary_and_rejects_unknown_names() {
        // A spec without a `wire` field (the shim reads a missing field as
        // None) and one naming "binary" both validate.
        let mut spec = DeploySpec::loopback(Protocol::WhiteBox, 1, 3, 1, 7700);
        spec.wire = None;
        let back = DeploySpec::from_json(&spec.to_json().unwrap()).unwrap();
        assert_eq!(back.wire, None);
        spec.wire = Some("binary".to_string());
        spec.validate().unwrap();
        // JSON is no longer deployable, and an unknown name never was: both
        // are refused by name.
        for name in ["json", "msgpack"] {
            spec.wire = Some(name.to_string());
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(&format!("{name:?}")), "{err}");
            let err = DeploySpec::from_json(&spec.to_json().unwrap()).unwrap_err();
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    /// The reference percentile rule: percentiles follow the
    /// `round((n - 1) * p)` nearest-rank rule on the *sorted* sample,
    /// regardless of input order or parity of the sample size.
    #[test]
    fn latency_stats_percentiles_on_known_vectors() {
        let ms = Duration::from_millis;

        // Odd length, deliberately unsorted: sorted = [1, 2, 3, 4, 5] ms.
        // p50 → index round(4 * 0.5) = 2 → 3 ms; p99 → round(4 * 0.99) = 4
        // → 5 ms; mean = 3 ms.
        let mut odd = vec![ms(5), ms(1), ms(4), ms(2), ms(3)];
        let stats = LatencyStats::from_sample(&mut odd).unwrap();
        assert_eq!(stats.p50_ms, 3.0);
        assert_eq!(stats.p99_ms, 5.0);
        assert!((stats.mean_ms - 3.0).abs() < 1e-9);
        // The sample was sorted in place.
        assert_eq!(odd, vec![ms(1), ms(2), ms(3), ms(4), ms(5)]);

        // Even length: sorted = [10, 20, 30, 40] ms. p50 → index
        // round(3 * 0.5) = 2 → the upper middle element, 30 ms (a latency
        // that occurred — not the 25 ms midpoint); p99 → index 3 → 40 ms.
        let mut even = vec![ms(40), ms(10), ms(30), ms(20)];
        let stats = LatencyStats::from_sample(&mut even).unwrap();
        assert_eq!(stats.p50_ms, 30.0);
        assert_eq!(stats.p99_ms, 40.0);
        assert!((stats.mean_ms - 25.0).abs() < 1e-9);

        // A single sample is every percentile at once.
        let mut one = vec![ms(7)];
        let stats = LatencyStats::from_sample(&mut one).unwrap();
        assert_eq!(stats.p50_ms, 7.0);
        assert_eq!(stats.p99_ms, 7.0);
        assert_eq!(stats.mean_ms, 7.0);

        // A large sample pins p99 away from the max: 1..=100 ms sorted,
        // p99 → index round(99 * 0.99) = 98 → 99 ms.
        let mut hundred: Vec<Duration> = (1..=100).rev().map(ms).collect();
        let stats = LatencyStats::from_sample(&mut hundred).unwrap();
        assert_eq!(stats.p50_ms, 51.0); // index round(99 * 0.5) = 50
        assert_eq!(stats.p99_ms, 99.0);

        // No completions → no distribution, not a zero-latency miracle.
        assert!(LatencyStats::from_sample(&mut []).is_none());
    }

    #[test]
    fn routed_specs_validate_round_trip_and_rewrite_dials() {
        let mut spec = DeploySpec::loopback(Protocol::WhiteBox, 1, 3, 1, 7900);
        // Route every link through a distinct fake proxy port; the diagonal
        // holds a placeholder that must be ignored.
        let n = spec.addrs.len();
        spec.routes = Some(
            (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            if i == j {
                                "self".to_string()
                            } else {
                                format!("127.0.0.1:{}", 8900 + (i * n + j) as u16)
                            }
                        })
                        .collect()
                })
                .collect(),
        );
        spec.validate().unwrap();
        let back = DeploySpec::from_json(&spec.to_json().unwrap()).unwrap();
        assert_eq!(back, spec);

        let map = spec.dial_map(ProcessId(1)).unwrap();
        // Own entry is the listen address, untouched by routing.
        assert_eq!(map[&ProcessId(1)], "127.0.0.1:7901".parse().unwrap());
        // Peers are dialled through the routed addresses (row 1).
        assert_eq!(map[&ProcessId(0)], "127.0.0.1:8904".parse().unwrap());
        assert_eq!(map[&ProcessId(3)], "127.0.0.1:8907".parse().unwrap());
        assert!(spec.dial_map(ProcessId(9)).is_err());

        // Without routes, dial_map degenerates to addr_map.
        let direct = DeploySpec::loopback(Protocol::WhiteBox, 1, 3, 1, 7900);
        assert_eq!(
            direct.dial_map(ProcessId(1)).unwrap(),
            direct.addr_map().unwrap()
        );

        // A legacy spec JSON without the routes field parses as unrouted.
        let legacy = DeploySpec::loopback(Protocol::WhiteBox, 1, 3, 1, 7900);
        let back = DeploySpec::from_json(&legacy.to_json().unwrap()).unwrap();
        assert_eq!(back.routes, None);
    }

    #[test]
    fn malformed_routes_are_rejected() {
        let base = DeploySpec::loopback(Protocol::WhiteBox, 1, 3, 1, 8000);
        let n = base.addrs.len();
        let square = |addr: &str| -> Vec<Vec<String>> { vec![vec![addr.to_string(); n]; n] };

        let mut spec = base.clone();
        spec.routes = Some(square("127.0.0.1:9000"));
        spec.routes.as_mut().unwrap().pop(); // wrong row count
        assert!(spec.validate().is_err());

        let mut spec = base.clone();
        spec.routes = Some(square("127.0.0.1:9000"));
        spec.routes.as_mut().unwrap()[2].pop(); // ragged row
        assert!(spec.validate().is_err());

        let mut spec = base.clone();
        spec.routes = Some(square("127.0.0.1:9000"));
        spec.routes.as_mut().unwrap()[1][2] = "bogus".to_string();
        assert!(spec.validate().is_err());

        // ...but a bogus diagonal entry is fine: it is never dialled.
        let mut spec = base;
        spec.routes = Some(square("127.0.0.1:9000"));
        spec.routes.as_mut().unwrap()[1][1] = "bogus".to_string();
        spec.validate().unwrap();
    }

    #[test]
    fn delivery_lines_round_trip() {
        let line = DeliveryLine::new(
            ProcessId(2),
            wbam_types::MsgId::new(ProcessId(6), 41),
            Some(Timestamp::new(17, GroupId(1))),
            Duration::from_millis(1500),
        );
        let json = to_json(&line).unwrap();
        let back: DeliveryLine = from_json(&json).unwrap();
        assert_eq!(back, line);
        assert_eq!(back.msg_id(), wbam_types::MsgId::new(ProcessId(6), 41));
        assert_eq!(back.gts_time, 17);
    }

    #[test]
    fn written_delivery_lines_equal_the_json_printer_output() {
        let mut lines = vec![
            DeliveryLine {
                process: 0,
                sender: 0,
                seq: 0,
                gts_time: 0,
                gts_group: 0,
                elapsed_ms: 0.0,
            },
            DeliveryLine {
                process: u32::MAX,
                sender: u32::MAX,
                seq: u64::MAX,
                gts_time: u64::MAX,
                gts_group: u32::MAX,
                elapsed_ms: 1e21,
            },
        ];
        // Elapsed times with and without a fractional part, tiny and large.
        for (i, elapsed_ms) in [1500.0, 12.5, 0.001, 2.5e-9, 86_400_000.0, 0.1 + 0.2]
            .into_iter()
            .enumerate()
        {
            lines.push(DeliveryLine {
                process: i as u32,
                sender: 6,
                seq: 41 * i as u64,
                gts_time: 12_345_678_901,
                gts_group: if i % 2 == 0 { u32::MAX } else { 1 },
                elapsed_ms,
            });
        }
        lines.push(DeliveryLine::new(
            ProcessId(2),
            wbam_types::MsgId::new(ProcessId(6), 41),
            None,
            Duration::from_nanos(1_234_567),
        ));
        let mut out = Vec::new();
        for line in &lines {
            out.clear();
            line.write_json(&mut out);
            assert_eq!(
                String::from_utf8(out.clone()).unwrap(),
                to_json(line).unwrap()
            );
        }
    }
}
