//! Simulated clusters of any protocol family.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use wbam_core::invariants::SentMessage;
use wbam_core::WhiteBoxReplica;
use wbam_runtime::SentRecord;
use wbam_simnet::{DeliveryRecord, LatencyModel, MetricsView, NetStats, SimConfig, Simulation};
use wbam_types::{
    AppMessage, ClusterConfig, ConfigError, DeliveryProgress, Destination, GroupId, MsgId,
    NemesisPlan, Payload, ProcessId, SiteId, Timestamp,
};

use crate::family::{Family, FamilyVisitor, NodeSpec, ReplicaView};

/// The protocols the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// The paper's white-box atomic multicast (3δ / 5δ).
    WhiteBox,
    /// FastCast, Coelho et al. DSN 2017 (4δ / 8δ).
    FastCast,
    /// Fault-tolerant Skeen over consensus (6δ / 12δ).
    FtSkeen,
    /// Plain Skeen's protocol with singleton reliable groups (2δ / 4δ);
    /// only valid when `group_size == 1`.
    Skeen,
}

impl Protocol {
    /// Short name used in experiment output, matching the paper's labels.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::WhiteBox => "WbCast",
            Protocol::FastCast => "FastCast",
            Protocol::FtSkeen => "Skeen",
            Protocol::Skeen => "Skeen1",
        }
    }

    /// All fault-tolerant protocols compared in Figures 7 and 8.
    pub fn evaluated() -> [Protocol; 3] {
        [Protocol::WhiteBox, Protocol::FastCast, Protocol::FtSkeen]
    }
}

/// Topology and environment of a simulated experiment.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of multicast groups.
    pub num_groups: usize,
    /// Replicas per group (`2f + 1`).
    pub group_size: usize,
    /// Number of client processes generating load.
    pub num_clients: usize,
    /// Number of sites replicas are spread over (1 = LAN; 3 = the paper's WAN).
    pub num_sites: u32,
    /// One-way message delay model.
    pub latency: LatencyModel,
    /// CPU time a replica spends handling one protocol message.
    pub service_time: Duration,
    /// Random seed.
    pub seed: u64,
    /// Fault schedule injected into the run (crashes/restarts, partitions,
    /// probabilistic link faults, timer jitter). Quiet by default.
    pub nemesis: NemesisPlan,
    /// Record the protocol-message trace, as required by the Figure 6
    /// invariant checkers. Off by default (costs memory on long runs).
    pub record_trace: bool,
    /// Run white-box replicas with their built-in heartbeat/election oracle
    /// (150 ms heartbeats, 750 ms rank-staggered election timeout) instead of
    /// externally injected leader changes. Off by default: the figure
    /// benchmarks drive failovers explicitly and should not pay for
    /// heartbeat traffic. The schedule explorer turns it on — under random
    /// crashes and restarts only the protocol's own failure detector
    /// reliably re-elects and re-synchronises groups.
    pub auto_election: bool,
    /// Record compaction: deliveries between `STABLE` watermark exchanges.
    /// Zero (every constructor's default) disables compaction — the paper's
    /// unbounded behaviour. Applies to the white-box protocol and both
    /// consensus baselines (which additionally trim their Paxos logs).
    pub compaction_interval: u64,
    /// Most recently delivered records retained below the watermark (the
    /// duplicate-service window); only meaningful with a non-zero interval.
    pub compaction_lag: usize,
}

impl ClusterSpec {
    /// The LAN environment of Figure 7: 10 groups × 3 replicas, ~0.05 ms
    /// one-way delay, 10 µs per-message CPU time.
    pub fn lan(num_clients: usize) -> Self {
        ClusterSpec {
            num_groups: 10,
            group_size: 3,
            num_clients,
            num_sites: 1,
            latency: LatencyModel::lan(),
            service_time: Duration::from_micros(10),
            seed: 42,
            nemesis: NemesisPlan::quiet(),
            record_trace: false,
            auto_election: false,
            compaction_interval: 0,
            compaction_lag: 0,
        }
    }

    /// The WAN environment of Figure 8: 10 groups × 3 replicas spread over
    /// three sites with the paper's inter-region delays.
    pub fn wan(num_clients: usize) -> Self {
        ClusterSpec {
            num_groups: 10,
            group_size: 3,
            num_clients,
            num_sites: 3,
            latency: LatencyModel::wan_three_sites(),
            service_time: Duration::from_micros(10),
            seed: 42,
            nemesis: NemesisPlan::quiet(),
            record_trace: false,
            auto_election: false,
            compaction_interval: 0,
            compaction_lag: 0,
        }
    }

    /// A small cluster with a constant one-way delay δ, used by the latency
    /// probes and the analytical experiments.
    pub fn constant_delta(num_groups: usize, group_size: usize, delta: Duration) -> Self {
        ClusterSpec {
            num_groups,
            group_size,
            num_clients: 1,
            num_sites: 1,
            latency: LatencyModel::constant(delta),
            service_time: Duration::ZERO,
            seed: 7,
            nemesis: NemesisPlan::quiet(),
            record_trace: false,
            auto_election: false,
            compaction_interval: 0,
            compaction_lag: 0,
        }
    }

    /// Returns the spec with record compaction enabled: replicas exchange
    /// delivery watermarks every `interval` deliveries and prune records
    /// (and, for the baselines, the consensus-log prefix) below the watermark
    /// of every destination group, keeping the `lag` most recent delivered
    /// records resident. This is what bounds replica memory on long runs;
    /// recovery of a restarted or lagging replica becomes checkpoint-based
    /// state transfer instead of per-message replay.
    pub fn with_compaction(mut self, interval: u64, lag: usize) -> Self {
        self.compaction_interval = interval;
        self.compaction_lag = lag;
        self
    }

    /// Builds the corresponding static cluster configuration.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut b = ClusterConfig::builder()
            .groups(self.num_groups, self.group_size)
            .clients(self.num_clients);
        if self.num_sites > 1 {
            b = b
                .spread_over_sites(self.num_sites)
                .clients_at_site(SiteId(0));
        }
        b.build()
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            latency: self.latency.clone(),
            service_time: self.service_time,
            record_trace: self.record_trace,
            nemesis: self.nemesis.clone(),
        }
    }

    /// What the simulator passes to every family's constructors: WbCast's
    /// built-in elections at 150 ms heartbeats and a 750 ms timeout when
    /// `auto_election` is set, `ReplicaConfig`'s replica retry, and 2 s
    /// client retries.
    fn node_spec(&self) -> NodeSpec {
        NodeSpec {
            cluster: self.cluster_config(),
            elections: self
                .auto_election
                .then_some((Duration::from_millis(150), Duration::from_millis(750))),
            replica_retry: None,
            client_retry: CLIENT_RETRY_TIMEOUT,
            compaction_interval: self.compaction_interval,
            compaction_lag: self.compaction_lag,
        }
    }
}

/// Client retry timeout of every protocol's simulated clients (2 s of
/// simulated time): well above any simulated delivery latency, so
/// failure-free runs never retry, and short enough that the retry fallbacks
/// fire well inside the horizons used by failover scenarios.
const CLIENT_RETRY_TIMEOUT: Duration = Duration::from_secs(2);

/// A family's [`Simulation`] with its message type erased, so that
/// [`ProtocolSim`] is written once for every protocol.
trait ErasedSim {
    fn now(&self) -> Duration;
    fn stats(&self) -> NetStats;
    fn metrics(&self) -> MetricsView;
    fn deliveries(&self) -> &[DeliveryRecord];
    fn node(&self, p: ProcessId) -> Option<&dyn Any>;
    fn replica(&self, p: ProcessId) -> Option<ReplicaView<'_>>;
    fn checker_trace(&self) -> Option<Vec<SentMessage>>;
    fn schedule_multicast(&mut self, at: Duration, from: ProcessId, msg: AppMessage);
    fn schedule_crash(&mut self, at: Duration, p: ProcessId);
    fn schedule_restart(&mut self, at: Duration, p: ProcessId);
    fn schedule_become_leader(&mut self, at: Duration, p: ProcessId);
    fn step(&mut self) -> bool;
    fn run_until_quiescent(&mut self, horizon: Duration);
}

struct FamilySim<F: Family> {
    family: F,
    sim: Simulation<F::Msg>,
}

impl<F: Family> ErasedSim for FamilySim<F> {
    fn now(&self) -> Duration {
        self.sim.now()
    }
    fn stats(&self) -> NetStats {
        self.sim.stats()
    }
    fn metrics(&self) -> MetricsView {
        self.sim.metrics()
    }
    fn deliveries(&self) -> &[DeliveryRecord] {
        self.sim.deliveries()
    }
    fn node(&self, p: ProcessId) -> Option<&dyn Any> {
        self.sim.node(p)?.as_any()
    }
    fn replica(&self, p: ProcessId) -> Option<ReplicaView<'_>> {
        self.family.replica(self.node(p)?)
    }
    fn checker_trace(&self) -> Option<Vec<SentMessage>> {
        let trace = self.sim.trace().iter();
        self.family.checker_trace(trace.map(|e| SentRecord {
            from: e.from,
            to: e.to,
            msg: e.msg.clone(),
        }))
    }
    fn schedule_multicast(&mut self, at: Duration, from: ProcessId, msg: AppMessage) {
        self.sim.schedule_multicast(at, from, msg);
    }
    fn schedule_crash(&mut self, at: Duration, p: ProcessId) {
        self.sim.schedule_crash(at, p);
    }
    fn schedule_restart(&mut self, at: Duration, p: ProcessId) {
        self.sim.schedule_restart(at, p);
    }
    fn schedule_become_leader(&mut self, at: Duration, p: ProcessId) {
        self.sim.schedule_become_leader(at, p);
    }
    fn step(&mut self) -> bool {
        self.sim.step().is_some()
    }
    fn run_until_quiescent(&mut self, horizon: Duration) {
        self.sim.run_until_quiescent(horizon);
    }
}

/// Builds the simulation of a [`ClusterSpec`]: replicas group by group,
/// then clients ([`ClusterConfig::all_processes`]).
struct Build<'a>(&'a ClusterSpec);

impl FamilyVisitor for Build<'_> {
    type Output = Result<Box<dyn ErasedSim>, ConfigError>;

    fn visit<F: Family>(self, family: F) -> Self::Output {
        let spec = self.0.node_spec();
        let cluster = &spec.cluster;
        let mut sim = Simulation::new(self.0.sim_config());
        for p in cluster.all_processes() {
            let node = family.node(&spec, p)?;
            match cluster.group_of(p) {
                Some(group) => sim.add_replica(node, group, cluster.site_of(p)),
                None => sim.add_client_at(node, cluster.site_of(p)),
            };
        }
        Ok(Box::new(FamilySim { family, sim }))
    }
}

/// A simulated cluster running one protocol, with a protocol-independent API
/// for submitting multicasts and reading metrics.
pub struct ProtocolSim {
    protocol: Protocol,
    cluster: ClusterConfig,
    inner: Box<dyn ErasedSim>,
    next_seq: Vec<u64>,
    delivery_cursor: usize,
}

impl ProtocolSim {
    /// Builds a cluster of `spec` running `protocol`.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` is [`Protocol::Skeen`] and the group size is not
    /// 1, or if the spec produces a misconfigured replica (see
    /// [`Self::try_build`]).
    pub fn build(protocol: Protocol, spec: &ClusterSpec) -> Self {
        Self::try_build(protocol, spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a cluster of `spec` running `protocol`, reporting replica
    /// misconfigurations as a typed [`ConfigError`] instead of aborting (the
    /// schedule explorer turns these into findings).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] produced by a replica constructor.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` is [`Protocol::Skeen`] and the group size is not 1.
    pub fn try_build(protocol: Protocol, spec: &ClusterSpec) -> Result<Self, ConfigError> {
        let cluster = spec.cluster_config();
        Ok(ProtocolSim {
            protocol,
            next_seq: vec![0; cluster.clients().len()],
            cluster,
            inner: protocol.visit(Build(spec))?,
            delivery_cursor: 0,
        })
    }

    /// The protocol this cluster runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The static cluster configuration.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Current simulated time.
    pub fn now(&self) -> Duration {
        self.inner.now()
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    /// Metrics view over the run so far. With compaction-capable protocols
    /// the view carries resident-record gauges: `live_records_max` /
    /// `live_records_total` over all replicas, plus `pruned_total`.
    pub fn metrics(&self) -> MetricsView {
        let mut metrics = self.inner.metrics();
        let views: Vec<ReplicaView<'_>> = self.replicas().map(|(_, r)| r).collect();
        if !views.is_empty() {
            let live = views.iter().map(|r| r.live_records);
            let pruned: u64 = views.iter().map(|r| r.progress.pruned_count()).sum();
            metrics.set_gauge("live_records_max", live.clone().max().unwrap_or(0) as f64);
            metrics.set_gauge("live_records_total", live.sum::<usize>() as f64);
            metrics.set_gauge("pruned_total", pruned as f64);
        }
        metrics
    }

    /// Every replica whose family exposes its state, in group order.
    fn replicas(&self) -> impl Iterator<Item = (ProcessId, ReplicaView<'_>)> {
        let members = self.cluster.groups().iter().flat_map(|g| g.members());
        members.filter_map(|&p| Some((p, self.inner.replica(p)?)))
    }

    /// A replica's delivery progress (`None` for clients, unknown processes
    /// and plain Skeen, which keeps none).
    pub fn progress(&self, p: ProcessId) -> Option<&DeliveryProgress> {
        self.inner.replica(p).map(|r| r.progress)
    }

    /// Number of message records resident at a replica (`None` where
    /// [`Self::progress`] is).
    pub fn live_records(&self, p: ProcessId) -> Option<usize> {
        self.inner.replica(p).map(|r| r.live_records)
    }

    /// Window slots a replica's record store has allocated: its footprint
    /// beyond the records themselves (`None` where [`Self::progress`] is).
    pub fn record_slots(&self, p: ProcessId) -> Option<usize> {
        self.inner.replica(p).map(|r| r.record_slots)
    }

    /// Per-replica excusal watermarks for the linearizability oracle: for
    /// every replica that recovered via checkpoint state transfer, the
    /// watermark its delivery progress was jumped to. History at or below it
    /// was installed, not replayed — pass this to
    /// [`KvHistory::check_excusing`](wbam_kvstore::KvHistory::check_excusing).
    pub fn transfer_excusals(&self) -> BTreeMap<ProcessId, Timestamp> {
        self.replicas()
            .map(|(p, r)| (p, r.progress.transfer_excused_below()))
            .filter(|(_, excused)| *excused > Timestamp::BOTTOM)
            .collect()
    }

    /// Per-replica sets of messages dropped on a `STABLE_PRUNED` notice —
    /// globally delivered history the replica will never apply locally. Pass
    /// alongside [`Self::transfer_excusals`] to
    /// [`KvHistory::check_excusing`](wbam_kvstore::KvHistory::check_excusing);
    /// the excusal is per message, so any other missed delivery stays a
    /// violation.
    pub fn drop_excusals(&self) -> BTreeMap<ProcessId, BTreeSet<MsgId>> {
        let members = self.cluster.groups().iter().flat_map(|g| g.members());
        members
            .filter_map(|&p| {
                let replica: &WhiteBoxReplica = self.inner.node(p)?.downcast_ref()?;
                Some((p, replica.pruned_dropped()))
            })
            .filter(|(_, dropped)| !dropped.is_empty())
            .map(|(p, dropped)| (p, dropped.clone()))
            .collect()
    }

    /// Per replica, the `DELIVER`s it refused for messages it never
    /// delivered ([`crate::explore::Observed::lost_deliveries`]); replicas
    /// with none are left out.
    pub fn lost_deliveries(&self) -> BTreeMap<ProcessId, u64> {
        self.replicas()
            .map(|(p, r)| (p, r.progress.lost_deliveries()))
            .filter(|(_, lost)| *lost > 0)
            .collect()
    }

    /// Submits a multicast from client `client_index` at time `at`, addressed
    /// to `dest`, with a zero-filled payload of `payload_len` bytes.
    /// Returns the message identifier.
    pub fn submit(
        &mut self,
        at: Duration,
        client_index: usize,
        dest: &[GroupId],
        payload_len: usize,
    ) -> MsgId {
        self.submit_with_payload(at, client_index, dest, vec![0u8; payload_len])
    }

    /// Submits a multicast carrying an application-defined payload (for
    /// example an encoded key-value-store command).
    pub fn submit_with_payload(
        &mut self,
        at: Duration,
        client_index: usize,
        dest: &[GroupId],
        payload: Vec<u8>,
    ) -> MsgId {
        let client = self.cluster.clients()[client_index];
        let seq = self.next_seq[client_index];
        self.next_seq[client_index] += 1;
        let id = MsgId::new(client, seq);
        let msg = AppMessage::new(
            id,
            Destination::new(dest.iter().copied()).expect("non-empty destination"),
            Payload::from(payload),
        );
        self.inner.schedule_multicast(at, client, msg);
        id
    }

    /// Schedules a crash of `process` at `at`.
    pub fn crash(&mut self, at: Duration, process: ProcessId) {
        self.inner.schedule_crash(at, process);
    }

    /// Schedules a restart of a crashed `process` at `at` (see
    /// [`Simulation::schedule_restart`]).
    pub fn restart(&mut self, at: Duration, process: ProcessId) {
        self.inner.schedule_restart(at, process);
    }

    /// All deliveries recorded so far (replica deliveries carry their group;
    /// client completions have `group == None`).
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        self.inner.deliveries()
    }

    /// The recorded white-box protocol trace, as consumed by the Figure 6
    /// invariant checkers in `wbam_core::invariants`. Returns `None` for
    /// other protocols; empty unless the spec enabled
    /// [`record_trace`](ClusterSpec::record_trace).
    pub fn whitebox_trace(&self) -> Option<Vec<SentMessage>> {
        self.inner.checker_trace()
    }

    /// Tells `process` to start leader recovery at `at` (white-box protocol).
    pub fn become_leader(&mut self, at: Duration, process: ProcessId) {
        self.inner.schedule_become_leader(at, process);
    }

    /// Processes a single pending event. Returns `false` when the simulation
    /// is quiescent.
    pub fn step(&mut self) -> bool {
        self.inner.step()
    }

    /// Runs until quiescent or until simulated time passes `horizon`.
    pub fn run_until_quiescent(&mut self, horizon: Duration) {
        self.inner.run_until_quiescent(horizon);
    }

    /// Drains newly observed *client completions*: deliveries recorded at
    /// client processes (the client's view of "my multicast finished").
    /// Returns `(client process, message)` pairs in observation order.
    pub fn drain_client_completions(&mut self) -> Vec<(ProcessId, MsgId)> {
        let records = self.inner.deliveries();
        let mut out = Vec::new();
        while self.delivery_cursor < records.len() {
            let rec = &records[self.delivery_cursor];
            self.delivery_cursor += 1;
            if rec.group.is_none() {
                out.push((rec.process, rec.msg_id));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Protocol::WhiteBox.label(), "WbCast");
        assert_eq!(Protocol::FastCast.label(), "FastCast");
        assert_eq!(Protocol::FtSkeen.label(), "Skeen");
        assert_eq!(Protocol::evaluated().len(), 3);
    }

    #[test]
    fn lan_and_wan_specs_match_the_evaluation_setup() {
        let lan = ClusterSpec::lan(100);
        assert_eq!(lan.num_groups, 10);
        assert_eq!(lan.group_size, 3);
        assert_eq!(lan.num_sites, 1);
        let wan = ClusterSpec::wan(100);
        assert_eq!(wan.num_sites, 3);
        let cfg = wan.cluster_config();
        // Each group has one replica per site.
        let g0 = cfg.group(GroupId(0)).unwrap();
        let sites: Vec<SiteId> = g0.members().iter().map(|m| cfg.site_of(*m)).collect();
        assert_eq!(sites, vec![SiteId(0), SiteId(1), SiteId(2)]);
    }

    #[test]
    fn whitebox_cluster_delivers_a_multicast() {
        let spec = ClusterSpec::constant_delta(2, 3, Duration::from_millis(5));
        let mut sim = ProtocolSim::build(Protocol::WhiteBox, &spec);
        let id = sim.submit(Duration::ZERO, 0, &[GroupId(0), GroupId(1)], 20);
        sim.run_until_quiescent(Duration::from_secs(5));
        assert!(sim.metrics().is_partially_delivered(id));
        let completions = sim.drain_client_completions();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].1, id);
    }

    #[test]
    fn all_three_evaluated_protocols_deliver() {
        for protocol in Protocol::evaluated() {
            let spec = ClusterSpec::constant_delta(3, 3, Duration::from_millis(2));
            let mut sim = ProtocolSim::build(protocol, &spec);
            let id = sim.submit(Duration::ZERO, 0, &[GroupId(0), GroupId(2)], 20);
            sim.run_until_quiescent(Duration::from_secs(5));
            assert!(
                sim.metrics().is_partially_delivered(id),
                "{} failed to deliver",
                protocol.label()
            );
        }
    }

    #[test]
    fn skeen_cluster_requires_singleton_groups() {
        let spec = ClusterSpec::constant_delta(3, 1, Duration::from_millis(1));
        let mut sim = ProtocolSim::build(Protocol::Skeen, &spec);
        let id = sim.submit(Duration::ZERO, 0, &[GroupId(0), GroupId(1)], 20);
        sim.run_until_quiescent(Duration::from_secs(5));
        assert!(sim.metrics().is_partially_delivered(id));
    }

    #[test]
    #[should_panic(expected = "singleton")]
    fn skeen_with_replicated_groups_panics() {
        let spec = ClusterSpec::constant_delta(2, 3, Duration::from_millis(1));
        let _ = ProtocolSim::build(Protocol::Skeen, &spec);
    }
}
