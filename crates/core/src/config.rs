//! Configuration of white-box multicast replicas and clients.

use std::time::Duration;

use wbam_types::{ClusterConfig, GroupId, ProcessId};

/// Configuration of a [`WhiteBoxReplica`](crate::WhiteBoxReplica).
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The identity of this replica.
    pub id: ProcessId,
    /// The group this replica belongs to (`g0` in the paper's pseudocode).
    pub group: GroupId,
    /// The static cluster topology.
    pub cluster: ClusterConfig,
    /// How long a leader waits for a pending (proposed/accepted) message to
    /// commit before re-sending `MULTICAST` to all destination leaders
    /// (the `retry(m)` function of Figure 4, line 32).
    pub retry_timeout: Duration,
    /// Interval at which a leader sends heartbeats to its followers; also the
    /// granularity of follower-side leader monitoring. Set to zero to disable
    /// the built-in leader-election oracle (tests then drive elections
    /// explicitly via [`Event::BecomeLeader`](wbam_types::Event::BecomeLeader)).
    pub heartbeat_interval: Duration,
    /// How long a follower waits without hearing from its leader before it
    /// suspects the leader and starts recovery. Followers further down the
    /// group member list wait proportionally longer, so that a single
    /// follower takes over first.
    pub election_timeout: Duration,
    /// Paper Figure 4, line 14: on receiving a full set of `ACCEPT`s, advance
    /// the clock past the (future) global timestamp *speculatively*, before
    /// the timestamps are known to be durable. Disabling this reproduces the
    /// behaviour of black-box designs whose failure-free latency degrades to
    /// roughly twice the collision-free latency; it exists only for the
    /// ablation experiment A1 and must stay `true` in production use.
    pub speculative_clock_update: bool,
    /// Record compaction: every `compaction_interval` deliveries a member
    /// reports its delivery progress to its leader (`STABLE_REPORT`), the
    /// leader recomputes the group's delivery watermark and disseminates it
    /// (`STABLE_ADVANCE`), and records below the watermark of *every* one of
    /// their destination groups are pruned. Zero (the default) disables
    /// compaction and keeps the unbounded paper behaviour.
    pub compaction_interval: u64,
    /// How many of the most recently delivered records are retained even when
    /// the watermark covers them — a service window for duplicate
    /// `MULTICAST`s that can still be answered from the record map (older
    /// duplicates fall back to the bounded delivered-message filter).
    pub compaction_lag: usize,
}

impl ReplicaConfig {
    /// Creates a replica configuration with sensible defaults for timeouts.
    ///
    /// Defaults: 100 ms retry timeout, 50 ms
    /// heartbeats, 250 ms election timeout, speculative clock update enabled.
    pub fn new(id: ProcessId, group: GroupId, cluster: ClusterConfig) -> Self {
        ReplicaConfig {
            id,
            group,
            cluster,
            retry_timeout: Duration::from_millis(100),
            heartbeat_interval: Duration::from_millis(50),
            election_timeout: Duration::from_millis(250),
            speculative_clock_update: true,
            compaction_interval: 0,
            compaction_lag: 0,
        }
    }

    /// Enables record compaction: delivery watermarks are exchanged every
    /// `interval` deliveries and delivered records below every destination
    /// group's watermark are pruned, keeping the most recent `lag` delivered
    /// records resident as a duplicate-service window. A zero `interval`
    /// disables compaction (the paper's unbounded behaviour).
    pub fn with_compaction(mut self, interval: u64, lag: usize) -> Self {
        self.compaction_interval = interval;
        self.compaction_lag = lag;
        self
    }

    /// Disables the built-in heartbeat/election machinery; leader changes then
    /// only happen when the runtime injects
    /// [`Event::BecomeLeader`](wbam_types::Event::BecomeLeader).
    pub fn without_auto_election(mut self) -> Self {
        self.heartbeat_interval = Duration::ZERO;
        self
    }

    /// Disables the speculative clock update of Figure 4 line 14 (ablation A1).
    pub fn without_speculative_clock_update(mut self) -> Self {
        self.speculative_clock_update = false;
        self
    }

    /// Sets the retry timeout.
    pub fn with_retry_timeout(mut self, timeout: Duration) -> Self {
        self.retry_timeout = timeout;
        self
    }

    /// Sets heartbeat interval and election timeout together.
    pub fn with_election_timeouts(mut self, heartbeat: Duration, election: Duration) -> Self {
        self.heartbeat_interval = heartbeat;
        self.election_timeout = election;
        self
    }

    /// Whether the automatic leader election machinery is enabled.
    pub fn auto_election_enabled(&self) -> bool {
        !self.heartbeat_interval.is_zero()
    }
}

/// Configuration of a [`MulticastClient`](crate::MulticastClient).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The identity of this client.
    pub id: ProcessId,
    /// The static cluster topology.
    pub cluster: ClusterConfig,
    /// How long the client waits for a delivery reply before re-sending the
    /// `MULTICAST` message. On the first retry the client falls back to
    /// sending to *all* members of each destination group, which also handles
    /// leader changes it has not heard about.
    pub retry_timeout: Duration,
}

impl ClientConfig {
    /// Creates a client configuration with a 500 ms retry timeout.
    pub fn new(id: ProcessId, cluster: ClusterConfig) -> Self {
        ClientConfig {
            id,
            cluster,
            retry_timeout: Duration::from_millis(500),
        }
    }

    /// Sets the retry timeout.
    pub fn with_retry_timeout(mut self, timeout: Duration) -> Self {
        self.retry_timeout = timeout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterConfig {
        ClusterConfig::builder().groups(2, 3).clients(1).build()
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = ReplicaConfig::new(ProcessId(0), GroupId(0), cluster());
        assert!(cfg.speculative_clock_update);
        assert!(cfg.auto_election_enabled());
        assert!(cfg.retry_timeout > Duration::ZERO);
    }

    #[test]
    fn builder_style_modifiers() {
        let cfg = ReplicaConfig::new(ProcessId(0), GroupId(0), cluster())
            .without_auto_election()
            .without_speculative_clock_update()
            .with_retry_timeout(Duration::from_millis(7));
        assert!(!cfg.auto_election_enabled());
        assert!(!cfg.speculative_clock_update);
        assert_eq!(cfg.retry_timeout, Duration::from_millis(7));
    }

    #[test]
    fn election_timeouts_setter() {
        let cfg = ReplicaConfig::new(ProcessId(0), GroupId(0), cluster())
            .with_election_timeouts(Duration::from_millis(10), Duration::from_millis(40));
        assert_eq!(cfg.heartbeat_interval, Duration::from_millis(10));
        assert_eq!(cfg.election_timeout, Duration::from_millis(40));
    }

    #[test]
    fn client_config_defaults() {
        let cfg = ClientConfig::new(ProcessId(6), cluster())
            .with_retry_timeout(Duration::from_millis(123));
        assert_eq!(cfg.retry_timeout, Duration::from_millis(123));
        assert_eq!(cfg.id, ProcessId(6));
    }
}
