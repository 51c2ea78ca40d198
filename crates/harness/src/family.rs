//! The protocol families, each defined once for every engine.
//!
//! A [`Family`] names a protocol's message type, builds the node a process id
//! plays from one [`NodeSpec`], reads a replica's [`DeliveryProgress`] and
//! record gauges, and, for WbCast, converts sent messages for the Figure 6
//! checkers. [`Protocol::visit`] is the one place that picks a family; the
//! simulator, the deterministic runtime and `wbamd` are each written once,
//! generic over it, and differ only in the timers they put in the
//! [`NodeSpec`] (DESIGN.md, "Layering", tabulates them).

use std::any::Any;
use std::time::Duration;

use serde::de::DeserializeOwned;
use serde::Serialize;
use wbam_baselines::{BaselineClient, BaselineMsg, BaselineReplica, Mode};
use wbam_core::invariants::SentMessage;
use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
use wbam_runtime::{BoxedNode, SentRecord};
use wbam_skeen::{SkeenClient, SkeenMsg, SkeenProcess};
use wbam_types::{ClusterConfig, ConfigError, DeliveryProgress, ProcessId};

use crate::cluster::Protocol;

/// Everything a family's constructors read: the cluster, the timers an
/// engine passes and record compaction. Built by
/// [`ClusterSpec`](crate::ClusterSpec) and [`DeploySpec`](crate::DeploySpec)
/// only.
#[derive(Debug)]
pub struct NodeSpec {
    pub(crate) cluster: ClusterConfig,
    /// WbCast's heartbeat interval and election timeout; `None` disables
    /// its built-in leader election.
    pub(crate) elections: Option<(Duration, Duration)>,
    /// WbCast's replica retry timeout; `None` keeps `ReplicaConfig`'s
    /// default.
    pub(crate) replica_retry: Option<Duration>,
    pub(crate) client_retry: Duration,
    pub(crate) compaction_interval: u64,
    pub(crate) compaction_lag: usize,
}

/// What the engines read of one replica's state.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaView<'a> {
    /// The replica's delivery progress.
    pub progress: &'a DeliveryProgress,
    /// Message records resident at the replica.
    pub live_records: usize,
    /// Window slots its record store has allocated.
    pub record_slots: usize,
}

/// One protocol family: its message type, its nodes and what the engines
/// inspect of them.
pub trait Family: 'static {
    /// The family's wire message type.
    type Msg: Clone + Send + Serialize + DeserializeOwned + 'static;

    /// Builds the node process `id` plays: the replica of its group, or a
    /// client when it belongs to none.
    ///
    /// # Errors
    ///
    /// Returns the replica constructor's [`ConfigError`].
    fn node(&self, spec: &NodeSpec, id: ProcessId) -> Result<BoxedNode<Self::Msg>, ConfigError>;

    /// The state of a replica node, reached through
    /// [`Node::as_any`](wbam_types::Node::as_any); `None` for clients and
    /// for families that keep no delivery progress.
    fn replica<'a>(&self, _node: &'a dyn Any) -> Option<ReplicaView<'a>> {
        None
    }

    /// The messages a run sent, converted for the Figure 6 checkers, which
    /// read WbCast's wire format only: `None` for the other families.
    fn checker_trace(
        &self,
        _sent: impl Iterator<Item = SentRecord<Self::Msg>>,
    ) -> Option<Vec<SentMessage>> {
        None
    }
}

/// A computation generic over the protocol family, run by
/// [`Protocol::visit`].
pub trait FamilyVisitor {
    /// What the computation returns.
    type Output;

    /// Runs the computation for `family`.
    fn visit<F: Family>(self, family: F) -> Self::Output;
}

impl Protocol {
    /// Runs `visitor` with this protocol's family.
    pub fn visit<V: FamilyVisitor>(self, visitor: V) -> V::Output {
        match self {
            Protocol::WhiteBox => visitor.visit(WbCast),
            Protocol::FastCast => visitor.visit(Baselines(Mode::FastCast)),
            Protocol::FtSkeen => visitor.visit(Baselines(Mode::FtSkeen)),
            Protocol::Skeen => visitor.visit(Skeen),
        }
    }
}

/// The paper's white-box atomic multicast.
#[derive(Debug)]
pub(crate) struct WbCast;

impl WbCast {
    /// The WbCast client process `id`.
    pub(crate) fn client(spec: &NodeSpec, id: ProcessId) -> MulticastClient {
        MulticastClient::new(
            ClientConfig::new(id, spec.cluster.clone()).with_retry_timeout(spec.client_retry),
        )
    }
}

impl Family for WbCast {
    type Msg = WhiteBoxMsg;

    fn node(&self, spec: &NodeSpec, id: ProcessId) -> Result<BoxedNode<WhiteBoxMsg>, ConfigError> {
        let Some(group) = spec.cluster.group_of(id) else {
            return Ok(Box::new(Self::client(spec, id)));
        };
        let mut cfg = ReplicaConfig::new(id, group, spec.cluster.clone())
            .with_compaction(spec.compaction_interval, spec.compaction_lag);
        if let Some(retry) = spec.replica_retry {
            cfg = cfg.with_retry_timeout(retry);
        }
        cfg = match spec.elections {
            Some((heartbeat, election)) => cfg.with_election_timeouts(heartbeat, election),
            None => cfg.without_auto_election(),
        };
        Ok(Box::new(WhiteBoxReplica::try_new(cfg)?))
    }

    fn replica<'a>(&self, node: &'a dyn Any) -> Option<ReplicaView<'a>> {
        let r = node.downcast_ref::<WhiteBoxReplica>()?;
        Some(ReplicaView {
            progress: r.progress(),
            live_records: r.live_records(),
            record_slots: r.record_slots(),
        })
    }

    fn checker_trace(
        &self,
        sent: impl Iterator<Item = SentRecord<WhiteBoxMsg>>,
    ) -> Option<Vec<SentMessage>> {
        Some(
            sent.map(|SentRecord { from, to, msg }| SentMessage { from, to, msg })
                .collect(),
        )
    }
}

/// The consensus-based baselines, FastCast and FT-Skeen, in one of their
/// two modes.
#[derive(Debug)]
pub(crate) struct Baselines(pub(crate) Mode);

impl Family for Baselines {
    type Msg = BaselineMsg;

    fn node(&self, spec: &NodeSpec, id: ProcessId) -> Result<BoxedNode<BaselineMsg>, ConfigError> {
        Ok(match spec.cluster.group_of(id) {
            Some(group) => Box::new(
                BaselineReplica::try_new(id, group, spec.cluster.clone(), self.0)?
                    .with_compaction(spec.compaction_interval, spec.compaction_lag),
            ),
            None => Box::new(BaselineClient::new(
                id,
                spec.cluster.clone(),
                spec.client_retry,
            )),
        })
    }

    fn replica<'a>(&self, node: &'a dyn Any) -> Option<ReplicaView<'a>> {
        let r = node.downcast_ref::<BaselineReplica>()?;
        Some(ReplicaView {
            progress: r.progress(),
            live_records: r.live_records(),
            record_slots: r.record_slots(),
        })
    }
}

/// Plain Skeen over singleton groups, which reads no timers and keeps no
/// delivery progress.
#[derive(Debug)]
pub(crate) struct Skeen;

impl Family for Skeen {
    type Msg = SkeenMsg;

    /// # Panics
    ///
    /// Panics unless every group of the cluster is a singleton.
    fn node(&self, spec: &NodeSpec, id: ProcessId) -> Result<BoxedNode<SkeenMsg>, ConfigError> {
        let groups = spec.cluster.groups().iter().map(|g| {
            let [member] = g.members() else {
                panic!("plain Skeen requires singleton groups (group_size = 1)")
            };
            (g.id(), *member)
        });
        Ok(match spec.cluster.group_of(id) {
            Some(group) => Box::new(SkeenProcess::new(id, group, groups)),
            None => Box::new(SkeenClient::new(id, groups)),
        })
    }
}
