//! Shared vocabulary types for the White-Box Atomic Multicast (WBAM) workspace.
//!
//! This crate defines the identifiers, logical timestamps, ballots, application
//! messages, protocol events/actions and cluster configuration used by every
//! protocol implementation in the workspace:
//!
//! * [`ProcessId`], [`GroupId`], [`MsgId`] — opaque identifiers.
//! * [`Timestamp`] — the `(N × G)` lexicographically ordered logical timestamps
//!   of Skeen's protocol and the white-box protocol (paper §III).
//! * [`Ballot`] — the `(N × P)` leader ballots of the white-box protocol and of
//!   Paxos (paper §IV, Figure 3).
//! * [`AppMessage`], [`Destination`] — application messages with destination
//!   group sets.
//! * [`ClusterConfig`], [`GroupConfig`] — static cluster topology: disjoint
//!   groups of `2f + 1` processes each.
//! * [`Event`], [`Action`], [`Node`] — the sans-IO protocol interface shared by
//!   the simulator (`wbam-simnet`) and the real runtime.
//! * [`RecordMap`], [`DeliveryQueue`], [`DeliveryProgress`] — the
//!   per-message record store, the delivery rule, and the delivery progress
//!   with its `STABLE` compaction exchange, which every protocol shares.
//!
//! # Example
//!
//! ```
//! use wbam_types::{ClusterConfig, GroupId, Timestamp};
//!
//! // Three groups of three replicas each, plus two client processes.
//! let config = ClusterConfig::builder()
//!     .groups(3, 3)
//!     .clients(2)
//!     .build();
//! assert_eq!(config.groups().len(), 3);
//! assert_eq!(config.group(GroupId(0)).unwrap().members().len(), 3);
//!
//! // Timestamps are ordered lexicographically: first by time, then by group.
//! let a = Timestamp::new(3, GroupId(1));
//! let b = Timestamp::new(3, GroupId(2));
//! assert!(a < b);
//! assert!(Timestamp::BOTTOM < a);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod action;
pub mod ballot;
pub mod checkpoint;
pub mod compaction;
pub mod config;
pub mod delivery;
pub mod error;
pub mod event;
pub mod ids;
pub mod message;
pub mod nemesis;
pub mod node;
pub mod phase;
pub mod record_map;
pub mod timestamp;
pub mod wire;

pub use action::{Action, DeliveredMessage};
pub use ballot::Ballot;
pub use checkpoint::{Checkpoint, DeliveredFilter};
pub use compaction::{DeliveryProgress, StableRole, StableStep};
pub use config::{ClusterConfig, ClusterConfigBuilder, GroupConfig, SiteId};
pub use delivery::DeliveryQueue;
pub use error::{ConfigError, WbamError};
pub use event::Event;
pub use ids::{ClientId, GroupId, MsgId, ProcessId};
pub use message::{AppMessage, Destination, Payload};
pub use nemesis::{CrashSpec, LinkFaults, NemesisPlan, PartitionSpec};
pub use node::{Node, TimerId, TimerIdHasher, TimerMap};
pub use phase::Phase;
pub use record_map::RecordMap;
pub use timestamp::Timestamp;
