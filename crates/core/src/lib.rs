//! White-box atomic multicast — the protocol contributed by the paper
//! *"White-Box Atomic Multicast"* (Gotsman, Lefort, Chockler; DSN 2019).
//!
//! # What the protocol does
//!
//! Atomic multicast delivers application messages to multiple *groups* of
//! processes according to one total order, with each group receiving the
//! projection of that order onto the messages addressed to it. The protocol
//! implemented here is *genuine* — only the destination groups of a message
//! participate in ordering it — and fault tolerant: each group of `2f + 1`
//! replicas survives up to `f` crashes.
//!
//! Instead of running Skeen's timestamp-based multicast on top of black-box
//! consensus (which costs 6 message delays without collisions), the white-box
//! protocol weaves Skeen's protocol and a Paxos-like replication scheme into a
//! single protocol: the leaders of the destination groups route their local
//! timestamp proposals through quorums of *all* destination groups in one
//! round trip (`ACCEPT` / `ACCEPT_ACK`), which simultaneously replicates the
//! timestamp assignment and speculatively advances the followers' clocks. The
//! result is a collision-free delivery latency of **3δ** at the destination
//! leaders (4δ at followers) and a worst-case failure-free latency of **5δ**.
//!
//! # Crate layout
//!
//! * [`WhiteBoxReplica`] — one group member (leader or follower), implementing
//!   Figure 4 of the paper: normal operation, leader recovery and message
//!   recovery, plus a timeout-based leader-election oracle.
//! * [`MulticastClient`] — a client process that submits messages, tracks
//!   delivery replies and retries lost messages.
//! * [`messages`] — the wire protocol.
//! * [`invariants`] — checkers for the correctness invariants of Figure 6,
//!   used extensively by the test-suite.
//!
//! Both node types are **sans-IO** state machines implementing
//! [`Node`](wbam_types::Node); they can be driven by the deterministic
//! simulator in `wbam-simnet` or by the threaded runtime in `wbam-runtime`.
//!
//! # Example
//!
//! Propose a message at a leader and observe the `ACCEPT`s it sends:
//!
//! ```
//! use std::time::Duration;
//! use wbam_core::{ReplicaConfig, WhiteBoxReplica};
//! use wbam_types::{
//!     Action, AppMessage, ClusterConfig, Destination, Event, GroupId, MsgId, Node, Payload,
//!     ProcessId,
//! };
//!
//! let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
//! let mut leader = WhiteBoxReplica::new(
//!     ReplicaConfig::new(ProcessId(0), GroupId(0), cluster.clone()).without_auto_election(),
//! );
//! let msg = AppMessage::new(
//!     MsgId::new(ProcessId(6), 0),
//!     Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
//!     Payload::from("hello"),
//! );
//! let actions = leader.on_event(Duration::ZERO, Event::Multicast(msg));
//! let accepts = actions
//!     .iter()
//!     .filter(|a| matches!(a, Action::Send { .. }))
//!     .count();
//! assert_eq!(accepts, 6); // every replica of both destination groups
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod config;
mod inline;
pub mod invariants;
pub mod messages;
pub mod record;
pub mod replica;

pub use client::MulticastClient;
pub use config::{ClientConfig, ReplicaConfig};
pub use messages::{BallotVector, DeliverMsg, RecordSnapshot, StateSnapshot, WhiteBoxMsg};
pub use record::MessageRecord;
pub use replica::{Status, WhiteBoxReplica};

/// Where a handler appends its actions: the runtime's outbox for the round.
type Outbox = Vec<wbam_types::Action<WhiteBoxMsg>>;
