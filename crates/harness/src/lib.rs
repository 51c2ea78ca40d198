//! Experiment harness: builds simulated clusters for every protocol in the
//! workspace, drives client workloads over them and aggregates the metrics the
//! paper reports.
//!
//! The harness is what the figure-reproduction benchmarks (`wbam-bench`), the
//! examples and the cross-protocol integration tests share:
//!
//! * [`family`] — each protocol family (WbCast, the FastCast/FT-Skeen
//!   baselines, plain Skeen) defined once: its message type, the replica and
//!   client constructors every engine uses, and what the engines read of a
//!   replica's state. [`Protocol::visit`] is the one switch that picks a
//!   family; the simulator, the deterministic runtime and `wbamd` are each
//!   written once, generic over it.
//! * [`cluster`] — [`ProtocolSim`], one
//!   [`Simulation`](wbam_simnet::Simulation) populated with the replicas and
//!   clients of one protocol ([`Protocol`]); plus [`ClusterSpec`], the
//!   topology/latency description of an experiment.
//! * [`workload`] — closed-loop client workloads (every client keeps one
//!   multicast outstanding, as in the paper's evaluation) and their results.
//! * [`probe`] — single-message latency probes used for the latency table and
//!   the message-flow/convoy figures.
//! * [`mod@sweep`] — parameter sweeps over client counts and destination-group
//!   counts, producing the rows of Figures 7 and 8.
//! * [`mod@explore`] — the seeded schedule explorer behind the `explore`
//!   binary: one token grammar, one checker (Figure 6 invariants and the
//!   key-value linearizability oracle), one minimizer and one sweep loop
//!   over three engines — [`explorer`] (the simulator), [`rt`] (the
//!   deployed node loop under a virtual clock) and [`chaos`] (live `wbamd`
//!   clusters behind the [`NemesisProxy`]).
//! * [`deploy`] — topology specs for *deployed* clusters (one `wbamd` OS
//!   process per replica over the TCP transport of `wbam-runtime`, each
//!   client hosted in its orchestrator's process), plus the JSONL delivery
//!   log format `wbamd` writes.
//! * [`proxy`] — [`NemesisProxy`], a fault-injecting TCP man-in-the-middle
//!   that executes seeded [`NemesisPlan`](wbam_types::nemesis::NemesisPlan)s
//!   (drops, duplicates, delays, asymmetric partitions with heal) on every
//!   link of a deployed cluster.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod cluster;
pub mod deploy;
pub mod explore;
pub mod explorer;
pub mod family;
pub mod probe;
pub mod proxy;
pub mod rt;
pub mod sweep;
pub mod workload;

pub use cluster::{ClusterSpec, Protocol, ProtocolSim};
pub use deploy::{ChildGuard, DeliveryLine, DeployRole, DeploySpec, LatencyStats};
pub use explore::{
    check_run, explore, run_plan, run_token, schedule_token, CheckPolicy, Engine, Exploration,
    ExploreConfig, Finding, Observed, Plan, Report, Token, TokenVersion,
};
pub use family::{Family, FamilyVisitor};
pub use probe::{convoy_probe, latency_probe, LatencyProbeResult};
pub use proxy::{FrameFate, LinkScheduler, NemesisProxy, ProxyStats};
pub use sweep::{sweep, SweepPoint, SweepResult, SweepSpec};
pub use workload::{run_closed_loop, ClosedLoopWorkload, WorkloadResult};
