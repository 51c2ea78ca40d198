//! Deterministic discrete-event network simulator for WBAM protocols.
//!
//! The simulator plays the role of the paper's experimental testbeds
//! (CloudLab LAN and a three-region Google Cloud WAN, §VI): it runs any set of
//! sans-IO [`Node`](wbam_types::Node)s over reliable FIFO channels with a
//! configurable latency model, crash injection and a simple CPU model (a
//! per-process service time per handled message) that produces realistic
//! throughput saturation under load.
//!
//! The simulation is fully deterministic given a seed, which makes protocol
//! runs reproducible and property-testable.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use wbam_simnet::{LatencyModel, SimConfig, Simulation};
//! use wbam_types::{Action, Event, Node, ProcessId};
//!
//! /// A node that forwards every received number, incremented, to itself.
//! struct Relay(ProcessId);
//! impl Node for Relay {
//!     type Msg = u64;
//!     fn id(&self) -> ProcessId { self.0 }
//!     fn on_event(&mut self, _now: Duration, e: Event<u64>) -> Vec<Action<u64>> {
//!         match e {
//!             Event::Message { msg, .. } if msg < 3 => vec![Action::send(self.0, msg + 1)],
//!             _ => Vec::new(),
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig {
//!     latency: LatencyModel::constant(Duration::from_millis(10)),
//!     ..SimConfig::default()
//! });
//! sim.add_node(Box::new(Relay(ProcessId(0))));
//! sim.send_external(Duration::ZERO, ProcessId(0), ProcessId(0), 0u64);
//! sim.run_until_quiescent(Duration::from_secs(1));
//! // One external injection plus the three relayed messages.
//! assert_eq!(sim.stats().messages_sent, 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod latency;
pub mod metrics;
pub mod sim;

pub use latency::LatencyModel;
pub use metrics::{DeliveryRecord, LatencyStats, MetricsView, ThroughputStats};
pub use sim::{NetStats, SimConfig, Simulation, StepOutcome, TraceEntry};
