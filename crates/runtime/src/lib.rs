//! A real (non-simulated) runtime for WBAM protocol nodes.
//!
//! The deterministic simulator in `wbam-simnet` is ideal for experiments and
//! tests, but deploying atomic multicast means running the protocols on real
//! threads and real sockets. This crate provides both deployment shapes
//! around one shared, transport-independent node event loop
//! (crate-internal `node_loop`): every sans-IO [`Node`](wbam_types::Node) runs on
//! one OS thread, timers are served from the loop's own timer heap,
//! application deliveries go to the loop's [`DeliverySink`] (by default a
//! shared in-memory [`DeliveryLog`]), and sends go through the [`Transport`]
//! the loop owns:
//!
//! * [`InProcessCluster`] — every node is a thread in this process and the
//!   transport is an in-process channel per node ([`ChannelTransport`]).
//!   Ideal for embedding a whole cluster in one service or test.
//! * [`TcpNode`] — one node per OS process, the transport is real TCP with
//!   `wbam_types::wire` framing in the binary codec. The node's one thread is a reactor: it runs the node
//!   loop between `poll(2)` calls, reads and writes every socket itself, and
//!   frames each round's sends into their peers' output buffers, several
//!   messages to a frame ([`tcp::TcpTransport`]; coalesced writes,
//!   reconnect with backoff). Unix only. This is what the `wbamd`
//!   deployment binary (in `wbam-harness`) runs; see `crates/harness` for
//!   the cluster topology spec.
//! * [`DeterministicRuntime`] — the same node loop and a channel transport,
//!   but driven single-threaded by a seeded scheduler over a
//!   [`VirtualClock`]: every interleaving of mailbox delivery, timer firing
//!   and crash/restart is chosen by a seed and byte-for-byte replayable.
//!   This is the runtime analogue of the `wbam-simnet` schedule explorer,
//!   exercising the *deployed* code path (burst coalescing, timer
//!   generations, delivery flushes) instead of the simulator's.
//!
//! All three consume time exclusively through the [`Clock`] trait —
//! [`WallClock`] (zero-cost `Instant`/`recv_timeout` wrappers) in the two
//! production shapes, [`VirtualClock`] under the deterministic scheduler.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxReplica};
//! use wbam_runtime::InProcessCluster;
//! use wbam_types::{AppMessage, ClusterConfig, Destination, GroupId, MsgId, Payload, ProcessId};
//!
//! let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
//! let mut nodes: Vec<Box<dyn wbam_types::Node<Msg = wbam_core::WhiteBoxMsg> + Send>> = Vec::new();
//! for gc in cluster.groups() {
//!     for member in gc.members() {
//!         let cfg = ReplicaConfig::new(*member, gc.id(), cluster.clone()).without_auto_election();
//!         nodes.push(Box::new(WhiteBoxReplica::new(cfg)));
//!     }
//! }
//! let client = cluster.clients()[0];
//! nodes.push(Box::new(MulticastClient::new(ClientConfig::new(client, cluster.clone()))));
//!
//! let handle = InProcessCluster::spawn(nodes);
//! let msg = AppMessage::new(
//!     MsgId::new(client, 0),
//!     Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
//!     Payload::from("hello"),
//! );
//! handle.submit(client, msg).unwrap();
//! let deliveries = handle.wait_for_deliveries(6, Duration::from_secs(5));
//! assert!(deliveries.len() >= 6); // every replica of both groups delivers
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(not(unix))]
compile_error!(
    "wbam-runtime needs a Unix target: a TcpNode is one reactor thread blocked in poll(2) \
     (compat/netpoll), and there is no portable fallback"
);

pub mod clock;
mod deterministic;
mod node_loop;
pub mod tcp;
pub mod transport;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Sender};
use wbam_types::{AppMessage, DeliveredMessage, ProcessId, WbamError};

use node_loop::{run_node, Envelope};

pub use clock::{Clock, VirtualClock, WaitError, WallClock};
pub use deterministic::{DeterministicRuntime, SentRecord, TraceEvent};
pub use tcp::TcpNode;
pub use transport::{ChannelTransport, Transport};

/// A delivery observed by the runtime, tagged with the delivering process and
/// wall-clock time since cluster start.
#[derive(Debug, Clone)]
pub struct RuntimeDelivery {
    /// The process that delivered the message.
    pub process: ProcessId,
    /// The delivery record (message + global timestamp).
    pub delivery: DeliveredMessage,
    /// Time since the cluster was spawned.
    pub elapsed: Duration,
}

/// Where a node loop puts the deliveries its node makes.
///
/// The loop hands over each delivery with [`deliver`](Self::deliver), in
/// delivery order, and its driver calls [`flush`](Self::flush) once it has
/// finished a step: after the node's events and due timers of a round, and
/// — on a [`TcpNode`] — before any frame those events produced leaves the
/// process. A sink may keep deliveries private until the flush.
///
/// Two sinks exist. The default is the in-memory [`DeliveryLog`]: a flush
/// appends the step's deliveries under one lock and wakes its waiters once.
/// A [`TcpNode`] can be spawned with any other sink instead
/// ([`TcpNode::spawn_with_sink`]); `wbamd`'s replicas install one that
/// appends a JSON line per delivery to a file, so the line is written by
/// the reactor thread, and no thread is woken to write it.
pub trait DeliverySink: Send + 'static {
    /// Takes one delivery.
    fn deliver(&mut self, delivery: RuntimeDelivery);

    /// Makes every delivery taken since the last flush visible to the sink's
    /// consumer.
    ///
    /// # Errors
    ///
    /// Whatever stopped the deliveries from reaching the consumer, such as a
    /// failed write. A [`TcpNode`] stops on the error: its reactor sends
    /// nothing more, and the error is reported by [`TcpNode::sink_status`].
    fn flush(&mut self) -> Result<(), WbamError>;
}

/// One node loop's handle on a shared [`DeliveryLog`]: it collects a step's
/// deliveries and publishes them in one [`DeliveryLog::push_many`].
pub(crate) struct LogSink {
    log: Arc<DeliveryLog>,
    pending: Vec<RuntimeDelivery>,
}

impl LogSink {
    pub(crate) fn new(log: Arc<DeliveryLog>) -> Self {
        LogSink {
            log,
            pending: Vec::new(),
        }
    }
}

impl DeliverySink for LogSink {
    fn deliver(&mut self, delivery: RuntimeDelivery) {
        self.pending.push(delivery);
    }

    fn flush(&mut self) -> Result<(), WbamError> {
        self.log.push_many(&mut self.pending);
        Ok(())
    }
}

/// The in-memory application-delivery log of a runtime: a buffer of
/// [`RuntimeDelivery`] records plus a cumulative counter, with condvar-based
/// waiting instead of polling.
///
/// Node loops publish into it when their driver flushes (see
/// [`DeliverySink`]); the embedding application reads a
/// [`snapshot`](Self::snapshot) or [`drain`](Self::drain)s the buffer (so a
/// long-running cluster does not grow the log without bound). Waiters block
/// on a condition variable signalled once per flush that delivered — no
/// busy-polling, no per-iteration clone of the log.
///
/// The log never panics on a poisoned mutex: a node thread that panics while
/// holding the lock (every mutation is append-only, so the state stays
/// consistent) must not cascade the panic into every other thread — node or
/// embedder — that later touches the log. Instead the poisoning is recorded
/// and exposed through [`is_poisoned`](Self::is_poisoned); the TCP runtime's
/// control-path accessors ([`TcpNode::deliveries`] and friends) turn it into
/// a typed [`WbamError::NotReady`] for the embedder.
#[derive(Default)]
pub struct DeliveryLog {
    state: Mutex<LogState>,
    newly_delivered: Condvar,
    poisoned: AtomicBool,
}

#[derive(Default)]
struct LogState {
    buffered: Vec<RuntimeDelivery>,
    total: u64,
}

impl DeliveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        DeliveryLog::default()
    }

    /// Locks the state, recovering from (and recording) poisoning instead of
    /// propagating the panic to the caller's thread.
    fn state(&self) -> MutexGuard<'_, LogState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.poisoned.store(true, Ordering::Relaxed);
                poisoned.into_inner()
            }
        }
    }

    /// Whether a thread has panicked while holding the log's lock. The data
    /// itself stays consistent (every mutation is append-only), but the
    /// panicking node thread is gone, so counts may never advance again —
    /// control-path APIs use this to report [`WbamError::NotReady`] instead
    /// of hanging or panicking.
    pub fn is_poisoned(&self) -> bool {
        // A past poisoning may not have been observed by `state()` yet; check
        // the mutex directly as well so the very first accessor sees it.
        self.poisoned.load(Ordering::Relaxed) || self.state.is_poisoned()
    }

    /// Appends a delivery and wakes all waiters.
    pub fn push(&self, delivery: RuntimeDelivery) {
        let mut state = self.state();
        state.buffered.push(delivery);
        state.total += 1;
        self.newly_delivered.notify_all();
    }

    /// Moves a batch of deliveries into the log under a single lock
    /// acquisition, waking waiters once, and leaves `deliveries` empty with
    /// its capacity. A node loop's flush hands over all deliveries of one
    /// step through this, so the hot path takes the log mutex at most once
    /// per step instead of once per delivery, and not at all for a step that
    /// delivered nothing.
    pub fn push_many(&self, deliveries: &mut Vec<RuntimeDelivery>) {
        if deliveries.is_empty() {
            return;
        }
        let mut state = self.state();
        state.total += deliveries.len() as u64;
        state.buffered.append(deliveries);
        self.newly_delivered.notify_all();
    }

    /// A clone of the deliveries currently buffered (those not yet drained).
    pub fn snapshot(&self) -> Vec<RuntimeDelivery> {
        self.state().buffered.clone()
    }

    /// Removes and returns all buffered deliveries. The cumulative
    /// [`total`](Self::total) is unaffected.
    pub fn drain(&self) -> Vec<RuntimeDelivery> {
        std::mem::take(&mut self.state().buffered)
    }

    /// Total number of deliveries ever pushed, including drained ones.
    pub fn total(&self) -> u64 {
        self.state().total
    }

    /// Blocks until the cumulative delivery count reaches `count` or the
    /// timeout expires; returns whether the count was reached.
    pub fn wait_for_total(&self, count: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state();
        loop {
            if state.total >= count {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (next, timed_out) = match self.newly_delivered.wait_timeout(state, remaining) {
                Ok(woken) => woken,
                Err(poisoned) => {
                    self.poisoned.store(true, Ordering::Relaxed);
                    poisoned.into_inner()
                }
            };
            state = next;
            if timed_out.timed_out() && state.total < count {
                return false;
            }
        }
    }

    /// Blocks until the cumulative delivery count reaches `count` or the
    /// timeout expires; returns a snapshot of the buffered deliveries.
    pub fn wait_for(&self, count: u64, timeout: Duration) -> Vec<RuntimeDelivery> {
        self.wait_for_total(count, timeout);
        self.snapshot()
    }
}

/// A sans-IO node as the runtime executes it: boxed, sendable to its thread.
pub type BoxedNode<M> = Box<dyn wbam_types::Node<Msg = M> + Send>;

/// Handle to a running in-process cluster.
pub struct InProcessCluster<M> {
    senders: Arc<HashMap<ProcessId, Sender<Envelope<M>>>>,
    deliveries: Arc<DeliveryLog>,
    threads: Vec<JoinHandle<()>>,
    clock: WallClock,
}

impl<M: Send + 'static> InProcessCluster<M> {
    /// Spawns one thread per node and wires them together with channels.
    pub fn spawn(nodes: Vec<BoxedNode<M>>) -> Self {
        let clock = WallClock::new();
        let deliveries = Arc::new(DeliveryLog::new());
        let mut senders: HashMap<ProcessId, Sender<Envelope<M>>> = HashMap::new();
        let mut receivers = Vec::new();
        for node in nodes {
            let (tx, rx) = unbounded();
            senders.insert(node.id(), tx);
            receivers.push((node, rx));
        }
        let senders = Arc::new(senders);
        let mut threads = Vec::new();
        for (node, rx) in receivers {
            let transport = ChannelTransport::new(node.id(), Arc::clone(&senders));
            let sink = Box::new(LogSink::new(Arc::clone(&deliveries)));
            threads.push(std::thread::spawn(move || {
                run_node(node, rx, transport, sink, clock);
            }));
        }
        InProcessCluster {
            senders,
            deliveries,
            threads,
            clock,
        }
    }

    fn control(&self, at: ProcessId, envelope: Envelope<M>) -> Result<(), WbamError> {
        let tx = self.senders.get(&at).ok_or(WbamError::UnknownProcess(at))?;
        tx.send(envelope).map_err(|_| WbamError::NotReady {
            process: at,
            reason: "node thread has exited".to_string(),
        })
    }

    /// Submits an application message for multicast at the given node
    /// (normally a client node).
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::UnknownProcess`] when no node with id `at` exists
    /// in this cluster (a typo'd target used to be silently dropped, making it
    /// indistinguishable from a lost message), or [`WbamError::NotReady`] when
    /// the node's thread has exited.
    pub fn submit(&self, at: ProcessId, msg: AppMessage) -> Result<(), WbamError> {
        self.control(at, Envelope::Submit(msg))
    }

    /// Tells a node to start leader recovery (for failover demonstrations).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::submit`].
    pub fn become_leader(&self, at: ProcessId) -> Result<(), WbamError> {
        self.control(at, Envelope::BecomeLeader)
    }

    /// Injects `Event::Restart` at a node: volatile context is discarded and
    /// the node rejoins the protocol, mirroring the simulator's restart path.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::submit`].
    pub fn restart(&self, at: ProcessId) -> Result<(), WbamError> {
        self.control(at, Envelope::Restart)
    }

    /// A snapshot of the deliveries currently buffered (those not yet
    /// removed by [`Self::drain_deliveries`]).
    pub fn deliveries(&self) -> Vec<RuntimeDelivery> {
        self.deliveries.snapshot()
    }

    /// Removes and returns all buffered deliveries, so long-running clusters
    /// can consume the log incrementally instead of growing it without bound.
    /// The cumulative count in [`Self::total_deliveries`] is unaffected.
    pub fn drain_deliveries(&self) -> Vec<RuntimeDelivery> {
        self.deliveries.drain()
    }

    /// Total number of deliveries observed since spawn, including drained
    /// ones.
    pub fn total_deliveries(&self) -> u64 {
        self.deliveries.total()
    }

    /// Blocks until at least `count` deliveries have been observed (counting
    /// drained ones) or the timeout expires; returns the deliveries currently
    /// buffered.
    ///
    /// Waiting blocks on a condition variable signalled by every flush that
    /// delivered — it no longer busy-polls with a sleep, nor clones the
    /// entire log once per millisecond while waiting.
    pub fn wait_for_deliveries(&self, count: usize, timeout: Duration) -> Vec<RuntimeDelivery> {
        self.deliveries.wait_for(count as u64, timeout)
    }

    /// Time since the cluster was spawned.
    pub fn uptime(&self) -> Duration {
        self.clock.now()
    }

    /// Stops all node threads and waits for them to exit.
    pub fn shutdown(self) {
        for tx in self.senders.values() {
            let _ = tx.send(Envelope::Shutdown);
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
    use wbam_types::{ClusterConfig, Destination, GroupId, MsgId, Payload};

    fn build_nodes(cluster: &ClusterConfig) -> Vec<BoxedNode<WhiteBoxMsg>> {
        let mut nodes: Vec<BoxedNode<WhiteBoxMsg>> = Vec::new();
        for gc in cluster.groups() {
            for member in gc.members() {
                let cfg =
                    ReplicaConfig::new(*member, gc.id(), cluster.clone()).without_auto_election();
                nodes.push(Box::new(WhiteBoxReplica::new(cfg)));
            }
        }
        for client in cluster.clients() {
            nodes.push(Box::new(MulticastClient::new(ClientConfig::new(
                *client,
                cluster.clone(),
            ))));
        }
        nodes
    }

    #[test]
    fn threaded_cluster_delivers_multicasts() {
        let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
        let handle = InProcessCluster::spawn(build_nodes(&cluster));
        let client = cluster.clients()[0];
        for seq in 0..5u64 {
            let msg = AppMessage::new(
                MsgId::new(client, seq),
                Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
                Payload::from(format!("op-{seq}").as_str()),
            );
            handle.submit(client, msg).unwrap();
        }
        // 5 messages × 6 replicas + 5 client completions = 35 deliveries.
        let deliveries = handle.wait_for_deliveries(35, Duration::from_secs(10));
        assert!(
            deliveries.len() >= 35,
            "expected at least 35 deliveries, got {}",
            deliveries.len()
        );
        // Each replica delivered the five messages in the same order.
        let order_of = |p: ProcessId| -> Vec<MsgId> {
            deliveries
                .iter()
                .filter(|d| d.process == p)
                .map(|d| d.delivery.msg.id)
                .collect()
        };
        let reference = order_of(ProcessId(0));
        assert_eq!(reference.len(), 5);
        for p in 1..6u32 {
            assert_eq!(
                order_of(ProcessId(p)),
                reference,
                "replica p{p} order differs"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn uptime_and_empty_delivery_snapshot() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let handle = InProcessCluster::spawn(build_nodes(&cluster));
        assert!(handle.deliveries().is_empty());
        assert!(handle.uptime() < Duration::from_secs(5));
        handle.shutdown();
    }

    /// Regression (runtime bugfix sweep): control operations on an unknown
    /// process id fail loudly instead of silently no-opping — a typo'd target
    /// used to look exactly like a lost message.
    #[test]
    fn control_operations_reject_unknown_processes() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let handle = InProcessCluster::spawn(build_nodes(&cluster));
        let bogus = ProcessId(999);
        let msg = AppMessage::new(
            MsgId::new(bogus, 0),
            Destination::single(GroupId(0)),
            Payload::from("x"),
        );
        assert_eq!(
            handle.submit(bogus, msg),
            Err(WbamError::UnknownProcess(bogus))
        );
        assert_eq!(
            handle.become_leader(bogus),
            Err(WbamError::UnknownProcess(bogus))
        );
        assert_eq!(handle.restart(bogus), Err(WbamError::UnknownProcess(bogus)));
        handle.shutdown();
    }

    /// Regression (runtime bugfix sweep): draining the delivery log keeps the
    /// cumulative count intact, and waiting counts drained deliveries — so a
    /// long-running embedder can drain incrementally without ever growing the
    /// buffer or confusing waiters.
    #[test]
    fn drain_keeps_cumulative_count_and_wait_semantics() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let handle = InProcessCluster::spawn(build_nodes(&cluster));
        let client = cluster.clients()[0];
        let submit = |seq: u64| {
            let msg = AppMessage::new(
                MsgId::new(client, seq),
                Destination::single(GroupId(0)),
                Payload::from("x"),
            );
            handle.submit(client, msg).unwrap();
        };
        submit(0);
        // 3 replica deliveries + 1 client completion.
        assert!(handle.deliveries.wait_for_total(4, Duration::from_secs(10)));
        let drained = handle.drain_deliveries();
        assert!(drained.len() >= 4);
        assert!(handle.deliveries().len() < drained.len());
        assert_eq!(handle.total_deliveries(), drained.len() as u64);
        // The next wait counts the drained deliveries too.
        submit(1);
        let buffered = handle.wait_for_deliveries(8, Duration::from_secs(10));
        assert!(handle.total_deliveries() >= 8);
        // Only the new deliveries are buffered.
        assert!(buffered.iter().all(|d| d.delivery.msg.id.seq == 1));
        handle.shutdown();
    }

    /// Regression for the poison cascade: a thread that panics while holding
    /// the delivery-log lock must not turn every later accessor into a panic.
    /// The log recovers (its mutations are append-only, so the state is still
    /// consistent) and reports the poisoning through `is_poisoned()` so the
    /// TCP runtime's control-path APIs can surface `WbamError::NotReady`.
    #[test]
    fn poisoned_delivery_log_recovers_instead_of_cascading() {
        let log = Arc::new(DeliveryLog::new());
        assert!(!log.is_poisoned());
        let delivery = |seq: u64| RuntimeDelivery {
            process: ProcessId(0),
            delivery: DeliveredMessage {
                msg: AppMessage::new(
                    MsgId::new(ProcessId(0), seq),
                    Destination::single(GroupId(0)),
                    Payload::from("x"),
                ),
                global_ts: None,
            },
            elapsed: Duration::ZERO,
        };
        log.push(delivery(0));

        // Panic while holding the lock, as a node thread dying mid-push would.
        let poisoner = Arc::clone(&log);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("node thread dies while publishing");
        })
        .join();
        assert!(result.is_err(), "the spawned thread must have panicked");

        // Every accessor keeps working on the recovered, consistent state...
        assert!(log.is_poisoned());
        assert_eq!(log.total(), 1);
        assert_eq!(log.snapshot().len(), 1);
        log.push(delivery(1));
        assert_eq!(log.total(), 2);
        assert!(log.wait_for_total(2, Duration::from_millis(100)));
        assert_eq!(log.drain().len(), 2);
        // ...and the poisoning stays observable for control-path mapping.
        assert!(log.is_poisoned());
    }

    /// The condvar wait wakes promptly (well under the timeout) once the
    /// expected count is reached, and respects the timeout when it is not.
    #[test]
    fn wait_for_deliveries_times_out_cleanly() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let handle = InProcessCluster::spawn(build_nodes(&cluster));
        let begin = Instant::now();
        let observed = handle.wait_for_deliveries(1, Duration::from_millis(200));
        assert!(observed.is_empty());
        let waited = begin.elapsed();
        assert!(
            waited >= Duration::from_millis(150),
            "returned after {waited:?} without any delivery"
        );
        handle.shutdown();
    }
}
