//! The transport abstraction separating protocol execution from message
//! carriage.
//!
//! The (crate-internal) node event loop executes
//! [`Action::Send`](wbam_types::Action::Send) by handing the message to the
//! [`Transport`] it owns; everything else about running a node (timers,
//! deliveries, control events) is transport-independent. Two transports
//! exist:
//!
//! * [`ChannelTransport`] — in-process crossbeam channels, one per node
//!   (used by [`InProcessCluster`](crate::InProcessCluster)); and
//! * [`TcpTransport`](crate::tcp::TcpTransport) — real TCP sockets with
//!   `wbam_types::wire` framing. It owns the per-peer connections and output
//!   buffers. The [`TcpNode`](crate::tcp::TcpNode) reactor — the thread
//!   that runs the node loop — frames each round's sends to a peer into
//!   its buffer at the end of the round, several messages to a frame,
//!   reaches the sockets through the loop it owns and flushes each buffer
//!   with one coalesced `send` per iteration.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam_channel::Sender;
use wbam_types::ProcessId;

use crate::node_loop::Envelope;

/// Carries protocol messages from the local node to its peers.
///
/// Sends are best-effort, matching the fair-lossy link model the protocols
/// are designed for: a message to an unknown, crashed or unreachable peer is
/// dropped (or queued for a reconnecting peer) and the protocols' retry
/// timers recover. A transport must preserve per-sender FIFO order for the
/// messages it does deliver.
///
/// A transport belongs to exactly one node loop, which is why sending takes
/// `&mut self`: an implementation keeps its connection state in plain fields,
/// with no lock between it and the loop that drives it.
pub trait Transport<M>: Send + 'static {
    /// Sends `msg` to process `to`. Never blocks on the peer.
    fn send(&mut self, to: ProcessId, msg: M);
}

/// In-process transport: peers are threads in this process, each owning an
/// unbounded channel (which trivially preserves per-sender FIFO order).
pub struct ChannelTransport<M> {
    from: ProcessId,
    peers: Arc<HashMap<ProcessId, Sender<Envelope<M>>>>,
}

impl<M> ChannelTransport<M> {
    /// Creates the transport used by node `from` to reach `peers`.
    pub(crate) fn new(
        from: ProcessId,
        peers: Arc<HashMap<ProcessId, Sender<Envelope<M>>>>,
    ) -> Self {
        ChannelTransport { from, peers }
    }
}

impl<M: Send + 'static> Transport<M> for ChannelTransport<M> {
    fn send(&mut self, to: ProcessId, msg: M) {
        if let Some(tx) = self.peers.get(&to) {
            let _ = tx.send(Envelope::FromPeer {
                from: self.from,
                msg,
            });
        }
    }
}
