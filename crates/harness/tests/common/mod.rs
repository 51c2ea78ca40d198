//! A multicast client hosted in the test process, the way the benchmark
//! hosts its load generator: a `TcpNode` running
//! [`DeploySpec::whitebox_client`], dialling the `wbamd` replicas.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use wbam_core::WhiteBoxMsg;
use wbam_harness::DeploySpec;
use wbam_runtime::TcpNode;
use wbam_types::{AppMessage, Destination, GroupId, MsgId, Payload, ProcessId, WbamError};

/// A closed loop gives up after this long without a reply.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// What one closed loop saw.
pub struct Outcome {
    /// Multicasts whose reply arrived.
    pub completed: u64,
    /// Frames the client's transport has dropped since it started.
    #[allow(dead_code)] // not every test binary reads it
    pub dropped_frames: u64,
}

/// The spec's first client id as a node of this process. Its multicasts
/// carry 20-byte payloads and sequence numbers 0, 1, 2, … across every call.
pub struct Client {
    node: TcpNode<WhiteBoxMsg>,
    next_seq: u64,
    drained: u64,
}

impl Client {
    /// Starts the client node; a listener bind that loses a port race is
    /// retried briefly, as `wbamd` retries its own.
    pub fn spawn(spec: &DeploySpec) -> Client {
        let id = ProcessId((spec.num_groups * spec.group_size) as u32);
        let addrs = spec.dial_map(id).expect("client addresses");
        let begin = Instant::now();
        let node = loop {
            let client = spec.whitebox_client(id).expect("a client id");
            match TcpNode::spawn(Box::new(client), &addrs, false) {
                Ok(node) => break node,
                Err(WbamError::Io(_)) if begin.elapsed() < Duration::from_secs(3) => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("spawning the client node: {e}"),
            }
        };
        Client {
            node,
            next_seq: 0,
            drained: 0,
        }
    }

    /// Multicasts the next message to `dest` and returns its sequence
    /// number, without waiting for the reply.
    pub fn submit(&mut self, dest: &[u32]) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = AppMessage::new(
            MsgId::new(self.node.id(), seq),
            Destination::new(dest.iter().copied().map(GroupId)).expect("a destination"),
            Payload::from(vec![0u8; 20]),
        );
        self.node.submit(msg).expect("submit");
        seq
    }

    /// Keeps `window` multicasts to `dest` in flight until `count` of them
    /// are answered, or until no reply has come for [`STALL_TIMEOUT`].
    pub fn closed_loop(&mut self, dest: &[u32], window: usize, count: u64) -> Outcome {
        let mut inflight = BTreeSet::new();
        let (mut submitted, mut completed) = (0, 0);
        let mut last_reply = Instant::now();
        while completed < count && last_reply.elapsed() < STALL_TIMEOUT {
            while submitted < count && inflight.len() < window {
                inflight.insert(self.submit(dest));
                submitted += 1;
            }
            self.node
                .wait_for_total(self.drained + 1, Duration::from_millis(100))
                .expect("client node");
            for reply in self.node.drain_deliveries().expect("client node") {
                self.drained += 1;
                last_reply = Instant::now();
                if inflight.remove(&reply.delivery.msg.id.seq) {
                    completed += 1;
                }
            }
        }
        Outcome {
            completed,
            dropped_frames: self.node.dropped_frames(),
        }
    }

    /// Replies this client has received so far.
    #[allow(dead_code)] // not every test binary reads it
    pub fn replies(&self) -> u64 {
        self.node.total_deliveries().expect("client node")
    }
}
