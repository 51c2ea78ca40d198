//! Bare-transport baselines: two echo nodes, no protocol.
//!
//! The same pair runs over `InProcessCluster` (the node loop and an
//! in-process channel: what one envelope handoff costs) and over two
//! `TcpNode`s on loopback (the node loop plus codec, poller thread, socket
//! syscalls and the kernel's loopback path: what one frame costs with no
//! protocol behind it). A round trip is ping node → pong node → ping node.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use wbam_runtime::{BoxedNode, InProcessCluster, TcpNode};
use wbam_types::wire::{decode_frame_slice, encode_frame_with, WireCodec};
use wbam_types::{
    Action, AppMessage, DeliveredMessage, Destination, Event, GroupId, MsgId, Node, Payload,
    ProcessId,
};

use crate::layers::Frame;
use crate::procfs;
use crate::stats::{median, percentile_sorted};

const PING: ProcessId = ProcessId(0);
const PONG: ProcessId = ProcessId(1);

/// The echo "protocol": the application message there and back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EchoMsg {
    /// Ping node → pong node.
    Ping(AppMessage),
    /// Pong node → ping node.
    Pong(AppMessage),
}

/// Sends every submitted message to the pong node and delivers it when it
/// comes back.
struct PingNode;

/// Returns every ping to its sender.
struct PongNode;

impl Node for PingNode {
    type Msg = EchoMsg;

    fn id(&self) -> ProcessId {
        PING
    }

    fn on_event(&mut self, _now: Duration, event: Event<EchoMsg>) -> Vec<Action<EchoMsg>> {
        match event {
            Event::Multicast(msg) => vec![Action::send(PONG, EchoMsg::Ping(msg))],
            Event::Message {
                msg: EchoMsg::Pong(msg),
                ..
            } => vec![Action::Deliver(DeliveredMessage::without_timestamp(msg))],
            _ => Vec::new(),
        }
    }
}

impl Node for PongNode {
    type Msg = EchoMsg;

    fn id(&self) -> ProcessId {
        PONG
    }

    fn on_event(&mut self, _now: Duration, event: Event<EchoMsg>) -> Vec<Action<EchoMsg>> {
        match event {
            Event::Message {
                from,
                msg: EchoMsg::Ping(msg),
            } => vec![Action::send(from, EchoMsg::Pong(msg))],
            _ => Vec::new(),
        }
    }
}

fn nodes() -> Vec<BoxedNode<EchoMsg>> {
    vec![Box::new(PingNode), Box::new(PongNode)]
}

/// What an echo pair can do.
trait EchoPair {
    fn submit(&self, msg: AppMessage);
    /// Blocks until `total` round trips have completed.
    fn wait_total(&self, total: u64);
}

struct ChannelPair(InProcessCluster<EchoMsg>);

impl EchoPair for ChannelPair {
    fn submit(&self, msg: AppMessage) {
        self.0.submit(PING, msg).expect("ping node is running");
    }
    fn wait_total(&self, total: u64) {
        while self.0.total_deliveries() < total {
            self.0
                .wait_for_deliveries(total as usize, Duration::from_secs(1));
        }
        self.0.drain_deliveries();
    }
}

struct TcpPair {
    ping: TcpNode<EchoMsg>,
    pong: TcpNode<EchoMsg>,
}

impl EchoPair for TcpPair {
    fn submit(&self, msg: AppMessage) {
        self.ping.submit(msg).expect("ping node is running");
    }
    fn wait_total(&self, total: u64) {
        while !self
            .ping
            .wait_for_total(total, Duration::from_secs(1))
            .expect("ping node is healthy")
        {}
        let _ = self.ping.drain_deliveries();
    }
}

/// Result of one echo measurement.
#[derive(Debug, Clone, Copy)]
pub struct EchoResult {
    /// Median round-trip time with one message in flight, µs.
    pub rtt_us: f64,
    /// Round trips per second with `PIPELINE` messages in flight.
    pub msgs_per_s: f64,
    /// CPU (user+sys, both nodes) per one-way message with one in flight, µs,
    /// less what encoding and decoding the echo frame itself costs: node
    /// loop, poller, syscalls and the kernel's loopback path only.
    pub cpu_us_per_msg_idle: f64,
    /// The same with the pipeline full.
    pub cpu_us_per_msg_busy: f64,
}

/// Messages in flight for the throughput half of an echo measurement.
const PIPELINE: u64 = 64;

fn message(seq: u64, payload: &Payload) -> AppMessage {
    AppMessage::new(
        MsgId::new(PING, seq),
        Destination::single(GroupId(0)),
        payload.clone(),
    )
}

fn self_cpu() -> Duration {
    procfs::cpu_times(None).unwrap_or_default().total()
}

/// Microseconds one encode plus one decode of an echo frame of this payload
/// size costs: what the TCP pair pays per message on top of transport.
fn codec_us_per_msg(payload_bytes: usize) -> f64 {
    const ROUNDS: u32 = 2000;
    let msg = Frame::Protocol(EchoMsg::Ping(message(0, &Payload::zeros(payload_bytes))));
    let begin = Instant::now();
    for _ in 0..ROUNDS {
        let frame = encode_frame_with(WireCodec::Binary, &msg).expect("echo frames encode");
        let back = decode_frame_slice::<Frame<EchoMsg>>(WireCodec::Binary, &frame);
        std::hint::black_box(back.expect("echo frames decode"));
    }
    begin.elapsed().as_secs_f64() * 1e6 / f64::from(ROUNDS)
}

/// Depth-1 round trips for `budget`, then pipelined round trips for `budget`.
/// `codec_us` is subtracted from the CPU cost per message.
fn measure(
    pair: &dyn EchoPair,
    payload_bytes: usize,
    budget: Duration,
    codec_us: f64,
) -> EchoResult {
    let payload = Payload::zeros(payload_bytes);
    let mut seq = 0u64;
    // Warm-up: connections dialled, code paths hot.
    for _ in 0..200 {
        pair.submit(message(seq, &payload));
        seq += 1;
        pair.wait_total(seq);
    }

    let mut rtts_ns = Vec::new();
    let cpu_before = self_cpu();
    let begin = Instant::now();
    while begin.elapsed() < budget {
        let sent = Instant::now();
        pair.submit(message(seq, &payload));
        seq += 1;
        pair.wait_total(seq);
        rtts_ns.push(sent.elapsed().as_nanos() as u64);
    }
    let idle_cpu = self_cpu() - cpu_before;
    let idle_msgs = rtts_ns.len() as f64 * 2.0;
    rtts_ns.sort_unstable();

    // Pipelined: keep PIPELINE round trips in flight, in bursts of a
    // quarter pipeline so the submitting thread is not the bottleneck.
    let cpu_before = self_cpu();
    let begin = Instant::now();
    let first = seq;
    let mut done = seq;
    while begin.elapsed() < budget {
        while seq < done + PIPELINE {
            pair.submit(message(seq, &payload));
            seq += 1;
        }
        done += PIPELINE / 4;
        pair.wait_total(done);
    }
    pair.wait_total(seq);
    let busy_wall = begin.elapsed();
    let busy_cpu = self_cpu() - cpu_before;
    let busy_msgs = (seq - first) as f64 * 2.0;

    EchoResult {
        rtt_us: percentile_sorted(&rtts_ns, 0.5).unwrap_or(0) as f64 / 1e3,
        msgs_per_s: (seq - first) as f64 / busy_wall.as_secs_f64(),
        // Floored at zero: the codec cost is measured alone and cold, and on a
        // 4 KiB frame it can come out above the whole in-situ cost.
        cpu_us_per_msg_idle: (idle_cpu.as_secs_f64() * 1e6 / idle_msgs.max(1.0) - codec_us)
            .max(0.0),
        cpu_us_per_msg_busy: (busy_cpu.as_secs_f64() * 1e6 / busy_msgs.max(1.0) - codec_us)
            .max(0.0),
    }
}

/// Echo over `InProcessCluster`: node loop + channel handoff.
pub fn channel_echo(budget: Duration) -> EchoResult {
    let pair = ChannelPair(InProcessCluster::spawn(nodes()));
    let result = measure(&pair, 20, budget, 0.0);
    pair.0.shutdown();
    result
}

/// Echo over two loopback `TcpNode`s with `payload_bytes` of payload, and
/// the frames both transports dropped (zero in any healthy run).
pub fn tcp_echo(payload_bytes: usize, budget: Duration) -> Result<(EchoResult, u64), String> {
    let mut addrs: BTreeMap<ProcessId, SocketAddr> = BTreeMap::new();
    for p in [PING, PONG] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        addrs.insert(p, listener.local_addr().map_err(|e| e.to_string())?);
    }
    let mut spawned = nodes()
        .into_iter()
        .map(|node| TcpNode::spawn(node, &addrs, false).map_err(|e| e.to_string()));
    let pair = TcpPair {
        ping: spawned.next().expect("two nodes")?,
        pong: spawned.next().expect("two nodes")?,
    };
    let result = measure(
        &pair,
        payload_bytes,
        budget,
        codec_us_per_msg(payload_bytes),
    );
    let dropped = pair.ping.dropped_frames() + pair.pong.dropped_frames();
    pair.ping.shutdown();
    pair.pong.shutdown();
    Ok((result, dropped))
}

/// Median of several short spin loops: nanoseconds per iteration of a fixed
/// integer recurrence. Taken before and after a run, it shows whether the
/// host's single-thread speed changed underneath the measurement.
pub fn spin_ns_per_iter() -> f64 {
    const ITERS: u64 = 2_000_000;
    let samples: Vec<f64> = (0..5)
        .map(|round| {
            let begin = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            begin.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// One-way thread wake-up latency, µs: two threads ping-pong over a pair of
/// self-pipes, each blocking in `poll(2)` — exactly how a `TcpNode`'s poller
/// is woken. The median round trip, halved.
pub fn thread_wake_us(rounds: usize) -> Result<f64, String> {
    use netpoll::{poll, PollFd, WakePipe, POLLIN};
    let there = std::sync::Arc::new(WakePipe::new().map_err(|e| e.to_string())?);
    let back = std::sync::Arc::new(WakePipe::new().map_err(|e| e.to_string())?);
    let wait = |pipe: &WakePipe| {
        let mut fds = [PollFd::new(pipe.read_fd(), POLLIN)];
        while !matches!(poll(&mut fds, Some(Duration::from_secs(1))), Ok(n) if n > 0) {}
        pipe.drain();
    };
    let echo = {
        let (there, back) = (there.clone(), back.clone());
        std::thread::spawn(move || {
            for _ in 0..rounds {
                wait(&there);
                back.wake();
            }
        })
    };
    let mut rtts_ns = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let sent = Instant::now();
        there.wake();
        wait(&back);
        rtts_ns.push(sent.elapsed().as_nanos() as u64);
    }
    echo.join()
        .map_err(|_| "wake echo thread panicked".to_string())?;
    rtts_ns.sort_unstable();
    Ok(percentile_sorted(&rtts_ns, 0.5).unwrap_or(0) as f64 / 2e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_nodes_return_what_they_get() {
        let msg = message(7, &Payload::zeros(3));
        let mut ping = PingNode;
        let mut pong = PongNode;
        let out = ping.on_event(Duration::ZERO, Event::Multicast(msg.clone()));
        assert_eq!(out, vec![Action::send(PONG, EchoMsg::Ping(msg.clone()))]);
        let back = pong.on_event(
            Duration::ZERO,
            Event::message(PING, EchoMsg::Ping(msg.clone())),
        );
        assert_eq!(back, vec![Action::send(PING, EchoMsg::Pong(msg.clone()))]);
        let done = ping.on_event(
            Duration::ZERO,
            Event::message(PONG, EchoMsg::Pong(msg.clone())),
        );
        assert_eq!(
            done,
            vec![Action::Deliver(DeliveredMessage::without_timestamp(msg))]
        );
    }

    #[test]
    fn channel_echo_completes_round_trips() {
        let result = channel_echo(Duration::from_millis(30));
        assert!(result.rtt_us > 0.0);
        assert!(result.msgs_per_s > 0.0);
    }
}
