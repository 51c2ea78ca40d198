//! Loopback/LAN TCP transport and the per-process node runtime behind the
//! `wbamd` deployment binary.
//!
//! Every peer pair is connected by two *simplex* TCP connections, one per
//! direction: a process dials each peer it sends to and uses that connection
//! only for writing, and accepts incoming connections only for reading. This
//! keeps connection management trivial (no simultaneous-open deduplication)
//! at the cost of one extra socket per pair — irrelevant at the cluster sizes
//! atomic multicast targets.
//!
//! All of a process's network IO is driven by **one nonblocking poller
//! thread** (see `WIRE.md` and DESIGN.md): it accepts inbound connections,
//! drains readable sockets, dials peers with exponential backoff, and flushes
//! per-peer output buffers with coalesced writes — a whole burst of frames
//! queued by the node thread goes out in one `write` call, so protocol
//! batches stay batched on the socket. The poller is **wake-on-ready**: on
//! Unix it multiplexes every socket plus a self-pipe wake fd through
//! `poll(2)` (the in-tree `netpoll` shim), so inbound bytes wake it the
//! instant the kernel marks a socket readable and the node thread wakes it
//! explicitly — one byte down the pipe per [`Transport::send_many`] burst —
//! when it queues outbound frames. The only timeout `poll` ever carries is
//! the next dial-backoff deadline; an idle process sleeps indefinitely and a
//! busy one never waits out a park. (Non-Unix targets keep the previous
//! portable fallback: a `recv_timeout` park on the command channel with an
//! adaptive 50 µs–50 ms idle, which woke instantly on *sends* but taxed
//! *inbound* bytes with the park latency — the regression the wake-on-ready
//! poller removes.)
//!
//! Framing is `wbam_types::wire`: each connection opens with the 4-byte
//! preamble (`"WB"` magic, wire version, codec byte) and a `Hello` frame
//! identifying the dialling process, then carries length-prefixed protocol
//! frames encoded with the negotiated [`WireCodec`] — compact binary by
//! default, JSON behind the `wbamd --wire json` compatibility flag. A peer
//! whose preamble disagrees (wrong codec, wrong version, not a WBAM process
//! at all) is rejected immediately with a clear error on stderr, so a
//! mixed-codec cluster fails fast instead of surfacing as garbled frames.
//!
//! Connection loss follows the fair-lossy link model the protocols are
//! designed for: bytes in flight die with the connection, frames queued while
//! a peer is down are capped and flushed after the reconnect (with backoff),
//! and the protocols' retry timers recover whatever was lost — so a restarted
//! peer process rejoins exactly like the simulator's `Event::Restart` path.
//! Frames dropped at the outbuf cap are *counted*, never silent: the per-peer
//! totals are published through [`TcpNode::dropped_frames`] and surface in
//! the `wbamd` stats line.
//!
//! # Example
//!
//! Spawn a 1-group × 1-replica "cluster" plus a client, each on its own TCP
//! endpoint (in production each [`TcpNode`] lives in its own OS process):
//!
//! ```
//! use std::collections::BTreeMap;
//! use std::time::Duration;
//! use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxReplica};
//! use wbam_runtime::TcpNode;
//! use wbam_types::{AppMessage, ClusterConfig, Destination, GroupId, MsgId, Payload, ProcessId};
//!
//! let cluster = ClusterConfig::builder().groups(1, 1).clients(1).build();
//! let replica = cluster.groups()[0].members()[0];
//! let client = cluster.clients()[0];
//! // Reserve two loopback ports for the example.
//! let mut addrs = BTreeMap::new();
//! for p in [replica, client] {
//!     let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//!     addrs.insert(p, l.local_addr().unwrap());
//! }
//! let r = TcpNode::spawn(
//!     Box::new(WhiteBoxReplica::new(
//!         ReplicaConfig::new(replica, GroupId(0), cluster.clone()).without_auto_election(),
//!     )),
//!     &addrs,
//!     false,
//! )
//! .unwrap();
//! let c = TcpNode::spawn(
//!     Box::new(MulticastClient::new(ClientConfig::new(client, cluster.clone()))),
//!     &addrs,
//!     false,
//! )
//! .unwrap();
//! c.submit(AppMessage::new(
//!     MsgId::new(client, 0),
//!     Destination::single(GroupId(0)),
//!     Payload::from("over tcp"),
//! ))
//! .unwrap();
//! // One replica delivery + one client completion.
//! assert!(r.wait_for_total(1, Duration::from_secs(10)).unwrap());
//! assert!(c.wait_for_total(1, Duration::from_secs(10)).unwrap());
//! r.shutdown();
//! c.shutdown();
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender, TryRecvError};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use wbam_types::wire::{
    check_preamble, decode_frame_slice, encode_frame_with, encode_preamble, WireCodec, PREAMBLE_LEN,
};
use wbam_types::{AppMessage, ProcessId, WbamError};

use crate::clock::{Clock, WallClock};
use crate::node_loop::{run_node, Envelope};
use crate::transport::Transport;
use crate::{BoxedNode, DeliveryLog, RuntimeDelivery};

/// First re-dial delay after a failed or lost connection.
const BACKOFF_INITIAL: Duration = Duration::from_millis(10);
/// Backoff cap: the poller re-dials a down peer at least this often.
const BACKOFF_MAX: Duration = Duration::from_millis(500);
/// Upper bound on one (blocking) dial attempt from the poller thread.
/// Loopback dials resolve instantly (connect or refuse); this only matters on
/// a real LAN with an unreachable peer.
const DIAL_TIMEOUT: Duration = Duration::from_millis(250);
/// Cap on a peer's output buffer. When it is full, new frames are dropped
/// (fair-lossy: the protocols' retry timers recover) — this bounds memory
/// while a peer is down without ever cutting a queued frame in half. Every
/// drop is counted in [`TransportStats`].
const OUTBUF_CAP: usize = 8 * 1024 * 1024;
/// Read granularity of the poller.
const READ_CHUNK: usize = 64 * 1024;

/// What travels inside a TCP frame: a connection handshake or a protocol
/// message, encoded with the connection's negotiated [`WireCodec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum WireFrame<M> {
    /// First frame of every connection (right after the preamble): identifies
    /// the dialling process, so the accepting side can tag subsequent frames
    /// with their sender.
    Hello {
        /// The dialling process.
        from: ProcessId,
    },
    /// A protocol message.
    Protocol(M),
}

/// A batch of already-encoded frames from the node thread to the poller.
pub(crate) enum PollerCmd {
    /// Frames to append to the named peers' output buffers, in order.
    Frames(Vec<(ProcessId, Bytes)>),
    /// Stop the poller and drop all connections.
    Shutdown,
}

/// Wakes the poller thread out of its readiness wait. On Unix this is the
/// write end of the poller's self-pipe ([`netpoll::WakePipe`]): one byte per
/// call, coalesced by the kernel, drained once per poller iteration. On
/// other targets it is a no-op — the fallback poller parks in `recv_timeout`
/// on the command channel, which its senders wake directly.
#[derive(Clone)]
pub(crate) struct PollerWaker {
    #[cfg(unix)]
    pipe: Arc<netpoll::WakePipe>,
}

impl PollerWaker {
    fn new() -> Result<Self, WbamError> {
        #[cfg(unix)]
        {
            let pipe = netpoll::WakePipe::new().map_err(WbamError::from)?;
            Ok(PollerWaker {
                pipe: Arc::new(pipe),
            })
        }
        #[cfg(not(unix))]
        Ok(PollerWaker {})
    }

    fn wake(&self) {
        #[cfg(unix)]
        self.pipe.wake();
    }
}

/// Transport liveness counters the poller publishes, shared with the
/// [`TcpNode`] handle so embedders (and the `wbamd` stats line) can observe
/// frame loss that the fair-lossy model would otherwise hide completely.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Frames dropped at [`OUTBUF_CAP`], or before that for not fitting a
    /// frame at all ([`MAX_FRAME_LEN`](wbam_types::wire::MAX_FRAME_LEN)), per
    /// destination peer. The peer set is fixed at spawn, so the map itself
    /// is never mutated — only the counters — and reads need no lock.
    dropped: BTreeMap<ProcessId, AtomicU64>,
}

impl TransportStats {
    fn for_peers(peers: impl IntoIterator<Item = ProcessId>) -> Self {
        TransportStats {
            dropped: peers.into_iter().map(|p| (p, AtomicU64::new(0))).collect(),
        }
    }

    fn record_drop(&self, peer: ProcessId) {
        if let Some(counter) = self.dropped.get(&peer) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total frames dropped, across all peers. Zero in any run where no peer
    /// stayed down long enough to fill 8 MiB and no message outgrew a frame.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped
            .values()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Frames dropped, by destination peer (peers with zero drops are
    /// omitted).
    pub fn dropped_frames_by_peer(&self) -> BTreeMap<ProcessId, u64> {
        self.dropped
            .iter()
            .map(|(&p, c)| (p, c.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

/// Everything the spawning side needs to control a running poller thread.
pub(crate) struct PollerHandle {
    pub(crate) cmd_tx: Sender<PollerCmd>,
    pub(crate) waker: PollerWaker,
    pub(crate) stats: Arc<TransportStats>,
    pub(crate) thread: JoinHandle<()>,
}

/// TCP transport: encodes messages into wire frames on the node thread and
/// hands them — a whole protocol step per handoff — to the process's poller
/// thread, which owns every socket. Messages a node sends to *itself* (a
/// leader is a member of its own group and ACCEPTs to every member)
/// short-circuit into the local envelope channel instead of crossing the
/// network stack.
pub struct TcpTransport<M> {
    local: ProcessId,
    codec: WireCodec,
    loopback: Sender<Envelope<M>>,
    cmd_tx: Sender<PollerCmd>,
    waker: PollerWaker,
    peers: HashSet<ProcessId>,
    stats: Arc<TransportStats>,
}

impl<M: Serialize + DeserializeOwned + Send + 'static> TcpTransport<M> {
    /// Creates the transport used by `local` to reach every other process in
    /// `addrs` and spawns the poller thread that owns `listener` and all
    /// peer connections. Returns the transport and the poller's control
    /// handle (command channel, waker, stats, join handle).
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::Io`] when the wake pipe cannot be created.
    pub(crate) fn new(
        local: ProcessId,
        codec: WireCodec,
        listener: TcpListener,
        loopback: Sender<Envelope<M>>,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        shutdown: Arc<AtomicBool>,
        clock: WallClock,
    ) -> Result<(Self, PollerHandle), WbamError> {
        let (cmd_tx, cmd_rx) = unbounded();
        let waker = PollerWaker::new()?;
        // Preamble + Hello, sent as the first bytes of every outbound
        // connection. Encoded once here (where `M: Serialize` is in scope);
        // the poller itself only needs to decode.
        let mut hello = encode_preamble(codec).to_vec();
        let hello_frame = encode_frame_with(codec, &WireFrame::<M>::Hello { from: local })
            .expect("Hello frame serialisation cannot fail");
        hello.extend_from_slice(&hello_frame);

        let peer_addrs: Vec<(ProcessId, SocketAddr)> = addrs
            .iter()
            .filter(|(&p, _)| p != local)
            .map(|(&p, &a)| (p, a))
            .collect();
        let peers: HashSet<ProcessId> = peer_addrs.iter().map(|&(p, _)| p).collect();
        let stats = Arc::new(TransportStats::for_peers(peers.iter().copied()));
        let env_tx = loopback.clone();
        let thread = {
            let waker = waker.clone();
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                poller_loop::<M, _>(
                    codec, listener, peer_addrs, hello, cmd_rx, env_tx, shutdown, waker, stats,
                    clock,
                );
            })
        };
        let handle = PollerHandle {
            cmd_tx: cmd_tx.clone(),
            waker: waker.clone(),
            stats: Arc::clone(&stats),
            thread,
        };
        Ok((
            TcpTransport {
                local,
                codec,
                loopback,
                cmd_tx,
                waker,
                peers,
                stats,
            },
            handle,
        ))
    }
}

/// Encodes `msg` as a protocol frame for `to`. An unencodable message (over
/// `MAX_FRAME_LEN`, e.g. an oversized state transfer) is dropped — it could
/// never reach the peer, and retrying cannot help — but like every dropped
/// frame it is counted against the peer, never lost silently.
fn encode_for<M: Serialize>(
    codec: WireCodec,
    to: ProcessId,
    msg: M,
    stats: &TransportStats,
) -> Option<Bytes> {
    let frame = encode_frame_with(codec, &WireFrame::Protocol(msg)).ok();
    if frame.is_none() {
        stats.record_drop(to);
    }
    frame
}

impl<M: Serialize + DeserializeOwned + Send + 'static> Transport<M> for TcpTransport<M> {
    fn send(&self, to: ProcessId, msg: M) {
        self.send_many(vec![(to, msg)]);
    }

    fn send_many(&self, msgs: Vec<(ProcessId, M)>) {
        let mut frames = Vec::with_capacity(msgs.len());
        for (to, msg) in msgs {
            if to == self.local {
                let _ = self.loopback.send(Envelope::FromPeer {
                    from: self.local,
                    msg,
                });
            } else if self.peers.contains(&to) {
                if let Some(frame) = encode_for(self.codec, to, msg, &self.stats) {
                    frames.push((to, frame));
                }
            }
        }
        if !frames.is_empty() {
            let _ = self.cmd_tx.send(PollerCmd::Frames(frames));
            // One wake per burst: the poller drains the whole channel (and
            // every other pending wake) in a single iteration.
            self.waker.wake();
        }
    }
}

/// Outbound state for one peer, owned by the poller: the (re)dialled
/// connection and the coalescing output buffer.
struct PeerOut {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Queued wire bytes; `offset..` is the unsent suffix. Always cut at
    /// frame boundaries when no connection is up.
    outbuf: Vec<u8>,
    offset: usize,
    /// Earliest [`Clock`] time (elapsed since runtime start) the next dial
    /// may be attempted — all backoff arithmetic is pure `Duration` math on
    /// the poller's clock, never a direct `Instant` read.
    next_dial: Duration,
    backoff: Duration,
}

impl PeerOut {
    fn new(addr: SocketAddr) -> Self {
        PeerOut {
            addr,
            conn: None,
            outbuf: Vec::new(),
            offset: 0,
            next_dial: Duration::ZERO,
            backoff: BACKOFF_INITIAL,
        }
    }

    fn queued(&self) -> usize {
        self.outbuf.len() - self.offset
    }

    /// Appends one frame, dropping it when the buffer is full (fair-lossy —
    /// dropping the *new* frame, never truncating the buffer, keeps the byte
    /// stream cut at frame boundaries even mid-flush). Returns whether the
    /// frame was queued; the caller counts drops in [`TransportStats`].
    #[must_use]
    fn queue(&mut self, frame: &[u8]) -> bool {
        if self.queued() + frame.len() > OUTBUF_CAP {
            return false;
        }
        self.outbuf.extend_from_slice(frame);
        true
    }

    /// Drops the connection and everything queued behind it: a partial frame
    /// cannot be resumed on a fresh connection, and the fair-lossy model says
    /// the protocols re-drive whatever mattered.
    fn disconnect(&mut self, now: Duration) {
        self.conn = None;
        self.outbuf.clear();
        self.offset = 0;
        self.next_dial = now + BACKOFF_INITIAL;
        self.backoff = (BACKOFF_INITIAL * 2).min(BACKOFF_MAX);
    }

    /// Records a failed dial attempt: the next attempt waits out the current
    /// backoff, which then doubles toward [`BACKOFF_MAX`].
    fn note_dial_failure(&mut self, now: Duration) {
        self.next_dial = now + self.backoff;
        self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
    }

    /// Adopts a freshly dialled connection, prepending `hello` (preamble +
    /// Hello frame) to whatever queued up while the peer was down, and —
    /// crucially — resets the dial backoff to [`BACKOFF_INITIAL`] so the
    /// *next* outage starts from a fast re-dial instead of inheriting this
    /// outage's climbed-up delay.
    fn adopt_connection(&mut self, stream: TcpStream, hello: &[u8]) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        let mut buf = Vec::with_capacity(hello.len() + self.queued());
        buf.extend_from_slice(hello);
        buf.extend_from_slice(&self.outbuf[self.offset..]);
        self.outbuf = buf;
        self.offset = 0;
        self.conn = Some(stream);
        self.backoff = BACKOFF_INITIAL;
    }
}

/// Inbound state for one accepted connection.
struct InConn {
    stream: TcpStream,
    /// Peer address, for error messages only.
    desc: String,
    buf: Vec<u8>,
    preamble_ok: bool,
    from: Option<ProcessId>,
    /// Whether the last readiness wait marked this connection readable (set
    /// optimistically on accept, so a connection whose preamble is already
    /// in flight is serviced without waiting for another poll round).
    ready: bool,
}

/// Appends a command batch's frames to the peers' output buffers, counting
/// frames dropped at the cap.
fn queue_frames(
    frames: Vec<(ProcessId, Bytes)>,
    peers: &mut HashMap<ProcessId, PeerOut>,
    stats: &TransportStats,
) {
    for (to, frame) in frames {
        if let Some(peer) = peers.get_mut(&to) {
            if !peer.queue(&frame) {
                stats.record_drop(to);
            }
        }
    }
}

/// The single IO thread of a [`TcpNode`] process: accepts, reads, dials and
/// writes every socket, nonblocking throughout. Dispatches to the
/// wake-on-ready implementation on Unix and the portable parked fallback
/// elsewhere; see the module docs for the scheduling discipline.
#[allow(clippy::too_many_arguments)]
fn poller_loop<M: DeserializeOwned + Send + 'static, C: Clock>(
    codec: WireCodec,
    listener: TcpListener,
    peer_addrs: Vec<(ProcessId, SocketAddr)>,
    hello: Vec<u8>,
    cmd_rx: Receiver<PollerCmd>,
    env_tx: Sender<Envelope<M>>,
    shutdown: Arc<AtomicBool>,
    waker: PollerWaker,
    stats: Arc<TransportStats>,
    clock: C,
) {
    #[cfg(unix)]
    ready_poller_loop::<M, C>(
        codec, listener, peer_addrs, hello, cmd_rx, env_tx, shutdown, waker, stats, clock,
    );
    #[cfg(not(unix))]
    {
        let _ = waker;
        parked_poller_loop::<M, C>(
            codec, listener, peer_addrs, hello, cmd_rx, env_tx, shutdown, stats, clock,
        );
    }
}

/// The wake-on-ready poller (Unix): every socket plus the wake pipe is
/// multiplexed through `poll(2)`, so the loop runs only when the kernel has
/// something for it — readable bytes, a writable once-full socket, a dead
/// connection — or the node thread queued frames (self-pipe wake). The only
/// timeout ever passed to `poll` is the nearest dial-backoff deadline of a
/// down peer with queued bytes; an idle process sleeps indefinitely.
#[cfg(unix)]
#[allow(clippy::too_many_arguments)]
fn ready_poller_loop<M: DeserializeOwned + Send + 'static, C: Clock>(
    codec: WireCodec,
    listener: TcpListener,
    peer_addrs: Vec<(ProcessId, SocketAddr)>,
    hello: Vec<u8>,
    cmd_rx: Receiver<PollerCmd>,
    env_tx: Sender<Envelope<M>>,
    shutdown: Arc<AtomicBool>,
    waker: PollerWaker,
    stats: Arc<TransportStats>,
    clock: C,
) {
    use std::os::unix::io::AsRawFd;

    use netpoll::{poll, PollFd, POLLIN, POLLOUT};

    let mut peers: HashMap<ProcessId, PeerOut> = peer_addrs
        .into_iter()
        .map(|(p, a)| (p, PeerOut::new(a)))
        .collect();
    // Stable iteration order for aligning peers with poll-set entries.
    let peer_ids: Vec<ProcessId> = peers.keys().copied().collect();
    let mut inbound: Vec<InConn> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut listener_ready = true; // service everything on the first pass
    let mut fds: Vec<PollFd> = Vec::new();

    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }

        // 1. Consume pending wakes, *then* drain the channel: a wake racing
        // in after the drain leaves the pipe readable, so the next poll
        // returns immediately and no queued command is ever stranded.
        waker.pipe.drain();
        loop {
            match cmd_rx.try_recv() {
                Ok(PollerCmd::Frames(frames)) => queue_frames(frames, &mut peers, &stats),
                Ok(PollerCmd::Shutdown) | Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => break,
            }
        }

        // 2. Accept new inbound connections when the listener polled ready.
        if listener_ready {
            loop {
                match listener.accept() {
                    Ok((stream, addr)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        inbound.push(InConn {
                            stream,
                            desc: addr.to_string(),
                            buf: Vec::new(),
                            preamble_ok: false,
                            from: None,
                            ready: true,
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break, // transient accept error; retry next poll
                }
            }
        }

        // 3. Read and decode from every inbound connection the kernel marked
        // readable (level-triggered: unread bytes re-report next poll).
        inbound.retain_mut(|conn| {
            !std::mem::take(&mut conn.ready) || service_inbound(conn, codec, &env_tx, &mut chunk)
        });

        // 4. Dial due peers and flush queued output. Writes are attempted
        // whenever bytes are queued — at worst one spurious `WouldBlock` per
        // wake — so a frame queued in step 1 reaches the kernel in the same
        // iteration, without waiting for a POLLOUT round-trip.
        let now = clock.now();
        for peer in peers.values_mut() {
            service_peer(peer, &hello, now);
        }

        // 5. Build the poll set: wake pipe, listener, inbound sockets
        // (readable), connected peers (writable only while bytes are
        // queued; error/hangup conditions report regardless, so a dead
        // outbound connection is noticed without writing to it).
        fds.clear();
        fds.push(PollFd::new(waker.pipe.read_fd(), POLLIN));
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        for conn in &inbound {
            fds.push(PollFd::new(conn.stream.as_raw_fd(), POLLIN));
        }
        let peer_base = fds.len();
        let mut polled_peers: Vec<ProcessId> = Vec::with_capacity(peer_ids.len());
        for &id in &peer_ids {
            let peer = &peers[&id];
            if let Some(conn) = &peer.conn {
                let events = if peer.queued() > 0 { POLLOUT } else { 0 };
                fds.push(PollFd::new(conn.as_raw_fd(), events));
                polled_peers.push(id);
            }
        }

        // 6. The sole timeout: the nearest re-dial deadline among down peers
        // that have bytes to deliver. With none, block until readiness or an
        // explicit wake — there is nothing else the poller could usefully do.
        let timeout = peers
            .values()
            .filter(|p| p.conn.is_none() && p.queued() > 0)
            .map(|p| p.next_dial.saturating_sub(now))
            .min();
        match poll(&mut fds, timeout) {
            Ok(_) => {}
            Err(e) => {
                // A failing poll (EINVAL/ENOMEM — none expected at this fd
                // count) must not hot-loop; degrade to a short sleep and
                // retry rather than killing the process's networking.
                eprintln!("wbam-runtime: poll failed: {e}");
                std::thread::sleep(Duration::from_millis(5));
                listener_ready = true;
                for conn in &mut inbound {
                    conn.ready = true;
                }
                continue;
            }
        }

        // 7. Record readiness for the next iteration's servicing passes.
        listener_ready = fds[1].readable();
        for (conn, fd) in inbound.iter_mut().zip(&fds[2..peer_base]) {
            conn.ready = fd.readable();
        }
        let now = clock.now();
        for (&id, fd) in polled_peers.iter().zip(&fds[peer_base..]) {
            if fd.has_error() {
                // RST/FIN on a write-only connection: drop it now instead of
                // discovering the corpse on the next write.
                peers
                    .get_mut(&id)
                    .expect("polled peer exists")
                    .disconnect(now);
            }
        }
    }
}

/// The portable fallback poller (non-Unix): parks in a short `recv_timeout`
/// on the command channel, so outbound sends wake it instantly but inbound
/// socket bytes wait out the park — an adaptive 50 µs–50 ms idle that backs
/// off while the process is quiet. Kept only where `poll(2)` is unavailable.
#[cfg(not(unix))]
#[allow(clippy::too_many_arguments)]
fn parked_poller_loop<M: DeserializeOwned + Send + 'static, C: Clock>(
    codec: WireCodec,
    listener: TcpListener,
    peer_addrs: Vec<(ProcessId, SocketAddr)>,
    hello: Vec<u8>,
    cmd_rx: Receiver<PollerCmd>,
    env_tx: Sender<Envelope<M>>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    clock: C,
) {
    /// Shortest idle wait between iterations; yields the core to the node
    /// thread instead of spinning.
    const IDLE_MIN: Duration = Duration::from_micros(50);
    /// Longest idle wait once the process has been quiet for a while; also
    /// bounds how stale the shutdown flag can get on this fallback path.
    const IDLE_MAX: Duration = Duration::from_millis(50);
    /// How long after the last activity the wait stays at `IDLE_MIN` before
    /// backing off exponentially toward `IDLE_MAX`.
    const HOT_WINDOW: Duration = Duration::from_millis(5);

    use crate::clock::WaitError;

    let mut peers: HashMap<ProcessId, PeerOut> = peer_addrs
        .into_iter()
        .map(|(p, a)| (p, PeerOut::new(a)))
        .collect();
    let mut inbound: Vec<InConn> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut idle = IDLE_MIN;
    let mut last_progress = clock.now();

    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let mut progress = false;

        loop {
            match cmd_rx.try_recv() {
                Ok(PollerCmd::Frames(frames)) => {
                    progress = true;
                    queue_frames(frames, &mut peers, &stats);
                }
                Ok(PollerCmd::Shutdown) | Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => break,
            }
        }

        loop {
            match listener.accept() {
                Ok((stream, addr)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    inbound.push(InConn {
                        stream,
                        desc: addr.to_string(),
                        buf: Vec::new(),
                        preamble_ok: false,
                        from: None,
                        ready: true,
                    });
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        inbound.retain_mut(|conn| {
            let had = conn.buf.len();
            let keep = service_inbound(conn, codec, &env_tx, &mut chunk);
            progress |= conn.buf.len() != had || !keep;
            keep
        });

        let now = clock.now();
        for peer in peers.values_mut() {
            progress |= service_peer(peer, &hello, now);
        }

        if progress {
            last_progress = clock.now();
            idle = IDLE_MIN;
        } else if clock.now().saturating_sub(last_progress) > HOT_WINDOW {
            idle = (idle * 2).min(IDLE_MAX);
        }
        match clock.recv_deadline(&cmd_rx, Some(clock.now() + idle)) {
            Ok(PollerCmd::Frames(frames)) => {
                last_progress = clock.now();
                idle = IDLE_MIN;
                queue_frames(frames, &mut peers, &stats);
            }
            Ok(PollerCmd::Shutdown) => return,
            Err(WaitError::Timeout) => {}
            Err(WaitError::Disconnected) => return,
        }
    }
}

/// Drains one inbound connection: reads until `WouldBlock`, then decodes
/// every complete frame with a cursor and compacts the buffer once. Returns
/// `false` when the connection should be dropped (EOF, IO error, bad
/// preamble, undecodable frame — a corrupt length prefix cannot be resynced
/// from; the peer's poller re-dials).
fn service_inbound<M: DeserializeOwned>(
    conn: &mut InConn,
    codec: WireCodec,
    env_tx: &Sender<Envelope<M>>,
    chunk: &mut [u8],
) -> bool {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => return false,
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    let mut pos = 0usize;
    if !conn.preamble_ok {
        if conn.buf.len() < PREAMBLE_LEN {
            return true; // need more bytes
        }
        let mut preamble = [0u8; PREAMBLE_LEN];
        preamble.copy_from_slice(&conn.buf[..PREAMBLE_LEN]);
        if let Err(e) = check_preamble(&preamble, codec) {
            eprintln!("wbam-runtime: rejecting connection from {}: {e}", conn.desc);
            return false;
        }
        conn.preamble_ok = true;
        pos = PREAMBLE_LEN;
    }
    loop {
        match decode_frame_slice::<WireFrame<M>>(codec, &conn.buf[pos..]) {
            Ok(Some((WireFrame::Hello { from }, used))) => {
                conn.from = Some(from);
                pos += used;
            }
            Ok(Some((WireFrame::Protocol(msg), used))) => {
                pos += used;
                let Some(from) = conn.from else {
                    eprintln!(
                        "wbam-runtime: dropping connection from {}: protocol frame before Hello",
                        conn.desc
                    );
                    return false;
                };
                if env_tx.send(Envelope::FromPeer { from, msg }).is_err() {
                    return false; // node thread gone
                }
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("wbam-runtime: dropping connection from {}: {e}", conn.desc);
                return false;
            }
        }
    }
    if pos > 0 {
        conn.buf.drain(..pos);
    }
    true
}

/// Dials a peer if due and flushes its output buffer with coalesced writes:
/// everything queued goes to the kernel in as few `write` calls as the
/// socket buffer allows. Returns whether any progress (dial or bytes
/// written) was made. `now` is the poller's clock reading (elapsed since
/// runtime start).
fn service_peer(peer: &mut PeerOut, hello: &[u8], now: Duration) -> bool {
    let mut progress = false;
    if peer.conn.is_none() {
        // Dial lazily: only a peer we have bytes for is worth a connection.
        if peer.queued() == 0 || now < peer.next_dial {
            return false;
        }
        match TcpStream::connect_timeout(&peer.addr, DIAL_TIMEOUT) {
            Ok(stream) => {
                // The fresh connection starts with preamble + Hello, then
                // whatever queued up while the peer was down.
                peer.adopt_connection(stream, hello);
                progress = true;
            }
            Err(_) => {
                peer.note_dial_failure(now);
                return false;
            }
        }
    }
    let stream = peer.conn.as_mut().expect("connected above");
    while peer.offset < peer.outbuf.len() {
        match stream.write(&peer.outbuf[peer.offset..]) {
            Ok(0) => {
                peer.disconnect(now);
                return true;
            }
            Ok(n) => {
                peer.offset += n;
                progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break, // socket buffer full
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                peer.disconnect(now);
                return true;
            }
        }
    }
    if peer.offset == peer.outbuf.len() {
        peer.outbuf.clear();
        peer.offset = 0;
    } else if peer.offset > READ_CHUNK {
        peer.outbuf.drain(..peer.offset);
        peer.offset = 0;
    }
    progress
}

/// One protocol node running over real TCP: the per-process runtime behind
/// the `wbamd` deployment binary (one OS process = one [`TcpNode`]).
///
/// The node runs the same event loop as [`InProcessCluster`](crate::InProcessCluster)
/// — only the transport differs — so a protocol that is correct under the
/// simulator and the in-process runtime behaves identically here.
///
/// The delivery accessors return [`WbamError::NotReady`] when the node
/// thread has panicked while publishing deliveries (a poisoned delivery
/// log): one dead node thread must surface as an error to the embedder, not
/// as a panic cascade through every thread that touches the log.
pub struct TcpNode<M> {
    id: ProcessId,
    env_tx: Sender<Envelope<M>>,
    cmd_tx: Sender<PollerCmd>,
    waker: PollerWaker,
    stats: Arc<TransportStats>,
    deliveries: Arc<DeliveryLog>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    clock: WallClock,
}

impl<M: Serialize + DeserializeOwned + Send + 'static> TcpNode<M> {
    /// Spawns the node with the default wire codec ([`WireCodec::Binary`]);
    /// see [`Self::spawn_with_codec`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::spawn_with_codec`].
    pub fn spawn(
        node: BoxedNode<M>,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        restart: bool,
    ) -> Result<Self, WbamError> {
        Self::spawn_with_codec(node, addrs, restart, WireCodec::default())
    }

    /// Binds `addrs[node.id()]`, spawns the poller thread and the node
    /// thread, and starts the node with `Event::Init`. All connections use
    /// `codec` for their frame bodies; the preamble handshake rejects peers
    /// running a different codec (or wire version) with a clear error.
    ///
    /// With `restart = true` the node additionally receives `Event::Restart`
    /// before any peer traffic — the flag a redeployed `wbamd` process passes
    /// so the replica rejoins its group (fresh ballot via the `NEW_LEADER`
    /// handshake, state re-synchronised from a quorum) exactly like the
    /// simulator's restart path.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::UnknownProcess`] when `addrs` has no entry for
    /// the node, or [`WbamError::Io`] when binding its listen address (or
    /// creating the poller's wake pipe) fails.
    pub fn spawn_with_codec(
        node: BoxedNode<M>,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        restart: bool,
        codec: WireCodec,
    ) -> Result<Self, WbamError> {
        let id = node.id();
        let listen = *addrs.get(&id).ok_or(WbamError::UnknownProcess(id))?;
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;

        let clock = WallClock::new();
        let deliveries = Arc::new(DeliveryLog::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (env_tx, env_rx) = unbounded();
        let mut threads = Vec::new();

        if restart {
            // Enqueued before the poller thread exists, so the node is
            // guaranteed to process Event::Init then Event::Restart before
            // any peer traffic (connections parked in the kernel backlog are
            // only read once the poller starts accepting).
            let _ = env_tx.send(Envelope::Restart);
        }
        let (transport, poller) = TcpTransport::new(
            id,
            codec,
            listener,
            env_tx.clone(),
            addrs,
            Arc::clone(&shutdown),
            clock,
        )?;
        let PollerHandle {
            cmd_tx,
            waker,
            stats,
            thread,
        } = poller;
        threads.push(thread);
        {
            let deliveries = Arc::clone(&deliveries);
            threads.push(std::thread::spawn(move || {
                run_node(node, env_rx, transport, deliveries, clock);
            }));
        }
        Ok(TcpNode {
            id,
            env_tx,
            cmd_tx,
            waker,
            stats,
            deliveries,
            shutdown,
            threads,
            clock,
        })
    }

    /// The process this node plays.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Submits an application message for multicast at this node (normally a
    /// client node).
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::NotReady`] when the node thread has exited.
    pub fn submit(&self, msg: AppMessage) -> Result<(), WbamError> {
        self.control(Envelope::Submit(msg))
    }

    /// Tells the node to start leader recovery.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::NotReady`] when the node thread has exited.
    pub fn become_leader(&self) -> Result<(), WbamError> {
        self.control(Envelope::BecomeLeader)
    }

    fn control(&self, envelope: Envelope<M>) -> Result<(), WbamError> {
        self.env_tx.send(envelope).map_err(|_| WbamError::NotReady {
            process: self.id,
            reason: "node thread has exited".to_string(),
        })
    }

    /// Errors out when the node thread has panicked while holding the
    /// delivery log, so embedders get a typed error instead of a cascade.
    fn check_log(&self) -> Result<(), WbamError> {
        if self.deliveries.is_poisoned() {
            return Err(WbamError::NotReady {
                process: self.id,
                reason: "node thread panicked while publishing deliveries; \
                         the delivery log may be incomplete"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// A snapshot of the deliveries currently buffered.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::NotReady`] when the node thread has panicked
    /// while publishing deliveries.
    pub fn deliveries(&self) -> Result<Vec<RuntimeDelivery>, WbamError> {
        self.check_log()?;
        Ok(self.deliveries.snapshot())
    }

    /// Removes and returns all buffered deliveries (see
    /// [`InProcessCluster::drain_deliveries`](crate::InProcessCluster::drain_deliveries)).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::deliveries`].
    pub fn drain_deliveries(&self) -> Result<Vec<RuntimeDelivery>, WbamError> {
        self.check_log()?;
        Ok(self.deliveries.drain())
    }

    /// Total number of deliveries observed since spawn, including drained ones.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::deliveries`].
    pub fn total_deliveries(&self) -> Result<u64, WbamError> {
        self.check_log()?;
        Ok(self.deliveries.total())
    }

    /// Blocks until the cumulative delivery count reaches `count` or the
    /// timeout expires; returns whether the count was reached.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::deliveries`] — a node thread that panicked
    /// before or during the wait surfaces as the error, not a stuck `false`.
    pub fn wait_for_total(&self, count: u64, timeout: Duration) -> Result<bool, WbamError> {
        let reached = self.deliveries.wait_for_total(count, timeout);
        self.check_log()?;
        Ok(reached)
    }

    /// Total frames this node's transport dropped at the per-peer output
    /// buffer cap since spawn. Zero in any fault-free run; non-zero means a
    /// peer stayed unreachable long enough to fill its 8 MiB buffer and the
    /// protocols' retry timers carried the loss.
    pub fn dropped_frames(&self) -> u64 {
        self.stats.dropped_frames()
    }

    /// Frames dropped, by destination peer (peers with zero drops are
    /// omitted).
    pub fn dropped_frames_by_peer(&self) -> BTreeMap<ProcessId, u64> {
        self.stats.dropped_frames_by_peer()
    }

    /// Time since the node was spawned.
    pub fn uptime(&self) -> Duration {
        self.clock.now()
    }

    /// Stops the node and its poller thread and waits for them to exit. The
    /// explicit wake means the poller observes the shutdown immediately,
    /// even when it is parked with no timeout.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.env_tx.send(Envelope::Shutdown);
        let _ = self.cmd_tx.send(PollerCmd::Shutdown);
        self.waker.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
    use wbam_types::{ClusterConfig, Destination, GroupId, MsgId, Payload};

    /// Reserves one free loopback port per process by briefly binding port 0.
    fn reserve_addrs(cluster: &ClusterConfig) -> BTreeMap<ProcessId, SocketAddr> {
        cluster
            .all_processes()
            .into_iter()
            .map(|p| {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
                (p, l.local_addr().expect("local addr"))
            })
            .collect()
    }

    fn spawn_replica(
        cluster: &ClusterConfig,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        member: ProcessId,
        restart: bool,
        codec: WireCodec,
    ) -> TcpNode<WhiteBoxMsg> {
        let group = cluster.group_of(member).expect("replica group");
        let cfg = ReplicaConfig::new(member, group, cluster.clone()).without_auto_election();
        TcpNode::spawn_with_codec(Box::new(WhiteBoxReplica::new(cfg)), addrs, restart, codec)
            .expect("spawn")
    }

    fn order_of(node: &TcpNode<WhiteBoxMsg>) -> Vec<MsgId> {
        node.deliveries()
            .expect("delivery log healthy")
            .iter()
            .map(|d| d.delivery.msg.id)
            .collect()
    }

    /// A 2-group × 3-replica cluster over real loopback sockets delivers
    /// cross-group multicasts in identical per-replica order (binary codec,
    /// the deployed default), and a fault-free run drops zero frames at the
    /// output-buffer cap.
    #[test]
    fn tcp_cluster_delivers_cross_group_multicasts_in_order() {
        let cluster = ClusterConfig::builder().groups(2, 3).clients(1).build();
        let addrs = reserve_addrs(&cluster);
        let replicas: Vec<TcpNode<WhiteBoxMsg>> = cluster
            .groups()
            .iter()
            .flat_map(|gc| gc.members().to_vec())
            .map(|m| spawn_replica(&cluster, &addrs, m, false, WireCodec::Binary))
            .collect();
        let client_id = cluster.clients()[0];
        let client = TcpNode::spawn(
            Box::new(MulticastClient::new(ClientConfig::new(
                client_id,
                cluster.clone(),
            ))),
            &addrs,
            false,
        )
        .expect("spawn client");

        for seq in 0..5u64 {
            client
                .submit(AppMessage::new(
                    MsgId::new(client_id, seq),
                    Destination::new(vec![GroupId(0), GroupId(1)]).unwrap(),
                    Payload::from(format!("op-{seq}").as_str()),
                ))
                .unwrap();
        }
        assert!(client.wait_for_total(5, Duration::from_secs(30)).unwrap());
        for r in &replicas {
            assert!(
                r.wait_for_total(5, Duration::from_secs(30)).unwrap(),
                "replica {} delivered only {}",
                r.id(),
                r.total_deliveries().unwrap()
            );
        }
        let reference = order_of(&replicas[0]);
        assert_eq!(reference.len(), 5);
        for r in &replicas[1..] {
            assert_eq!(order_of(r), reference, "replica {} order differs", r.id());
        }
        for r in &replicas {
            assert_eq!(r.dropped_frames(), 0, "replica {} dropped frames", r.id());
            assert!(r.dropped_frames_by_peer().is_empty());
        }
        assert_eq!(client.dropped_frames(), 0);
        for r in replicas {
            r.shutdown();
        }
        client.shutdown();
    }

    /// The `--wire json` compatibility codec still carries a cluster
    /// end-to-end: a 1-group × 3-replica cluster plus client, all speaking
    /// JSON frames, delivers in identical order.
    #[test]
    fn json_codec_cluster_delivers() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let addrs = reserve_addrs(&cluster);
        let replicas: Vec<TcpNode<WhiteBoxMsg>> = cluster.groups()[0]
            .members()
            .iter()
            .map(|&m| spawn_replica(&cluster, &addrs, m, false, WireCodec::Json))
            .collect();
        let client_id = cluster.clients()[0];
        let client = TcpNode::spawn_with_codec(
            Box::new(MulticastClient::new(ClientConfig::new(
                client_id,
                cluster.clone(),
            ))),
            &addrs,
            false,
            WireCodec::Json,
        )
        .expect("spawn client");
        for seq in 0..3u64 {
            client
                .submit(AppMessage::new(
                    MsgId::new(client_id, seq),
                    Destination::single(GroupId(0)),
                    Payload::from(format!("op-{seq}").as_str()),
                ))
                .unwrap();
        }
        assert!(client.wait_for_total(3, Duration::from_secs(30)).unwrap());
        for r in &replicas {
            assert!(r.wait_for_total(3, Duration::from_secs(30)).unwrap());
        }
        let reference = order_of(&replicas[0]);
        for r in &replicas[1..] {
            assert_eq!(order_of(r), reference);
        }
        for r in replicas {
            r.shutdown();
        }
        client.shutdown();
    }

    /// Regression for the handshake version/codec negotiation: a peer whose
    /// preamble announces the wrong codec (or garbage) is disconnected
    /// promptly — the accepting side closes the socket instead of trying to
    /// parse frames it cannot decode.
    #[test]
    fn mismatched_preamble_is_rejected_with_prompt_close() {
        let cluster = ClusterConfig::builder().groups(1, 1).clients(0).build();
        let addrs = reserve_addrs(&cluster);
        let replica = cluster.groups()[0].members()[0];
        let node = spawn_replica(&cluster, &addrs, replica, false, WireCodec::Binary);

        let probe = |preamble: &[u8]| -> std::io::Result<usize> {
            let mut stream = TcpStream::connect(addrs[&replica]).expect("dial node");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(preamble).expect("write preamble");
            let mut buf = [0u8; 16];
            stream.read(&mut buf)
        };

        // A JSON-codec peer dialling a binary-codec node: closed with EOF (or
        // reset), never left hanging and never answered with data.
        match probe(&encode_preamble(WireCodec::Json)) {
            Ok(0) => {}
            Ok(n) => panic!("expected EOF, read {n} bytes"),
            Err(e) => assert!(
                matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
                "unexpected error {e:?}"
            ),
        }
        // A non-WBAM client (wrong magic) gets the same prompt close.
        match probe(b"GET /") {
            Ok(0) => {}
            Ok(n) => panic!("expected EOF, read {n} bytes"),
            Err(e) => assert!(
                matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
                "unexpected error {e:?}"
            ),
        }
        node.shutdown();
    }

    /// Killing a follower's process and spawning a fresh one on the same
    /// address (the `wbamd --restart` path) rejoins it to the group: peers'
    /// pollers reconnect with backoff, the fresh node's `Event::Restart`
    /// pulls the group state via the NEW_LEADER handshake, and it ends up
    /// with the same delivery order as the survivors.
    #[test]
    fn restarted_process_rejoins_over_tcp() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let addrs = reserve_addrs(&cluster);
        let members = cluster.groups()[0].members().to_vec();
        let mut replicas: BTreeMap<ProcessId, TcpNode<WhiteBoxMsg>> = members
            .iter()
            .map(|m| {
                (
                    *m,
                    spawn_replica(&cluster, &addrs, *m, false, WireCodec::Binary),
                )
            })
            .collect();
        let client_id = cluster.clients()[0];
        let client = TcpNode::spawn(
            Box::new(MulticastClient::new(ClientConfig::new(
                client_id,
                cluster.clone(),
            ))),
            &addrs,
            false,
        )
        .expect("spawn client");
        let submit = |seq: u64| {
            client
                .submit(AppMessage::new(
                    MsgId::new(client_id, seq),
                    Destination::single(GroupId(0)),
                    Payload::from(format!("op-{seq}").as_str()),
                ))
                .unwrap();
        };

        for seq in 0..3 {
            submit(seq);
        }
        assert!(client.wait_for_total(3, Duration::from_secs(30)).unwrap());

        // Kill the follower p1 (its listener and sockets die with it).
        let victim = members[1];
        replicas.remove(&victim).unwrap().shutdown();

        // The remaining quorum keeps delivering.
        for seq in 3..5 {
            submit(seq);
        }
        assert!(client.wait_for_total(5, Duration::from_secs(30)).unwrap());

        // A fresh process takes over the victim's address and rejoins.
        let rejoined = spawn_replica(&cluster, &addrs, victim, true, WireCodec::Binary);
        // It recovers the full history (its delivery log starts empty) and
        // keeps up with new traffic.
        submit(5);
        assert!(
            rejoined.wait_for_total(6, Duration::from_secs(30)).unwrap(),
            "rejoined replica delivered only {}",
            rejoined.total_deliveries().unwrap()
        );
        assert!(client.wait_for_total(6, Duration::from_secs(30)).unwrap());
        let survivor = &replicas[&members[0]];
        assert!(survivor.wait_for_total(6, Duration::from_secs(30)).unwrap());
        assert_eq!(
            order_of(&rejoined),
            order_of(survivor),
            "rejoined replica order differs from survivor"
        );

        rejoined.shutdown();
        for (_, r) in replicas {
            r.shutdown();
        }
        client.shutdown();
    }

    /// Regression for the dial-backoff state machine, exercised directly on
    /// [`PeerOut`] (the poller runs these exact transitions): repeated dial
    /// failures climb the backoff exponentially to its cap, and a successful
    /// (re)connect resets it to [`BACKOFF_INITIAL`] — a later outage must
    /// start from the fast 10 ms re-dial, not inherit a stale half-second
    /// delay from an earlier one.
    #[test]
    fn dial_backoff_resets_after_successful_reconnect() {
        // A port that was bound and released: dials are refused immediately.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
            l.local_addr().expect("local addr")
        };
        // The backoff state machine is pure Duration math on the poller's
        // clock, so the test drives it with explicit times.
        let mut peer = PeerOut::new(addr);
        assert!(peer.queue(b"frame"), "empty buffer accepts a frame");
        assert_eq!(peer.next_dial, Duration::ZERO, "first dial is due at once");

        // Fail enough dials to saturate the backoff at its cap. Each attempt
        // is made exactly when due, as the poller's timeout handling does.
        let mut expected = BACKOFF_INITIAL;
        for _ in 0..10 {
            let now = peer.next_dial;
            assert!(!service_peer(&mut peer, b"hello", now), "dial must fail");
            assert!(peer.conn.is_none());
            assert_eq!(peer.next_dial, now + expected, "wrong re-dial deadline");
            expected = (expected * 2).min(BACKOFF_MAX);
        }
        assert_eq!(peer.backoff, BACKOFF_MAX, "backoff saturates at the cap");

        // The peer comes back: the next due dial succeeds and must reset the
        // backoff so the *next* outage re-dials fast.
        let listener = TcpListener::bind(addr).expect("rebind victim port");
        let due = peer.next_dial;
        assert!(service_peer(&mut peer, b"hello", due));
        assert!(peer.conn.is_some(), "reconnected");
        assert_eq!(
            peer.backoff, BACKOFF_INITIAL,
            "stale backoff survived the reconnect"
        );
        // And losing the fresh connection re-dials after BACKOFF_INITIAL,
        // not after the previous outage's saturated 500 ms.
        let now = due + Duration::from_secs(1);
        peer.disconnect(now);
        assert_eq!(peer.next_dial, now + BACKOFF_INITIAL);
        drop(listener);
    }

    /// Frames beyond [`OUTBUF_CAP`] are dropped (never truncated) and the
    /// drop is counted per peer through [`TransportStats`].
    #[test]
    fn outbuf_overflow_drops_whole_frames_and_counts_them() {
        let addr = "127.0.0.1:9".parse().unwrap(); // never dialled here
        let mut peers = HashMap::new();
        peers.insert(ProcessId(7), PeerOut::new(addr));
        let stats = TransportStats::for_peers([ProcessId(7)]);

        let big = Bytes::from(vec![0u8; OUTBUF_CAP - 10]);
        let small = Bytes::from(vec![1u8; 64]);
        queue_frames(vec![(ProcessId(7), big)], &mut peers, &stats);
        assert_eq!(stats.dropped_frames(), 0);
        // The next frame would cross the cap: dropped whole, counted.
        queue_frames(
            vec![(ProcessId(7), small.clone()), (ProcessId(7), small)],
            &mut peers,
            &stats,
        );
        assert_eq!(stats.dropped_frames(), 2);
        assert_eq!(stats.dropped_frames_by_peer()[&ProcessId(7)], 2);
        // Unknown destinations are ignored, not counted against anyone.
        queue_frames(
            vec![(ProcessId(99), Bytes::from(vec![2u8; 8]))],
            &mut peers,
            &stats,
        );
        assert_eq!(stats.dropped_frames(), 2);
        assert_eq!(peers[&ProcessId(7)].queued(), OUTBUF_CAP - 10);
    }

    /// A message too large for any frame never reaches the poller, so the
    /// transport itself must count it: same counter, same per-peer view.
    #[test]
    fn unencodable_frames_are_dropped_and_counted() {
        let stats = TransportStats::for_peers([ProcessId(7)]);
        let fits = encode_for(WireCodec::Binary, ProcessId(7), vec![3u8; 64], &stats);
        assert!(fits.is_some());
        assert_eq!(stats.dropped_frames(), 0);

        let oversized = vec![3u8; wbam_types::wire::MAX_FRAME_LEN];
        assert!(encode_for(WireCodec::Binary, ProcessId(7), oversized, &stats).is_none());
        assert_eq!(stats.dropped_frames(), 1);
        assert_eq!(stats.dropped_frames_by_peer()[&ProcessId(7)], 1);
    }

    /// Regression for split reads on the accept path: the 4-byte preamble,
    /// the `Hello` frame and a protocol frame arriving **one byte per
    /// `write`** (what a fault-injecting proxy forwarding byte-at-a-time
    /// makes real) must be reassembled across short nonblocking reads — the
    /// handshake is a byte stream, not a datagram. The trickled MULTICAST
    /// must come out the far end as a normal delivery.
    #[test]
    fn handshake_split_across_byte_sized_reads_is_reassembled() {
        let cluster = ClusterConfig::builder().groups(1, 1).clients(1).build();
        let addrs = reserve_addrs(&cluster);
        let replica = cluster.groups()[0].members()[0];
        let client_id = cluster.clients()[0];
        let node = spawn_replica(&cluster, &addrs, replica, false, WireCodec::Binary);

        let mut bytes = encode_preamble(WireCodec::Binary).to_vec();
        bytes.extend_from_slice(
            &encode_frame_with(
                WireCodec::Binary,
                &WireFrame::<WhiteBoxMsg>::Hello { from: client_id },
            )
            .expect("encode Hello"),
        );
        bytes.extend_from_slice(
            &encode_frame_with(
                WireCodec::Binary,
                &WireFrame::Protocol(WhiteBoxMsg::Multicast {
                    msg: AppMessage::new(
                        MsgId::new(client_id, 0),
                        Destination::single(GroupId(0)),
                        Payload::from("trickled"),
                    ),
                }),
            )
            .expect("encode Multicast"),
        );

        let mut stream = TcpStream::connect(addrs[&replica]).expect("dial node");
        stream.set_nodelay(true).unwrap();
        for byte in &bytes {
            stream.write_all(std::slice::from_ref(byte)).expect("write");
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }

        assert!(
            node.wait_for_total(1, Duration::from_secs(30)).unwrap(),
            "trickled multicast was never delivered: the accept path mishandles \
             short reads inside the handshake"
        );
        assert_eq!(order_of(&node), vec![MsgId::new(client_id, 0)]);
        node.shutdown();
    }

    /// Regression for shutdown racing an in-flight reconnect: a node whose
    /// peers are unreachable sits in the dial-backoff cycle (queued bytes,
    /// climbing `next_dial`), and `shutdown()` landing in that state must
    /// join the poller promptly — no panic from the backoff machinery, no
    /// poller thread left dialling dead addresses after the join returns.
    #[test]
    fn shutdown_during_dial_backoff_joins_promptly() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(0).build();
        // Reserved-then-released ports: every dial is refused instantly, so
        // the two dead peers drive their backoff toward BACKOFF_MAX.
        let addrs = reserve_addrs(&cluster);
        let node = spawn_replica(
            &cluster,
            &addrs,
            cluster.groups()[0].members()[0],
            false,
            WireCodec::Binary,
        );
        // Leader recovery queues NEW_STATE traffic for both (dead) group
        // members, arming the dial/backoff cycle with real queued bytes.
        node.become_leader().unwrap();
        // Let the backoff climb so the shutdown lands mid-cycle, with the
        // poller parked on a re-dial deadline rather than idle.
        std::thread::sleep(Duration::from_millis(600));

        let begin = Instant::now();
        node.shutdown();
        let took = begin.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "shutdown under dial backoff took {took:?}: poller missed the wake"
        );
    }
}
