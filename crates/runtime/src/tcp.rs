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
//! A [`TcpNode`] is **one reactor thread**. It owns the listener, every
//! socket and the node loop, and the only call it ever blocks in is
//! `poll(2)` (the in-tree `netpoll` shim). One iteration: `recv` from the
//! sockets the kernel marked readable and decode their frames into a batch;
//! run the node over the batch plus its mail to itself and whatever other
//! threads put in the mailbox; fire due timers; flush the node's
//! [`DeliverySink`]; frame what the round sent each peer into that peer's
//! output buffer, and each buffer now leaves in one coalesced `send`; then
//! `poll` again, with the earlier of the node's next timer deadline and the
//! next re-dial deadline as the timeout. A message therefore crosses a
//! process in three syscalls — `poll`, `recv`, `send` — with no thread
//! hand-off, and an idle process sleeps until a socket, a timer or another
//! thread needs it.
//! Because the sink is flushed before the sockets are serviced, whatever a
//! round delivered has reached the sink before any frame of that round — a
//! reply to a client, say — leaves the process. DESIGN.md ("The reactor")
//! has the iteration in full, its fairness bounds and the timer lateness
//! `poll`'s millisecond timeout implies.
//!
//! Framing is the transport's rule and knows no protocol: the messages one
//! round sent a peer leave in sending order, up to 256 to a frame, several
//! as one `Batch` frame and a lone one as a plain `Protocol` frame, so a
//! busy round sends a peer a few frames instead of one per message, with no
//! timer and no knob, for every node alike ([`TcpTransport`] has the caps).
//! Before framing, the node's own [`Node::fold_sends`] may shrink a message
//! (the white-box replica sends a `DELIVER` by reference to a peer whose
//! `ACCEPT_ACK` arrived later in the round). The transport counts the
//! frames it built, the messages they carry and their bytes
//! ([`TcpNode::frames_sent`], [`TcpNode::messages_sent`],
//! [`TcpNode::bytes_sent`]).
//!
//! Other threads reach the reactor only through [`TcpNode::submit`],
//! [`TcpNode::become_leader`] and [`TcpNode::shutdown`]: an envelope in the
//! mailbox, then a byte down the reactor's self-pipe *only if* the reactor
//! announced it was going to sleep, so a caller of a busy reactor pays no
//! syscall and no wake is lost. A reactor that such a byte woke yields the
//! CPU once before it reads its mailbox, so a caller submitting a burst
//! finishes it and the burst leaves in one frame. Dialling a peer is the one
//! operation that can block for long (an unreachable host on a real LAN), so
//! each attempt runs on a short-lived thread of its own and hands the reactor
//! the connected stream or the failure.
//!
//! Framing is `wbam_types::wire`: each connection opens with the 4-byte
//! preamble (`"WB"` magic, wire version, codec byte) and a `Hello` frame
//! identifying the dialling process, then carries length-prefixed protocol
//! frames in the binary codec (`WIRE.md`), the only one the transport
//! speaks. A peer whose preamble disagrees (another codec, another wire
//! version, not a WBAM process at all) is rejected immediately with a clear
//! error on stderr, so a mismatched cluster fails fast instead of surfacing
//! as garbled frames.
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

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};
use netpoll::{poll, PollFd, WakePipe, POLLIN, POLLOUT};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use wbam_types::wire::{
    check_preamble, decode_frame_slice, encode_frame_into, encode_preamble, WireCodec,
    MAX_FRAME_LEN, PREAMBLE_LEN,
};
use wbam_types::{AppMessage, Node, ProcessId, WbamError};

use crate::clock::{Clock, WallClock};
use crate::node_loop::{Envelope, NodeLoop, MAX_ENVELOPE_BATCH};
use crate::{BoxedNode, DeliveryLog, DeliverySink, LogSink, RuntimeDelivery};

/// First re-dial delay after a failed or lost connection.
const BACKOFF_INITIAL: Duration = Duration::from_millis(10);
/// Backoff cap: a down peer with queued frames is re-dialled at least this
/// often.
const BACKOFF_MAX: Duration = Duration::from_millis(500);
/// Upper bound on one dial attempt. Loopback dials resolve instantly
/// (connect or refuse); this only matters on a real LAN with an unreachable
/// peer, and it is spent on a dial thread, never on the reactor.
const DIAL_TIMEOUT: Duration = Duration::from_millis(250);
/// Cap on a peer's output buffer. When it is full, new frames are dropped
/// (fair-lossy: the protocols' retry timers recover) — this bounds memory
/// while a peer is down without ever cutting a queued frame in half. Every
/// drop is counted in [`TransportStats`].
const OUTBUF_CAP: usize = 8 * 1024 * 1024;
/// The most one `recv` takes from a connection; the reactor does one `recv`
/// per readable connection per iteration.
const READ_CHUNK: usize = 64 * 1024;
/// How many times one reactor iteration runs the node before it goes back to
/// the sockets. A node's messages to itself are the next round's mail, so a
/// leader's ACCEPT → own ACCEPT_ACK chain finishes inside the iteration that
/// started it; the bound is what keeps a chain that never ends, or another
/// thread submitting without pause, from starving the sockets.
const MAX_ROUNDS: usize = 4;

/// The codec of every frame the transport writes and reads.
const CODEC: WireCodec = WireCodec::Binary;

/// The most messages one frame carries.
const FRAME_MAX_MESSAGES: usize = 256;
/// The most body bytes a frame of several messages takes; a lone message
/// may take up to [`MAX_FRAME_LEN`]. A run whose batch encodes larger is
/// framed as two halves, so no run of encodable messages ever becomes an
/// unencodable frame.
const FRAME_MAX_BATCH_BYTES: usize = MAX_FRAME_LEN / 8;

/// What travels inside a TCP frame: a connection handshake, one protocol
/// message, or several. `B` holds a batch's messages: a `Vec<M>` when decoding
/// ([`InFrame`]), a borrowed slice when encoding, which writes the same
/// bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum WireFrame<M, B> {
    /// First frame of every connection (right after the preamble): identifies
    /// the dialling process, so the accepting side can tag subsequent frames
    /// with their sender.
    Hello {
        /// The dialling process.
        from: ProcessId,
    },
    /// A protocol message: what a peer is sent when a round has one for it.
    Protocol(M),
    /// Two or more protocol messages one round sent a peer, in sending
    /// order; the receiver handles them as that many `Protocol` frames.
    Batch(B),
}

/// A frame as the receiver decodes it.
type InFrame<M> = WireFrame<M, Vec<M>>;

/// How another thread gets the reactor out of `poll(2)`: a self-pipe behind
/// a `sleeping` flag, so that waking a reactor that is not asleep — the
/// common case under load — costs the caller no syscall.
///
/// The protocol is the store-buffering handshake. The reactor, before it
/// blocks: `sleeping = true`, fence, look at the mailbox once more, `poll`.
/// A caller, after it enqueued: fence, `sleeping.swap(false)`, and a byte
/// down the pipe if that returned `true`. The two fences are totally ordered.
/// If the caller's comes first, the reactor's last look sees the envelope
/// and it does not block; if the reactor's comes first, the caller's swap
/// sees `true` and the pipe byte ends the `poll`. Either way no envelope is
/// left in the mailbox of a sleeping reactor. Only one caller per sleep wins
/// the swap, so a sleep costs at most one pipe write and one pipe read.
struct Waker {
    pipe: WakePipe,
    sleeping: AtomicBool,
}

impl Waker {
    fn new() -> io::Result<Self> {
        Ok(Waker {
            pipe: WakePipe::new()?,
            sleeping: AtomicBool::new(false),
        })
    }

    /// Wakes the reactor if it is (about to be) asleep. Call after putting
    /// something in its mailbox.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.swap(false, Ordering::SeqCst) {
            self.pipe.wake();
        }
    }

    /// The reactor announces it is about to block; it must look at its
    /// mailbox after this and before `poll`.
    fn prepare_sleep(&self) {
        self.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// The reactor is running again: callers need not wake it.
    fn awake(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
    }
}

/// Transport counters, shared with the [`TcpNode`] handle so embedders (and
/// the `wbamd` stats line) can observe frame loss that the fair-lossy model
/// would otherwise hide completely, and how far framing packs messages
/// into frames.
///
/// A frame is what [`MAX_FRAME_LEN`] and the 8 MiB output-buffer cap act
/// on, so drops are counted in frames: a dropped `Batch` counts as one
/// dropped frame, however many messages it carries. The frame and message
/// counts include dropped frames, so their ratio is exactly the messages
/// per frame, and `frames_sent - dropped_frames` frames reached the
/// outbufs.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Frames dropped at [`OUTBUF_CAP`], or before that for not fitting a
    /// frame at all ([`MAX_FRAME_LEN`]), per
    /// destination peer. The peer set is fixed at spawn, so the map itself
    /// is never mutated — only the counters — and reads need no lock.
    dropped: BTreeMap<ProcessId, AtomicU64>,
    /// Frames built for peers (self-sends never become frames).
    frames: AtomicU64,
    /// Protocol messages the node sent to peers, which those frames carry.
    messages: AtomicU64,
    /// Encoded bytes of those frames, length prefixes included.
    bytes: AtomicU64,
}

impl TransportStats {
    fn for_peers(peers: impl IntoIterator<Item = ProcessId>) -> Self {
        TransportStats {
            dropped: peers.into_iter().map(|p| (p, AtomicU64::new(0))).collect(),
            ..TransportStats::default()
        }
    }

    fn record_drops(&self, peer: ProcessId, frames: usize) {
        if let Some(counter) = self.dropped.get(&peer) {
            counter.fetch_add(frames as u64, Ordering::Relaxed);
        }
    }

    fn record_sent(&self, frames: usize, messages: usize, bytes: usize) {
        self.frames.fetch_add(frames as u64, Ordering::Relaxed);
        self.messages.fetch_add(messages as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Frames built for peers since spawn, dropped ones included.
    pub fn frames_sent(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Protocol messages sent to peers since spawn; this exceeds
    /// [`frames_sent`](Self::frames_sent) by what `Batch` frames packed.
    pub fn messages_sent(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Bytes of the frames built for peers since spawn, length prefixes
    /// included; like [`frames_sent`](Self::frames_sent) it counts dropped
    /// frames too (a frame that could not be encoded at all adds none).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
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

/// What the reactor publishes about its [`DeliverySink`]: how many
/// deliveries it has flushed, and the error that stopped it, if one did.
#[derive(Default)]
struct SinkStatus {
    flushed: AtomicU64,
    failed: Mutex<Option<WbamError>>,
}

/// Opens the outbound connection to a peer. Runs on a short-lived dial
/// thread, so it may block; tests substitute a slow or failing one.
type Dialler = Arc<dyn Fn(SocketAddr) -> io::Result<TcpStream> + Send + Sync>;

/// Where dial threads leave their results for the reactor.
type Dialled = Arc<Mutex<Vec<(ProcessId, io::Result<TcpStream>)>>>;

/// Outbound state for one peer: the (re)dialled connection and the
/// coalescing output buffer frames are encoded into.
struct PeerOut {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Queued wire bytes; `offset..` is the unsent suffix. Always cut at
    /// frame boundaries when no connection is up.
    outbuf: Vec<u8>,
    offset: usize,
    /// Earliest [`Clock`] time (elapsed since runtime start) the next dial
    /// may be attempted — all backoff arithmetic is pure `Duration` math on
    /// the reactor's clock, never a direct `Instant` read.
    next_dial: Duration,
    backoff: Duration,
    /// The dial attempt in flight, if any; joined when its result arrives.
    dialling: Option<JoinHandle<()>>,
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
            dialling: None,
        }
    }

    fn queued(&self) -> usize {
        self.outbuf.len() - self.offset
    }

    /// Encodes one frame behind everything already queued. A frame that
    /// cannot be encoded or whose body is over `max_body` is taken back
    /// (`None`); one that would take the buffer over [`OUTBUF_CAP`] is
    /// dropped whole. Either way the buffer is truncated back to where the
    /// frame started, so the byte stream stays cut at frame boundaries even
    /// mid-flush. Returns the frame's encoded length and whether it was
    /// queued.
    fn push_frame<T: Serialize>(&mut self, frame: &T, max_body: usize) -> Option<(usize, bool)> {
        let start = self.outbuf.len();
        let encoded = encode_frame_into(CODEC, frame, &mut self.outbuf).is_ok();
        let len = self.outbuf.len() - start;
        let fits = encoded && len <= max_body + 4; // + the length prefix
        let queued = fits && self.queued() <= OUTBUF_CAP;
        if !queued {
            self.outbuf.truncate(start);
        }
        fits.then_some((len, queued))
    }

    /// Frames a run of at most [`FRAME_MAX_MESSAGES`] messages behind
    /// everything queued: a lone message as `Protocol`, a longer run as one
    /// `Batch`, or as its two halves, each framed the same way, when the
    /// batch's body would be over [`FRAME_MAX_BATCH_BYTES`]. A lone message
    /// that cannot be encoded at all (over `MAX_FRAME_LEN`, e.g. an
    /// oversized state transfer — it could never reach the peer, and
    /// retrying cannot help) is dropped like a frame at the buffer cap.
    fn push_run<M: Serialize>(&mut self, run: &[M], framed: &mut Framed) {
        let pushed = match run {
            [msg] => self.push_frame(&WireFrame::<&M, &[M]>::Protocol(msg), MAX_FRAME_LEN),
            _ => self.push_frame(&WireFrame::<&M, &[M]>::Batch(run), FRAME_MAX_BATCH_BYTES),
        };
        match pushed {
            None if run.len() > 1 => {
                let (head, tail) = run.split_at(run.len() / 2);
                self.push_run(head, framed);
                self.push_run(tail, framed);
            }
            pushed => {
                let (len, queued) = pushed.unwrap_or((0, false));
                framed.frames += 1;
                framed.bytes += len;
                framed.dropped += usize::from(!queued);
            }
        }
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

    /// Whether a dial should start now. Dialling is lazy: only a peer there
    /// are bytes for is worth a connection.
    fn dial_due(&self, now: Duration) -> bool {
        self.conn.is_none() && self.dialling.is_none() && self.queued() > 0 && now >= self.next_dial
    }

    /// Takes a dial attempt's result. A fresh connection starts with `hello`
    /// (preamble + Hello frame), then whatever queued up while the peer was
    /// down, and — crucially — resets the dial backoff to
    /// [`BACKOFF_INITIAL`], so the *next* outage starts from a fast re-dial
    /// instead of inheriting this outage's climbed-up delay. After a failed
    /// attempt the next one waits out the current backoff, which then doubles
    /// toward [`BACKOFF_MAX`].
    fn dial_finished(&mut self, result: io::Result<TcpStream>, hello: &[u8], now: Duration) {
        match result {
            Ok(stream) => {
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
            Err(_) => {
                self.next_dial = now + self.backoff;
                self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
            }
        }
    }

    /// Sends the queued bytes — every frame of this iteration in one `send`
    /// when the socket buffer takes them. A short write means the socket
    /// buffer is full: the rest waits for `POLLOUT`.
    fn flush(&mut self, now: Duration) {
        let Some(stream) = self.conn.as_mut() else {
            return;
        };
        if self.offset == self.outbuf.len() {
            return;
        }
        match retry_interrupted(|| stream.write(&self.outbuf[self.offset..])) {
            Ok(0) => return self.disconnect(now),
            Ok(n) => self.offset += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(_) => return self.disconnect(now),
        }
        if self.offset == self.outbuf.len() {
            self.outbuf.clear();
            self.offset = 0;
        } else if self.offset > READ_CHUNK {
            self.outbuf.drain(..self.offset);
            self.offset = 0;
        }
    }
}

/// What framing one round's sends to a peer built: frames, dropped ones
/// included, their encoded bytes, and how many of them were dropped.
#[derive(Default)]
struct Framed {
    frames: usize,
    bytes: usize,
    dropped: usize,
}

/// One nonblocking socket call, repeated while a signal interrupts it.
fn retry_interrupted<T>(mut call: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match call() {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            result => return result,
        }
    }
}

/// Preamble + `Hello`: the first bytes of every connection `from` dials.
fn hello_bytes<M: Serialize>(from: ProcessId) -> Vec<u8> {
    let mut hello = encode_preamble(CODEC).to_vec();
    encode_frame_into(CODEC, &InFrame::<M>::Hello { from }, &mut hello)
        .expect("Hello frame serialisation cannot fail");
    hello
}

/// TCP transport: owns the outbound connection and output buffer of every
/// peer. Sends are best-effort, matching the fair-lossy link model the
/// protocols are designed for: a message to an unknown or unreachable peer
/// is dropped (or queued for a reconnecting peer) and the protocols' retry
/// timers recover. A send to a peer is held until the end of the round; the
/// [`TcpNode`] reactor, which owns both this transport and the node loop,
/// then lets the node's [`Node::fold_sends`] shrink each peer's messages,
/// frames them into that peer's buffer, and services the transport to
/// flush the buffers and keep the connections dialled. Messages a node
/// sends to *itself* (a leader is a member of its own group and ACCEPTs to
/// every member) never reach the transport: the reactor keeps them as the
/// node's mail for its next round, so they never cross the network stack.
///
/// The frame rule knows nothing of any protocol: what one round sent a peer
/// leaves in sending order, 256 messages to a frame at most, a frame of
/// several as a `Batch` of at most 2 MiB of body, and a run of one as a
/// plain `Protocol` frame, so one message in flight writes exactly what it
/// would without the rule.
pub struct TcpTransport<M> {
    peers: BTreeMap<ProcessId, PeerOut>,
    /// Per peer, what this round sent it, not yet encoded.
    pending: BTreeMap<ProcessId, Vec<M>>,
    /// Preamble + Hello, the first bytes of every outbound connection.
    hello: Vec<u8>,
    stats: Arc<TransportStats>,
    dialler: Dialler,
    dialled: Dialled,
    waker: Arc<Waker>,
}

impl<M: Serialize + Send + 'static> TcpTransport<M> {
    /// Creates the transport `local` uses to reach every other process in
    /// `addrs`. Nothing is dialled until there is a frame to send.
    fn new(
        local: ProcessId,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        dialler: Dialler,
        waker: Arc<Waker>,
    ) -> Self {
        let peers: BTreeMap<ProcessId, PeerOut> = addrs
            .iter()
            .filter(|(&p, _)| p != local)
            .map(|(&p, &a)| (p, PeerOut::new(a)))
            .collect();
        let stats = Arc::new(TransportStats::for_peers(peers.keys().copied()));
        let pending = peers.keys().map(|&p| (p, Vec::new())).collect();
        TcpTransport {
            peers,
            pending,
            hello: hello_bytes::<M>(local),
            stats,
            dialler,
            dialled: Arc::default(),
            waker,
        }
    }

    /// Holds `msg` for peer `to` until the end of the round. A send to a
    /// process that is not a peer is dropped.
    fn send(&mut self, to: ProcessId, msg: M) {
        if let Some(msgs) = self.pending.get_mut(&to) {
            msgs.push(msg);
        }
    }

    /// Lets `node`'s [`fold_sends`](Node::fold_sends) shrink what this
    /// round sent each peer and frames the result behind that peer's
    /// buffered bytes (the frame rule on [`TcpTransport`]). The reactor
    /// calls this once per round, after the round's deliveries are flushed
    /// and before the sockets are serviced.
    fn encode_pending(&mut self, node: &dyn Node<Msg = M>) {
        for (&to, msgs) in &mut self.pending {
            if msgs.is_empty() {
                continue;
            }
            node.fold_sends(to, msgs);
            let peer = self.peers.get_mut(&to).expect("a pending list per peer");
            let mut framed = Framed::default();
            for run in msgs.chunks(FRAME_MAX_MESSAGES) {
                peer.push_run(run, &mut framed);
            }
            // Like every dropped frame, one that does not fit is counted
            // against the peer, never lost silently.
            self.stats.record_drops(to, framed.dropped);
            self.stats
                .record_sent(framed.frames, msgs.len(), framed.bytes);
            msgs.clear();
        }
    }
}

impl<M> TcpTransport<M> {
    /// One pass over the peers: adopt finished dials, flush what is queued,
    /// start the dials that are due. Nothing here blocks — dialling happens
    /// on a short-lived thread per attempt, which leaves its result in
    /// `dialled` and writes the wake pipe (unconditionally: a dial is rare,
    /// and a byte in the pipe cannot be lost to the `sleeping` flag).
    fn service(&mut self, now: Duration) {
        if self.peers.values().any(|p| p.dialling.is_some()) {
            let finished =
                std::mem::take(&mut *self.dialled.lock().unwrap_or_else(PoisonError::into_inner));
            for (id, result) in finished {
                let peer = self.peers.get_mut(&id).expect("only peers are dialled");
                if let Some(thread) = peer.dialling.take() {
                    let _ = thread.join(); // it posted its result: it is returning
                }
                peer.dial_finished(result, &self.hello, now);
            }
        }
        for (&id, peer) in &mut self.peers {
            peer.flush(now);
            if !peer.dial_due(now) {
                continue;
            }
            let (addr, dialler) = (peer.addr, Arc::clone(&self.dialler));
            let (dialled, waker) = (Arc::clone(&self.dialled), Arc::clone(&self.waker));
            let spawned = std::thread::Builder::new()
                .name("wbam-dial".to_string())
                .spawn(move || {
                    let result = dialler(addr);
                    dialled
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((id, result));
                    waker.pipe.wake();
                });
            match spawned {
                Ok(thread) => peer.dialling = Some(thread),
                Err(e) => peer.dial_finished(Err(e), &self.hello, now),
            }
        }
    }

    /// The earliest time a down peer with queued bytes may be re-dialled.
    fn next_dial(&self) -> Option<Duration> {
        self.peers
            .values()
            .filter(|p| p.conn.is_none() && p.dialling.is_none() && p.queued() > 0)
            .map(|p| p.next_dial)
            .min()
    }

    /// Appends one poll entry per connected peer: writable only while bytes
    /// are queued; error/hangup conditions report regardless, so a dead
    /// outbound connection is noticed without writing to it.
    fn poll_set(&self, fds: &mut Vec<PollFd>) {
        for peer in self.peers.values() {
            if let Some(conn) = &peer.conn {
                let events = if peer.queued() > 0 { POLLOUT } else { 0 };
                fds.push(PollFd::new(conn.as_raw_fd(), events));
            }
        }
    }

    /// Takes the poll results for the entries [`poll_set`](Self::poll_set)
    /// appended: an RST/FIN on a write-only connection drops it now instead
    /// of discovering the corpse on the next write.
    fn note_hangups(&mut self, fds: &[PollFd], now: Duration) {
        let connected = self.peers.values_mut().filter(|p| p.conn.is_some());
        for (peer, fd) in connected.zip(fds) {
            if fd.has_error() {
                peer.disconnect(now);
            }
        }
    }

    /// Waits for the dial threads still running (at most [`DIAL_TIMEOUT`]
    /// with the stock dialler), so a stopped node leaves no thread behind.
    fn join_dials(&mut self) {
        for peer in self.peers.values_mut() {
            if let Some(thread) = peer.dialling.take() {
                let _ = thread.join();
            }
        }
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
    /// Whether the last `poll` marked this connection readable (set
    /// optimistically on accept, so a connection whose preamble is already
    /// in flight is serviced without waiting for another poll round).
    readable: bool,
    /// Whether `buf` may still hold complete frames: the last pass stopped at
    /// its envelope budget. The connection is serviced again without waiting
    /// for the kernel, and not read from until the backlog is decoded — which
    /// is what bounds `buf` under a flood.
    backlog: bool,
}

impl InConn {
    fn needs_service(&self) -> bool {
        self.readable || self.backlog
    }

    /// One pass over the connection: at most one `recv` (level-triggered
    /// `poll` re-reports what is left in the kernel, so there is no second
    /// call just to be told `EAGAIN`), then complete frames decoded with a
    /// cursor into `batch` until they hold `budget` messages (a `Batch` frame
    /// counts as its messages), then one compaction of the buffer.
    /// Returns `false` when the connection should be dropped (EOF, IO error,
    /// bad preamble, undecodable frame — a corrupt length prefix cannot be
    /// resynced from; the peer re-dials).
    fn service<M: DeserializeOwned>(
        &mut self,
        budget: usize,
        batch: &mut Vec<Envelope<M>>,
        chunk: &mut [u8],
    ) -> bool {
        if std::mem::take(&mut self.readable) && !self.backlog {
            match retry_interrupted(|| self.stream.read(chunk)) {
                Ok(0) => return false,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => return false,
            }
        }
        let mut pos = 0usize;
        if !self.preamble_ok {
            if self.buf.len() < PREAMBLE_LEN {
                return true; // need more bytes
            }
            let mut preamble = [0u8; PREAMBLE_LEN];
            preamble.copy_from_slice(&self.buf[..PREAMBLE_LEN]);
            if let Err(e) = check_preamble(&preamble, CODEC) {
                eprintln!("wbam-runtime: rejecting connection from {}: {e}", self.desc);
                return false;
            }
            self.preamble_ok = true;
            pos = PREAMBLE_LEN;
        }
        // A `Batch` frame counts as its messages, so the last frame decoded
        // may take the pass over its budget by less than one frame.
        let limit = batch.len() + budget;
        loop {
            self.backlog = batch.len() >= limit;
            if self.backlog {
                break;
            }
            let (frame, used) = match decode_frame_slice::<InFrame<M>>(CODEC, &self.buf[pos..]) {
                Ok(Some(decoded)) => decoded,
                Ok(None) => break,
                Err(e) => {
                    eprintln!("wbam-runtime: dropping connection from {}: {e}", self.desc);
                    return false;
                }
            };
            pos += used;
            match (frame, self.from) {
                (WireFrame::Hello { from }, _) => self.from = Some(from),
                (_, None) => {
                    eprintln!(
                        "wbam-runtime: dropping connection from {}: protocol frame before Hello",
                        self.desc
                    );
                    return false;
                }
                (WireFrame::Protocol(msg), Some(from)) => {
                    batch.push(Envelope::FromPeer { from, msg });
                }
                (WireFrame::Batch(msgs), Some(from)) => {
                    batch.extend(msgs.into_iter().map(|msg| Envelope::FromPeer { from, msg }));
                }
            }
        }
        if pos > 0 {
            self.buf.drain(..pos);
        }
        true
    }
}

/// The one thread of a [`TcpNode`]: it owns the listener, every socket, the
/// mailbox and the node loop, and nothing it calls blocks except `poll(2)`.
/// See the module docs for what one iteration does.
struct Reactor<M> {
    id: ProcessId,
    nl: NodeLoop<M, WallClock>,
    /// Other threads' envelopes: submits, leader nudges, the stop request.
    rx: Receiver<Envelope<M>>,
    /// The node's messages to itself, the mail of its next round.
    own: VecDeque<Envelope<M>>,
    transport: TcpTransport<M>,
    listener: TcpListener,
    inbound: Vec<InConn>,
    waker: Arc<Waker>,
    status: Arc<SinkStatus>,
    clock: WallClock,
}

impl<M: Serialize + DeserializeOwned + Send + 'static> Reactor<M> {
    /// Serves the node until it is shut down or its sink fails. A failed
    /// flush stops the reactor before it services the sockets again, so no
    /// frame of the round whose deliveries were lost ever leaves.
    fn run(mut self, restart: bool) {
        let served = self.serve(restart);
        self.transport.join_dials();
        if let Err(e) = served {
            eprintln!("wbam-runtime: delivery sink failed, stopping the node: {e}");
            *self
                .status
                .failed
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(e);
        }
    }

    /// Flushes the node's sink and publishes how many deliveries it holds.
    fn flush_deliveries(&mut self) -> Result<(), WbamError> {
        self.nl.flush_deliveries()?;
        self.status
            .flushed
            .store(self.nl.delivered(), Ordering::Relaxed);
        Ok(())
    }

    /// Routes what the node sent in the step it just took: its mail to
    /// itself joins the next round's, and the transport holds everything
    /// else for the end of the round.
    fn route(&mut self) {
        for (to, msg) in self.nl.drain_sends() {
            if to == self.id {
                self.own
                    .push_back(Envelope::FromPeer { from: self.id, msg });
            } else {
                self.transport.send(to, msg);
            }
        }
    }

    /// Moves the node's mail to itself, then other threads' envelopes,
    /// behind `batch` (never blocking) until it holds
    /// [`MAX_ENVELOPE_BATCH`]; returns how many were moved.
    fn take_mail(&mut self, batch: &mut Vec<Envelope<M>>) -> usize {
        let before = batch.len();
        let own = self
            .own
            .len()
            .min(MAX_ENVELOPE_BATCH.saturating_sub(before));
        batch.extend(self.own.drain(..own));
        let room = MAX_ENVELOPE_BATCH.saturating_sub(batch.len());
        batch.extend(self.rx.try_iter().take(room));
        batch.len() - before
    }

    fn serve(&mut self, restart: bool) -> Result<(), WbamError> {
        // Init, then Restart, before the first accept: connections parked in
        // the kernel backlog are only read once the loop below starts, so a
        // redeployed node rejoins before it sees any peer traffic. Rejoining
        // includes what the restart sent the node itself (a replica's own
        // `NEW_LEADER`, which makes it a recovering member of a new ballot):
        // the frames peers queued for the old process must meet the
        // rejoining node, not a fresh follower of the old ballot that would
        // deliver them ahead of the history it lost.
        self.nl.init();
        self.route();
        let mut batch: Vec<Envelope<M>> = Vec::new();
        if restart {
            self.nl.apply_restart();
            self.route();
            self.take_mail(&mut batch);
            self.nl.process_batch(batch.drain(..));
            self.route();
        }
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut fds: Vec<PollFd> = Vec::new();
        let mut listener_ready = true; // service everything on the first pass

        loop {
            // 1. Accept, then read and decode every connection the kernel
            // marked readable. The iteration's envelope budget is split
            // evenly over the connections that want service, so one that
            // streams frames as fast as it can gets its share and no more.
            if listener_ready {
                self.accept_ready();
            }
            let wanting = self.inbound.iter().filter(|c| c.needs_service()).count();
            let budget = (MAX_ENVELOPE_BATCH / wanting.max(1)).max(1);
            self.inbound.retain_mut(|conn| {
                !conn.needs_service() || conn.service(budget, &mut batch, &mut chunk)
            });

            // 2. Run the node over what was decoded plus its own messages to
            // itself and what is in the mailbox (other threads' submits),
            // fire due timers, route the round's sends, flush the round's
            // deliveries to the sink, and only then the sockets: the
            // round's sends to each peer are framed into that peer's outbuf
            // (after the node's `fold_sends`) and leave in one `send` per
            // peer. The first round always runs — a timer or a writable
            // socket may be why `poll` returned.
            for round in 0..MAX_ROUNDS {
                self.take_mail(&mut batch);
                if batch.is_empty() && round > 0 {
                    break;
                }
                self.nl.process_batch(batch.drain(..));
                self.nl.fire_due_timers();
                self.route();
                self.flush_deliveries()?;
                self.transport.encode_pending(self.nl.node());
                self.transport.service(self.clock.now());
            }
            if self.nl.is_stopped() {
                return self.flush_deliveries();
            }

            // 3. The poll set: wake pipe, listener, inbound sockets
            // (readable), connected peers.
            fds.clear();
            fds.push(PollFd::new(self.waker.pipe.read_fd(), POLLIN));
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            for conn in &self.inbound {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), POLLIN));
            }
            let peer_base = fds.len();
            self.transport.poll_set(&mut fds);

            // 4. Sleep until the next live timer or re-dial deadline — not
            // at all while decoded-but-unprocessed frames, the node's mail
            // to itself or other threads' mail are waiting. `Waker`
            // explains why the last look at the mailbox sits between
            // `prepare_sleep` and `poll`.
            let deadline = match (self.nl.next_deadline(), self.transport.next_dial()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let mut timeout = deadline.map(|d| d.saturating_sub(self.clock.now()));
            if !self.own.is_empty() || self.inbound.iter().any(|c| c.backlog) {
                timeout = Some(Duration::ZERO);
            }
            if timeout != Some(Duration::ZERO) {
                self.waker.prepare_sleep();
                if self.take_mail(&mut batch) > 0 {
                    timeout = Some(Duration::ZERO);
                }
            }
            let polled = poll(&mut fds, timeout);
            self.waker.awake();
            if let Err(e) = polled {
                // A failing poll (EINVAL/ENOMEM — none expected at this fd
                // count) must not hot-loop; degrade to a short sleep and
                // retry rather than killing the process's networking.
                eprintln!("wbam-runtime: poll failed: {e}");
                std::thread::sleep(Duration::from_millis(5));
                listener_ready = true;
                for conn in &mut self.inbound {
                    conn.readable = true;
                }
                continue;
            }

            // 5. Record readiness for the next iteration.
            if fds[0].readable() {
                self.waker.pipe.drain();
                if timeout != Some(Duration::ZERO) {
                    // Woken from sleep by another thread's mail: let that
                    // thread run on before reading it. A thread that submits
                    // a burst (a closed-loop client refilling its window)
                    // otherwise loses the CPU to this reactor at its first
                    // envelope on a shared core, and every multicast of the
                    // burst leaves in a frame of its own.
                    std::thread::yield_now();
                }
            }
            listener_ready = fds[1].readable();
            for (conn, fd) in self.inbound.iter_mut().zip(&fds[2..peer_base]) {
                conn.readable = fd.readable();
            }
            let now = self.clock.now();
            self.transport.note_hangups(&fds[peer_base..], now);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, addr)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.inbound.push(InConn {
                        stream,
                        desc: addr.to_string(),
                        buf: Vec::new(),
                        preamble_ok: false,
                        from: None,
                        readable: true,
                        backlog: false,
                    });
                }
                // WouldBlock: the backlog is empty. Anything else is a
                // transient accept error; the next poll retries.
                Err(_) => return,
            }
        }
    }
}

/// One protocol node running over real TCP: the per-process runtime behind
/// the `wbamd` deployment binary (one OS process = one [`TcpNode`] = one
/// reactor thread).
///
/// The node runs the same event loop as [`InProcessCluster`](crate::InProcessCluster)
/// — only the driver and the transport differ — so a protocol that is
/// correct under the simulator and the in-process runtime behaves
/// identically here.
///
/// Its deliveries go to an in-memory [`DeliveryLog`], read through
/// [`deliveries`](Self::deliveries), [`drain_deliveries`](Self::drain_deliveries)
/// and [`wait_for_total`](Self::wait_for_total), unless the node was spawned
/// with a sink of its own ([`spawn_with_sink`](Self::spawn_with_sink)); then
/// those accessors return [`WbamError::NotReady`], and
/// [`total_deliveries`](Self::total_deliveries) still counts. Either way the
/// reactor flushes the sink once per round, before the round's frames leave.
///
/// The delivery accessors also return [`WbamError::NotReady`] when the
/// reactor thread has panicked while publishing deliveries (a poisoned
/// delivery log): one dead node must surface as an error to the embedder,
/// not as a panic cascade through every thread that touches the log.
pub struct TcpNode<M> {
    id: ProcessId,
    mailbox: Sender<Envelope<M>>,
    waker: Arc<Waker>,
    stats: Arc<TransportStats>,
    /// The in-memory log, unless the node was spawned with its own sink.
    deliveries: Option<Arc<DeliveryLog>>,
    status: Arc<SinkStatus>,
    reactor: Option<JoinHandle<()>>,
    clock: WallClock,
}

impl<M: Serialize + DeserializeOwned + Send + 'static> TcpNode<M> {
    /// Binds `addrs[node.id()]`, spawns the reactor thread and starts the
    /// node with `Event::Init`. Every connection speaks the binary codec;
    /// the preamble handshake rejects a peer announcing another codec (or
    /// wire version) with a clear error.
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
    /// the node, or [`WbamError::Io`] when binding its listen address,
    /// creating the wake pipe or spawning the thread fails.
    pub fn spawn(
        node: BoxedNode<M>,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        restart: bool,
    ) -> Result<Self, WbamError> {
        Self::spawn_with_dialler(node, addrs, restart, stock_dialler())
    }

    /// [`Self::spawn`] for a caller that names the codec; only
    /// [`WireCodec::Binary`] is deployable.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::Codec`] naming `codec`, before binding anything,
    /// for any other codec; otherwise the contract of [`Self::spawn`].
    pub fn spawn_with_codec(
        node: BoxedNode<M>,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        restart: bool,
        codec: WireCodec,
    ) -> Result<Self, WbamError> {
        if codec != CODEC {
            return Err(WbamError::Codec(format!(
                "the {codec} wire codec is not deployable: the TCP transport speaks only {CODEC}"
            )));
        }
        Self::spawn(node, addrs, restart)
    }

    /// Like [`Self::spawn`], but the node's deliveries go to
    /// `sink` instead of an in-memory log. The reactor thread hands it each
    /// delivery and flushes it once per round, before it sends any frame of
    /// that round, so no reply can overtake the delivery it answers; a
    /// failed flush stops the node ([`Self::sink_status`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::spawn`]; the error comes back
    /// together with the unused `sink`, so a caller can retry (a listen port
    /// still held by a closing connection, say) with the same one.
    pub fn spawn_with_sink<S: DeliverySink>(
        node: BoxedNode<M>,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        restart: bool,
        sink: S,
    ) -> Result<Self, (WbamError, S)> {
        Self::start(node, addrs, restart, stock_dialler(), sink, None)
    }

    fn spawn_with_dialler(
        node: BoxedNode<M>,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        restart: bool,
        dialler: Dialler,
    ) -> Result<Self, WbamError> {
        let log = Arc::new(DeliveryLog::new());
        let sink = LogSink::new(Arc::clone(&log));
        Self::start(node, addrs, restart, dialler, sink, Some(log)).map_err(|(e, _)| e)
    }

    fn start<S: DeliverySink>(
        node: BoxedNode<M>,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        restart: bool,
        dialler: Dialler,
        sink: S,
        deliveries: Option<Arc<DeliveryLog>>,
    ) -> Result<Self, (WbamError, S)> {
        let id = node.id();
        let setup = || -> Result<(TcpListener, Waker), WbamError> {
            let listen = *addrs.get(&id).ok_or(WbamError::UnknownProcess(id))?;
            let listener = TcpListener::bind(listen)?;
            listener.set_nonblocking(true)?;
            Ok((listener, Waker::new()?))
        };
        let (listener, waker) = match setup() {
            Ok(done) => done,
            Err(e) => return Err((e, sink)),
        };
        // The thread starts before it is handed its reactor, so that a
        // failed spawn, too, leaves the sink with the caller.
        let (handoff, takeover) = std::sync::mpsc::sync_channel::<Reactor<M>>(1);
        let spawned = std::thread::Builder::new()
            .name(format!("wbam-reactor-{id}"))
            .spawn(move || {
                if let Ok(reactor) = takeover.recv() {
                    reactor.run(restart);
                }
            });
        let thread = match spawned {
            Ok(thread) => thread,
            Err(e) => return Err((e.into(), sink)),
        };

        let clock = WallClock::new();
        let waker = Arc::new(waker);
        let status = Arc::new(SinkStatus::default());
        let (mailbox, rx) = unbounded();
        let transport = TcpTransport::new(id, addrs, dialler, Arc::clone(&waker));
        let stats = Arc::clone(&transport.stats);
        let reactor = Reactor {
            id,
            nl: NodeLoop::new(node, Box::new(sink), clock),
            rx,
            own: VecDeque::new(),
            transport,
            listener,
            inbound: Vec::new(),
            waker: Arc::clone(&waker),
            status: Arc::clone(&status),
            clock,
        };
        handoff
            .send(reactor)
            .unwrap_or_else(|_| unreachable!("the reactor thread waits for its reactor"));
        Ok(TcpNode {
            id,
            mailbox,
            waker,
            stats,
            deliveries,
            status,
            reactor: Some(thread),
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
    /// Returns [`WbamError::NotReady`] when the reactor thread has exited.
    pub fn submit(&self, msg: AppMessage) -> Result<(), WbamError> {
        self.control(Envelope::Submit(msg))
    }

    /// Tells the node to start leader recovery.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::NotReady`] when the reactor thread has exited.
    pub fn become_leader(&self) -> Result<(), WbamError> {
        self.control(Envelope::BecomeLeader)
    }

    fn control(&self, envelope: Envelope<M>) -> Result<(), WbamError> {
        self.mailbox
            .send(envelope)
            .map_err(|_| WbamError::NotReady {
                process: self.id,
                reason: "node thread has exited".to_string(),
            })?;
        self.waker.wake();
        Ok(())
    }

    /// The in-memory delivery log, or a typed error: the node was spawned
    /// with its own sink, or the reactor thread has panicked while holding
    /// the log (so embedders get an error instead of a cascade).
    fn log(&self) -> Result<&DeliveryLog, WbamError> {
        let not_ready = |reason: &str| WbamError::NotReady {
            process: self.id,
            reason: reason.to_string(),
        };
        let log = self
            .deliveries
            .as_deref()
            .ok_or_else(|| not_ready("deliveries go to the sink the node was spawned with"))?;
        if log.is_poisoned() {
            return Err(not_ready(
                "node thread panicked while publishing deliveries; \
                 the delivery log may be incomplete",
            ));
        }
        Ok(log)
    }

    /// A snapshot of the deliveries currently buffered.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::NotReady`] when the node was spawned with its own
    /// sink, or when the reactor thread has panicked while publishing
    /// deliveries.
    pub fn deliveries(&self) -> Result<Vec<RuntimeDelivery>, WbamError> {
        Ok(self.log()?.snapshot())
    }

    /// Removes and returns all buffered deliveries (see
    /// [`InProcessCluster::drain_deliveries`](crate::InProcessCluster::drain_deliveries)).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::deliveries`].
    pub fn drain_deliveries(&self) -> Result<Vec<RuntimeDelivery>, WbamError> {
        Ok(self.log()?.drain())
    }

    /// Total number of deliveries since spawn that have reached the sink,
    /// including drained ones. A node with its own sink counts the
    /// deliveries the reactor has flushed to it.
    ///
    /// # Errors
    ///
    /// Returns [`WbamError::NotReady`] when the reactor thread has panicked
    /// while publishing to the in-memory log.
    pub fn total_deliveries(&self) -> Result<u64, WbamError> {
        match &self.deliveries {
            Some(_) => Ok(self.log()?.total()),
            None => Ok(self.status.flushed.load(Ordering::Relaxed)),
        }
    }

    /// Blocks until the cumulative delivery count reaches `count` or the
    /// timeout expires; returns whether the count was reached.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::deliveries`] — a reactor thread that
    /// panicked before or during the wait surfaces as the error, not a stuck
    /// `false`.
    pub fn wait_for_total(&self, count: u64, timeout: Duration) -> Result<bool, WbamError> {
        let reached = self.log()?.wait_for_total(count, timeout);
        self.log()?;
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

    /// Frames this node's transport built for peers since spawn, dropped
    /// ones included ([`TransportStats::frames_sent`]).
    pub fn frames_sent(&self) -> u64 {
        self.stats.frames_sent()
    }

    /// Protocol messages this node sent to peers since spawn; over
    /// [`frames_sent`](Self::frames_sent) it is how many messages a frame
    /// carried on average ([`TransportStats::messages_sent`]).
    pub fn messages_sent(&self) -> u64 {
        self.stats.messages_sent()
    }

    /// Bytes of the frames this node built for peers since spawn, length
    /// prefixes and dropped frames included
    /// ([`TransportStats::bytes_sent`]). Where the node's fold shrinks
    /// messages (a `DELIVER` by reference), this is the counter that shows
    /// it.
    pub fn bytes_sent(&self) -> u64 {
        self.stats.bytes_sent()
    }

    /// Time since the node was spawned.
    pub fn uptime(&self) -> Duration {
        self.clock.now()
    }

    /// Stops the node and waits for its reactor thread to exit, ignoring how
    /// its sink fared (dropping the handle does the same; [`Self::stop`]
    /// reports it).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<M> TcpNode<M> {
    /// Stops the node and waits for its reactor thread to exit. The stop
    /// request travels like any other control event — an envelope plus a
    /// wake — so a reactor asleep in `poll` with no timeout observes it
    /// immediately. The reactor flushes its sink one last time on the way
    /// out.
    ///
    /// # Errors
    ///
    /// The sink's error, when a flush failed (see [`Self::sink_status`]).
    pub fn stop(&mut self) -> Result<(), WbamError> {
        let _ = self.mailbox.send(Envelope::Shutdown);
        self.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        self.sink_status()
    }

    /// Whether the node's deliveries still reach its sink.
    ///
    /// # Errors
    ///
    /// The error of the flush that failed. The reactor stopped at that
    /// flush, before it sent any frame of the same round, and serves
    /// nothing more.
    pub fn sink_status(&self) -> Result<(), WbamError> {
        match &*self
            .status
            .failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
        {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

impl<M> Drop for TcpNode<M> {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Dials with [`DIAL_TIMEOUT`]; tests inject slower or failing diallers.
fn stock_dialler() -> Dialler {
    Arc::new(|addr| TcpStream::connect_timeout(&addr, DIAL_TIMEOUT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Instant;
    use wbam_baselines::{BaselineClient, BaselineReplica, Mode};
    use wbam_core::{ClientConfig, MulticastClient, ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
    use wbam_types::wire::{decode_frame_slice, encode_frame_with, MAX_FRAME_LEN};
    use wbam_types::{
        Action, ClusterConfig, Destination, Event, GroupId, MsgId, Node, Payload, TimerId,
    };

    /// One fixed instance of each `WhiteBoxMsg` variant, in declaration
    /// order, small enough to read in hex.
    fn golden_messages() -> Vec<WhiteBoxMsg> {
        use wbam_core::{RecordSnapshot, StateSnapshot};
        use wbam_types::{AppMessage, Ballot, Checkpoint, Phase, Timestamp};
        let id = MsgId::new(ProcessId(6), 41);
        let msg = AppMessage::new(
            id,
            Destination::new(vec![GroupId(0), GroupId(1)]).expect("non-empty destination"),
            Payload::from(b"hi".to_vec()),
        );
        let ballot = Ballot::new(1, ProcessId(0));
        let lts = Timestamp::new(77, GroupId(0));
        let gts = Timestamp::new(300, GroupId(1));
        let ballots =
            wbam_core::BallotVector::from([(GroupId(0), ballot), (GroupId(1), Ballot::BOTTOM)]);
        let watermarks = BTreeMap::from([(GroupId(1), gts)]);
        let mut checkpoint = Checkpoint {
            group: GroupId(0),
            ballot,
            clock: 300,
            watermarks: watermarks.clone(),
            max_delivered_gts: gts,
            delivered_count: 2,
            app_state: vec![7],
            ..Checkpoint::default()
        };
        checkpoint.dedup.insert(id);
        let mut snapshot = StateSnapshot::new();
        snapshot.records.insert(
            id,
            RecordSnapshot {
                msg: msg.clone(),
                phase: Phase::Accepted,
                local_ts: lts,
                global_ts: Timestamp::BOTTOM,
            },
        );
        let group = GroupId(1);
        vec![
            WhiteBoxMsg::Multicast { msg: msg.clone() },
            WhiteBoxMsg::Accept {
                msg: msg.clone(),
                group,
                ballot,
                local_ts: lts,
            },
            WhiteBoxMsg::AcceptAck {
                msg_id: id,
                group,
                ballots,
            },
            WhiteBoxMsg::Deliver {
                msg: msg.clone().into(),
                ballot,
                local_ts: lts,
                global_ts: gts,
            },
            WhiteBoxMsg::NewLeader { ballot },
            WhiteBoxMsg::NewLeaderAck {
                ballot,
                cballot: Ballot::BOTTOM,
                checkpoint: Box::new(checkpoint.clone()),
                snapshot: snapshot.clone(),
            },
            WhiteBoxMsg::NewState {
                ballot,
                checkpoint: Box::new(checkpoint),
                snapshot,
            },
            WhiteBoxMsg::NewStateAck { ballot },
            WhiteBoxMsg::Heartbeat { ballot },
            WhiteBoxMsg::StableReport {
                group,
                delivered_gts: gts,
            },
            WhiteBoxMsg::StableAdvance {
                watermarks: watermarks.clone(),
            },
            WhiteBoxMsg::StablePruned {
                msg_id: id,
                watermarks,
            },
            WhiteBoxMsg::ClientReply {
                msg_id: id,
                group,
                global_ts: gts,
            },
        ]
    }

    /// A `DELIVER` by reference (wire version 2 onward).
    fn golden_reference() -> WhiteBoxMsg {
        use wbam_core::DeliverMsg;
        use wbam_types::{Ballot, Timestamp};
        WhiteBoxMsg::Deliver {
            msg: DeliverMsg::Ref(MsgId::new(ProcessId(6), 41)),
            ballot: Ballot::new(1, ProcessId(0)),
            local_ts: Timestamp::new(77, GroupId(0)),
            global_ts: Timestamp::new(300, GroupId(1)),
        }
    }

    /// A `Batch` frame (wire version 3): a heartbeat and a client reply, as
    /// one round may send a peer.
    fn golden_batch() -> InFrame<WhiteBoxMsg> {
        use wbam_types::{Ballot, Timestamp};
        InFrame::Batch(vec![
            WhiteBoxMsg::Heartbeat {
                ballot: Ballot::new(1, ProcessId(0)),
            },
            WhiteBoxMsg::ClientReply {
                msg_id: MsgId::new(ProcessId(6), 41),
                group: GroupId(1),
                global_ts: Timestamp::new(300, GroupId(1)),
            },
        ])
    }

    /// The exact binary frames — length prefix included — of `Hello`, of
    /// one `Protocol` frame per `WhiteBoxMsg` variant, of the by-reference
    /// `DELIVER` and of a `Batch`. The binary codec writes positions, not
    /// names (WIRE.md §5), so reordering a field or a variant of any type in
    /// these frames changes the wire without a compile error; this test is
    /// what catches it. WIRE.md §6 walks through the `Hello`, the
    /// `MULTICAST`, the by-reference `DELIVER` and the `Batch`.
    #[test]
    fn binary_frames_match_their_golden_bytes() {
        let hello = InFrame::Hello { from: ProcessId(3) };
        let frames: Vec<(&str, InFrame<WhiteBoxMsg>)> = std::iter::once(("HELLO", hello))
            .chain(
                golden_messages()
                    .into_iter()
                    .chain([golden_reference()])
                    .map(|m| (m.kind(), InFrame::Protocol(m))),
            )
            .chain([("BATCH", golden_batch())])
            .collect();
        let golden = [
            ("HELLO", "00 00 00 04 40 09 01 03"),
            (
                "MULTICAST",
                "00 00 00 12 41 40 07 01 07 03 09 02 06 29 09 02 00 01 09 02 68 69",
            ),
            (
                "ACCEPT",
                concat!(
                    "00 00 00 1d 41 41 07 04 07 03 09 02 06 29 09 02 00 01 09 02 ",
                    "68 69 81 41 09 02 01 00 41 09 02 4d 00",
                ),
            ),
            (
                "ACCEPT_ACK",
                concat!(
                    "00 00 00 17 41 42 07 03 09 02 06 29 81 07 02 07 02 80 41 09 ",
                    "02 01 00 09 02 01 00",
                ),
            ),
            (
                "DELIVER",
                concat!(
                    "00 00 00 24 41 43 07 04 40 07 03 09 02 06 29 09 02 00 01 09 ",
                    "02 68 69 41 09 02 01 00 41 09 02 4d 00 41 07 02 03 ac 02 81",
                ),
            ),
            ("NEWLEADER", "00 00 00 09 41 44 07 01 41 09 02 01 00"),
            (
                "NEWLEADER_ACK",
                concat!(
                    "00 00 00 5a 41 45 07 04 41 09 02 01 00 80 07 08 80 41 09 02 ",
                    "01 00 03 ac 02 07 01 07 02 81 41 07 02 03 ac 02 81 41 07 02 ",
                    "03 ac 02 81 82 07 01 07 01 07 02 86 07 01 09 02 29 29 09 01 ",
                    "07 07 01 07 01 07 02 09 02 06 29 07 04 07 03 09 02 06 29 09 ",
                    "02 00 01 09 02 68 69 82 41 09 02 4d 00 80",
                ),
            ),
            (
                "NEW_STATE",
                concat!(
                    "00 00 00 59 41 46 07 03 41 09 02 01 00 07 08 80 41 09 02 01 ",
                    "00 03 ac 02 07 01 07 02 81 41 07 02 03 ac 02 81 41 07 02 03 ",
                    "ac 02 81 82 07 01 07 01 07 02 86 07 01 09 02 29 29 09 01 07 ",
                    "07 01 07 01 07 02 09 02 06 29 07 04 07 03 09 02 06 29 09 02 ",
                    "00 01 09 02 68 69 82 41 09 02 4d 00 80",
                ),
            ),
            ("NEWSTATE_ACK", "00 00 00 09 41 47 07 01 41 09 02 01 00"),
            ("HEARTBEAT", "00 00 00 09 41 48 07 01 41 09 02 01 00"),
            (
                "STABLE_REPORT",
                "00 00 00 0c 41 49 07 02 81 41 07 02 03 ac 02 81",
            ),
            (
                "STABLE_ADVANCE",
                "00 00 00 10 41 4a 07 01 07 01 07 02 81 41 07 02 03 ac 02 81",
            ),
            (
                "STABLE_PRUNED",
                concat!(
                    "00 00 00 14 41 4b 07 02 09 02 06 29 07 01 07 02 81 41 07 02 ",
                    "03 ac 02 81",
                ),
            ),
            (
                "CLIENT_REPLY",
                "00 00 00 10 41 4c 07 03 09 02 06 29 81 41 07 02 03 ac 02 81",
            ),
            (
                "DELIVER",
                concat!(
                    "00 00 00 1a 41 43 07 04 41 09 02 06 29 41 09 02 01 00 41 09 ",
                    "02 4d 00 41 07 02 03 ac 02 81",
                ),
            ),
            (
                "BATCH",
                concat!(
                    "00 00 00 1a 42 07 02 48 07 01 41 09 02 01 00 4c 07 03 09 02 ",
                    "06 29 81 41 07 02 03 ac 02 81",
                ),
            ),
        ];
        assert_eq!(frames.len(), golden.len());
        for ((kind, frame), (want_kind, want)) in frames.iter().zip(golden) {
            assert_eq!(*kind, want_kind);
            let bytes = encode_frame_with(WireCodec::Binary, frame).expect("encode");
            let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex.join(" "), want, "{kind} frame");
            let (back, used) =
                decode_frame_slice::<InFrame<WhiteBoxMsg>>(WireCodec::Binary, &bytes)
                    .expect("decode")
                    .expect("whole frame");
            assert_eq!((&back, used), (frame, bytes.len()), "{kind} frame");
        }
    }

    /// Reserves one free loopback port per process by briefly binding port 0.
    /// Every listener is held until all are bound, so no two processes are
    /// handed the same port.
    fn reserve_addrs(cluster: &ClusterConfig) -> BTreeMap<ProcessId, SocketAddr> {
        let held: Vec<(ProcessId, TcpListener)> = cluster
            .all_processes()
            .into_iter()
            .map(|p| (p, TcpListener::bind("127.0.0.1:0").expect("bind port 0")))
            .collect();
        held.iter()
            .map(|(p, l)| (*p, l.local_addr().expect("local addr")))
            .collect()
    }

    fn spawn_replica(
        cluster: &ClusterConfig,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        member: ProcessId,
        restart: bool,
    ) -> TcpNode<WhiteBoxMsg> {
        let group = cluster.group_of(member).expect("replica group");
        let cfg = ReplicaConfig::new(member, group, cluster.clone()).without_auto_election();
        TcpNode::spawn(Box::new(WhiteBoxReplica::new(cfg)), addrs, restart).expect("spawn")
    }

    fn order_of<M>(node: &TcpNode<M>) -> Vec<MsgId>
    where
        M: Serialize + DeserializeOwned + Send + 'static,
    {
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
            .map(|m| spawn_replica(&cluster, &addrs, m, false))
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

    /// A 1-group × 3-replica cluster of `replica` nodes on the binary codec
    /// plus its client, which `client` starts at the client's address;
    /// `replicas[0]` is the leader. A reserved port can be taken before it
    /// is bound (another test's outgoing connection may get it as its
    /// source port), so a cluster that fails to bind is built again on
    /// fresh ports.
    fn one_group_cluster_of<M, C>(
        replica: impl Fn(ProcessId, &ClusterConfig) -> BoxedNode<M>,
        client: impl Fn(
            ProcessId,
            &ClusterConfig,
            &BTreeMap<ProcessId, SocketAddr>,
        ) -> Result<C, WbamError>,
    ) -> (Vec<TcpNode<M>>, C, BTreeMap<ProcessId, SocketAddr>)
    where
        M: Serialize + DeserializeOwned + Send + 'static,
    {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let client_id = cluster.clients()[0];
        for _ in 0..5 {
            let addrs = reserve_addrs(&cluster);
            let replicas: Result<Vec<_>, _> = cluster.groups()[0]
                .members()
                .iter()
                .map(|&m| TcpNode::spawn(replica(m, &cluster), &addrs, false))
                .collect();
            if let (Ok(replicas), Ok(client)) = (replicas, client(client_id, &cluster, &addrs)) {
                return (replicas, client, addrs);
            }
        }
        panic!("no free loopback ports for the cluster");
    }

    fn whitebox_replica(member: ProcessId, cluster: &ClusterConfig) -> BoxedNode<WhiteBoxMsg> {
        let cfg = ReplicaConfig::new(member, GroupId(0), cluster.clone()).without_auto_election();
        Box::new(WhiteBoxReplica::new(cfg))
    }

    /// A white-box cluster as [`one_group_cluster_of`] builds it, with a
    /// [`MulticastClient`].
    fn one_group_cluster() -> (Vec<TcpNode<WhiteBoxMsg>>, TcpNode<WhiteBoxMsg>) {
        let (replicas, client, _) = one_group_cluster_of(whitebox_replica, |id, cluster, addrs| {
            let client = MulticastClient::new(ClientConfig::new(id, cluster.clone()));
            TcpNode::spawn(Box::new(client), addrs, false)
        });
        (replicas, client)
    }

    fn g0_message(client: ProcessId, seq: u64) -> AppMessage {
        let payload = Payload::from(format!("op-{seq}").as_str());
        AppMessage::new(
            MsgId::new(client, seq),
            Destination::single(GroupId(0)),
            payload,
        )
    }

    fn submit_to_g0<M>(client: &TcpNode<M>, seq: u64)
    where
        M: Serialize + DeserializeOwned + Send + 'static,
    {
        client.submit(g0_message(client.id(), seq)).unwrap();
    }

    /// Every replica delivers `total` messages in the same order and drops
    /// no frame, and the leader, `replicas[0]`, wrote fewer frames than
    /// messages.
    fn assert_same_order_in_fewer_frames<M>(replicas: &[TcpNode<M>], total: u64)
    where
        M: Serialize + DeserializeOwned + Send + 'static,
    {
        for r in replicas {
            assert!(r.wait_for_total(total, Duration::from_secs(30)).unwrap());
            assert_eq!(r.dropped_frames(), 0, "replica {} dropped frames", r.id());
        }
        let reference = order_of(&replicas[0]);
        for r in &replicas[1..] {
            assert_eq!(order_of(r), reference, "replica {} order differs", r.id());
        }
        let leader = &replicas[0];
        assert!(
            leader.frames_sent() < leader.messages_sent(),
            "the leader wrote {} frames for {} messages",
            leader.frames_sent(),
            leader.messages_sent()
        );
    }

    /// Plays client `client` of a white-box cluster over raw sockets: sends
    /// the leader `total` `MULTICAST`s in one write, then reads the leader's
    /// connection to `listener` (the client's address) until `total` replies
    /// have come. Returns how many frames carried them.
    fn replies_to_a_raw_client(
        leader: ProcessId,
        addrs: &BTreeMap<ProcessId, SocketAddr>,
        client: ProcessId,
        listener: &TcpListener,
        total: usize,
    ) -> usize {
        let mut burst = hello_bytes::<WhiteBoxMsg>(client);
        for seq in 0..total as u64 {
            let multicast = WhiteBoxMsg::Multicast {
                msg: g0_message(client, seq),
            };
            encode_frame_into(WireCodec::Binary, &InFrame::Protocol(multicast), &mut burst)
                .expect("encodes");
        }
        let mut dialled = TcpStream::connect(addrs[&leader]).expect("dial the leader");
        dialled.write_all(&burst).expect("send the burst");
        // Every replica dials the client to reply; the leader's connection
        // is the one whose Hello names the leader.
        listener.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut others = Vec::new();
        loop {
            let mut conn = match listener.accept() {
                Ok((conn, _)) => conn,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                Err(e) => panic!("the leader never dialled the client: {e}"),
            };
            conn.set_nonblocking(false).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut buf = vec![0u8; PREAMBLE_LEN];
            conn.read_exact(&mut buf).expect("preamble");
            buf.clear();
            let (mut frames, mut replies) = (0, 0);
            let mut chunk = vec![0u8; READ_CHUNK];
            while replies < total {
                let Some((frame, used)) =
                    decode_frame_slice::<InFrame<WhiteBoxMsg>>(WireCodec::Binary, &buf)
                        .expect("decodes")
                else {
                    let n = conn.read(&mut chunk).expect("read");
                    assert!(n > 0, "a replica closed its connection to the client");
                    buf.extend_from_slice(&chunk[..n]);
                    continue;
                };
                buf.drain(..used);
                match frame {
                    WireFrame::Hello { from } if from != leader => break,
                    WireFrame::Hello { .. } => {}
                    WireFrame::Protocol(_) => (frames, replies) = (frames + 1, replies + 1),
                    WireFrame::Batch(msgs) => {
                        (frames, replies) = (frames + 1, replies + msgs.len())
                    }
                }
            }
            if replies == total {
                return frames;
            }
            others.push(conn);
        }
    }

    /// Sixty-four multicasts sent at once reach the leader in a few rounds,
    /// so what it sends a peer in a round shares frames. The white-box
    /// replica and FastCast have no framing code of their own: for both,
    /// the leader writes fewer frames than messages and drops none, and
    /// every replica still delivers the same order. The white-box leader's
    /// `CLIENT_REPLY`s to its one client, read off the wire, share frames
    /// too.
    #[test]
    fn a_burst_of_multicasts_folds_into_fewer_frames() {
        const BURST: u64 = 64;
        let (replicas, listener, addrs) = one_group_cluster_of(whitebox_replica, |id, _, addrs| {
            Ok(TcpListener::bind(addrs[&id])?)
        });
        let (leader, client) = (replicas[0].id(), ProcessId(3));
        let frames = replies_to_a_raw_client(leader, &addrs, client, &listener, BURST as usize);
        assert!(
            frames < BURST as usize,
            "the leader's {BURST} replies took {frames} frames"
        );
        assert_same_order_in_fewer_frames(&replicas, BURST);
        for r in replicas {
            r.shutdown();
        }

        let (replicas, client, _) = one_group_cluster_of(
            |m, cluster| {
                Box::new(BaselineReplica::new(
                    m,
                    GroupId(0),
                    cluster.clone(),
                    Mode::FastCast,
                ))
            },
            |id, cluster, addrs| {
                let client = BaselineClient::new(id, cluster.clone(), Duration::from_secs(1));
                TcpNode::spawn(Box::new(client), addrs, false)
            },
        );
        for seq in 0..BURST {
            submit_to_g0(&client, seq);
        }
        assert!(client
            .wait_for_total(BURST, Duration::from_secs(30))
            .unwrap());
        assert_same_order_in_fewer_frames(&replicas, BURST);
        for r in replicas {
            r.shutdown();
        }
        client.shutdown();
    }

    /// 4 KiB multicasts, sixteen in flight: a follower whose ack the leader
    /// counted gets its `DELIVER` by reference, in `try_deliver` or in the
    /// round's fold, so the leader writes less than the two `ACCEPT`s and
    /// two full `DELIVER`s to its followers would take, while every replica
    /// still delivers the same order.
    #[test]
    fn deliver_by_reference_spares_the_leader_the_payload_bytes() {
        const PAYLOAD: usize = 4096;
        const TOTAL: u64 = 128;
        let (replicas, client) = one_group_cluster();
        for seq in 0..TOTAL {
            if seq >= 16 {
                assert!(client
                    .wait_for_total(seq - 15, Duration::from_secs(30))
                    .unwrap());
            }
            let id = MsgId::new(client.id(), seq);
            let payload = Payload::from(vec![seq as u8; PAYLOAD]);
            let msg = AppMessage::new(id, Destination::single(GroupId(0)), payload);
            client.submit(msg).unwrap();
        }
        assert!(client
            .wait_for_total(TOTAL, Duration::from_secs(30))
            .unwrap());
        for r in &replicas {
            assert!(r.wait_for_total(TOTAL, Duration::from_secs(30)).unwrap());
            assert_eq!(r.dropped_frames(), 0, "replica {} dropped frames", r.id());
        }
        let reference = order_of(&replicas[0]);
        for r in &replicas[1..] {
            assert_eq!(order_of(r), reference, "replica {} order differs", r.id());
        }
        let leader = &replicas[0];
        let full_delivers = TOTAL * 4 * PAYLOAD as u64;
        assert!(
            leader.bytes_sent() < full_delivers,
            "the leader wrote {} bytes for {TOTAL} multicasts of {PAYLOAD} B; \
             two ACCEPTs and two full DELIVERs carry {full_delivers}",
            leader.bytes_sent()
        );
        for r in replicas {
            r.shutdown();
        }
        client.shutdown();
    }

    /// With one multicast in flight the leader never sends a peer two
    /// messages in one round, so every frame is a plain `Protocol` frame:
    /// it writes exactly one frame per message, as does the client.
    #[test]
    fn one_multicast_in_flight_writes_one_frame_per_message() {
        let (replicas, client) = one_group_cluster();
        for seq in 0..8 {
            submit_to_g0(&client, seq);
            assert!(client
                .wait_for_total(seq + 1, Duration::from_secs(30))
                .unwrap());
        }
        for r in &replicas {
            assert!(r.wait_for_total(8, Duration::from_secs(30)).unwrap());
        }
        for node in [&replicas[0], &client] {
            assert!(
                node.messages_sent() >= 8,
                "node {} sent too little",
                node.id()
            );
            assert_eq!(
                node.frames_sent(),
                node.messages_sent(),
                "node {} batched",
                node.id()
            );
        }
        for r in replicas {
            r.shutdown();
        }
        client.shutdown();
    }

    /// Only the binary codec is deployable: naming another one is refused
    /// by name before anything is bound. The node's address is held by a
    /// listener throughout, so a bind attempt would have failed with an IO
    /// error instead.
    #[test]
    fn a_json_codec_node_is_refused_and_binds_nothing() {
        let held = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
        let replica = ProcessId(0);
        let addrs = BTreeMap::from([(replica, held.local_addr().expect("local addr"))]);
        let cluster = ClusterConfig::builder().groups(1, 1).clients(0).build();
        let cfg = ReplicaConfig::new(replica, GroupId(0), cluster.clone()).without_auto_election();
        let err = TcpNode::spawn_with_codec(
            Box::new(WhiteBoxReplica::new(cfg)),
            &addrs,
            false,
            WireCodec::Json,
        )
        .err()
        .expect("the JSON codec is refused");
        assert!(matches!(err, WbamError::Codec(_)), "{err:?}");
        assert!(err.to_string().contains("json"), "{err}");
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
        let node = spawn_replica(&cluster, &addrs, replica, false);

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
    /// reactors reconnect with backoff, the fresh node's `Event::Restart`
    /// pulls the group state via the NEW_LEADER handshake, and it ends up
    /// with the same delivery order as the survivors.
    #[test]
    fn restarted_process_rejoins_over_tcp() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let addrs = reserve_addrs(&cluster);
        let members = cluster.groups()[0].members().to_vec();
        let mut replicas: BTreeMap<ProcessId, TcpNode<WhiteBoxMsg>> = members
            .iter()
            .map(|m| (*m, spawn_replica(&cluster, &addrs, *m, false)))
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
        let rejoined = spawn_replica(&cluster, &addrs, victim, true);
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
    /// [`PeerOut`] (the reactor runs these exact transitions, with the dial
    /// itself on a thread): repeated dial failures climb the backoff
    /// exponentially to its cap, and a successful (re)connect resets it to
    /// [`BACKOFF_INITIAL`] — a later outage must start from the fast 10 ms
    /// re-dial, not inherit a stale half-second delay from an earlier one.
    #[test]
    fn dial_backoff_resets_after_successful_reconnect() {
        // A port that was bound and released: dials are refused immediately.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
            l.local_addr().expect("local addr")
        };
        // The backoff state machine is pure Duration math on the reactor's
        // clock, so the test drives it with explicit times.
        let mut peer = PeerOut::new(addr);
        assert!(
            !peer.dial_due(Duration::ZERO),
            "nothing queued, nothing to dial for"
        );
        assert!(
            matches!(peer.push_frame(&7u64, MAX_FRAME_LEN), Some((_, true))),
            "empty buffer accepts a frame"
        );
        assert_eq!(peer.next_dial, Duration::ZERO, "first dial is due at once");
        let dial = |peer: &mut PeerOut, now: Duration| {
            assert!(peer.dial_due(now), "a dial is due at its deadline");
            let result = TcpStream::connect_timeout(&peer.addr, DIAL_TIMEOUT);
            peer.dial_finished(result, b"hello", now);
        };

        // Fail enough dials to saturate the backoff at its cap. Each attempt
        // is made exactly when due, as the reactor's poll timeout does.
        let mut expected = BACKOFF_INITIAL;
        for _ in 0..10 {
            let now = peer.next_dial;
            if !now.is_zero() {
                assert!(
                    !peer.dial_due(now - Duration::from_nanos(1)),
                    "dialled early"
                );
            }
            dial(&mut peer, now);
            assert!(peer.conn.is_none(), "dial must fail");
            assert_eq!(peer.next_dial, now + expected, "wrong re-dial deadline");
            expected = (expected * 2).min(BACKOFF_MAX);
        }
        assert_eq!(peer.backoff, BACKOFF_MAX, "backoff saturates at the cap");

        // The peer comes back: the next due dial succeeds and must reset the
        // backoff so the *next* outage re-dials fast.
        let listener = TcpListener::bind(addr).expect("rebind victim port");
        let due = peer.next_dial;
        dial(&mut peer, due);
        assert!(peer.conn.is_some(), "reconnected");
        assert!(
            peer.outbuf.starts_with(b"hello"),
            "hello precedes the queue"
        );
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

    /// A transport for `p0` with one peer that is never dialled (nothing
    /// calls `service`), for driving the send path alone.
    fn undialled_transport(peer: ProcessId) -> TcpTransport<Vec<u8>> {
        let nowhere: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let addrs = BTreeMap::from([(ProcessId(0), nowhere), (peer, nowhere)]);
        TcpTransport::new(
            ProcessId(0),
            &addrs,
            Arc::new(|_| Err(io::Error::other("never dialled"))),
            Arc::new(Waker::new().expect("wake pipe")),
        )
    }

    /// A node that sends every message as it is.
    struct Plain;

    impl Node for Plain {
        type Msg = Vec<u8>;

        fn id(&self) -> ProcessId {
            ProcessId(0)
        }

        fn on_event(&mut self, _now: Duration, _event: Event<Vec<u8>>) -> Vec<Action<Vec<u8>>> {
            Vec::new()
        }
    }

    /// One round that sends `msgs` to `to`, framed as the reactor does at
    /// the end of a round.
    fn send_round(transport: &mut TcpTransport<Vec<u8>>, to: ProcessId, msgs: Vec<Vec<u8>>) {
        for msg in msgs {
            transport.send(to, msg);
        }
        transport.encode_pending(&Plain);
    }

    /// Every frame queued for `peer`, decoded, with its encoded length.
    fn queued_frames(
        transport: &TcpTransport<Vec<u8>>,
        peer: ProcessId,
    ) -> Vec<(InFrame<Vec<u8>>, usize)> {
        let mut buf = &transport.peers[&peer].outbuf[..];
        let mut frames = Vec::new();
        while let Some((frame, used)) =
            decode_frame_slice::<InFrame<Vec<u8>>>(CODEC, buf).expect("decodes")
        {
            frames.push((frame, used));
            buf = &buf[used..];
        }
        assert!(buf.is_empty(), "a partial frame is queued");
        frames
    }

    /// How many messages each frame carries: 1 for `Protocol`.
    fn shape(frames: &[(InFrame<Vec<u8>>, usize)]) -> Vec<usize> {
        frames
            .iter()
            .map(|(frame, _)| match frame {
                WireFrame::Protocol(_) => 1,
                WireFrame::Batch(msgs) => msgs.len(),
                WireFrame::Hello { .. } => 0,
            })
            .collect()
    }

    /// The messages the frames carry, in order.
    fn carried(frames: Vec<(InFrame<Vec<u8>>, usize)>) -> Vec<Vec<u8>> {
        frames
            .into_iter()
            .flat_map(|(frame, _)| match frame {
                WireFrame::Protocol(msg) => vec![msg],
                WireFrame::Batch(msgs) => msgs,
                WireFrame::Hello { .. } => Vec::new(),
            })
            .collect()
    }

    /// A message that names its place in a round.
    fn numbered(seq: usize, len: usize) -> Vec<u8> {
        let mut msg = (seq as u32).to_be_bytes().to_vec();
        msg.resize(len.max(4), 0xA5);
        msg
    }

    /// A lone message leaves as a plain `Protocol` frame, the bytes it had
    /// before batching existed; a round of 300 leaves as a `Batch` of 256
    /// and one of 44, in sending order.
    #[test]
    fn a_round_of_300_messages_frames_as_256_and_44() {
        let peer = ProcessId(7);
        let mut transport = undialled_transport(peer);
        send_round(&mut transport, peer, vec![numbered(0, 8)]);
        let lone = encode_frame_with(WireCodec::Binary, &InFrame::Protocol(numbered(0, 8)))
            .expect("encodes");
        assert_eq!(transport.peers[&peer].outbuf, lone.to_vec());
        transport.peers.get_mut(&peer).unwrap().outbuf.clear();

        let round: Vec<Vec<u8>> = (0..300).map(|seq| numbered(seq, 8)).collect();
        send_round(&mut transport, peer, round.clone());
        let frames = queued_frames(&transport, peer);
        assert_eq!(shape(&frames), [FRAME_MAX_MESSAGES, 44]);
        assert_eq!(carried(frames), round);
        assert_eq!(transport.stats.frames_sent(), 3);
        assert_eq!(transport.stats.messages_sent(), 301);
        assert_eq!(transport.stats.dropped_frames(), 0);
    }

    /// Four messages of a third of the batch cap: one batch of all four
    /// would be over it, so the run is framed as two batches of two, each
    /// within the cap.
    #[test]
    fn a_run_over_the_byte_cap_splits_in_half() {
        let peer = ProcessId(7);
        let mut transport = undialled_transport(peer);
        let round: Vec<Vec<u8>> = (0..4)
            .map(|seq| numbered(seq, FRAME_MAX_BATCH_BYTES / 3))
            .collect();
        send_round(&mut transport, peer, round.clone());
        let frames = queued_frames(&transport, peer);
        assert_eq!(shape(&frames), [2, 2]);
        assert!(frames
            .iter()
            .all(|(_, len)| *len <= FRAME_MAX_BATCH_BYTES + 4));
        assert_eq!(carried(frames), round);
        assert_eq!(transport.stats.frames_sent(), 2);
        assert_eq!(transport.stats.messages_sent(), 4);
    }

    /// A full run of messages at both caps — 256 of them, together at the
    /// byte cap — frames as one batch without a drop, within the byte cap,
    /// and decodes back to the run in order.
    #[test]
    fn a_full_run_at_both_caps_frames_as_one_batch() {
        let peer = ProcessId(7);
        let each = FRAME_MAX_BATCH_BYTES / FRAME_MAX_MESSAGES - 16;
        let round: Vec<Vec<u8>> = (0..FRAME_MAX_MESSAGES)
            .map(|seq| numbered(seq, each))
            .collect();
        let mut transport = undialled_transport(peer);
        send_round(&mut transport, peer, round.clone());
        assert_eq!(transport.stats.dropped_frames(), 0);
        let frames = queued_frames(&transport, peer);
        assert_eq!(shape(&frames), [FRAME_MAX_MESSAGES]);
        assert!(frames[0].1 <= FRAME_MAX_BATCH_BYTES + 4);
        assert_eq!(carried(frames), round);
    }

    /// Frames beyond [`OUTBUF_CAP`] are dropped (never truncated) and the
    /// drop is counted per peer through [`TransportStats`]: frames are
    /// encoded into the outbuf itself, so a dropped frame must leave the
    /// outbuf byte for byte as it was.
    #[test]
    fn outbuf_overflow_drops_whole_frames_and_counts_them() {
        let peer = ProcessId(7);
        let mut transport = undialled_transport(peer);
        let transport = &mut transport;
        // Fills the buffer to within 64 bytes of the cap (a frame adds under
        // twenty bytes of length prefix and headers to its payload).
        send_round(transport, peer, vec![vec![0u8; OUTBUF_CAP - 64]]);
        assert_eq!(transport.stats.dropped_frames(), 0);
        let queued = transport.peers[&peer].outbuf.clone();
        assert!(queued.len() > OUTBUF_CAP - 64 && queued.len() <= OUTBUF_CAP - 32);

        // The next frames would cross the cap: dropped whole, counted.
        send_round(transport, peer, vec![vec![1u8; 64]]);
        send_round(transport, peer, vec![vec![1u8; 64]]);
        assert_eq!(transport.stats.dropped_frames(), 2);
        assert_eq!(transport.stats.dropped_frames_by_peer()[&peer], 2);
        assert!(
            transport.peers[&peer].outbuf == queued,
            "a drop altered the outbuf"
        );
        // Unknown destinations are ignored, not counted against anyone.
        send_round(transport, ProcessId(99), vec![vec![2u8; 8]]);
        assert_eq!(transport.stats.dropped_frames(), 2);
        // A frame that still fits is queued behind the first, intact.
        send_round(transport, peer, vec![vec![3u8; 4]]);
        assert_eq!(transport.stats.dropped_frames(), 2);
        let outbuf = &transport.peers[&peer].outbuf;
        assert!(outbuf.len() > queued.len() && outbuf.starts_with(&queued));
        // One message a round is one frame, dropped ones included, and so
        // are their bytes: the two dropped frames count as queued.
        assert_eq!(transport.stats.frames_sent(), 4);
        assert_eq!(transport.stats.messages_sent(), 4);
        let frame_len = |payload: usize| {
            encode_frame_with(WireCodec::Binary, &InFrame::Protocol(vec![1u8; payload]))
                .expect("encodes")
                .len() as u64
        };
        assert_eq!(
            transport.stats.bytes_sent(),
            queued.len() as u64 + 2 * frame_len(64) + frame_len(4)
        );
    }

    /// A `Batch` that would cross the buffer cap is dropped as one frame,
    /// however many messages it carries. The sent counters keep both, so
    /// their ratio stays the messages per frame.
    #[test]
    fn a_dropped_batch_counts_as_one_frame() {
        let peer = ProcessId(7);
        let mut transport = undialled_transport(peer);
        send_round(&mut transport, peer, vec![vec![0u8; OUTBUF_CAP - 64]]);
        let queued = transport.peers[&peer].outbuf.clone();
        send_round(
            &mut transport,
            peer,
            (0..10).map(|seq| numbered(seq, 8)).collect(),
        );
        assert_eq!(transport.stats.dropped_frames(), 1);
        assert_eq!(transport.stats.frames_sent(), 2);
        assert_eq!(transport.stats.messages_sent(), 11);
        assert!(transport.peers[&peer].outbuf == queued);
    }

    /// A message too large for any frame can never reach the peer: it is
    /// counted as one dropped frame and leaves no partial frame behind,
    /// alone in its round or amid a run, whose other messages still leave.
    #[test]
    fn unencodable_frames_are_dropped_and_counted() {
        let peer = ProcessId(7);
        let mut transport = undialled_transport(peer);
        send_round(&mut transport, peer, vec![vec![3u8; 64]]);
        assert_eq!(transport.stats.dropped_frames(), 0);
        let queued = transport.peers[&peer].outbuf.clone();
        assert!(!queued.is_empty());

        send_round(&mut transport, peer, vec![vec![3u8; MAX_FRAME_LEN]]);
        assert_eq!(transport.stats.dropped_frames(), 1);
        assert_eq!(transport.stats.dropped_frames_by_peer()[&peer], 1);
        assert_eq!(transport.stats.frames_sent(), 2);
        assert!(
            transport.peers[&peer].outbuf == queued,
            "a drop altered the outbuf"
        );

        transport.peers.get_mut(&peer).unwrap().outbuf.clear();
        let round = vec![numbered(0, 8), vec![3u8; MAX_FRAME_LEN], numbered(2, 8)];
        send_round(&mut transport, peer, round);
        assert_eq!(transport.stats.dropped_frames(), 2);
        let frames = queued_frames(&transport, peer);
        assert_eq!(shape(&frames), [1, 1]);
        assert_eq!(carried(frames), [numbered(0, 8), numbered(2, 8)]);
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
        let node = spawn_replica(&cluster, &addrs, replica, false);

        let mut bytes = hello_bytes::<WhiteBoxMsg>(client_id);
        bytes.extend_from_slice(
            &encode_frame_with(
                WireCodec::Binary,
                &InFrame::Protocol(WhiteBoxMsg::Multicast {
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
    /// join the reactor promptly — no panic from the backoff machinery, no
    /// thread left dialling dead addresses after the join returns.
    #[test]
    fn shutdown_during_dial_backoff_joins_promptly() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(0).build();
        // Reserved-then-released ports: every dial is refused instantly, so
        // the two dead peers drive their backoff toward BACKOFF_MAX.
        let addrs = reserve_addrs(&cluster);
        let node = spawn_replica(&cluster, &addrs, cluster.groups()[0].members()[0], false);
        // Leader recovery queues NEW_STATE traffic for both (dead) group
        // members, arming the dial/backoff cycle with real queued bytes.
        node.become_leader().unwrap();
        // Let the backoff climb so the shutdown lands mid-cycle, with the
        // reactor asleep until a re-dial deadline rather than idle.
        std::thread::sleep(Duration::from_millis(600));

        let begin = Instant::now();
        node.shutdown();
        let took = begin.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "shutdown under dial backoff took {took:?}: reactor missed the wake"
        );
    }

    /// What the [`Probe`] node below observed.
    #[derive(Default)]
    struct ProbeLog {
        /// How late each firing of the periodic timer was.
        lateness: Vec<Duration>,
        /// Messages received, by sender.
        received: BTreeMap<ProcessId, u64>,
        /// When each message other than [`FLOOD`] arrived.
        arrivals: Vec<Duration>,
    }

    /// The message a flooding connection repeats; counted, not timestamped.
    const FLOOD: u64 = u64::MAX;

    /// A node for the reactor tests: re-arms one timer every `period`,
    /// sending a beat to each of `beats_to` when it fires, and logs how late
    /// each firing was and what it received.
    struct Probe {
        id: ProcessId,
        period: Duration,
        beats_to: Vec<ProcessId>,
        deadline: Duration,
        log: Arc<Mutex<ProbeLog>>,
    }

    impl Probe {
        fn boxed(
            id: ProcessId,
            period: Duration,
            beats_to: Vec<ProcessId>,
        ) -> (BoxedNode<u64>, Arc<Mutex<ProbeLog>>) {
            let log = Arc::new(Mutex::new(ProbeLog::default()));
            let probe = Probe {
                id,
                period,
                beats_to,
                deadline: Duration::ZERO,
                log: Arc::clone(&log),
            };
            (Box::new(probe), log)
        }

        fn arm(&mut self, now: Duration) -> Action<u64> {
            self.deadline = now + self.period;
            Action::SetTimer {
                id: TimerId(1),
                delay: self.period,
            }
        }
    }

    impl Node for Probe {
        type Msg = u64;

        fn id(&self) -> ProcessId {
            self.id
        }

        fn on_event(&mut self, now: Duration, event: Event<u64>) -> Vec<Action<u64>> {
            let log = Arc::clone(&self.log);
            let mut log = log.lock().unwrap();
            match event {
                Event::Init => vec![self.arm(now)],
                Event::Timer { .. } => {
                    log.lateness.push(now.saturating_sub(self.deadline));
                    let beat = log.lateness.len() as u64;
                    let mut actions: Vec<_> = self
                        .beats_to
                        .iter()
                        .map(|&to| Action::Send { to, msg: beat })
                        .collect();
                    actions.push(self.arm(now));
                    actions
                }
                Event::Message { from, msg } => {
                    *log.received.entry(from).or_default() += 1;
                    if msg != FLOOD {
                        log.arrivals.push(now);
                    }
                    Vec::new()
                }
                _ => Vec::new(),
            }
        }
    }

    /// Polls `done` every few milliseconds for up to 30 s.
    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let begin = Instant::now();
        while !done() {
            assert!(
                begin.elapsed() < Duration::from_secs(30),
                "timed out: {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn median(samples: &[Duration]) -> Duration {
        let mut sorted = samples.to_vec();
        sorted.sort();
        sorted[sorted.len() / 2]
    }

    fn loopback_addr() -> SocketAddr {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind port 0");
        l.local_addr().expect("local addr")
    }

    /// Node timers ride on the `poll` timeout: with no socket and no mailbox
    /// activity at all, an idle reactor still fires a timer within 5 ms of
    /// its deadline (the period is not a whole number of milliseconds, so a
    /// timeout rounded down would wake early, find nothing due and sleep
    /// again). The median is asserted, not the maximum: the test shares its
    /// CPUs with every other test of the crate.
    #[test]
    fn idle_reactor_fires_node_timers_on_time() {
        let id = ProcessId(0);
        let (probe, log) = Probe::boxed(id, Duration::from_micros(10_400), Vec::new());
        let addrs = BTreeMap::from([(id, loopback_addr())]);
        let node = TcpNode::spawn(probe, &addrs, false).expect("spawn");
        eventually("20 timer firings", || {
            log.lock().unwrap().lateness.len() >= 20
        });
        node.shutdown();
        let lateness = log.lock().unwrap().lateness.clone();
        assert!(
            median(&lateness) < Duration::from_millis(5),
            "timers fired late: {lateness:?}"
        );
    }

    /// A client whose replica is not up yet keeps the multicast queued,
    /// re-dials on the backoff deadlines and re-sends on its retry timer —
    /// all of it driven by `poll` timeouts on an otherwise idle reactor — and
    /// completes once the replica appears.
    #[test]
    fn client_retries_reach_a_replica_that_starts_late() {
        let cluster = ClusterConfig::builder().groups(1, 1).clients(1).build();
        let addrs = reserve_addrs(&cluster);
        let client_id = cluster.clients()[0];
        let config = ClientConfig::new(client_id, cluster.clone())
            .with_retry_timeout(Duration::from_millis(50));
        let client = TcpNode::spawn(Box::new(MulticastClient::new(config)), &addrs, false)
            .expect("spawn client");
        client
            .submit(AppMessage::new(
                MsgId::new(client_id, 0),
                Destination::single(GroupId(0)),
                Payload::from("early"),
            ))
            .unwrap();
        // Several retry periods and re-dials pass with nobody listening.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(client.total_deliveries().unwrap(), 0);

        let replica_id = cluster.groups()[0].members()[0];
        let replica = spawn_replica(&cluster, &addrs, replica_id, false);
        assert!(client.wait_for_total(1, Duration::from_secs(30)).unwrap());
        assert_eq!(order_of(&replica), vec![MsgId::new(client_id, 0)]);
        replica.shutdown();
        client.shutdown();
    }

    /// Lost-wake stress for the `sleeping`-flag protocol: four threads
    /// submit 5 000 multicasts each to a 1 × 1 cluster in 250 short bursts,
    /// and the reactor drains every burst and goes back to sleep before the
    /// next one starts — so every burst ends with submits racing a reactor
    /// that is deciding to block. The client's retry timer is an hour away:
    /// nothing but a submit's own wake can get a stranded envelope out of
    /// the mailbox, and a lost wake shows as a burst that never completes.
    #[test]
    fn concurrent_submits_never_lose_a_wake() {
        const THREADS: u64 = 4;
        const BURSTS: u64 = 250;
        const PER_BURST: u64 = 20;

        let cluster = ClusterConfig::builder().groups(1, 1).clients(1).build();
        let addrs = reserve_addrs(&cluster);
        let replica_id = cluster.groups()[0].members()[0];
        let replica = spawn_replica(&cluster, &addrs, replica_id, false);
        let client_id = cluster.clients()[0];
        let config = ClientConfig::new(client_id, cluster.clone())
            .with_retry_timeout(Duration::from_secs(3600));
        let client = TcpNode::spawn(Box::new(MulticastClient::new(config)), &addrs, false)
            .expect("spawn client");

        // Both ends of a burst are barriers, so the interleaving under test
        // — the last submits of a burst against the reactor going idle — is
        // forced 250 times rather than hoped for. After a lost wake the
        // workers skip their remaining submits, so the test fails instead of
        // waiting out one timeout per burst.
        let barrier = Barrier::new(THREADS as usize + 1);
        let lost = Mutex::new(None);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (client, barrier, lost) = (&client, &barrier, &lost);
                scope.spawn(move || {
                    for burst in 0..BURSTS {
                        barrier.wait();
                        for i in 0..PER_BURST {
                            if lost.lock().unwrap().is_some() {
                                break;
                            }
                            let seq = (t * BURSTS + burst) * PER_BURST + i;
                            client
                                .submit(AppMessage::new(
                                    MsgId::new(client_id, seq),
                                    Destination::single(GroupId(0)),
                                    Payload::from("x"),
                                ))
                                .unwrap();
                        }
                        barrier.wait();
                    }
                });
            }
            for burst in 1..=BURSTS {
                barrier.wait();
                barrier.wait();
                let submitted = burst * THREADS * PER_BURST;
                if lost.lock().unwrap().is_none()
                    && !client
                        .wait_for_total(submitted, Duration::from_secs(10))
                        .unwrap()
                {
                    *lost.lock().unwrap() = Some((burst, submitted));
                }
            }
        });
        assert_eq!(
            *lost.lock().unwrap(),
            None,
            "a submit's wake was lost: (burst, submitted), with {} completed",
            client.total_deliveries().unwrap()
        );
        assert_eq!(
            replica.total_deliveries().unwrap(),
            THREADS * BURSTS * PER_BURST
        );
        replica.shutdown();
        client.shutdown();
    }

    /// Fairness: a raw socket streaming valid frames as fast as it can gets
    /// its share of each iteration's envelope budget and no more, whether
    /// it streams one message a frame or full `Batch` frames, whose
    /// messages count against the budget. While it floods, the node's 10 ms
    /// timer is not delayed by more than 10 ms (median over the flood, as
    /// above) and a second connection sending a frame every few
    /// milliseconds is read in step, not starved.
    #[test]
    fn a_flooding_connection_starves_neither_timers_nor_other_links() {
        flood_starves_nothing(InFrame::Protocol(FLOOD));
        flood_starves_nothing(InFrame::Batch(vec![FLOOD; FRAME_MAX_MESSAGES]));
    }

    fn flood_starves_nothing(flood: InFrame<u64>) {
        let id = ProcessId(0);
        let (flooder, trickler) = (ProcessId(7), ProcessId(8));
        let (probe, log) = Probe::boxed(id, Duration::from_millis(10), Vec::new());
        let addrs = BTreeMap::from([(id, loopback_addr())]);
        let node = TcpNode::spawn(probe, &addrs, false).expect("spawn");

        /// Ends the flood when the test body returns or panics.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&stop);
            scope.spawn(|| {
                let mut stream = TcpStream::connect(addrs[&id]).expect("dial node");
                stream
                    .write_all(&hello_bytes::<u64>(flooder))
                    .expect("hello");
                let frame = encode_frame_with(WireCodec::Binary, &flood).expect("encode");
                let burst = frame.repeat(READ_CHUNK / frame.len());
                // Whole frames back to back; a write that times out against a
                // full socket only re-checks the stop flag.
                stream
                    .set_write_timeout(Some(Duration::from_millis(50)))
                    .unwrap();
                let mut sent = 0;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(n) = stream.write(&burst[sent..]) {
                        sent = (sent + n) % burst.len();
                    }
                }
            });
            eventually("the flood arrives", || {
                log.lock().unwrap().received.get(&flooder).copied() > Some(10_000)
            });
            let fired_before = log.lock().unwrap().lateness.len();

            let mut stream = TcpStream::connect(addrs[&id]).expect("dial node");
            stream.set_nodelay(true).unwrap();
            stream
                .write_all(&hello_bytes::<u64>(trickler))
                .expect("hello");
            for seq in 0..40u64 {
                let frame =
                    encode_frame_with(WireCodec::Binary, &InFrame::Protocol(seq)).expect("encode");
                stream.write_all(&frame).expect("trickle");
                std::thread::sleep(Duration::from_millis(5));
                // In step: at most a few frames behind at any point.
                let read = log.lock().unwrap().received.get(&trickler).copied();
                assert!(
                    read.unwrap_or(0) + 10 > seq,
                    "second connection starved: {read:?} of {seq} frames read"
                );
            }
            eventually("the trickle is read in full", || {
                log.lock().unwrap().received.get(&trickler) == Some(&40)
            });
            let lateness = log.lock().unwrap().lateness[fired_before..].to_vec();
            assert!(lateness.len() >= 10, "timer starved: {lateness:?}");
            assert!(
                median(&lateness) <= Duration::from_millis(10),
                "timer delayed by the flood: {lateness:?}"
            );
        });
        node.shutdown();
    }

    /// Dialling never runs on the reactor. With an injected dialler that
    /// takes 300 ms to fail for one (dead) peer, heartbeats to a live peer
    /// keep their 10 ms period: the dial used to be a blocking
    /// `connect_timeout` on the IO thread, which would now stall `on_event`
    /// and every timer for its whole duration, attempt after attempt.
    #[test]
    fn a_slow_dial_does_not_stall_heartbeats_to_live_peers() {
        let (a, live, dead) = (ProcessId(0), ProcessId(1), ProcessId(2));
        let addrs = BTreeMap::from([
            (a, loopback_addr()),
            (live, loopback_addr()),
            (dead, loopback_addr()),
        ]);
        let (receiver, received) = Probe::boxed(live, Duration::from_secs(3600), Vec::new());
        let receiver = TcpNode::spawn(receiver, &addrs, false).expect("spawn live peer");

        let dead_addr = addrs[&dead];
        let dialler: Dialler = Arc::new(move |addr| {
            if addr == dead_addr {
                std::thread::sleep(Duration::from_millis(300));
                return Err(io::Error::other("black-holed"));
            }
            TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)
        });
        let (sender, _) = Probe::boxed(a, Duration::from_millis(10), vec![live, dead]);
        let sender =
            TcpNode::spawn_with_dialler(sender, &addrs, false, dialler).expect("spawn sender");

        // Long enough for two whole slow dials of the dead peer.
        eventually("60 heartbeats", || {
            received.lock().unwrap().arrivals.len() >= 60
        });
        let begin = Instant::now();
        sender.shutdown();
        assert!(
            begin.elapsed() < Duration::from_secs(2),
            "shutdown waits for at most the dial in flight"
        );
        receiver.shutdown();
        let arrivals = received.lock().unwrap().arrivals.clone();
        let longest_gap = arrivals.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(
            longest_gap < Duration::from_millis(150),
            "heartbeats stalled for {longest_gap:?} behind a dial"
        );
    }
}
