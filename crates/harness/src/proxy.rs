//! A fault-injecting TCP man-in-the-middle for deployed clusters.
//!
//! The simulator injects faults by construction — `simnet` owns every
//! message and can drop, delay or partition at will. A *deployed* cluster is
//! six OS processes talking over real sockets, so fault injection has to
//! happen on the wire: [`NemesisProxy`] interposes one tiny TCP forwarder on
//! every directed link of a [`DeploySpec`] topology and perturbs the frames
//! flowing through it, driven by the *same* [`NemesisPlan`] type the
//! simulator's nemesis executes. One seed therefore describes one fault
//! schedule in both worlds.
//!
//! # Topology
//!
//! The deployed transport uses simplex connections: to send to peer `j`,
//! process `i` dials `j`'s listen address and writes frames down that
//! connection (replies travel on `j`'s own dial to `i`). The proxy exploits
//! this: it binds one loopback listener per ordered pair `(i, j)` and
//! rewrites the spec's `routes` matrix so process `i` dials the `(i, j)`
//! listener instead of `j` directly. Each accepted connection is forwarded
//! byte-for-byte to the real `j` — except where the plan says otherwise.
//! Processes still *listen* on their own `addrs` entries; only dialling is
//! rerouted, so the cluster needs no code changes beyond reading
//! [`DeploySpec::dial_map`].
//!
//! # What the plan means on a real wire
//!
//! - **Drops** ([`LinkFaults::drop_per_mille`]): a complete protocol frame
//!   is read from the source and never written to the destination. The
//!   runtime's retry machinery must recover, exactly as for a frame lost at
//!   the output-buffer cap. A `Batch` frame's fate is that of all the
//!   messages it carries.
//! - **Duplicates** ([`LinkFaults::duplicate_per_mille`]): the frame is
//!   written twice back-to-back. Protocol handlers must be idempotent.
//! - **Delays** ([`LinkFaults::reorder_per_mille`] /
//!   [`LinkFaults::reorder_extra`]): the forwarder stalls before writing the
//!   frame. TCP preserves byte order within a connection, so the knob is a
//!   FIFO-preserving *stall* of the whole link — later frames on the same
//!   link wait behind the delayed one, but other links (and the reverse
//!   direction) race ahead, which is where real interleavings come from.
//!   The proxy is the only executor of this knob (the simulator keeps its
//!   channels FIFO and ignores it); the capability matrix in DESIGN.md
//!   spells out the difference.
//! - **Partitions** ([`PartitionSpec`](wbam_types::nemesis::PartitionSpec)):
//!   while a partition blocks `i → j`, the `(i, j)` forwarder severs its
//!   live connection (the source sees a reset and enters dial backoff) and
//!   refuses new ones. Healing simply stops refusing — the source's next
//!   backoff dial goes through. Asymmetric partitions block one direction
//!   only, something `iptables`-style testing gets wrong surprisingly often.
//! - **Connection handshakes are exempt**: the 4-byte preamble and the
//!   `Hello` frame that open every connection are forwarded verbatim.
//!   Dropping them would just kill the connection before it carried any
//!   protocol traffic — the interesting faults are the ones the protocol
//!   must *recover from*, not a permanently undialable link (a partition
//!   expresses that case explicitly).
//!
//! Every probabilistic decision comes from a [`LinkScheduler`] — one
//! deterministically-seeded RNG per directed link, split from the plan seed
//! with the same SplitMix64 the explorer uses. Given the same seed and the
//! same sequence of frames on a link, the fate sequence is identical;
//! wall-clock timing of a live cluster is not reproducible, but *what the
//! nemesis does* is.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use wbam_types::nemesis::{LinkFaults, NemesisPlan};
use wbam_types::wire::{MAX_FRAME_LEN, PREAMBLE_LEN};
use wbam_types::{ProcessId, WbamError};

use crate::deploy::DeploySpec;
use crate::explore::splitmix64;

/// Salt mixed into per-link seed derivation so link RNG streams are
/// independent of the plan/workload streams derived from the same seed.
const LINK_SEED_SALT: u64 = 0xC4A0_11CE_0DDB_A115;

/// How long the proxy waits for a connection to the real destination.
const DIAL_TIMEOUT: Duration = Duration::from_millis(250);

/// Read timeout on forwarded connections — bounds how stale the partition /
/// shutdown checks can get while a link is idle.
const READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Accept-loop nap while a link has no inbound connection.
const ACCEPT_NAP: Duration = Duration::from_millis(10);

/// The fate of one protocol frame crossing a proxied link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Deliver the frame unchanged.
    Forward,
    /// Discard the frame; the destination never sees it.
    Drop,
    /// Deliver the frame twice back-to-back.
    Duplicate,
    /// Stall the link for the given duration, then deliver the frame (a
    /// FIFO-preserving delay — see the module docs on delays).
    Delay(Duration),
}

/// The seeded per-link decision engine: everything probabilistic the proxy
/// does to frames on one directed link comes out of this, so it can be unit
/// tested for determinism without any sockets.
#[derive(Debug, Clone)]
pub struct LinkScheduler {
    from: ProcessId,
    to: ProcessId,
    plan: NemesisPlan,
    rng: StdRng,
}

impl LinkScheduler {
    /// Builds the scheduler for the directed link `from → to` of the plan,
    /// with its RNG split deterministically from `seed` and the link's
    /// endpoints: the same `(seed, from, to)` always yields the same
    /// decision stream, and distinct links get independent streams.
    pub fn new(seed: u64, from: ProcessId, to: ProcessId, plan: &NemesisPlan) -> Self {
        let link = ((from.0 as u64) << 32) | to.0 as u64;
        LinkScheduler {
            from,
            to,
            plan: plan.clone(),
            rng: StdRng::seed_from_u64(splitmix64(seed ^ link ^ LINK_SEED_SALT)),
        }
    }

    /// Whether a scheduled partition blocks this link at plan time `at`.
    /// Purely a function of the plan — no RNG is consumed, so interleaving
    /// `blocked` checks with [`Self::decide`] calls cannot skew the fate
    /// stream.
    pub fn blocked(&self, at: Duration) -> bool {
        self.plan.partition_blocks(at, self.from, self.to)
    }

    /// Draws the fate of the next frame on this link at plan time `at`.
    /// Outside the chaos window (or with no link faults configured) every
    /// frame forwards *without consuming randomness*, so the post-chaos
    /// drain phase cannot perturb replay.
    pub fn decide(&mut self, at: Duration) -> FrameFate {
        let LinkFaults {
            drop_per_mille,
            duplicate_per_mille,
            reorder_per_mille,
            reorder_extra,
        } = self.plan.link;
        if !self.plan.chaos_active(at) || !self.plan.link.any() {
            return FrameFate::Forward;
        }
        if drop_per_mille > 0 && self.rng.gen_range(0..1000u16) < drop_per_mille {
            return FrameFate::Drop;
        }
        if duplicate_per_mille > 0 && self.rng.gen_range(0..1000u16) < duplicate_per_mille {
            return FrameFate::Duplicate;
        }
        if reorder_per_mille > 0 && self.rng.gen_range(0..1000u16) < reorder_per_mille {
            // Between a quarter and the full reorder_extra, so delays vary
            // instead of beating at one resonant period.
            let stall = reorder_extra.mul_f64(self.rng.gen_range(0.25..=1.0));
            return FrameFate::Delay(stall);
        }
        FrameFate::Forward
    }
}

/// Internal atomic counters shared by every link thread of a proxy.
#[derive(Debug, Default)]
struct Counters {
    forwarded: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    severed: AtomicU64,
}

/// A point-in-time snapshot of what a [`NemesisProxy`] has done to traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProxyStats {
    /// Protocol frames delivered to their destination (duplicates count
    /// each delivery).
    pub forwarded: u64,
    /// Protocol frames discarded by the drop knob.
    pub dropped: u64,
    /// Frames delivered twice by the duplicate knob (counted once here and
    /// twice in `forwarded`).
    pub duplicated: u64,
    /// Frames stalled by the delay knob before delivery.
    pub delayed: u64,
    /// Connections severed or refused — by partitions, destination dial
    /// failures, or peer closes.
    pub severed: u64,
}

/// The running man-in-the-middle: one listener + forwarder thread per
/// directed link of the spec's topology. Construct with [`Self::start`],
/// hand [`Self::routed_spec`] to the `wbamd` processes, and drop (or call
/// [`Self::shutdown`]) when the cluster is gone.
#[derive(Debug)]
pub struct NemesisProxy {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
    routed: DeploySpec,
}

impl NemesisProxy {
    /// Binds one loopback listener per directed link of `spec`, spawns the
    /// forwarder threads executing `plan` (probabilistic decisions seeded by
    /// `seed`, scheduled events timed relative to `epoch`), and returns the
    /// proxy. [`Self::routed_spec`] then carries the rewritten `routes`
    /// matrix every cluster process must be started with.
    ///
    /// # Errors
    ///
    /// Returns the spec's own validation errors, or [`WbamError::Io`] when
    /// binding a link listener fails.
    pub fn start(
        spec: &DeploySpec,
        plan: &NemesisPlan,
        seed: u64,
        epoch: Instant,
    ) -> Result<NemesisProxy, WbamError> {
        spec.validate()?;
        let real = spec.addr_map()?;
        let n = spec.addrs.len();
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let mut routes: Vec<Vec<String>> = vec![vec![String::new(); n]; n];
        let mut threads = Vec::with_capacity(n * (n - 1));
        for (i, row) in routes.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                if i == j {
                    // The diagonal is never dialled; keep the listen address
                    // there so the matrix stays meaningful to a human reading
                    // the JSON.
                    *slot = spec.addrs[i].clone();
                    continue;
                }
                let listener = TcpListener::bind("127.0.0.1:0").map_err(WbamError::from)?;
                listener.set_nonblocking(true).map_err(WbamError::from)?;
                let port = listener.local_addr().map_err(WbamError::from)?.port();
                *slot = format!("127.0.0.1:{port}");
                let scheduler =
                    LinkScheduler::new(seed, ProcessId(i as u32), ProcessId(j as u32), plan);
                let dst = real[&ProcessId(j as u32)];
                let link = LinkThread {
                    listener,
                    scheduler,
                    dst,
                    epoch,
                    stop: Arc::clone(&stop),
                    counters: Arc::clone(&counters),
                };
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("nemesis-{i}-{j}"))
                        .spawn(move || link.run())
                        .map_err(WbamError::from)?,
                );
            }
        }
        let mut routed = spec.clone();
        routed.routes = Some(routes);
        Ok(NemesisProxy {
            stop,
            threads,
            counters,
            routed,
        })
    }

    /// The deployment spec the cluster processes must be started with: the
    /// input spec plus the `routes` matrix that sends every dial through
    /// this proxy.
    pub fn routed_spec(&self) -> &DeploySpec {
        &self.routed
    }

    /// A snapshot of the traffic counters across all links.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            forwarded: self.counters.forwarded.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            duplicated: self.counters.duplicated.load(Ordering::Relaxed),
            delayed: self.counters.delayed.load(Ordering::Relaxed),
            severed: self.counters.severed.load(Ordering::Relaxed),
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops every link thread and waits for them to exit. Dropping the
    /// proxy does the same; this form just makes the teardown point
    /// explicit in orchestrator code.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }
}

impl Drop for NemesisProxy {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Everything one link's forwarder thread owns.
struct LinkThread {
    listener: TcpListener,
    scheduler: LinkScheduler,
    dst: SocketAddr,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
}

impl LinkThread {
    fn run(mut self) {
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            match self.listener.accept() {
                Ok((upstream, _)) => {
                    if self.scheduler.blocked(self.epoch.elapsed()) {
                        // Partitioned: refuse by closing immediately. The
                        // source sees a reset and retries with backoff, so
                        // healing needs no action here.
                        self.counters.severed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.forward(upstream);
                    self.counters.severed.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // WouldBlock (no dialler) or a transient accept error:
                    // nap and re-check the stop flag.
                    std::thread::sleep(ACCEPT_NAP);
                }
            }
        }
    }

    /// Forwards one accepted connection until it is severed — by either
    /// endpoint closing, a partition window opening, a corrupt frame, or
    /// proxy shutdown. Returns to the accept loop afterwards so the
    /// source's reconnect finds the link again.
    fn forward(&mut self, mut upstream: TcpStream) {
        let Ok(mut downstream) = TcpStream::connect_timeout(&self.dst, DIAL_TIMEOUT) else {
            return; // destination down: sever so the source re-dials later
        };
        if upstream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
            return;
        }
        let _ = upstream.set_nodelay(true);
        let _ = downstream.set_nodelay(true);

        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        let mut preamble_done = false;
        let mut hello_done = false;
        loop {
            if self.stop.load(Ordering::Relaxed) || self.scheduler.blocked(self.epoch.elapsed()) {
                return; // severing both sockets = connection reset for src
            }
            match upstream.read(&mut chunk) {
                Ok(0) => return, // source closed
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue; // idle link: loop re-checks partitions/stop
                }
                Err(_) => return,
            }
            // Cut complete units off the front of the buffer. The handshake
            // (preamble + Hello frame) forwards verbatim; every later frame
            // gets a seeded fate.
            loop {
                if !preamble_done {
                    if buf.len() < PREAMBLE_LEN {
                        break;
                    }
                    if downstream.write_all(&buf[..PREAMBLE_LEN]).is_err() {
                        return;
                    }
                    buf.drain(..PREAMBLE_LEN);
                    preamble_done = true;
                    continue;
                }
                if buf.len() < 4 {
                    break;
                }
                let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                if len > MAX_FRAME_LEN {
                    return; // corrupt length prefix: unrecoverable, sever
                }
                if buf.len() < 4 + len {
                    break;
                }
                let frame = &buf[..4 + len];
                if !hello_done {
                    // The Hello frame is handshake, not traffic: forwarded
                    // verbatim and excluded from the stats.
                    hello_done = true;
                    if downstream.write_all(frame).is_err() {
                        return;
                    }
                    buf.drain(..4 + len);
                    continue;
                }
                let fate = self.scheduler.decide(self.epoch.elapsed());
                let wrote = match fate {
                    FrameFate::Forward => {
                        self.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                        downstream.write_all(frame)
                    }
                    FrameFate::Drop => {
                        self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    }
                    FrameFate::Duplicate => {
                        self.counters.duplicated.fetch_add(1, Ordering::Relaxed);
                        self.counters.forwarded.fetch_add(2, Ordering::Relaxed);
                        downstream
                            .write_all(frame)
                            .and_then(|()| downstream.write_all(frame))
                    }
                    FrameFate::Delay(stall) => {
                        self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                        self.sleep_interruptibly(stall);
                        self.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                        downstream.write_all(frame)
                    }
                };
                if wrote.is_err() {
                    return; // destination gone: sever, let src re-dial
                }
                buf.drain(..4 + len);
            }
        }
    }

    /// Sleeps for `total`, waking early on proxy shutdown so a long stall
    /// cannot block teardown.
    fn sleep_interruptibly(&self, total: Duration) {
        let deadline = Instant::now() + total;
        while Instant::now() < deadline {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_millis(10)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Protocol;
    use wbam_types::nemesis::PartitionSpec;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn chaotic_plan() -> NemesisPlan {
        NemesisPlan {
            link: LinkFaults {
                drop_per_mille: 200,
                duplicate_per_mille: 150,
                reorder_per_mille: 100,
                reorder_extra: ms(40),
            },
            chaos_end: Some(ms(5_000)),
            ..NemesisPlan::quiet()
        }
    }

    /// Satellite: same seed + same call sequence ⇒ same fates; a different
    /// seed or a different link diverges.
    #[test]
    fn same_seed_same_link_same_byte_stream_is_deterministic() {
        let plan = chaotic_plan();
        let fates = |seed: u64, from: u32, to: u32| -> Vec<FrameFate> {
            let mut s = LinkScheduler::new(seed, ProcessId(from), ProcessId(to), &plan);
            (0..2_000).map(|i| s.decide(ms(i % 4_000))).collect()
        };
        assert_eq!(fates(7, 0, 1), fates(7, 0, 1));
        assert_ne!(fates(7, 0, 1), fates(8, 0, 1), "seed must matter");
        assert_ne!(fates(7, 0, 1), fates(7, 1, 0), "direction must matter");
        assert_ne!(fates(7, 0, 1), fates(7, 0, 2), "destination must matter");
        // All four fates actually occur at these knob settings.
        let sample = fates(7, 0, 1);
        assert!(sample.contains(&FrameFate::Drop));
        assert!(sample.contains(&FrameFate::Duplicate));
        assert!(sample.contains(&FrameFate::Forward));
        assert!(sample.iter().any(|f| matches!(f, FrameFate::Delay(_))));
    }

    /// Frames outside the chaos window forward without consuming RNG state,
    /// so drain-phase traffic cannot skew a replay.
    #[test]
    fn post_chaos_frames_forward_and_preserve_the_stream() {
        let plan = chaotic_plan();
        let mut a = LinkScheduler::new(3, ProcessId(0), ProcessId(1), &plan);
        let mut b = LinkScheduler::new(3, ProcessId(0), ProcessId(1), &plan);
        // `a` sees 500 extra post-chaos frames interleaved; `b` does not.
        let during_a: Vec<FrameFate> = (0..200)
            .map(|i| {
                for _ in 0..2 {
                    assert_eq!(a.decide(ms(6_000)), FrameFate::Forward);
                }
                a.decide(ms(i * 10))
            })
            .collect();
        let during_b: Vec<FrameFate> = (0..200).map(|i| b.decide(ms(i * 10))).collect();
        assert_eq!(during_a, during_b);
    }

    /// Satellite: a partition blocks exactly its window and its direction;
    /// healing restores both directions.
    #[test]
    fn partition_windows_block_and_heal_per_direction() {
        let mut plan = NemesisPlan::quiet();
        plan.partitions.push(PartitionSpec {
            start: ms(100),
            heal: ms(300),
            side_a: vec![ProcessId(0)],
            side_b: vec![ProcessId(1), ProcessId(2)],
            symmetric: false,
        });
        let ab = LinkScheduler::new(1, ProcessId(0), ProcessId(1), &plan);
        let ba = LinkScheduler::new(1, ProcessId(1), ProcessId(0), &plan);
        // Before the window: open both ways.
        assert!(!ab.blocked(ms(50)) && !ba.blocked(ms(50)));
        // During: a→b blocked; the asymmetric reverse stays open.
        assert!(ab.blocked(ms(150)));
        assert!(!ba.blocked(ms(150)));
        // After heal: both directions restored.
        assert!(!ab.blocked(ms(300)) && !ba.blocked(ms(300)));
        assert!(!ab.blocked(ms(400)) && !ba.blocked(ms(400)));

        // The symmetric variant blocks both directions, and heals both.
        plan.partitions[0].symmetric = true;
        let ab = LinkScheduler::new(1, ProcessId(0), ProcessId(1), &plan);
        let ba = LinkScheduler::new(1, ProcessId(1), ProcessId(0), &plan);
        assert!(ab.blocked(ms(150)) && ba.blocked(ms(150)));
        assert!(!ab.blocked(ms(350)) && !ba.blocked(ms(350)));
        // An uninvolved link never blocks.
        let cd = LinkScheduler::new(1, ProcessId(1), ProcessId(2), &plan);
        assert!(!cd.blocked(ms(150)));
    }

    /// A quiet plan is a transparent wire: preamble, Hello and every frame
    /// arrive intact and in order through the real listener/forwarder pair.
    #[test]
    fn quiet_proxy_forwards_handshake_and_frames_verbatim() {
        let spec = DeploySpec::loopback_free_ports(Protocol::WhiteBox, 1, 3, 0).unwrap();
        let real_dst = TcpListener::bind(spec.addrs[1].as_str()).unwrap();
        let proxy = NemesisProxy::start(&spec, &NemesisPlan::quiet(), 11, Instant::now()).unwrap();
        let routed = proxy.routed_spec();
        assert_eq!(routed.routes.as_ref().unwrap().len(), 3);
        // Process 0 dials process 1 through the proxy's (0,1) listener...
        let route_0_to_1 = routed.dial_map(ProcessId(0)).unwrap()[&ProcessId(1)];
        assert_ne!(route_0_to_1, spec.addr_map().unwrap()[&ProcessId(1)]);

        let mut src = TcpStream::connect(route_0_to_1).unwrap();
        let (mut dst, _) = real_dst.accept().unwrap();
        dst.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // ...and the handshake plus three frames all arrive verbatim.
        let frame = |body: &[u8]| -> Vec<u8> {
            let mut f = (body.len() as u32).to_be_bytes().to_vec();
            f.extend_from_slice(body);
            f
        };
        let mut sent = b"WB\x01\x00".to_vec();
        sent.extend(frame(b"hello-frame"));
        sent.extend(frame(b"first"));
        sent.extend(frame(b""));
        sent.extend(frame(&[0xAB; 4096]));
        src.write_all(&sent).unwrap();
        let mut got = vec![0u8; sent.len()];
        dst.read_exact(&mut got).unwrap();
        assert_eq!(got, sent);
        assert_eq!(proxy.stats().forwarded, 3); // Hello is handshake, not traffic
        proxy.shutdown();
    }

    /// With the drop knob at 1000‰ the handshake still passes (preamble and
    /// Hello are exempt) but every protocol frame vanishes.
    #[test]
    fn full_drop_plan_passes_handshake_and_eats_every_frame() {
        let mut plan = NemesisPlan::quiet();
        plan.link.drop_per_mille = 1000;
        let spec = DeploySpec::loopback_free_ports(Protocol::WhiteBox, 1, 3, 0).unwrap();
        let real_dst = TcpListener::bind(spec.addrs[2].as_str()).unwrap();
        let proxy = NemesisProxy::start(&spec, &plan, 12, Instant::now()).unwrap();
        let route = proxy.routed_spec().dial_map(ProcessId(0)).unwrap()[&ProcessId(2)];

        let mut src = TcpStream::connect(route).unwrap();
        let (mut dst, _) = real_dst.accept().unwrap();
        dst.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sent = b"WB\x01\x00".to_vec();
        sent.extend((5u32).to_be_bytes());
        sent.extend(b"hello");
        src.write_all(&sent).unwrap();
        for i in 0..10u8 {
            let mut f = (1u32).to_be_bytes().to_vec();
            f.push(i);
            src.write_all(&f).unwrap();
        }
        // Handshake comes through...
        let mut got = vec![0u8; sent.len()];
        dst.read_exact(&mut got).unwrap();
        assert_eq!(got, sent);
        // ...then nothing else does.
        dst.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut probe = [0u8; 1];
        assert!(dst.read_exact(&mut probe).is_err(), "dropped frame leaked");
        // Wait for the forwarder to chew through all ten frames before
        // asserting the counter (writes race the read timeout above).
        let begin = Instant::now();
        while proxy.stats().dropped < 10 {
            assert!(
                begin.elapsed() < Duration::from_secs(5),
                "{:?}",
                proxy.stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(proxy.stats().forwarded, 0);
        proxy.shutdown();
    }

    /// A blocked window severs a live connection and refuses new ones; after
    /// heal, a fresh dial forwards again — the deployed partition lifecycle.
    #[test]
    fn partition_severs_then_heals_a_live_link() {
        let mut plan = NemesisPlan::quiet();
        plan.partitions.push(PartitionSpec {
            start: ms(150),
            heal: ms(700),
            side_a: vec![ProcessId(0)],
            side_b: vec![ProcessId(1)],
            symmetric: true,
        });
        let spec = DeploySpec::loopback_free_ports(Protocol::WhiteBox, 1, 3, 0).unwrap();
        let real_dst = TcpListener::bind(spec.addrs[1].as_str()).unwrap();
        real_dst.set_nonblocking(true).unwrap();
        let epoch = Instant::now();
        let proxy = NemesisProxy::start(&spec, &plan, 13, epoch).unwrap();
        let route = proxy.routed_spec().dial_map(ProcessId(0)).unwrap()[&ProcessId(1)];

        // Connect before the window and confirm the link works.
        let mut src = TcpStream::connect(route).unwrap();
        let mut dst = loop {
            match real_dst.accept() {
                Ok((s, _)) => break s,
                Err(_) => std::thread::sleep(ms(5)),
            }
        };
        dst.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut handshake = b"WB\x01\x00".to_vec();
        handshake.extend((2u32).to_be_bytes());
        handshake.extend(b"hi");
        src.write_all(&handshake).unwrap();
        let mut got = vec![0u8; handshake.len()];
        dst.read_exact(&mut got).unwrap();

        // Inside the window the proxy severs: the upstream write eventually
        // errors (or the downstream read sees EOF).
        while epoch.elapsed() < ms(200) {
            std::thread::sleep(ms(10));
        }
        let mut eof = [0u8; 1];
        let severed = loop {
            match dst.read(&mut eof) {
                Ok(0) => break true,
                Ok(_) => continue,
                Err(_) => break false,
            }
        };
        assert!(severed, "destination side must see the sever as EOF");
        // Re-dials inside the window are refused (accepted then closed).
        let mut refused = TcpStream::connect(route).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            matches!(refused.read(&mut eof), Ok(0) | Err(_)),
            "mid-window dial must not stay open"
        );

        // After heal a fresh dial forwards end to end again.
        while epoch.elapsed() < ms(750) {
            std::thread::sleep(ms(10));
        }
        let mut src2 = TcpStream::connect(route).unwrap();
        src2.write_all(&handshake).unwrap();
        let mut dst2 = loop {
            match real_dst.accept() {
                Ok((s, _)) => break s,
                Err(_) => std::thread::sleep(ms(5)),
            }
        };
        dst2.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got2 = vec![0u8; handshake.len()];
        dst2.read_exact(&mut got2).unwrap();
        assert_eq!(got2, handshake);
        proxy.shutdown();
    }
}
