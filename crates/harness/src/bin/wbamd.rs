//! `wbamd` — one WBAM cluster process (a replica or a client) over real TCP.
//!
//! ```text
//! wbamd --spec cluster.json --id N [--restart] [--wire binary|json]
//!       [--deliveries FILE] [--stdin-stop]
//!       [--multicast N [--outstanding K] [--dest g0,g1] [--payload BYTES]
//!        [--warmup W] [--first-seq S] [--summary FILE]]
//! ```
//!
//! Every process of a cluster is started with the same
//! [`DeploySpec`] JSON file and its own `--id`. `--wire` overrides the
//! spec's wire codec (compact binary by default, `json` for debuggable
//! frames); all processes must agree or the connection preamble rejects the
//! mismatch with a clear error. When the spec carries a `routes` matrix the
//! process dials its peers through those (proxied) addresses while still
//! listening on its own `addrs` entry — how the explorer's deployed engine
//! interposes its fault-injecting proxy on every link.
//! Replica processes run until stopped, appending one
//! [`DeliveryLine`] JSON line per delivery to `--deliveries`. The node's
//! reactor thread writes them: one `write(2)` per reactor round that
//! delivered, before any frame of that round — the client's reply included
//! — leaves the process. An orchestrator can tail the file, every reply a
//! client has seen has its line in it, and a `SIGKILL` tears at most the
//! last line. `SIGTERM` — and stdin reaching EOF, when the orchestrator opts
//! in with `--stdin-stop` — stops a replica *gracefully*: the reactor
//! flushes once more, the process writes a final `graceful stop` stats line
//! to stderr and exits 0, so a chaos run can tell a clean stop from a crash.
//! A failed log write stops the replica with the error on stderr and a
//! non-zero exit. Re-deploying a killed replica
//! with `--restart` makes the fresh process rejoin its group through the
//! protocol's `Event::Restart` path: a fresh ballot via the `NEW_LEADER`
//! handshake, state re-synchronised from a quorum.
//!
//! Client processes (`--multicast`) drive a closed-loop workload: keep
//! `--outstanding` multicasts in flight until `--multicast` of them complete,
//! then write a [`ClientSummary`] JSON object to
//! `--summary` and exit 0. `--warmup` runs that many extra multicasts (same
//! closed loop, same destinations) *before* the measured window opens, so
//! connection dials and preamble handshakes land in the warm-up instead of
//! polluting the recorded throughput. `--first-seq` lets successive client
//! invocations of the same process id keep message identifiers unique.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::de::DeserializeOwned;
use serde::Serialize;
use wbam_harness::{
    ClientSummary, DeliveryLine, DeployRole, DeploySpec, Family, FamilyVisitor, LatencyStats,
};
use wbam_runtime::{BoxedNode, DeliverySink, RuntimeDelivery, TcpNode};
use wbam_types::wire::to_json;
use wbam_types::{AppMessage, Destination, GroupId, MsgId, Payload, ProcessId, WbamError};

/// Safety horizon for a client run: if the cluster makes no progress for this
/// long, the client exits non-zero instead of hanging forever.
const CLIENT_STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// How long startup retries a failing listener bind before giving up.
const BIND_RETRY_WINDOW: Duration = Duration::from_secs(3);

/// How often a replica's main thread looks at its stop conditions.
const STOP_POLL: Duration = Duration::from_millis(250);

/// Spawns the node's TCP runtime, retrying transient listener-bind failures.
///
/// Orchestrators reserve "free" ports by bind-then-release, and between that
/// release and our bind, an *outgoing* connection of the same deployment (a
/// proxy dial, a client retry) can be assigned the very same port as its
/// ephemeral source port — making our bind fail with `EADDRINUSE` even
/// though nothing listens there. Such collisions clear as soon as that
/// connection closes, so a dying-on-first-error daemon turns a microscopic
/// timing race into a dead replica (seen live in a net-chaos sweep as a
/// replica exiting 1 at startup with an empty delivery log). `spawn` only
/// performs socket I/O while setting up the listener, so every `Io` error
/// here is a bind-path failure and worth the brief retry.
///
/// A replica passes its delivery log as `sink`, and the node's reactor
/// writes it; a failed attempt hands the sink back for the next one. A
/// client passes `None` and keeps its completions in memory.
fn spawn_with_bind_retry<M: Serialize + DeserializeOwned + Send + 'static>(
    make_node: impl Fn() -> Result<BoxedNode<M>, WbamError>,
    addrs: &std::collections::BTreeMap<ProcessId, std::net::SocketAddr>,
    restart: bool,
    codec: wbam_types::wire::WireCodec,
    mut sink: Option<JsonlSink>,
) -> Result<TcpNode<M>, WbamError> {
    let begin = Instant::now();
    loop {
        let node = make_node()?;
        let spawned = match sink.take() {
            None => TcpNode::spawn_with_codec(node, addrs, restart, codec),
            Some(log) => {
                TcpNode::spawn_with_sink(node, addrs, restart, codec, log).map_err(|(e, unused)| {
                    sink = Some(unused);
                    e
                })
            }
        };
        match spawned {
            Ok(node) => return Ok(node),
            Err(WbamError::Io(e)) if begin.elapsed() < BIND_RETRY_WINDOW => {
                eprintln!("wbamd: listener bind failed ({e}); retrying");
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
}

struct Args {
    spec: String,
    id: u32,
    restart: bool,
    wire: Option<String>,
    deliveries: Option<String>,
    stdin_stop: bool,
    multicast: Option<u64>,
    outstanding: u64,
    dest: Option<Vec<GroupId>>,
    payload: usize,
    warmup: u64,
    first_seq: u64,
    summary: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut id = None;
    let mut args = Args {
        spec: String::new(),
        id: 0,
        restart: false,
        wire: None,
        deliveries: None,
        stdin_stop: false,
        multicast: None,
        outstanding: 1,
        dest: None,
        payload: 20,
        warmup: 0,
        first_seq: 0,
        summary: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--spec" => spec = Some(value("--spec")?),
            "--id" => {
                id = Some(
                    value("--id")?
                        .parse::<u32>()
                        .map_err(|e| format!("--id: {e}"))?,
                )
            }
            "--restart" => args.restart = true,
            "--wire" => {
                let name = value("--wire")?;
                if wbam_types::wire::WireCodec::from_name(&name).is_none() {
                    return Err(format!("--wire {name:?}: expected \"binary\" or \"json\""));
                }
                args.wire = Some(name);
            }
            "--deliveries" => args.deliveries = Some(value("--deliveries")?),
            "--stdin-stop" => args.stdin_stop = true,
            "--multicast" => {
                let count: u64 = value("--multicast")?
                    .parse()
                    .map_err(|e| format!("--multicast: {e}"))?;
                if count == 0 {
                    return Err("--multicast must be at least 1".to_string());
                }
                args.multicast = Some(count);
            }
            "--outstanding" => {
                args.outstanding = value("--outstanding")?
                    .parse()
                    .map_err(|e| format!("--outstanding: {e}"))?;
                if args.outstanding == 0 {
                    return Err("--outstanding must be at least 1".to_string());
                }
            }
            "--dest" => {
                let groups = value("--dest")?
                    .split(',')
                    .map(|g| g.trim().parse::<u32>().map(GroupId))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("--dest: {e}"))?;
                args.dest = Some(groups);
            }
            "--payload" => {
                args.payload = value("--payload")?
                    .parse()
                    .map_err(|e| format!("--payload: {e}"))?;
            }
            "--warmup" => {
                args.warmup = value("--warmup")?
                    .parse()
                    .map_err(|e| format!("--warmup: {e}"))?;
            }
            "--first-seq" => {
                args.first_seq = value("--first-seq")?
                    .parse()
                    .map_err(|e| format!("--first-seq: {e}"))?;
            }
            "--summary" => args.summary = Some(value("--summary")?),
            "--help" | "-h" => {
                return Err(
                    "usage: wbamd --spec FILE --id N [--restart] [--wire binary|json] \
                     [--deliveries FILE] [--stdin-stop] \
                     [--multicast N [--outstanding K] [--dest g0,g1] [--payload BYTES] \
                     [--warmup W] [--first-seq S] [--summary FILE]]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.spec = spec.ok_or("--spec is required")?;
    args.id = id.ok_or("--id is required")?;
    Ok(args)
}

/// The delivery log, as JSONL; `None` path writes nowhere. Lines are
/// [`push`]ed into a reused buffer and reach the file on
/// [`flush`](DeliverySink::flush), one `write(2)` per burst instead of one
/// per line. A replica's reactor owns it as the node's [`DeliverySink`] and
/// flushes it once per round, before that round's frames leave, so a reply
/// never overtakes its delivery's line; the client loop flushes each burst
/// of completions it drains. Either way a SIGKILL tears at most the last
/// line.
///
/// [`push`]: JsonlSink::push
struct JsonlSink {
    file: Option<std::fs::File>,
    pending: Vec<u8>,
}

impl JsonlSink {
    fn open(path: Option<&str>) -> Result<Self, WbamError> {
        let file = match path {
            None => None,
            Some(p) => Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)
                    .map_err(WbamError::from)?,
            ),
        };
        Ok(JsonlSink {
            file,
            pending: Vec::new(),
        })
    }

    fn push(&mut self, line: &DeliveryLine) {
        if self.file.is_some() {
            line.write_json(&mut self.pending);
            self.pending.push(b'\n');
        }
    }
}

impl DeliverySink for JsonlSink {
    fn deliver(&mut self, d: RuntimeDelivery) {
        self.push(&DeliveryLine::new(
            d.process,
            d.delivery.msg.id,
            d.delivery.global_ts,
            d.elapsed,
        ));
    }

    fn flush(&mut self) -> Result<(), WbamError> {
        if let Some(file) = self.file.as_mut() {
            file.write_all(&self.pending).map_err(WbamError::from)?;
            self.pending.clear();
        }
        Ok(())
    }
}

/// The ways a replica process is asked to stop gracefully: `SIGTERM`
/// (always handled, via the `netpoll` flag) and stdin reaching EOF (only
/// when the orchestrator passes `--stdin-stop` — many test runners hand
/// children an already-closed stdin, so EOF alone must not mean "exit").
struct StopSignal {
    term: Option<&'static AtomicBool>,
    stdin_eof: Arc<AtomicBool>,
}

impl StopSignal {
    fn install(stdin_stop: bool) -> StopSignal {
        let term = match netpoll::termination_flag() {
            Ok(flag) => Some(flag),
            Err(e) => {
                eprintln!("wbamd: cannot install SIGTERM handler: {e}");
                None
            }
        };

        let stdin_eof = Arc::new(AtomicBool::new(false));
        if stdin_stop {
            let flag = Arc::clone(&stdin_eof);
            // Reads (and discards) stdin until EOF; the thread is detached
            // and dies with the process.
            std::thread::spawn(move || {
                let mut stdin = std::io::stdin().lock();
                let mut buf = [0u8; 256];
                loop {
                    match std::io::Read::read(&mut stdin, &mut buf) {
                        Ok(0) => break,
                        Ok(_) => continue,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
                flag.store(true, Ordering::Relaxed);
            });
        }
        StopSignal { term, stdin_eof }
    }

    fn stopped(&self) -> Option<&'static str> {
        if self.term.is_some_and(|f| f.load(Ordering::Relaxed)) {
            Some("SIGTERM")
        } else if self.stdin_eof.load(Ordering::Relaxed) {
            Some("stdin EOF")
        } else {
            None
        }
    }
}

/// Runs a replica process until it is asked to stop. The node's reactor
/// writes the delivery log, so this thread only watches: every
/// [`STOP_POLL`] it checks the stop conditions and the log writer, and
/// surfaces transport frame drops (a peer down long enough to fill its
/// output buffer) on stderr as they grow — a deployed replica must never
/// lose frames silently. Each stats line ends with the transport's
/// `frames_sent`, `messages_sent` and `bytes_sent`, so how far framing
/// packed messages into frames, and how many bytes it left to send, is on
/// record for every deployed run. A graceful
/// stop lets the reactor flush one last time, writes a `graceful stop`
/// stats line and returns `Ok`, so orchestrators can tell it from a crash
/// by the exit status alone. A failed log write returns its error, which
/// exits non-zero.
fn run_replica<M>(mut node: TcpNode<M>, stop: &StopSignal) -> Result<(), WbamError>
where
    M: Serialize + DeserializeOwned + Send + 'static,
{
    let id = node.id();
    let mut reported_drops = 0u64;
    let reason = loop {
        if let Some(reason) = stop.stopped() {
            break reason;
        }
        node.sink_status()?;
        std::thread::sleep(STOP_POLL);
        let dropped = node.dropped_frames();
        if dropped > reported_drops {
            eprintln!("wbamd: p{} stats: {}", id.0, counters(&node)?);
            reported_drops = dropped;
        }
    };
    node.stop()?;
    eprintln!(
        "wbamd: p{} graceful stop ({reason}): {}",
        id.0,
        counters(&node)?
    );
    Ok(())
}

/// The counters a process's stats lines report.
fn counters<M>(node: &TcpNode<M>) -> Result<String, WbamError>
where
    M: Serialize + DeserializeOwned + Send + 'static,
{
    Ok(format!(
        "delivered={} dropped_frames={} by_peer={:?} frames_sent={} messages_sent={} bytes_sent={}",
        node.total_deliveries()?,
        node.dropped_frames(),
        node.dropped_frames_by_peer(),
        node.frames_sent(),
        node.messages_sent(),
        node.bytes_sent()
    ))
}

/// Runs a client process closed-loop and returns its summary. Before it
/// shuts its node down it writes a `client stop` stats line with the same
/// counters a replica's `graceful stop` line carries, so how its
/// `MULTICAST`s were framed is on record too.
fn run_client<M>(
    node: TcpNode<M>,
    args: &Args,
    dest: Vec<GroupId>,
    mut sink: JsonlSink,
) -> Result<ClientSummary, WbamError>
where
    M: Serialize + DeserializeOwned + Send + 'static,
{
    let id = node.id();
    let total = args.multicast.unwrap_or(0);
    let mut next_seq = args.first_seq;
    let mut submit_times: std::collections::BTreeMap<MsgId, Duration> =
        std::collections::BTreeMap::new();
    let mut latencies: Vec<Duration> = Vec::new();
    let mut first_submit: Option<Duration> = None;
    let mut last_completion = Duration::ZERO;
    let mut last_progress = Instant::now();
    let mut seen = 0u64;

    let submit_one = |node: &TcpNode<M>,
                      next_seq: &mut u64,
                      submit_times: &mut std::collections::BTreeMap<MsgId, Duration>,
                      first_submit: &mut Option<Duration>|
     -> Result<(), WbamError> {
        let msg_id = MsgId::new(id, *next_seq);
        *next_seq += 1;
        let now = node.uptime();
        first_submit.get_or_insert(now);
        submit_times.insert(msg_id, now);
        node.submit(AppMessage::new(
            msg_id,
            Destination::new(dest.iter().copied()).expect("non-empty destination"),
            Payload::from(vec![0u8; args.payload]),
        ))
    };

    // Two closed-loop phases over the same machinery: an unmeasured warm-up
    // (establishes every connection and preamble handshake on the request
    // path, fully drained before the clock starts) and the measured run. The
    // first recorded completion therefore never pays a dial.
    for (count, measured) in [(args.warmup, false), (total, true)] {
        if count == 0 {
            continue;
        }
        if measured {
            latencies.clear();
            first_submit = None;
            last_completion = Duration::ZERO;
        }
        let mut submitted = 0u64;
        let mut done = 0u64;
        while submitted < count && submitted < args.outstanding {
            submit_one(&node, &mut next_seq, &mut submit_times, &mut first_submit)?;
            submitted += 1;
        }
        while done < count {
            // Block on the delivery log's condvar (no poll-loop latency); the
            // short timeout only bounds how often the stall check runs.
            node.wait_for_total(seen + 1, Duration::from_millis(100))?;
            let completions = node.drain_deliveries()?;
            if completions.is_empty() {
                if last_progress.elapsed() > CLIENT_STALL_TIMEOUT {
                    return Err(WbamError::NotReady {
                        process: id,
                        reason: format!(
                            "no completion for {CLIENT_STALL_TIMEOUT:?} ({done} of {count} done{})",
                            if measured { "" } else { " in warm-up" }
                        ),
                    });
                }
                continue;
            }
            seen += completions.len() as u64;
            last_progress = Instant::now();
            for d in completions {
                let msg_id = d.delivery.msg.id;
                if measured {
                    sink.push(&DeliveryLine::new(
                        id,
                        msg_id,
                        d.delivery.global_ts,
                        d.elapsed,
                    ));
                }
                let Some(at) = submit_times.remove(&msg_id) else {
                    continue; // duplicate completion
                };
                done += 1;
                if measured {
                    latencies.push(d.elapsed.saturating_sub(at));
                    last_completion = d.elapsed;
                }
                if submitted < count {
                    submit_one(&node, &mut next_seq, &mut submit_times, &mut first_submit)?;
                    submitted += 1;
                }
            }
            sink.flush()?;
        }
    }

    let dropped_frames = node.dropped_frames();
    eprintln!("wbamd: p{} client stop: {}", id.0, counters(&node)?);
    node.shutdown();
    let completed = latencies.len() as u64;
    let elapsed = last_completion.saturating_sub(first_submit.unwrap_or(Duration::ZERO));
    let stats = LatencyStats::from_sample(&mut latencies).ok_or_else(|| WbamError::NotReady {
        process: id,
        reason: "closed-loop run recorded no latencies".to_string(),
    })?;
    Ok(ClientSummary {
        process: id.0,
        completed,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        throughput_msg_s: if elapsed.is_zero() {
            0.0
        } else {
            completed as f64 / elapsed.as_secs_f64()
        },
        latency_p50_ms: stats.p50_ms,
        latency_p99_ms: stats.p99_ms,
        latency_mean_ms: stats.mean_ms,
        dropped_frames,
    })
}

fn run() -> Result<(), WbamError> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wbamd: {e}");
            std::process::exit(2);
        }
    };
    let spec_json = std::fs::read_to_string(&args.spec).map_err(WbamError::from)?;
    let spec = DeploySpec::from_json(&spec_json)?;
    spec.protocol()?.visit(Serve {
        spec: &spec,
        args: &args,
    })
}

/// Runs process `--id` of the spec as a node of the protocol's family.
struct Serve<'a> {
    spec: &'a DeploySpec,
    args: &'a Args,
}

impl FamilyVisitor for Serve<'_> {
    type Output = Result<(), WbamError>;

    fn visit<F: Family>(self, family: F) -> Self::Output {
        let Serve { spec, args } = self;
        let id = ProcessId(args.id);
        let role = spec.role_of(id)?;
        // Listen on the own `addrs` entry, dial peers through `routes` when
        // the spec interposes a proxy on the links.
        let addrs = spec.dial_map(id)?;
        let codec = match &args.wire {
            Some(name) => {
                wbam_types::wire::WireCodec::from_name(name).expect("validated by parse_args")
            }
            None => spec.wire_codec()?,
        };
        let sink = JsonlSink::open(args.deliveries.as_deref())?;
        let make_node = || spec.node(&family, id);
        match (role, args.multicast) {
            (DeployRole::Replica(_), Some(_)) => Err(WbamError::NotReady {
                process: id,
                reason: "--multicast is for client processes".to_string(),
            }),
            (DeployRole::Client, None) => Err(WbamError::NotReady {
                process: id,
                reason: "client processes need --multicast".to_string(),
            }),
            (DeployRole::Replica(_), None) => {
                let stop = StopSignal::install(args.stdin_stop);
                let node =
                    spawn_with_bind_retry(make_node, &addrs, args.restart, codec, Some(sink))?;
                run_replica(node, &stop)
            }
            (DeployRole::Client, Some(_)) => {
                let dest = args
                    .dest
                    .clone()
                    .unwrap_or_else(|| spec.cluster_config().group_ids());
                let node = spawn_with_bind_retry(make_node, &addrs, args.restart, codec, None)?;
                let summary = run_client(node, args, dest, sink)?;
                if let Some(path) = &args.summary {
                    std::fs::write(path, to_json(&summary)?).map_err(WbamError::from)?;
                }
                println!("{}", to_json(&summary)?);
                Ok(())
            }
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wbamd: {e}");
            ExitCode::FAILURE
        }
    }
}
