//! `wbamd` — one WBAM replica process over real TCP.
//!
//! ```text
//! wbamd --spec cluster.json --id N [--restart] [--deliveries FILE] [--stdin-stop]
//! ```
//!
//! Every replica of a cluster is started with the same
//! [`DeploySpec`] JSON file and its own `--id`. Every connection speaks the
//! binary codec of `WIRE.md`; a peer whose preamble names another codec or
//! wire version is refused with a clear error. When the spec carries a
//! `routes` matrix the
//! process dials its peers through those (proxied) addresses while still
//! listening on its own `addrs` entry — how the explorer's deployed engine
//! interposes its fault-injecting proxy on every link.
//! A replica runs until stopped, appending one
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
//! The spec's client ids are not `wbamd` processes: the orchestrator hosts
//! each client in its own process, as a [`TcpNode`] running
//! [`DeploySpec::whitebox_client`] — the benchmark's load generator, the
//! deployed explorer and the deployed tests all do. `wbamd` refuses a
//! client id.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::de::DeserializeOwned;
use serde::Serialize;
use wbam_harness::{DeliveryLine, DeployRole, DeploySpec, Family, FamilyVisitor};
use wbam_runtime::{BoxedNode, DeliverySink, RuntimeDelivery, TcpNode};
use wbam_types::{ProcessId, WbamError};

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
/// The node's reactor writes the delivery log `sink`; a failed attempt hands
/// the sink back for the next one.
fn spawn_with_bind_retry<M: Serialize + DeserializeOwned + Send + 'static>(
    make_node: impl Fn() -> Result<BoxedNode<M>, WbamError>,
    addrs: &std::collections::BTreeMap<ProcessId, std::net::SocketAddr>,
    restart: bool,
    mut sink: JsonlSink,
) -> Result<TcpNode<M>, WbamError> {
    let begin = Instant::now();
    loop {
        match TcpNode::spawn_with_sink(make_node()?, addrs, restart, sink) {
            Ok(node) => return Ok(node),
            Err((WbamError::Io(e), unused)) if begin.elapsed() < BIND_RETRY_WINDOW => {
                eprintln!("wbamd: listener bind failed ({e}); retrying");
                sink = unused;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err((e, _)) => return Err(e),
        }
    }
}

struct Args {
    spec: String,
    id: u32,
    restart: bool,
    deliveries: Option<String>,
    stdin_stop: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut id = None;
    let mut args = Args {
        spec: String::new(),
        id: 0,
        restart: false,
        deliveries: None,
        stdin_stop: false,
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
            "--deliveries" => args.deliveries = Some(value("--deliveries")?),
            "--stdin-stop" => args.stdin_stop = true,
            "--help" | "-h" => return Err(
                "usage: wbamd --spec FILE --id N [--restart] [--deliveries FILE] [--stdin-stop]"
                    .to_string(),
            ),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.spec = spec.ok_or("--spec is required")?;
    args.id = id.ok_or("--id is required")?;
    Ok(args)
}

/// The delivery log, as JSONL; `None` path writes nowhere. Lines are
/// [`deliver`](DeliverySink::deliver)ed into a reused buffer and reach the
/// file on [`flush`](DeliverySink::flush), one `write(2)` per burst instead
/// of one per line. The replica's reactor owns it as the node's
/// [`DeliverySink`] and flushes it once per round, before that round's
/// frames leave, so a reply never overtakes its delivery's line and a
/// SIGKILL tears at most the last line.
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
}

impl DeliverySink for JsonlSink {
    fn deliver(&mut self, d: RuntimeDelivery) {
        if self.file.is_some() {
            DeliveryLine::new(
                d.process,
                d.delivery.msg.id,
                d.delivery.global_ts,
                d.elapsed,
            )
            .write_json(&mut self.pending);
            self.pending.push(b'\n');
        }
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

/// Runs replica `--id` of the spec as a node of the protocol's family.
struct Serve<'a> {
    spec: &'a DeploySpec,
    args: &'a Args,
}

impl FamilyVisitor for Serve<'_> {
    type Output = Result<(), WbamError>;

    fn visit<F: Family>(self, family: F) -> Self::Output {
        let Serve { spec, args } = self;
        let id = ProcessId(args.id);
        if spec.role_of(id)? == DeployRole::Client {
            return Err(WbamError::NotReady {
                process: id,
                reason: "wbamd serves replicas only; host a client in-process \
                         (TcpNode + DeploySpec::whitebox_client)"
                    .to_string(),
            });
        }
        // Listen on the own `addrs` entry, dial peers through `routes` when
        // the spec interposes a proxy on the links.
        let addrs = spec.dial_map(id)?;
        let sink = JsonlSink::open(args.deliveries.as_deref())?;
        let stop = StopSignal::install(args.stdin_stop);
        let node = spawn_with_bind_retry(|| spec.node(&family, id), &addrs, args.restart, sink)?;
        run_replica(node, &stop)
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
