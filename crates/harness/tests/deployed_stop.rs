//! Deployed lifecycle regressions for `wbamd`: graceful stop, startup
//! robustness and the delivery log's guarantees.
//!
//! A chaos orchestrator needs to tell a *clean* stop from a crash: `SIGTERM`
//! (and stdin-EOF with `--stdin-stop`) must drain the delivery log, write a
//! `graceful stop` stats line and exit 0, while a replica whose listener
//! bind races an ephemeral-port squatter must retry instead of dying with an
//! empty log (both were found by the seeded net-chaos sweep). The replica's
//! reactor writes each round's lines before that round's replies leave, so
//! a `SIGKILL` loses no line a client has seen answered, and a log that
//! cannot be written stops the replica loudly. The client is hosted in the
//! test process (`common::Client`); `wbamd` refuses to play one.

use std::collections::BTreeSet;
use std::io::Read as _;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use common::{Client, Outcome};
use wbam_harness::{ChildGuard, DeliveryLine, DeploySpec, Protocol};
use wbam_types::wire::from_json;

mod common;

fn wbamd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wbamd"))
}

/// A 1-group × 1-replica spec (plus one client id) in a fresh temp dir.
struct Rig {
    dir: PathBuf,
    spec: DeploySpec,
    spec_path: PathBuf,
}

impl Rig {
    fn new(tag: &str) -> Rig {
        let dir = std::env::temp_dir().join(format!("wbam-stop-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let spec =
            DeploySpec::loopback_free_ports(Protocol::WhiteBox, 1, 1, 1).expect("reserve ports");
        let spec_path = dir.join("cluster.json");
        std::fs::write(&spec_path, spec.to_json().expect("serialise spec")).expect("write spec");
        Rig {
            dir,
            spec,
            spec_path,
        }
    }

    fn spawn_replica(&self, extra: &[&str]) -> ChildGuard {
        let mut cmd = wbamd();
        cmd.arg("--spec")
            .arg(&self.spec_path)
            .arg("--id")
            .arg("0")
            .arg("--deliveries")
            .arg(self.log_path())
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        ChildGuard(cmd.spawn().expect("spawn wbamd replica"))
    }

    /// A closed loop of `count` multicasts to the one group, one in flight,
    /// from a client that is gone when it returns.
    fn run_client(&self, count: u64) -> Outcome {
        Client::spawn(&self.spec).closed_loop(&[0], 1, count)
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("p0.jsonl")
    }

    fn log_lines(&self) -> Vec<DeliveryLine> {
        std::fs::read_to_string(self.log_path())
            .unwrap_or_default()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| from_json(l).expect("parse delivery line"))
            .collect()
    }

    fn wait_for_lines(&self, count: usize, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.log_lines().len() < count && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Waits for the child to exit on its own (no kill) and returns its status
/// plus everything it wrote to stderr.
fn wait_exit(child: &mut Child, timeout: Duration) -> (std::process::ExitStatus, String) {
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            None => panic!("wbamd still running {timeout:?} after the stop request"),
        }
    };
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    (status, stderr)
}

/// Regression: SIGTERM must stop a replica *gracefully* — drain the delivery
/// log, write the `graceful stop` stats line and exit 0 — so orchestrators
/// can tell a clean stop from a SIGKILL.
#[test]
fn sigterm_drains_the_delivery_log_and_exits_zero() {
    let rig = Rig::new("sigterm");
    let mut guard = rig.spawn_replica(&[]);

    let outcome = rig.run_client(5);
    assert_eq!(outcome.completed, 5);
    rig.wait_for_lines(5, Duration::from_secs(30));

    netpoll::send_signal(guard.0.id(), netpoll::Signal::Term).expect("send SIGTERM");
    let (status, stderr) = wait_exit(&mut guard.0, Duration::from_secs(10));
    assert!(status.success(), "SIGTERM stop exited with {status}");
    assert!(
        stderr.contains("graceful stop (SIGTERM)"),
        "missing graceful-stop line in stderr: {stderr:?}"
    );
    assert!(
        stderr.contains("delivered=5"),
        "stats line does not report the drained count: {stderr:?}"
    );
    // The line ends with the transport's byte count: the five replies to
    // the client, each at least a 4-byte length prefix and a body.
    let stop_line = stderr
        .lines()
        .find(|l| l.contains("graceful stop"))
        .expect("graceful-stop line");
    let field = |name: &str| -> u64 {
        let tail = stop_line.split(&format!("{name}=")).nth(1);
        let digits = tail.and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next());
        digits
            .and_then(|d| d.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {stop_line:?}"))
    };
    let (frames, bytes) = (field("frames_sent"), field("bytes_sent"));
    assert!(
        stop_line
            .trim_end()
            .ends_with(&format!("bytes_sent={bytes}")),
        "bytes_sent is not the last field: {stop_line:?}"
    );
    assert_eq!(frames, 5, "one reply frame per multicast: {stop_line:?}");
    assert!(bytes > 4 * frames, "frames carry bodies: {stop_line:?}");
    assert_eq!(rig.log_lines().len(), 5, "delivery log not fully drained");
}

/// Regression: with `--stdin-stop`, stdin reaching EOF stops the replica as
/// gracefully as SIGTERM does (the no-signals orchestration path).
#[test]
fn stdin_eof_stops_a_replica_gracefully() {
    let rig = Rig::new("stdin-eof");
    let mut cmd = wbamd();
    cmd.arg("--spec")
        .arg(&rig.spec_path)
        .arg("--id")
        .arg("0")
        .arg("--deliveries")
        .arg(rig.log_path())
        .arg("--stdin-stop")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut guard = ChildGuard(cmd.spawn().expect("spawn wbamd replica"));

    let outcome = rig.run_client(3);
    assert_eq!(outcome.completed, 3);
    rig.wait_for_lines(3, Duration::from_secs(30));

    drop(guard.0.stdin.take()); // EOF
    let (status, stderr) = wait_exit(&mut guard.0, Duration::from_secs(10));
    assert!(status.success(), "stdin-EOF stop exited with {status}");
    assert!(
        stderr.contains("graceful stop (stdin EOF)"),
        "missing graceful-stop line in stderr: {stderr:?}"
    );
    assert_eq!(rig.log_lines().len(), 3, "delivery log not fully drained");
}

/// Regression for the startup bind race the net-chaos sweep caught (seed
/// `n1:WbCast:405da438a39e8064`, json wire): a connection elsewhere in the
/// deployment can squat a replica's reserved listen port as its *ephemeral
/// source port*, and `wbamd` used to die on the resulting `EADDRINUSE` with
/// an empty delivery log. Startup must retry the bind until the squatter
/// clears, then serve normally.
#[test]
fn startup_bind_retry_survives_a_squatted_port() {
    let rig = Rig::new("bind-retry");
    // Squat the replica's listen address before the daemon starts.
    let squatter = TcpListener::bind(listen_addr(&rig.spec)).expect("squat listen port");

    let mut guard = rig.spawn_replica(&[]);
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        guard.0.try_wait().expect("try_wait").is_none(),
        "wbamd gave up on the squatted port instead of retrying the bind"
    );
    drop(squatter);

    // With the port free the daemon finishes starting and serves traffic.
    let outcome = rig.run_client(3);
    assert_eq!(outcome.completed, 3);
    rig.wait_for_lines(3, Duration::from_secs(30));

    netpoll::send_signal(guard.0.id(), netpoll::Signal::Term).expect("send SIGTERM");
    let (status, stderr) = wait_exit(&mut guard.0, Duration::from_secs(10));
    assert!(status.success(), "post-retry stop exited with {status}");
    assert!(
        stderr.contains("listener bind failed"),
        "the bind-retry path never engaged: {stderr:?}"
    );
    assert!(
        stderr.contains("graceful stop (SIGTERM)"),
        "missing graceful-stop line in stderr: {stderr:?}"
    );
    assert_eq!(rig.log_lines().len(), 3, "delivery log not fully drained");
}

/// The write-before-reply guarantee: the reactor writes a round's delivery
/// lines before any frame of that round leaves the process, so every
/// multicast a client has seen completed is in the replica's log even when
/// the replica is SIGKILLed the moment the client is done — no waiting for
/// the log to catch up. When a second thread wrote the log, the reply could
/// leave first and the kill could lose the last lines.
#[test]
fn every_answered_multicast_is_logged_before_a_sigkill() {
    const COUNT: u64 = 200;
    let rig = Rig::new("write-before-reply");
    let mut guard = rig.spawn_replica(&[]);

    let outcome = rig.run_client(COUNT);
    assert_eq!(outcome.completed, COUNT);
    guard.0.kill().expect("SIGKILL the replica");
    let _ = guard.0.wait();

    let log = std::fs::read_to_string(rig.log_path()).expect("read the delivery log");
    let mut lines: Vec<&str> = log.lines().collect();
    if !log.ends_with('\n') {
        lines.pop(); // a torn last line is allowed, nothing before it is
    }
    let logged: BTreeSet<u64> = lines
        .iter()
        .map(|l| from_json::<DeliveryLine>(l).expect("every whole line parses"))
        .filter(|line| line.sender == 1)
        .map(|line| line.seq)
        .collect();
    let missing: Vec<u64> = (0..COUNT).filter(|seq| !logged.contains(seq)).collect();
    assert!(
        missing.is_empty(),
        "answered multicasts missing from the log: {missing:?}"
    );
}

/// A replica that cannot write its delivery log must not run on without it.
/// `/dev/full` fails every write: the reactor stops at the first flush,
/// before the round's reply leaves, and the process exits non-zero with the
/// error on stderr.
#[test]
fn a_failed_log_write_stops_the_replica_with_an_error() {
    let rig = Rig::new("dev-full");
    let mut cmd = wbamd();
    cmd.arg("--spec")
        .arg(&rig.spec_path)
        .arg("--id")
        .arg("0")
        .arg("--deliveries")
        .arg("/dev/full")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut replica = ChildGuard(cmd.spawn().expect("spawn wbamd replica"));
    let mut client = Client::spawn(&rig.spec);
    client.submit(&[0]);

    let (status, stderr) = wait_exit(&mut replica.0, Duration::from_secs(30));
    assert!(
        !status.success(),
        "a replica with an unwritable log exited 0"
    );
    assert!(
        stderr.contains("delivery sink failed") && stderr.contains("wbamd: io error"),
        "the write error is not on stderr: {stderr:?}"
    );
    assert!(
        !stderr.contains("graceful stop"),
        "a failed write is not a graceful stop: {stderr:?}"
    );
    assert_eq!(
        client.replies(),
        0,
        "the client got a reply whose delivery was never logged"
    );
}

/// `wbamd` is a replica daemon: a client id is refused with an error that
/// points at the in-process client, and the retired client flags are
/// unknown arguments.
#[test]
fn wbamd_refuses_a_client_id_and_the_client_flags() {
    let rig = Rig::new("client-id");
    let out = wbamd()
        .arg("--spec")
        .arg(&rig.spec_path)
        .arg("--id")
        .arg("1")
        .stdin(Stdio::null())
        .output()
        .expect("run wbamd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("replicas only")
            && stderr.contains("TcpNode + DeploySpec::whitebox_client"),
        "the refusal does not name the in-process client: {stderr:?}"
    );

    let out = wbamd()
        .arg("--spec")
        .arg(&rig.spec_path)
        .arg("--id")
        .arg("1")
        .args(["--multicast", "5"])
        .stdin(Stdio::null())
        .output()
        .expect("run wbamd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown argument \"--multicast\""),
        "{stderr:?}"
    );
}

fn listen_addr(spec: &DeploySpec) -> &str {
    spec.addrs[0].as_str()
}
