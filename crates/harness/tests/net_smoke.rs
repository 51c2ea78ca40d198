//! End-to-end deployment smoke test: a real cluster of separate `wbamd` OS
//! processes over loopback TCP.
//!
//! A 2-group × 3-replica white-box cluster is launched as six replica
//! processes plus closed-loop client invocations. The test multicasts across
//! both groups, SIGKILLs one replica mid-run, keeps multicasting on the
//! surviving quorum, restarts the victim with `--restart` (a fresh process on
//! the same address, like a redeployment), and asserts that every replica —
//! including the rejoined one — delivered every message in the identical
//! order. This is the CI `net-smoke` job and the paper-gap closer for
//! "simulated, not deployed".

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use wbam_harness::{ChildGuard, ClientSummary, DeliveryLine, DeploySpec, Protocol};
use wbam_types::wire::from_json;
use wbam_types::MsgId;

/// The running cluster: every replica child is wrapped in a [`ChildGuard`],
/// so a failing assertion cannot leak orphan processes into the test runner.
struct Cluster {
    dir: PathBuf,
    spec_path: PathBuf,
    replicas: BTreeMap<u32, ChildGuard>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.replicas.clear(); // guards kill + reap
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn wbamd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wbamd"))
}

fn deliveries_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.jsonl"))
}

fn spawn_replica(cluster: &mut Cluster, id: u32, restart: bool, log_name: &str) {
    let mut cmd = wbamd();
    cmd.arg("--spec")
        .arg(&cluster.spec_path)
        .arg("--id")
        .arg(id.to_string())
        .arg("--deliveries")
        .arg(deliveries_path(&cluster.dir, log_name))
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if restart {
        cmd.arg("--restart");
    }
    let child = cmd.spawn().expect("spawn wbamd replica");
    cluster.replicas.insert(id, ChildGuard(child));
}

fn run_client(cluster: &Cluster, id: u32, count: u64, first_seq: u64) -> ClientSummary {
    let summary_path = cluster.dir.join(format!("summary-{first_seq}.json"));
    let status = wbamd()
        .arg("--spec")
        .arg(&cluster.spec_path)
        .arg("--id")
        .arg(id.to_string())
        .arg("--multicast")
        .arg(count.to_string())
        .arg("--outstanding")
        .arg("4")
        .arg("--dest")
        .arg("0,1")
        .arg("--first-seq")
        .arg(first_seq.to_string())
        .arg("--summary")
        .arg(&summary_path)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .expect("run wbamd client");
    assert!(status.success(), "client exited with {status}");
    let json = std::fs::read_to_string(&summary_path).expect("client summary");
    from_json(&json).expect("parse client summary")
}

fn read_delivery_order(path: &Path) -> Vec<MsgId> {
    let Ok(content) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    content
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            from_json::<DeliveryLine>(l)
                .expect("parse delivery line")
                .msg_id()
        })
        .collect()
}

fn wait_for_lines(path: &Path, count: usize, timeout: Duration) -> Vec<MsgId> {
    let deadline = Instant::now() + timeout;
    loop {
        let order = read_delivery_order(path);
        if order.len() >= count || Instant::now() >= deadline {
            return order;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn tcp_process_cluster_survives_kill_and_restart() {
    let dir = std::env::temp_dir().join(format!("wbam-net-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let mut spec = DeploySpec::loopback_free_ports(Protocol::WhiteBox, 2, 3, 1)
        .expect("reserve loopback ports");
    // Generous failure-detector timing: CI runners schedule seven processes'
    // worth of threads, and a spurious election would only slow the test.
    spec.heartbeat_ms = 100;
    spec.election_timeout_ms = 1500;
    let spec_path = dir.join("cluster.json");
    std::fs::write(&spec_path, spec.to_json().expect("serialise spec")).expect("write spec");

    let mut cluster = Cluster {
        dir: dir.clone(),
        spec_path,
        replicas: BTreeMap::new(),
    };
    for id in 0..6u32 {
        spawn_replica(&mut cluster, id, false, &format!("p{id}"));
    }

    // Phase 1: 20 cross-group multicasts against the full cluster. With
    // every peer up, the client's transport must not drop a single frame at
    // the output-buffer cap — a non-zero count here means frames are being
    // lost (and recovered by retry timers) in a fault-free run.
    let s1 = run_client(&cluster, 6, 20, 0);
    assert_eq!(s1.completed, 20);
    assert_eq!(s1.dropped_frames, 0, "fault-free phase dropped frames");

    // The client completing does not mean every *follower* has delivered:
    // completions come from the destination leaders, and the trailing
    // COMMITs race the kill below. Wait for the victim to log all of phase 1
    // first — the final assertion relies on its pre-kill log being a
    // 20-message prefix.
    let pre = wait_for_lines(&deliveries_path(&dir, "p1"), 20, Duration::from_secs(60));
    assert_eq!(pre.len(), 20, "victim logged {} of phase 1", pre.len());

    // SIGKILL a follower of group 0 (dropping its guard kills and reaps the
    // process). The remaining 2-of-3 quorum (and all of group 1) must keep
    // delivering.
    drop(cluster.replicas.remove(&1).expect("victim child"));

    // Phase 2: 10 more multicasts without the victim. One dead *replica*
    // peer cannot make the client drop either: 10 small messages come
    // nowhere near filling an 8 MiB per-peer buffer.
    let s2 = run_client(&cluster, 6, 10, 20);
    assert_eq!(s2.completed, 10);
    assert_eq!(s2.dropped_frames, 0, "client dropped frames in phase 2");

    // Redeploy the victim: a fresh OS process on the same address, with
    // --restart so it rejoins through the protocol's recovery path. Having
    // lost its delivery state with the kill, it re-delivers the complete
    // history in global-timestamp order.
    spawn_replica(&mut cluster, 1, true, "p1-restarted");

    // Phase 3: 5 more multicasts with the rejoined replica back in.
    let s3 = run_client(&cluster, 6, 5, 30);
    assert_eq!(s3.completed, 5);
    assert_eq!(s3.dropped_frames, 0, "client dropped frames in phase 3");

    // Every replica of both groups delivers all 35 messages...
    let reference = wait_for_lines(&deliveries_path(&dir, "p0"), 35, Duration::from_secs(60));
    assert_eq!(reference.len(), 35, "p0 delivered {}", reference.len());
    for name in ["p2", "p3", "p4", "p5"] {
        let order = wait_for_lines(&deliveries_path(&dir, name), 35, Duration::from_secs(60));
        assert_eq!(order, reference, "replica {name} order differs");
    }
    // ...and so does the restarted process, in the identical order.
    let rejoined = wait_for_lines(
        &deliveries_path(&dir, "p1-restarted"),
        35,
        Duration::from_secs(60),
    );
    assert_eq!(rejoined, reference, "rejoined replica order differs");

    // The victim's pre-kill log is a prefix of the reference order.
    let pre_kill = read_delivery_order(&deliveries_path(&dir, "p1"));
    assert!(
        pre_kill.len() >= 20,
        "victim delivered {} before the kill",
        pre_kill.len()
    );
    assert_eq!(pre_kill[..], reference[..pre_kill.len()]);
}
