//! Deploying a loopback-TCP cluster of `wbamd` OS processes and taking it
//! down again without leaving anything behind.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use wbam_core::WhiteBoxMsg;
use wbam_harness::{DeploySpec, Protocol};
use wbam_runtime::TcpNode;
use wbam_types::wire::WireCodec;
use wbam_types::{GroupId, ProcessId, WbamError};

use crate::check::{read_log, ReplicaLog};
use crate::procfs;

/// Replicas per group (`2f + 1` with `f = 1`).
pub const GROUP_SIZE: usize = 3;

/// How long start-up waits for every listener, and shutdown for every exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(10);

/// Failure-detector and retry timers of a deployment, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Timers {
    /// Leader heartbeat interval.
    pub heartbeat_ms: u64,
    /// Follower election timeout.
    pub election_timeout_ms: u64,
    /// Client and replica retry timeout.
    pub retry_timeout_ms: u64,
}

impl Timers {
    /// Measured workloads never kill processes; a long election timeout keeps
    /// a scheduler hiccup from triggering a failover mid-window (the setting
    /// `net_throughput` uses).
    pub const STEADY: Timers = Timers {
        heartbeat_ms: 100,
        election_timeout_ms: 2000,
        retry_timeout_ms: 500,
    };
    /// The fault probe uses `DeploySpec`'s real-deployment defaults.
    pub const FAILOVER: Timers = Timers {
        heartbeat_ms: 50,
        election_timeout_ms: 500,
        retry_timeout_ms: 500,
    };
}

struct Replica {
    id: u32,
    group: u32,
    child: Child,
    killed: bool,
    reaped: bool,
}

/// A running cluster: `groups × 3` `wbamd` replica processes. Dropping it
/// kills and reaps whatever is still alive, so a failing run cannot leak
/// processes; [`Deployment::stop`] is the orderly way down.
pub struct Deployment {
    /// The spec every process was started with (the client's address is its
    /// last entry).
    spec: DeploySpec,
    dir: PathBuf,
    replicas: Vec<Replica>,
    /// When the first `wbamd` was spawned.
    pub spawned_at: Instant,
    /// When the last listener accepted a connection.
    pub listening_at: Instant,
}

/// What a cluster left behind after an orderly stop.
pub struct Stopped {
    /// Every replica's delivery log.
    pub logs: Vec<ReplicaLog>,
    /// Frames the replicas' transports dropped, from their stop-time stats
    /// lines.
    pub dropped_frames: u64,
}

impl Deployment {
    /// Spawns the replicas of a `groups`-group white-box cluster (binary
    /// codec, `max_batch = 1`, no injected delay) with their `--deliveries`
    /// logs and stderr in `dir`, and returns once every listener accepts
    /// connections. Ports come from [`DeploySpec::loopback_free_ports`];
    /// readiness is polled by connecting, never slept for.
    pub fn start(wbamd: &Path, dir: &Path, groups: usize, timers: Timers) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut spec = DeploySpec::loopback_free_ports(Protocol::WhiteBox, groups, GROUP_SIZE, 1)
            .map_err(|e| format!("reserving ports: {e}"))?;
        spec.wire = Some(WireCodec::Binary.name().to_string());
        spec.heartbeat_ms = timers.heartbeat_ms;
        spec.election_timeout_ms = timers.election_timeout_ms;
        spec.retry_timeout_ms = timers.retry_timeout_ms;
        let spec_path = dir.join("cluster.json");
        let json = spec.to_json().map_err(|e| e.to_string())?;
        std::fs::write(&spec_path, json).map_err(|e| format!("{}: {e}", spec_path.display()))?;

        let spawned_at = Instant::now();
        let mut deployment = Deployment {
            spec,
            dir: dir.to_path_buf(),
            replicas: Vec::new(),
            spawned_at,
            listening_at: spawned_at,
        };
        for id in 0..(groups * GROUP_SIZE) as u32 {
            let stderr = std::fs::File::create(deployment.stderr_path(id))
                .map_err(|e| format!("stderr file of p{id}: {e}"))?;
            let child = Command::new(wbamd)
                .arg("--spec")
                .arg(&spec_path)
                .arg("--id")
                .arg(id.to_string())
                .arg("--deliveries")
                .arg(deployment.log_path(id))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr)
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", wbamd.display()))?;
            deployment.replicas.push(Replica {
                id,
                group: id / GROUP_SIZE as u32,
                child,
                killed: false,
                reaped: false,
            });
        }
        deployment.await_listeners()?;
        deployment.listening_at = Instant::now();
        Ok(deployment)
    }

    fn log_path(&self, id: u32) -> PathBuf {
        self.dir.join(format!("p{id}.deliveries.jsonl"))
    }

    fn stderr_path(&self, id: u32) -> PathBuf {
        self.dir.join(format!("p{id}.stderr"))
    }

    fn await_listeners(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        for i in 0..self.replicas.len() {
            let addr: SocketAddr = self.spec.addrs[i]
                .parse()
                .map_err(|e| format!("address of p{i}: {e}"))?;
            loop {
                if TcpStream::connect_timeout(&addr, Duration::from_millis(100)).is_ok() {
                    break;
                }
                if let Ok(Some(status)) = self.replicas[i].child.try_wait() {
                    self.replicas[i].reaped = true;
                    return Err(format!(
                        "p{i} exited during start-up ({status})\n{}",
                        self.stderr_tails()
                    ));
                }
                if Instant::now() > deadline {
                    return Err(format!(
                        "p{i} is not listening on {addr} after {PROCESS_TIMEOUT:?}\n{}",
                        self.stderr_tails()
                    ));
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        Ok(())
    }

    /// The process id the client node plays (the spec's last entry).
    pub fn client_id(&self) -> ProcessId {
        ProcessId((self.spec.addrs.len() - 1) as u32)
    }

    /// Hosts the cluster's one client in this process: a
    /// `TcpNode<MulticastClient>` (its node-loop and poller threads) dialling
    /// the replicas. A lost port-reservation race on the client's own
    /// listener is retried briefly, as `wbamd` does.
    pub fn spawn_client(&self) -> Result<TcpNode<WhiteBoxMsg>, String> {
        let id = self.client_id();
        let addrs = self.spec.dial_map(id).map_err(|e| e.to_string())?;
        let begin = Instant::now();
        loop {
            let client = self.spec.whitebox_client(id).map_err(|e| e.to_string())?;
            match TcpNode::spawn_with_codec(Box::new(client), &addrs, false, WireCodec::Binary) {
                Ok(node) => return Ok(node),
                Err(WbamError::Io(_)) if begin.elapsed() < Duration::from_secs(3) => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(format!("spawning the client node: {e}")),
            }
        }
    }

    /// OS pids of the live replicas, in process-id order.
    pub fn pids(&self) -> Vec<u32> {
        self.replicas
            .iter()
            .filter(|r| !r.killed)
            .map(|r| r.child.id())
            .collect()
    }

    /// Process ids of `group`'s initial leader and of one of its followers,
    /// as the cluster configuration every process was started with has them.
    /// No measured workload changes leaders (nothing is killed and the
    /// election timeout is out of a hiccup's reach).
    pub fn leader_and_follower(&self, group: u32) -> (u32, u32) {
        let cluster = self.spec.cluster_config();
        let leader = cluster.initial_leaders()[&GroupId(group)].0;
        let follower = self
            .replicas
            .iter()
            .find(|r| r.group == group && r.id != leader)
            .expect("a group has three members")
            .id;
        (leader, follower)
    }

    /// SIGKILLs replica `id` and reaps it: a crash, as the fault probe
    /// injects it.
    pub fn kill(&mut self, id: u32) {
        let replica = &mut self.replicas[id as usize];
        let _ = replica.child.kill();
        let _ = replica.child.wait();
        replica.killed = true;
        replica.reaped = true;
    }

    /// The last lines of every replica's stderr — what a stalled run prints
    /// instead of hanging to the time cap.
    pub fn stderr_tails(&self) -> String {
        let mut out = String::new();
        for replica in &self.replicas {
            let text = std::fs::read_to_string(self.stderr_path(replica.id)).unwrap_or_default();
            let lines: Vec<&str> = text.lines().collect();
            out.push_str(&format!("--- p{} stderr (last lines)\n", replica.id));
            for line in &lines[lines.len().saturating_sub(8)..] {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Waits until every live replica of group `g` has logged at least
    /// `expected[g]` deliveries. The client is acknowledged by the first
    /// replica that delivers, so right after its last reply the followers may
    /// still have `DELIVER`s to process; stopping them then would cut their
    /// logs short of their leader's. Gives up quietly after the process
    /// timeout — the log check then reports what is missing.
    pub fn await_logged(&self, expected: &[u64]) {
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let logged = |path: &Path| -> u64 {
            std::fs::read(path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count() as u64)
        };
        for replica in self.replicas.iter().filter(|r| !r.killed) {
            let want = expected.get(replica.group as usize).copied().unwrap_or(0);
            while logged(&self.log_path(replica.id)) < want && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// SIGTERMs every live replica, reaps all of them, reads their delivery
    /// logs and stop-time stats, and proves no `wbamd` of this deployment is
    /// still running. A replica that does not exit cleanly is an error.
    pub fn stop(mut self) -> Result<Stopped, String> {
        for replica in self.replicas.iter().filter(|r| !r.reaped) {
            netpoll::send_signal(replica.child.id(), netpoll::Signal::Term)
                .map_err(|e| format!("SIGTERM to p{}: {e}", replica.id))?;
        }
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let mut problems = Vec::new();
        for replica in self.replicas.iter_mut().filter(|r| !r.reaped) {
            loop {
                match replica.child.try_wait() {
                    Ok(Some(status)) => {
                        replica.reaped = true;
                        if !status.success() {
                            problems.push(format!("p{} exited with {status}", replica.id));
                        }
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    other => {
                        let _ = replica.child.kill();
                        let _ = replica.child.wait();
                        replica.reaped = true;
                        problems.push(format!(
                            "p{} ignored SIGTERM for {PROCESS_TIMEOUT:?} ({other:?}); killed",
                            replica.id
                        ));
                        break;
                    }
                }
            }
        }
        let strays = procfs::pids_with_cmdline(&self.dir.to_string_lossy());
        if !strays.is_empty() {
            problems.push(format!("stray processes after shutdown: {strays:?}"));
        }
        if !problems.is_empty() {
            return Err(format!("{}\n{}", problems.join("\n"), self.stderr_tails()));
        }

        let mut logs = Vec::new();
        let mut dropped_frames = 0;
        for replica in &self.replicas {
            logs.push(ReplicaLog {
                process: replica.id,
                group: replica.group,
                killed: replica.killed,
                entries: read_log(&self.log_path(replica.id), replica.killed)?,
            });
            let stderr = std::fs::read_to_string(self.stderr_path(replica.id)).unwrap_or_default();
            dropped_frames += last_dropped_frames(&stderr).unwrap_or(0);
        }
        Ok(Stopped {
            logs,
            dropped_frames,
        })
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for replica in self.replicas.iter_mut().filter(|r| !r.reaped) {
            let _ = replica.child.kill();
            let _ = replica.child.wait();
        }
    }
}

/// The `dropped_frames=N` figure of the last stats line in a replica's
/// stderr.
fn last_dropped_frames(stderr: &str) -> Option<u64> {
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.contains("dropped_frames="))?;
    let tail = line.split("dropped_frames=").nth(1)?;
    tail.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_frames_come_from_the_last_stats_line() {
        let stderr = "wbamd: listener bind failed (x); retrying\n\
            wbamd: p2 stats: delivered=10 dropped_frames=3 by_peer={p1: 3}\n\
            wbamd: p2 graceful stop (SIGTERM): delivered=40 dropped_frames=7 by_peer={p1: 7}\n";
        assert_eq!(last_dropped_frames(stderr), Some(7));
        assert_eq!(last_dropped_frames("nothing here\n"), None);
    }
}
