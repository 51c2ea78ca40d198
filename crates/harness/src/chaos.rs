//! The deployed engine of the schedule [explorer](mod@crate::explore): seeded
//! fault plans against a *live* `wbamd` cluster.
//!
//! One `n1` [`Token`] derives a complete experiment — a [`NemesisPlan`] of
//! link drops/duplicates/delays and a partition window, process-level
//! faults (SIGKILL with `--restart` redeploy, SIGSTOP/SIGCONT pauses) and a
//! key-value workload — which the engine then executes against six real
//! `wbamd` OS processes whose every TCP link runs through a
//! [`NemesisProxy`]. When the dust settles the engine stops the cluster
//! gracefully (SIGTERM — exercising the daemons' drain path), parses the
//! drained delivery logs, and hands them to the shared
//! [`check_run`](crate::explore::check_run) with this engine's policy:
//! crash victims are `faulty`, drop-bearing plans are `lossy`, and a
//! restarted incarnation gets a state-transfer watermark excusal at its
//! first logged timestamp.
//! Termination is the live loop's own check: every submitted operation
//! must complete at the client within the run deadline.
//!
//! # Replayability
//!
//! The *plan* is replayable byte for byte: the same token always derives the
//! same nemesis knobs, partition window, crash/pause schedule and workload
//! ([`NetChaosPlan::digest`] is equal), and the proxy's per-link fate
//! streams are the same function of the seed. What a live cluster *does*
//! under that plan — thread scheduling, packet timing, which retry wins — is
//! real-world nondeterminism; that is the point of running deployed. A
//! failing seed therefore reproduces the same attack, not necessarily the
//! same interleaving, which is the standard Jepsen trade-off.
//!
//! # Incarnations
//!
//! A SIGKILLed replica is redeployed with `--restart` and a *fresh* delivery
//! log (`pN-restarted.jsonl`). For the checkers the two incarnations are
//! separate observers (the restarted one gets a synthetic observer id
//! [`RESTART_OBSERVER_BASE`]` + N`): the original's log is an honest prefix
//! that simply stops, and the restarted one's log begins wherever checkpoint
//! state transfer put it — which is exactly what the watermark excusal
//! expresses.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use netpoll::{send_signal, Signal};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use wbam_kvstore::{KvCommand, Partitioner};
use wbam_runtime::TcpNode;
use wbam_simnet::DeliveryRecord;
use wbam_types::wire::from_json;
use wbam_types::{
    CrashSpec, GroupId, LinkFaults, MsgId, NemesisPlan, PartitionSpec, ProcessId, Timestamp,
    WbamError,
};

use crate::cluster::Protocol;
use crate::deploy::{ChildGuard, DeliveryLine, DeploySpec};
use crate::explore::{
    draw_kv_command, kv_message, ms, CheckPolicy, Digest, ExploreConfig, Observed, Report, Token,
};
use crate::family::WbCast;
use crate::proxy::NemesisProxy;

/// Groups in the chaos topology.
const NUM_GROUPS: usize = 2;
/// Replicas per group (`2f + 1` with `f = 1`).
const GROUP_SIZE: usize = 3;
/// Replica process count; the driver's in-process client is the next id.
const REPLICAS: u32 = (NUM_GROUPS * GROUP_SIZE) as u32;
/// End of the probabilistic-fault window; scheduled faults all land inside.
const CHAOS_END: Duration = Duration::from_secs(4);
/// Gap between successive workload submissions.
const SUBMIT_PACE: Duration = Duration::from_millis(40);
/// Wall-clock ceiling for one run; hitting it is a termination violation.
const RUN_DEADLINE: Duration = Duration::from_secs(60);
/// Ceiling on the post-workload wait for the delivery logs to quiesce.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);
/// Grace for a SIGTERMed `wbamd` to drain and exit 0.
const STOP_DEADLINE: Duration = Duration::from_secs(5);
/// Synthetic observer-id offset for restarted incarnations in the checkers.
pub const RESTART_OBSERVER_BASE: u32 = 1000;

/// Salt for the plan/workload RNG, keeping it independent of the proxy's
/// per-link streams (which hash the raw seed).
const NET_PLAN_SALT: u64 = 0x0DD5_EED5_0FCA_A051;

/// A scheduled SIGSTOP/SIGCONT pause of one replica process — the deployed
/// fault the simulator cannot express (a *frozen* process keeps its sockets
/// open, so peers see silence rather than resets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseSpec {
    /// When the process is stopped.
    pub at: Duration,
    /// The paused replica.
    pub process: ProcessId,
    /// When it is resumed.
    pub resume: Duration,
}

/// Everything one net-chaos run does, derived purely from a token: the wire
/// faults (executed by the proxy), the process faults, and the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct NetChaosPlan {
    /// Link faults, the partition window and the SIGKILL/redeploy schedule,
    /// in the same [`NemesisPlan`] type the simulator executes.
    pub nemesis: NemesisPlan,
    /// SIGSTOP/SIGCONT pauses (deployed-only; no simulator equivalent).
    pub pauses: Vec<PauseSpec>,
    /// The key-value commands the driver's client submits, paced 40 ms
    /// apart in index order.
    pub ops: Vec<KvCommand>,
}

impl NetChaosPlan {
    /// FNV-1a digest over every derived decision; equal digests mean the
    /// token derived byte-for-byte identical plans (the replayability
    /// contract — see the module docs for what live runs add on top).
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        let link = self.nemesis.link;
        d.u64(u64::from(link.drop_per_mille));
        d.u64(u64::from(link.duplicate_per_mille));
        d.u64(u64::from(link.reorder_per_mille));
        d.u64(link.reorder_extra.as_nanos() as u64);
        for p in &self.nemesis.partitions {
            d.u64(p.start.as_nanos() as u64);
            d.u64(p.heal.as_nanos() as u64);
            d.bytes(&[u8::from(p.symmetric)]);
            for proc in p.side_a.iter().chain(&p.side_b) {
                d.bytes(&proc.0.to_le_bytes());
            }
        }
        for c in &self.nemesis.crashes {
            d.u64(c.at.as_nanos() as u64);
            d.bytes(&c.process.0.to_le_bytes());
            d.u64(c.restart_at.map(|r| r.as_nanos() as u64 + 1).unwrap_or(0));
        }
        for p in &self.pauses {
            d.u64(p.at.as_nanos() as u64);
            d.bytes(&p.process.0.to_le_bytes());
            d.u64(p.resume.as_nanos() as u64);
        }
        for op in &self.ops {
            d.bytes(&serde_json::to_vec(op).expect("commands encode"));
        }
        d.0
    }
}

/// Derives the complete chaos plan of a token. Pure: the same token (and
/// `messages` override) always produces the same plan. Every plan carries
/// the acceptance trifecta — link drops, one partition with heal, one
/// SIGKILL with `--restart` redeploy — plus optional duplicates, delays and
/// a SIGSTOP pause.
pub fn generate_net_plan(token: &Token, messages: Option<usize>) -> NetChaosPlan {
    let mut rng = StdRng::seed_from_u64(token.seed ^ NET_PLAN_SALT);
    let mut nemesis = NemesisPlan {
        chaos_end: Some(CHAOS_END),
        ..NemesisPlan::quiet()
    };
    nemesis.link = LinkFaults {
        drop_per_mille: rng.gen_range(10..=80u16),
        duplicate_per_mille: if rng.gen_bool(0.6) {
            rng.gen_range(10..=60u16)
        } else {
            0
        },
        ..LinkFaults::default()
    };
    if rng.gen_bool(0.6) {
        nemesis.link.reorder_per_mille = rng.gen_range(20..=120u16);
        nemesis.link.reorder_extra = ms(rng.gen_range(5..=40));
    }

    // One partition isolating one replica from everyone (client included),
    // healed well inside the chaos window.
    let isolated = ProcessId(rng.gen_range(0..REPLICAS));
    let start = ms(rng.gen_range(500..=1200));
    let heal = start + ms(rng.gen_range(400..=1000));
    let side_b: Vec<ProcessId> = (0..=REPLICAS)
        .map(ProcessId)
        .filter(|p| *p != isolated)
        .collect();
    nemesis.partitions.push(PartitionSpec {
        start,
        heal,
        side_a: vec![isolated],
        side_b,
        symmetric: rng.gen_bool(0.7),
    });

    // One SIGKILL, always redeployed with --restart: permanent crashes bound
    // what the oracle can assert, and the restart path (state transfer into
    // a live chaotic cluster) is the interesting one.
    let victim = ProcessId(rng.gen_range(0..REPLICAS));
    let at = ms(rng.gen_range(700..=1800));
    nemesis.crashes.push(CrashSpec {
        at,
        process: victim,
        restart_at: Some(at + ms(rng.gen_range(600..=1500))),
    });

    // Sometimes freeze a replica with SIGSTOP/SIGCONT. The pause is kept
    // under the election timeout often enough to exercise both "nobody
    // noticed" and "group re-elected around a zombie that then wakes up".
    let mut pauses = Vec::new();
    if rng.gen_bool(0.5) {
        let frozen = ProcessId(rng.gen_range(0..REPLICAS));
        let at = ms(rng.gen_range(400..=2500));
        pauses.push(PauseSpec {
            at,
            process: frozen,
            resume: at + ms(rng.gen_range(300..=800)),
        });
    }

    // Workload: same command mix and key space as the simulator explorer.
    let count = {
        let derived = rng.gen_range(24..=40usize);
        messages.unwrap_or(derived) // the draw happens either way: the op
                                    // stream must not shift with the override
    };
    let ops = (0..count).map(|_| draw_kv_command(&mut rng)).collect();

    NetChaosPlan {
        nemesis,
        pauses,
        ops,
    }
}

/// Process-fault timeline entries, executed by the driver loop.
#[derive(Debug, Clone, Copy)]
enum NetEvent {
    Kill(u32),
    Restart(u32),
    /// SIGSTOP or SIGCONT.
    Signal(u32, Signal),
}

fn build_events(plan: &NetChaosPlan) -> Vec<(Duration, NetEvent)> {
    let mut events = Vec::new();
    for c in &plan.nemesis.crashes {
        events.push((c.at, NetEvent::Kill(c.process.0)));
        if let Some(at) = c.restart_at {
            events.push((at, NetEvent::Restart(c.process.0)));
        }
    }
    for p in &plan.pauses {
        events.push((p.at, NetEvent::Signal(p.process.0, Signal::Stop)));
        events.push((p.resume, NetEvent::Signal(p.process.0, Signal::Cont)));
    }
    events.sort_by_key(|(at, _)| *at);
    events
}

fn resolve_wbamd(config: &ExploreConfig) -> Result<PathBuf, WbamError> {
    if let Some(p) = &config.wbamd {
        return Ok(p.clone());
    }
    if let Ok(p) = std::env::var("WBAMD_BIN") {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe().map_err(WbamError::from)?;
    for dir in exe.ancestors().skip(1).take(3) {
        let candidate = dir.join("wbamd");
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(WbamError::NotReady {
        process: ProcessId(0),
        reason: "cannot locate the wbamd binary; build it with `cargo build --release \
                 -p wbam-harness --bin wbamd` or point WBAMD_BIN at it"
            .to_string(),
    })
}

fn log_name(id: u32, restarted: bool) -> String {
    if restarted {
        format!("p{id}-restarted.jsonl")
    } else {
        format!("p{id}.jsonl")
    }
}

fn spawn_replica(
    wbamd: &Path,
    spec_path: &Path,
    log_dir: &Path,
    id: u32,
    restarted: bool,
) -> Result<ChildGuard, WbamError> {
    let child = std::process::Command::new(wbamd)
        .arg("--spec")
        .arg(spec_path)
        .arg("--id")
        .arg(id.to_string())
        .arg("--deliveries")
        .arg(log_dir.join(log_name(id, restarted)))
        .args(restarted.then_some("--restart"))
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .spawn()
        .map_err(WbamError::from)?;
    Ok(ChildGuard(child))
}

/// Parses one delivery log. A SIGKILL can tear the final line mid-write, so
/// killed incarnations pass `tolerate_torn_tail`; anywhere else a malformed
/// line is a real bug in the daemon's log discipline.
fn parse_log(path: &Path, tolerate_torn_tail: bool) -> Result<Vec<DeliveryLine>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("log: {}: {e}", path.display())),
    };
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match from_json::<DeliveryLine>(line) {
            Ok(parsed) => out.push(parsed),
            Err(e) if tolerate_torn_tail && i + 1 == lines.len() => {
                let _ = e; // torn tail of a killed process: at most one line
            }
            Err(e) => return Err(format!("log: {} line {}: {e}", path.display(), i + 1)),
        }
    }
    Ok(out)
}

/// Runs a deployed chaos plan against a live cluster and checks it. See the module docs for the pipeline; a cluster that cannot
/// be brought up at all is reported as a `run:` violation, so a sweep keeps
/// going and reports every failing seed.
pub(crate) fn run_net(token: &Token, plan: &NetChaosPlan, config: &ExploreConfig) -> Report {
    let mut report = Report::new(token, plan.ops.len());
    report.digest = plan.digest();
    // A temporary directory per *run*, not per seed: `wbamd` appends to its
    // delivery log, so two runs of the same seed in one process sharing a
    // directory would interleave their logs — a sweep once mis-reported
    // exactly that as a duplicate delivery.
    static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seed = token.seed;
    let ephemeral = config.log_dir.is_none();
    let log_dir = match &config.log_dir {
        Some(dir) => dir.join(format!("{seed:016x}")),
        None => std::env::temp_dir().join(format!(
            "wbam-net-chaos-{}-{seed:016x}-r{}",
            std::process::id(),
            RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        )),
    };
    if ephemeral {
        // A kept directory from a crashed earlier process could collide
        // after pid reuse; never append into stale logs.
        let _ = std::fs::remove_dir_all(&log_dir);
    }
    if let Err(e) = run_live(plan, config, &log_dir, &mut report) {
        report.violation = Some(format!("run: {e}"));
    }
    if report.violation.is_none() && ephemeral {
        let _ = std::fs::remove_dir_all(&log_dir);
    }
    report.log_dir = Some(log_dir);
    report
}

/// Brings the cluster up, drives workload and process faults, stops it and
/// checks the drained logs. Protocol misbehaviour lands in
/// `report.violation`; `Err` means the cluster could not be run at all.
fn run_live(
    plan: &NetChaosPlan,
    config: &ExploreConfig,
    log_dir: &Path,
    report: &mut Report,
) -> Result<(), WbamError> {
    std::fs::create_dir_all(log_dir).map_err(WbamError::from)?;

    // --- Bring the cluster up, every link proxied -----------------------
    let mut spec = DeploySpec::loopback_free_ports(Protocol::WhiteBox, NUM_GROUPS, GROUP_SIZE, 1)?;
    spec.heartbeat_ms = 100;
    spec.election_timeout_ms = 1500;
    let epoch = Instant::now();
    let proxy = NemesisProxy::start(&spec, &plan.nemesis, report.token.seed, epoch)?;
    let routed = proxy.routed_spec().clone();
    let spec_path = log_dir.join("cluster.json");
    std::fs::write(&spec_path, routed.to_json()?).map_err(WbamError::from)?;

    let wbamd = resolve_wbamd(config)?;
    let mut children: BTreeMap<u32, ChildGuard> = BTreeMap::new();
    for id in 0..REPLICAS {
        children.insert(id, spawn_replica(&wbamd, &spec_path, log_dir, id, false)?);
    }
    let client_id = ProcessId(REPLICAS);
    let node = spec.node(&WbCast, client_id)?;
    let client = TcpNode::spawn(node, &routed.dial_map(client_id)?, false)?;

    // --- Drive workload + process faults on one timeline ----------------
    let partitioner = Partitioner::new(NUM_GROUPS as u32);
    let events = build_events(plan);
    let mut next_event = 0usize;
    let mut restarted: BTreeSet<u32> = BTreeSet::new();
    let mut invoked: Vec<(MsgId, KvCommand, Duration)> = Vec::new();
    let mut completions: Vec<DeliveryRecord> = Vec::new();
    let mut seen = 0u64;
    loop {
        let now = epoch.elapsed();
        while next_event < events.len() && events[next_event].0 <= now {
            match events[next_event].1 {
                NetEvent::Kill(id) => {
                    // ChildGuard::drop is kill(SIGKILL) + reap.
                    children.remove(&id);
                }
                NetEvent::Restart(id) => {
                    children.insert(id, spawn_replica(&wbamd, &spec_path, log_dir, id, true)?);
                    restarted.insert(id);
                }
                NetEvent::Signal(id, signal) => {
                    if let Some(child) = children.get(&id) {
                        let _ = send_signal(child.0.id(), signal);
                    }
                }
            }
            next_event += 1;
        }
        // Supervise: scheduled kills remove their child from the map first,
        // so any child observed exited here died *outside* the fault plan —
        // a real bug (a startup failure, a crash), reported as such instead
        // of surfacing later as a confusing graceful-stop failure.
        let died = children
            .iter_mut()
            .find_map(|(id, child)| Some((*id, child.0.try_wait().ok()??)));
        if let Some((id, status)) = died {
            children.remove(&id);
            report.violation = Some(format!("run: p{id} exited unexpectedly ({status}) mid-run"));
            break;
        }
        while invoked.len() < plan.ops.len() && now >= SUBMIT_PACE * invoked.len() as u32 {
            let cmd = &plan.ops[invoked.len()];
            let id = MsgId::new(client_id, invoked.len() as u64);
            client.submit(kv_message(&partitioner, id, cmd))?;
            invoked.push((id, cmd.clone(), now));
        }
        client.wait_for_total(seen + 1, Duration::from_millis(25))?;
        let at = epoch.elapsed();
        for d in client.drain_deliveries()? {
            seen += 1;
            if !completions.iter().any(|c| c.msg_id == d.delivery.msg.id) {
                completions.push(DeliveryRecord {
                    time: at,
                    process: client_id,
                    group: None,
                    msg_id: d.delivery.msg.id,
                    global_ts: d.delivery.global_ts,
                });
            }
        }
        if invoked.len() == plan.ops.len()
            && completions.len() == plan.ops.len()
            && next_event == events.len()
        {
            break;
        }
        if epoch.elapsed() > RUN_DEADLINE {
            report.violation = Some(format!(
                "termination: {} of {} operations never completed within {RUN_DEADLINE:?}",
                plan.ops.len() - completions.len(),
                plan.ops.len()
            ));
            break;
        }
    }
    report.completed = completions.len();

    // --- Let the replica logs quiesce, then stop the cluster gracefully --
    //
    // There is no exact line count to wait for: the protocol assumes
    // quasi-reliable channels, so under deliberate frame loss a follower
    // that misses a CHOSEN stays behind until a leader change or restart
    // state transfer repairs it — a gap, not a bug, and exactly what the
    // oracle's loss excusals are for. Client completions already proved
    // protocol-level termination; this wait just lets in-flight deliveries
    // land before the SIGTERM drain.
    if report.violation.is_none() {
        let drain_start = Instant::now();
        let mut last: Vec<usize> = Vec::new();
        let mut stable_since = Instant::now();
        while drain_start.elapsed() < DRAIN_DEADLINE {
            let counts: Vec<usize> = (0..REPLICAS)
                .flat_map(|id| [log_name(id, false), log_name(id, true)])
                .map(|name| parse_log(&log_dir.join(name), true).map_or(0, |l| l.len()))
                .collect();
            if counts != last {
                last = counts;
                stable_since = Instant::now();
            } else if stable_since.elapsed() > Duration::from_millis(750) {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    // SIGTERM every live replica and require a clean drain + exit 0: the
    // graceful-stop path is part of every chaos run's contract.
    for child in children.values() {
        let _ = send_signal(child.0.id(), Signal::Term);
    }
    let mut stop_violation: Option<String> = None;
    for (id, child) in children.iter_mut() {
        let begin = Instant::now();
        let failure = loop {
            match child.0.try_wait() {
                Ok(Some(status)) if status.success() => break None,
                Ok(Some(status)) => break Some(format!("exited {status} on SIGTERM")),
                Ok(None) if begin.elapsed() < STOP_DEADLINE => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Ok(None) => break Some(format!("still running {STOP_DEADLINE:?} after SIGTERM")),
                Err(e) => break Some(e.to_string()),
            }
        };
        if let Some(failure) = failure {
            stop_violation.get_or_insert(format!("graceful-stop: p{id} {failure}"));
        }
    }
    children.clear(); // reaps anything the graceful stop left behind
    let stats = proxy.stats();
    (report.dropped, report.duplicated) = (stats.dropped, stats.duplicated);
    report.proxy = Some(stats);
    client.shutdown();
    proxy.shutdown();
    if report.violation.is_none() {
        report.violation = stop_violation;
    }

    // --- Drained-log checks ---------------------------------------------
    if report.violation.is_none() {
        let (records, transfer_excusals) = match drained_logs(plan, log_dir, &restarted) {
            Ok(drained) => drained,
            Err(e) => {
                report.violation = Some(e);
                return Ok(());
            }
        };
        report.deliveries = records.len();
        let policy = CheckPolicy {
            transfer_excusals,
            require_termination: true,
            ..CheckPolicy::for_plan(&plan.nemesis)
        };
        let observed = Observed {
            cluster: spec.cluster_config(),
            ops: invoked,
            deliveries: records.into_iter().chain(completions).collect(),
            trace: None,
            // A deployed replica's state is out of reach.
            lost_deliveries: BTreeMap::new(),
        };
        report.check(&observed, &policy);
    }
    Ok(())
}

/// Parses every incarnation's delivery log into delivery records: every
/// original incarnation, plus a synthetic observer per restarted one. A
/// restarted incarnation's history begins wherever checkpoint state transfer
/// put it, so it also gets a watermark excusal at its first logged
/// timestamp.
fn drained_logs(
    plan: &NetChaosPlan,
    log_dir: &Path,
    restarted: &BTreeSet<u32>,
) -> Result<(Vec<DeliveryRecord>, BTreeMap<ProcessId, Timestamp>), String> {
    let killed: BTreeSet<ProcessId> = plan.nemesis.faulty_processes().into_iter().collect();
    let (mut records, mut excusals) = (Vec::new(), BTreeMap::new());
    for id in 0..REPLICAS {
        for restart in [false, true] {
            if restart && !restarted.contains(&id) {
                continue;
            }
            let observer = ProcessId(id + if restart { RESTART_OBSERVER_BASE } else { 0 });
            // A SIGKILL may tear the original incarnation's tail.
            let torn_ok = !restart && killed.contains(&observer);
            for line in parse_log(&log_dir.join(log_name(id, restart)), torn_ok)? {
                let global_ts = (line.gts_group != u32::MAX)
                    .then(|| Timestamp::new(line.gts_time, GroupId(line.gts_group)));
                if let (true, Some(gts)) = (restart, global_ts) {
                    excusals.entry(observer).or_insert(gts);
                }
                records.push(DeliveryRecord {
                    time: Duration::try_from_secs_f64(line.elapsed_ms / 1e3).unwrap_or_default(),
                    process: observer,
                    group: Some(GroupId(id / GROUP_SIZE as u32)),
                    msg_id: line.msg_id(),
                    global_ts,
                });
            }
        }
    }
    Ok((records, excusals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{schedule_token, Engine, TokenVersion};

    #[test]
    fn net_tokens_round_trip_and_reject_foreign_formats() {
        // Simulator and runtime tokens and baseline protocols are refused
        // outright.
        crate::explore::tests::check_token_grammar(
            Engine::Net,
            &[(
                TokenVersion::N1,
                Protocol::WhiteBox,
                "WBAM_NET_SEED=n1:WbCast:",
            )],
            &[
                "v2:WbCast:1",
                "rt1:WbCast:1",
                "n1:FastCast:1",
                "n1:Skeen:1",
                "n1:WbCast:zz",
                "WBAM_SEED=n1:WbCast:1",
            ],
        );
    }

    /// The replayability contract: the same token always derives the same
    /// plan (digest-equal), the message override changes only the op count,
    /// and different seeds diverge.
    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let token = schedule_token(Engine::Net, 42, 3);
        let a = generate_net_plan(&token, None);
        let b = generate_net_plan(&token, None);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let small = generate_net_plan(&token, Some(5));
        assert_eq!(small.ops.len(), 5);
        assert_eq!(small.nemesis, a.nemesis, "override must not shift faults");
        assert_eq!(
            small.ops[..],
            a.ops[..5],
            "override must not shift the op stream"
        );
        let other = generate_net_plan(&schedule_token(Engine::Net, 42, 4), None);
        assert_ne!(a.digest(), other.digest());
    }

    /// Every derived plan carries the acceptance trifecta: link drops, one
    /// healed partition inside the chaos window, one SIGKILL with restart.
    #[test]
    fn every_plan_has_drops_partition_heal_and_restarting_crash() {
        for index in 0..32 {
            let plan = generate_net_plan(&schedule_token(Engine::Net, 7, index), None);
            assert!(plan.nemesis.link.drop_per_mille > 0);
            assert!(plan.nemesis.lossy());
            assert_eq!(plan.nemesis.partitions.len(), 1);
            let p = &plan.nemesis.partitions[0];
            assert!(p.start < p.heal && p.heal <= CHAOS_END);
            assert_eq!(p.side_a.len(), 1);
            assert!(p.side_a[0].0 < REPLICAS, "only replicas are isolated");
            assert_eq!(plan.nemesis.crashes.len(), 1);
            let c = &plan.nemesis.crashes[0];
            assert!(c.restart_at.is_some(), "chaos crashes always redeploy");
            assert!(c.restart_at.unwrap() <= CHAOS_END);
            for pause in &plan.pauses {
                assert!(pause.at < pause.resume);
                assert!(pause.process.0 < REPLICAS);
            }
            assert!(!plan.ops.is_empty());
        }
    }

    /// The fault timeline is sorted and pairs every kill with its restart.
    #[test]
    fn event_timelines_are_ordered() {
        let plan = generate_net_plan(&schedule_token(Engine::Net, 11, 0), None);
        let events = build_events(&plan);
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        let kills = events
            .iter()
            .filter(|(_, e)| matches!(e, NetEvent::Kill(_)))
            .count();
        let restarts = events
            .iter()
            .filter(|(_, e)| matches!(e, NetEvent::Restart(_)))
            .count();
        assert_eq!(kills, restarts);
    }

    /// Torn-tail tolerance applies to exactly the final line of a killed
    /// incarnation's log.
    #[test]
    fn parse_log_tolerates_only_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("wbam-chaos-parse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let line = serde_json::to_string(&DeliveryLine {
            process: 0,
            sender: 6,
            seq: 0,
            gts_time: 3,
            gts_group: 1,
            elapsed_ms: 1.0,
        })
        .unwrap();
        std::fs::write(&path, format!("{line}\n{{\"process\":0,\"sen")).unwrap();
        assert_eq!(parse_log(&path, true).unwrap().len(), 1);
        assert!(parse_log(&path, false).is_err());
        // A torn line in the *middle* is never excusable.
        std::fs::write(&path, format!("{{\"process\":0,\"sen\n{line}")).unwrap();
        assert!(parse_log(&path, true).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
