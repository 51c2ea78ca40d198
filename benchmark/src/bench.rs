//! One benchmark run: the untraced pass that produces the end-to-end
//! metrics, and the traced pass that produces the per-layer ones.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use wbam_baselines::common::Mode;
use wbam_types::wire::WireCodec;
use wbam_types::{AppMessage, ClusterConfig, ProcessId};

use crate::check::check;
use crate::cluster::{Deployment, Timers, GROUP_SIZE};
use crate::layers::{self, Replay, Role, Timings};
use crate::load::{Client, MulticastSpan, Window};
use crate::procfs::{self, ProcSample};
use crate::reference::Reference;
use crate::report::{Metrics, TraceRow};
use crate::stats::{
    coefficient_of_variation, mean, median, percentile_sorted, slice_median, Slice,
};
use crate::workload::{by_name, Generator, Workload};
use crate::{echo, stats};

/// Length of one slice of a measured window.
const SLICE: Duration = Duration::from_secs(1);

/// How often the traced pass switches between its untraced and traced window.
const ALTERNATIONS: usize = 2;

/// Deployments per untraced run: `setup_s` is to be the median of several
/// set-ups, and a deployment that has been set up might as well be measured,
/// so each one contributes a third of the slices. (The slice medians of
/// successive deployments agree to about 2 % when the host is quiet; splitting
/// the window neither steadies nor unsettles the other metrics.)
const ROUNDS: usize = 3;

/// Where things are and how the run was asked for.
#[derive(Debug, Clone)]
pub struct Config {
    /// The `wbamd` binary under test.
    pub wbamd: PathBuf,
    /// `benchmark/out`: run directories, `results.jsonl`, `trace.jsonl`.
    pub out: PathBuf,
    /// Seconds the two builds took, as `run.sh` timed them.
    pub build_s: f64,
}

/// What a run hands back to `main`.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The metrics of the pass that ran.
    pub metrics: Metrics,
    /// Multicasts submitted, warm-ups and probes included.
    pub attempted: u64,
    /// Multicasts acknowledged twice or not within ten seconds.
    pub failed: u64,
    /// Everything the correctness checks objected to; empty means correct.
    pub violations: Vec<String>,
    /// Spans of the traced pass.
    pub trace: Vec<TraceRow>,
    /// Untraced pass only: the end-to-end metrics with no host-speed
    /// correction, and the median slowdown the correction used. For the
    /// reader; nothing is gated on them.
    pub as_measured: Metrics,
}

impl Outcome {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Appends what a later part of the same pass produced; its spans get
    /// ids (and parent references) after the ones already here.
    pub fn absorb(&mut self, later: Outcome) {
        let offset = self.trace.iter().map(|r| r.id).max().unwrap_or(0);
        self.metrics.0.extend(later.metrics.0);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.violations.extend(later.violations);
        self.trace.extend(later.trace.into_iter().map(|mut r| {
            r.id += offset;
            r.parent = r.parent.map(|p| p + offset);
            r
        }));
    }
}

/// What one deployment's life produced besides the body's own result.
struct Session {
    /// Spawn of the first `wbamd` → last warm-up reply.
    setup: Duration,
    /// Spawn of the first `wbamd` → last listener up.
    cluster_start: Duration,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    /// Acknowledged multicasts missing from a destination group's log.
    lost_acked: usize,
    dropped_frames: u64,
}

fn run_dir(cfg: &Config) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    cfg.out.join("runs").join(format!(
        "{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Deploys `workload`'s cluster, hosts its client, runs the fixed-count
/// warm-up, hands both to `body`, then drains, stops everything and checks
/// the delivery logs against what the client saw acknowledged.
fn session<T>(
    cfg: &Config,
    workload: &Workload,
    seed: u64,
    timers: Timers,
    warmup: u64,
    body: impl FnOnce(&mut Client, &mut Deployment) -> Result<T, String>,
) -> Result<(T, Session), String> {
    let dir = run_dir(cfg);
    let mut deployment = Deployment::start(&cfg.wbamd, &dir, workload.groups, timers)?;
    let generator = Generator::new(workload, deployment.client_id(), seed, 0);
    let mut client = Client::new(deployment.spawn_client()?, generator);
    let with_tails = |e: String, d: &Deployment| format!("{e}\n{}", d.stderr_tails());
    client
        .run_count(workload.window, warmup)
        .map_err(|e| with_tails(e, &deployment))?;
    let setup = deployment.spawned_at.elapsed();
    let cluster_start = deployment.listening_at - deployment.spawned_at;
    let result = body(&mut client, &mut deployment).map_err(|e| with_tails(e, &deployment))?;
    client.drain().map_err(|e| with_tails(e, &deployment))?;
    let (attempted, failed) = (client.submitted, client.failed);
    let acked = std::mem::take(&mut client.acked);
    let mut per_group = vec![0u64; workload.groups];
    for g in acked.iter().flat_map(|(_, dest)| dest) {
        per_group[*g as usize] += 1;
    }
    deployment.await_logged(&per_group);
    let mut dropped_frames = client.shutdown();
    let stopped = deployment.stop()?;
    dropped_frames += stopped.dropped_frames;
    let verdict = check(&stopped.logs, &acked);
    let mut violations = verdict.violations;
    if dropped_frames > 0 {
        violations.push(format!("transports dropped {dropped_frames} frames"));
    }
    if violations.is_empty() {
        // A passed deployment's logs are of no further use; a failed one's
        // are kept for inspection.
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        violations.push(format!("logs kept in {}", dir.display()));
    }
    Ok((
        result,
        Session {
            setup,
            cluster_start,
            attempted,
            failed,
            violations,
            lost_acked: verdict.lost_acked,
            dropped_frames,
        },
    ))
}

fn fold(outcome: &mut Outcome, s: &Session) {
    outcome.attempted += s.attempted;
    outcome.failed += s.failed;
    outcome.violations.extend(s.violations.iter().cloned());
}

/// The four end-to-end metrics of a run's measured slices: throughput and CPU
/// per multicast are medians over the one-second slices, latency the median
/// over every multicast acknowledged in a slice, each at the nominal host
/// speed (see `reference.rs`).
fn end_to_end(window: &Window, setup_s: f64) -> Result<Metrics, String> {
    let empty = || "the measured window acknowledged nothing".to_string();
    let mut m = Metrics::default();
    m.push(
        "throughput_msg_s",
        slice_median(&window.slices, Slice::throughput).ok_or_else(empty)?,
        "1/s",
    );
    m.push(
        "latency_p50_us",
        percentile_sorted(&window.sorted_latencies_ns(), 0.5).ok_or_else(empty)? as f64 / 1e3,
        "us",
    );
    m.push(
        "cpu_us_per_msg",
        slice_median(&window.slices, Slice::cpu_us_per_msg).ok_or_else(empty)?,
        "us",
    );
    m.push("setup_s", setup_s, "s");
    Ok(m)
}

/// The untraced pass, where the end-to-end metrics come from: `ROUNDS`
/// deployments one after the other, each set up (spawn → listeners up →
/// warm-up drained), measured for its share of `seconds` one-second slices
/// and checked. The slices and latency samples of all of them are pooled, and
/// `setup_s` is the median of their set-ups, each divided by the host's
/// slowdown just before and just after it.
pub fn run_untraced(
    cfg: &Config,
    workload: &Workload,
    seed: u64,
    seconds: usize,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut reference =
        Reference::start().map_err(|e| format!("starting the host-speed reference: {e}"))?;
    let mut window = Window::default();
    let (mut setups, mut setups_as_measured) = (Vec::new(), Vec::new());
    let rounds = ROUNDS.min(seconds);
    for round in 0..rounds {
        // Earlier rounds take the larger shares when `seconds` does not divide.
        let slices = (seconds + rounds - 1 - round) / rounds;
        let before = reference.slowdown()?;
        let ((w, after), s) = session(
            cfg,
            workload,
            seed.wrapping_add(round as u64),
            Timers::STEADY,
            workload.warmup,
            |client, deployment| {
                let after = reference.slowdown()?;
                let pids = deployment.pids();
                let w = client.run_window(
                    workload.window,
                    slices,
                    SLICE,
                    &pids,
                    false,
                    Some(&mut reference),
                )?;
                Ok((w, after))
            },
        )?;
        fold(&mut outcome, &s);
        setups.push(s.setup.as_secs_f64() / ((before + after) / 2.0));
        setups_as_measured.push(s.setup.as_secs_f64());
        window.merge(w);
    }
    let median_of = |values: &[f64]| median(values).expect("at least one round");
    outcome.metrics = end_to_end(&window, median_of(&setups))?;
    outcome.as_measured = end_to_end(&window.as_measured(), median_of(&setups_as_measured))?;
    let slowdowns: Vec<f64> = window.slices.iter().map(|s| s.slowdown).collect();
    outcome
        .as_measured
        .push("host.slowdown", median_of(&slowdowns), "ratio");
    Ok(outcome)
}

/// `proc.*` metrics of a traced window: `before`/`after` hold the leader,
/// a follower and (last) this process.
fn proc_metrics(m: &mut Metrics, window: &Window, leader: usize, follower: usize) {
    let acked = window.acked().max(1) as f64;
    let client = window.proc_before.len() - 1;
    let per_msg = |i: usize, f: fn(&ProcSample) -> f64| -> f64 {
        (f(&window.proc_after[i]) - f(&window.proc_before[i])) / acked
    };
    let user: fn(&ProcSample) -> f64 = |s| s.cpu.user.as_secs_f64() * 1e6;
    let sys: fn(&ProcSample) -> f64 = |s| s.cpu.sys.as_secs_f64() * 1e6;
    for (name, value, unit) in [
        ("proc.leader.user_us_per_msg", per_msg(leader, user), "us"),
        ("proc.leader.sys_us_per_msg", per_msg(leader, sys), "us"),
        (
            "proc.follower.user_us_per_msg",
            per_msg(follower, user),
            "us",
        ),
        ("proc.follower.sys_us_per_msg", per_msg(follower, sys), "us"),
        (
            "proc.client.cpu_us_per_msg",
            per_msg(client, user) + per_msg(client, sys),
            "us",
        ),
        (
            "proc.leader.syscr_per_msg",
            per_msg(leader, |s| s.syscr as f64),
            "count",
        ),
        (
            "proc.leader.syscw_per_msg",
            per_msg(leader, |s| s.syscw as f64),
            "count",
        ),
        (
            "proc.leader.vol_ctxsw_per_msg",
            per_msg(leader, |s| s.vol_ctxsw as f64),
            "count",
        ),
        (
            "proc.leader.invol_ctxsw_per_msg",
            per_msg(leader, |s| s.invol_ctxsw as f64),
            "count",
        ),
        (
            "proc.leader.rss_kb",
            window.proc_after[leader].rss_kb as f64,
            "kB",
        ),
        (
            "proc.follower.rss_kb",
            window.proc_after[follower].rss_kb as f64,
            "kB",
        ),
    ] {
        m.push(name, value, unit);
    }
}

fn p50_us(spans: &[MulticastSpan], cross_group: bool) -> Option<f64> {
    let mut ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.cross_group == cross_group)
        .map(|s| s.latency().as_nanos() as u64)
        .collect();
    ns.sort_unstable();
    percentile_sorted(&ns, 0.5).map(|v| v as f64 / 1e3)
}

/// `client.*` metrics of a traced window.
fn client_metrics(m: &mut Metrics, window: &Window) {
    let sorted = window.sorted_latencies_ns();
    let as_f64: Vec<f64> = sorted.iter().map(|&v| v as f64).collect();
    m.push_opt(
        "client.latency_p99_us",
        percentile_sorted(&sorted, 0.99).map(|v| v as f64 / 1e3),
        "us",
    );
    m.push_opt(
        "client.latency_mean_us",
        mean(&as_f64).map(|v| v / 1e3),
        "us",
    );
    m.push("client.samples", sorted.len() as f64, "count");
    m.push_opt(
        "client.latency_p50_us.single_group",
        p50_us(&window.spans, false),
        "us",
    );
    m.push_opt(
        "client.latency_p50_us.cross_group",
        p50_us(&window.spans, true),
        "us",
    );
    let rates: Vec<f64> = window.slices.iter().filter_map(Slice::throughput).collect();
    m.push_opt("client.slice_cv", coefficient_of_variation(&rates), "ratio");
}

/// The deployed half of the traced pass: untraced and traced windows on one
/// deployment, alternating so that drift over the deployment's life (the
/// replicas' record maps grow) lands on both alike.
struct Deployed {
    untraced: Window,
    traced: Window,
}

/// Length of the fault probe and when, into it, g0's leader is killed.
const PROBE: Duration = Duration::from_secs(10);
const PROBE_KILL_AT: Duration = Duration::from_secs(4);

/// The fault probe: open loop to `{g0}`, g0's leader SIGKILLed part-way.
/// Timer-set (election and retry timeouts decide the outcome), so reported
/// and correctness-checked but not gated.
fn failover_probe(
    cfg: &Config,
    seed: u64,
    m: &mut Metrics,
    outcome: &mut Outcome,
) -> Result<(), String> {
    const RATE: u32 = 500;
    let workload = by_name("idle_1g").expect("idle_1g exists");
    let ((spans, schedule), s) = session(
        cfg,
        &workload,
        seed ^ 0xFA11,
        Timers::FAILOVER,
        500,
        |client, deployment| {
            let (leader, _) = deployment.leader_and_follower(0);
            let mut killed = false;
            let result = client.run_open_loop(RATE, PROBE, PROBE_KILL_AT, || {
                deployment.kill(leader);
                killed = true;
            })?;
            if !killed {
                return Err("the fault probe ended before its fault".to_string());
            }
            Ok(result)
        },
    )?;
    let mut ends: Vec<Duration> = spans.iter().map(|s| s.end).collect();
    ends.sort_unstable();
    let longest_gap = ends
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .unwrap_or(Duration::ZERO);
    let retried = spans
        .iter()
        .filter(|s| s.latency() >= Duration::from_millis(Timers::FAILOVER.retry_timeout_ms))
        .count();
    m.push(
        "failover.unavailable_ms",
        longest_gap.as_secs_f64() * 1e3,
        "ms",
    );
    m.push("failover.lost_acked", s.lost_acked as f64, "count");
    m.push(
        "failover.retried_share",
        retried as f64 / spans.len().max(1) as f64,
        "ratio",
    );
    m.push_opt(
        "failover.gen_late_p99_us",
        schedule.late_p99().map(|d| d.as_secs_f64() * 1e6),
        "us",
    );
    fold(outcome, &s);
    Ok(())
}

/// A recorded white-box trace and its (median-of-passes) replay.
struct Replayed {
    submits: Vec<AppMessage>,
    replay: Replay,
    /// `DeterministicRuntime` wall nanoseconds per envelope it consumed.
    det_ns_per_envelope: f64,
}

/// The cluster a workload's trace is recorded on, its client, and the first
/// `n` messages of the workload's generator.
fn generate(
    workload: &Workload,
    n: usize,
    seed: u64,
) -> (ClusterConfig, ProcessId, Vec<AppMessage>) {
    let cluster = ClusterConfig::builder()
        .groups(workload.groups, GROUP_SIZE)
        .clients(1)
        .build();
    let client = cluster.clients()[0];
    let mut generator = Generator::new(workload, client, seed, 0);
    let submits = (0..n).map(|_| generator.next_message()).collect();
    (cluster, client, submits)
}

/// Records `n` messages of `workload`'s generator and replays them `passes`
/// times; timings are the median over the passes of each pass's mean, counts
/// come from the first pass (they are identical in every pass).
fn replay_workload(
    workload: &Workload,
    n: usize,
    spacing: Duration,
    seed: u64,
    codec: WireCodec,
    passes: usize,
    span_limit: usize,
) -> Result<(Replayed, Timings), String> {
    let (cluster, client, submits) = generate(workload, n, seed);
    let trace = layers::record(
        layers::whitebox_nodes(&cluster),
        client,
        submits,
        spacing,
        seed,
    )?;
    let mut first = None;
    let timings = layers::median_of_passes(passes, |pass| {
        let r = layers::replay(
            &trace,
            layers::whitebox_nodes(&cluster),
            &cluster,
            layers::classify_whitebox,
            codec,
            if pass == 0 { span_limit } else { 0 },
        )?;
        let mut v: Vec<(String, f64)> = Vec::new();
        let mut put = |name: String, value: Option<f64>| v.push((name, value.unwrap_or(0.0)));
        put("encode".into(), r.encode_ns(None));
        put("decode".into(), r.decode_ns(None));
        for kind in [
            "multicast",
            "accept",
            "accept_ack",
            "deliver",
            "client_reply",
        ] {
            put(format!("encode.{kind}"), r.encode_ns(Some(kind)));
            put(format!("decode.{kind}"), r.decode_ns(Some(kind)));
            put(format!("on_event.{kind}"), r.on_event_ns(kind));
        }
        put(
            "leader.single".into(),
            r.role_ns_per_multicast(Role::Leader, false),
        );
        put(
            "leader.cross".into(),
            r.role_ns_per_multicast(Role::Leader, true),
        );
        put(
            "follower.single".into(),
            r.role_ns_per_multicast(Role::Follower, false),
        );
        put(
            "client.single".into(),
            r.role_ns_per_multicast(Role::Client, false),
        );
        put("core".into(), Some(r.core_ns_per_multicast()));
        put("wire".into(), Some(r.wire_ns_per_multicast()));
        if first.is_none() {
            first = Some(r);
        }
        Ok(v)
    })?;
    let det_ns_per_envelope = trace.det_wall.as_nanos() as f64 / trace.det_envelopes.max(1) as f64;
    Ok((
        Replayed {
            submits: trace.submits,
            replay: first.expect("at least one pass"),
            det_ns_per_envelope,
        },
        timings,
    ))
}

fn timing(timings: &Timings, name: &str) -> f64 {
    timings.get(name).copied().unwrap_or(0.0)
}

/// Total replica+client `on_event` ns per multicast and wire frames per
/// multicast of a baseline on the conflict mix.
fn baseline(mode: Mode, n: usize, seed: u64) -> Result<(f64, f64), String> {
    let workload = by_name("conflict_2g").expect("conflict_2g exists");
    let (cluster, client, submits) = generate(&workload, n, seed);
    let trace = layers::record(
        layers::baseline_nodes(&cluster, mode),
        client,
        submits,
        layers::SUBMIT_SPACING,
        seed,
    )?;
    let mut frames = 0.0;
    let timings = layers::median_of_passes(3, |_| {
        let r = layers::replay(
            &trace,
            layers::baseline_nodes(&cluster, mode),
            &cluster,
            layers::classify_baseline,
            WireCodec::Binary,
            0,
        )?;
        frames = (r.wire_frames[0] + r.wire_frames[1]) as f64 / n as f64;
        Ok(vec![("core".to_string(), r.core_ns_per_multicast())])
    })?;
    Ok((timing(&timings, "core"), frames))
}

/// Trace rows of a replay's spans: one root per multicast, its layer calls
/// as children.
fn replay_rows(rows: &mut Vec<TraceRow>, workload: &str, replay: &Replay) {
    let mut next = rows.iter().map(|r| r.id).max().unwrap_or(0) + 1;
    let mut roots: std::collections::BTreeMap<usize, TraceRow> = Default::default();
    let mut calls = Vec::with_capacity(replay.spans.len());
    for s in &replay.spans {
        let Some(m) = s.multicast else { continue };
        let root = roots.entry(m).or_insert_with(|| {
            next += 1;
            TraceRow {
                id: next - 1,
                parent: None,
                name: "multicast".to_string(),
                at: format!("replay:{workload}"),
                multicast: m as u64,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            }
        });
        root.start_ns = root.start_ns.min(s.start_ns);
        root.end_ns = root.end_ns.max(s.end_ns);
        calls.push(TraceRow {
            id: 0,
            parent: Some(root.id),
            name: format!("{}.{}", s.layer, s.kind),
            at: format!("replay:{workload}:{}", s.node),
            multicast: m as u64,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
        });
    }
    rows.extend(roots.into_values());
    for mut call in calls {
        call.id = next;
        next += 1;
        rows.push(call);
    }
}

/// What the layers cost per multicast, for [`Ledger::explained_us`].
#[derive(Debug, Clone, Copy, Default)]
struct TraceCosts {
    /// Every node's `on_event` time per multicast, µs.
    core_us: f64,
    /// Every frame's encode and decode time per multicast, µs.
    wire_us: f64,
    /// Frames that cross the wire per multicast.
    frames: f64,
}

/// The layer costs measured alone, kept for the per-workload ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    pipelined: TraceCosts,
    payload: TraceCosts,
    conflict: TraceCosts,
    /// `tcp.cpu_us_per_frame.{idle,busy,payload_4k}`.
    transport_us: [f64; 3],
}

impl Ledger {
    /// CPU µs per multicast of `workload` that the layers' measured costs,
    /// times how often a multicast invokes them, explain: core + wire +
    /// frames × transport, from the trace that matches the workload.
    fn explained_us(&self, workload: &Workload) -> f64 {
        let costs = match workload.name {
            "payload_4k_1g" => self.payload,
            "conflict_2g" => self.conflict,
            _ => self.pipelined,
        };
        let transport_us = match (workload.window, workload.payload) {
            (1, _) => self.transport_us[0],
            (_, p) if p >= 4096 => self.transport_us[2],
            _ => self.transport_us[1],
        };
        costs.core_us + costs.wire_us + costs.frames * transport_us
    }
}

/// Everything the layer replays, echo pairs and host probes report, and the
/// ledger's inputs.
fn layer_metrics(seed: u64, m: &mut Metrics, outcome: &mut Outcome) -> Result<Ledger, String> {
    let spaced = layers::SUBMIT_SPACING;
    let w = |name: &str| by_name(name).expect("known workload");
    let (pipelined, pt) = replay_workload(
        &w("pipelined_1g"),
        2000,
        spaced,
        seed,
        WireCodec::Binary,
        3,
        64,
    )?;
    let (json, jt) = replay_workload(
        &w("pipelined_1g"),
        2000,
        spaced,
        seed,
        WireCodec::Json,
        3,
        0,
    )?;
    let (payload, yt) = replay_workload(
        &w("payload_4k_1g"),
        300,
        spaced,
        seed,
        WireCodec::Binary,
        3,
        16,
    )?;
    let (conflict, ct) = replay_workload(
        &w("conflict_2g"),
        2000,
        spaced,
        seed,
        WireCodec::Binary,
        3,
        64,
    )?;
    // One message at a time: each multicast completes before the next is
    // submitted, so its depth is the collision-free message-delay count.
    let (probe, _) = replay_workload(
        &w("conflict_2g"),
        60,
        Duration::from_millis(10),
        seed,
        WireCodec::Binary,
        1,
        0,
    )?;

    m.push(
        "wire.binary.encode_ns_per_frame",
        timing(&pt, "encode"),
        "ns",
    );
    m.push(
        "wire.binary.decode_ns_per_frame",
        timing(&pt, "decode"),
        "ns",
    );
    m.push(
        "wire.binary.bytes_per_frame",
        pipelined.replay.bytes_per_frame(),
        "B",
    );
    m.push("wire.json.encode_ns_per_frame", timing(&jt, "encode"), "ns");
    m.push("wire.json.decode_ns_per_frame", timing(&jt, "decode"), "ns");
    m.push(
        "wire.json.bytes_per_frame",
        json.replay.bytes_per_frame(),
        "B",
    );
    m.push(
        "wire.binary.encode_ns_per_frame.payload_4k",
        timing(&yt, "encode"),
        "ns",
    );
    m.push(
        "wire.binary.decode_ns_per_frame.payload_4k",
        timing(&yt, "decode"),
        "ns",
    );
    for kind in [
        "multicast",
        "accept",
        "accept_ack",
        "deliver",
        "client_reply",
    ] {
        m.push(
            format!("wire.binary.{kind}.encode_ns"),
            timing(&pt, &format!("encode.{kind}")),
            "ns",
        );
        m.push(
            format!("wire.binary.{kind}.decode_ns"),
            timing(&pt, &format!("decode.{kind}")),
            "ns",
        );
    }
    m.push_opt(
        "wire.frames_per_multicast",
        pipelined.replay.frames_per_multicast(false),
        "count",
    );
    m.push_opt(
        "wire.bytes_per_multicast",
        pipelined.replay.bytes_per_multicast(false),
        "B",
    );
    m.push_opt(
        "wire.frames_per_multicast.cross_group",
        conflict.replay.frames_per_multicast(true),
        "count",
    );
    m.push_opt(
        "wire.bytes_per_multicast.cross_group",
        conflict.replay.bytes_per_multicast(true),
        "B",
    );

    for kind in [
        "multicast",
        "accept",
        "accept_ack",
        "deliver",
        "client_reply",
    ] {
        m.push(
            format!("core.on_event_ns.{kind}"),
            timing(&pt, &format!("on_event.{kind}")),
            "ns",
        );
    }
    let one_group = ClusterConfig::builder()
        .groups(1, GROUP_SIZE)
        .clients(1)
        .build();
    m.push_opt(
        "core.on_event_ns.timer",
        layers::timer_probe(&one_group, 20_000),
        "ns",
    );
    m.push(
        "core.leader_ns_per_multicast.single_group",
        timing(&pt, "leader.single"),
        "ns",
    );
    m.push(
        "core.leader_ns_per_multicast.cross_group",
        timing(&ct, "leader.cross"),
        "ns",
    );
    m.push(
        "core.follower_ns_per_multicast",
        timing(&pt, "follower.single"),
        "ns",
    );
    m.push(
        "core.client_ns_per_multicast",
        timing(&pt, "client.single"),
        "ns",
    );
    let multicasts = pipelined.replay.total_multicasts() as f64;
    m.push(
        "core.events_per_multicast",
        pipelined.replay.events as f64 / multicasts,
        "count",
    );
    m.push(
        "core.actions_per_multicast",
        pipelined.replay.actions as f64 / multicasts,
        "count",
    );

    for (name, mode) in [("fastcast", Mode::FastCast), ("ftskeen", Mode::FtSkeen)] {
        let (ns, frames) = baseline(mode, 1000, seed)?;
        m.push(format!("baselines.{name}.ns_per_multicast"), ns, "ns");
        m.push(
            format!("baselines.{name}.frames_per_multicast"),
            frames,
            "count",
        );
    }

    let channel = echo::channel_echo(Duration::from_millis(300));
    m.push("node_loop.channel_echo_rtt_us", channel.rtt_us, "us");
    m.push(
        "node_loop.channel_echo_msgs_per_s",
        channel.msgs_per_s,
        "1/s",
    );
    // A DeterministicRuntime step delivers an envelope to `on_event` like the
    // replay does, plus scheduling, the sent-message record and the virtual
    // clock; the difference is that machinery's cost.
    let bare_ns_per_event = timing(&pt, "core") * multicasts / pipelined.replay.events as f64;
    m.push(
        "node_loop.det_overhead_ns_per_event",
        pipelined.det_ns_per_envelope - bare_ns_per_event,
        "ns",
    );
    for (name, cross) in [("single_group", false), ("cross_group", true)] {
        let hops = probe
            .replay
            .max_leader_delivery_depth(&probe.submits, cross);
        m.push_opt(
            format!("det.hops_to_leader_delivery.{name}"),
            hops.map(f64::from),
            "count",
        );
        if !cross && hops != Some(3) {
            outcome.violations.push(format!(
                "collision-free single-group delivery took {hops:?} message delays, not 3"
            ));
        }
    }

    let (tcp, dropped) = echo::tcp_echo(20, Duration::from_millis(400))?;
    let (tcp_4k, dropped_4k) = echo::tcp_echo(4096, Duration::from_millis(300))?;
    m.push("tcp.echo_rtt_us", tcp.rtt_us, "us");
    m.push("tcp.echo_rtt_us.payload_4k", tcp_4k.rtt_us, "us");
    m.push("tcp.echo_msgs_per_s", tcp.msgs_per_s, "1/s");
    m.push("tcp.cpu_us_per_frame.idle", tcp.cpu_us_per_msg_idle, "us");
    m.push("tcp.cpu_us_per_frame.busy", tcp.cpu_us_per_msg_busy, "us");
    m.push(
        "tcp.cpu_us_per_frame.payload_4k",
        tcp_4k.cpu_us_per_msg_busy,
        "us",
    );
    if dropped + dropped_4k > 0 {
        outcome.violations.push(format!(
            "echo transports dropped {} frames",
            dropped + dropped_4k
        ));
    }
    m.push("host.thread_wake_us", echo::thread_wake_us(2000)?, "us");

    replay_rows(&mut outcome.trace, "pipelined_1g", &pipelined.replay);
    replay_rows(&mut outcome.trace, "payload_4k_1g", &payload.replay);
    replay_rows(&mut outcome.trace, "conflict_2g", &conflict.replay);

    let costs = |timings: &Timings, replayed: &Replayed| TraceCosts {
        core_us: timing(timings, "core") / 1e3,
        wire_us: timing(timings, "wire") / 1e3,
        frames: (replayed.replay.wire_frames[0] + replayed.replay.wire_frames[1]) as f64
            / replayed.replay.total_multicasts() as f64,
    };
    Ok(Ledger {
        pipelined: costs(&pt, &pipelined),
        payload: costs(&yt, &payload),
        conflict: costs(&ct, &conflict),
        transport_us: [
            tcp.cpu_us_per_msg_idle,
            tcp.cpu_us_per_msg_busy,
            tcp_4k.cpu_us_per_msg_busy,
        ],
    })
}

/// Median of five measurements of the host-speed reference: how much slower
/// than nominal the host runs while the per-layer numbers, which are reported
/// as measured, are taken.
fn host_slowdown() -> Result<f64, String> {
    let mut reference =
        Reference::start().map_err(|e| format!("starting the host-speed reference: {e}"))?;
    let samples = (0..5)
        .map(|_| reference.slowdown())
        .collect::<Result<Vec<f64>, _>>()?;
    Ok(median(&samples).expect("five samples"))
}

/// The workload-independent half of the traced pass: host probes, layer
/// replays, baselines, echo pairs and the fault probe. A full run computes it
/// once; a `--workload W --trace 1` run computes it for that run, because the
/// contract wants every per-layer name from every traced run.
pub fn shared_layers(cfg: &Config, seed: u64) -> Result<(Outcome, Ledger), String> {
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    m.push(
        "host.spin_ns_per_iter.before",
        echo::spin_ns_per_iter(),
        "ns",
    );
    m.push_opt("host.loadavg1", procfs::loadavg1(), "load");
    m.push(
        "host.cores",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
        "count",
    );
    m.push("setup.build_s", cfg.build_s, "s");
    m.push("host.slowdown", host_slowdown()?, "ratio");
    let ledger = layer_metrics(seed, &mut m, &mut outcome)?;
    failover_probe(cfg, seed, &mut m, &mut outcome)?;
    m.push(
        "host.spin_ns_per_iter.after",
        echo::spin_ns_per_iter(),
        "ns",
    );
    outcome.metrics = m;
    Ok((outcome, ledger))
}

/// The deployed half of the traced pass: `proc.*`, `client.*` and the
/// ledger's residual for `workload`, from `slices` one-second slices on one
/// deployment, half of them traced.
pub fn deployed_layers(
    cfg: &Config,
    workload: &Workload,
    seed: u64,
    slices: usize,
    ledger: &Ledger,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    let ((deployed, leader, follower), s) = session(
        cfg,
        workload,
        seed,
        Timers::STEADY,
        workload.warmup,
        |client, deployment| {
            // CPU is summed over every replica; the per-process figures are
            // of g0's leader and one of its followers.
            let pids = deployment.pids();
            let (leader, follower) = deployment.leader_and_follower(0);
            let mut windows = [Window::default(), Window::default()];
            let part = slices.div_ceil(2 * ALTERNATIONS).max(1);
            for round in 0..2 * ALTERNATIONS {
                let traced = round % 2 == 1;
                let w = client.run_window(workload.window, part, SLICE, &pids, traced, None)?;
                windows[traced as usize].merge(w);
            }
            let [untraced, traced] = windows;
            Ok((Deployed { untraced, traced }, leader, follower))
        },
    )?;
    fold(&mut outcome, &s);
    let rate = |w: &Window| slice_median(&w.slices, Slice::throughput).unwrap_or(0.0);
    proc_metrics(&mut m, &deployed.traced, leader as usize, follower as usize);
    client_metrics(&mut m, &deployed.traced);
    m.push("tcp.dropped_frames", s.dropped_frames as f64, "count");
    m.push(
        "trace.overhead_share",
        1.0 - rate(&deployed.traced) / rate(&deployed.untraced).max(f64::MIN_POSITIVE),
        "ratio",
    );
    m.push(
        "setup.cluster_start_ms",
        s.cluster_start.as_secs_f64() * 1e3,
        "ms",
    );
    let measured = slice_median(&deployed.traced.slices, Slice::cpu_us_per_msg).unwrap_or(0.0);
    m.push(
        "ledger.residual_share",
        1.0 - ledger.explained_us(workload) / measured.max(f64::MIN_POSITIVE),
        "ratio",
    );
    for (i, span) in deployed.traced.spans.iter().enumerate() {
        outcome.trace.push(TraceRow {
            id: i as u64 + 1,
            parent: None,
            name: "multicast".to_string(),
            at: format!("deployed:{}", workload.name),
            multicast: span.seq,
            start_ns: span.start.as_nanos() as u64,
            end_ns: span.end.as_nanos() as u64,
        });
    }
    outcome.metrics = m;
    Ok(outcome)
}

/// Seconds of traced-pass windows on the deployed cluster per `--seconds`
/// of an untraced run's window.
pub fn traced_slices(seconds: usize) -> usize {
    (seconds * 2 / 5).max(2 * ALTERNATIONS)
}

/// One traced run of one workload, as the contract asks for it: every
/// per-layer metric, the workload-independent ones included.
pub fn run_traced(
    cfg: &Config,
    workload: &Workload,
    seed: u64,
    seconds: usize,
) -> Result<Outcome, String> {
    let (mut outcome, ledger) = shared_layers(cfg, seed)?;
    let deployed = deployed_layers(cfg, workload, seed, traced_slices(seconds), &ledger)?;
    outcome.absorb(deployed);
    Ok(outcome)
}

/// Largest relative difference between any two of `values`.
pub fn max_pairwise_rel_diff(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    if values.is_empty() || lo <= 0.0 {
        return 0.0;
    }
    (hi - lo) / lo
}

/// `--calibrate K`: K sets of untraced runs, workloads interleaved
/// round-robin; per (workload, end-to-end metric) every set's value, the
/// largest pairwise relative difference, the interquartile spread, and the
/// bound that follows (`clamp(2 × largest difference, 0.03, 0.10)`). A second
/// table has the same runs as measured, before the host-speed correction.
pub fn calibrate(
    cfg: &Config,
    workloads: &[Workload],
    sets: usize,
    seed: u64,
    seconds: usize,
) -> Result<bool, String> {
    let mut corrected: Vec<Vec<Metrics>> = vec![Vec::new(); workloads.len()];
    let mut as_measured = corrected.clone();
    let mut correct = true;
    for set in 0..sets {
        for (i, workload) in workloads.iter().enumerate() {
            let outcome = run_untraced(cfg, workload, seed + set as u64, seconds)?;
            correct &= outcome.correct();
            for v in &outcome.violations {
                eprintln!("{}: {v}", workload.name);
            }
            eprintln!(
                "set {set} {}:\n{}",
                workload.name,
                outcome.metrics.render("  ")
            );
            corrected[i].push(outcome.metrics);
            as_measured[i].push(outcome.as_measured);
        }
    }
    println!(
        "calibration: {sets} sets of {seconds} s, seeds {seed}..{}, host cores {}, loadavg1 {:?}",
        seed + sets as u64 - 1,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        procfs::loadavg1()
    );
    let table = |title: &str, runs: &[Vec<Metrics>]| {
        println!("{title}");
        println!(
            "{:<14} {:<17} {:>9} {:>9} {:>7}  values",
            "workload", "metric", "max_diff", "iqr/med", "bound"
        );
        for (workload, runs) in workloads.iter().zip(runs) {
            for name in runs[0].0.iter().map(|m| &m.name) {
                let values: Vec<f64> = runs.iter().filter_map(|m| m.get(name)).collect();
                let diff = max_pairwise_rel_diff(&values);
                let rendered: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
                println!(
                    "{:<14} {:<17} {:>9.4} {:>9.4} {:>7.3}  {}",
                    workload.name,
                    name,
                    diff,
                    stats::iqr_share(&values).unwrap_or(0.0),
                    (2.0 * diff).clamp(0.03, 0.10),
                    rendered.join(" ")
                );
            }
        }
    };
    table("at the nominal host speed (what is reported):", &corrected);
    table(
        "as measured, before the host-speed correction:",
        &as_measured,
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_difference_is_relative_to_the_smallest() {
        assert_eq!(max_pairwise_rel_diff(&[100.0, 104.0, 98.0]), 6.0 / 98.0);
        assert_eq!(max_pairwise_rel_diff(&[5.0]), 0.0);
        assert_eq!(max_pairwise_rel_diff(&[]), 0.0);
    }

    #[test]
    fn end_to_end_metrics_are_medians_at_the_nominal_host_speed() {
        let slice = |acked: u64, cpu_us: u64, slowdown: f64| Slice {
            wall: Duration::from_secs(1),
            acked,
            cpu: Duration::from_micros(cpu_us),
            slowdown,
        };
        // The host ran at half its nominal speed around the middle slice.
        let window = Window {
            slices: vec![
                slice(3, 1500, 1.0),
                slice(2, 2400, 2.0),
                slice(2, 1400, 1.0),
            ],
            latencies_ns: vec![
                900_000, 100_000, 500_000, // first slice
                1_000_000, 800_000, // second: count as 500 and 400 µs
                450_000, 2_000_000, // third
            ],
            ..Window::default()
        };
        let m = end_to_end(&window, 2.5).unwrap();
        assert_eq!(m.get("throughput_msg_s"), Some(3.0)); // 3, 4, 2
        assert_eq!(m.get("latency_p50_us"), Some(500.0));
        assert_eq!(m.get("cpu_us_per_msg"), Some(600.0)); // 500, 600, 700
        assert_eq!(m.get("setup_s"), Some(2.5));
        let raw = end_to_end(&window.as_measured(), 2.5).unwrap();
        assert_eq!(raw.get("throughput_msg_s"), Some(2.0)); // 3, 2, 2
        assert_eq!(raw.get("latency_p50_us"), Some(800.0));
        assert_eq!(raw.get("cpu_us_per_msg"), Some(700.0)); // 500, 1200, 700
        assert!(end_to_end(&Window::default(), 1.0).is_err());
    }
}
