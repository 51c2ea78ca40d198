//! One schedule explorer over three engines: seeded fault plans, one checker,
//! one minimizer and replayable failure tokens.
//!
//! From one 64-bit seed the explorer derives a complete experiment —
//! topology, a key-value workload ([`draw_kv_command`]) and a
//! [`NemesisPlan`] — and runs it on one of three engines:
//!
//! * [`Engine::Sim`] — the sans-IO protocol state machines inside
//!   `wbam-simnet` ([`ProtocolSim`](crate::ProtocolSim)), with drops,
//!   duplication, partitions, crash/restarts and timer jitter
//!   ([`explorer`](crate::explorer));
//! * [`Engine::Rt`] — the deployed node event loop under the virtual-clock
//!   [`DeterministicRuntime`](wbam_runtime::DeterministicRuntime), whose
//!   seeded scheduler picks every interleaving ([`rt`](crate::rt));
//! * [`Engine::Net`] — live `wbamd` processes behind the
//!   [`NemesisProxy`](crate::NemesisProxy), with SIGKILL/redeploy and
//!   SIGSTOP/SIGCONT faults ([`chaos`](crate::chaos)).
//!
//! Every run, whatever the engine, goes through [`check_run`]:
//!
//! * the Figure 6 protocol invariants (`wbam_core::invariants`) on the
//!   white-box message trace, where the engine records one, and on the
//!   per-process delivery logs (every protocol);
//! * the key-value store linearizability oracle
//!   ([`KvHistory::check_excusing`]) over every replica's apply sequence and
//!   every client's invocations and completions;
//! * termination — every submitted operation completes — wherever the
//!   engine's [`CheckPolicy`] requires it.
//!
//! What an engine may excuse (crashed processes, lossy links, replicas that
//! recovered by state transfer) is policy data, not code. A failing run is
//! reported as its replayable [`Token`]; before reporting, the explorer
//! greedily [`minimize`]s the nemesis plan of a replayable engine.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;
use wbam_core::invariants::{
    check_deliver_agreement, check_deliver_local_ts_per_group, check_total_order,
    check_unique_proposals, SentMessage,
};
use wbam_kvstore::{KvCommand, KvHistory, KvStore, Partitioner};
use wbam_simnet::DeliveryRecord;
use wbam_types::wire::WireCodec;
use wbam_types::{AppMessage, ClusterConfig, MsgId, NemesisPlan, Payload, ProcessId, Timestamp};

use crate::chaos::{generate_net_plan, run_net, NetChaosPlan};
use crate::cluster::Protocol;
use crate::explorer::{generate_schedule, run_generated, GeneratedSchedule};
use crate::proxy::ProxyStats;
use crate::rt::{generate_rt_plan, run_rt_artifacts, RtPlan, GROUP_SIZE};

/// Keys the generated workloads touch (a small space maximises conflicts).
const KEY_SPACE: u32 = 6;

/// Where a schedule runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The deterministic simulator.
    Sim,
    /// The deployed node loop under the deterministic runtime.
    Rt,
    /// Live `wbamd` processes behind the nemesis proxy.
    Net,
}

impl Engine {
    /// Parses an engine name as [`fmt::Display`] prints it.
    pub fn from_name(name: &str) -> Option<Engine> {
        [Engine::Sim, Engine::Rt, Engine::Net]
            .into_iter()
            .find(|e| e.to_string() == name)
    }

    /// The protocols a sweep rotates through, and the only ones a token of
    /// the engine may name. Plain (singleton) Skeen is in no list: no
    /// engine's schedules build the singleton groups it needs. The deployed
    /// chaos runs only the white-box protocol, because the baselines assume
    /// reliable channels and stall under loss by design.
    pub fn protocols(self) -> &'static [Protocol] {
        match self {
            Engine::Net => &[Protocol::WhiteBox],
            _ => &[Protocol::WhiteBox, Protocol::FastCast, Protocol::FtSkeen],
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Sim => "sim",
            Engine::Rt => "rt",
            Engine::Net => "net",
        })
    }
}

/// Schedule-derivation versions; the version also names the engine. Old
/// tokens must never change meaning: every corpus token replays byte for
/// byte forever, so any change to what a seed derives is a new version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenVersion {
    /// Simulator: topology, workload and nemesis plan; no compaction.
    V1,
    /// Simulator: V1 plus a compaction cadence and an extra mid-run
    /// crash/restart, drawn from a *separately salted* RNG so every V1 token
    /// is untouched.
    V2,
    /// Deterministic runtime: topology, workload, white-box crash/restarts
    /// and the scheduler's decision stream.
    Rt1,
    /// Deployed cluster: link faults, one healed partition, one SIGKILL with
    /// redeploy, an optional SIGSTOP pause and the workload.
    N1,
}

impl TokenVersion {
    fn label(self) -> &'static str {
        match self {
            TokenVersion::V1 => "v1",
            TokenVersion::V2 => "v2",
            TokenVersion::Rt1 => "rt1",
            TokenVersion::N1 => "n1",
        }
    }

    /// The engine this version's schedules run on.
    pub fn engine(self) -> Engine {
        match self {
            TokenVersion::V1 | TokenVersion::V2 => Engine::Sim,
            TokenVersion::Rt1 => Engine::Rt,
            TokenVersion::N1 => Engine::Net,
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            TokenVersion::N1 => "WBAM_NET_SEED",
            _ => "WBAM_SEED",
        }
    }
}

/// A replayable schedule identifier: derivation version (and with it the
/// engine), protocol and generation seed.
///
/// Printed as `WBAM_SEED=<version>:<protocol>:<seed-hex>` — or
/// `WBAM_NET_SEED=n1:…` for deployed plans. [`Token::parse`] accepts the same
/// string with or without its prefix, for any supported version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The schedule-derivation version.
    pub version: TokenVersion,
    /// The protocol the schedule runs.
    pub protocol: Protocol,
    /// The seed every part of the schedule is derived from.
    pub seed: u64,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={}:{}:{:016x}",
            self.version.prefix(),
            self.version.label(),
            self.protocol.label(),
            self.seed
        )
    }
}

impl Token {
    /// The engine the token's schedule runs on.
    pub fn engine(&self) -> Engine {
        self.version.engine()
    }

    /// Parses a token previously printed by [`fmt::Display`].
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if the string is not a valid
    /// token of a supported version, or names a protocol its engine cannot
    /// run.
    pub fn parse(s: &str) -> Result<Token, String> {
        let s = s.trim();
        let (prefix, body) = s.split_once('=').map_or((None, s), |(p, b)| (Some(p), b));
        let parts: Vec<&str> = body.split(':').collect();
        let [version, label, seed_hex] = parts[..] else {
            return Err(format!(
                "expected <version>:<protocol>:<seed>, got `{body}`"
            ));
        };
        let version = match version {
            "v1" => TokenVersion::V1,
            "v2" => TokenVersion::V2,
            "rt1" => TokenVersion::Rt1,
            "n1" => TokenVersion::N1,
            other => {
                return Err(format!(
                    "token version `{other}` not supported (v1, v2, rt1, n1)"
                ))
            }
        };
        if let Some(prefix) = prefix.filter(|p| *p != version.prefix()) {
            return Err(format!(
                "`{prefix}=` does not prefix {} tokens",
                version.label()
            ));
        }
        let engine = version.engine();
        let protocol = engine
            .protocols()
            .iter()
            .copied()
            .find(|p| p.label() == label)
            .ok_or_else(|| {
                let why = if label == Protocol::Skeen.label() {
                    " (plain Skeen needs singleton groups, which no schedule builds)"
                } else {
                    ""
                };
                format!("protocol `{label}` cannot run on the {engine} engine{why}")
            })?;
        let seed =
            u64::from_str_radix(seed_hex, 16).map_err(|e| format!("bad seed `{seed_hex}`: {e}"))?;
        Ok(Token {
            version,
            protocol,
            seed,
        })
    }

    /// Like [`Token::parse`], but also refuses tokens of another engine:
    /// their derivations share nothing, so a corpus can never replay under
    /// the wrong engine.
    ///
    /// # Errors
    ///
    /// As [`Token::parse`], plus a token of an engine other than `engine`.
    pub fn parse_for(engine: Engine, s: &str) -> Result<Token, String> {
        let token = Token::parse(s)?;
        let other = token.engine();
        (other == engine)
            .then_some(token)
            .ok_or_else(|| format!("{token} belongs to the {other} engine, not {engine}"))
    }
}

/// SplitMix64, used to derive per-schedule seeds from the base seed (and by
/// the nemesis proxy to derive per-link seeds).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The token of schedule `index` in a sweep of `engine` starting at
/// `base_seed`. Fresh sweeps always use the engine's newest derivation
/// version; old versions exist only so corpus tokens keep their meaning.
pub fn schedule_token(engine: Engine, base_seed: u64, index: usize) -> Token {
    let protocols = engine.protocols();
    Token {
        version: match engine {
            Engine::Sim => TokenVersion::V2,
            Engine::Rt => TokenVersion::Rt1,
            Engine::Net => TokenVersion::N1,
        },
        protocol: protocols[index % protocols.len()],
        seed: splitmix64(base_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    }
}

/// Draws one key-value command: 30 % puts, 25 % adds, 20 % cross-key
/// transfers and 25 % reads over a six-key space.
pub fn draw_kv_command(rng: &mut StdRng) -> KvCommand {
    let key = |rng: &mut StdRng| format!("k{}", rng.gen_range(0..KEY_SPACE));
    match rng.gen_range(0..100u32) {
        0..=29 => KvCommand::put(&key(rng), rng.gen_range(0..1000i64)),
        30..=54 => KvCommand::add(&key(rng), rng.gen_range(-50..50i64)),
        55..=74 => {
            let from = key(rng);
            let mut to = key(rng);
            while to == from {
                to = key(rng);
            }
            KvCommand::transfer(&from, &to, rng.gen_range(1..100i64))
        }
        _ => KvCommand::get(&key(rng)),
    }
}

pub(crate) fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// The multicast carrying `cmd` to the groups owning its keys.
pub(crate) fn kv_message(partitioner: &Partitioner, id: MsgId, cmd: &KvCommand) -> AppMessage {
    let dest = partitioner
        .destination_of(cmd.keys())
        .expect("generated commands have keys");
    let payload = serde_json::to_vec(cmd).expect("commands encode");
    AppMessage::new(id, dest, Payload::from(payload))
}

/// One planned workload operation of a simulated or deterministic run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedOp {
    /// Submission time.
    pub at: Duration,
    /// Index of the submitting client.
    pub client_index: usize,
    /// The key-value command.
    pub cmd: KvCommand,
}

/// FNV-1a, the digest behind every token's replay contract.
pub(crate) struct Digest(pub(crate) u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of a run's observable behaviour: every delivery record in log
/// order, then the engine's `trailer` (messages sent for the simulator, the
/// scheduler's decision-trace digest for the deterministic runtime). Equal
/// digests mean byte-for-byte identical runs.
pub(crate) fn delivery_digest(deliveries: &[DeliveryRecord], trailer: u64) -> u64 {
    let mut digest = Digest::new();
    for record in deliveries {
        digest.u64(record.time.as_nanos() as u64);
        digest.u64(u64::from(record.process.0));
        digest.u64(u64::from(record.msg_id.sender.0));
        digest.u64(record.msg_id.seq);
        let gts = record.global_ts.unwrap_or(Timestamp::BOTTOM);
        digest.u64(gts.time());
        digest.u64(gts.group().map(|g| u64::from(g.0) + 1).unwrap_or(0));
    }
    digest.u64(trailer);
    digest.0
}

/// What a run produced, in the form [`check_run`] reads.
#[derive(Debug, Clone)]
pub struct Observed {
    /// The cluster's groups and clients.
    pub cluster: ClusterConfig,
    /// Every submitted operation: id, command and invocation time.
    pub ops: Vec<(MsgId, KvCommand, Duration)>,
    /// Every delivery in log order: replica applies carry their group,
    /// client completions have `group == None`. Each incarnation of a
    /// redeployed replica is its own observer.
    pub deliveries: Vec<DeliveryRecord>,
    /// The white-box message trace for the Figure 6 checks, where the
    /// engine records one.
    pub trace: Option<Vec<SentMessage>>,
    /// Per replica, the `DELIVER`s it refused for messages it never
    /// delivered
    /// ([`DeliveryProgress::lost_deliveries`](wbam_types::DeliveryProgress::lost_deliveries)),
    /// where the engine can read replica state; replicas with none are
    /// left out.
    pub lost_deliveries: BTreeMap<ProcessId, u64>,
}

/// What an engine's environment excuses, as data for [`check_run`].
#[derive(Debug, Clone, Default)]
pub struct CheckPolicy {
    /// Processes that crashed during the run: they may miss deliveries.
    pub faulty: BTreeSet<ProcessId>,
    /// Whether the run could lose messages, excusing gaps anywhere.
    pub lossy: bool,
    /// Per-observer watermarks below which history was installed (by a
    /// checkpoint state transfer, or a redeployed incarnation's first
    /// logged timestamp) rather than replayed.
    pub transfer_excusals: BTreeMap<ProcessId, Timestamp>,
    /// Per-replica messages dropped on a `STABLE_PRUNED` notice.
    pub drop_excusals: BTreeMap<ProcessId, BTreeSet<MsgId>>,
    /// Whether every submitted operation must complete.
    pub require_termination: bool,
}

impl CheckPolicy {
    /// The policy a nemesis plan earns: its crash victims are faulty and
    /// its drops or partitions make it lossy.
    pub fn for_plan(plan: &NemesisPlan) -> Self {
        CheckPolicy {
            faulty: plan.faulty_processes().into_iter().collect(),
            lossy: plan.lossy(),
            ..CheckPolicy::default()
        }
    }
}

/// Checks one run: the Figure 6 invariants, delivery-log agreement and total
/// order, that every completed operation was delivered somewhere, the
/// linearizability oracle, and termination where the policy requires it.
/// Returns the number of reads the oracle checked.
///
/// # Errors
///
/// Returns the first violation found, prefixed with its category:
/// `invariant:`, `linearizability:` or `termination:`.
pub fn check_run(observed: &Observed, policy: &CheckPolicy) -> Result<usize, String> {
    let cluster = &observed.cluster;
    if let Some(trace) = &observed.trace {
        check_unique_proposals(trace)
            .and_then(|()| check_deliver_agreement(trace))
            .and_then(|()| check_deliver_local_ts_per_group(trace, |p| cluster.group_of(p)))
            .map_err(|v| format!("invariant: {v}"))?;
    }

    let partitions = cluster.groups().len() as u32;
    let partitioner = Partitioner::new(partitions);
    let mut history = KvHistory {
        partitions,
        ..KvHistory::default()
    };
    let mut cmds: BTreeMap<MsgId, &KvCommand> = BTreeMap::new();
    for (id, cmd, at) in &observed.ops {
        history.invoke(*id, cmd.clone(), *at);
        cmds.insert(*id, cmd);
    }
    let mut per_process: BTreeMap<ProcessId, Vec<(MsgId, Timestamp)>> = BTreeMap::new();
    let mut stores: BTreeMap<ProcessId, KvStore> = BTreeMap::new();
    for record in &observed.deliveries {
        let Some(group) = record.group else {
            history.complete(record.msg_id, record.time);
            continue;
        };
        let (process, msg) = (record.process, record.msg_id);
        let Some(cmd) = cmds.get(&msg) else {
            return Err(format!(
                "invariant: {process} delivered {msg} which was never submitted"
            ));
        };
        let Some(gts) = record.global_ts else {
            return Err(format!(
                "invariant: {process} delivered {msg} without a global timestamp"
            ));
        };
        per_process.entry(process).or_default().push((msg, gts));
        let store = stores
            .entry(process)
            .or_insert_with(|| KvStore::with_partitioner(group, partitioner));
        let read = store.apply_read(cmd);
        history.applied(msg, process, group, gts, read);
    }
    check_total_order(&per_process).map_err(|v| format!("invariant: {v}"))?;
    // A refused `DELIVER` for a message never delivered is a gap for good.
    // Only a crash or a lossy link can make one (the replica missed the
    // `DELIVER`s before it), and the policy excuses gaps exactly there.
    let mut lost = observed.lost_deliveries.iter();
    if let Some((process, n)) = lost.find(|(p, _)| !policy.lossy && !policy.faulty.contains(p)) {
        return Err(format!(
            "invariant: {process} refused {n} DELIVERs of messages it never delivered"
        ));
    }

    // Replicas may carry excused gaps, but an operation a client saw
    // complete was by definition delivered somewhere: absent from every
    // log, a delivery was lost outright, which no excusal covers.
    let delivered: BTreeSet<MsgId> = history.applies.iter().map(|a| a.op).collect();
    if let Some(op) = history
        .ops
        .iter()
        .find(|o| o.completed_at.is_some() && !delivered.contains(&o.id))
    {
        return Err(format!(
            "invariant: op {} completed at its client but appears in no delivery log",
            op.id
        ));
    }

    let oracle = history
        .check_excusing(
            &policy.faulty,
            policy.lossy,
            &policy.transfer_excusals,
            &policy.drop_excusals,
        )
        .map_err(|v| format!("linearizability: {v}"))?;

    let undelivered: Vec<MsgId> = history
        .ops
        .iter()
        .filter(|o| o.completed_at.is_none())
        .map(|o| o.id)
        .collect();
    match undelivered.first() {
        Some(first) if policy.require_termination => Err(format!(
            "termination: {} of {} operations never completed (first: {first})",
            undelivered.len(),
            history.ops.len(),
        )),
        _ => Ok(oracle.checked_reads),
    }
}

/// Greedily minimizes the nemesis plan of a failing run: repeatedly removes
/// individual crashes, partitions and nudges, and zeroes the probabilistic
/// fault knobs, keeping each removal for which `still_fails` holds. Returns
/// the smallest still-failing plan found.
pub fn minimize(
    plan: &NemesisPlan,
    mut still_fails: impl FnMut(&NemesisPlan) -> bool,
) -> NemesisPlan {
    let mut plan = plan.clone();
    for _pass in 0..4 {
        let mut changed = false;
        let mut try_keep = |plan: &mut NemesisPlan, candidate: NemesisPlan| {
            if candidate != *plan && still_fails(&candidate) {
                *plan = candidate;
                changed = true;
            }
        };
        // Removals run from the back, so earlier indices stay valid.
        for idx in (0..plan.crashes.len()).rev() {
            let mut candidate = plan.clone();
            candidate.crashes.remove(idx);
            try_keep(&mut plan, candidate);
        }
        for idx in (0..plan.partitions.len()).rev() {
            let mut candidate = plan.clone();
            candidate.partitions.remove(idx);
            try_keep(&mut plan, candidate);
        }
        for idx in (0..plan.leader_nudges.len()).rev() {
            let mut candidate = plan.clone();
            candidate.leader_nudges.remove(idx);
            try_keep(&mut plan, candidate);
        }
        for knob in 0..4 {
            let mut candidate = plan.clone();
            match knob {
                0 => candidate.link.drop_per_mille = 0,
                1 => candidate.link.duplicate_per_mille = 0,
                2 => candidate.link.reorder_per_mille = 0,
                _ => candidate.timer_jitter = Duration::ZERO,
            }
            try_keep(&mut plan, candidate);
        }
        if !changed {
            break;
        }
    }
    plan
}

/// A fully generated schedule of one engine. Everything here is a pure
/// function of the token (and, for deployed plans, the workload bound).
#[derive(Debug, Clone)]
pub enum Plan {
    /// A simulator schedule.
    Sim(GeneratedSchedule),
    /// A deterministic-runtime plan.
    Rt(RtPlan),
    /// A deployed chaos plan.
    Net(NetChaosPlan),
}

impl Plan {
    /// Generates the plan of `token` on its engine. `messages` overrides a
    /// deployed plan's workload size (the override is part of the replay
    /// unit); the other engines ignore it.
    pub fn generate(token: &Token, messages: Option<usize>) -> Plan {
        match token.engine() {
            Engine::Sim => Plan::Sim(generate_schedule(token)),
            Engine::Rt => Plan::Rt(generate_rt_plan(token)),
            Engine::Net => Plan::Net(generate_net_plan(token, messages)),
        }
    }

    /// The plan's faults.
    pub fn nemesis(&self) -> &NemesisPlan {
        match self {
            Plan::Sim(s) => &s.spec.nemesis,
            Plan::Rt(p) => &p.nemesis,
            Plan::Net(p) => &p.nemesis,
        }
    }

    fn with_nemesis(&self, nemesis: &NemesisPlan) -> Plan {
        let mut plan = self.clone();
        match &mut plan {
            Plan::Sim(s) => s.spec.nemesis = nemesis.clone(),
            Plan::Rt(p) => p.nemesis = nemesis.clone(),
            Plan::Net(p) => p.nemesis = nemesis.clone(),
        }
        plan
    }

    /// A one-line summary of the plan's topology and workload.
    pub fn describe(&self) -> String {
        let (groups, size, clients, ops, extra) = match self {
            Plan::Sim(s) => (
                s.spec.num_groups,
                s.spec.group_size,
                s.spec.num_clients,
                s.ops.len(),
                format!(
                    ", compaction every {} (lag {})",
                    s.spec.compaction_interval, s.spec.compaction_lag
                ),
            ),
            Plan::Rt(p) => (
                p.num_groups,
                GROUP_SIZE,
                p.num_clients,
                p.ops.len(),
                "".into(),
            ),
            Plan::Net(p) => (2, 3, 1, p.ops.len(), format!(", pauses {:?}", p.pauses)),
        };
        format!("{groups} groups x {size} replicas, {clients} clients, {ops} ops{extra}")
    }
}

/// Configuration of an exploration: which schedules run, and how deployed
/// runs find their daemon and keep their logs.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The engine a sweep runs on.
    pub engine: Engine,
    /// Number of schedules; schedule `i` runs [`schedule_token`]`(engine,
    /// base_seed, i)`.
    pub schedules: usize,
    /// Base seed of the sweep.
    pub base_seed: u64,
    /// Run only this token instead of a sweep.
    pub replay: Option<Token>,
    /// Minimize the nemesis plan of failing replayable runs.
    pub minimize: bool,
    /// Override the deployed workload size (smaller for CI smokes).
    pub messages: Option<usize>,
    /// Wire codecs each deployed plan runs under, one run each.
    pub wires: Vec<WireCodec>,
    /// Parent directory for deployed runs' specs and delivery logs, one
    /// `<seed>-<wire>` subdirectory per run, always kept. `None` uses a fresh
    /// temporary directory per run, removed again when the run passes.
    pub log_dir: Option<PathBuf>,
    /// Path to the `wbamd` binary. `None` uses the `WBAMD_BIN` environment
    /// variable if set, and otherwise looks next to the current executable
    /// and up to two directories above it (covering test binaries under
    /// `target/*/deps/`).
    pub wbamd: Option<PathBuf>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            engine: Engine::Sim,
            schedules: 50,
            base_seed: 42,
            replay: None,
            minimize: true,
            messages: None,
            wires: vec![WireCodec::default()],
            log_dir: None,
            wbamd: None,
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The run's replay token.
    pub token: Token,
    /// The wire codec of a deployed run.
    pub wire: Option<WireCodec>,
    /// The replay digest: of every delivery record and the engine's trailer
    /// for the simulator and the runtime, of the derived plan for a
    /// deployed run (whose interleaving is not replayable).
    pub digest: u64,
    /// Operations submitted.
    pub ops: usize,
    /// Operations that completed at their client.
    pub completed: usize,
    /// Delivery records: replica applies and client completions (a
    /// deployed run counts its drained log lines).
    pub deliveries: usize,
    /// Reads the linearizability oracle checked.
    pub checked_reads: usize,
    /// Messages the nemesis dropped.
    pub dropped: u64,
    /// Messages the nemesis duplicated.
    pub duplicated: u64,
    /// What the proxy did to the wire in a deployed run.
    pub proxy: Option<ProxyStats>,
    /// The first violation found, if any, prefixed with its category:
    /// `config:`, `invariant:`, `linearizability:`, `termination:`, or for
    /// deployed runs also `graceful-stop:`, `log:` and `run:`.
    pub violation: Option<String>,
    /// Where a deployed run's spec and delivery logs are (kept on a
    /// violation).
    pub log_dir: Option<PathBuf>,
}

impl Report {
    pub(crate) fn new(token: &Token, ops: usize) -> Report {
        Report {
            token: *token,
            wire: None,
            digest: 0,
            ops,
            completed: 0,
            deliveries: 0,
            checked_reads: 0,
            dropped: 0,
            duplicated: 0,
            proxy: None,
            violation: None,
            log_dir: None,
        }
    }

    /// Counts the run's completions, then checks it with [`check_run`].
    pub(crate) fn check(&mut self, observed: &Observed, policy: &CheckPolicy) {
        let submitted: BTreeSet<MsgId> = observed.ops.iter().map(|(id, ..)| *id).collect();
        let completed: BTreeSet<MsgId> = observed
            .deliveries
            .iter()
            .filter(|r| r.group.is_none() && submitted.contains(&r.msg_id))
            .map(|r| r.msg_id)
            .collect();
        self.completed = completed.len();
        match check_run(observed, policy) {
            Ok(checked_reads) => self.checked_reads = checked_reads,
            Err(violation) => self.violation = Some(violation),
        }
    }
}

/// Runs `plan` (generated from `token`, possibly with a modified nemesis)
/// on its engine and checks it. `wire` only matters to a deployed run.
pub fn run_plan(token: &Token, plan: &Plan, config: &ExploreConfig, wire: WireCodec) -> Report {
    match plan {
        Plan::Sim(schedule) => run_generated(token, schedule),
        Plan::Rt(plan) => run_rt_artifacts(token, plan).report,
        Plan::Net(plan) => run_net(token, plan, config, wire),
    }
}

/// Runs the canonical plan of a token under the default configuration (a
/// deployed token runs one live cluster, binary wire, default workload).
pub fn run_token(token: &Token) -> Report {
    let config = ExploreConfig::default();
    let plan = Plan::generate(token, config.messages);
    run_plan(token, &plan, &config, WireCodec::default())
}

/// A failing run, with its minimized nemesis plan.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The failing run; its token reproduces the failure.
    pub report: Report,
    /// The greedily minimized nemesis plan (still failing), if the engine is
    /// replayable and minimization was enabled.
    pub minimized: Option<NemesisPlan>,
}

/// Aggregate results of an exploration.
#[derive(Debug, Clone, Default)]
pub struct Exploration {
    /// Schedules (tokens) explored.
    pub schedules: usize,
    /// Runs executed: one per schedule, or one per schedule and wire codec
    /// for deployed plans.
    pub runs: usize,
    /// Failing runs.
    pub findings: Vec<Finding>,
    /// Total operations submitted.
    pub total_ops: usize,
    /// Total operations completed.
    pub total_completed: usize,
    /// Total messages dropped by the nemesis.
    pub dropped: u64,
    /// Total messages duplicated by the nemesis.
    pub duplicated: u64,
    /// Total crashes scheduled.
    pub crashes: usize,
    /// Total partitions scheduled.
    pub partitions: usize,
}

/// Runs an exploration — the sweep `config` describes, or its single replay
/// token — collecting findings (with minimized plans) and aggregate
/// statistics. `progress` sees every run's report as it finishes.
pub fn explore(config: &ExploreConfig, mut progress: impl FnMut(&Report)) -> Exploration {
    let tokens: Vec<Token> = match config.replay {
        Some(token) => vec![token],
        None => (0..config.schedules)
            .map(|i| schedule_token(config.engine, config.base_seed, i))
            .collect(),
    };
    let mut exploration = Exploration::default();
    for token in tokens {
        let plan = Plan::generate(&token, config.messages);
        exploration.schedules += 1;
        exploration.crashes += plan.nemesis().crashes.len();
        exploration.partitions += plan.nemesis().partitions.len();
        let wires = match token.engine() {
            Engine::Net => &config.wires[..],
            _ => &[WireCodec::Binary][..],
        };
        for &wire in wires {
            let report = run_plan(&token, &plan, config, wire);
            progress(&report);
            exploration.runs += 1;
            exploration.total_ops += report.ops;
            exploration.total_completed += report.completed;
            exploration.dropped += report.dropped;
            exploration.duplicated += report.duplicated;
            if report.violation.is_some() {
                // A live cluster reproduces its plan, not its interleaving:
                // re-running it to minimize would prove nothing.
                let replayable = token.engine() != Engine::Net;
                let minimized = (config.minimize && replayable).then(|| {
                    minimize(plan.nemesis(), |nemesis| {
                        let candidate = plan.with_nemesis(nemesis);
                        run_plan(&token, &candidate, config, wire)
                            .violation
                            .is_some()
                    })
                });
                exploration.findings.push(Finding { report, minimized });
            }
        }
    }
    exploration
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Checks the token grammar of `engine`: each `accepted` token, with seed
    /// `0xdead_beef_1234_5678`, prints as `prefix` plus the seed in hex and
    /// parses back through [`Token::parse`] and [`Token::parse_for`], with
    /// or without its `WBAM_*=` prefix; each of `rejected` is refused by
    /// `parse_for`.
    pub(crate) fn check_token_grammar(
        engine: Engine,
        accepted: &[(TokenVersion, Protocol, &str)],
        rejected: &[&str],
    ) {
        for &(version, protocol, prefix) in accepted {
            let token = Token {
                version,
                protocol,
                seed: 0xdead_beef_1234_5678,
            };
            let printed = token.to_string();
            assert_eq!(printed, format!("{prefix}deadbeef12345678"));
            let bare = printed.split_once('=').unwrap().1;
            for text in [printed.as_str(), bare, &format!("  {bare}\n")] {
                assert_eq!(Token::parse(text), Ok(token), "{text}");
                assert_eq!(Token::parse_for(engine, text), Ok(token));
            }
        }
        for text in rejected {
            assert!(
                Token::parse_for(engine, text).is_err(),
                "{text} accepted by the {engine} engine"
            );
        }
    }

    /// A run that fails its checks still reports how many of its
    /// operations completed.
    #[test]
    fn a_failing_run_still_counts_its_completions() {
        use wbam_types::GroupId;
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let client = cluster.clients()[0];
        let (done, lost) = (MsgId::new(client, 1), MsgId::new(client, 2));
        let ops = [done, lost]
            .map(|id| (id, KvCommand::put("k", 1), Duration::ZERO))
            .to_vec();
        let record = |process, group, global_ts| DeliveryRecord {
            time: Duration::from_millis(1),
            process,
            group,
            msg_id: done,
            global_ts,
        };
        let mut deliveries: Vec<DeliveryRecord> = cluster.groups()[0]
            .members()
            .iter()
            .map(|&p| record(p, Some(GroupId(0)), Some(Timestamp::new(1, GroupId(0)))))
            .collect();
        deliveries.push(record(client, None, None));
        let observed = Observed {
            cluster,
            ops,
            deliveries,
            trace: None,
            lost_deliveries: BTreeMap::new(),
        };
        let policy = CheckPolicy {
            require_termination: true,
            ..CheckPolicy::default()
        };
        let mut report = Report::new(&schedule_token(Engine::Sim, 0, 0), 2);
        report.check(&observed, &policy);
        let violation = report.violation.expect("the lost op fails termination");
        assert!(violation.starts_with("termination: 1 of 2"), "{violation}");
        assert_eq!(report.completed, 1);
    }

    /// A replica that refused a `DELIVER` of a message it never delivered
    /// fails the run, unless a crash or a lossy link excuses its gaps.
    #[test]
    fn a_lost_delivery_fails_the_run_where_no_gap_is_excused() {
        let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
        let observed = Observed {
            cluster,
            ops: Vec::new(),
            deliveries: Vec::new(),
            trace: None,
            lost_deliveries: [(ProcessId(1), 2)].into(),
        };
        let strict = CheckPolicy::default();
        assert_eq!(
            check_run(&observed, &strict),
            Err("invariant: p1 refused 2 DELIVERs of messages it never delivered".into())
        );
        let crashed = CheckPolicy {
            faulty: [ProcessId(1)].into(),
            ..CheckPolicy::default()
        };
        assert_eq!(check_run(&observed, &crashed), Ok(0));
        let lossy = CheckPolicy {
            lossy: true,
            ..CheckPolicy::default()
        };
        assert_eq!(check_run(&observed, &lossy), Ok(0));
    }

    #[test]
    fn the_minimizer_keeps_exactly_the_faults_a_failure_needs() {
        let mut plan = NemesisPlan::quiet();
        plan.link.drop_per_mille = 10;
        plan.link.duplicate_per_mille = 20;
        for at in 1..=3 {
            plan.crashes.push(wbam_types::CrashSpec {
                at: Duration::from_millis(at),
                process: ProcessId(at as u32),
                restart_at: None,
            });
        }
        // "Fails" while p2 crashes and links drop.
        let minimized = minimize(&plan, |p| {
            p.link.drop_per_mille > 0 && p.crashes.iter().any(|c| c.process == ProcessId(2))
        });
        assert_eq!(minimized.crashes.len(), 1);
        assert_eq!(minimized.crashes[0].process, ProcessId(2));
        assert_eq!(minimized.link.drop_per_mille, 10);
        assert_eq!(minimized.link.duplicate_per_mille, 0);
    }
}
