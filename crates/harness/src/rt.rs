//! The deterministic-runtime engine of the schedule [explorer](mod@crate::explore):
//! seeded interleavings of the *deployed* node loop, with replayable `rt1`
//! tokens.
//!
//! The simulator engine schedules sans-IO protocol state machines inside
//! `wbam-simnet`; the deployed engine shakes real OS processes but cannot
//! replay an interleaving byte for byte. This engine covers the gap: it
//! drives the exact event-loop code `wbamd` ships (`wbam_runtime::node_loop`
//! — burst coalescing, timer generations, delivery-log batching) through
//! [`DeterministicRuntime`], where a seed-derived scheduler chooses which
//! mailbox delivers next, how large each burst is, when virtual time advances
//! (and so when retry, heartbeat and election timers fire), and where
//! crash/restart lands.
//!
//! From one `rt1` [`Token`] the engine derives topology, key-value workload,
//! crash/restart schedule and the scheduler's decision stream; replaying the
//! token reproduces the identical interleaving byte for byte
//! ([`Report::digest`] covers every delivery record *and* the scheduler's
//! decision trace). The runtime's mailboxes are reliable, so the only loss
//! is mail addressed to a down process: the check policy excuses crashed
//! replicas only, and requires termination — the white-box retry machinery
//! recovers crash-lost mail, and the baselines run crash-free plans.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wbam_core::invariants::SentMessage;
use wbam_kvstore::Partitioner;
use wbam_runtime::{DeterministicRuntime, RuntimeDelivery};
use wbam_simnet::DeliveryRecord;
use wbam_types::{AppMessage, CrashSpec, MsgId, NemesisPlan, ProcessId, WbamError};

use crate::cluster::Protocol;
use crate::deploy::DeploySpec;
use crate::explore::{
    delivery_digest, draw_kv_command, kv_message, ms, CheckPolicy, Observed, PlannedOp, Report,
    Token,
};
use crate::family::{Family, FamilyVisitor};

/// Replicas per group (`2f + 1` with `f = 1`).
pub const GROUP_SIZE: usize = 3;

/// Virtual-time horizon of one run: the crash window closes by ~7 s, leaving
/// ample calm for the 2 s client retry fallbacks to converge.
const HORIZON: Duration = Duration::from_secs(30);

/// Salt for the plan RNG, keeping the derivation independent of the
/// scheduler's decision stream (which splitmix-es the raw seed).
const RT_PLAN_SALT: u64 = 0xDE7E_C7ED_C10C_55ED;

/// A fully generated run plan: topology, workload and crash schedule.
/// Everything here is a pure function of the token.
#[derive(Debug, Clone, PartialEq)]
pub struct RtPlan {
    /// Number of multicast groups.
    pub num_groups: usize,
    /// Number of client processes.
    pub num_clients: usize,
    /// The workload.
    pub ops: Vec<PlannedOp>,
    /// The faults: replica crashes, each with a restart (always none for
    /// the baselines, which assume reliable channels: mail lost while a
    /// process is down would stall them by design, not by bug). The
    /// runtime executes no other kind of fault.
    pub nemesis: NemesisPlan,
}

/// Generates the complete plan of a token. Pure: the same token always
/// produces the same plan, and the workload stream is shared across
/// protocols for a given seed (the crash draws happen either way and are
/// only *kept* for the white-box protocol).
pub fn generate_rt_plan(token: &Token) -> RtPlan {
    let mut rng = StdRng::seed_from_u64(token.seed ^ RT_PLAN_SALT);

    // --- Topology -------------------------------------------------------
    let num_groups = rng.gen_range(2..=3usize);
    let num_clients = rng.gen_range(1..=2usize);
    let replicas: Vec<ProcessId> = (0..(num_groups * GROUP_SIZE) as u32)
        .map(ProcessId)
        .collect();

    // --- Crashes --------------------------------------------------------
    // At most one per group, restart always scheduled: a majority of every
    // group stays up through any window, and the restart path (volatile
    // timers lost, mail-while-down lost, retry machinery recovering both)
    // is the interesting one. Drawn before the workload so the op stream is
    // identical across protocols for a given seed.
    let mut nemesis = NemesisPlan::quiet();
    let mut crashed_groups: BTreeSet<usize> = BTreeSet::new();
    for _ in 0..rng.gen_range(0..=2u32) {
        let victim = replicas[rng.gen_range(0..replicas.len())];
        let group = victim.0 as usize / GROUP_SIZE;
        if !crashed_groups.insert(group) {
            continue;
        }
        let at = ms(rng.gen_range(500..4000));
        nemesis.crashes.push(CrashSpec {
            at,
            process: victim,
            restart_at: Some(at + ms(rng.gen_range(500..3000))),
        });
    }
    if token.protocol != Protocol::WhiteBox {
        nemesis.crashes.clear();
    }

    // --- Workload -------------------------------------------------------
    let num_ops = rng.gen_range(10..=25usize);
    let mut ops = Vec::with_capacity(num_ops);
    for _ in 0..num_ops {
        let client_index = rng.gen_range(0..num_clients);
        let at = ms(rng.gen_range(0..5000));
        ops.push(PlannedOp {
            at,
            client_index,
            cmd: draw_kv_command(&mut rng),
        });
    }

    RtPlan {
        num_groups,
        num_clients,
        ops,
        nemesis,
    }
}

/// A report plus the raw observables it was computed from, for tests that
/// compare two runs element by element rather than by digest.
#[derive(Debug, Clone)]
pub struct RtArtifacts {
    /// The checked report.
    pub report: Report,
    /// Every delivery record, in global log order.
    pub deliveries: Vec<DeliveryRecord>,
    /// FNV-1a digest of the scheduler's decision trace alone.
    pub trace_digest: u64,
}

/// What one deterministic run produced, before checking.
struct RawRun {
    deliveries: Vec<RuntimeDelivery>,
    trace_digest: u64,
    /// Every message the runtime routed, converted for the Figure 6
    /// checkers; `None` for the baselines (whose wire format the white-box
    /// checkers do not read).
    whitebox_trace: Option<Vec<SentMessage>>,
    /// Per replica, the `DELIVER`s it refused for messages it never
    /// delivered; replicas with none are left out.
    lost_deliveries: BTreeMap<ProcessId, u64>,
}

/// Builds every node of `spec` with the constructors `wbamd` uses and
/// drives them — replicas in group order (matching their process-id order),
/// then clients, which is the runtime's tie-break order — through the plan's
/// submissions and crashes.
struct Drive<'a> {
    token: &'a Token,
    plan: &'a RtPlan,
    spec: &'a DeploySpec,
    submissions: Vec<(Duration, ProcessId, AppMessage)>,
}

impl FamilyVisitor for Drive<'_> {
    type Output = Result<RawRun, WbamError>;

    fn visit<F: Family>(self, family: F) -> Self::Output {
        let ids: Vec<ProcessId> = (0..self.spec.addrs.len() as u32).map(ProcessId).collect();
        let nodes = ids
            .iter()
            .map(|&id| self.spec.node(&family, id))
            .collect::<Result<_, _>>()?;
        let mut rt = DeterministicRuntime::new(nodes, self.token.seed);
        for (at, client, msg) in self.submissions {
            rt.schedule_submit(at, client, msg);
        }
        for crash in &self.plan.nemesis.crashes {
            let restart_at = crash.restart_at.expect("runtime crashes always restart");
            rt.schedule_crash(crash.at, crash.process, restart_at - crash.at);
        }
        rt.run(HORIZON);
        let replica = |p| family.replica(rt.node(p)?.as_any()?);
        let lost = |p| Some(replica(p)?.progress.lost_deliveries()).filter(|n| *n > 0);
        Ok(RawRun {
            deliveries: rt.deliveries(),
            trace_digest: rt.trace_digest(),
            whitebox_trace: family.checker_trace(rt.sent_messages().into_iter()),
            lost_deliveries: ids
                .into_iter()
                .filter_map(|p| Some((p, lost(p)?)))
                .collect(),
        })
    }
}

/// Runs a generated plan and checks it, also returning the raw delivery
/// records and trace digest for element-by-element twin-run comparison.
pub fn run_rt_artifacts(token: &Token, plan: &RtPlan) -> RtArtifacts {
    let mut report = Report::new(token, plan.ops.len());
    // The deployed heartbeat and election timeout; a 2 s client retry
    // fallback for both protocol families. The addresses are never bound.
    let spec = DeploySpec {
        heartbeat_ms: 100,
        election_timeout_ms: 1500,
        retry_timeout_ms: 2000,
        ..DeploySpec::loopback(
            token.protocol,
            plan.num_groups,
            GROUP_SIZE,
            plan.num_clients,
            0,
        )
    };
    let cluster = spec.cluster_config();
    let partitioner = Partitioner::new(plan.num_groups as u32);

    // One AppMessage per op, ids unique per client.
    let mut next_seq: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut submissions = Vec::with_capacity(plan.ops.len());
    let mut ops = Vec::with_capacity(plan.ops.len());
    for op in &plan.ops {
        let client = cluster.clients()[op.client_index % cluster.clients().len()];
        let seq = next_seq.entry(client).or_insert(0);
        let id = MsgId::new(client, *seq);
        *seq += 1;
        submissions.push((op.at, client, kv_message(&partitioner, id, &op.cmd)));
        ops.push((id, op.cmd.clone(), op.at));
    }

    let drive = Drive {
        token,
        plan,
        spec: &spec,
        submissions,
    };
    let raw = match spec.protocol().and_then(|p| p.visit(drive)) {
        Ok(raw) => raw,
        Err(e) => {
            report.violation = Some(format!("config: {e}"));
            return RtArtifacts {
                report,
                deliveries: Vec::new(),
                trace_digest: 0,
            };
        }
    };
    let deliveries: Vec<DeliveryRecord> = raw
        .deliveries
        .iter()
        .map(|d| DeliveryRecord {
            time: d.elapsed,
            process: d.process,
            group: cluster.group_of(d.process),
            msg_id: d.delivery.msg.id,
            global_ts: d.delivery.global_ts,
        })
        .collect();
    report.digest = delivery_digest(&deliveries, raw.trace_digest);
    report.deliveries = deliveries.len();
    let policy = CheckPolicy {
        require_termination: true,
        ..CheckPolicy::for_plan(&plan.nemesis)
    };
    let observed = Observed {
        cluster,
        ops,
        deliveries,
        trace: raw.whitebox_trace,
        lost_deliveries: raw.lost_deliveries,
    };
    report.check(&observed, &policy);
    RtArtifacts {
        report,
        deliveries: observed.deliveries,
        trace_digest: raw.trace_digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, schedule_token, Engine, ExploreConfig, TokenVersion};

    #[test]
    fn tokens_round_trip_through_display_and_parse() {
        use TokenVersion::Rt1;
        // Other engines' tokens and the sim-only protocol are rejected.
        crate::explore::tests::check_token_grammar(
            Engine::Rt,
            &[
                (Rt1, Protocol::WhiteBox, "WBAM_SEED=rt1:WbCast:"),
                (Rt1, Protocol::FastCast, "WBAM_SEED=rt1:FastCast:"),
                (Rt1, Protocol::FtSkeen, "WBAM_SEED=rt1:Skeen:"),
            ],
            &[
                "v1:WbCast:1",
                "WBAM_SEED=v2:WbCast:1",
                "n1:WbCast:1",
                "rt1:Skeen1:1",
                "rt1:WbCast:zz",
                "WBAM_NET_SEED=rt1:WbCast:1",
            ],
        );
    }

    #[test]
    fn plans_are_deterministic_and_share_the_workload_across_protocols() {
        let seed = 7u64;
        let wb = Token {
            version: TokenVersion::Rt1,
            protocol: Protocol::WhiteBox,
            seed,
        };
        let wb_plan = generate_rt_plan(&wb);
        assert_eq!(wb_plan, generate_rt_plan(&wb));
        let fc = generate_rt_plan(&Token {
            protocol: Protocol::FastCast,
            ..wb
        });
        assert_eq!(wb_plan.ops, fc.ops, "op stream must not shift per protocol");
        assert!(fc.nemesis.is_quiet(), "baselines run crash-free");
    }

    #[test]
    fn replaying_a_token_reproduces_the_run_byte_for_byte() {
        let token = schedule_token(Engine::Rt, 1, 0);
        let plan = generate_rt_plan(&token);
        let a = run_rt_artifacts(&token, &plan);
        let b = run_rt_artifacts(&token, &plan);
        assert_eq!(a.report.digest, b.report.digest);
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.report.violation, b.report.violation);
    }

    #[test]
    fn a_small_rt_exploration_passes_cleanly() {
        let config = ExploreConfig {
            engine: Engine::Rt,
            schedules: 3,
            base_seed: 3,
            minimize: false,
            ..ExploreConfig::default()
        };
        let report = explore(&config, |_| {});
        assert_eq!(report.schedules, 3);
        assert!(report.total_ops > 0);
        assert_eq!(
            report.total_completed, report.total_ops,
            "every op completes on these plans"
        );
        assert!(
            report.findings.is_empty(),
            "unexpected findings: {:?}",
            report.findings
        );
    }
}
