//! Property tests for the compaction subsystem: checkpoint round-trips and
//! the compacted-vs-uncompacted twin-run equivalence.
//!
//! 1. A key-value store restored from its snapshot is observably equivalent
//!    to the original — and stays equivalent under further commands.
//! 2. A fresh replica that recovers from a peer's `checkpoint + suffix`
//!    through the real `NEW_LEADER`/`NEW_STATE` wire path ends up observably
//!    equivalent: same watermark, a delivery progress jumped to it, and a
//!    re-delivery of exactly the resident suffix in timestamp order.
//! 3. Running the same seeded workload with compaction on and off produces
//!    *identical* per-replica delivery sequences (message ids and global
//!    timestamps): compaction at any watermark cadence is invisible to the
//!    delivered order.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;
use wbam::core::{ReplicaConfig, WhiteBoxMsg, WhiteBoxReplica};
use wbam::harness::{ClusterSpec, Protocol, ProtocolSim};
use wbam::kvstore::{KvCommand, KvStore};
use wbam::simnet::LatencyModel;
use wbam::types::{
    Action, AppMessage, Ballot, ClusterConfig, Destination, Event, GroupId, MsgId, Node, Payload,
    ProcessId, Timestamp,
};

fn arb_command() -> impl Strategy<Value = KvCommand> {
    let key = (0u32..5).prop_map(|k| format!("k{k}"));
    prop_oneof![
        (key.clone(), -100i64..100).prop_map(|(k, v)| KvCommand::put(&k, v)),
        (key.clone(), -10i64..10).prop_map(|(k, d)| KvCommand::add(&k, d)),
        key.clone().prop_map(|k| KvCommand::get(&k)),
        (key.clone(), key.clone(), 1i64..20).prop_map(|(a, b, v)| KvCommand::transfer(&a, &b, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// KV snapshot → restore yields an observably equivalent store, and the
    /// equivalence is preserved under further identical command streams.
    #[test]
    fn kv_snapshot_restore_is_observably_equivalent(
        before in proptest::collection::vec(arb_command(), 0..40),
        after in proptest::collection::vec(arb_command(), 0..20),
    ) {
        let mut original = KvStore::new(GroupId(0));
        for cmd in &before {
            original.apply(cmd);
        }
        let snap = original.to_snapshot();
        let bytes = snap.to_bytes().unwrap();
        let decoded = wbam::kvstore::KvSnapshot::from_bytes(&bytes).unwrap();
        let mut restored = KvStore::from_snapshot(decoded);
        prop_assert_eq!(restored.digest(), original.digest());
        prop_assert_eq!(restored.applied(), original.applied());
        for cmd in &after {
            let a = original.apply_read(cmd);
            let b = restored.apply_read(cmd);
            prop_assert_eq!(a, b, "divergence after restore on {:?}", cmd);
        }
        prop_assert_eq!(restored.digest(), original.digest());
    }
}

/// Builds a single-group (size 3) replica with compaction enabled.
fn standalone(id: u32, interval: u64, lag: usize) -> WhiteBoxReplica {
    let cluster = ClusterConfig::builder().groups(1, 3).clients(1).build();
    let cfg = ReplicaConfig::new(ProcessId(id), GroupId(0), cluster)
        .without_auto_election()
        .with_compaction(interval, lag);
    WhiteBoxReplica::new(cfg)
}

fn deliver_msg(seq: u64) -> WhiteBoxMsg {
    let m = AppMessage::new(
        MsgId::new(ProcessId(3), seq),
        Destination::single(GroupId(0)),
        Payload::from("op"),
    );
    WhiteBoxMsg::Deliver {
        msg: m.into(),
        ballot: Ballot::new(1, ProcessId(0)),
        local_ts: Timestamp::new(seq + 1, GroupId(0)),
        global_ts: Timestamp::new(seq + 1, GroupId(0)),
    }
}

/// Routes messages between two live replicas (every other recipient is
/// treated as crashed) until quiescent; returns each replica's application
/// deliveries, in order. FIFO processing keeps the exchange deterministic.
fn exchange(
    a: &mut WhiteBoxReplica,
    b: &mut WhiteBoxReplica,
    initial: Vec<(ProcessId, ProcessId, WhiteBoxMsg)>,
) -> BTreeMap<ProcessId, Vec<Timestamp>> {
    let mut queue: std::collections::VecDeque<(ProcessId, ProcessId, WhiteBoxMsg)> = initial.into();
    let mut delivered: BTreeMap<ProcessId, Vec<Timestamp>> = BTreeMap::new();
    let mut steps = 0u32;
    while let Some((from, to, msg)) = queue.pop_front() {
        steps += 1;
        assert!(steps < 100_000, "exchange did not quiesce");
        let node: &mut WhiteBoxReplica = if to == a.id() {
            a
        } else if to == b.id() {
            b
        } else {
            continue; // crashed member
        };
        for action in node.on_event(Duration::ZERO, Event::message(from, msg.clone())) {
            match action {
                Action::Send { to: next, msg } => queue.push_back((to, next, msg)),
                Action::Deliver(d) => delivered
                    .entry(to)
                    .or_default()
                    .push(d.global_ts.expect("replica deliveries carry a timestamp")),
                _ => {}
            }
        }
    }
    delivered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint + suffix restore through the real NEW_LEADER / NEW_STATE
    /// wire path: a fresh group member that recovers from a peer holding
    /// compacted history ends up with the peer's watermark, a delivery
    /// progress jumped to it (the pruned prefix is installed, not replayed),
    /// and a re-delivery of exactly the resident suffix in timestamp order.
    #[test]
    fn checkpoint_and_suffix_restore_an_equivalent_replica(
        delivered in 10u64..120,
        watermark in 1u64..100,
        lag in 0usize..8,
    ) {
        let watermark = watermark.min(delivered);
        // Peer A: a follower that delivered `delivered` messages and pruned
        // below `watermark` (driven by an explicit STABLE_ADVANCE).
        let mut a = standalone(1, 10, lag);
        for seq in 0..delivered {
            a.on_event(Duration::ZERO, Event::message(ProcessId(0), deliver_msg(seq)));
        }
        let mut watermarks = BTreeMap::new();
        watermarks.insert(GroupId(0), Timestamp::new(watermark, GroupId(0)));
        a.on_event(
            Duration::ZERO,
            Event::message(ProcessId(0), WhiteBoxMsg::StableAdvance { watermarks }),
        );
        let own_watermark = a.progress().watermark(GroupId(0));
        prop_assert_eq!(own_watermark, Timestamp::new(watermark, GroupId(0)));
        let expected_live = ((delivered - watermark) as usize).max(lag.min(delivered as usize));
        prop_assert_eq!(a.live_records(), expected_live);

        // B: a fresh member campaigning; its recovery quorum is {A, B} (the
        // third member stays crashed). B recovers through the real wire path:
        // NEW_LEADER → NEWLEADER_ACK (checkpoint + suffix) → NEW_STATE →
        // NEWSTATE_ACK → line-66 re-delivery.
        let mut b = standalone(2, 10, lag);
        let campaign = b.on_event(Duration::ZERO, Event::BecomeLeader);
        let initial: Vec<(ProcessId, ProcessId, WhiteBoxMsg)> = campaign
            .into_iter()
            .filter_map(|act| match act {
                Action::Send { to, msg } => Some((ProcessId(2), to, msg)),
                _ => None,
            })
            .collect();
        let deliveries = exchange(&mut a, &mut b, initial);
        let completion = deliveries.get(&ProcessId(2)).cloned().unwrap_or_default();
        prop_assert!(
            !deliveries.contains_key(&ProcessId(1)),
            "A must not re-deliver anything it already delivered"
        );

        // Observable equivalence.
        let (ca, cb) = (a.progress(), b.progress());
        prop_assert_eq!(cb.watermark(GroupId(0)), ca.watermark(GroupId(0)), "watermarks agree");
        prop_assert!(cb.transfer_recoveries() >= 1, "B recovered via state transfer");
        prop_assert_eq!(
            cb.transfer_excused_below(),
            Timestamp::new(watermark, GroupId(0)),
            "B's installed history is exactly the pruned prefix"
        );
        prop_assert_eq!(
            b.progress().max_delivered_gts(),
            a.progress().max_delivered_gts(),
            "B's delivery progress catches up to A's"
        );
        // B re-delivered exactly the suffix above the watermark, in order.
        let expected: Vec<Timestamp> = ((watermark + 1)..=delivered)
            .map(|t| Timestamp::new(t, GroupId(0)))
            .collect();
        prop_assert_eq!(completion, expected, "suffix re-delivery matches");
    }
}

/// Runs a seeded workload and returns every replica's delivery sequence
/// (message id + global timestamp, in delivery order) plus completions.
type Sequences = BTreeMap<ProcessId, Vec<(MsgId, Timestamp)>>;

fn run_twin(
    protocol: Protocol,
    seed: u64,
    messages: usize,
    compaction: Option<(u64, usize)>,
) -> (Sequences, usize) {
    let mut spec = ClusterSpec {
        num_groups: 3,
        group_size: 3,
        num_clients: 2,
        num_sites: 1,
        latency: LatencyModel::constant(Duration::from_millis(1)),
        service_time: Duration::ZERO,
        seed,
        nemesis: wbam::types::NemesisPlan::quiet(),
        record_trace: false,
        auto_election: false,
        compaction_interval: 0,
        compaction_lag: 0,
    };
    if let Some((interval, lag)) = compaction {
        spec = spec.with_compaction(interval, lag);
    }
    let mut sim = ProtocolSim::build(protocol, &spec);
    // A deterministic function of (seed, i) picks destinations and times —
    // identical across the twin runs by construction.
    for i in 0..messages {
        let mix = (seed as usize).wrapping_add(i.wrapping_mul(2_654_435_761)) % 7;
        let dest: Vec<GroupId> = match mix {
            0..=2 => vec![GroupId((i % 3) as u32)],
            3 | 4 => vec![GroupId((i % 3) as u32), GroupId(((i + 1) % 3) as u32)],
            _ => vec![GroupId(0), GroupId(1), GroupId(2)],
        };
        let at = Duration::from_micros(200) * (i as u32);
        sim.submit(at, i % 2, &dest, 16);
    }
    sim.run_until_quiescent(Duration::from_secs(600));
    let mut sequences: Sequences = BTreeMap::new();
    let mut completions = 0usize;
    for rec in sim.deliveries() {
        match rec.group {
            None => completions += 1,
            Some(_) => sequences
                .entry(rec.process)
                .or_default()
                .push((rec.msg_id, rec.global_ts.unwrap_or(Timestamp::BOTTOM))),
        }
    }
    (sequences, completions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Compaction at random cadences never changes the delivered order: the
    /// compacted run's per-replica delivery sequences are byte-for-byte the
    /// uncompacted twin's on the same seed.
    #[test]
    fn compaction_never_changes_the_delivered_order(
        seed in 0u64..200,
        messages in 30usize..140,
        interval in 1u64..40,
        lag in 0usize..30,
        protocol_pick in 0usize..3,
    ) {
        let protocol = Protocol::evaluated()[protocol_pick];
        let (plain, plain_done) = run_twin(protocol, seed, messages, None);
        let (compacted, compacted_done) = run_twin(protocol, seed, messages, Some((interval, lag)));
        prop_assert_eq!(plain_done, compacted_done, "completions diverged");
        prop_assert_eq!(plain, compacted, "delivery sequences diverged");
    }
}
