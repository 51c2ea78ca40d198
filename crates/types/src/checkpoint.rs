//! Checkpoints and the bounded delivered-message filter used by log
//! compaction.
//!
//! A replica that serves heavy traffic cannot keep a `MessageRecord` per
//! multicast forever: the record map, the delivery-condition indexes and the
//! durable state a restarted replica replays all grow without bound. The
//! compaction subsystem prunes records below a *delivery watermark* — the
//! low-water mark of global timestamps below which every record is known to
//! be delivered at **all** members of **every** destination group — and
//! periodically captures the surviving state in a [`Checkpoint`]. Recovery
//! then ships `checkpoint + suffix` instead of replaying per-message history.
//!
//! Two pieces live here because every protocol in the workspace shares them:
//!
//! * [`Checkpoint`] — the ordering-layer state at a watermark: ballot, clock,
//!   per-group watermarks, delivery progress, the delivered-message filter
//!   and an opaque application snapshot (for example a serialized
//!   `wbam_kvstore` store).
//! * [`DeliveredFilter`] — a bounded-memory record of *which* messages have
//!   been delivered, kept as per-sender runs of sequence numbers. Once a
//!   record is pruned, a late duplicate `MULTICAST` can no longer be answered
//!   from the record map; the filter is what keeps such duplicates from being
//!   re-proposed (and delivered twice). Clients allocate sequence numbers
//!   contiguously, so a sender whose every message is addressed to this
//!   group collapses into one run no matter how many messages have been
//!   delivered; a sender that also addresses other groups leaves one run per
//!   gap (see [`DeliveredFilter::run_count`]).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::ballot::Ballot;
use crate::ids::{GroupId, MsgId, ProcessId};
use crate::timestamp::Timestamp;

/// Set of delivered message identifiers, stored as sorted, disjoint,
/// non-adjacent, inclusive runs of sequence numbers per sender. Lookups and
/// insertions find their run by binary search, so their cost does not grow
/// with the number of messages delivered; the memory does, by one run per
/// gap a sender leaves in its sequence numbers as seen by this group.
///
/// ```
/// use wbam_types::{DeliveredFilter, MsgId, ProcessId};
/// let mut f = DeliveredFilter::new();
/// f.insert(MsgId::new(ProcessId(7), 0));
/// f.insert(MsgId::new(ProcessId(7), 1));
/// f.insert(MsgId::new(ProcessId(7), 2));
/// assert!(f.contains(MsgId::new(ProcessId(7), 1)));
/// assert!(!f.contains(MsgId::new(ProcessId(7), 3)));
/// assert_eq!(f.run_count(), 1); // contiguous seqs collapse into one run
/// // A sequence number this group never sees (the message went to another
/// // group) leaves a gap, and the gap stays: one more run, for good.
/// f.insert(MsgId::new(ProcessId(7), 4));
/// assert_eq!(f.run_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DeliveredFilter {
    /// Per sender: sorted, disjoint, inclusive `(start, end)` runs.
    runs: BTreeMap<ProcessId, Vec<(u64, u64)>>,
}

impl DeliveredFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        DeliveredFilter::default()
    }

    /// Records `id` as delivered.
    ///
    /// Binary search plus, only when a run is created or removed away from
    /// the end, one shift of the runs above it. Deliveries follow a sender's
    /// sequence order closely, so that shift touches a handful of runs.
    pub fn insert(&mut self, id: MsgId) {
        let runs = self.runs.entry(id.sender).or_default();
        let seq = id.seq;
        // The first run that ends at or after `seq - 1`: the run that covers
        // `seq`, or can be extended to it, or the first one above it.
        let idx = runs.partition_point(|&(_, end)| end.saturating_add(1) < seq);
        if idx == runs.len() {
            runs.push((seq, seq));
            return;
        }
        let (start, end) = runs[idx];
        if seq >= start && seq <= end {
            return; // already covered
        }
        if seq.saturating_add(1) == start {
            runs[idx].0 = seq;
        } else if seq == end.saturating_add(1) {
            runs[idx].1 = seq;
            // Merge with the next run if the gap closed.
            if idx + 1 < runs.len() && runs[idx + 1].0 == seq.saturating_add(1) {
                runs[idx].1 = runs[idx + 1].1;
                runs.remove(idx + 1);
            }
        } else {
            runs.insert(idx, (seq, seq));
        }
    }

    /// Whether `id` has been recorded as delivered.
    pub fn contains(&self, id: MsgId) -> bool {
        self.runs.get(&id.sender).is_some_and(|runs| {
            // The only run that can cover `seq` is the first ending at or
            // after it.
            let idx = runs.partition_point(|&(_, end)| end < id.seq);
            runs.get(idx).is_some_and(|&(start, _)| start <= id.seq)
        })
    }

    /// Merges another filter into this one (set union). Used when installing
    /// a peer's checkpoint: everything the peer knows delivered is delivered.
    /// Costs O(runs), not O(covered sequence numbers) — merges happen on
    /// every recovery, over filters spanning the whole delivered history.
    pub fn merge(&mut self, other: &DeliveredFilter) {
        for (sender, other_runs) in &other.runs {
            let runs = self.runs.entry(*sender).or_default();
            if runs.is_empty() {
                *runs = other_runs.clone();
                continue;
            }
            // Merge the two sorted, disjoint run lists, coalescing runs that
            // overlap or touch (end + 1 == start).
            let mut merged: Vec<(u64, u64)> = Vec::with_capacity(runs.len() + other_runs.len());
            let mut a = runs.iter().peekable();
            let mut b = other_runs.iter().peekable();
            loop {
                let next = match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) => {
                        if x.0 <= y.0 {
                            *a.next().expect("peeked")
                        } else {
                            *b.next().expect("peeked")
                        }
                    }
                    (Some(_), None) => *a.next().expect("peeked"),
                    (None, Some(_)) => *b.next().expect("peeked"),
                    (None, None) => break,
                };
                match merged.last_mut() {
                    Some(last) if next.0 <= last.1.saturating_add(1) => {
                        last.1 = last.1.max(next.1);
                    }
                    _ => merged.push(next),
                }
            }
            *runs = merged;
        }
    }

    /// Total number of runs across all senders — the filter's actual memory
    /// footprint, 16 bytes each, in memory and inside every [`Checkpoint`].
    ///
    /// Contiguous sequence numbers collapse, so a sender that addresses only
    /// this group costs one run however long it runs. A sender that also
    /// addresses other groups leaves a gap at each message this group never
    /// sees, and nothing closes it: the count grows by one per such gap for
    /// the life of the deployment and compaction does not shrink it. At
    /// about ten bytes a run in the binary codec, some 1.6 million runs no
    /// longer fit a wire frame ([`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN)),
    /// and a `NEW_STATE` carrying the checkpoint cannot be encoded. Bounding
    /// the count is open work (ROADMAP, channel-contract item).
    pub fn run_count(&self) -> usize {
        self.runs.values().map(Vec::len).sum()
    }

    /// Whether the filter is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// A compaction checkpoint: everything a replica needs to resume ordering
/// from a delivery watermark without the per-message history below it.
///
/// The white-box protocol ships a checkpoint inside `NEW_STATE` (recovery
/// becomes *state transfer*: checkpoint + record suffix); the baselines ship
/// one in their catch-up reply together with the surviving consensus-log
/// suffix. `app_state` is an opaque application snapshot — the ordering layer
/// never interprets it (the key-value store serialises its
/// `KvSnapshot` into it; other applications can store whatever they replay
/// from).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The group of the replica that took the checkpoint.
    pub group: GroupId,
    /// The ballot the replica was synchronised with.
    pub ballot: Ballot,
    /// The replica's logical clock.
    pub clock: u64,
    /// Every group's delivery watermark as known to the replica: all records
    /// with `global_ts <= watermarks[g]` are delivered at every member of
    /// `g`. A record may be pruned only when covered by the watermark of
    /// **every** destination group.
    pub watermarks: BTreeMap<GroupId, Timestamp>,
    /// The replica's own delivery progress.
    pub max_delivered_gts: Timestamp,
    /// Number of application messages delivered.
    pub delivered_count: u64,
    /// The delivered-message filter at the checkpoint.
    pub dedup: DeliveredFilter,
    /// Opaque application snapshot (e.g. a serialized key-value store).
    pub app_state: Vec<u8>,
}

impl Checkpoint {
    /// The checkpointing group's own watermark ([`Timestamp::BOTTOM`] if the
    /// watermark never advanced).
    pub fn own_watermark(&self) -> Timestamp {
        self.watermarks
            .get(&self.group)
            .copied()
            .unwrap_or(Timestamp::BOTTOM)
    }

    /// Merges `other`'s watermark knowledge into this checkpoint (pointwise
    /// maximum — watermarks only ever advance).
    pub fn merge_watermarks(&mut self, other: &BTreeMap<GroupId, Timestamp>) {
        merge_watermarks(&mut self.watermarks, other);
    }
}

/// Merges watermark knowledge pointwise by maximum (watermarks only ever
/// advance) and reports whether anything changed. The shared primitive of
/// every `STABLE_ADVANCE` / checkpoint-install merge in the workspace.
pub fn merge_watermarks(
    into: &mut BTreeMap<GroupId, Timestamp>,
    from: &BTreeMap<GroupId, Timestamp>,
) -> bool {
    let mut changed = false;
    for (g, ts) in from {
        let entry = into.entry(*g).or_insert(Timestamp::BOTTOM);
        if *ts > *entry {
            *entry = *ts;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    fn id(sender: u32, seq: u64) -> MsgId {
        MsgId::new(ProcessId(sender), seq)
    }

    #[test]
    fn contiguous_inserts_collapse_into_one_run() {
        let mut f = DeliveredFilter::new();
        for seq in 0..1000 {
            f.insert(id(1, seq));
        }
        assert_eq!(f.run_count(), 1);
        assert!(f.contains(id(1, 0)));
        assert!(f.contains(id(1, 999)));
        assert!(!f.contains(id(1, 1000)));
        assert!(!f.contains(id(2, 0)));
    }

    #[test]
    fn out_of_order_inserts_merge_runs() {
        let mut f = DeliveredFilter::new();
        f.insert(id(1, 0));
        f.insert(id(1, 2));
        assert_eq!(f.run_count(), 2);
        f.insert(id(1, 1)); // closes the gap
        assert_eq!(f.run_count(), 1);
        assert!(f.contains(id(1, 1)));
        // Duplicates are idempotent.
        f.insert(id(1, 1));
        assert_eq!(f.run_count(), 1);
    }

    #[test]
    fn prepending_extends_a_run_backwards() {
        let mut f = DeliveredFilter::new();
        f.insert(id(3, 5));
        f.insert(id(3, 4));
        assert_eq!(f.run_count(), 1);
        assert!(f.contains(id(3, 4)));
        assert!(!f.contains(id(3, 3)));
    }

    #[test]
    fn merge_is_set_union() {
        let mut a = DeliveredFilter::new();
        a.insert(id(1, 0));
        a.insert(id(1, 1));
        let mut b = DeliveredFilter::new();
        b.insert(id(1, 2));
        b.insert(id(2, 7));
        a.merge(&b);
        assert!(a.contains(id(1, 2)));
        assert!(a.contains(id(2, 7)));
        assert_eq!(a.run_count(), 2, "1's runs merged, 2 separate");
    }

    #[test]
    fn merge_coalesces_overlapping_and_interleaved_runs() {
        // a: [0..=4], [10..=12], [20..=20]; b: [3..=11], [14..=14], [21..=30]
        let mut a = DeliveredFilter::new();
        for seq in (0..=4).chain(10..=12).chain(20..=20) {
            a.insert(id(1, seq));
        }
        let mut b = DeliveredFilter::new();
        for seq in (3..=11).chain(14..=14).chain(21..=30) {
            b.insert(id(1, seq));
        }
        a.merge(&b);
        // Union: [0..=12], [14..=14], [20..=30].
        assert_eq!(a.run_count(), 3);
        for seq in (0..=12).chain(14..=14).chain(20..=30) {
            assert!(a.contains(id(1, seq)), "missing seq {seq}");
        }
        assert!(!a.contains(id(1, 13)));
        assert!(!a.contains(id(1, 19)));
        assert!(!a.contains(id(1, 31)));
        // Merging into an empty per-sender list clones wholesale.
        let mut c = DeliveredFilter::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    /// The sequence numbers the model test draws from: a dense band (runs
    /// touch, merge and split constantly) plus both ends of `u64`.
    const EDGE_SEQS: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX];
    const BAND: std::ops::Range<u64> = 10..40;

    fn arb_seq() -> impl Strategy<Value = u64> {
        prop_oneof![BAND, (0usize..EDGE_SEQS.len()).prop_map(|i| EDGE_SEQS[i])]
    }

    /// One step against a filter: the ids to insert directly, or to build
    /// into a second filter and `merge` in.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(Vec<MsgId>),
        Merge(Vec<MsgId>),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let one = (0u32..3, arb_seq()).prop_map(|(s, q)| vec![id(s, q)]);
        let ascending = (0u32..3, BAND, 1u64..8)
            .prop_map(|(s, from, n)| (from..from + n).map(|q| id(s, q)).collect::<Vec<_>>());
        let descending = (0u32..3, BAND, 1u64..8)
            .prop_map(|(s, from, n)| (from..from + n).rev().map(|q| id(s, q)).collect::<Vec<_>>());
        let scattered = prop::collection::vec((0u32..3, arb_seq()), 0..12)
            .prop_map(|v| v.into_iter().map(|(s, q)| id(s, q)).collect::<Vec<_>>());
        prop_oneof![
            one.prop_map(Step::Insert),
            ascending.prop_map(Step::Insert),
            descending.prop_map(Step::Insert),
            scattered.prop_map(Step::Merge),
        ]
    }

    /// Runs are sorted, disjoint and non-adjacent, and `contains` agrees with
    /// the model on every sequence number inside, between and beyond them.
    fn assert_matches_model(f: &DeliveredFilter, model: &BTreeSet<(ProcessId, u64)>) {
        for (sender, runs) in &f.runs {
            assert!(!runs.is_empty(), "{sender:?} holds an empty run list");
            for (start, end) in runs {
                assert!(start <= end, "{sender:?}: inverted run {start}..={end}");
            }
            for pair in runs.windows(2) {
                let (below, above) = (pair[0], pair[1]);
                assert!(
                    below.1 < u64::MAX && below.1 + 1 < above.0,
                    "{sender:?}: runs {below:?} and {above:?} overlap, touch or are unsorted"
                );
            }
        }
        for sender in 0..4 {
            for seq in (BAND.start - 2..BAND.end + 10).chain(EDGE_SEQS) {
                assert_eq!(
                    f.contains(id(sender, seq)),
                    model.contains(&(ProcessId(sender), seq)),
                    "sender {sender} seq {seq}"
                );
            }
        }
        let covered: u128 = f
            .runs
            .values()
            .flatten()
            .map(|(start, end)| u128::from(end - start) + 1)
            .sum();
        assert_eq!(covered, model.len() as u128, "runs cover exactly the model");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Model-based: any interleaving of inserts (single, ascending,
        /// descending, gap-closing, duplicate, `0` and `u64::MAX`) and merges
        /// of independently built filters behaves as a `BTreeSet` of ids.
        #[test]
        fn filter_behaves_as_a_set_of_ids(steps in prop::collection::vec(arb_step(), 1..40)) {
            let mut filter = DeliveredFilter::new();
            let mut model = BTreeSet::new();
            for step in steps {
                match step {
                    Step::Insert(ids) => {
                        for m in ids {
                            filter.insert(m);
                            model.insert((m.sender, m.seq));
                            assert_matches_model(&filter, &model);
                        }
                    }
                    Step::Merge(ids) => {
                        let mut other = DeliveredFilter::new();
                        for m in &ids {
                            other.insert(*m);
                            model.insert((m.sender, m.seq));
                        }
                        filter.merge(&other);
                        assert_matches_model(&filter, &model);
                    }
                }
            }
        }
    }

    /// Cost regression: a sender that leaves a gap after every delivered
    /// message (200k runs at the end, 100k on average) must not make each
    /// operation walk the runs. A linear walk is ~10¹⁰ steps here; the
    /// binary search finishes in tens of milliseconds unoptimised, so 2 s
    /// separates the two by two orders of magnitude either way.
    #[test]
    fn cost_does_not_grow_with_the_number_of_runs() {
        let started = std::time::Instant::now();
        let mut f = DeliveredFilter::new();
        let mut hits = 0u64;
        for i in 0..200_000u64 {
            f.insert(id(1, 2 * i));
            // Probe delivered and undelivered numbers all over the history.
            hits += u64::from(f.contains(id(1, (i * 7919) % (2 * i + 2))));
        }
        assert_eq!(f.run_count(), 200_000);
        assert!(hits > 0 && hits < 200_000);
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_secs(2),
            "200k inserts and 200k probes over up to 200k runs took {took:?}"
        );
    }

    #[test]
    fn checkpoint_watermark_accessors() {
        let mut cp = Checkpoint {
            group: GroupId(1),
            ..Checkpoint::default()
        };
        assert_eq!(cp.own_watermark(), Timestamp::BOTTOM);
        let mut update = BTreeMap::new();
        update.insert(GroupId(1), Timestamp::new(5, GroupId(1)));
        update.insert(GroupId(0), Timestamp::new(3, GroupId(0)));
        cp.merge_watermarks(&update);
        assert_eq!(cp.own_watermark(), Timestamp::new(5, GroupId(1)));
        // Merging an older watermark never regresses.
        let mut stale = BTreeMap::new();
        stale.insert(GroupId(1), Timestamp::new(2, GroupId(1)));
        cp.merge_watermarks(&stale);
        assert_eq!(cp.own_watermark(), Timestamp::new(5, GroupId(1)));
    }

    #[test]
    fn checkpoint_round_trips_through_serde() {
        let mut cp = Checkpoint {
            group: GroupId(0),
            ballot: Ballot::new(3, ProcessId(1)),
            clock: 42,
            max_delivered_gts: Timestamp::new(9, GroupId(0)),
            delivered_count: 12,
            app_state: vec![1, 2, 3],
            ..Checkpoint::default()
        };
        cp.dedup.insert(id(5, 0));
        cp.watermarks
            .insert(GroupId(0), Timestamp::new(9, GroupId(0)));
        let json = serde_json::to_string(&cp).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(cp, back);
    }
}
