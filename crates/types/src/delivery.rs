//! Skeen's delivery rule, which every protocol in the workspace shares.
//!
//! A committed message is delivered, in global-timestamp order, once no
//! pending message can still receive a smaller global timestamp (Figure 4,
//! line 21 of the paper). A pending message's global timestamp is at least
//! its local one, so the rule compares the smallest pending local timestamp
//! with the smallest committed global timestamp. [`DeliveryQueue`] keeps both
//! as ordered sets: O(log n) per delivery instead of a scan of every record.
//! The rule is safe only if no process proposes a local timestamp at or below
//! a global timestamp it has released, so the queue also owns the Lamport
//! clock, and its release moves the clock past what it yields.

use std::collections::BTreeSet;

use crate::ids::{GroupId, MsgId};
use crate::timestamp::Timestamp;

/// One replica's Lamport clock, pending local timestamps and
/// committed-but-undelivered global timestamps. Each protocol decides what
/// "pending" means for its records and keeps the queue in step with them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryQueue {
    /// Past every local timestamp proposed and every timestamp observed.
    clock: u64,
    /// `(local timestamp, id)` of every pending message.
    pending: BTreeSet<(Timestamp, MsgId)>,
    /// `(global timestamp, id)` of every committed, undelivered message.
    committed: BTreeSet<(Timestamp, MsgId)>,
}

impl DeliveryQueue {
    /// An empty queue whose clock reads zero.
    pub fn new() -> Self {
        DeliveryQueue::default()
    }

    /// The clock: local timestamps are proposed above it.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Bumps the clock and returns the new local timestamp of `group`
    /// (Figure 4, lines 5–8); the caller pends it.
    pub fn propose(&mut self, group: GroupId) -> Timestamp {
        self.clock += 1;
        Timestamp::new(self.clock, group)
    }

    /// Advances the clock to at least `time`: a timestamp learnt or
    /// committed, or a checkpoint's clock.
    pub fn observe(&mut self, time: u64) {
        self.clock = self.clock.max(time);
    }

    /// Marks `id` pending at local timestamp `lts`.
    pub fn pend(&mut self, lts: Timestamp, id: MsgId) {
        self.pending.insert((lts, id));
    }

    /// Removes the pending entry `(lts, id)`, if present.
    pub fn unpend(&mut self, lts: Timestamp, id: MsgId) {
        self.pending.remove(&(lts, id));
    }

    /// Makes `id` a delivery candidate at global timestamp `gts`.
    pub fn commit(&mut self, gts: Timestamp, id: MsgId) {
        self.committed.insert((gts, id));
    }

    /// Removes the candidate `(gts, id)` without delivering it, if present.
    pub fn forget(&mut self, gts: Timestamp, id: MsgId) {
        self.committed.remove(&(gts, id));
    }

    /// The pending messages, in local-timestamp order.
    pub fn pending(&self) -> impl Iterator<Item = MsgId> + '_ {
        self.pending.iter().map(|&(_, id)| id)
    }

    /// The delivery candidates, in delivery order.
    pub fn committed(&self) -> impl Iterator<Item = (Timestamp, MsgId)> + '_ {
        self.committed.iter().copied()
    }

    /// Removes and yields the candidates in `(gts, id)` order while no
    /// pending local timestamp is at or below theirs and `gate(id)` holds,
    /// observing each one yielded. The first candidate that fails either
    /// test blocks all later ones. A yielded candidate the caller does not
    /// deliver, it re-commits.
    pub fn pop_deliverable<'a>(
        &'a mut self,
        mut gate: impl FnMut(MsgId) -> bool + 'a,
    ) -> impl Iterator<Item = (Timestamp, MsgId)> + 'a {
        let min_pending = self.pending.first().map(|&(lts, _)| lts);
        std::iter::from_fn(move || {
            let &(gts, id) = self.committed.first()?;
            if min_pending.is_some_and(|lts| lts <= gts) || !gate(id) {
                return None;
            }
            self.observe(gts.time());
            self.committed.pop_first()
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::ids::{GroupId, ProcessId};

    fn id(n: u64) -> MsgId {
        MsgId::new(ProcessId(7), n)
    }

    fn ts(time: u64, group: u32) -> Timestamp {
        Timestamp::new(time, GroupId(group))
    }

    /// What the reference model knows of one message.
    #[derive(Debug, Default, Clone, Copy)]
    struct Rec {
        pending: Option<Timestamp>,
        committed: Option<Timestamp>,
    }

    /// The record scan the queue replaces: the minimum pending local
    /// timestamp over every record, then the committed records in
    /// `(gts, id)` order until one is blocked by it or by the gate.
    fn scan_deliver(model: &mut BTreeMap<MsgId, Rec>, gate: impl Fn(MsgId) -> bool) -> Vec<MsgId> {
        let min_pending = model.values().filter_map(|r| r.pending).min();
        let mut candidates: Vec<(Timestamp, MsgId)> = model
            .iter()
            .filter_map(|(id, r)| r.committed.map(|gts| (gts, *id)))
            .collect();
        candidates.sort();
        let mut delivered = Vec::new();
        for (gts, id) in candidates {
            if min_pending.is_some_and(|p| p <= gts) || !gate(id) {
                break;
            }
            model.remove(&id);
            delivered.push(id);
        }
        delivered
    }

    /// One step: `(kind, message, (time, group), gate mask)`.
    type Op = (u8, u64, (u64, u32), u8);

    fn op() -> impl Strategy<Value = Op> {
        (0u8..6, 0u64..8, (1u64..12, 0u32..3), 0u8..=255)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// The queue and the record scan deliver the same messages in the
        /// same order under any interleaving of pends, unpends, commits,
        /// forgets and gated delivery attempts.
        #[test]
        fn queue_delivers_exactly_what_the_record_scan_delivers(
            ops in prop::collection::vec(op(), 1..80),
        ) {
            let mut queue = DeliveryQueue::new();
            let mut model: BTreeMap<MsgId, Rec> = BTreeMap::new();
            for (kind, n, (time, group), mask) in ops {
                let m = id(n);
                let at = ts(time, group);
                let rec = model.entry(m).or_default();
                match kind {
                    // A fresh message becomes pending.
                    0 => {
                        if rec.pending.is_none() && rec.committed.is_none() {
                            rec.pending = Some(at);
                            queue.pend(at, m);
                        }
                    }
                    // A pending message moves to another local timestamp.
                    1 => {
                        if let Some(old) = rec.pending.take() {
                            queue.unpend(old, m);
                            rec.pending = Some(at);
                            queue.pend(at, m);
                        }
                    }
                    // A pending message is dropped.
                    2 => {
                        if let Some(old) = rec.pending.take() {
                            queue.unpend(old, m);
                        }
                    }
                    // A message commits (leaving the pending set).
                    3 => {
                        if let Some(old) = rec.pending.take() {
                            queue.unpend(old, m);
                        }
                        if let Some(old) = rec.committed.replace(at) {
                            queue.forget(old, m);
                        }
                        queue.commit(at, m);
                    }
                    // A candidate is dropped without delivery.
                    4 => {
                        if let Some(old) = rec.committed.take() {
                            queue.forget(old, m);
                        }
                    }
                    // A delivery attempt: the gate blocks the messages whose
                    // bit is set in `mask`.
                    _ => {
                        let gate = |id: MsgId| mask & (1 << id.seq) == 0;
                        let popped: Vec<MsgId> =
                            queue.pop_deliverable(gate).map(|(_, id)| id).collect();
                        prop_assert_eq!(popped, scan_deliver(&mut model, gate));
                    }
                }
                model.retain(|_, r| r.pending.is_some() || r.committed.is_some());
            }
            // Drain what is left with an open gate: still the same.
            let popped: Vec<MsgId> = queue.pop_deliverable(|_| true).map(|(_, id)| id).collect();
            prop_assert_eq!(popped, scan_deliver(&mut model, |_| true));
        }

        /// Skeen's safety condition holds by construction: under any
        /// interleaving of proposals, observed timestamps, commits, gated
        /// releases and installs, every proposed local timestamp is above
        /// every global timestamp released before it.
        #[test]
        fn no_proposal_is_at_or_below_a_released_global_timestamp(
            ops in prop::collection::vec(op(), 1..80),
        ) {
            let mut queue = DeliveryQueue::new();
            let mut pending: BTreeMap<MsgId, Timestamp> = BTreeMap::new();
            let mut released = Timestamp::BOTTOM;
            for (kind, n, (time, group), mask) in ops {
                let m = id(n);
                match kind {
                    // A fresh message is proposed and pends.
                    0 | 5 => {
                        if let Entry::Vacant(slot) = pending.entry(m) {
                            let lts = queue.propose(GroupId(group));
                            prop_assert!(lts > released, "{lts} proposed after releasing {released}");
                            queue.pend(lts, m);
                            slot.insert(lts);
                        }
                    }
                    // A timestamp learnt from a peer.
                    1 => queue.observe(time),
                    // A pending message commits; another destination group's
                    // proposal may put its global timestamp above any clock.
                    2 => {
                        if let Some(lts) = pending.remove(&m) {
                            queue.unpend(lts, m);
                            queue.commit(lts.max(ts(time, group)), m);
                        }
                    }
                    // A gated release.
                    3 => {
                        let gate = |id: MsgId| mask & (1 << id.seq) == 0;
                        for (gts, _) in queue.pop_deliverable(gate) {
                            released = released.max(gts);
                        }
                    }
                    // A new ballot's state, installed from this replica's
                    // checkpoint merged with a voter's: a fresh queue with
                    // the merged clock and the same entries.
                    _ => {
                        let mut fresh = DeliveryQueue::new();
                        fresh.observe(queue.clock().max(time));
                        for (&m, &lts) in &pending {
                            fresh.pend(lts, m);
                        }
                        for (gts, m) in queue.committed() {
                            fresh.commit(gts, m);
                        }
                        queue = fresh;
                    }
                }
            }
        }
    }

    #[test]
    fn a_pending_timestamp_equal_to_a_candidate_blocks_it() {
        let mut q = DeliveryQueue::new();
        q.pend(ts(3, 0), id(0));
        q.commit(ts(3, 0), id(1));
        assert_eq!(q.pop_deliverable(|_| true).count(), 0);
        q.unpend(ts(3, 0), id(0));
        assert_eq!(
            q.pop_deliverable(|_| true).collect::<Vec<_>>(),
            vec![(ts(3, 0), id(1))]
        );
    }

    #[test]
    fn a_closed_gate_blocks_every_later_candidate() {
        let mut q = DeliveryQueue::new();
        for n in 0..3 {
            q.commit(ts(n + 1, 0), id(n));
        }
        let popped: Vec<MsgId> = q.pop_deliverable(|m| m != id(1)).map(|(_, m)| m).collect();
        assert_eq!(popped, vec![id(0)]);
        assert_eq!(q.committed().count(), 2, "blocked candidates stay queued");
    }
}
