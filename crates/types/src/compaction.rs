//! The `STABLE` compaction engine of the fault-tolerant protocols.
//!
//! Every `interval` deliveries a follower reports its delivery progress to
//! its leader (`STABLE_REPORT`); the leader recomputes its group's watermark
//! and sends every watermark it knows (`STABLE_ADVANCE`) to its followers and
//! the other leaders; every replica prunes the delivered records that each
//! destination group's watermark covers.

use std::collections::{BTreeMap, BTreeSet};

use crate::checkpoint::merge_watermarks;
use crate::ids::{GroupId, MsgId, ProcessId};
use crate::message::Destination;
use crate::record_map::RecordMap;
use crate::timestamp::Timestamp;

/// One replica's compaction state: cadence, member progress, watermarks,
/// the delivered records not yet pruned, and counters for the test oracles.
#[derive(Debug, Clone, Default)]
pub struct Compaction {
    /// Deliveries between `STABLE` rounds; zero disables compaction.
    interval: u64,
    /// Delivered records kept resident below the watermark.
    lag: usize,
    /// Deliveries since the last report or recompute.
    since_report: u64,
    /// Leader only: the latest delivery progress of each group member.
    progress: BTreeMap<ProcessId, Timestamp>,
    /// Every group's watermark as known here: all records with
    /// `global_ts <= watermarks[g]` are delivered at every member of `g`.
    watermarks: BTreeMap<GroupId, Timestamp>,
    /// Delivered, unpruned records in global-timestamp order.
    delivered: BTreeSet<(Timestamp, MsgId)>,
    pruned: u64,
    transfer_recoveries: u64,
    transfer_excused_below: Timestamp,
}

impl Compaction {
    /// A `STABLE` round every `interval` deliveries, keeping the `lag` most
    /// recent delivered records. A zero `interval` disables compaction.
    pub fn new(interval: u64, lag: usize) -> Self {
        Compaction {
            interval,
            lag,
            ..Compaction::default()
        }
    }

    /// Whether compaction is enabled.
    pub fn enabled(&self) -> bool {
        self.interval > 0
    }

    /// Notes a local delivery. Returns `true` every `interval` deliveries:
    /// the leader then recomputes its watermark, a follower reports.
    pub fn note_delivery(&mut self, gts: Timestamp, id: MsgId) -> bool {
        if !self.enabled() {
            return false;
        }
        self.delivered.insert((gts, id));
        self.since_report = (self.since_report + 1) % self.interval;
        self.since_report == 0
    }

    /// Indexes a delivered record for the prune scan without counting it.
    pub fn index_delivered(&mut self, gts: Timestamp, id: MsgId) {
        if self.enabled() {
            self.delivered.insert((gts, id));
        }
    }

    /// Rebuilds the prune-scan index after the record map was replaced.
    pub fn reindex(&mut self, delivered: impl IntoIterator<Item = (Timestamp, MsgId)>) {
        self.delivered.clear();
        if self.enabled() {
            self.delivered.extend(delivered);
        }
    }

    /// Leader: folds in a member's delivery progress (it only advances).
    pub fn record_progress(&mut self, member: ProcessId, delivered_gts: Timestamp) {
        let entry = self.progress.entry(member).or_insert(Timestamp::BOTTOM);
        *entry = (*entry).max(delivered_gts);
    }

    /// Leader: forgets member progress; members re-report within an interval.
    pub fn reset_progress(&mut self) {
        self.progress.clear();
    }

    /// Leader: recomputes `group`'s watermark as the `quorum`-th highest
    /// delivery progress over `members`, and reports whether it advanced.
    ///
    /// A quorum has then delivered everything at or below the watermark:
    /// delivery is in timestamp order, so progress is prefix-complete.
    /// Waiting for every member instead would let one crashed replica stall
    /// compaction forever. A minority member below the watermark catches up
    /// through checkpoint state transfer. And because any recovery quorum
    /// intersects the watermark quorum, everything pruned under the
    /// watermark stays known to any future leader, as a committed record or
    /// through the delivered filter.
    pub fn recompute(&mut self, group: GroupId, members: &[ProcessId], quorum: usize) -> bool {
        let mut progress: Vec<Timestamp> = members
            .iter()
            .map(|m| self.progress.get(m).copied().unwrap_or(Timestamp::BOTTOM))
            .collect();
        progress.sort_unstable_by(|a, b| b.cmp(a));
        let watermark = progress[quorum - 1];
        if watermark <= self.watermark(group) {
            return false;
        }
        self.watermarks.insert(group, watermark);
        true
    }

    /// Merges received watermarks (pointwise maximum) and reports whether
    /// anything changed. The merge is monotone over a finite lattice, so
    /// leaders that re-broadcast what they learnt eventually stop.
    pub fn merge(&mut self, watermarks: &BTreeMap<GroupId, Timestamp>) -> bool {
        merge_watermarks(&mut self.watermarks, watermarks)
    }

    /// `group`'s watermark as known here ([`Timestamp::BOTTOM`] at first).
    pub fn watermark(&self, group: GroupId) -> Timestamp {
        self.watermarks
            .get(&group)
            .copied()
            .unwrap_or(Timestamp::BOTTOM)
    }

    /// Every group's watermark as known here.
    pub fn watermarks(&self) -> &BTreeMap<GroupId, Timestamp> {
        &self.watermarks
    }

    /// State transfer: moves delivery `progress` below `group`'s watermark up
    /// to it. The history between is pruned at a quorum; it is installed
    /// from a checkpoint, not replayed, and the test oracles excuse it.
    pub fn jump(&mut self, group: GroupId, progress: &mut Timestamp) {
        let watermark = self.watermark(group);
        if *progress < watermark {
            self.transfer_recoveries += 1;
            self.transfer_excused_below = self.transfer_excused_below.max(watermark);
            *progress = watermark;
        }
    }

    /// Prunes the delivered records that every destination group's
    /// watermark covers, keeping the `lag` most recent. The scan walks the
    /// delivered index in global-timestamp order and stops at the first
    /// record not covered yet, so a call costs O(pruned), not O(resident).
    pub fn prune<R>(&mut self, records: &mut RecordMap<R>, dest: impl Fn(&R) -> &Destination) {
        if !self.enabled() {
            return;
        }
        while self.delivered.len() > self.lag {
            let &(gts, id) = self.delivered.first().expect("len checked above");
            // A record gone in a wholesale state replacement leaves a stale
            // index entry; drop it.
            let covered = records.get(&id).map_or(true, |record| {
                dest(record)
                    .iter()
                    .all(|g| self.watermarks.get(&g).is_some_and(|w| gts <= *w))
            });
            if !covered {
                break;
            }
            self.delivered.pop_first();
            if records.remove(&id).is_some() {
                self.pruned += 1;
            }
        }
    }

    /// Records pruned so far.
    pub fn pruned_count(&self) -> u64 {
        self.pruned
    }

    /// State transfers that jumped this replica's progress over pruned
    /// history.
    pub fn transfer_recoveries(&self) -> u64 {
        self.transfer_recoveries
    }

    /// The highest watermark a state transfer jumped this replica's progress
    /// to: deliveries at or below it were installed, not replayed.
    pub fn transfer_excused_below(&self) -> Timestamp {
        self.transfer_excused_below
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(time: u64) -> Timestamp {
        Timestamp::new(time, GroupId(0))
    }

    fn id(seq: u64) -> MsgId {
        MsgId::new(ProcessId(9), seq)
    }

    const MEMBERS: [ProcessId; 3] = [ProcessId(0), ProcessId(1), ProcessId(2)];

    fn dest(groups: &[u32]) -> Destination {
        Destination::new(groups.iter().map(|g| GroupId(*g))).expect("non-empty")
    }

    /// `n` delivered records addressed to `groups`, at global timestamps
    /// `1..=n`, indexed for the prune scan.
    fn delivered(c: &mut Compaction, n: u64, groups: &[u32]) -> RecordMap<Destination> {
        (1..=n)
            .map(|t| {
                c.note_delivery(ts(t), id(t));
                (id(t), dest(groups))
            })
            .collect()
    }

    #[test]
    fn a_silent_member_does_not_stall_the_watermark() {
        let mut c = Compaction::new(1, 0);
        c.record_progress(ProcessId(0), ts(9));
        c.record_progress(ProcessId(1), ts(6));
        // p2 never reports: the two-member quorum still moves the watermark.
        assert!(c.recompute(GroupId(0), &MEMBERS, 2));
        assert_eq!(c.watermark(GroupId(0)), ts(6));
        c.record_progress(ProcessId(1), ts(8));
        assert!(c.recompute(GroupId(0), &MEMBERS, 2));
        assert_eq!(c.watermark(GroupId(0)), ts(8));
        // Stale progress never moves it back, and an unchanged quorum
        // reports no advance.
        c.record_progress(ProcessId(1), ts(2));
        assert!(!c.recompute(GroupId(0), &MEMBERS, 2));
        assert_eq!(c.watermark(GroupId(0)), ts(8));
    }

    #[test]
    fn merge_is_monotone_and_idempotent() {
        let mut c = Compaction::new(1, 0);
        let update: BTreeMap<GroupId, Timestamp> =
            [(GroupId(0), ts(5)), (GroupId(1), ts(3))].into();
        assert!(c.merge(&update));
        assert!(
            !c.merge(&update),
            "merging the same map again changes nothing"
        );
        let stale: BTreeMap<GroupId, Timestamp> = [(GroupId(0), ts(2)), (GroupId(1), ts(7))].into();
        assert!(c.merge(&stale));
        assert_eq!(
            c.watermark(GroupId(0)),
            ts(5),
            "a lower watermark never wins"
        );
        assert_eq!(c.watermark(GroupId(1)), ts(7));
        assert!(!c.merge(&stale));
    }

    #[test]
    fn prune_stops_at_the_first_record_a_destination_watermark_does_not_cover() {
        let mut c = Compaction::new(1, 0);
        let mut records = delivered(&mut c, 4, &[0]);
        // Record 3 also went to g1, whose watermark covers only up to 2.
        records.insert(id(3), dest(&[0, 1]));
        c.merge(&[(GroupId(0), ts(4)), (GroupId(1), ts(2))].into());
        c.prune(&mut records, |d| d);
        assert_eq!(
            records.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![id(3), id(4)]
        );
        assert_eq!(c.pruned_count(), 2);
        // Record 4 is covered, but the scan stopped at record 3.
        c.merge(&[(GroupId(1), ts(3))].into());
        c.prune(&mut records, |d| d);
        assert!(records.is_empty());
        assert_eq!(c.pruned_count(), 4);
    }

    #[test]
    fn prune_keeps_lag_records() {
        let mut c = Compaction::new(1, 3);
        let mut records = delivered(&mut c, 10, &[0]);
        c.merge(&[(GroupId(0), ts(10))].into());
        c.prune(&mut records, |d| d);
        assert_eq!(
            records.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![id(8), id(9), id(10)]
        );
        assert_eq!(c.pruned_count(), 7);
    }

    #[test]
    fn disabled_compaction_indexes_and_prunes_nothing() {
        let mut c = Compaction::new(0, 0);
        let mut records = delivered(&mut c, 3, &[0]);
        c.merge(&[(GroupId(0), ts(3))].into());
        c.prune(&mut records, |d| d);
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn a_report_is_due_every_interval_deliveries() {
        let mut c = Compaction::new(3, 0);
        let due: Vec<bool> = (1..=7).map(|t| c.note_delivery(ts(t), id(t))).collect();
        assert_eq!(due, [false, false, true, false, false, true, false]);
    }

    #[test]
    fn jump_moves_lagging_progress_to_the_watermark_and_counts_it() {
        let mut c = Compaction::new(1, 0);
        c.merge(&[(GroupId(0), ts(5))].into());
        let mut progress = ts(2);
        c.jump(GroupId(0), &mut progress);
        assert_eq!(progress, ts(5));
        c.jump(GroupId(0), &mut progress);
        assert_eq!(
            (c.transfer_recoveries(), c.transfer_excused_below()),
            (1, ts(5))
        );
    }
}
