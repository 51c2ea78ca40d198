//! Delivery progress and the `STABLE` compaction exchange, written once for
//! every fault-tolerant replica.
//!
//! Every `interval` deliveries a follower reports its delivery progress to
//! its leader (`STABLE_REPORT`); the leader recomputes its group's watermark
//! and sends every watermark it knows (`STABLE_ADVANCE`) to its followers and
//! the other leaders; every replica prunes the delivered records that each
//! destination group's watermark covers. [`DeliveryProgress`] decides each
//! step from the caller's [`StableRole`], given as data, and returns a
//! [`StableStep`] that the replica maps onto its own message type.

use std::collections::{BTreeMap, BTreeSet};

use crate::ballot::Ballot;
use crate::checkpoint::{merge_watermarks, Checkpoint, DeliveredFilter};
use crate::config::GroupConfig;
use crate::ids::{GroupId, MsgId, ProcessId};
use crate::message::Destination;
use crate::record_map::RecordMap;
use crate::timestamp::Timestamp;

/// Where a replica stands in its group's `STABLE` exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StableRole<'a> {
    /// Recomputes the group watermark and passes advances on to the group
    /// and the other groups' leaders in the map.
    Leader(&'a BTreeMap<GroupId, ProcessId>),
    /// Reports to its guess of the group's leader, if any and not itself.
    Follower(Option<ProcessId>),
    /// Reports nothing (a white-box replica establishing a ballot).
    Silent,
}

/// A decision of the `STABLE` exchange, for the replica to map onto its own
/// messages.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StableStep {
    /// Nothing to do.
    Quiet,
    /// Send `STABLE_REPORT(own group, progress)` to the leader.
    Report(ProcessId, Timestamp),
    /// The watermarks advanced: prune, then send `STABLE_ADVANCE` with
    /// [`DeliveryProgress::watermarks`] to these (none but at a leader).
    Advance(Vec<ProcessId>),
}

/// One replica's delivery progress, delivered filter and compaction state,
/// with counters for the test oracles.
#[derive(Debug, Clone)]
pub struct DeliveryProgress {
    me: ProcessId,
    group: GroupConfig,
    max_delivered_gts: Timestamp,
    delivered_count: u64,
    /// Every delivered identifier: answers duplicates of pruned records.
    filter: DeliveredFilter,
    /// Deliveries between `STABLE` rounds; zero disables compaction.
    interval: u64,
    /// Delivered records kept resident below the watermark.
    lag: usize,
    /// Deliveries since the last report or recompute.
    since_report: u64,
    /// Leader only: the latest delivery progress of each group member.
    member_progress: BTreeMap<ProcessId, Timestamp>,
    /// Every group's watermark as known here: all records with
    /// `global_ts <= watermarks[g]` are delivered at every member of `g`.
    watermarks: BTreeMap<GroupId, Timestamp>,
    /// Delivered, unpruned records in global-timestamp order.
    delivered: BTreeSet<(Timestamp, MsgId)>,
    pruned: u64,
    transfer_recoveries: u64,
    transfer_excused_below: Timestamp,
    lost_deliveries: u64,
}

impl DeliveryProgress {
    /// Nothing delivered yet at member `me` of `group`; compaction off.
    pub fn new(me: ProcessId, group: &GroupConfig) -> Self {
        DeliveryProgress {
            me,
            group: group.clone(),
            max_delivered_gts: Timestamp::BOTTOM,
            delivered_count: 0,
            filter: DeliveredFilter::new(),
            interval: 0,
            lag: 0,
            since_report: 0,
            member_progress: BTreeMap::new(),
            watermarks: BTreeMap::new(),
            delivered: BTreeSet::new(),
            pruned: 0,
            transfer_recoveries: 0,
            transfer_excused_below: Timestamp::BOTTOM,
            lost_deliveries: 0,
        }
    }

    /// A `STABLE` round every `interval` deliveries, keeping the `lag` most
    /// recent delivered records. A zero `interval` disables compaction.
    pub fn with_compaction(mut self, interval: u64, lag: usize) -> Self {
        (self.interval, self.lag) = (interval, lag);
        self
    }

    /// Whether compaction is enabled.
    pub fn enabled(&self) -> bool {
        self.interval > 0
    }

    /// The highest global timestamp delivered here.
    pub fn max_delivered_gts(&self) -> Timestamp {
        self.max_delivered_gts
    }

    /// Number of application messages delivered here.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Whether `id` is known delivered (possibly pruned since).
    pub fn has_delivered(&self, id: MsgId) -> bool {
        self.filter.contains(id)
    }

    /// Notes the delivery of `id` at `gts`. One at or below progress is
    /// refused with `None` (and counted as lost if `id` was never delivered
    /// here nor jumped over); otherwise returns whether a `STABLE` round is
    /// due: every `interval` deliveries, never with compaction off.
    pub fn note_delivery(&mut self, gts: Timestamp, id: MsgId) -> Option<bool> {
        if gts <= self.max_delivered_gts {
            if gts > self.transfer_excused_below && !self.filter.contains(id) {
                self.lost_deliveries += 1;
            }
            return None;
        }
        self.max_delivered_gts = gts;
        self.delivered_count += 1;
        self.filter.insert(id);
        if !self.enabled() {
            return Some(false);
        }
        self.delivered.insert((gts, id));
        self.since_report = (self.since_report + 1) % self.interval;
        Some(self.since_report == 0)
    }

    /// Notes a delivery re-installed on a resident record at or below
    /// progress: filtered and indexed for pruning, not counted.
    pub fn note_reinstalled(&mut self, gts: Timestamp, id: MsgId) {
        self.filter.insert(id);
        if self.enabled() {
            self.delivered.insert((gts, id));
        }
    }

    /// Notes `id` as delivered and pruned elsewhere: filtered only.
    pub fn note_delivered_elsewhere(&mut self, id: MsgId) {
        self.filter.insert(id);
    }

    /// This replica's ordering-layer checkpoint at `ballot` and `clock`.
    /// `app_state` is left empty: the ordering layer does not interpret
    /// application state; embedders fill it in.
    pub fn checkpoint(&self, ballot: Ballot, clock: u64) -> Checkpoint {
        Checkpoint {
            group: self.group.id(),
            ballot,
            clock,
            watermarks: self.watermarks.clone(),
            max_delivered_gts: self.max_delivered_gts,
            delivered_count: self.delivered_count,
            dedup: self.filter.clone(),
            app_state: Vec::new(),
        }
    }

    /// Installs `checkpoint`: merges its watermarks and filter and moves
    /// progress below the own group's watermark up to it. The history
    /// between is pruned at a quorum: installed, not replayed, and excused.
    pub fn install(&mut self, checkpoint: &Checkpoint) {
        merge_watermarks(&mut self.watermarks, &checkpoint.watermarks);
        self.filter.merge(&checkpoint.dedup);
        let watermark = self.watermark(self.group.id());
        if self.max_delivered_gts < watermark {
            self.transfer_recoveries += 1;
            self.transfer_excused_below = self.transfer_excused_below.max(watermark);
            self.max_delivered_gts = watermark;
        }
    }

    /// Rebuilds the prune-scan index after the record map was replaced.
    pub fn reindex(&mut self, delivered: impl IntoIterator<Item = (Timestamp, MsgId)>) {
        self.delivered.clear();
        if self.enabled() {
            self.delivered.extend(delivered);
        }
    }

    /// A new leader forgets member progress; members re-report within an
    /// interval.
    pub fn reset_member_progress(&mut self) {
        self.member_progress.clear();
    }

    /// A `STABLE` round fell due: a leader recomputes the watermark, a
    /// follower reports.
    pub fn stable_round(&mut self, role: StableRole) -> StableStep {
        match role {
            StableRole::Leader(leaders) => self.recompute(leaders),
            StableRole::Follower(Some(leader)) if leader != self.me => {
                StableStep::Report(leader, self.max_delivered_gts)
            }
            _ => StableStep::Quiet,
        }
    }

    /// `STABLE_REPORT`: a leader folds in a member's progress and
    /// recomputes.
    pub fn stable_report(
        &mut self,
        role: StableRole,
        from: ProcessId,
        group: GroupId,
        delivered_gts: Timestamp,
    ) -> StableStep {
        let StableRole::Leader(leaders) = role else {
            return StableStep::Quiet;
        };
        if group != self.group.id() || !self.group.contains(from) {
            return StableStep::Quiet;
        }
        self.record_progress(from, delivered_gts);
        self.recompute(leaders)
    }

    /// `STABLE_ADVANCE`: merges the watermarks (pointwise maximum). A leader
    /// that learnt something passes it on, so cross-group knowledge reaches
    /// its followers; the merge is monotone over a finite lattice, so the
    /// passing on stops.
    pub fn stable_advance(
        &mut self,
        role: StableRole,
        watermarks: &BTreeMap<GroupId, Timestamp>,
    ) -> StableStep {
        if !merge_watermarks(&mut self.watermarks, watermarks) {
            return StableStep::Quiet;
        }
        StableStep::Advance(match role {
            StableRole::Leader(leaders) => self.advance_targets(leaders),
            _ => Vec::new(),
        })
    }

    fn record_progress(&mut self, member: ProcessId, delivered_gts: Timestamp) {
        let entry = self.member_progress.entry(member).or_default();
        *entry = (*entry).max(delivered_gts);
    }

    /// Recomputes the own group's watermark as the quorum-th highest member
    /// progress, this replica's included. A quorum has then delivered all at
    /// or below it (delivery is in timestamp order); one crashed member
    /// cannot stall compaction, a lagging one catches up by state transfer,
    /// and any recovery quorum intersects this one, so pruned history stays
    /// known to a future leader as a committed record or through the filter.
    fn recompute(&mut self, leaders: &BTreeMap<GroupId, ProcessId>) -> StableStep {
        self.record_progress(self.me, self.max_delivered_gts);
        let mut progress: Vec<Timestamp> = (self.group.members().iter())
            .map(|m| self.member_progress.get(m).copied().unwrap_or_default())
            .collect();
        progress.sort_unstable_by(|a, b| b.cmp(a));
        let (group, watermark) = (self.group.id(), progress[self.group.quorum_size() - 1]);
        if watermark <= self.watermark(group) {
            return StableStep::Quiet;
        }
        self.watermarks.insert(group, watermark);
        StableStep::Advance(self.advance_targets(leaders))
    }

    /// The own group's members, then the other groups' `leaders`, without
    /// this replica.
    fn advance_targets(&self, leaders: &BTreeMap<GroupId, ProcessId>) -> Vec<ProcessId> {
        let own = self.group.id();
        let remote = leaders.iter().filter(|(g, _)| **g != own).map(|(_, l)| *l);
        let to = self.group.members().iter().copied().chain(remote);
        to.filter(|p| *p != self.me).collect()
    }

    /// `group`'s watermark as known here ([`Timestamp::BOTTOM`] at first).
    pub fn watermark(&self, group: GroupId) -> Timestamp {
        self.watermarks.get(&group).copied().unwrap_or_default()
    }

    /// Every group's watermark as known here.
    pub fn watermarks(&self) -> &BTreeMap<GroupId, Timestamp> {
        &self.watermarks
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

    /// Deliveries refused at or below progress for a message neither
    /// delivered here nor under a state transfer's watermark: each one is
    /// lost at this replica for good. Only a crash or a lost message can
    /// make one.
    pub fn lost_deliveries(&self) -> u64 {
        self.lost_deliveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ME: ProcessId = ProcessId(1);

    fn ts(time: u64) -> Timestamp {
        Timestamp::new(time, GroupId(0))
    }

    fn id(seq: u64) -> MsgId {
        MsgId::new(ProcessId(9), seq)
    }

    fn dest(groups: &[u32]) -> Destination {
        Destination::new(groups.iter().map(|g| GroupId(*g))).expect("non-empty")
    }

    /// Member `ME` of the group `{p0, ME, p2}`.
    fn progress(interval: u64, lag: usize) -> DeliveryProgress {
        let members = vec![ProcessId(0), ME, ProcessId(2)];
        let group = GroupConfig::new(GroupId(0), members).expect("odd group");
        DeliveryProgress::new(ME, &group).with_compaction(interval, lag)
    }

    /// The leaders of groups 0 (`ME`), 1 and 2.
    fn leaders() -> BTreeMap<GroupId, ProcessId> {
        [(0, ME), (1, ProcessId(3)), (2, ProcessId(6))]
            .map(|(g, l)| (GroupId(g), l))
            .into()
    }

    /// Merges `watermarks` as a follower does.
    fn merge(p: &mut DeliveryProgress, watermarks: &[(u32, u64)]) -> bool {
        let map = watermarks
            .iter()
            .map(|&(g, t)| (GroupId(g), ts(t)))
            .collect();
        let step = p.stable_advance(StableRole::Silent, &map);
        step != StableStep::Quiet
    }

    /// `n` delivered records addressed to `groups`, at global timestamps
    /// `1..=n`, indexed for the prune scan.
    fn delivered(p: &mut DeliveryProgress, n: u64, groups: &[u32]) -> RecordMap<Destination> {
        (1..=n)
            .map(|t| {
                let _ = p.note_delivery(ts(t), id(t));
                (id(t), dest(groups))
            })
            .collect()
    }

    #[test]
    fn a_silent_member_does_not_stall_the_watermark() {
        let (mut p, leaders) = (progress(1, 0), leaders());
        let leader = StableRole::Leader(&leaders);
        let _ = p.note_delivery(ts(6), id(6));
        // p0 at 9 and ME at 6; p2 never reports. f + 1 = 2: the watermark is
        // the second highest progress.
        let step = p.stable_report(leader, ProcessId(0), GroupId(0), ts(9));
        assert!(matches!(step, StableStep::Advance(_)));
        assert_eq!(p.watermark(GroupId(0)), ts(6));
        let _ = p.note_delivery(ts(8), id(8));
        let _ = p.stable_round(leader);
        assert_eq!(p.watermark(GroupId(0)), ts(8));
        // Stale progress never moves it back, and an unchanged quorum
        // reports no advance.
        let step = p.stable_report(leader, ProcessId(0), GroupId(0), ts(2));
        assert_eq!(step, StableStep::Quiet);
        assert_eq!(p.watermark(GroupId(0)), ts(8));
        // Reports from strangers, about other groups, or to a non-leader
        // change nothing.
        let quiet = [
            p.stable_report(leader, ProcessId(3), GroupId(0), ts(20)),
            p.stable_report(leader, ProcessId(0), GroupId(1), ts(20)),
            p.stable_report(StableRole::Silent, ProcessId(2), GroupId(0), ts(20)),
        ];
        assert!(quiet.iter().all(|s| *s == StableStep::Quiet));
        assert_eq!(p.watermark(GroupId(0)), ts(8));
    }

    #[test]
    fn merge_is_monotone_and_idempotent() {
        let mut p = progress(1, 0);
        assert!(merge(&mut p, &[(0, 5), (1, 3)]));
        assert!(
            !merge(&mut p, &[(0, 5), (1, 3)]),
            "merging the same map again changes nothing"
        );
        assert!(merge(&mut p, &[(0, 2), (1, 7)]));
        assert_eq!(
            p.watermark(GroupId(0)),
            ts(5),
            "a lower watermark never wins"
        );
        assert_eq!(p.watermark(GroupId(1)), ts(7));
        assert!(!merge(&mut p, &[(0, 2), (1, 7)]));
    }

    #[test]
    fn prune_stops_at_the_first_record_a_destination_watermark_does_not_cover() {
        let mut p = progress(1, 0);
        let mut records = delivered(&mut p, 4, &[0]);
        // Record 3 also went to g1, whose watermark covers only up to 2.
        records.insert(id(3), dest(&[0, 1]));
        merge(&mut p, &[(0, 4), (1, 2)]);
        p.prune(&mut records, |d| d);
        assert_eq!(
            records.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![id(3), id(4)]
        );
        assert_eq!(p.pruned_count(), 2);
        // Record 4 is covered, but the scan stopped at record 3.
        merge(&mut p, &[(1, 3)]);
        p.prune(&mut records, |d| d);
        assert!(records.is_empty());
        assert_eq!(p.pruned_count(), 4);
    }

    #[test]
    fn prune_keeps_lag_records() {
        let mut p = progress(1, 3);
        let mut records = delivered(&mut p, 10, &[0]);
        merge(&mut p, &[(0, 10)]);
        p.prune(&mut records, |d| d);
        assert_eq!(
            records.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![id(8), id(9), id(10)]
        );
        assert_eq!(p.pruned_count(), 7);
    }

    #[test]
    fn disabled_compaction_indexes_and_prunes_nothing() {
        let mut p = progress(0, 0);
        let mut records = delivered(&mut p, 3, &[0]);
        merge(&mut p, &[(0, 3)]);
        p.prune(&mut records, |d| d);
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn a_report_is_due_every_interval_deliveries() {
        let mut every_three = progress(3, 0);
        let due: Vec<_> = (1..=7)
            .map(|t| every_three.note_delivery(ts(t), id(t)))
            .collect();
        let (no, yes) = (Some(false), Some(true));
        assert_eq!(due, [no, no, yes, no, no, yes, no]);
        // Never with compaction off, though every delivery still counts.
        let mut off = progress(0, 0);
        assert!((1..=7).all(|t| off.note_delivery(ts(t), id(t)) == no));
        assert_eq!(off.delivered_count(), 7);
    }

    #[test]
    fn a_delivery_at_or_below_progress_changes_nothing() {
        let mut p = progress(1, 0);
        assert_eq!(p.note_delivery(ts(5), id(5)), Some(true));
        let before = p.checkpoint(Ballot::BOTTOM, 0);
        assert_eq!(p.note_delivery(ts(5), id(6)), None);
        assert_eq!(p.note_delivery(ts(3), id(3)), None);
        assert_eq!(p.checkpoint(Ballot::BOTTOM, 0), before);
        // A re-installed delivery is filtered, not counted.
        p.note_reinstalled(ts(3), id(3));
        assert!(p.has_delivered(id(3)) && !p.has_delivered(id(6)));
        assert_eq!((p.delivered_count(), p.max_delivered_gts()), (1, ts(5)));
    }

    #[test]
    fn a_refusal_counts_as_lost_unless_delivered_here_or_jumped_over() {
        let mut p = progress(1, 0);
        let _ = p.note_delivery(ts(5), id(5));
        assert_eq!(p.note_delivery(ts(5), id(5)), None, "a duplicate");
        assert_eq!(p.lost_deliveries(), 0);
        assert_eq!(p.note_delivery(ts(3), id(3)), None);
        assert_eq!(p.lost_deliveries(), 1, "3 was never delivered here");
        let mut checkpoint = p.checkpoint(Ballot::BOTTOM, 0);
        checkpoint.watermarks.insert(GroupId(0), ts(8));
        p.install(&checkpoint);
        assert_eq!(
            p.note_delivery(ts(7), id(7)),
            None,
            "installed, not replayed"
        );
        assert_eq!(p.lost_deliveries(), 1);
    }

    #[test]
    fn jump_moves_lagging_progress_to_the_watermark_and_counts_it() {
        let mut p = progress(1, 0);
        let _ = p.note_delivery(ts(2), id(2));
        let mut checkpoint = p.checkpoint(Ballot::BOTTOM, 0);
        checkpoint.watermarks.insert(GroupId(0), ts(5));
        checkpoint.dedup.insert(id(4));
        p.install(&checkpoint);
        assert_eq!(p.max_delivered_gts(), ts(5));
        assert!(p.has_delivered(id(4)));
        assert_eq!(p.delivered_count(), 1, "a jump is installed, not counted");
        // A checkpoint at or below progress changes nothing.
        p.install(&checkpoint);
        checkpoint.watermarks.insert(GroupId(0), ts(3));
        p.install(&checkpoint);
        assert_eq!(p.max_delivered_gts(), ts(5));
        assert_eq!(
            (p.transfer_recoveries(), p.transfer_excused_below()),
            (1, ts(5))
        );
    }

    #[test]
    fn advance_targets_include_the_remote_leaders_and_never_the_caller() {
        let (mut p, leaders) = (progress(1, 0), leaders());
        let leader = StableRole::Leader(&leaders);
        let advance: BTreeMap<_, _> = [(GroupId(1), ts(3))].into();
        let step = p.stable_advance(leader, &advance);
        let to = vec![ProcessId(0), ProcessId(2), ProcessId(3), ProcessId(6)];
        assert_eq!(step, StableStep::Advance(to));
        // Nothing new: nothing to pass on.
        assert_eq!(p.stable_advance(leader, &advance), StableStep::Quiet);
        // A follower prunes and sends nothing.
        let newer: BTreeMap<_, _> = [(GroupId(1), ts(4))].into();
        let follower = StableRole::Follower(Some(ProcessId(0)));
        let step = p.stable_advance(follower, &newer);
        assert_eq!(step, StableStep::Advance(Vec::new()));
    }

    #[test]
    fn a_follower_reports_to_its_leader_and_a_silent_replica_to_nobody() {
        let mut p = progress(1, 0);
        let _ = p.note_delivery(ts(2), id(2));
        let to = StableRole::Follower;
        let report = StableStep::Report(ProcessId(0), ts(2));
        assert_eq!(p.stable_round(to(Some(ProcessId(0)))), report);
        assert_eq!(p.stable_round(to(Some(ME))), StableStep::Quiet);
        assert_eq!(p.stable_round(to(None)), StableStep::Quiet);
        assert_eq!(p.stable_round(StableRole::Silent), StableStep::Quiet);
    }
}
