//! Compaction: the `STABLE` exchange, watermarks and pruning.

use std::collections::BTreeMap;

use wbam_types::{Action, GroupId, MsgId, ProcessId, Timestamp};

use super::{Status, WhiteBoxReplica};
use crate::messages::WhiteBoxMsg;
use crate::record::MessageRecord;

impl WhiteBoxReplica {
    /// Every `compaction_interval` local deliveries: a follower reports its
    /// progress to the leader; the leader folds its own progress in and
    /// recomputes the group watermark. A recovering replica reports nothing;
    /// the next interval after the recovery completes will.
    pub(super) fn stable_round(&mut self) -> Vec<Action<WhiteBoxMsg>> {
        match self.status {
            Status::Leader => self.recompute_watermark(),
            Status::Follower => match self.cur_leader.get(&self.own_group()) {
                Some(&leader) if leader != self.config.id => vec![Action::send(
                    leader,
                    WhiteBoxMsg::StableReport {
                        group: self.own_group(),
                        delivered_gts: self.max_delivered_gts,
                    },
                )],
                _ => Vec::new(),
            },
            Status::Recovering => Vec::new(),
        }
    }

    /// Leader handler for `STABLE_REPORT`: fold in the member's progress and
    /// recompute the group watermark.
    pub(super) fn handle_stable_report(
        &mut self,
        from: ProcessId,
        group: GroupId,
        delivered_gts: Timestamp,
    ) -> Vec<Action<WhiteBoxMsg>> {
        if self.status != Status::Leader
            || group != self.own_group()
            || !self.group_members.contains(&from)
        {
            return Vec::new();
        }
        self.compaction.record_progress(from, delivered_gts);
        self.recompute_watermark()
    }

    /// Recomputes the own-group watermark (see
    /// [`Compaction::recompute`](wbam_types::Compaction::recompute)); on an
    /// advance, prunes and disseminates the updated watermark map.
    fn recompute_watermark(&mut self) -> Vec<Action<WhiteBoxMsg>> {
        self.compaction
            .record_progress(self.config.id, self.max_delivered_gts);
        let quorum = self.own_quorum();
        if !self
            .compaction
            .recompute(self.own_group(), &self.group_members, quorum)
        {
            return Vec::new();
        }
        self.prune_records();
        self.broadcast_watermarks()
    }

    /// Sends the current watermark map to the group's followers (who prune
    /// with it) and to the other groups' leaders (cross-group dissemination;
    /// multi-group records need every destination group's watermark).
    fn broadcast_watermarks(&self) -> Vec<Action<WhiteBoxMsg>> {
        let advance = WhiteBoxMsg::StableAdvance {
            watermarks: self.compaction.watermarks().clone(),
        };
        let own_group = self.own_group();
        let remote_leaders = self.cur_leader.iter().filter(|(g, _)| **g != own_group);
        let to = self
            .group_members
            .iter()
            .chain(remote_leaders.map(|(_, l)| l));
        Action::send_to_all(to.copied().filter(|p| *p != self.config.id), advance)
    }

    /// Merges a received watermark map and prunes. A leader that learnt
    /// something new re-broadcasts, so cross-group knowledge reaches its
    /// followers.
    pub(super) fn handle_stable_advance(
        &mut self,
        watermarks: BTreeMap<GroupId, Timestamp>,
    ) -> Vec<Action<WhiteBoxMsg>> {
        if !self.compaction.merge(&watermarks) {
            return Vec::new();
        }
        self.prune_records();
        if self.status == Status::Leader {
            self.broadcast_watermarks()
        } else {
            Vec::new()
        }
    }

    /// A peer answered our retry with "that record is pruned, globally
    /// delivered history" (see [`WhiteBoxMsg::StablePruned`]). Merge its
    /// watermark knowledge and resolve our pending copy: the record's global
    /// timestamp was fixed by the quorum that delivered it and is covered by
    /// every destination group's watermark, so our copy can never commit to
    /// anything new — drop it as installed (excused) history and let the
    /// delivery convoy move again.
    pub(super) fn handle_stable_pruned(
        &mut self,
        msg_id: MsgId,
        watermarks: BTreeMap<GroupId, Timestamp>,
    ) -> Vec<Action<WhiteBoxMsg>> {
        let mut actions = self.handle_stable_advance(watermarks);
        if !self
            .records
            .get(&msg_id)
            .is_some_and(MessageRecord::is_pending)
        {
            return actions;
        }
        let record = self.records.remove(&msg_id).expect("pending record");
        self.delivery.unpend(record.local_ts, msg_id);
        self.delivery.forget(record.global_ts, msg_id);
        self.dedup.insert(msg_id);
        self.pruned_dropped.insert(msg_id);
        actions.extend(self.cancel_retry_timer(msg_id));
        actions.extend(self.try_deliver());
        actions
    }

    /// Prunes delivered records covered by every destination group's
    /// watermark.
    pub(super) fn prune_records(&mut self) {
        self.compaction.prune(&mut self.records, |r| &r.msg.dest);
    }
}
