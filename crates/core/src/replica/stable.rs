//! Compaction: the `STABLE` exchange, watermarks and pruning.

use std::collections::BTreeMap;

use wbam_types::{Action, DeliveryProgress, GroupId, MsgId, StableRole, StableStep, Timestamp};

use super::{Status, WhiteBoxReplica};
use crate::messages::WhiteBoxMsg;
use crate::record::MessageRecord;
use crate::Outbox;

impl WhiteBoxReplica {
    /// Takes one `STABLE` decision (see [`DeliveryProgress`]) in this
    /// replica's role and maps it onto messages. A follower reports to its
    /// leader hint, a recovering replica not at all; an advance goes to the
    /// group and to the other groups' current leaders.
    pub(super) fn stable(
        &mut self,
        decide: impl FnOnce(&mut DeliveryProgress, StableRole) -> StableStep,
        out: &mut Outbox,
    ) {
        let role = match self.status {
            Status::Leader => StableRole::Leader(&self.cur_leader),
            Status::Follower => {
                StableRole::Follower(self.cur_leader.get(&self.config.group).copied())
            }
            Status::Recovering => StableRole::Silent,
        };
        match decide(&mut self.progress, role) {
            StableStep::Quiet => {}
            StableStep::Report(leader, delivered_gts) => {
                let group = self.own_group();
                let report = WhiteBoxMsg::StableReport {
                    group,
                    delivered_gts,
                };
                out.push(Action::send(leader, report));
            }
            StableStep::Advance(to) => {
                self.prune_records();
                if to.is_empty() {
                    return;
                }
                let watermarks = self.progress.watermarks().clone();
                Action::send_to_all(out, to, WhiteBoxMsg::StableAdvance { watermarks });
            }
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
        out: &mut Outbox,
    ) {
        self.stable(|p, role| p.stable_advance(role, &watermarks), out);
        if !self
            .records
            .get(&msg_id)
            .is_some_and(MessageRecord::is_pending)
        {
            return;
        }
        let record = self.records.remove(&msg_id).expect("pending record");
        self.delivery.unpend(record.local_ts, msg_id);
        self.delivery.forget(record.global_ts, msg_id);
        self.progress.note_delivered_elsewhere(msg_id);
        self.pruned_dropped.insert(msg_id);
        out.extend(self.cancel_retry_timer(msg_id));
        self.try_deliver(out);
    }

    /// Prunes delivered records covered by every destination group's
    /// watermark.
    pub(super) fn prune_records(&mut self) {
        self.progress.prune(&mut self.records, |r| &r.msg.dest);
    }
}
