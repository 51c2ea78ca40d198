//! Compaction: the `STABLE` exchange, pruning and the consensus-log
//! frontier.

use wbam_types::{Action, DeliveryProgress, StableRole, StableStep};

use super::BaselineReplica;
use crate::messages::BaselineMsg;
use crate::Outbox;

impl BaselineReplica {
    /// Takes one `STABLE` decision (see [`DeliveryProgress`]) and maps it
    /// onto messages. The consensus leader recomputes the watermark and
    /// sends advances to its followers and the other groups' initial
    /// leaders; everyone else reports to the group's initial leader.
    pub(super) fn stable(
        &mut self,
        decide: impl FnOnce(&mut DeliveryProgress, StableRole) -> StableStep,
        out: &mut Outbox,
    ) {
        let role = if self.paxos.is_leader() {
            StableRole::Leader(&self.leaders)
        } else {
            StableRole::Follower(self.leaders.get(&self.group).copied())
        };
        match decide(&mut self.progress, role) {
            StableStep::Quiet => {}
            StableStep::Report(leader, delivered_gts) => {
                let group = self.group;
                let report = BaselineMsg::StableReport {
                    group,
                    delivered_gts,
                };
                out.push(Action::send(leader, report));
            }
            StableStep::Advance(to) => {
                self.prune();
                if to.is_empty() {
                    return;
                }
                let watermarks = self.progress.watermarks().clone();
                Action::send_to_all(out, to, BaselineMsg::StableAdvance { watermarks });
            }
        }
    }

    /// Prunes delivered records covered by every destination group's
    /// watermark and advances the consensus-log frontier over slots whose
    /// messages are pruned.
    pub(super) fn prune(&mut self) {
        if !self.progress.enabled() {
            return;
        }
        self.progress.prune(&mut self.records, |r| &r.msg.dest);
        // The log prefix whose every slot concerns pruned history can go.
        let mut frontier = self.paxos.compacted_below();
        while let Some((&slot, &mid)) = self.slot_msgs.iter().next() {
            if self.records.contains_key(&mid) || !self.progress.has_delivered(mid) {
                break;
            }
            self.slot_msgs.remove(&slot);
            frontier = slot + 1;
        }
        self.paxos.compact_below(frontier);
    }
}
