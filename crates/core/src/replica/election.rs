//! The leader-election oracle (heartbeats and election timeouts), restart,
//! and the two role transitions: `follow` is the only code that makes a
//! replica join a ballot as a follower, `lead` the only code that makes it a
//! leader.

use std::time::Duration;

use wbam_types::{Action, Ballot, MsgId, RecordMap};

use super::{Status, WhiteBoxReplica, ELECTION_TIMER, HEARTBEAT_TIMER};
use crate::messages::WhiteBoxMsg;
use crate::Outbox;

impl WhiteBoxReplica {
    /// The follower transition: joins `ballot` as `status` — `Recovering`
    /// until the ballot's state is installed (Figure 4, lines 37–41), then
    /// `Follower` (lines 57–62). Joining counts as leader activity, giving
    /// the ballot's leader one patience window before we consider
    /// campaigning, and makes that leader our group's leader hint.
    ///
    /// Arms the election timer: a follower must always have one running.
    /// A replica that was the leader until this moment has none (leaders keep
    /// a heartbeat timer instead, and it dies with the demotion), and a
    /// deposed leader whose `NEW_STATE` gets lost would otherwise sit in
    /// `Recovering` with no timer at all while the group's usable quorum
    /// shrinks by one (found by the schedule explorer; see
    /// `tests/regressions/`).
    pub(super) fn follow(
        &mut self,
        now: Duration,
        status: Status,
        ballot: Ballot,
        out: &mut Outbox,
    ) {
        self.status = status;
        self.ballot = ballot;
        self.last_leader_activity = now;
        self.note_leader(ballot);
        out.extend(self.election_timer());
    }

    /// The leader transition (Figure 4, lines 63–68): a quorum is in sync
    /// with the ballot this replica established.
    pub(super) fn lead(&mut self, out: &mut Outbox) {
        self.recovery = None;
        self.status = Status::Leader;
        // Line 66: re-deliver every committed message that is not blocked by
        // an accepted one. Followers discard duplicates via max_delivered_gts.
        self.try_deliver(out);
        // Resume processing of accepted-but-uncommitted messages by re-sending
        // MULTICAST to all destination leaders (§IV, "Message recovery").
        // The pending set is read off the incrementally maintained
        // delivery-condition index, not a scan of the record map, so this
        // costs O(pending suffix) even with a long resident history.
        let pending: Vec<MsgId> = self.delivery.pending().collect();
        for id in pending {
            let msg = self.records[&id].msg.clone();
            let multicast = WhiteBoxMsg::Multicast { msg: msg.clone() };
            Action::send_to_all(out, self.destination_leaders(&msg), multicast);
            // Make sure we also propose it ourselves (we are a destination
            // leader too) and keep retrying until it commits.
            self.handle_multicast(None, msg, out);
        }
        // Announce leadership and restart heartbeats.
        out.extend(self.heartbeat_timer());
        self.heartbeats(out);
    }

    /// Adopts `ballot`'s leader as our group's leader hint (`Cur_leader`),
    /// where follower-side `MULTICAST`s and `STABLE_REPORT`s go.
    fn note_leader(&mut self, ballot: Ballot) {
        if let Some(leader) = ballot.leader() {
            self.cur_leader.insert(self.own_group(), leader);
        }
    }

    fn election_timer(&self) -> Option<Action<WhiteBoxMsg>> {
        self.config
            .auto_election_enabled()
            .then_some(Action::SetTimer {
                id: ELECTION_TIMER,
                delay: self.config.election_timeout,
            })
    }

    fn heartbeat_timer(&self) -> Option<Action<WhiteBoxMsg>> {
        self.config
            .auto_election_enabled()
            .then_some(Action::SetTimer {
                id: HEARTBEAT_TIMER,
                delay: self.config.heartbeat_interval,
            })
    }

    /// A heartbeat of our ballot to every other member of the group.
    fn heartbeats(&self, out: &mut Outbox) {
        if !self.config.auto_election_enabled() {
            return;
        }
        let followers = self.group_members.iter().copied();
        Action::send_to_all(
            out,
            followers.filter(|p| *p != self.config.id),
            WhiteBoxMsg::Heartbeat {
                ballot: self.cballot,
            },
        );
    }

    fn election_rank(&self) -> u32 {
        self.group_members
            .iter()
            .position(|p| *p == self.config.id)
            .unwrap_or(0) as u32
    }

    pub(super) fn handle_heartbeat(&mut self, now: Duration, ballot: Ballot, out: &mut Outbox) {
        // Liveness is judged against the highest ballot we have *joined*
        // (`self.ballot`), not the one we last synchronised with (`cballot`).
        // After joining ballot b' a replica waits for b's NEW_STATE; if the
        // previous leader (ballot b < b') is still around, its heartbeats
        // must not keep resetting the election timer — with the b' handshake
        // messages lost, the whole group would otherwise sit in `Recovering`
        // forever while the stale leader's heartbeats pacify everyone (a
        // deadlock found by the schedule explorer; see `tests/regressions/`).
        if self.status == Status::Recovering {
            // Heartbeats while we are `Recovering` mean a leader is active
            // although we never finished synchronising — either we are
            // campaigning a ballot the others never joined, or we joined the
            // heartbeat's ballot and its NEW_STATE got lost. Either way the
            // heartbeat must *not* pacify our election timer: letting it
            // expire re-campaigns with a higher ballot, which re-synchronises
            // us through the normal handshake. (A `Recovering` replica cannot
            // acknowledge proposals, so staying wedged here would silently
            // shrink the group's usable quorum.)
        } else if ballot >= self.ballot {
            // A heartbeat for a ballot we never even *joined* (`ballot >
            // self.ballot`) means we missed the whole NEW_LEADER/NEW_STATE
            // exchange (partitioned away while the ballot was established).
            // Our cballot is stale, so we cannot acknowledge anything this
            // leader proposes — being pacified here would park us as a
            // permanently useless group member, silently shrinking the usable
            // quorum (with `f` other members gone, the whole group wedges;
            // found by the schedule explorer, see `tests/regressions/`).
            // Remember the leader for forwarding, but let our election timer
            // expire: the re-campaign resynchronises us through the normal
            // handshake.
            if ballot == self.ballot {
                self.last_leader_activity = now;
            }
            self.note_leader(ballot);
        } else if self.status == Status::Leader && ballot < self.cballot {
            // A heartbeat from a *lower* ballot means another member still
            // believes it leads an older ballot — possible after a partition
            // in which both sides completed recoveries with disjoint-looking
            // quorums that only overlapped in a since-crashed process. We
            // hold the authoritative state of the higher ballot; re-send it
            // so the stale leader rejoins (see `handle_new_state`'s
            // higher-ballot acceptance). Without this repair the two leaders
            // ignore each other forever and the group is wedged (found by
            // the schedule explorer; see `tests/regressions/`).
            if let Some(leader) = ballot.leader().filter(|l| *l != self.config.id) {
                self.send_state([leader], out);
            }
        }
    }

    pub(super) fn handle_heartbeat_timer(&mut self, out: &mut Outbox) {
        if self.status != Status::Leader {
            return;
        }
        self.heartbeats(out);
        out.extend(self.heartbeat_timer());
    }

    pub(super) fn handle_election_timer(&mut self, now: Duration, out: &mut Outbox) {
        if !self.config.auto_election_enabled() {
            return;
        }
        // A follower whose leader went quiet — or a replica whose own
        // recovery stalled because NEW_LEADER / NEW_STATE traffic was lost —
        // starts (re-)establishing a ballot. Without the `Recovering` case a
        // group in which every member joined a stalled ballot would deadlock:
        // election timers keep firing but nobody would ever campaign again.
        if self.status != Status::Leader {
            let patience = self.config.election_timeout * (1 + self.election_rank());
            if now.saturating_sub(self.last_leader_activity) > patience {
                self.last_leader_activity = now;
                self.start_recovery(out);
            }
        }
        out.extend(self.election_timer());
    }

    /// The process crashed and came back up with its durable state (records,
    /// ballots, clock, `max_delivered_gts`) intact; everything volatile —
    /// armed timers, in-progress recovery bookkeeping — died
    /// with it. The paper's model is crash-stop, so rejoin is our extension:
    /// the replica re-establishes a *fresh ballot* through the normal
    /// `NEW_LEADER` handshake, whatever its pre-crash role. The handshake is
    /// what re-synchronises it with a quorum: the `NEW_LEADER_ACK` snapshots
    /// teach it everything it slept through, and finishing recovery
    /// re-delivers committed messages it missed (Figure 4 line 66).
    /// Passively rejoining as a follower would *not* suffice — a follower
    /// whose `cballot` went stale while it was down can never acknowledge the
    /// current leader's proposals, and if the group's remaining quorum
    /// includes the restarted process, the group would be wedged forever
    /// (found by the schedule explorer; see `tests/regressions/`).
    pub(super) fn handle_restart(&mut self, now: Duration, out: &mut Outbox) {
        self.recovery = None;
        self.retry_timer_msgs.clear();
        self.retry_timer_of = RecordMap::new();
        self.last_leader_activity = now;
        self.status = Status::Follower;
        self.start_recovery(out);
        // Re-arm a retry timer for every pending record so stuck messages are
        // re-proposed (the pre-crash timers are gone). The pending set comes
        // from the delivery-condition index — restart work is proportional
        // to the in-flight suffix, not the delivered history (a replica
        // restarted after 50k deliveries re-arms only what is still open).
        let pending: Vec<MsgId> = self.delivery.pending().collect();
        self.last_restart_scan = pending.len();
        for id in pending {
            out.extend(self.arm_retry_timer(id));
        }
        out.extend(self.election_timer());
    }

    pub(super) fn handle_init(&mut self, now: Duration, out: &mut Outbox) {
        self.last_leader_activity = now;
        let timer = if self.status == Status::Leader {
            self.heartbeat_timer()
        } else {
            self.election_timer()
        };
        out.extend(timer);
    }
}
